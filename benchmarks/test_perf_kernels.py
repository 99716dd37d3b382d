"""Perf: the hot-path kernels.

Times every :mod:`repro.kernels` entry point (Bernoulli / Poisson /
multinomial LLR batches and the membership recount) and records the
throughput under the ``kernels`` key of ``BENCH_engine.json`` (merged,
so the engine bench's keys and ``tools/bench.py``'s
``kernel_history`` rows survive).

No wall-clock number is asserted — throughput is recorded for the
history and gated by ``tools/bench.py --check`` under the usual
``BENCH_STRICT`` discipline, so 1-core runners cannot flake here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench  # noqa: E402  (tools/bench.py)

REPEATS = 2


def test_perf_kernels():
    ops = bench.bench_kernels(repeats=REPEATS)
    for name, value in ops.items():
        assert value > 0, f"{name} recorded no throughput"

    out = ROOT / "BENCH_engine.json"
    merged = {}
    if out.exists():
        try:
            merged = json.loads(out.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged["kernels"] = ops
    out.write_text(json.dumps(merged, indent=2) + "\n")

    print("\n=== Kernel perf (BENCH_engine.json: kernels) ===")
    for name, value in ops.items():
        print(f"{name}: {value:,.0f} cells/s")
