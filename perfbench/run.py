"""One benchmark for the whole audit stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lar_squares_cold --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures with the program untouched and prints every
end-to-end metric; ``--trace 1`` runs the traced variant and prints
every per-layer metric.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the first,
``# env:``, tags the result with the machine and environment.  See
``perfbench/README.md`` for the workloads and a glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_REPS = 3
#: In-process set-ups repeat until they have taken this long as well,
#: so that a cheap set-up reports the median of many.
SETUP_MIN_S = 3.0
#: Client time outside the server's spans beyond which a light request
#: counts as stalled in TCP (a delayed ACK holds a response ~40 ms).
STALL_S = 0.03
WORKLOADS = (
    "lar_squares_cold", "lar_grid_fused", "stream_slide", "gateway_http",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slo-ms", default="",
        help="per-workload latency limits for goodput, as "
        "name=ms,name=ms",
    )
    args = parser.parse_args(argv)
    limits = dict(part.split("=") for part in args.slo_ms.split(",") if part)
    if args.workload not in limits:
        parser.error(f"--slo-ms names no limit for {args.workload}")
    args.limit_ms = float(limits[args.workload])
    return args


def environment() -> dict:
    """The machine and environment tag; results with different tags
    must not be compared."""
    import numpy
    import scipy
    from repro import kernels

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.active_backend(),
        "commit": commit(),
    }


def commit() -> str:
    """The git commit when the checkout is a repository, else a sha256
    of the program's sources."""
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def quantile(values, q: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def tail(values) -> float:
    """p90 when at least ten samples lie beyond it (100 or more
    samples); below that no percentile above the median has ten
    samples beyond it, so the median stands in."""
    if len(values) >= 100:
        return quantile(values, 0.9)
    return statistics.median(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- processes ---------------------------------------------------------

PR_SET_CHILD_SUBREAPER = 36
#: How long the processes a run started may take to end once it is
#: over before they are killed.
STOP_TIMEOUT_S = 30.0


def adopt_orphans() -> None:
    """Make this process the subreaper of every process the run starts:
    one whose parent ends first (such as the resource tracker of a
    server subprocess) is re-parented here, so :func:`stop_processes`
    waits for it too."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: children only
        pass


def on_sigterm(main_pid: int):
    """A SIGTERM handler that unwinds the run (so that its ``finally``
    stops what it started) in the run's own process and exits at once
    in a forked child."""

    def handler(signum, frame):
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    return handler


def child_pids() -> list:
    """The live children of this process."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def stop_processes() -> None:
    """Stop multiprocessing's resource tracker (started the first time
    the program creates shared memory; it would outlive this process
    by a moment) and wait for every child, killing those still running
    after :data:`STOP_TIMEOUT_S`."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 1.0
        time.sleep(0.01)


# -- in-process workloads ----------------------------------------------


def measure(workload, state, seconds=None, units=None, root=None,
            between=None):
    """Run timed units until ``seconds`` of unit time (and the
    workload's minimum count) or exactly ``units``, calling
    ``between()`` untimed after each; returns ``(samples, attempted,
    failed)``."""
    samples, failed, busy, i = [], 0, 0.0, 0
    while True:
        t0 = time.perf_counter()
        try:
            if root is None:
                reports = workload.unit(state, i)
            else:
                with root(i):
                    reports = workload.unit(state, i)
        except Exception as exc:  # a failed unit counts, the run goes on
            print(f"unit {i} failed: {exc!r}", file=sys.stderr)
            reports = None
        dt = time.perf_counter() - t0
        samples.append(dt)
        busy += dt
        if reports is None or not workload.check(state, i, reports):
            failed += 1
        if between is not None:
            between()
        i += 1
        if units is not None:
            if i >= units:
                break
        elif (busy >= seconds and i >= workload.min_units) or (
            i >= workload.max_units
        ):
            break
    return samples, i, failed


def end_to_end(setups, units_s, loaded_ms, light_ms, good_ms, elapsed,
               attempted, failed, limit_ms, rss_mb, factor=1.0) -> dict:
    """The end-to-end metrics, with every time scaled by ``factor``
    (reference seconds per measured second, see ``calibrate.py``).

    ``units_s`` are unit times run alone, ``loaded_ms`` and
    ``light_ms`` latencies under the workload's load and light load,
    ``good_ms`` the latencies of the loaded units that succeeded, over
    ``elapsed`` seconds."""
    loaded = [m * factor for m in loaded_ms]
    good = sum(1 for m in good_ms if m * factor <= limit_ms)
    return {
        "setup_s": (statistics.median(setups) * factor, "s"),
        "wall_s": (statistics.median(units_s) * factor, "s"),
        "lat_p50_ms": (statistics.median(loaded), "ms"),
        "lat_p90_ms": (tail(loaded), "ms"),
        "light_p50_ms": (statistics.median(light_ms) * factor, "ms"),
        "goodput_rps": (good / (elapsed * factor), "1/s"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def calibrated(args, calibration, failed, **inputs) -> dict:
    """The end-to-end metrics, in reference seconds when a
    ``calibration`` is given (the raw ones and the calibration then go
    to comment lines), else as measured."""
    factor = 1.0
    if calibration is not None:
        raw = end_to_end(limit_ms=args.limit_ms, failed=failed, **inputs)
        factor = calibration.factor()
        print("# raw: " + json.dumps({k: v for k, (v, _) in raw.items()}))
        print(f"# calibration: passes={len(calibration.samples)} "
              f"median_s={REFERENCE_S / factor:.4f} factor={factor:.4f}")
    return {
        "correct": failed == 0,
        "attempted": inputs["attempted"],
        "failed": failed,
        "metrics": end_to_end(
            limit_ms=args.limit_ms, failed=failed, factor=factor, **inputs
        ),
    }


def digest_check(name, texts, seed) -> tuple:
    """At the default seed, compare the report digest with the pinned
    one; returns ``(attempted, failed)``."""
    from workloads import digest

    value = digest(texts)
    print(f"# digest {name} seed={seed}: {value}")
    if seed != DEFAULT_SEED:
        return 0, 0
    return 1, int(value != expected()[name]["digest"])


def run_in_process(args, run_dir: Path) -> dict:
    from workloads import IN_PROCESS

    workload = IN_PROCESS[args.workload](args.seed)
    calibration = Calibration()
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        calibration.maybe()
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - t0)
    samples, attempted, failed = measure(
        workload, state, args.seconds, between=calibration.maybe
    )
    calibration.take()
    a, f = workload.cross_check(state)
    b, g = digest_check(
        workload.name, workload.digest_reports(state), args.seed
    )
    attempted, failed = attempted + a + b, failed + f + g
    print(f"# samples={len(samples)}")
    ms = [x * 1e3 for x in samples]
    return calibrated(
        args, calibration, failed, setups=setups, units_s=samples,
        loaded_ms=ms, light_ms=ms, good_ms=ms, elapsed=sum(samples),
        attempted=attempted, rss_mb=peak_rss_mb(),
    )


def trace_in_process(args, run_dir: Path) -> dict:
    from layers import EXACT_COUNTS, MIN_ACCOUNTED, accounted, layer_metrics
    from tracing import Tracer, load_spans
    from workloads import IN_PROCESS

    workload = IN_PROCESS[args.workload](args.seed)
    n = workload.trace_units
    untraced, attempted, failed = measure(
        workload, workload.setup(), units=n
    )
    tracer = Tracer(run_dir / "spans")
    tracer.install()
    reps = []
    try:
        for rep in (1, 2):
            state = workload.setup()
            samples, a, f = measure(
                workload, state, units=n,
                root=lambda i, rep=rep: tracer.root(
                    "bench.unit", f"t{rep}-{i}"
                ),
            )
            attempted, failed = attempted + a, failed + f
            reps.append(samples)
    finally:
        tracer.uninstall()
    tracer.flush()
    spans = load_spans(run_dir / "spans")
    by_rep = [
        [s for s in spans if (s["req"] or "").startswith(f"t{rep}-")]
        for rep in (1, 2)
    ]
    metrics = layer_metrics(by_rep[0], n)
    again = layer_metrics(by_rep[1], n)
    wall, frac = accounted(by_rep[0], "bench.unit")
    if frac < MIN_ACCOUNTED:
        print(f"benchmark defect: published layers cover only {frac:.3f} "
              f"of the traced unit time", file=sys.stderr)
    base = statistics.median(untraced)
    traced = statistics.median(reps[0] + reps[1])
    metrics.update({
        "gateway.http_s": 0.0,
        "gateway.stall_frac": 0.0,
        "gateway.queue_peak": 0,
        "gateway.rejected": 0,
        "registry.register_s": 0.0,
        "loadgen.lag_p90_ms": 0.0,
        "trace.wall_s": wall,
        "trace.accounted_frac": frac,
        "trace.overhead_ms": (traced - base) * 1e3,
        "trace.overhead_frac": (traced - base) / base,
    })
    drift = count_drift(args, metrics, again, EXACT_COUNTS)
    metrics["trace.count_drift"] = drift
    return {
        "correct": failed == 0 and drift == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def count_drift(args, metrics, again, names) -> int:
    """Exact-count self-check: the counts must repeat between the two
    traced passes and, at the default seed, match the pinned ones."""
    counts = {k: metrics[k] for k in names}
    print(f"# counts {args.workload} seed={args.seed}: "
          f"{json.dumps(counts, sort_keys=True)}")
    drift = [
        (k, "between traced passes") for k in names
        if metrics[k] != again[k]
    ]
    pinned = expected()[args.workload]
    # The gateway's request schedule, hence its counts, scales with
    # --seconds; its pins hold at the seconds they were taken at.
    if args.seed == DEFAULT_SEED and args.seconds == pinned.get(
        "seconds", args.seconds
    ):
        drift += [
            (k, "from expected.json") for k in names
            if pinned["counts"].get(k) != metrics[k]
        ]
    for k, where in drift:
        print(f"benchmark defect: count {k} drifted {where}",
              file=sys.stderr)
    return len(drift)


# -- gateway_http --------------------------------------------------------


def run_gateway(args, run_dir: Path) -> dict:
    from gateway_http import GatewayHTTP, elapsed_s, latencies_ms

    g = GatewayHTTP(args.seed, args.seconds, ROOT, run_dir)
    result = g.new_run()
    setups = []
    server = None
    try:
        for _ in range(SETUP_REPS):
            if server is not None:
                server.stop()
            server, seconds = g.boot()
            setups.append(seconds)
        g.light(server, result)
        g.loaded(server, result)
    finally:
        if server is not None:
            server.stop()
    attempted, failed = g.verify(result)
    b, f = digest_check(g.name, g.digest_reports(result), args.seed)
    attempted, failed = attempted + b, failed + f
    light = result["phases"]["light"]
    loaded = result["phases"]["loaded"]
    print(f"# samples light={len(light)} loaded={len(loaded)}")
    light_ms = latencies_ms(light)
    # As measured: a reference pass does not track this workload (see
    # README, *Times are in reference seconds*).
    return calibrated(
        args, None, failed, setups=setups,
        units_s=[m / 1e3 for m in light_ms], loaded_ms=latencies_ms(loaded),
        light_ms=light_ms,
        good_ms=latencies_ms([it for it in loaded if it.get("ok")]),
        elapsed=elapsed_s(loaded), attempted=attempted,
        rss_mb=result["rss_mb"],
    )


def trace_gateway(args, run_dir: Path) -> dict:
    from gateway_http import GatewayHTTP
    from layers import (
        EXACT_COUNTS, accounted, layer_metrics, median,
        server_time_by_request,
    )
    from tracing import load_spans

    g = GatewayHTTP(args.seed, args.seconds, ROOT, run_dir)
    runs = []
    for trace_dir in (None, run_dir / "spans-1", run_dir / "spans-2"):
        result = g.new_run()
        server, _ = g.boot(trace_dir)
        try:
            g.light(server, result)
            # The untraced pass only gives the overhead baseline, which
            # the light phase measures.
            if trace_dir is None:
                result["phases"]["loaded"] = []
            else:
                g.loaded(server, result)
        finally:
            server.stop()
        runs.append(result)
    attempted = failed = 0
    for result in runs:
        a, f = g.verify(result)
        attempted, failed = attempted + a, failed + f
    measured = []
    for rep, result in ((1, runs[1]), (2, runs[2])):
        spans = load_spans(run_dir / f"spans-{rep}")
        loaded = [s for s in spans
                  if (s["req"] or "").startswith("loaded-")]
        n = len(result["phases"]["loaded"])
        metrics = layer_metrics(loaded, n)
        server_s = server_time_by_request(loaded)
        items = result["phases"]["loaded"]
        metrics["gateway.http_s"] = median(
            it["done"] - it["sent"] - server_s.get(it["req"], 0.0)
            for it in items if "done" in it
        )
        light_spans = server_time_by_request(
            [s for s in spans if (s["req"] or "").startswith("light-")]
        )
        outside = [
            it["done"] - it["sent"] - light_spans.get(it["req"], 0.0)
            for it in result["phases"]["light"] if "done" in it
        ]
        metrics["gateway.stall_frac"] = sum(
            x > STALL_S for x in outside
        ) / max(len(outside), 1)
        stats = result["stats"]
        metrics["gateway.queue_peak"] = stats.get("queue_peak", 0)
        metrics["gateway.rejected"] = sum(
            stats.get(k, 0) for k in
            ("rejected_full", "rejected_quota", "rejected_draining")
        )
        registers = [(s["t1"] - s["t0"]) / 1e9 for s in spans
                     if s["name"] == "registry.register"]
        metrics["registry.register_s"] = median(registers)
        lags = [it["lag"] * 1e3 for it in items if "lag" in it]
        metrics["loadgen.lag_p90_ms"] = quantile(lags, 0.9) if lags else 0.0
        wall, frac = accounted(loaded, "gateway.http")
        metrics["trace.wall_s"] = wall
        metrics["trace.accounted_frac"] = frac
        measured.append(metrics)
    light = [
        statistics.median(it["done"] - it["sent"]
                          for it in r["phases"]["light"])
        for r in runs
    ]
    base, traced = light[0], statistics.median(light[1:])
    metrics = measured[0]
    metrics["trace.overhead_ms"] = (traced - base) * 1e3
    metrics["trace.overhead_frac"] = (traced - base) / base
    drift = count_drift(args, metrics, measured[1], EXACT_COUNTS)
    metrics["trace.count_drift"] = drift
    return {
        "correct": failed == 0 and drift == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    print("# env: " + json.dumps(environment(), sort_keys=True))
    run_dir = ROOT / ".perfbench-run" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    adopt_orphans()
    signal.signal(signal.SIGTERM, on_sigterm(os.getpid()))
    try:
        if args.workload == "gateway_http":
            runner = trace_gateway if args.trace else run_gateway
        else:
            runner = trace_in_process if args.trace else run_in_process
        out = runner(args, run_dir)
    finally:
        stop_processes()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if args.trace:
        from layers import UNITS

        metrics = {
            k: {"value": out["metrics"][k], "unit": unit}
            for k, unit in UNITS.items()
        }
    else:
        metrics = {
            k: {"value": v, "unit": unit}
            for k, (v, unit) in out["metrics"].items()
        }
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
