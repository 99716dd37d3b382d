"""Run ``python -m repro`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/launch.py --trace-dir DIR -- serve --store ... --data ...

The wrappers go in before the program starts, so every span the server
records (with the request id each HTTP request carried in its
``X-Perfbench-Request`` header) is written to ``DIR`` when the server
has drained and ``main`` returns.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tracing import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    ns = parser.parse_args(argv)
    args = ns.args[1:] if ns.args[:1] == ["--"] else ns.args
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.__main__ import main as repro_main

    tracer = Tracer(ns.trace_dir)
    tracer.install()
    try:
        return repro_main(args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
