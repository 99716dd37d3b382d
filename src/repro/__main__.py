"""Command-line entry point: run serialized audit specs.

Runs declarative :class:`repro.spec.AuditSpec` requests (JSON) against
a dataset stored as a numpy ``.npz`` archive and prints
:class:`repro.api.AuditReport` payloads as JSON::

    python -m repro run spec.json --data data.npz
    python -m repro batch specs/*.json --data data.npz
    python -m repro stream specs/*.json --data day0.npz \
        --update day1.npz --update day2.npz --window 86400
    python -m repro serve --port 8080 --data city=data.npz
    python -m repro validate spec.json

``batch`` serves every spec through one
:class:`repro.serve.AuditService`: specs sharing a null model are
fused into a single Monte Carlo pass, and the emitted payload carries
the service counters (worlds requested vs simulated) alongside the
per-spec reports.

``stream`` runs a continuous audit: the specs are watched on the
service, every ``--update`` archive is appended in order as one
arrival batch (``--window`` then slides a time window over the
``timestamps`` array), and only the specs whose measured data actually
changed are re-run at each step
(:meth:`repro.serve.AuditService.advance`).

``serve`` boots the multi-tenant HTTP gateway
(:class:`repro.gateway.GatewayHTTPServer`): each ``--data NAME=file``
registers a named dataset in a
:class:`repro.registry.DatasetRegistry`, ``--queue-size`` /
``--tenant-quota`` bound admission (rejections are HTTP 429 with
``Retry-After``), ``--store PATH`` journals every ticket to a sqlite
file (tickets survive restarts; journalled-but-unsettled audits are
re-run on boot, see :mod:`repro.ticketstore`), and SIGTERM/SIGINT
drain in-flight audits before exit.

The ``.npz`` archive must hold ``coords`` (an ``(n, 2)`` float array)
and the outcomes under ``outcomes`` (aliases ``y_pred``, ``labels`` or
``observed`` are accepted); optional arrays ``y_true`` and
``forecast`` unlock the accuracy measures and the Poisson family, and
``timestamps`` unlocks time-based eviction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .api import AuditSession
from .budget import BUDGET_KINDS
from .serve import AuditService
from .spec import AuditSpec

#: Accepted ``.npz`` keys for the outcomes array, in precedence order.
OUTCOME_KEYS = ("outcomes", "y_pred", "labels", "observed")


def _load_spec(path: str) -> AuditSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return AuditSpec.from_json(handle.read())


def _load_arrays(path: str) -> dict:
    """Load one ``.npz`` archive into the session/append kwargs."""
    data = np.load(path)
    if not hasattr(data, "files"):
        raise SystemExit(
            f"{path}: expected an .npz archive of named arrays, got "
            f"{type(data).__name__}"
        )
    if "coords" not in data.files:
        raise SystemExit(
            f"{path}: no 'coords' array (found: {sorted(data.files)})"
        )
    outcomes = next(
        (data[key] for key in OUTCOME_KEYS if key in data.files), None
    )
    if outcomes is None:
        raise SystemExit(
            f"{path}: no outcomes array — expected one of "
            f"{OUTCOME_KEYS} (found: {sorted(data.files)})"
        )
    return {
        "coords": data["coords"],
        "outcomes": outcomes,
        "y_true": data["y_true"] if "y_true" in data.files else None,
        "forecast": (
            data["forecast"] if "forecast" in data.files else None
        ),
        "timestamps": (
            data["timestamps"] if "timestamps" in data.files else None
        ),
    }


def _load_session(
    path: str, workers: int | None, n_classes: int | None
) -> AuditSession:
    arrays = _load_arrays(path)
    return AuditSession(
        arrays["coords"],
        arrays["outcomes"],
        y_true=arrays["y_true"],
        forecast=arrays["forecast"],
        n_classes=n_classes,
        workers=workers,
        timestamps=arrays["timestamps"],
    )


def main(argv: list | None = None) -> int:
    """Entry point; returns the process exit code.

    Parameters
    ----------
    argv : list of str, optional
        Arguments (defaults to ``sys.argv[1:]``).

    Returns
    -------
    int
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run or validate declarative spatial-fairness "
        "audit specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a spec against an .npz dataset"
    )
    run.add_argument("spec", help="AuditSpec JSON file")
    run.add_argument(
        "--data", required=True, metavar="NPZ",
        help=".npz with coords + outcomes (+ y_true/forecast)",
    )
    run.add_argument(
        "--full", action="store_true",
        help="include every scanned region in the report",
    )
    run.add_argument(
        "--workers", type=int, default=None,
        help="session default worker count",
    )
    run.add_argument(
        "--n-classes", type=int, default=None,
        help="class count for multinomial specs (else inferred from "
        "the labels present)",
    )
    run.add_argument(
        "--budget", choices=BUDGET_KINDS, default=None,
        help="override the spec's world-budget policy ('adaptive' "
        "stops null simulation early once the verdict is decided)",
    )
    run.add_argument(
        "--indent", type=int, default=2, help="JSON indent (default 2)"
    )

    batch = sub.add_parser(
        "batch",
        help="serve many specs at once, fusing shared Monte Carlo "
        "passes",
    )
    batch.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="AuditSpec JSON files (e.g. specs/*.json)",
    )
    batch.add_argument(
        "--data", required=True, metavar="NPZ",
        help=".npz with coords + outcomes (+ y_true/forecast)",
    )
    batch.add_argument(
        "--full", action="store_true",
        help="include every scanned region in each report",
    )
    batch.add_argument(
        "--workers", type=int, default=None,
        help="session default worker count",
    )
    batch.add_argument(
        "--n-classes", type=int, default=None,
        help="class count for multinomial specs",
    )
    batch.add_argument(
        "--budget", choices=BUDGET_KINDS, default=None,
        help="override every spec's world-budget policy",
    )
    batch.add_argument(
        "--indent", type=int, default=2, help="JSON indent (default 2)"
    )

    stream = sub.add_parser(
        "stream",
        help="continuous audit: append update batches, slide a time "
        "window, re-run only the specs whose data changed",
    )
    stream.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="AuditSpec JSON files to watch (e.g. specs/*.json)",
    )
    stream.add_argument(
        "--data", required=True, metavar="NPZ",
        help="initial .npz dataset (+ optional timestamps)",
    )
    stream.add_argument(
        "--update", action="append", default=[], metavar="NPZ",
        help="arrival batch to append, in order (repeatable)",
    )
    stream.add_argument(
        "--window", type=float, default=None,
        help="sliding time window applied after each update (needs "
        "a 'timestamps' array)",
    )
    stream.add_argument(
        "--full", action="store_true",
        help="include every scanned region in each report",
    )
    stream.add_argument(
        "--workers", type=int, default=None,
        help="session default worker count",
    )
    stream.add_argument(
        "--n-classes", type=int, default=None,
        help="class count for multinomial specs",
    )
    stream.add_argument(
        "--indent", type=int, default=2, help="JSON indent (default 2)"
    )

    serve = sub.add_parser(
        "serve",
        help="boot the multi-tenant HTTP audit gateway",
    )
    serve.add_argument(
        "--data", action="append", default=[], metavar="NAME=NPZ",
        help="register an .npz dataset under NAME (repeatable; "
        "datasets can also be POSTed to /datasets at runtime)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 picks an ephemeral one)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="gateway-wide cap on in-flight audits (excess submits "
        "get HTTP 429 + Retry-After)",
    )
    serve.add_argument(
        "--tenant-quota", type=int, default=None,
        help="per-tenant cap on in-flight audits",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="simulation worker count for every dataset session",
    )
    serve.add_argument(
        "--n-classes", type=int, default=None,
        help="class count applied to every --data dataset",
    )
    serve.add_argument(
        "--store", default=None, metavar="PATH",
        help="sqlite ticket journal; tickets survive restarts and "
        "journalled-but-unsettled audits are re-run on boot",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log each HTTP request to stderr",
    )

    validate = sub.add_parser(
        "validate", help="parse a spec and print its canonical form"
    )
    validate.add_argument("spec", help="AuditSpec JSON file")

    args = parser.parse_args(argv)
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "serve":
        return _run_serve(args)
    try:
        spec = _load_spec(args.spec)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"invalid spec {args.spec}: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(spec.to_json(indent=2))
        return 0

    if args.budget is not None:
        spec = dataclasses.replace(spec, budget=args.budget)
    try:
        session = _load_session(args.data, args.workers, args.n_classes)
        report = session.run(spec)
    except (OSError, ValueError) as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report.to_dict(full=args.full), indent=args.indent))
    return 0


def _run_batch(args: argparse.Namespace) -> int:
    """The ``batch`` subcommand: load every spec, serve the batch
    fused, print reports + service counters as one JSON payload."""
    specs = []
    for path in args.specs:
        try:
            spec = _load_spec(path)
            if args.budget is not None:
                spec = dataclasses.replace(spec, budget=args.budget)
            specs.append(spec)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"invalid spec {path}: {exc}", file=sys.stderr)
            return 2
    try:
        session = _load_session(args.data, args.workers, args.n_classes)
        service = AuditService(session)
        reports = service.run_batch(specs)
    except (OSError, ValueError) as exc:
        print(f"batch audit failed: {exc}", file=sys.stderr)
        return 1
    payload = {
        "version": 1,
        "reports": [
            report.to_dict(full=args.full) for report in reports
        ],
        "service": service.stats(),
    }
    print(json.dumps(payload, indent=args.indent))
    return 0


def _run_stream(args: argparse.Namespace) -> int:
    """The ``stream`` subcommand: watch the specs, advance through the
    update batches, print per-step reports + service counters."""
    specs = []
    for path in args.specs:
        try:
            specs.append(_load_spec(path))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"invalid spec {path}: {exc}", file=sys.stderr)
            return 2
    try:
        session = _load_session(args.data, args.workers, args.n_classes)
        service = AuditService(session)
        service.watch(specs)
        steps = []
        # Step 0: the baseline audit of the initial dataset.
        reports = service.advance(window=args.window)
        steps.append(
            {
                "step": 0,
                "update": None,
                "n_points": len(session.coords),
                "reports": [
                    r.to_dict(full=args.full) for r in reports
                ],
            }
        )
        for i, path in enumerate(args.update, start=1):
            arrays = _load_arrays(path)
            reports = service.advance(
                arrays["coords"],
                arrays["outcomes"],
                y_true=arrays["y_true"],
                forecast=arrays["forecast"],
                timestamps=arrays["timestamps"],
                window=args.window,
            )
            steps.append(
                {
                    "step": i,
                    "update": path,
                    "n_points": len(session.coords),
                    "reports": [
                        r.to_dict(full=args.full) for r in reports
                    ],
                }
            )
    except (OSError, ValueError) as exc:
        print(f"stream audit failed: {exc}", file=sys.stderr)
        return 1
    payload = {
        "version": 1,
        "steps": steps,
        "service": service.stats(),
    }
    print(json.dumps(payload, indent=args.indent))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: register the ``--data`` datasets,
    boot the HTTP gateway, block until SIGTERM/SIGINT, drain."""
    from .gateway import AuditGateway, serve_http
    from .ticketstore import TicketStore, TicketStoreError

    store = None
    if args.store is not None:
        try:
            store = TicketStore(args.store)
        except TicketStoreError as exc:
            print(f"cannot open ticket store: {exc}", file=sys.stderr)
            return 2
    try:
        gateway = AuditGateway(
            queue_size=args.queue_size,
            tenant_quota=args.tenant_quota,
            workers=args.workers,
            store=store,
        )
    except ValueError as exc:
        print(f"invalid gateway options: {exc}", file=sys.stderr)
        return 2
    for entry in args.data:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            print(
                f"invalid --data {entry!r}: expected NAME=file.npz",
                file=sys.stderr,
            )
            return 2
        try:
            arrays = _load_arrays(path)
        except OSError as exc:
            print(f"cannot load {path}: {exc}", file=sys.stderr)
            return 2
        gateway.register(
            name,
            arrays["coords"],
            arrays["outcomes"],
            y_true=arrays["y_true"],
            forecast=arrays["forecast"],
            n_classes=args.n_classes,
        )
        print(
            f"registered dataset {name!r} "
            f"({len(arrays['coords'])} points)",
            file=sys.stderr,
        )

    if store is not None:
        summary = gateway.recover()
        print(
            "ticket store {!r}: {replayed} unsettled ticket(s) "
            "replayed ({recovered} recovered, {failed} failed)".format(
                args.store, **summary
            ),
            file=sys.stderr,
        )

    def _announce(server):
        # Line protocol for smoke tests and supervisors: the bound
        # URL on stdout once the socket is live.
        print(f"listening on {server.url}", flush=True)

    try:
        serve_http(
            gateway,
            host=args.host,
            port=args.port,
            quiet=not args.verbose,
            ready=_announce,
        )
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print("drained; bye", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
