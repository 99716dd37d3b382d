"""Span tracing for the benchmark, installed from outside the program.

The program under test carries no hooks.  :func:`install` wraps the
layer-boundary functions of each ``repro`` module listed in
:data:`BOUNDARIES` and patches every name under which a ``repro``
module looks the original up (``repro.spec.scan_centers`` as well as
``repro.geometry.scan_centers``), so calls made through any import
path are recorded.  :func:`uninstall` puts the originals back.

A span is one call: name, start and end (``time.monotonic_ns``, one
clock for every process on the host), its own id, the id of the span
that was open when it started, the request id carried in a context
variable, and a few counts taken where the work happens (see the
``post`` hooks).  Ids are
``(pid, n)`` pairs, so spans from forked pool workers keep a parent
link to the parent-process span that forked them.

Spans stay in memory.  A forked worker drops what it inherited and
appends its own spans to ``spans-<pid>.jsonl`` in the trace directory
after every top-level span, because pool workers are terminated
without running exit handlers.  The main process writes its spans
with :meth:`Tracer.flush` when it is done.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

#: The request id of the work in progress; spans copy it.
REQUEST = contextvars.ContextVar("perfbench_request", default=None)
_PARENT = contextvars.ContextVar("perfbench_span", default=None)

#: Header the load generator sends so server-side spans share the
#: client's request id.
REQUEST_HEADER = "X-Perfbench-Request"


def _regions(args, kwargs, result, state):
    return {"regions": len(result)}


def _nnz_of(args, kwargs, result, state):
    return {"nnz": int(args[0]._matrix.nnz)}


def _llr_cells(args, kwargs, result, state):
    return {"cells": int(getattr(result, "size", 0))}


def _counts_bytes(args, kwargs, result, state):
    matrix, worlds = args[0], args[1]
    n_worlds = worlds.shape[1] if worlds.ndim == 2 else 1
    # Computed, not measured: one float64 world value read per stored
    # membership entry and world column.
    return {"bytes": int(matrix.nnz) * int(n_worlds) * 8}


def _worlds_arg(args, kwargs, result, state):
    return {"worlds": int(args[2] if len(args) > 2 else kwargs["n_worlds"])}


def _engine_before(args, kwargs):
    engine = args[0]
    return engine.cache_hits, engine.cache_misses


def _engine_after(args, kwargs, result, state):
    engine = args[0]
    n_worlds = int(args[3] if len(args) > 3 else kwargs["n_worlds"])
    results = result if isinstance(result, list) else [result]
    return {
        "hits": engine.cache_hits - state[0],
        "misses": engine.cache_misses - state[1],
        "requested": n_worlds * len(results),
        "used": sum(len(r) for r in results),
    }


def _adaptive_rounds(args, kwargs, result, state):
    from repro.budget import round_sizes

    n_worlds, policy = int(args[3]), args[9]
    longest = max((len(r) for r in result), default=0)
    done = rounds = 0
    for size in round_sizes(policy, n_worlds):
        if done >= longest:
            break
        done += size
        rounds += 1
    return {"rounds": rounds}


def _procs(args, kwargs, result, state):
    return {"procs": int(args[4] if len(args) > 4 else kwargs["n_procs"])}


def _group_specs(args, kwargs, result, state):
    return {"specs": sum(len(tickets) for tickets, _ in args[1])}


def _service_before(args, kwargs):
    service = args[0]
    return service._cache_hits, service._cache_misses


def _service_after(args, kwargs, result, state):
    service = args[0]
    return {
        "hits": service._cache_hits - state[0],
        "misses": service._cache_misses - state[1],
    }


def _stream_before(args, kwargs):
    service = args[0]
    return service._stream_skips, service._stream_runs


def _stream_after(args, kwargs, result, state):
    service = args[0]
    return {
        "skips": service._stream_skips - state[0],
        "runs": service._stream_runs - state[1],
    }


def _fingerprint_bytes(args, kwargs, result, state):
    arr = args[0]
    return {"bytes": int(getattr(arr, "nbytes", 0))}


def _write_bytes(args, kwargs, result, state):
    params = args[2] if len(args) > 2 else kwargs.get("params", ())
    size = sum(
        len(p) for p in params if isinstance(p, (str, bytes))
    ) + len(args[1])
    return {"bytes": size}


#: (module, qualified name, span name, pre hook, post hook).  A pre
#: hook reads state before the call; a post hook turns the call into
#: counts.  Every span's layer is the part of its name before the dot.
BOUNDARIES = [
    ("repro.geometry", "scan_centers", "geometry.centers", None, None),
    ("repro.geometry", "square_region_set", "geometry.regions", None,
     _regions),
    ("repro.geometry", "partition_region_set", "geometry.regions", None,
     _regions),
    ("repro.geometry", "circle_region_set", "geometry.regions", None,
     _regions),
    ("repro.spec", "RegionSpec.build", "spec.build", None, None),
    ("repro.index", "RegionMembership.__init__", "index.build", None,
     _nnz_of),
    ("repro.index", "StackedMembership.__init__", "index.stack", None,
     _nnz_of),
    ("repro.index", "RegionMembership.positive_counts", "index.observe",
     None, None),
    ("repro.index", "StackedMembership.positive_counts",
     "index.observe", None, None),
    ("repro.index", "RegionMembership.positive_counts_batch",
     "index.recount", None, None),
    ("repro.index", "StackedMembership.positive_counts_batch",
     "index.recount", None, None),
    ("repro.index", "RegionMembership.append_points", "index.append",
     None, None),
    ("repro.index", "StackedMembership.append_points", "index.append",
     None, None),
    ("repro.index", "RegionMembership.evict_points", "index.evict",
     None, None),
    ("repro.index", "StackedMembership.evict_points", "index.evict",
     None, None),
    ("repro.kernels", "bernoulli_llr_batch", "kernels.llr", None,
     _llr_cells),
    ("repro.kernels", "poisson_llr_batch", "kernels.llr", None,
     _llr_cells),
    ("repro.kernels", "multinomial_llr_term", "kernels.llr", None,
     _llr_cells),
    ("repro.kernels", "membership_counts_batch", "kernels.counts", None,
     _counts_bytes),
    ("repro.engine", "BernoulliKernel.simulate", "engine.simulate", None,
     _worlds_arg),
    ("repro.engine", "PoissonKernel.simulate", "engine.simulate", None,
     _worlds_arg),
    ("repro.engine", "MultinomialKernel.simulate", "engine.simulate",
     None, _worlds_arg),
    ("repro.engine", "BernoulliKernel.score", "engine.score", None, None),
    ("repro.engine", "PoissonKernel.score", "engine.score", None, None),
    ("repro.engine", "MultinomialKernel.score", "engine.score", None,
     None),
    ("repro.engine", "MonteCarloEngine.null_distribution", "engine.null",
     _engine_before, _engine_after),
    ("repro.engine", "MonteCarloEngine.null_distribution_multi",
     "engine.null", _engine_before, _engine_after),
    ("repro.engine", "MonteCarloEngine._null_parallel", "engine.pool",
     None, _procs),
    ("repro.engine", "_run_chunk", "engine.chunk", None, None),
    ("repro.engine", "MonteCarloEngine._adaptive_pass", "budget.adaptive",
     None, _adaptive_rounds),
    ("repro.core", "run_scan", "core.scan", None, None),
    ("repro.api", "AuditSession.__init__", "api.session", None, None),
    ("repro.api", "AuditSession.run", "api.run", None, None),
    ("repro.api", "AuditSession.resolve", "api.resolve", None, None),
    ("repro.api", "AuditSession.region_set", "api.region_set", None,
     None),
    ("repro.api", "AuditSession.append", "api.stream", None, None),
    ("repro.api", "AuditSession.evict", "api.stream", None, None),
    ("repro.api", "AuditSession.dataset_fingerprint", "api.fingerprint",
     None, None),
    ("repro.api", "AuditReport.to_dict", "api.to_dict", None, None),
    ("repro.fingerprint", "array_fingerprint", "fingerprint.array", None,
     _fingerprint_bytes),
    ("repro.serve", "AuditService.run_batch", "serve.batch", None, None),
    ("repro.serve", "AuditService.submit", "serve.submit", None, None),
    ("repro.serve", "AuditService.gather", "serve.gather", None, None),
    ("repro.serve", "AuditService._execute", "serve.execute",
     _service_before, _service_after),
    ("repro.serve", "AuditService._run_group", "serve.group", None,
     _group_specs),
    ("repro.serve", "AuditService.advance", "serve.advance",
     _stream_before, _stream_after),
    ("repro.serve", "PendingAudit.result", "serve.result", None, None),
    ("repro.gateway", "AuditGateway.submit", "gateway.submit", None,
     None),
    ("repro.gateway", "AuditGateway.ticket", "gateway.ticket", None,
     None),
    ("repro.gateway", "GatewayTicket.result", "gateway.result", None,
     None),
    ("repro.ticketstore", "TicketStore.record_submit",
     "ticketstore.record", None, None),
    ("repro.ticketstore", "TicketStore.record_settle",
     "ticketstore.record", None, None),
    ("repro.ticketstore", "TicketStore.record_fetch",
     "ticketstore.record", None, None),
    ("repro.ticketstore", "TicketStore._write", "ticketstore.write", None,
     _write_bytes),
    ("repro.registry", "DatasetRegistry.register", "registry.register",
     None, None),
]


class Tracer:
    """The span store of one process tree.

    Parameters
    ----------
    out_dir : path
        Directory for ``spans-<pid>.jsonl`` files.
    """

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: list = []
        self._ids = itertools.count(1)
        self._patched: list = []
        self._forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child keeps the open-span context (so its spans link to
        # the parent's) but none of the parent's recorded spans.
        self.spans = []
        self.pid = os.getpid()
        self._forked = True

    def span(self, name: str, fn, pre=None, post=None):
        """``fn`` wrapped so that each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _PARENT.get()
            sid = (tracer.pid, next(tracer._ids))
            token = _PARENT.set(sid)
            state = pre(args, kwargs) if pre is not None else None
            t0 = time.monotonic_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.monotonic_ns()
                _PARENT.reset(token)
                attrs = (
                    post(args, kwargs, result, state)
                    if ok and post is not None
                    else None
                )
                tracer._record(sid, parent, name, t0, t1, attrs)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _record(self, sid, parent, name, t0, t1, attrs) -> None:
        self.spans.append((sid, parent, name, t0, t1, REQUEST.get(), attrs))
        if self._forked and (parent is None or parent[0] != self.pid):
            self.flush()

    def root(self, name: str, request: str):
        """A context manager for a span the benchmark opens itself."""
        return _Root(self, name, request)

    def flush(self) -> None:
        """Append this process's spans to its file and forget them."""
        spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for s in spans:
                handle.write(json.dumps(s) + "\n")

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`."""
        if self._patched:
            return
        for module_name, qualname, name, pre, post in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.span(name, raw.__func__, pre, post))
            else:
                wrapped = self.span(name, raw, pre, post)
            self._patch(owner, attr, raw, wrapped)
            if owner is module:
                # Patch every other repro module that imported the
                # function by name.
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(attr) is raw
                    ):
                        self._patch(other, attr, raw, wrapped)
        self._install_http()

    def _install_http(self) -> None:
        """Root a span at each HTTP request the gateway handles, with
        the request id the client sent."""
        gateway = importlib.import_module("repro.gateway")
        original = gateway._make_handler
        tracer = self

        def make_handler(*args, **kwargs):
            handler = original(*args, **kwargs)
            for method in ("do_GET", "do_POST"):
                setattr(
                    handler,
                    method,
                    tracer._http_root(getattr(handler, method)),
                )
            return handler

        self._patch(gateway, "_make_handler", original, make_handler)

    def _http_root(self, method):
        inner = self.span("gateway.http", method)

        @functools.wraps(method)
        def handle(handler):
            token = REQUEST.set(handler.headers.get(REQUEST_HEADER))
            try:
                return inner(handler)
            finally:
                REQUEST.reset(token)

        return handle

    def _patch(self, owner, attr, raw, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched = []


class _Root:
    def __init__(self, tracer: Tracer, name: str, request: str):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self):
        self._req = REQUEST.set(self.request)
        self._sid = (self.tracer.pid, next(self.tracer._ids))
        self._parent = _PARENT.set(self._sid)
        self._t0 = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = time.monotonic_ns()
        _PARENT.reset(self._parent)
        self.tracer._record(self._sid, None, self.name, self._t0, t1, None)
        REQUEST.reset(self._req)
        return False


def load_spans(out_dir) -> list:
    """Every span written under ``out_dir``, as dicts."""
    rows = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            rows.extend(json.loads(line) for line in handle if line.strip())
    return [
        {
            "id": tuple(r[0]),
            "parent": None if r[1] is None else tuple(r[1]),
            "name": r[2],
            "t0": r[3],
            "t1": r[4],
            "req": r[5],
            "attrs": r[6] or {},
        }
        for r in rows
    ]
