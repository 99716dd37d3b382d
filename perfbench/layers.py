"""Per-layer metrics from recorded spans.

A span's self time is its duration minus the parts of it that its
child spans in the same process cover; pool workers run beside their
parent, not inside it, so their spans never reduce a parent-process
self time.  Times are seconds per unit of work (one iteration, batch,
advance or request, as the workload defines it) unless a metric says
otherwise; counts are per unit as well.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Count metrics that must repeat exactly across runs at one seed.
EXACT_COUNTS = (
    "geometry.regions",
    "index.builds",
    "index.nnz",
    "engine.worlds",
    "kernels.cells",
    "serve.specs_per_group",
    "ticketstore.writes",
)

#: Every per-layer metric and its unit, in report order.
UNITS = {
    "geometry.centers_s": "s",
    "geometry.regions": "count",
    "index.build_s": "s",
    "index.builds": "count",
    "index.nnz": "count",
    "index.recount_s": "s",
    "index.append_s": "s",
    "index.evict_s": "s",
    "index.stack_s": "s",
    "kernels.llr_s": "s",
    "kernels.cells": "count",
    "kernels.counts_s": "s",
    "kernels.counts_bytes": "B-computed",
    "engine.simulate_s": "s",
    "engine.score_s": "s",
    "engine.worlds": "count",
    "engine.null_self_s": "s",
    "engine.pool_busy_s": "s",
    "engine.pool_util": "ratio",
    "engine.null_cache_hit_ratio": "ratio",
    "budget.worlds_ratio": "ratio",
    "budget.rounds": "count",
    "core.scan_self_s": "s",
    "api.fingerprint_s": "s",
    "api.fingerprint_calls": "count",
    "api.to_dict_s": "s",
    "api.stream_self_s": "s",
    "serve.gather_wait_s": "s",
    "serve.specs_per_group": "count",
    "serve.report_cache_hit_ratio": "ratio",
    "serve.advance_self_s": "s",
    "serve.stream_skip_ratio": "ratio",
    "gateway.http_s": "s",
    "gateway.submit_s": "s",
    "gateway.stall_frac": "ratio",
    "gateway.queue_peak": "count",
    "gateway.rejected": "count",
    "ticketstore.write_s": "s",
    "ticketstore.writes": "count",
    "ticketstore.bytes": "B",
    "fingerprint.s": "s",
    "fingerprint.bytes": "B",
    "registry.register_s": "s",
    "loadgen.lag_p90_ms": "ms",
    "trace.wall_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.count_drift": "count",
}


def self_times(spans: list) -> dict:
    """Self time in seconds of every span, by span id."""
    covered: dict = defaultdict(int)
    for s in spans:
        parent = s["parent"]
        if parent is not None and parent[0] == s["id"][0]:
            covered[parent] += s["t1"] - s["t0"]
    return {
        s["id"]: (s["t1"] - s["t0"] - covered[s["id"]]) / 1e9
        for s in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, units: int) -> dict:
    """The span-derived per-layer metrics of one measured phase.

    Parameters
    ----------
    spans : list of dict
        The phase's spans, from every process (see
        :func:`tracing.load_spans`).
    units : int
        Units of work the phase measured.
    """
    own = self_times(spans)
    dur: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    attrs: dict = defaultdict(lambda: defaultdict(int))
    pool_capacity = 0.0
    for s in spans:
        name = s["name"]
        seconds = (s["t1"] - s["t0"]) / 1e9
        dur[name] += seconds
        self_s[name] += own[s["id"]]
        calls[name] += 1
        for key, value in s["attrs"].items():
            attrs[name][key] += value
        if name == "engine.pool":
            pool_capacity += seconds * s["attrs"].get("procs", 0)
    per = 1.0 / max(units, 1)
    null = attrs["engine.null"]
    execute = attrs["serve.execute"]
    advance = attrs["serve.advance"]
    return {
        "geometry.centers_s": dur["geometry.centers"] * per,
        "geometry.regions": attrs["geometry.regions"]["regions"] * per,
        "index.build_s": dur["index.build"] * per,
        "index.builds": calls["index.build"] * per,
        "index.nnz": attrs["index.build"]["nnz"] * per,
        "index.recount_s": dur["index.recount"] * per,
        "index.append_s": dur["index.append"] * per,
        "index.evict_s": dur["index.evict"] * per,
        "index.stack_s": dur["index.stack"] * per,
        "kernels.llr_s": dur["kernels.llr"] * per,
        "kernels.cells": attrs["kernels.llr"]["cells"] * per,
        "kernels.counts_s": dur["kernels.counts"] * per,
        "kernels.counts_bytes": attrs["kernels.counts"]["bytes"] * per,
        "engine.simulate_s": dur["engine.simulate"] * per,
        "engine.score_s": dur["engine.score"] * per,
        "engine.worlds": attrs["engine.simulate"]["worlds"] * per,
        "engine.null_self_s": (
            self_s["engine.null"] + self_s["engine.pool"]
        ) * per,
        "engine.pool_busy_s": dur["engine.chunk"] * per,
        "engine.pool_util": _ratio(dur["engine.chunk"], pool_capacity),
        "engine.null_cache_hit_ratio": _ratio(
            null["hits"], null["hits"] + null["misses"]
        ),
        "budget.worlds_ratio": _ratio(null["used"], null["requested"]),
        "budget.rounds": attrs["budget.adaptive"]["rounds"] * per,
        "core.scan_self_s": self_s["core.scan"] * per,
        "api.fingerprint_s": dur["api.fingerprint"] * per,
        "api.fingerprint_calls": calls["api.fingerprint"] * per,
        "api.to_dict_s": dur["api.to_dict"] * per,
        "api.stream_self_s": self_s["api.stream"] * per,
        "serve.gather_wait_s": (
            self_s["serve.gather"] + self_s["serve.result"]
        ) * per,
        "serve.specs_per_group": _ratio(
            attrs["serve.group"]["specs"], calls["serve.group"]
        ),
        "serve.report_cache_hit_ratio": _ratio(
            execute["hits"], execute["hits"] + execute["misses"]
        ),
        "serve.advance_self_s": self_s["serve.advance"] * per,
        "serve.stream_skip_ratio": _ratio(
            advance["skips"], advance["skips"] + advance["runs"]
        ),
        "gateway.submit_s": dur["gateway.submit"] * per,
        "ticketstore.write_s": dur["ticketstore.record"] * per,
        "ticketstore.writes": calls["ticketstore.write"] * per,
        "ticketstore.bytes": attrs["ticketstore.write"]["bytes"] * per,
        "fingerprint.s": dur["fingerprint.array"] * per,
        "fingerprint.bytes": attrs["fingerprint.array"]["bytes"] * per,
        "trace.spans": len(spans) * per,
    }


#: Spans whose whole duration feeds a published time metric: they
#: cover their descendants too.
DURATION_SPANS = frozenset({
    "geometry.centers", "index.build", "index.recount", "index.append",
    "index.evict", "index.stack", "kernels.llr", "kernels.counts",
    "engine.simulate", "engine.score", "api.fingerprint", "api.to_dict",
    "gateway.submit", "ticketstore.record", "fingerprint.array",
})
#: Spans whose self time feeds a published time metric.
SELF_SPANS = frozenset({
    "engine.null", "engine.pool", "core.scan", "api.stream",
    "serve.gather", "serve.result", "serve.advance",
})
#: Below this share of the traced unit time, work runs outside every
#: published layer and the per-layer metrics miss it.
MIN_ACCOUNTED = 0.9


def accounted(spans: list, root: str) -> tuple:
    """``(wall_s, accounted_frac)`` of the ``root`` spans: their mean
    duration, and the share of it that published per-layer times
    cover.  Only spans in the root's process count (pool workers run
    beside it; the parent's wait on them is ``engine.pool`` self time),
    and the catch-all wrappers (``api.run``, ``serve.batch``, ...) do
    not: their self time is work no per-layer metric shows."""
    roots = [s for s in spans if s["name"] == root]
    if not roots:
        return 0.0, 0.0
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def covered(s) -> bool:
        if s["name"] in DURATION_SPANS or s["name"] in SELF_SPANS:
            return True
        parent = by_id.get(s["parent"])
        while parent is not None and parent["id"][0] == s["id"][0]:
            if parent["name"] in DURATION_SPANS:
                return True
            parent = by_id.get(parent["parent"])
        return False

    pids = {s["id"][0] for s in roots}
    total = sum((s["t1"] - s["t0"]) / 1e9 for s in roots)
    layer = sum(
        own[s["id"]] for s in spans
        if s["id"][0] in pids and s["req"] is not None and covered(s)
    )
    return total / len(roots), _ratio(layer, total)


def server_time_by_request(spans: list) -> dict:
    """In-server ``submit`` + ``result`` seconds per request id."""
    out: dict = defaultdict(float)
    for s in spans:
        if s["name"] in ("gateway.submit", "gateway.result"):
            out[s["req"]] += (s["t1"] - s["t0"]) / 1e9
    return out


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
