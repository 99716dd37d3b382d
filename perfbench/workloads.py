"""The in-process workloads: cold square scans, fused grids, a sliding
stream.

Each workload is a small object with the same shape:

* ``setup()`` generates the inputs from the seed, builds whatever the
  unit of work runs against and runs one warm-up unit; it returns the
  state the units use;
* ``unit(state, i)`` is one timed unit of work and returns its
  reports;
* ``check(state, i, reports)`` verifies one unit's reports, untimed;
* ``cross_check(state)`` is the untimed equivalence check against an
  independent path, run once per run;
* ``digest_reports(state)`` names the reports whose sha256 is pinned
  in ``expected.json`` for the default seed.

The program only ever receives the generated arrays and specs.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np


def canonical(report) -> str:
    """A report's ``to_dict(full=True)`` as canonical JSON text."""
    return json.dumps(
        report.to_dict(full=True), sort_keys=True, separators=(",", ":")
    )


def digest(texts) -> str:
    """sha256 over canonical report texts, in order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class LarSquaresCold:
    """The paper's headline design, cold: a fresh session over the
    LAR-like data and one square scan, ``RegionSpec.squares(100)``
    (100 k-means centres x 20 sides), serial."""

    name = "lar_squares_cold"
    min_units = 3
    max_units = 1000
    trace_units = 2
    n_worlds = 200

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from repro import AuditSpec, RegionSpec
        from repro.datasets import generate_lar_like

        data = generate_lar_like(seed=self.seed)
        state = {
            "coords": data.coords,
            "outcomes": data.y_pred,
            "spec": AuditSpec(
                regions=RegionSpec.squares(100, centers_seed=self.seed),
                n_worlds=self.n_worlds,
                seed=self.seed + 1,
            ),
        }
        state["expected"] = [canonical(r) for r in self.unit(state, -1)]
        return state

    def unit(self, state, i):
        from repro import AuditSession

        session = AuditSession(state["coords"], state["outcomes"])
        return [session.run(state["spec"])]

    def check(self, state, i, reports) -> bool:
        return [canonical(r) for r in reports] == state["expected"]

    def cross_check(self, state) -> tuple:
        # Every timed iteration was already compared with the warm-up
        # run; nothing else to cross.
        return 0, 0

    def digest_reports(self, state) -> list:
        return state["expected"]


class LarGridFused:
    """The paper's LAR partitionings (100x50 of Fig. 3, 25x12 of
    Fig. 9) and coarser grids as one fused service batch over a fresh
    session: one shared null model, ``workers=nproc``."""

    name = "lar_grid_fused"
    min_units = 3
    max_units = 1000
    trace_units = 3
    n_worlds = 1024
    grids = ((100, 50), (50, 25), (25, 12), (10, 5))

    def __init__(self, seed: int):
        self.seed = seed

    def specs(self):
        from repro import AuditSpec, RegionSpec

        return [
            AuditSpec(
                regions=RegionSpec.grid(nx, ny),
                n_worlds=self.n_worlds,
                seed=self.seed + 1,
                workers=nproc(),
            )
            for nx, ny in self.grids
        ]

    def setup(self):
        from repro.datasets import generate_lar_like

        data = generate_lar_like(seed=self.seed)
        state = {
            "coords": data.coords,
            "outcomes": data.y_pred,
            "specs": self.specs(),
        }
        state["expected"] = [canonical(r) for r in self.unit(state, -1)]
        return state

    def unit(self, state, i):
        from repro import AuditSession
        from repro.serve import AuditService

        session = AuditSession(state["coords"], state["outcomes"])
        return AuditService(session).run_batch(state["specs"])

    def check(self, state, i, reports) -> bool:
        return [canonical(r) for r in reports] == state["expected"]

    def cross_check(self, state) -> tuple:
        """Fused reports must equal solo runs on a fresh session."""
        from repro import AuditSession

        session = AuditSession(state["coords"], state["outcomes"])
        solo = [canonical(session.run(s)) for s in state["specs"]]
        failed = sum(a != b for a, b in zip(solo, state["expected"]))
        return len(solo), failed

    def digest_reports(self, state) -> list:
        return state["expected"]


class StreamSlide:
    """A continuous audit over a sliding 20k-point LAR-like window:
    each ``advance()`` appends 1% new points and evicts by
    ``window=``, re-running three watched specs (an auto-bounds grid,
    a fixed-bounds ``equal_opportunity`` grid and a small squares
    design)."""

    name = "stream_slide"
    min_units = 100
    max_units = 400
    trace_units = 40
    window_points = 20_000
    step = 200
    digest_after = 100

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from repro import AuditSession, AuditSpec, RegionSpec
        from repro.datasets import generate_lar_like
        from repro.serve import AuditService

        n = self.window_points + self.step * self.max_units
        data = generate_lar_like(n_applications=n, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        flip = rng.random(n) < 0.2
        y_true = np.where(flip, 1 - data.y_pred, data.y_pred).astype(
            np.int8
        )
        ts = np.arange(n, dtype=np.float64)
        lo = data.coords.min(axis=0)
        hi = data.coords.max(axis=0)
        specs = [
            AuditSpec(regions=RegionSpec.grid(20, 10), seed=self.seed + 1),
            AuditSpec(
                regions=RegionSpec.grid(
                    16, 8, bounds=(lo[0], lo[1], hi[0], hi[1])
                ),
                measure="equal_opportunity",
                seed=self.seed + 2,
            ),
            AuditSpec(
                regions=RegionSpec.squares(4, centers_seed=self.seed),
                seed=self.seed + 3,
            ),
        ]
        w = self.window_points
        session = AuditSession(
            data.coords[:w], data.y_pred[:w], y_true=y_true[:w],
            timestamps=ts[:w],
        )
        service = AuditService(session)
        service.watch(specs)
        first = service.advance()
        return {
            "coords": data.coords,
            "outcomes": data.y_pred,
            "y_true": y_true,
            "ts": ts,
            "specs": specs,
            "session": session,
            "service": service,
            "last": first,
            "digest": None,
        }

    def unit(self, state, i):
        a = self.window_points + self.step * i
        b = a + self.step
        return state["service"].advance(
            state["coords"][a:b],
            state["outcomes"][a:b],
            y_true=state["y_true"][a:b],
            timestamps=state["ts"][a:b],
            window=float(self.window_points - 1),
        )

    def check(self, state, i, reports) -> bool:
        state["last"] = reports
        if i + 1 == self.digest_after:
            state["digest"] = [canonical(r) for r in reports]
        session = state["session"]
        return (
            len(reports) == len(state["specs"])
            and len(session.coords) == self.window_points
        )

    def cross_check(self, state) -> tuple:
        """The reports after the last advance must equal a cold
        session over the final window."""
        from repro import AuditSession

        s = state["session"]
        cold = AuditSession(
            s.coords.copy(), s.outcomes.copy(), y_true=s.y_true.copy(),
            timestamps=s.timestamps.copy(),
        )
        fresh = [canonical(cold.run(spec)) for spec in state["specs"]]
        last = [canonical(r) for r in state["last"]]
        return len(fresh), sum(a != b for a, b in zip(fresh, last))

    def digest_reports(self, state) -> list:
        return state["digest"] or []


IN_PROCESS = {w.name: w for w in (LarSquaresCold, LarGridFused, StreamSlide)}
