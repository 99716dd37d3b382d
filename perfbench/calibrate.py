"""Host-speed calibration.

The shared host this benchmark was built on drifts: over a quarter of
an hour the in-process workloads ran 20% faster, then 30% slower, all
together (see README, *Times are in reference seconds*).  A drift that
moves every workload at once says nothing about the program, so each
in-process run also times a fixed reference pass that touches no
``repro`` code, mixing the kinds of work the program does: numpy
broadcasting temporaries (as k-means makes), a sparse matrix product
(as the recount), a pure-Python dict loop and JSON encoding.  Their
end-to-end times are reported in reference seconds, ``measured *
REFERENCE_S / median(reference passes)``; the raw values are printed
beside them.  ``gateway_http`` reports measured times: the pass does
not track it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Median reference-pass time on the reference machine (2-core Xeon).
#: Only a unit: it scales every reported time alike.
REFERENCE_S = 0.1


def reference_pass() -> float:
    """Time one reference pass, in seconds.  Its arrays stay small (a
    few MB), so it does not move the run's peak RSS."""
    from scipy import sparse

    rng = np.random.default_rng(0)
    pts = rng.random((5_000, 2))
    centers = rng.random((40, 2))
    matrix = sparse.csr_matrix(
        (
            np.ones(50_000),
            rng.integers(0, 5_000, size=50_000),
            np.arange(0, 50_001, 50),
        ),
        shape=(1_000, 5_000),
    )
    worlds = rng.random((5_000, 64))
    t0 = time.perf_counter()
    for _ in range(4):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        d2.argmin(axis=1)
        matrix @ worlds
        json.dumps([{"a": i, "b": i * 0.5} for i in range(5_000)])
    table: dict = {}
    for i in range(120_000):
        table[i % 997] = table.get(i % 997, 0) + i
    return time.perf_counter() - t0


#: Least time between two reference passes taken with ``maybe``.
INTERVAL_S = 2.0


class Calibration:
    """Reference passes taken through a run, at most one per
    :data:`INTERVAL_S` seconds of the caller's clock."""

    def __init__(self):
        self.samples: list = []
        reference_pass()  # warm-up: imports, first-touch pages
        self._last = time.monotonic()

    def take(self) -> None:
        self.samples.append(reference_pass())
        self._last = time.monotonic()

    def maybe(self) -> None:
        if time.monotonic() - self._last >= INTERVAL_S:
            self.take()

    def factor(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_S / statistics.median(self.samples)
