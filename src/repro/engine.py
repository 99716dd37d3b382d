"""Shared parallel Monte Carlo engine for the scan auditors.

The audit's cost is dominated by the M x N x Q world loop (simulate a
null world, recount every region, take the max statistic).  PR 1 left
that loop duplicated inside each auditor; this module centralises it:

* :class:`MonteCarloEngine` owns world simulation, chunking, the sparse
  membership mat-vec recount, null-distribution caching, and an
  optional multiprocessing path (``workers=N``);
* the per-family statistics plug in as :class:`LLRKernel` subclasses —
  :class:`BernoulliKernel` (binary outcomes), :class:`PoissonKernel`
  (observed vs forecast counts), :class:`MultinomialKernel`
  (categorical outcomes).

Determinism contract
--------------------
The engine splits the world budget into chunks whose layout depends
only on ``(kernel.chunk_points, n_worlds)`` — never on the worker
count — and simulates each chunk from its own child of one
:class:`numpy.random.SeedSequence` spawned off ``seed``.  Chunks are
therefore independent computations, and the null distribution (hence
verdicts, critical values and significant-region sets) is bit-identical
whether the chunks run serially or on any number of workers.

Parallel path
-------------
``workers >= 2`` forks a process pool (POSIX only; other platforms fall
back to serial).  The read-only inputs — the bound kernel and the
sparse membership matrix — reach the workers through fork
copy-on-write, and each worker writes its chunks' per-world maxima
directly into one :class:`multiprocessing.shared_memory.SharedMemory`
buffer, so no world batch is ever pickled or copied between processes.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict

import numpy as np

from . import kernels
from .budget import BudgetPolicy, round_sizes, sequential_decision
from .fingerprint import array_fingerprint
from .index import RegionMembership, StackedMembership

__all__ = [
    "MonteCarloEngine",
    "LLRKernel",
    "BernoulliKernel",
    "PoissonKernel",
    "MultinomialKernel",
    "world_chunk_size",
]

#: Tolerance matching :func:`repro.core._assemble`'s exceedance count,
#: so adaptive stopping and the final p-value agree on what "reaches
#: the observed maximum" means.
_EXCEED_TOL = 1e-12

#: Worlds simulated per chunk aim to keep the (points x worlds) batch
#: near this many matrix entries (~200 MB of float64 intermediates).
_CHUNK_ENTRIES = 2.5e7

#: Lower bound on worlds per chunk: below this the sparse mat-vec loses
#: its batching advantage.
_MIN_CHUNK = 8

#: Upper bound on the number of chunks a run is split into (memory
#: permitting); keeps per-chunk overhead negligible while leaving
#: enough chunks for a pool of workers to balance.
_TARGET_CHUNKS = 16


def world_chunk_size(n_points: int, n_worlds: int) -> int:
    """Worlds per simulation chunk.

    A pure function of the workload — never of the worker count — so
    the chunk layout (and with it the per-chunk random streams) is
    identical for serial and parallel runs.

    Parameters
    ----------
    n_points : int
        Entries per simulated world column (``n`` points, or ``n * K``
        for a K-class multinomial world).
    n_worlds : int
        Total world budget.

    Returns
    -------
    int
        Chunk size in worlds, at least ``min(n_worlds, 8)``.
    """
    n_worlds = int(n_worlds)
    memory_cap = int(_CHUNK_ENTRIES / max(int(n_points), 1)) + 1
    fan_out = -(-n_worlds // _TARGET_CHUNKS)  # ceil division
    size = max(_MIN_CHUNK, min(memory_cap, max(fan_out, _MIN_CHUNK)))
    return max(1, min(n_worlds, size))


class LLRKernel:
    """One outcome family's Monte Carlo statistics.

    A kernel knows how to *simulate* a batch of null worlds and how to
    *score* every region of every simulated world with the family's
    log-likelihood ratio.  The engine supplies chunking, seeding,
    caching and parallelism around it.

    Subclasses implement :meth:`simulate`, :meth:`score`,
    :attr:`chunk_points` and :meth:`cache_key`, and may extend
    :meth:`bind` to precompute member-dependent arrays.
    """

    #: Family tag used in cache keys and reprs.
    family = "base"

    def __init__(self) -> None:
        self._member: RegionMembership | None = None

    def bind(self, member: RegionMembership) -> "LLRKernel":
        """Attach the membership index the scores will be counted
        through.  Called once by the engine before the chunk loop.

        Parameters
        ----------
        member : RegionMembership

        Returns
        -------
        LLRKernel
            ``self``, for chaining.
        """
        self._member = member
        return self

    @property
    def member(self) -> RegionMembership:
        """The bound membership index (raises if unbound)."""
        if self._member is None:
            raise RuntimeError(
                f"{type(self).__name__} must be bound to a "
                "RegionMembership before scoring"
            )
        return self._member

    @property
    def chunk_points(self) -> int:
        """Matrix entries per simulated world column (drives chunking)."""
        raise NotImplementedError

    def cache_key(self) -> tuple:
        """Hashable key capturing everything that shapes the null
        distribution besides ``(member, n_worlds, seed)``."""
        raise NotImplementedError

    def simulate(self, rng: np.random.Generator, n_worlds: int) -> np.ndarray:
        """Draw a batch of null worlds.

        Parameters
        ----------
        rng : numpy.random.Generator
            The chunk's private generator.
        n_worlds : int
            Worlds in this chunk.

        Returns
        -------
        ndarray
            World batch with one column per world; the exact layout is
            the kernel's own (``score`` must understand it).
        """
        raise NotImplementedError

    def score(self, worlds: np.ndarray) -> np.ndarray:
        """Log-likelihood ratio of every region in every world.

        Parameters
        ----------
        worlds : ndarray
            A batch returned by :meth:`simulate`.

        Returns
        -------
        ndarray of shape (n_regions, n_worlds)
        """
        raise NotImplementedError


def _bernoulli_batch_llr(
    n: np.ndarray,
    world_p: np.ndarray,
    N: float,
    world_P: np.ndarray,
    direction: int,
) -> np.ndarray:
    """Bernoulli LLR for a batch of simulated worlds.

    Each world has its own global positive total ``world_P[w]``; the
    statistic must be computed against that world's own rate, exactly
    as for the observed data.  Evaluation dispatches through
    :func:`repro.kernels.bernoulli_llr_batch` (numpy or compiled —
    bit-identical either way).
    """
    return kernels.bernoulli_llr_batch(n, world_p, N, world_P, direction)


class BernoulliKernel(LLRKernel):
    """Null worlds for binary outcomes: labels redrawn i.i.d. Bernoulli
    at the global positive rate, locations fixed (the paper's SUL null).

    Parameters
    ----------
    n_points : int
        Total observations ``N``.
    total_p : float
        Global positive count ``P``; the simulation rate is ``P / N``.
    direction : {0, 1, -1}, default 0
        Directional scan filter, as in :func:`repro.stats.bernoulli_llr`.
    """

    family = "bernoulli"

    def __init__(self, n_points: int, total_p: float, direction: int = 0):
        super().__init__()
        self.n_points = int(n_points)
        self.total_p = float(total_p)
        self.rate = self.total_p / max(self.n_points, 1)
        self.direction = int(direction)
        self._n: np.ndarray | None = None

    def bind(self, member: RegionMembership) -> "BernoulliKernel":
        super().bind(member)
        self._n = member.counts.astype(np.float64)
        return self

    @property
    def chunk_points(self) -> int:
        return self.n_points

    def cache_key(self) -> tuple:
        return (self.family, self.n_points, self.total_p, self.direction)

    def simulate(self, rng: np.random.Generator, n_worlds: int) -> np.ndarray:
        return (
            rng.random((self.n_points, n_worlds)) < self.rate
        ).astype(np.float32)

    def score(self, worlds: np.ndarray) -> np.ndarray:
        world_p = self.member.positive_counts_batch(worlds)
        world_P = worlds.sum(axis=0, dtype=np.float64)
        return _bernoulli_batch_llr(
            self._n, world_p, float(self.n_points), world_P, self.direction
        )


class PoissonKernel(LLRKernel):
    """Null worlds for observed-vs-forecast counts: the observed event
    total redistributed over areas with probabilities proportional to
    the (scaled) forecast — the conditional multinomial simulation that
    makes the Poisson scan exact given the total.

    Parameters
    ----------
    expected : ndarray of shape (n_points,)
        Per-area expected counts, already scaled so they sum to the
        observed total.
    total_obs : float
        Total observed events ``O``.
    direction : {0, 1, -1}, default 0
        +1 hunts excess regions, -1 deficits.
    """

    family = "poisson"

    def __init__(
        self, expected: np.ndarray, total_obs: float, direction: int = 0
    ):
        super().__init__()
        self.expected = np.asarray(expected, dtype=np.float64).ravel()
        self.total_obs = float(total_obs)
        self.total_obs_int = int(round(self.total_obs))
        self.probs = self.expected / self.total_obs
        self.direction = int(direction)
        self._exp_r: np.ndarray | None = None

    def bind(self, member: RegionMembership) -> "PoissonKernel":
        super().bind(member)
        self._exp_r = member.positive_counts(self.expected)
        return self

    @property
    def chunk_points(self) -> int:
        return len(self.expected)

    def cache_key(self) -> tuple:
        digest = array_fingerprint(self.expected)
        return (self.family, self.total_obs_int, digest, self.direction)

    def simulate(self, rng: np.random.Generator, n_worlds: int) -> np.ndarray:
        return rng.multinomial(
            self.total_obs_int, self.probs, size=n_worlds
        ).T.astype(np.float32)

    def score(self, worlds: np.ndarray) -> np.ndarray:
        world_obs = self.member.positive_counts_batch(worlds)
        return kernels.poisson_llr_batch(
            world_obs,
            self._exp_r,
            self.total_obs,
            direction=self.direction,
        )


class MultinomialKernel(LLRKernel):
    """Null worlds for categorical outcomes: every label redrawn i.i.d.
    from the global class distribution, locations fixed.

    Parameters
    ----------
    n_points : int
        Total observations ``N``.
    class_totals : ndarray of shape (K,)
        Global per-class counts.
    """

    family = "multinomial"

    def __init__(self, n_points: int, class_totals: np.ndarray):
        super().__init__()
        self.n_points = int(n_points)
        self.class_totals = np.asarray(
            class_totals, dtype=np.float64
        ).ravel()
        self.n_classes = len(self.class_totals)
        self._cum = np.cumsum(self.class_totals / self.n_points)
        self._n: np.ndarray | None = None

    def bind(self, member: RegionMembership) -> "MultinomialKernel":
        super().bind(member)
        self._n = member.counts.astype(np.float64)
        return self

    @property
    def chunk_points(self) -> int:
        # One indicator matrix per class passes through the mat-vec.
        return self.n_points * self.n_classes

    def cache_key(self) -> tuple:
        return (
            self.family,
            self.n_points,
            tuple(float(t) for t in self.class_totals),
        )

    def simulate(self, rng: np.random.Generator, n_worlds: int) -> np.ndarray:
        u = rng.random((self.n_points, n_worlds))
        return np.searchsorted(self._cum, u)  # (N, w) int labels < K

    def score(self, worlds: np.ndarray) -> np.ndarray:
        N = float(self.n_points)
        n = self._n[:, None]
        llr = np.zeros((len(self.member), worlds.shape[1]))
        for k in range(self.n_classes):
            ind = (worlds == k).astype(np.float32)
            c = self.member.positive_counts_batch(ind)
            C = ind.sum(axis=0, dtype=np.float64)[None, :]
            llr = llr + kernels.multinomial_llr_term(n, c, C, N)
        llr = np.maximum(llr, 0.0)
        llr = np.where((n <= 0) | (n >= N), 0.0, llr)
        return llr


# Read-only state the forked pool workers inherit copy-on-write.  Only
# ever populated in the parent immediately before the fork (under
# _FORK_LOCK, so concurrent engines cannot corrupt each other's runs);
# workers never mutate it.
_FORK_STATE: dict = {}
_FORK_LOCK = threading.Lock()


def _attach_worker(shm_name: str, shape: tuple) -> None:
    """Pool initializer: map the shared null-max buffer once per worker."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    _FORK_STATE["shm"] = shm
    _FORK_STATE["out"] = np.ndarray(
        shape, dtype=np.float64, buffer=shm.buf
    )


def _write_maxima(
    out: np.ndarray,
    llr: np.ndarray,
    start: int,
    width: int,
    segments: list | None,
) -> None:
    """Reduce one chunk's (regions, worlds) scores to per-world maxima.

    With ``segments=None`` the chunk's global maximum lands in the 1-d
    output span (the single-design path); otherwise each segment — one
    stacked member design — reduces independently into its own row of
    the 2-d output (the fused multi-design path).
    """
    if segments is None:
        out[start : start + width] = llr.max(axis=0)
    else:
        for i, (a, b) in enumerate(segments):
            out[i, start : start + width] = llr[a:b].max(axis=0)


def _run_chunk(chunk_id: int) -> int:
    """Simulate and score one chunk, writing its per-world maxima into
    the shared buffer.  Runs inside a forked pool worker."""
    kernel = _FORK_STATE["kernel"]
    start, width = _FORK_STATE["chunks"][chunk_id]
    rng = np.random.default_rng(_FORK_STATE["seeds"][chunk_id])
    worlds = kernel.simulate(rng, width)
    llr = kernel.score(worlds)
    _write_maxima(
        _FORK_STATE["out"], llr, start, width, _FORK_STATE["segments"]
    )
    return chunk_id


class MonteCarloEngine:
    """The shared Monte Carlo scan core.

    One engine serves any number of audits over the same coordinates:
    it caches the membership index per candidate :class:`RegionSet`
    (weakly, so region sets can be garbage collected) and the simulated
    null max-statistic distribution per
    ``(membership, kernel, n_worlds, seed)`` — repeated audits of the
    same design reuse the simulated worlds outright.

    Parameters
    ----------
    coords : ndarray of shape (n, 2)
        Observation locations the audits share.
    workers : int, optional
        Default worker count for :meth:`null_distribution`; ``None`` or
        ``1`` runs serially.  Results are bit-identical either way.
    cache_size : int, default 8
        Null distributions retained per membership index (LRU).

    Attributes
    ----------
    cache_hits, cache_misses : int
        Null-distribution cache counters (diagnostics).
    index_builds : int
        Membership matrices actually constructed — cache misses of
        :meth:`membership` plus every fused stacking of two or more
        designs (:class:`repro.index.StackedMembership`); lets callers
        assert index reuse.  A fused pass over a *single* design skips
        the stacking and scores the member's own matrix, so it costs no
        build.
    incremental_builds : int
        In-place membership updates applied by :meth:`append_points` /
        :meth:`evict_points` — one per cached index per stream event.
        The streaming counterpart of ``index_builds``: a sliding window
        that re-audits without cold rebuilds shows this counter move
        while ``index_builds`` stays put.
    worlds_simulated : int
        Total null worlds actually simulated (cache hits excluded).  A
        fused :meth:`null_distribution_multi` pass counts its world
        budget once however many designs it scores, so the counter
        measures exactly the work batching amortises.
    """

    def __init__(
        self,
        coords: np.ndarray,
        workers: int | None = None,
        cache_size: int = 8,
    ):
        self.coords = np.asarray(coords, dtype=np.float64)
        self.workers = workers
        self.cache_size = int(cache_size)
        self._member_cache: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._null_cache: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self.cache_hits = 0
        self.cache_misses = 0
        self.index_builds = 0
        self.incremental_builds = 0
        self.worlds_simulated = 0

    def membership(self, regions) -> RegionMembership:
        """The (cached) point-membership index for a region set.

        Parameters
        ----------
        regions : RegionSet

        Returns
        -------
        RegionMembership
        """
        member = self._member_cache.get(regions)
        if member is None:
            member = RegionMembership(regions, self.coords)
            self._member_cache[regions] = member
            self.index_builds += 1
        return member

    def append_points(self, coords: np.ndarray) -> None:
        """Stream new observation locations into the engine, in place.

        Every cached membership index is extended incrementally
        (:meth:`repro.index.RegionMembership.append_points`), so
        subsequent audits see matrices **bit-identical** to cold builds
        over the grown coordinate array without paying for the full
        kd-tree pass.  The updated members' cached null distributions
        are dropped — their counting operand changed — while other
        members' caches survive untouched.

        Parameters
        ----------
        coords : ndarray of shape (k, 2)
            Coordinates of the appended points, in arrival order.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(
                "coords: expected an array of shape (k, 2), got shape "
                f"{coords.shape}"
            )
        self.coords = np.concatenate([self.coords, coords])
        for member in list(self._member_cache.values()):
            member.append_points(coords)
            self.incremental_builds += 1
            self._null_cache.pop(member, None)

    def evict_points(self, keep: np.ndarray) -> None:
        """Expire observation locations from the engine, in place.

        The mirror of :meth:`append_points`: cached membership indexes
        drop the expired CSR columns incrementally and their null
        caches are invalidated.

        Parameters
        ----------
        keep : bool ndarray of shape (n_points,)
            ``True`` for the points that stay, in the engine's current
            point order.
        """
        keep = np.asarray(keep)
        if keep.dtype != np.bool_ or keep.shape != (
            len(self.coords),
        ):
            raise ValueError(
                "keep: expected a boolean mask of length "
                f"{len(self.coords)}, got dtype {keep.dtype} and "
                f"shape {keep.shape}"
            )
        self.coords = self.coords[keep]
        for member in list(self._member_cache.values()):
            member.evict_points(keep)
            self.incremental_builds += 1
            self._null_cache.pop(member, None)

    def forget_regions(self, regions) -> None:
        """Drop a region set's cached membership index and nulls.

        Streaming callers retire designs whose geometry is about to be
        rebuilt (e.g. a data-driven grid whose bounding box grew) so
        :meth:`append_points` does not waste work maintaining them.
        Unknown region sets are ignored.

        Parameters
        ----------
        regions : RegionSet
        """
        member = self._member_cache.pop(regions, None)
        if member is not None:
            self._null_cache.pop(member, None)

    def _fused_member(self, members: list):
        """The scoring operand of a fused pass: ``(member, segments)``.

        A single design is scored through its own matrix with one
        full-span segment — bit-identical to stacking it alone, minus
        the copy.  Two or more designs get a fresh
        :class:`repro.index.StackedMembership`, which constructs a new
        matrix and therefore counts toward ``index_builds``.
        """
        if len(members) == 1:
            member = members[0]
            return member, [(0, len(member))]
        stacked = StackedMembership(members)
        self.index_builds += 1
        return stacked, stacked.segments

    @staticmethod
    def chunk_layout(
        chunk_points: int, n_worlds: int, chunk_worlds: int | None = None
    ) -> list:
        """The deterministic ``(start, width)`` chunk spans of a run.

        Parameters
        ----------
        chunk_points : int
            Matrix entries per world column (``kernel.chunk_points``).
        n_worlds : int
        chunk_worlds : int, optional
            Explicit chunk size override (tests); defaults to
            :func:`world_chunk_size`.

        Returns
        -------
        list of (int, int)
        """
        if chunk_worlds is None:
            chunk_worlds = world_chunk_size(chunk_points, n_worlds)
        chunk_worlds = max(1, int(chunk_worlds))
        return [
            (start, min(chunk_worlds, n_worlds - start))
            for start in range(0, n_worlds, chunk_worlds)
        ]

    def null_distribution(
        self,
        member: RegionMembership,
        kernel: LLRKernel,
        n_worlds: int,
        seed: int | None = None,
        workers: int | None = None,
        chunk_worlds: int | None = None,
        budget: BudgetPolicy | str | None = None,
        observed_max: float | None = None,
        alpha: float = 0.05,
    ) -> np.ndarray:
        """The null max-statistic distribution of a scan design.

        Simulates ``n_worlds`` null worlds chunk by chunk through
        ``kernel`` and returns each world's maximum region statistic.
        Identical designs at the same integer ``seed`` are answered
        from the cache without re-simulating.

        Parameters
        ----------
        member : RegionMembership
            The candidate regions' membership index.
        kernel : LLRKernel
            The outcome family's simulate/score pair.
        n_worlds : int
        seed : int, optional
            Master seed; per-chunk streams are spawned from it.  When
            ``None`` the run is unseeded (and never cached).
        workers : int, optional
            Process count; overrides the engine default.  ``>= 2``
            forks a pool (POSIX), anything else runs serially; the
            result is bit-identical either way.  An explicit request
            is honoured even beyond the machine's usable cores
            (oversubscription costs wall-clock, never correctness) —
            callers wanting auto-sizing should pass
            ``len(os.sched_getaffinity(0))``.
        chunk_worlds : int, optional
            Chunk size override (tests/benchmarks); the default is
            :func:`world_chunk_size` of the workload.
        budget : BudgetPolicy, str or None, default None
            ``None``/``'fixed'`` simulates exactly ``n_worlds`` worlds
            (bit-identical to every release so far).  An adaptive
            policy (:class:`repro.budget.BudgetPolicy`) runs the
            progressive-round schedule and may return fewer maxima —
            the caller reads the worlds actually simulated off the
            result's length.  Adaptive runs are deterministic for a
            given ``(seed, budget)`` at any worker count, but are
            never answered from (or written to) the null cache.
        observed_max : float, optional
            The observed scan maximum the stopping rule tests
            against; required when ``budget`` is adaptive.
        alpha : float, default 0.05
            The significance level the stopping rule settles the
            verdict around (adaptive only).

        Returns
        -------
        ndarray of float64, shape (m,)
            ``m == n_worlds`` for a fixed budget; ``m <= n_worlds``
            when an adaptive budget stopped early.
        """
        n_worlds = int(n_worlds)
        policy = BudgetPolicy.parse(budget)
        if policy.is_adaptive:
            return self._adaptive_pass(
                [member],
                kernel,
                n_worlds,
                seed,
                workers,
                chunk_worlds,
                [observed_max],
                [alpha],
                policy,
            )[0]
        key = None
        if seed is not None:
            key = (kernel.cache_key(), n_worlds, int(seed), chunk_worlds)
            per_member = self._null_cache.get(member)
            if per_member is not None and key in per_member:
                self.cache_hits += 1
                per_member.move_to_end(key)
                return per_member[key].copy()
            self.cache_misses += 1

        null_max = self._simulate_pass(
            kernel, member, n_worlds, seed, workers, chunk_worlds, None
        )

        if key is not None:
            per_member = self._null_cache.setdefault(member, OrderedDict())
            per_member[key] = null_max.copy()
            while len(per_member) > self.cache_size:
                per_member.popitem(last=False)
        return null_max

    def null_distribution_multi(
        self,
        members: list,
        kernel: LLRKernel,
        n_worlds: int,
        seed: int | None = None,
        workers: int | None = None,
        chunk_worlds: int | None = None,
        budget: BudgetPolicy | str | None = None,
        observed_maxes: list | None = None,
        alphas: list | None = None,
    ) -> list:
        """Null distributions of several region designs from **one**
        simulation pass — the engine's multi-statistic evaluation hook.

        All designs share the same null model (one ``kernel``), so each
        world batch is simulated once and scored against the stacked
        membership matrix of every design
        (:class:`repro.index.StackedMembership`); per-design maxima are
        reduced segment by segment.  The chunk layout and per-chunk
        random streams are identical to :meth:`null_distribution`'s, so
        every returned distribution is **bit-identical** to the one a
        solo run of that design would produce — fused and sequential
        audits agree exactly, and both share the same null cache.

        Parameters
        ----------
        members : list of RegionMembership
            One membership index per design.  Duplicates (by identity)
            are simulated once; designs already answered by the null
            cache are not re-simulated.
        kernel : LLRKernel
            The shared null model.  Callers must ensure every design in
            the batch really does share it (same family, simulation
            parameters and direction — equal ``kernel.cache_key()``).
        n_worlds, seed, workers, chunk_worlds
            As in :meth:`null_distribution`.
        budget : BudgetPolicy, str or None, default None
            As in :meth:`null_distribution`.  With an adaptive policy
            the fused group still simulates each progressive round
            **once**, scores every still-undecided design against it,
            and drops designs from the stacked scoring as their
            verdicts settle — per-segment early stopping.  Designs may
            therefore come back with different lengths.
        observed_maxes : list of float, optional
            One observed scan maximum per entry of ``members``;
            required when ``budget`` is adaptive.
        alphas : list of float, optional
            Per-design significance levels for the stopping rule
            (adaptive only); a single float is broadcast.

        Returns
        -------
        list of ndarray of float64, shape (m_i,)
            One null max-statistic distribution per entry of
            ``members``, in order; ``m_i == n_worlds`` for fixed
            budgets, ``m_i <= n_worlds`` for adaptive ones.
        """
        n_worlds = int(n_worlds)
        policy = BudgetPolicy.parse(budget)
        if policy.is_adaptive:
            if observed_maxes is None or len(observed_maxes) != len(
                members
            ):
                raise ValueError(
                    "observed_maxes: adaptive budgets need one "
                    "observed scan maximum per design"
                )
            if alphas is None:
                alphas = [0.05] * len(members)
            elif isinstance(alphas, float):
                alphas = [alphas] * len(members)
            return self._adaptive_pass(
                list(members),
                kernel,
                n_worlds,
                seed,
                workers,
                chunk_worlds,
                list(observed_maxes),
                list(alphas),
                policy,
            )
        key = None
        if seed is not None:
            key = (kernel.cache_key(), n_worlds, int(seed), chunk_worlds)
        results: dict = {}
        misses: list = []
        for member in members:
            if id(member) in results or any(
                member is m for m in misses
            ):
                continue
            if key is not None:
                per_member = self._null_cache.get(member)
                if per_member is not None and key in per_member:
                    self.cache_hits += 1
                    per_member.move_to_end(key)
                    results[id(member)] = per_member[key]
                    continue
                self.cache_misses += 1
            misses.append(member)
        if misses:
            fused, segments = self._fused_member(misses)
            nulls = self._simulate_pass(
                kernel,
                fused,
                n_worlds,
                seed,
                workers,
                chunk_worlds,
                segments,
            )
            for member, null_max in zip(misses, nulls):
                results[id(member)] = null_max
                if key is not None:
                    per_member = self._null_cache.setdefault(
                        member, OrderedDict()
                    )
                    per_member[key] = null_max.copy()
                    while len(per_member) > self.cache_size:
                        per_member.popitem(last=False)
        return [results[id(member)].copy() for member in members]

    def _simulate_pass(
        self,
        kernel: LLRKernel,
        member,
        n_worlds: int,
        seed: int | None,
        workers: int | None,
        chunk_worlds: int | None,
        segments: list | None,
    ) -> np.ndarray:
        """Bind, chunk, seed and run one simulation pass (serial or
        pooled); ``segments`` selects per-design reduction."""
        chunks = self.chunk_layout(
            kernel.chunk_points, n_worlds, chunk_worlds
        )
        seeds = np.random.SeedSequence(seed).spawn(len(chunks))
        self.worlds_simulated += n_worlds
        return self._run_chunks(
            kernel, member, chunks, seeds, n_worlds, workers, segments
        )

    def _run_chunks(
        self,
        kernel: LLRKernel,
        member,
        chunks: list,
        seeds: list,
        n_worlds: int,
        workers: int | None,
        segments: list | None,
    ) -> np.ndarray:
        """Bind and execute one explicit (chunks, seeds) layout —
        serially or on a fork pool — returning the per-world maxima
        (per segment when ``segments`` is given)."""
        kernel.bind(member)
        workers = self.workers if workers is None else workers
        n_procs = min(int(workers or 1), len(chunks))
        if n_procs >= 2 and hasattr(os, "fork"):
            return self._null_parallel(
                kernel, chunks, seeds, n_worlds, n_procs, segments
            )
        return self._null_serial(
            kernel, chunks, seeds, n_worlds, segments
        )

    def _adaptive_pass(
        self,
        members: list,
        kernel: LLRKernel,
        n_worlds: int,
        seed: int | None,
        workers: int | None,
        chunk_worlds: int | None,
        observed_maxes: list,
        alphas: list,
        policy: BudgetPolicy,
    ) -> list:
        """Progressive rounds with per-design sequential stopping.

        Each round simulates its worlds **once** (the world stream
        depends only on ``(kernel, seed, policy, n_worlds)`` — never
        on the stopping decisions or the worker count) and scores them
        against the stacked membership matrix of the designs still
        undecided.  After every round each active design's cumulative
        exceedance count feeds
        :func:`repro.budget.sequential_decision`; settled designs drop
        out of the stacked scoring.  A design that stopped after ``m``
        worlds gets back its first ``m`` maxima — the same values a
        solo adaptive run (or a fused one with different companions)
        would produce, bit for bit.
        """
        for obs_max in observed_maxes:
            if obs_max is None:
                raise ValueError(
                    "observed_max: adaptive budgets need the observed "
                    "scan maximum to decide stopping"
                )
        # Coerce into a fresh list: callers may pass their own list and
        # must get it back unchanged.
        observed_maxes = [float(x) for x in observed_maxes]
        sizes = round_sizes(policy, n_worlds)
        round_seeds = np.random.SeedSequence(seed).spawn(len(sizes))
        active = list(range(len(members)))
        collected: list = [[] for _ in members]
        exceed = [0] * len(members)
        total = 0
        for size, round_seed in zip(sizes, round_seeds):
            fused, segments = self._fused_member(
                [members[i] for i in active]
            )
            chunks = self.chunk_layout(
                kernel.chunk_points, size, chunk_worlds
            )
            seeds = round_seed.spawn(len(chunks))
            self.worlds_simulated += size
            out = self._run_chunks(
                kernel,
                fused,
                chunks,
                seeds,
                size,
                workers,
                segments,
            )
            total += size
            still = []
            for row, idx in zip(out, active):
                collected[idx].append(row)
                exceed[idx] += int(
                    (row >= observed_maxes[idx] - _EXCEED_TOL).sum()
                )
                if total >= n_worlds:
                    continue
                decision = sequential_decision(
                    exceed[idx], total, alphas[idx], policy
                )
                if not decision.stop:
                    still.append(idx)
            active = still
            if not active:
                break
        return [np.concatenate(parts) for parts in collected]

    @staticmethod
    def _null_serial(
        kernel: LLRKernel,
        chunks: list,
        seeds: list,
        n_worlds: int,
        segments: list | None = None,
    ) -> np.ndarray:
        shape = (
            (n_worlds,)
            if segments is None
            else (len(segments), n_worlds)
        )
        null_max = np.empty(shape)
        for (start, width), child in zip(chunks, seeds):
            rng = np.random.default_rng(child)
            worlds = kernel.simulate(rng, width)
            llr = kernel.score(worlds)
            _write_maxima(null_max, llr, start, width, segments)
        return null_max

    @staticmethod
    def _null_parallel(
        kernel: LLRKernel,
        chunks: list,
        seeds: list,
        n_worlds: int,
        n_procs: int,
        segments: list | None = None,
    ) -> np.ndarray:
        import multiprocessing
        from multiprocessing import shared_memory

        ctx = multiprocessing.get_context("fork")
        shape = (
            (n_worlds,)
            if segments is None
            else (len(segments), n_worlds)
        )
        size = int(np.prod(shape)) * 8
        shm = shared_memory.SharedMemory(create=True, size=max(size, 8))
        # The lock spans populate -> fork -> clear: a concurrent run
        # must not overwrite the state another pool is about to
        # inherit.
        with _FORK_LOCK:
            _FORK_STATE["kernel"] = kernel
            _FORK_STATE["chunks"] = chunks
            _FORK_STATE["seeds"] = seeds
            _FORK_STATE["segments"] = segments
            try:
                with ctx.Pool(
                    processes=n_procs,
                    initializer=_attach_worker,
                    initargs=(shm.name, shape),
                ) as pool:
                    # Unordered is safe: each chunk owns a disjoint
                    # slice of the shared buffer.
                    for _ in pool.imap_unordered(
                        _run_chunk, range(len(chunks))
                    ):
                        pass
                out = np.ndarray(
                    shape, dtype=np.float64, buffer=shm.buf
                ).copy()
            finally:
                _FORK_STATE.clear()
                shm.close()
                shm.unlink()
        return out
