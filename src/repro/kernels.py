"""Numeric kernels for the Monte Carlo hot path.

The scan's cost concentrates in four array kernels: the Bernoulli /
Poisson / multinomial log-likelihood-ratio batches and the sparse
membership recount (``M @ worlds``).  This module gives each a single
numpy entry point, so instrumentation can wrap the hot path by name
and every caller shares one implementation.

Bit-exactness contract
----------------------
The expressions are the ones the engine has always evaluated: the
same ``1e-300`` clamps, the same ``xlogy(0, y) == 0`` convention and
float64 throughout, so reports stay byte-identical for a given
``(dataset, spec, seed)``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .stats import poisson_llr

__all__ = [
    "active_backend",
    "bernoulli_llr_batch",
    "membership_counts_batch",
    "multinomial_llr_term",
    "poisson_llr_batch",
]


def active_backend() -> str:
    """The name of the kernel implementation: always ``'numpy'``.

    Kept as a stable name for environment tags: the benchmark runner
    records it in its ``# env:`` line, and runs whose tags differ are
    not compared.

    Returns
    -------
    str
        ``'numpy'``.
    """
    return "numpy"


def bernoulli_llr_batch(
    n: np.ndarray,
    world_p: np.ndarray,
    N: float,
    world_P: np.ndarray,
    direction: int = 0,
) -> np.ndarray:
    """Bernoulli scan LLR for a batch of simulated worlds.

    Each world has its own global positive total ``world_P[w]``; the
    statistic is computed against that world's own rate, exactly as
    for the observed data (Kulldorff's Bernoulli statistic).

    Parameters
    ----------
    n : ndarray of shape (R,)
        Per-region observation counts.
    world_p : ndarray of shape (R, W)
        Per-region positive counts of each simulated world.
    N : float
        Total observations.
    world_P : ndarray of shape (W,)
        Per-world global positive totals.
    direction : {0, 1, -1}, default 0
        Directional filter, as in :func:`repro.stats.bernoulli_llr`.

    Returns
    -------
    ndarray of float64, shape (R, W)
    """
    n = np.ascontiguousarray(n, dtype=np.float64)
    world_p = np.ascontiguousarray(world_p, dtype=np.float64)
    world_P = np.ascontiguousarray(world_P, dtype=np.float64)
    N = float(N)
    n = n[:, None]
    P = world_P[None, :]
    p = world_p
    n_out = N - n
    p_out = P - p
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_in = np.where(n > 0, p / np.maximum(n, 1.0), 0.0)
        rho_out = np.where(
            n_out > 0, p_out / np.maximum(n_out, 1.0), 0.0
        )
        rho = P / N
    llr = (
        xlogy(p, np.maximum(rho_in, 1e-300))
        + xlogy(n - p, np.maximum(1.0 - rho_in, 1e-300))
        + xlogy(p_out, np.maximum(rho_out, 1e-300))
        + xlogy(n_out - p_out, np.maximum(1.0 - rho_out, 1e-300))
        - xlogy(P, np.maximum(rho, 1e-300))
        - xlogy(N - P, np.maximum(1.0 - rho, 1e-300))
    )
    llr = np.maximum(llr, 0.0)
    llr = np.where((n <= 0) | (n >= N), 0.0, llr)
    if direction > 0:
        llr = np.where(rho_in > rho_out, llr, 0.0)
    elif direction < 0:
        llr = np.where(rho_in < rho_out, llr, 0.0)
    return llr


def poisson_llr_batch(
    world_obs: np.ndarray,
    exp_r: np.ndarray,
    total_obs: float,
    direction: int = 0,
) -> np.ndarray:
    """Poisson scan LLR for a batch of simulated worlds.

    Parameters
    ----------
    world_obs : ndarray of shape (R, W)
        Per-region observed counts of each simulated world.
    exp_r : ndarray of shape (R,)
        Per-region (scaled) expected counts, shared across worlds.
    total_obs : float
        Total observed events.
    direction : {0, 1, -1}, default 0
        1 keeps only excess regions, -1 only deficits.

    Returns
    -------
    ndarray of float64, shape (R, W)
    """
    world_obs = np.ascontiguousarray(world_obs, dtype=np.float64)
    exp_r = np.ascontiguousarray(exp_r, dtype=np.float64)
    return poisson_llr(
        world_obs, exp_r[:, None], total_obs, direction=direction
    )


def multinomial_llr_term(n, c, C, N: float) -> np.ndarray:
    """One class's additive term of the multinomial scan LLR.

    The multinomial statistic is a sum over classes ``k`` of
    ``xlogy(c, rho) + xlogy(C - c, q) - xlogy(C, C / N)`` with the
    in/out rates clamped at ``1e-300``; callers accumulate this term
    across classes and apply the degeneracy mask afterwards.

    Parameters
    ----------
    n : array_like
        Region sizes — ``(R, 1)`` against a world batch, or any shape
        broadcastable with ``c``.
    c : array_like
        This class's count inside each region (``(R, W)`` on the
        engine path).
    C : array_like or float
        This class's global total — per world (``(1, W)``) or scalar.
    N : float
        Total observations.

    Returns
    -------
    ndarray of float64, broadcast shape of the inputs
    """
    n = np.asarray(n, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    N = float(N)
    n_out = N - n
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(n > 0, c / np.maximum(n, 1.0), 0.0)
        q = np.where(
            n_out > 0, (C - c) / np.maximum(n_out, 1.0), 0.0
        )
    return (
        xlogy(c, np.maximum(rho, 1e-300))
        + xlogy(C - c, np.maximum(q, 1e-300))
        - xlogy(C, np.maximum(C / N, 1e-300))
    )


def membership_counts_batch(matrix, worlds: np.ndarray) -> np.ndarray:
    """Per-region sums of a world batch through a CSR membership matrix.

    Computes ``matrix @ worlds`` in float64 throughout.  Accumulating
    in float64 keeps 0/1 world counts exact up to 2**53 (the old
    float32 product lost integer exactness past 2**24) and is
    bit-identical below that on every existing workload, since partial
    sums of small integers are exact in both precisions.

    Parameters
    ----------
    matrix : scipy.sparse.csr_matrix
        Region-by-point membership matrix (float64 data).
    worlds : ndarray of shape (n_points, n_worlds)
        One column per simulated world.

    Returns
    -------
    ndarray of float64, shape (n_regions, n_worlds)
    """
    worlds = np.ascontiguousarray(worlds, dtype=np.float64)
    return np.asarray(matrix @ worlds, dtype=np.float64)
