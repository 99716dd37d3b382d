"""Unit tests for :mod:`repro.kernels`.

Every kernel entry point returns float64 and matches an independent
re-derivation of its formula written out in the test (not a call back
into the module), so a refactor cannot drift numerically without
failing here.
"""

import numpy as np
import pytest
from scipy.special import xlogy

from repro import kernels
from repro.geometry import GridPartitioning, Rect, partition_region_set
from repro.index import RegionMembership
from repro.stats import poisson_llr


@pytest.fixture(scope="module")
def workload():
    """A small Bernoulli-shaped workload: 12 regions x 7 worlds."""
    rng = np.random.default_rng(3)
    coords = rng.random((200, 2))
    regions = partition_region_set(
        GridPartitioning.regular(Rect(0, 0, 1, 1), 4, 3)
    )
    member = RegionMembership(regions, coords)
    worlds = (rng.random((200, 7)) < 0.45).astype(np.float32)
    return {
        "member": member,
        "worlds": worlds,
        "n": member.counts.astype(np.float64),
        "world_p": member.positive_counts_batch(worlds),
        "world_P": worlds.sum(axis=0, dtype=np.float64),
        "N": 200.0,
    }


class TestDispatchedKernels:
    """Each kernel vs an in-test re-derivation of its formula."""

    def test_bernoulli_matches_direct_expression(self, workload):
        n = workload["n"][:, None]
        p = workload["world_p"]
        P = workload["world_P"][None, :]
        N = workload["N"]
        n_out = N - n
        p_out = P - p
        with np.errstate(divide="ignore", invalid="ignore"):
            rho_in = np.where(n > 0, p / np.maximum(n, 1.0), 0.0)
            rho_out = np.where(
                n_out > 0, p_out / np.maximum(n_out, 1.0), 0.0
            )
            rho = P / N
        expected = (
            xlogy(p, np.maximum(rho_in, 1e-300))
            + xlogy(n - p, np.maximum(1.0 - rho_in, 1e-300))
            + xlogy(p_out, np.maximum(rho_out, 1e-300))
            + xlogy(n_out - p_out, np.maximum(1.0 - rho_out, 1e-300))
            - xlogy(P, np.maximum(rho, 1e-300))
            - xlogy(N - P, np.maximum(1.0 - rho, 1e-300))
        )
        expected = np.maximum(expected, 0.0)
        expected = np.where((n <= 0) | (n >= N), 0.0, expected)

        got = kernels.bernoulli_llr_batch(
            workload["n"], p, N, workload["world_P"], 0
        )
        assert got.dtype == np.float64
        assert got.shape == p.shape
        assert np.array_equal(got, expected)
        # Directional filters zero exactly the cells on the wrong side.
        up = kernels.bernoulli_llr_batch(
            workload["n"], p, N, workload["world_P"], 1
        )
        down = kernels.bernoulli_llr_batch(
            workload["n"], p, N, workload["world_P"], -1
        )
        assert np.array_equal(
            up, np.where(rho_in > rho_out, expected, 0.0)
        )
        assert np.array_equal(
            down, np.where(rho_in < rho_out, expected, 0.0)
        )

    def test_poisson_matches_stats_reference(self, workload):
        rng = np.random.default_rng(4)
        exp_r = rng.random(len(workload["n"])) + 0.5
        world_obs = workload["world_p"]
        for direction in (0, 1, -1):
            got = kernels.poisson_llr_batch(
                world_obs, exp_r, workload["N"], direction=direction
            )
            expected = poisson_llr(
                world_obs,
                exp_r[:, None],
                workload["N"],
                direction=direction,
            )
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)

    def test_multinomial_matches_direct_expression(self, workload):
        n = workload["n"][:, None]
        c = workload["world_p"]
        C = workload["world_P"][None, :]
        N = workload["N"]
        n_out = N - n
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(n > 0, c / np.maximum(n, 1.0), 0.0)
            q = np.where(
                n_out > 0, (C - c) / np.maximum(n_out, 1.0), 0.0
            )
        expected = (
            xlogy(c, np.maximum(rho, 1e-300))
            + xlogy(C - c, np.maximum(q, 1e-300))
            - xlogy(C, np.maximum(C / N, 1e-300))
        )
        got = kernels.multinomial_llr_term(n, c, C, N)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)

    def test_membership_counts_exact_integers(self, workload):
        member = workload["member"]
        worlds = workload["worlds"]
        got = kernels.membership_counts_batch(member._matrix, worlds)
        # 0/1 worlds -> every output cell is an exact small integer in
        # float64, so dense brute force must agree bit for bit.
        brute = member._matrix.toarray() @ worlds.astype(np.float64)
        assert got.dtype == np.float64
        assert np.array_equal(got, brute)
        assert np.array_equal(got, np.round(got))
