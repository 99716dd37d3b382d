"""Streaming/incremental audits: the equivalence suite.

The incremental path is only trustworthy if it is *provably* the cold
path: every test here pins ``incremental == full rebuild`` bit for bit
— reports (full JSON payloads), membership matrices (raw CSR arrays),
and null distributions — across all three outcome families, plus the
cache-survival and counter semantics the streaming layer promises.

The whole module carries the ``stream`` marker, so the suite can be
run on its own with ``pytest -m stream``.
"""

import json

import numpy as np
import pytest

from repro.api import AuditSession
from repro.engine import MonteCarloEngine
from repro.geometry import GridPartitioning, Rect, partition_region_set
from repro.index import RegionMembership, StackedMembership
from repro.serve import AuditService
from repro.spec import AuditSpec, RegionSpec

from tests.conftest import N_WORLDS

pytestmark = pytest.mark.stream

GRID = RegionSpec.grid(5, 5, bounds=(0.0, 0.0, 1.0, 1.0))
GRID_AUTO = RegionSpec.grid(4, 4)  # bounds from the data's bbox
SQUARES = RegionSpec.squares(4, sides=(0.15, 0.3), centers_seed=7)


def report_json(report) -> str:
    """A report's full payload as canonical JSON — byte equality."""
    return json.dumps(report.to_dict(full=True), sort_keys=True)


def csr_equal(a, b) -> bool:
    """Byte equality of two CSR matrices' raw arrays."""
    ma, mb = a._matrix, b._matrix
    return (
        np.array_equal(ma.indptr, mb.indptr)
        and np.array_equal(ma.indices, mb.indices)
        and np.array_equal(ma.data, mb.data)
    )


@pytest.fixture(scope="module")
def unit_y_true(unit_coords):
    rng = np.random.default_rng(104)
    return (rng.random(len(unit_coords)) < 0.5).astype(np.int8)


def _family_case(family, biased_labels, biased_counts, biased_classes):
    """(session kwargs, spec kwargs) for one outcome family."""
    if family == "bernoulli":
        return {"outcomes": biased_labels}, {}
    if family == "poisson":
        observed, forecast = biased_counts
        return (
            {"outcomes": observed, "forecast": forecast},
            {"family": "poisson"},
        )
    return {"outcomes": biased_classes}, {"family": "multinomial"}


def _sliced(arrays: dict, selector) -> dict:
    return {
        key: (None if value is None else value[selector])
        for key, value in arrays.items()
    }


class TestSessionEquivalence:
    """append/evict == cold rebuild, bit for bit, for every family."""

    @pytest.mark.parametrize(
        "family", ["bernoulli", "poisson", "multinomial"]
    )
    def test_streamed_equals_cold(
        self,
        family,
        unit_coords,
        biased_labels,
        biased_counts,
        biased_classes,
    ):
        arrays, spec_kw = _family_case(
            family, biased_labels, biased_counts, biased_classes
        )
        ts = np.arange(len(unit_coords), dtype=np.float64)
        specs = [
            AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=11, **spec_kw),
            AuditSpec(
                regions=SQUARES, n_worlds=N_WORLDS, seed=11, **spec_kw
            ),
        ]

        streamed = AuditSession(
            unit_coords[:400],
            timestamps=ts[:400],
            **_sliced(arrays, slice(None, 400)),
        )
        for spec in specs:  # warm every cache before the stream moves
            streamed.run(spec)
        streamed.append(
            unit_coords[400:],
            timestamps=ts[400:],
            **_sliced(arrays, slice(400, None)),
        )
        streamed.evict(older_than=100.0)
        got = [streamed.run(spec) for spec in specs]

        keep = ts >= 100.0
        cold = AuditSession(
            unit_coords[keep],
            timestamps=ts[keep],
            **_sliced(arrays, keep),
        )
        want = [cold.run(spec) for spec in specs]

        # 1. reports: full payloads, byte for byte
        assert [report_json(g) for g in got] == [
            report_json(w) for w in want
        ]
        for spec in specs:
            rs, rc = streamed.resolve(spec), cold.resolve(spec)
            # 2. membership matrices: raw CSR arrays
            assert csr_equal(rs.member, rc.member)
            assert np.array_equal(rs.member.counts, rc.member.counts)
            # 3. null distributions
            ns = rs.engine.null_distribution(
                rs.member, rs.kernel, N_WORLDS, seed=11
            )
            nc = rc.engine.null_distribution(
                rc.member, rc.kernel, N_WORLDS, seed=11
            )
            assert np.array_equal(ns, nc)

    def test_two_batches_equal_one_batch(
        self, unit_coords, biased_labels
    ):
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=5)
        twice = AuditSession(unit_coords[:400], biased_labels[:400])
        twice.run(spec)
        twice.append(unit_coords[400:500], biased_labels[400:500])
        twice.append(unit_coords[500:], biased_labels[500:])
        once = AuditSession(unit_coords[:400], biased_labels[:400])
        once.run(spec)
        once.append(unit_coords[400:], biased_labels[400:])
        cold = AuditSession(unit_coords, biased_labels)

        reports = [s.run(spec) for s in (twice, once, cold)]
        payloads = {report_json(r) for r in reports}
        assert len(payloads) == 1
        # Equal content -> equal dataset fingerprint; the *stream*
        # fingerprint tracks the event sequence and must differ.
        assert (
            twice.dataset_fingerprint() == once.dataset_fingerprint()
        )
        assert (
            twice.stream_fingerprint() != once.stream_fingerprint()
        )

    def test_evict_by_mask_equals_cold(self, unit_coords, biased_labels):
        spec = AuditSpec(regions=SQUARES, n_worlds=N_WORLDS, seed=2)
        session = AuditSession(unit_coords, biased_labels)
        session.run(spec)
        drop = np.zeros(len(unit_coords), dtype=bool)
        drop[::4] = True
        assert session.evict(drop) == int(drop.sum())
        cold = AuditSession(unit_coords[~drop], biased_labels[~drop])
        assert report_json(session.run(spec)) == report_json(
            cold.run(spec)
        )

    def test_window_slide_equals_cold(self, unit_coords, biased_labels):
        ts = np.arange(len(unit_coords), dtype=np.float64)
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=3)
        session = AuditSession(
            unit_coords[:500], biased_labels[:500], timestamps=ts[:500]
        )
        session.run(spec)
        session.append(
            unit_coords[500:], biased_labels[500:], timestamps=ts[500:]
        )
        # keep the trailing 400 time units: newest is 599 -> ts >= 199
        evicted = session.evict(window=400.0)
        assert evicted == 199
        keep = ts >= 199.0
        cold = AuditSession(
            unit_coords[keep], biased_labels[keep], timestamps=ts[keep]
        )
        assert report_json(session.run(spec)) == report_json(
            cold.run(spec)
        )

    def test_empty_append_is_a_noop(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        fp = session.dataset_fingerprint()
        sfp = session.stream_fingerprint()
        assert (
            session.append(np.empty((0, 2)), np.empty(0, dtype=np.int8))
            == 0
        )
        assert session.dataset_fingerprint() == fp
        assert session.stream_fingerprint() == sfp

    def test_evict_nothing_is_a_noop(self, unit_coords, biased_labels):
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=5)
        session = AuditSession(unit_coords, biased_labels)
        session.run(spec)
        worlds = session.worlds_simulated
        assert session.evict(np.zeros(len(unit_coords), dtype=bool)) == 0
        session.run(spec)  # still answered from every cache
        assert session.worlds_simulated == worlds


class TestCacheSurvival:
    """Null distributions survive exactly the untouched slices."""

    def test_untouched_measure_keeps_nulls(
        self, unit_coords, biased_labels, unit_y_true
    ):
        spec = AuditSpec(
            regions=GRID,
            n_worlds=N_WORLDS,
            seed=5,
            measure="equal_opportunity",
        )
        session = AuditSession(
            unit_coords[:500],
            biased_labels[:500],
            y_true=unit_y_true[:500],
        )
        session.run(spec)
        worlds = session.worlds_simulated
        # Every arrival has y_true == 0: the equal-opportunity slice
        # (y_true == 1) is untouched, so its nulls survive outright.
        session.append(
            unit_coords[500:],
            biased_labels[500:],
            y_true=np.zeros(100, dtype=np.int8),
        )
        report = session.run(spec)
        assert session.worlds_simulated == worlds
        # ... and the served report still matches a cold rebuild.
        cold = AuditSession(
            unit_coords,
            biased_labels,
            y_true=np.concatenate(
                [unit_y_true[:500], np.zeros(100, dtype=np.int8)]
            ),
        )
        assert report_json(report) == report_json(cold.run(spec))

    def test_touched_measure_resimulates(
        self, unit_coords, biased_labels, unit_y_true
    ):
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=5)
        session = AuditSession(unit_coords[:500], biased_labels[:500])
        session.run(spec)
        worlds = session.worlds_simulated
        session.append(unit_coords[500:], biased_labels[500:])
        session.run(spec)
        # statistical parity sees every point: nulls re-simulated.
        assert session.worlds_simulated == worlds + N_WORLDS

    def test_interior_growth_keeps_auto_grid(self):
        rng = np.random.default_rng(42)
        coords = 0.1 + 0.8 * rng.random((400, 2))
        # Pin the bounding box with corner points in the initial data,
        # so interior arrivals provably cannot move it.
        coords[0] = (0.1, 0.1)
        coords[1] = (0.9, 0.9)
        labels = (rng.random(400) < 0.4).astype(np.int8)
        spec = AuditSpec(regions=GRID_AUTO, n_worlds=N_WORLDS, seed=9)
        session = AuditSession(coords[:300], labels[:300])
        session.run(spec)
        assert session.index_builds == 1
        # Interior arrivals leave the bounding box untouched: the
        # data-driven grid survives and its index extends in place.
        session.append(coords[300:], labels[300:])
        session.run(spec)
        assert session.index_builds == 1
        assert session.incremental_builds == 1
        cold = AuditSession(coords, labels)
        assert report_json(session.run(spec)) == report_json(
            cold.run(spec)
        )

    def test_bbox_growth_rebuilds_auto_grid(self):
        rng = np.random.default_rng(43)
        coords = 0.1 + 0.8 * rng.random((400, 2))
        labels = (rng.random(400) < 0.4).astype(np.int8)
        spec = AuditSpec(regions=GRID_AUTO, n_worlds=N_WORLDS, seed=9)
        session = AuditSession(coords, labels)
        session.run(spec)
        assert session.index_builds == 1
        outside = np.array([[0.99, 0.99]])
        session.append(outside, np.array([1], dtype=np.int8))
        report = session.run(spec)
        # The bounding box moved: the grid was retired and rebuilt.
        assert session.index_builds == 2
        cold = AuditSession(
            np.concatenate([coords, outside]),
            np.concatenate([labels, np.array([1], dtype=np.int8)]),
        )
        assert report_json(report) == report_json(cold.run(spec))

    def test_counters_never_go_backwards(
        self, unit_coords, biased_labels
    ):
        spec = AuditSpec(regions=SQUARES, n_worlds=N_WORLDS, seed=4)
        session = AuditSession(unit_coords[:500], biased_labels[:500])
        session.run(spec)
        builds, worlds = session.index_builds, session.worlds_simulated
        # Appending retires the k-means design (its centres depend on
        # the measured coords); the retired engine state must still be
        # counted.
        session.append(unit_coords[500:], biased_labels[500:])
        assert session.index_builds >= builds
        assert session.worlds_simulated >= worlds
        session.run(spec)
        assert session.index_builds == builds + 1  # rebuilt once

    def test_emptied_measure_slice_raises_cold_error(
        self, unit_coords, biased_labels, unit_y_true
    ):
        spec = AuditSpec(
            regions=GRID,
            n_worlds=N_WORLDS,
            seed=5,
            measure="equal_opportunity",
        )
        session = AuditSession(
            unit_coords, biased_labels, y_true=unit_y_true
        )
        session.run(spec)
        session.evict(unit_y_true == 1)  # drop the whole measured slice
        with pytest.raises(ValueError, match="no observations"):
            session.run(spec)


class TestStreamValidation:
    def test_evict_needs_exactly_one_selector(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="exactly one"):
            session.evict()
        with pytest.raises(ValueError, match="exactly one"):
            session.evict(
                np.zeros(len(unit_coords), dtype=bool), window=1.0
            )

    def test_time_selectors_need_timestamps(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="timestamps"):
            session.evict(window=10.0)
        with pytest.raises(ValueError, match="timestamps"):
            session.evict(older_than=10.0)

    def test_bad_evict_mask(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="boolean mask"):
            session.evict(np.zeros(10, dtype=bool))
        with pytest.raises(ValueError, match="boolean mask"):
            session.evict(np.zeros(len(unit_coords), dtype=np.int8))

    def test_negative_window(self, unit_coords, biased_labels):
        session = AuditSession(
            unit_coords,
            biased_labels,
            timestamps=np.arange(len(unit_coords), dtype=float),
        )
        with pytest.raises(ValueError, match="non-negative"):
            session.evict(window=-1.0)

    def test_append_aux_consistency(
        self, unit_coords, biased_labels, unit_y_true
    ):
        plain = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="mid-flight"):
            plain.append(
                unit_coords[:5], biased_labels[:5], y_true=unit_y_true[:5]
            )
        with_y = AuditSession(
            unit_coords, biased_labels, y_true=unit_y_true
        )
        with pytest.raises(ValueError, match="must supply"):
            with_y.append(unit_coords[:5], biased_labels[:5])

    def test_append_shape_errors(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            session.append(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="length does not match"):
            session.append(unit_coords[:5], biased_labels[:4])

    def test_timestamps_length_checked_at_construction(
        self, unit_coords, biased_labels
    ):
        with pytest.raises(ValueError, match="timestamps"):
            AuditSession(
                unit_coords, biased_labels, timestamps=np.arange(3.0)
            )

    def test_engine_validation(self, unit_coords):
        engine = MonteCarloEngine(unit_coords)
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            engine.append_points(np.zeros(4))
        with pytest.raises(ValueError, match="boolean mask"):
            engine.evict_points(np.zeros(10, dtype=bool))


class TestIncrementalIndex:
    """RegionMembership/StackedMembership CSR updates == cold builds."""

    def test_membership_append_matches_cold(
        self, unit_coords, unit_regions
    ):
        member = RegionMembership(unit_regions, unit_coords[:500])
        delta = member.append_points(unit_coords[500:])
        assert delta.n_points == 100
        cold = RegionMembership(unit_regions, unit_coords)
        assert csr_equal(member, cold)
        assert np.array_equal(member.counts, cold.counts)
        assert member.n_points == cold.n_points

    def test_membership_evict_matches_cold(
        self, unit_coords, unit_regions
    ):
        member = RegionMembership(unit_regions, unit_coords)
        keep = np.ones(len(unit_coords), dtype=bool)
        keep[::3] = False
        member.evict_points(keep)
        cold = RegionMembership(unit_regions, unit_coords[keep])
        assert csr_equal(member, cold)
        assert np.array_equal(member.counts, cold.counts)

    def test_membership_evict_mask_checked(
        self, unit_coords, unit_regions
    ):
        member = RegionMembership(unit_regions, unit_coords)
        with pytest.raises(ValueError, match="boolean mask"):
            member.evict_points(np.ones(10, dtype=bool))
        with pytest.raises(ValueError, match="boolean mask"):
            member.evict_points(np.ones(len(unit_coords)))

    def _two_designs(self, coords):
        fine = partition_region_set(
            GridPartitioning.regular(Rect(0, 0, 1, 1), 3, 3)
        )
        members = [
            RegionMembership(regions, coords)
            for regions in (fine,)
        ]
        return members

    def test_stacked_append_matches_cold(
        self, unit_coords, unit_regions
    ):
        other = partition_region_set(
            GridPartitioning.regular(Rect(0, 0, 1, 1), 3, 3)
        )
        m1 = RegionMembership(unit_regions, unit_coords[:500])
        m2 = RegionMembership(other, unit_coords[:500])
        stacked = StackedMembership([m1, m2])
        stacked.append_points(unit_coords[500:])
        cold = StackedMembership(
            [
                RegionMembership(unit_regions, unit_coords),
                RegionMembership(other, unit_coords),
            ]
        )
        assert csr_equal(stacked, cold)
        assert np.array_equal(stacked.counts, cold.counts)
        assert stacked.segments == cold.segments

    def test_stacked_evict_matches_cold(self, unit_coords, unit_regions):
        other = partition_region_set(
            GridPartitioning.regular(Rect(0, 0, 1, 1), 3, 3)
        )
        m1 = RegionMembership(unit_regions, unit_coords)
        m2 = RegionMembership(other, unit_coords)
        stacked = StackedMembership([m1, m2])
        keep = np.ones(len(unit_coords), dtype=bool)
        keep[100:200] = False
        stacked.evict_points(keep)
        cold = StackedMembership(
            [
                RegionMembership(unit_regions, unit_coords[keep]),
                RegionMembership(other, unit_coords[keep]),
            ]
        )
        assert csr_equal(stacked, cold)
        assert np.array_equal(stacked.counts, cold.counts)

    def test_stacked_shared_member_updates_once(
        self, unit_coords, unit_regions
    ):
        member = RegionMembership(unit_regions, unit_coords[:500])
        stacked = StackedMembership([member, member])
        stacked.append_points(unit_coords[500:])
        assert member.n_points == len(unit_coords)
        cold_member = RegionMembership(unit_regions, unit_coords)
        assert csr_equal(member, cold_member)
        assert stacked.n_points == len(unit_coords)


class TestIndexBuildCounter:
    """Satellite fix: index_builds is exhaustive on every build path."""

    def test_fused_stacking_counts_as_build(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords, biased_labels)
        service = AuditService(session)
        other = RegionSpec.grid(3, 3, bounds=(0.0, 0.0, 1.0, 1.0))
        specs = [
            AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=6),
            AuditSpec(regions=other, n_worlds=N_WORLDS, seed=6),
        ]
        service.run_batch(specs)
        # Two member indexes plus one fused stacking over them.
        assert session.index_builds == 3
        # Repeat: answered from the report cache, zero new builds.
        service.run_batch(specs)
        assert session.index_builds == 3
        # Invalidate reports, keep the engine caches: the nulls are
        # answered per member from the null cache, so no re-stacking.
        service.invalidate()
        service.run_batch(specs)
        assert session.index_builds == 3

    def test_single_member_fusion_skips_stacking(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords, biased_labels)
        resolved = session.resolve(
            AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=6)
        )
        assert resolved.engine.index_builds == 1
        fused = resolved.engine.null_distribution_multi(
            [resolved.member], resolved.kernel, N_WORLDS, seed=6
        )
        # A one-design "fusion" scores the member matrix directly.
        assert resolved.engine.index_builds == 1
        solo_engine = MonteCarloEngine(resolved.engine.coords)
        solo = solo_engine.null_distribution(
            RegionMembership(resolved.regions, resolved.engine.coords),
            resolved.kernel,
            N_WORLDS,
            seed=6,
        )
        assert np.array_equal(fused[0], solo)

    def test_solo_runs_count_exactly(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=6)
        session.run(spec)
        session.run(spec)
        session.run_many([spec, spec])
        assert session.index_builds == 1


class TestServiceStreaming:
    def test_advance_skips_unchanged_slices(
        self, unit_coords, biased_labels, unit_y_true
    ):
        session = AuditSession(
            unit_coords[:500],
            biased_labels[:500],
            y_true=unit_y_true[:500],
        )
        service = AuditService(session)
        sp = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=8)
        eo = AuditSpec(
            regions=GRID,
            n_worlds=N_WORLDS,
            seed=8,
            measure="equal_opportunity",
        )
        assert service.watch([sp, eo]) == 2
        assert service.watch(sp) == 2  # deduplicated
        first = service.advance()
        assert len(first) == 2
        # Arrivals with y_true == 0 only touch statistical parity.
        reports = service.advance(
            unit_coords[500:],
            biased_labels[500:],
            y_true=np.zeros(100, dtype=np.int8),
        )
        stats = service.stats()
        assert stats["stream_skips"] == 1
        assert reports[1] is first[1]  # served from the last report
        cold = AuditService(
            AuditSession(
                unit_coords,
                biased_labels,
                y_true=np.concatenate(
                    [unit_y_true[:500], np.zeros(100, dtype=np.int8)]
                ),
            )
        )
        for got, want in zip(reports, cold.run_batch([sp, eo])):
            assert report_json(got) == report_json(want)

    def test_advance_window_equals_cold(
        self, unit_coords, biased_labels
    ):
        ts = np.arange(len(unit_coords), dtype=np.float64)
        service = AuditService(
            AuditSession(
                unit_coords[:500],
                biased_labels[:500],
                timestamps=ts[:500],
            )
        )
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=8)
        service.watch(spec)
        service.advance()
        (report,) = service.advance(
            unit_coords[500:],
            biased_labels[500:],
            timestamps=ts[500:],
            window=400.0,
        )
        keep = ts >= 199.0
        cold = AuditSession(
            unit_coords[keep], biased_labels[keep], timestamps=ts[keep]
        )
        assert report_json(report) == report_json(cold.run(spec))

    def test_advance_validation(self, unit_coords, biased_labels):
        service = AuditService(AuditSession(unit_coords, biased_labels))
        with pytest.raises(ValueError, match="outcomes are required"):
            service.advance(unit_coords[:5])
        with pytest.raises(ValueError, match="at most one"):
            service.advance(
                window=1.0,
                older_than=2.0,
            )

    def test_unwatch(self, unit_coords, biased_labels):
        service = AuditService(AuditSession(unit_coords, biased_labels))
        sp = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=8)
        other = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=9)
        service.watch([sp, other])
        assert [s.seed for s in service.watched()] == [8, 9]
        assert service.unwatch(sp) == 1
        assert [s.seed for s in service.watched()] == [9]
        assert service.unwatch() == 1
        assert service.watched() == []
        assert service.advance() == []

    def test_unseeded_specs_always_rerun(
        self, unit_coords, biased_labels
    ):
        service = AuditService(AuditSession(unit_coords, biased_labels))
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=None)
        service.watch(spec)
        service.advance()
        service.advance()
        stats = service.stats()
        assert stats["stream_runs"] == 2
        assert stats["stream_skips"] == 0

    def test_stats_carry_stream_counters(
        self, unit_coords, biased_labels
    ):
        service = AuditService(AuditSession(unit_coords, biased_labels))
        stats = service.stats()
        for key in (
            "incremental_builds",
            "watched",
            "advances",
            "stream_runs",
            "stream_skips",
        ):
            assert key in stats


class TestStreamFingerprint:
    def test_every_event_moves_the_digest(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords[:500], biased_labels[:500])
        digests = [session.stream_fingerprint()]
        session.append(unit_coords[500:], biased_labels[500:])
        digests.append(session.stream_fingerprint())
        drop = np.zeros(len(unit_coords), dtype=bool)
        drop[:10] = True
        session.evict(drop)
        digests.append(session.stream_fingerprint())
        assert len(set(digests)) == 3

    def test_event_order_matters(self, unit_coords, biased_labels):
        a = AuditSession(unit_coords[:400], biased_labels[:400])
        a.append(unit_coords[400:500], biased_labels[400:500])
        a.append(unit_coords[500:], biased_labels[500:])
        b = AuditSession(unit_coords[:400], biased_labels[:400])
        b.append(unit_coords[400:], biased_labels[400:])
        assert a.dataset_fingerprint() == b.dataset_fingerprint()
        assert a.stream_fingerprint() != b.stream_fingerprint()
