"""Dataset registry: read-only storage, dedup, safety rails."""

import json

import numpy as np
import pytest

from repro.api import AuditSession
from repro.fingerprint import dataset_fingerprint
from repro.registry import DatasetRegistry, SharedDataset
from repro.spec import AuditSpec, RegionSpec

from .conftest import N_WORLDS


@pytest.fixture()
def registry():
    reg = DatasetRegistry()
    yield reg
    reg.close()


class TestSharedDataset:
    def test_views_match_inputs_and_are_shared(
        self, unit_coords, biased_labels
    ):
        ds = SharedDataset("d", unit_coords, biased_labels)
        try:
            assert np.array_equal(ds.coords, unit_coords)
            assert np.array_equal(ds.outcomes, biased_labels)
            assert len(ds) == len(unit_coords)
            assert ds.nbytes >= unit_coords.nbytes
        finally:
            ds.close()

    def test_views_are_read_only(self, unit_coords, biased_labels):
        ds = SharedDataset("d", unit_coords, biased_labels)
        try:
            with pytest.raises(ValueError):
                ds.coords[0, 0] = 42.0
        finally:
            ds.close()

    def test_fingerprint_matches_module_function(
        self, unit_coords, biased_labels
    ):
        ds = SharedDataset("d", unit_coords, biased_labels)
        try:
            assert ds.fingerprint == dataset_fingerprint(
                np.asarray(unit_coords, dtype=np.float64),
                np.asarray(biased_labels),
            )
        finally:
            ds.close()

    def test_optional_arrays_stored(self, unit_coords, biased_counts):
        observed, forecast = biased_counts
        ds = SharedDataset(
            "d",
            unit_coords,
            observed,
            forecast=forecast,
            n_classes=3,
        )
        try:
            assert np.array_equal(ds.forecast, forecast)
            assert ds.y_true is None
            assert ds.n_classes == 3
        finally:
            ds.close()

    def test_private_copy_fallback(self, unit_coords, biased_labels):
        ds = SharedDataset("d", unit_coords, biased_labels)
        assert not np.shares_memory(ds.coords, unit_coords)
        assert not np.shares_memory(ds.outcomes, biased_labels)
        with pytest.raises(ValueError):
            ds.outcomes[0] = 5
        ds.close()  # idempotent
        ds.close()

    def test_rejects_bad_coords(self):
        with pytest.raises(ValueError, match="coords"):
            SharedDataset("d", np.zeros(5), np.zeros(5))

    def test_session_after_close_raises(
        self, unit_coords, biased_labels
    ):
        ds = SharedDataset("d", unit_coords, biased_labels)
        ds.close()
        with pytest.raises(ValueError, match="closed"):
            ds.session()


class TestDatasetRegistry:
    def test_register_get_names(
        self, registry, unit_coords, biased_labels
    ):
        ds = registry.register("a", unit_coords, biased_labels)
        assert registry.get("a") is ds
        assert "a" in registry and "b" not in registry
        assert registry.names() == ["a"]
        assert len(registry) == 1

    def test_unknown_name_lists_known(self, registry):
        with pytest.raises(KeyError, match="unknown dataset"):
            registry.get("ghost")

    def test_equal_content_shares_storage(
        self, registry, unit_coords, biased_labels
    ):
        a = registry.register("a", unit_coords, biased_labels)
        b = registry.register("b", unit_coords.copy(), biased_labels)
        assert b is a
        stats = registry.stats()
        assert stats["datasets"] == 2
        assert stats["unique"] == 1
        assert stats["deduped"] == 1

    def test_registration_copies_inputs(
        self, registry, unit_coords, biased_labels
    ):
        coords = unit_coords.copy()
        outcomes = biased_labels.copy()
        first = registry.register("a", coords, outcomes)
        stored_coords = first.coords.copy()
        stored_outcomes = first.outcomes.copy()
        fingerprint = first.fingerprint
        # Mutating the caller's arrays must not reach the stored copy.
        coords[0] = [0.5, 0.5]
        outcomes[:] = 1 - outcomes
        assert np.array_equal(first.coords, stored_coords)
        assert np.array_equal(first.outcomes, stored_outcomes)
        assert first.fingerprint == fingerprint
        assert first.fingerprint == dataset_fingerprint(
            first.coords, first.outcomes
        )
        # The mutated content is new content: no dedup onto the first.
        second = registry.register("b", coords, outcomes)
        assert second is not first
        assert second.fingerprint != fingerprint
        assert registry.stats()["deduped"] == 0

    def test_by_fingerprint(self, registry, unit_coords, biased_labels):
        ds = registry.register("a", unit_coords, biased_labels)
        assert registry.by_fingerprint(ds.fingerprint) is ds
        assert registry.by_fingerprint("nope") is None

    def test_session_runs_bit_identical(
        self, registry, unit_coords, biased_labels
    ):
        registry.register("a", unit_coords, biased_labels)
        spec = AuditSpec(
            regions=RegionSpec.grid(4, 4), n_worlds=N_WORLDS, seed=3
        )
        direct = AuditSession(unit_coords, biased_labels).run(spec)
        via = registry.session("a").run(spec)
        expected = json.dumps(direct.to_dict(full=True), sort_keys=True)
        assert json.dumps(via.to_dict(full=True), sort_keys=True) == expected

    def test_remove_releases_orphaned_storage(
        self, registry, unit_coords, biased_labels
    ):
        ds = registry.register("a", unit_coords, biased_labels)
        registry.register("alias", unit_coords, biased_labels)
        assert registry.remove("a")
        assert not ds._closed  # alias still refers to the content
        assert registry.remove("alias")
        assert ds._closed
        assert not registry.remove("alias")

    def test_rebind_name_to_new_content(
        self, registry, unit_coords, biased_labels
    ):
        old = registry.register("a", unit_coords, biased_labels)
        new = registry.register(
            "a", unit_coords[:100], biased_labels[:100]
        )
        assert new is not old
        assert old._closed  # no name refers to the old content
        assert len(registry.get("a")) == 100

    def test_close_is_idempotent(
        self, registry, unit_coords, biased_labels
    ):
        registry.register("a", unit_coords, biased_labels)
        registry.close()
        assert registry.names() == []
        registry.close()

    def test_stats_totals(self, registry, unit_coords, biased_labels):
        registry.register("a", unit_coords, biased_labels)
        stats = registry.stats()
        assert stats["points"] == len(unit_coords)
        assert stats["bytes"] > 0
