"""Unit tests for the durable ticket journal and its gateway wiring.

The store-level tests exercise the journal contract in isolation
(submit/settle/fetch transitions, idempotent first-settle-wins,
restart-stable ids, typed errors on bad input); the gateway-level
tests prove the crash-safety invariants the chaos suite relies on:
journal-before-work, store-fallback fetches after "restart"
(a second gateway over the same file), and byte-identical recovery
of journalled-but-unsettled tickets.
"""

import json

import pytest

from repro.gateway import (
    AuditGateway,
    TicketFailedError,
    TicketRecoveryError,
)
from repro.spec import AuditSpec, RegionSpec
from repro.ticketstore import (
    TicketRecord,
    TicketStore,
    TicketStoreError,
    _seq_of,
)

from tests.conftest import N_WORLDS


def _spec(seed=1, nx=4, ny=4, n_worlds=N_WORLDS, **kw):
    return AuditSpec(
        regions=RegionSpec.grid(nx, ny),
        n_worlds=n_worlds,
        seed=seed,
        **kw,
    )


def _payload(report) -> str:
    return json.dumps(report.to_dict(full=True), sort_keys=True)


@pytest.fixture()
def store(tmp_path):
    store = TicketStore(tmp_path / "tickets.sqlite")
    yield store
    store.close()


@pytest.fixture()
def gateway(tmp_path):
    gw = AuditGateway(
        queue_size=16,
        store=tmp_path / "tickets.sqlite",
    )
    yield gw
    gw.registry.close()


def _register(gw, unit_coords, biased_labels, name="city"):
    gw.register(name, unit_coords, biased_labels)
    return gw


# -- the store in isolation ------------------------------------------


class TestTicketStore:
    def test_submit_returns_monotone_ids(self, store):
        ids = [
            store.record_submit("d", "t", "{}", "fp") for _ in range(3)
        ]
        assert ids == ["t-1", "t-2", "t-3"]

    def test_ids_stay_unique_across_reopen(self, tmp_path):
        path = tmp_path / "j.sqlite"
        with TicketStore(path) as store:
            first = store.record_submit("d", "t", "{}", "fp")
            store.record_settle(first, report={"v": 1})
        # AUTOINCREMENT: a reopened store never reuses a seq, so a
        # restarted gateway cannot hand out an id that already names
        # a (possibly settled) pre-crash ticket.
        with TicketStore(path) as store:
            assert store.record_submit("d", "t", "{}", "fp") == "t-2"

    def test_submit_row_contents(self, store):
        tid = store.record_submit("city", "acme", '{"x": 1}', "abc")
        record = store.get(tid)
        assert isinstance(record, TicketRecord)
        assert record.id == tid
        assert record.dataset == "city"
        assert record.tenant == "acme"
        assert record.spec == '{"x": 1}'
        assert record.fingerprint == "abc"
        assert record.state == "submitted"
        assert not record.settled
        assert record.report is None
        assert record.submitted_at > 0
        assert record.settled_at is None

    def test_settle_done_roundtrips_report(self, store):
        tid = store.record_submit("d", "t", "{}", "fp")
        payload = {"p_value": 0.25, "verdict": "fair"}
        assert store.record_settle(tid, report=payload)
        record = store.get(tid)
        assert record.state == "done"
        assert record.settled
        assert record.report == payload
        assert record.settled_at >= record.submitted_at
        assert record.error is None

    def test_settle_failed_records_typed_error(self, store):
        tid = store.record_submit("d", "t", "{}", "fp")
        assert store.record_settle(
            tid, error_type="ValueError", error="bad spec"
        )
        record = store.get(tid)
        assert record.state == "failed"
        assert record.error_type == "ValueError"
        assert record.error == "bad spec"
        assert record.report is None

    def test_first_settle_wins(self, store):
        tid = store.record_submit("d", "t", "{}", "fp")
        assert store.record_settle(tid, report={"v": 1})
        # A recovery replay racing the original settle must not
        # overwrite it.
        assert not store.record_settle(
            tid, error_type="X", error="late"
        )
        assert store.get(tid).report == {"v": 1}

    def test_settle_requires_exactly_one_outcome(self, store):
        tid = store.record_submit("d", "t", "{}", "fp")
        with pytest.raises(ValueError):
            store.record_settle(tid)
        with pytest.raises(ValueError):
            store.record_settle(
                tid, report={"v": 1}, error_type="X", error="both"
            )

    def test_fetch_counter(self, store):
        tid = store.record_submit("d", "t", "{}", "fp")
        store.record_fetch(tid)
        store.record_fetch(tid)
        assert store.get(tid).fetches == 2

    def test_unsettled_lists_only_submitted(self, store):
        keep = store.record_submit("d", "t", "{}", "fp")
        done = store.record_submit("d", "t", "{}", "fp")
        store.record_settle(done, report={})
        pending = store.unsettled()
        assert [r.id for r in pending] == [keep]

    def test_get_unknown_and_malformed_ids(self, store):
        assert store.get("t-999") is None
        with pytest.raises(TicketStoreError):
            store.get("nonsense")
        with pytest.raises(TicketStoreError):
            _seq_of("t-")

    def test_stats_counts_states(self, store):
        a = store.record_submit("d", "t", "{}", "fp")
        b = store.record_submit("d", "t", "{}", "fp")
        store.record_submit("d", "t", "{}", "fp")
        store.record_settle(a, report={})
        store.record_settle(b, error_type="X", error="boom")
        stats = store.stats()
        assert stats["tickets"] == 3
        assert stats["done"] == 1
        assert stats["failed"] == 1
        assert stats["submitted"] == 1

    def test_recovered_flag_counted(self, store):
        tid = store.record_submit("d", "t", "{}", "fp")
        store.record_settle(tid, report={}, recovered=True)
        assert store.get(tid).recovered
        assert store.stats()["recovered"] == 1

    def test_closed_store_raises_typed(self, store):
        store.close()
        store.close()  # idempotent
        with pytest.raises(TicketStoreError):
            store.record_submit("d", "t", "{}", "fp")

    def test_bad_path_raises_typed(self, tmp_path):
        with pytest.raises(TicketStoreError):
            TicketStore(tmp_path / "missing-dir" / "j.sqlite")


# -- gateway write-through -------------------------------------------


class TestGatewayWriteThrough:
    def test_submit_and_settle_are_journalled(
        self, gateway, unit_coords, biased_labels
    ):
        _register(gateway, unit_coords, biased_labels)
        ticket = gateway.submit("city", _spec(), tenant="acme")
        report = ticket.result()
        record = gateway.store.get(ticket.id)
        assert record.state == "done"
        assert record.tenant == "acme"
        assert record.spec == _spec().to_json()
        assert record.fingerprint == (
            gateway.registry.get("city").fingerprint
        )
        assert json.dumps(record.report, sort_keys=True) == _payload(
            report
        )

    def test_failed_audit_is_journalled_failed(
        self, gateway, unit_coords, biased_labels
    ):
        _register(gateway, unit_coords, biased_labels)
        # equal_opportunity needs y_true, which 'city' lacks.
        spec = _spec(measure="equal_opportunity")
        ticket = gateway.submit("city", spec)
        with pytest.raises(Exception):
            ticket.result()
        record = gateway.store.get(ticket.id)
        assert record.state == "failed"
        assert record.error_type
        assert record.report is None

    def test_store_fallback_after_restart_is_byte_identical(
        self, tmp_path, unit_coords, biased_labels
    ):
        path = tmp_path / "j.sqlite"
        gw1 = AuditGateway(
            queue_size=16, store=path
        )
        _register(gw1, unit_coords, biased_labels)
        ticket = gw1.submit("city", _spec())
        golden = _payload(ticket.result())
        gw1.registry.close()

        gw2 = AuditGateway(
            queue_size=16, store=path
        )
        try:
            stored = gw2.ticket(ticket.id)
            assert stored.done()
            assert _payload(stored.result()) == golden
            # StoredReport duck-types the HTTP layer's access pattern.
            report = stored.result()
            assert report.to_dict() == report.to_dict(full=True)
            assert 0.0 <= report.p_value <= 1.0
        finally:
            gw2.registry.close()

    def test_stored_failed_ticket_raises_typed(
        self, tmp_path, unit_coords, biased_labels
    ):
        path = tmp_path / "j.sqlite"
        gw1 = AuditGateway(
            queue_size=16, store=path
        )
        _register(gw1, unit_coords, biased_labels)
        ticket = gw1.submit("city", _spec(measure="equal_opportunity"))
        with pytest.raises(Exception):
            ticket.result()
        gw1.registry.close()

        gw2 = AuditGateway(
            queue_size=16, store=path
        )
        try:
            stored = gw2.ticket(ticket.id)
            with pytest.raises(TicketFailedError) as err:
                stored.result()
            assert err.value.http_status == 500
        finally:
            gw2.registry.close()

    def test_unsettled_stored_ticket_raises_recovery_error(
        self, gateway, unit_coords, biased_labels
    ):
        _register(gateway, unit_coords, biased_labels)
        tid = gateway.store.record_submit(
            "city",
            "acme",
            _spec().to_json(),
            gateway.registry.get("city").fingerprint,
        )
        stored = gateway.ticket(tid)
        assert not stored.done()
        with pytest.raises(TicketRecoveryError):
            stored.result()

    def test_unknown_ticket_still_keyerrors(
        self, gateway, unit_coords, biased_labels
    ):
        _register(gateway, unit_coords, biased_labels)
        with pytest.raises(KeyError):
            gateway.ticket("t-424242")

    def test_fetches_are_journalled(
        self, gateway, unit_coords, biased_labels
    ):
        _register(gateway, unit_coords, biased_labels)
        ticket = gateway.submit("city", _spec())
        ticket.result()
        gateway.ticket(ticket.id)
        gateway.ticket(ticket.id)
        assert gateway.store.get(ticket.id).fetches == 2

    def test_stats_carry_store_section(
        self, gateway, unit_coords, biased_labels
    ):
        _register(gateway, unit_coords, biased_labels)
        gateway.submit("city", _spec()).result()
        stats = gateway.stats()["store"]
        assert stats["tickets"] == 1
        assert stats["done"] == 1
        assert stats["write_errors"] == 0
        assert stats["recovery"] is None

    def test_storeless_gateway_unchanged(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway(queue_size=16)
        try:
            _register(gw, unit_coords, biased_labels)
            ticket = gw.submit("city", _spec())
            ticket.result()
            assert gw.stats()["store"] is None
            assert gw.recover() == {
                "replayed": 0,
                "recovered": 0,
                "failed": 0,
            }
        finally:
            gw.registry.close()


# -- boot-time recovery ----------------------------------------------


class TestRecovery:
    def _golden(self, unit_coords, biased_labels, spec):
        gw = AuditGateway(queue_size=16)
        try:
            _register(gw, unit_coords, biased_labels)
            return _payload(gw.submit("city", spec).result())
        finally:
            gw.registry.close()

    def test_recover_replays_byte_identical(
        self, tmp_path, unit_coords, biased_labels
    ):
        spec = _spec(seed=5)
        golden = self._golden(unit_coords, biased_labels, spec)

        path = tmp_path / "j.sqlite"
        with TicketStore(path) as store:
            gw = AuditGateway(
                queue_size=16, store=store
            )
            _register(gw, unit_coords, biased_labels)
            fingerprint = gw.registry.get("city").fingerprint
            tid = store.record_submit(
                "city", "acme", spec.to_json(), fingerprint
            )
            summary = gw.recover()
            assert summary == {
                "replayed": 1,
                "recovered": 1,
                "failed": 0,
            }
            record = store.get(tid)
            assert record.state == "done"
            assert record.recovered
            assert (
                json.dumps(record.report, sort_keys=True) == golden
            )
            assert _payload(gw.ticket(tid).result()) == golden
            assert gw.stats()["store"]["recovery"] == summary
            gw.registry.close()

    def test_recover_fuses_one_pass_per_dataset(
        self, tmp_path, unit_coords, biased_labels
    ):
        path = tmp_path / "j.sqlite"
        with TicketStore(path) as store:
            gw = AuditGateway(
                queue_size=16, store=store
            )
            _register(gw, unit_coords, biased_labels)
            fingerprint = gw.registry.get("city").fingerprint
            for _ in range(3):
                store.record_submit(
                    "city", "acme", _spec(seed=3).to_json(), fingerprint
                )
            summary = gw.recover()
            assert summary["recovered"] == 3
            service = gw.service("city")
            stats = service.stats()
            # identical specs dedupe into one fused simulation
            assert stats["fused_groups"] == 1
            gw.registry.close()

    def test_recover_fails_missing_dataset_typed(
        self, tmp_path, unit_coords, biased_labels
    ):
        path = tmp_path / "j.sqlite"
        with TicketStore(path) as store:
            tid = store.record_submit(
                "gone", "acme", _spec().to_json(), "deadbeef"
            )
            gw = AuditGateway(
                queue_size=16, store=store
            )
            _register(gw, unit_coords, biased_labels)
            summary = gw.recover()
            assert summary["failed"] == 1
            record = store.get(tid)
            assert record.state == "failed"
            assert record.error_type == "TicketRecoveryError"
            assert record.recovered
            gw.registry.close()

    def test_recover_fails_on_fingerprint_mismatch(
        self, tmp_path, unit_coords, biased_labels
    ):
        path = tmp_path / "j.sqlite"
        with TicketStore(path) as store:
            tid = store.record_submit(
                "city", "acme", _spec().to_json(), "not-the-data"
            )
            gw = AuditGateway(
                queue_size=16, store=store
            )
            _register(gw, unit_coords, biased_labels)
            summary = gw.recover()
            assert summary == {
                "replayed": 1,
                "recovered": 0,
                "failed": 1,
            }
            record = store.get(tid)
            assert record.error_type == "TicketRecoveryError"
            assert "fingerprint" in record.error
            gw.registry.close()

    def test_recover_fails_bad_spec_typed(
        self, tmp_path, unit_coords, biased_labels
    ):
        path = tmp_path / "j.sqlite"
        with TicketStore(path) as store:
            gw = AuditGateway(
                queue_size=16, store=store
            )
            _register(gw, unit_coords, biased_labels)
            fingerprint = gw.registry.get("city").fingerprint
            tid = store.record_submit(
                "city", "acme", "{not json", fingerprint
            )
            summary = gw.recover()
            assert summary["failed"] == 1
            assert store.get(tid).state == "failed"
            gw.registry.close()

    def test_recover_skips_settled_tickets(
        self, tmp_path, unit_coords, biased_labels
    ):
        path = tmp_path / "j.sqlite"
        with TicketStore(path) as store:
            gw = AuditGateway(
                queue_size=16, store=store
            )
            _register(gw, unit_coords, biased_labels)
            ticket = gw.submit("city", _spec())
            ticket.result()
            assert gw.recover() == {
                "replayed": 0,
                "recovered": 0,
                "failed": 0,
            }
            gw.registry.close()
