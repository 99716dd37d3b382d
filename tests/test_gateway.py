"""Multi-tenant gateway: admission control, determinism, HTTP API."""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.api import AuditSession
from repro.gateway import (
    AsyncAuditGateway,
    AuditGateway,
    GatewayDrainingError,
    GatewayFullError,
    GatewayHTTPServer,
    TenantQuotaError,
    UnknownDatasetError,
)
from repro.spec import AuditSpec, RegionSpec

from .conftest import N_WORLDS


def _spec(seed=1, nx=4, ny=4, n_worlds=N_WORLDS, **kwargs):
    return AuditSpec(
        regions=RegionSpec.grid(nx, ny),
        n_worlds=n_worlds,
        seed=seed,
        **kwargs,
    )


def _payload(report) -> str:
    return json.dumps(report.to_dict(full=True), sort_keys=True)


@pytest.fixture()
def gateway(unit_coords, biased_labels):
    gw = AuditGateway(queue_size=16)
    gw.register("unit", unit_coords, biased_labels)
    yield gw
    gw.registry.close()


class TestAdmission:
    def test_run_bit_identical_to_solo(
        self, gateway, unit_coords, biased_labels
    ):
        spec = _spec(seed=7)
        solo = AuditSession(unit_coords, biased_labels).run(spec)
        via = gateway.run("unit", spec, tenant="alice")
        assert _payload(via) == _payload(solo)

    def test_unknown_dataset(self, gateway):
        with pytest.raises(UnknownDatasetError):
            gateway.submit("ghost", _spec())

    def test_queue_full_rejects_with_retry_after(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway(queue_size=2)
        gw.register("unit", unit_coords, biased_labels)
        t1 = gw.submit("unit", _spec(1))
        gw.submit("unit", _spec(2))
        with pytest.raises(GatewayFullError) as info:
            gw.submit("unit", _spec(3))
        assert info.value.retry_after > 0
        assert info.value.http_status == 429
        # Redeeming a ticket frees a slot at the next submit's reap.
        t1.result()
        gw.submit("unit", _spec(3))
        assert gw.stats()["rejected_full"] == 1

    def test_tenant_quota_isolates_tenants(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway(queue_size=16, tenant_quota=1)
        gw.register("unit", unit_coords, biased_labels)
        gw.submit("unit", _spec(1), tenant="chatty")
        with pytest.raises(TenantQuotaError):
            gw.submit("unit", _spec(2), tenant="chatty")
        gw.submit("unit", _spec(2), tenant="polite")  # still admitted
        assert gw.stats()["rejected_quota"] == 1

    def test_ticket_lookup(self, gateway):
        ticket = gateway.submit("unit", _spec(1))
        assert gateway.ticket(ticket.id) is ticket
        with pytest.raises(KeyError):
            gateway.ticket("t-999999")
        ticket.result()

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="queue_size"):
            AuditGateway(queue_size=0)
        with pytest.raises(ValueError, match="tenant_quota"):
            AuditGateway(tenant_quota=0)

    def test_spec_error_resolves_ticket_with_error(self, gateway):
        # Poisson needs a forecast the dataset lacks.
        ticket = gateway.submit(
            "unit", _spec(1, family="poisson")
        )
        gateway.gather()
        with pytest.raises(ValueError):
            ticket.result()
        assert gateway.stats()["errors"] == 1


class TestBatchesAndStats:
    def test_run_batch_fuses_one_group(self, gateway):
        specs = [_spec(seed=3, nx=n, ny=n) for n in (2, 3, 4)]
        reports = gateway.run_batch("unit", specs, tenant="team")
        assert len(reports) == 3
        service = gateway.service("unit")
        assert service.stats()["fused_groups"] == 1

    def test_stats_shape(self, gateway):
        gateway.run("unit", _spec(1), tenant="alice")
        stats = gateway.stats()
        assert stats["submitted"] == stats["completed"] == 1
        assert stats["queue_depth"] == 0
        assert stats["queue_peak"] == 1
        assert stats["latency_avg_ms"] > 0
        assert stats["tenants"]["alice"]["completed"] == 1
        assert stats["registry"]["datasets"] == 1
        assert stats["datasets"]["unit"]["completed"] == 1

    def test_register_replacement_rebuilds_service(
        self, gateway, unit_coords, biased_labels
    ):
        before = gateway.service("unit")
        gateway.register("unit", unit_coords, biased_labels)
        assert gateway.service("unit") is before  # same content
        gateway.register(
            "unit", unit_coords[:100], biased_labels[:100]
        )
        after = gateway.service("unit")
        assert after is not before
        assert len(after.session.coords) == 100

    def test_stats_json_serializable(self, gateway):
        gateway.run("unit", _spec(1))
        json.dumps(gateway.stats())


class TestConcurrency:
    def test_concurrent_tenants_stay_deterministic(
        self, unit_coords, biased_labels
    ):
        """Many threads, many tenants, interleaved submits and
        redeems: every report must equal its solo run bit for bit."""
        gw = AuditGateway(queue_size=64)
        gw.register("unit", unit_coords, biased_labels)
        seeds = [1, 2, 3, 4]
        solo = {}
        session = AuditSession(unit_coords, biased_labels)
        for seed in seeds:
            solo[seed] = _payload(session.run(_spec(seed)))
        results: dict = {}
        errors: list = []

        def tenant_run(tenant: str, seed: int):
            try:
                report = gw.run("unit", _spec(seed), tenant=tenant)
                results[(tenant, seed)] = _payload(report)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant_run, args=(f"t{i}", seed))
            for i, seed in enumerate(seeds * 3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for (tenant, seed), payload in results.items():
            assert payload == solo[seed], (tenant, seed)
        stats = gw.stats()
        assert stats["completed"] == len(threads)
        assert stats["queue_depth"] == 0

    def test_stats_snapshot_under_load(
        self, unit_coords, biased_labels
    ):
        """stats() must never tear while gathers run concurrently."""
        gw = AuditGateway(queue_size=64)
        gw.register("unit", unit_coords, biased_labels)
        stop = threading.Event()
        torn: list = []

        def poll():
            while not stop.is_set():
                snap = gw.service("unit").stats()
                if snap["fused_specs"] < snap["fused_groups"]:
                    torn.append(snap)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            for seed in range(1, 6):
                gw.run("unit", _spec(seed, n_worlds=25))
        finally:
            stop.set()
            poller.join()
        assert not torn

    def test_asyncio_gather_many_tenants(
        self, unit_coords, biased_labels
    ):
        agw = AsyncAuditGateway(queue_size=32)
        agw.gateway.register("unit", unit_coords, biased_labels)
        solo = _payload(
            AuditSession(unit_coords, biased_labels).run(_spec(5))
        )

        async def main():
            return await asyncio.gather(
                *(
                    agw.run("unit", _spec(5), tenant=f"t{i}")
                    for i in range(4)
                )
            )

        reports = asyncio.run(main())
        assert all(_payload(r) == solo for r in reports)
        assert agw.stats()["completed"] == 4

    def test_asyncio_batch(self, unit_coords, biased_labels):
        agw = AsyncAuditGateway(queue_size=32)
        agw.gateway.register("unit", unit_coords, biased_labels)

        async def main():
            return await agw.run_batch(
                "unit", [_spec(1), _spec(2)], tenant="a"
            )

        assert len(asyncio.run(main())) == 2


class TestDrain:
    def test_drain_finishes_inflight_then_refuses(self, gateway):
        tickets = [gateway.submit("unit", _spec(s)) for s in (1, 2)]
        resolved = gateway.drain()
        assert resolved == 2
        assert gateway.draining
        assert all(t.done() for t in tickets)
        with pytest.raises(GatewayDrainingError):
            gateway.submit("unit", _spec(3))
        assert gateway.stats()["rejected_draining"] == 1

    def test_close_drains_and_releases(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway()
        gw.register("unit", unit_coords, biased_labels)
        gw.submit("unit", _spec(1))
        gw.close()
        assert gw.draining
        assert gw.registry.names() == []

    def test_serve_http_blocks_until_signal(
        self, unit_coords, biased_labels
    ):
        """serve_http must announce, serve, and drain on SIGINT."""
        import os
        import signal

        from repro.gateway import serve_http

        gw = AuditGateway()
        gw.register("unit", unit_coords, biased_labels)
        seen: dict = {}

        def ready(server):
            seen["url"] = server.url

            def poke():
                status, body, _ = _Client(server.url).get("/healthz")
                seen["health"] = (status, body)
                os.kill(os.getpid(), signal.SIGINT)

            threading.Thread(target=poke).start()

        serve_http(gw, port=0, ready=ready)
        assert seen["health"][0] == 200
        assert gw.draining


class _Client:
    """Tiny urllib JSON client against an in-process server."""

    def __init__(self, url: str):
        self.url = url

    def request(self, method, path, payload=None):
        data = (
            None
            if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        req = urllib.request.Request(
            self.url + path, data=data, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read()), dict(
                    resp.headers
                )
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read()), dict(err.headers)

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, payload):
        return self.request("POST", path, payload)


@pytest.fixture()
def http(unit_coords, biased_labels):
    gw = AuditGateway(queue_size=2)
    server = GatewayHTTPServer(gw, port=0)
    server.start()
    client = _Client(server.url)
    status, body, _ = client.post(
        "/datasets",
        {
            "name": "unit",
            "coords": unit_coords.tolist(),
            "outcomes": biased_labels.tolist(),
        },
    )
    assert status == 201 and body["points"] == len(unit_coords)
    yield client, gw
    server.stop()
    gw.registry.close()


SPEC_DICT = {
    "regions": {"kind": "grid", "nx": 4, "ny": 4},
    "n_worlds": N_WORLDS,
    "seed": 7,
}


class TestHTTP:
    def test_audit_roundtrip_bit_identical(
        self, http, unit_coords, biased_labels
    ):
        client, _ = http
        status, body, _ = client.post(
            "/audit", {"dataset": "unit", "spec": SPEC_DICT}
        )
        assert status == 200
        solo = AuditSession(unit_coords, biased_labels).run(
            AuditSpec.from_dict(SPEC_DICT)
        )
        assert json.dumps(body["report"], sort_keys=True) == (
            json.dumps(solo.to_dict(full=True), sort_keys=True)
        )

    def test_ticket_flow_and_429(self, http):
        client, _ = http
        tickets = []
        for seed in (1, 2):
            status, body, _ = client.post(
                "/audit",
                {
                    "dataset": "unit",
                    "spec": dict(SPEC_DICT, seed=seed),
                    "wait": False,
                },
            )
            assert status == 202
            tickets.append(body["ticket"])
        # Queue (size 2) now full of unredeemed tickets -> honest 429.
        status, body, headers = client.post(
            "/audit",
            {
                "dataset": "unit",
                "spec": dict(SPEC_DICT, seed=3),
                "wait": False,
            },
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert body["type"] == "GatewayFullError"
        # Poll without blocking, then redeem (which drives the run).
        status, body, _ = client.get(f"/tickets/{tickets[0]}?wait=0")
        assert status == 200 and body["done"] is False
        status, body, _ = client.get(f"/tickets/{tickets[0]}")
        assert status == 200 and body["done"] is True
        assert "report" in body
        # The freed slot admits the retried request.
        status, body, _ = client.post(
            "/audit",
            {
                "dataset": "unit",
                "spec": dict(SPEC_DICT, seed=3),
                "wait": False,
            },
        )
        assert status == 202

    def test_batch_endpoint(self, http):
        client, _ = http
        status, body, _ = client.post(
            "/batch",
            {
                "dataset": "unit",
                "specs": [SPEC_DICT, dict(SPEC_DICT, seed=8)],
            },
        )
        assert status == 200
        assert len(body["reports"]) == 2

    def test_datasets_and_stats_and_health(self, http):
        client, gw = http
        status, body, _ = client.get("/datasets")
        assert status == 200
        assert body["datasets"][0]["name"] == "unit"
        assert (
            body["datasets"][0]["fingerprint"]
            == gw.registry.get("unit").fingerprint
        )
        status, body, _ = client.get("/stats")
        assert status == 200 and body["queue_size"] == 2
        status, body, _ = client.get("/healthz")
        assert status == 200 and body["ok"] is True

    def test_error_mapping(self, http):
        client, _ = http
        status, body, _ = client.post(
            "/audit", {"dataset": "ghost", "spec": SPEC_DICT}
        )
        assert status == 404
        assert body["type"] == "UnknownDatasetError"
        status, body, _ = client.get("/tickets/t-424242")
        assert status == 404
        status, body, _ = client.get("/nope")
        assert status == 404
        status, body, _ = client.post(
            "/audit", {"dataset": "unit", "spec": {"n_worlds": -1}}
        )
        assert status == 400
        # A missing body field is the client's fault, not a lookup miss.
        status, body, _ = client.post("/audit", {"dataset": "unit"})
        assert status == 400
        assert "spec" in body["error"]
        # A negative Content-Length must be refused, not read to EOF
        # (which would hold the handler until the client hangs up).
        url = urllib.parse.urlsplit(client.url)
        conn = HTTPConnection(url.hostname, url.port, timeout=5)
        try:
            start = time.monotonic()
            conn.putrequest("POST", "/audit")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.loads(resp.read())["error"]
            assert time.monotonic() - start < 5
        finally:
            conn.close()

    def test_unknown_tenant_accounting(self, http):
        client, gw = http
        client.post(
            "/audit",
            {
                "dataset": "unit",
                "spec": SPEC_DICT,
                "tenant": "acme",
            },
        )
        assert gw.stats()["tenants"]["acme"]["completed"] == 1
