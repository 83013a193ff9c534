"""End-to-end gateway mediation over real sockets and real replicas.

The acceptance scenario for the front door: a token-holding client
reaches a 3-replica backend *only* through the gateway, survives a
replica being killed mid-load with zero caller-visible faults, honours
429 ``Retry-After``, and leaves metrics + trace-correlated access logs
behind.
"""

import json
import threading
import time

import pytest

from repro.core.broker import ServiceBroker
from repro.core.service import Service, operation
from repro.gateway import (
    Gateway,
    GatewayRoute,
    RateLimiter,
    RateLimitPolicy,
    SecurityPolicy,
)
from repro.observability.logs import Logger, RingBufferSink
from repro.observability.runtime import OBS, observed
from repro.observability.trace import SpanCollector
from repro.replication.publish import publish_replicated
from repro.security.access import AccessControl
from repro.security.auth import PasswordVault, TokenIssuer
from repro.services import CacheService
from repro.transport.client import HttpClient
from repro.transport.rest import RestClient
from repro.xmlkit import loads

PASSWORD = "Correct-Horse-7"


class CounterService(Service):
    service_name = "Counter"
    category = "test"

    @operation(idempotent=True)
    def double(self, n: int) -> int:
        return n * 2

    @operation(idempotent=False)
    def bump(self, n: int) -> int:
        return n + 1


def make_security():
    vault = PasswordVault()
    vault.set_password("ada", PASSWORD, PASSWORD)
    access = AccessControl()
    access.define_role("caller", ["counter:call"])
    access.assign_role("ada", "caller")
    return SecurityPolicy(TokenIssuer(), access, vault)


@pytest.fixture()
def sink():
    return RingBufferSink(capacity=4096)


@pytest.fixture()
def stack(sink):
    broker = ServiceBroker()
    with publish_replicated(CounterService, broker, replicas=3) as fleet:
        gw = Gateway(
            broker,
            [
                GatewayRoute("/api/Counter", "Counter", permission="counter:call"),
                GatewayRoute("/pub/Counter", "Counter"),
                GatewayRoute("/ghost", "NeverPublished"),
            ],
            security=make_security(),
            limiter=RateLimiter(
                RateLimitPolicy(rate=10_000.0, burst=10_000.0),
                anonymous=RateLimitPolicy(rate=10_000.0, burst=10_000.0),
            ),
            access_logger=Logger("gateway.access", sink=sink),
        )
        with gw:
            client = HttpClient(gw.server.host, gw.server.port, pool_size=8)
            yield gw, fleet, client
            client.close()


def issue_token(client):
    response = client.post(
        "/auth/token",
        f"user=ada&password={PASSWORD}",
        content_type="application/x-www-form-urlencoded",
    )
    assert response.status == 200, response.text()
    return json.loads(response.text())["token"]


def auth(token):
    return {"Authorization": f"Bearer {token}"}


class TestMediatedRouting:
    def test_idempotent_get_round_trip(self, stack):
        gw, fleet, client = stack
        token = issue_token(client)
        response = client.get("/api/Counter/double?n=21", headers=auth(token))
        assert response.status == 200
        assert "42" in response.text()

    def test_non_idempotent_post_round_trip(self, stack):
        gw, fleet, client = stack
        token = issue_token(client)
        response = client.post(
            "/api/Counter/bump",
            '<arguments><n type="int">41</n></arguments>',
            content_type="application/xml",
            headers=auth(token),
        )
        assert response.status == 200
        assert "42" in response.text()

    def test_get_of_non_idempotent_operation_is_405(self, stack):
        gw, fleet, client = stack
        token = issue_token(client)
        response = client.get("/api/Counter/bump?n=1", headers=auth(token))
        assert response.status == 405

    def test_unknown_operation_is_404_fault(self, stack):
        gw, fleet, client = stack
        token = issue_token(client)
        response = client.get("/api/Counter/vanish", headers=auth(token))
        assert response.status == 404

    def test_unknown_query_parameter_is_400(self, stack):
        gw, fleet, client = stack
        token = issue_token(client)
        response = client.get("/api/Counter/double?bogus=1", headers=auth(token))
        assert response.status == 400

    def test_unpublished_backend_is_502(self, stack):
        gw, fleet, client = stack
        response = client.get("/ghost/anything")
        assert response.status == 502

    def test_contract_fetch_through_gateway(self, stack):
        gw, fleet, client = stack
        token = issue_token(client)
        response = client.get("/api/Counter", headers=auth(token))
        assert response.status == 200
        assert 'name="Counter"' in response.text()

    def test_unmodified_rest_client_works_on_public_route(self, stack):
        gw, fleet, client = stack
        rest = RestClient(client, "Counter", prefix="/pub")
        assert rest.call("double", {"n": 8}) == 16


class TestVersionMediation:
    def test_satisfied_constraint_passes(self, stack):
        gw, fleet, client = stack
        gw.router.add(GatewayRoute("/v1/Counter", "Counter", version="1"))
        assert client.get("/v1/Counter/double?n=1").status == 200

    def test_route_promising_missing_version_is_refused(self, stack):
        gw, fleet, client = stack
        gw.router.add(GatewayRoute("/v2/Counter", "Counter", version="2"))
        response = client.get("/v2/Counter/double?n=1")
        assert response.status == 404
        assert "version" in response.text()

    def test_client_pin_checked_against_backend_contract(self, stack):
        gw, fleet, client = stack
        ok = client.get(
            "/pub/Counter/double?n=1", headers={"X-Contract-Version": "1.0"}
        )
        assert ok.status == 200
        refused = client.get(
            "/pub/Counter/double?n=1", headers={"X-Contract-Version": "2.0"}
        )
        assert refused.status == 404


class TestRateLimit429:
    def test_retry_after_is_honoured(self):
        broker = ServiceBroker()
        with publish_replicated(CounterService, broker, replicas=1) as fleet:
            gw = Gateway(
                broker,
                [GatewayRoute("/pub/Counter", "Counter")],
                security=make_security(),
                limiter=RateLimiter(
                    anonymous=RateLimitPolicy(rate=20.0, burst=1.0)
                ),
            )
            with gw:
                client = HttpClient(gw.server.host, gw.server.port)
                assert client.get("/pub/Counter/double?n=1").status == 200
                throttled = client.get("/pub/Counter/double?n=1")
                assert throttled.status == 429
                retry_after = float(throttled.headers.get("Retry-After"))
                assert 0 < retry_after <= 0.06
                time.sleep(retry_after + 0.01)
                assert client.get("/pub/Counter/double?n=1").status == 200
                client.close()


class TestReplicaFailover:
    def test_replica_killed_mid_load_zero_caller_faults(self, stack):
        gw, fleet, client = stack
        token = issue_token(client)
        headers = auth(token)
        statuses: list[int] = []
        lock = threading.Lock()
        start = threading.Barrier(5)

        def caller():
            local = HttpClient(gw.server.host, gw.server.port)
            start.wait()
            mine = []
            for i in range(30):
                mine.append(local.get(f"/api/Counter/double?n={i}", headers=headers).status)
            with lock:
                statuses.extend(mine)
            local.close()

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        start.wait()  # all callers hot before the kill
        time.sleep(0.02)
        fleet.kill(0)
        for t in threads:
            t.join()
        assert len(statuses) == 120
        assert statuses == [200] * 120  # the gateway absorbed the death

    def test_whole_fleet_down_is_503(self, stack):
        gw, fleet, client = stack
        token = issue_token(client)
        for i in range(3):
            fleet.kill(i)
        response = client.get("/api/Counter/double?n=1", headers=auth(token))
        assert response.status in (502, 503)


class TestGatewayTelemetry:
    def test_metrics_count_routes_and_outcomes(self, stack):
        gw, fleet, client = stack
        token = issue_token(client)
        client.get("/api/Counter/double?n=1", headers=auth(token))
        client.get("/api/Counter/double?n=2")  # 401
        exposition = client.get("/metrics").text()
        assert (
            'repro_gateway_requests_total{route="/api/Counter",outcome="ok"}'
            in exposition
        )
        assert (
            'repro_gateway_requests_total{route="/api/Counter",outcome="unauthenticated"}'
            in exposition
        )
        assert 'repro_gateway_rejected_total{reason="unauthenticated"}' in exposition
        assert 'repro_gateway_request_seconds_bucket' in exposition

    def test_access_log_records_are_trace_correlated(self, stack, sink):
        gw, fleet, client = stack
        token = issue_token(client)
        with observed(SpanCollector()):
            client.get("/api/Counter/double?n=7", headers=auth(token))
            assert (
                OBS.instruments.gateway_requests.value(
                    route="/api/Counter", outcome="ok"
                )
                == 1
            )
        records = [r for r in sink.records() if r.message == "http.access"]
        assert records, "access log hook never fired"
        hit = next(
            r for r in records if r.fields["target"] == "/api/Counter/double?n=7"
        )
        assert hit.fields["method"] == "GET"
        assert hit.fields["status"] == 200
        assert hit.fields["duration_ms"] >= 0
        assert hit.trace_id is not None  # hook runs inside the server span

    def test_healthz_degrades_when_a_backend_is_missing(self, stack):
        gw, fleet, client = stack
        response = client.get("/healthz")
        assert response.status == 503  # the /ghost route's backend is absent
        assert "backends" in response.text()


class TestCharacterReferences:
    def test_lone_surrogate_reference_is_400_not_500(self):
        broker = ServiceBroker()
        with publish_replicated(CacheService, broker, replicas=1):
            with Gateway(broker, [GatewayRoute("/pub/Cache", "CacheService")]) as gw:
                client = HttpClient(gw.server.host, gw.server.port)
                try:
                    response = client.post(
                        "/pub/Cache/put",
                        '<arguments><key type="string">k</key>'
                        '<value type="string">a&#xD800;b</value></arguments>',
                        content_type="application/xml",
                    )
                    assert response.status == 400, response.text()
                    assert "bad character reference" in response.text()
                    response = client.get("/pub/Cache/get?key=k")
                    assert response.status == 200
                    assert loads(response.text())["found"] is False
                finally:
                    client.close()
