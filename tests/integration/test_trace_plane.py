"""The tracing-as-a-service acceptance drill, end to end over sockets.

Threaded load drives a three-replica service through the gateway while
every node's spans ride a :class:`BatchSpanExporter` chained behind the
tail sampler.  Boring traffic is decided away at the tail; one slow,
failing request is kept — and its spans, exported from three *different*
nodes (the load driver, the gateway, and whichever replica served it),
reassemble into a single trace inside the ``TraceStore``.  The drill
then reads everything back the way an operator would: ``/traces/<id>``
through the gateway's RBAC front, the ``/dependencies`` rollup showing
the gateway→service edge carrying the error, and a ``/metrics``
exemplar's trace id resolved through the fleet monitor against the
store.
"""

import json
import threading
import time

import pytest

from repro.core import ServiceBroker
from repro.core.service import Service, ServiceFault, operation
from repro.gateway import (
    Gateway,
    GatewayRoute,
    RateLimiter,
    RateLimitPolicy,
    SecurityPolicy,
)
from repro.observability import BatchSpanExporter, TailSampler, observed
from repro.observability.runtime import OBS
from repro.replication.publish import publish_replicated
from repro.security.access import AccessControl
from repro.security.auth import PasswordVault, TokenIssuer
from repro.services import FleetMonitor
from repro.services.tracestore import TraceStore, tracestore_routes
from repro.transport import HttpClient, HttpServer
from repro.web.app import compose_handlers

pytestmark = pytest.mark.obs

PASSWORD = "Correct-Horse-7"
SLOW_KEEP = 0.04   # tail sampler's slow bound (seconds)
FAIL_BURN = 0.08   # the failing call burns well past the slow bound


class QuoteService(Service):
    service_name = "Quote"
    category = "test"

    @operation(idempotent=True)
    def quote(self, symbol: str) -> str:
        if symbol == "DOOM":
            time.sleep(FAIL_BURN)  # slow burn, then the backend gives up
            raise ServiceFault("pricing backend down", code="Server.Backend")
        return f"{symbol}:100"


def make_security() -> SecurityPolicy:
    vault = PasswordVault()
    vault.set_password("ada", PASSWORD, PASSWORD)
    access = AccessControl()
    access.define_role("tracer", ["traces:read"])
    access.assign_role("ada", "tracer")
    return SecurityPolicy(TokenIssuer(), access, vault)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _pound(address, requests: int) -> None:
    """One load thread: boring, healthy quotes the sampler should drop."""
    client = HttpClient(*address)
    try:
        for _ in range(requests):
            assert client.get("/pub/Quote/quote?symbol=OK").status == 200
    finally:
        client.close()


class TestTracePlaneEndToEnd:
    def test_errored_trace_assembles_across_three_nodes(self):
        store = TraceStore(settle_seconds=0.05, complete_after=30.0)
        handler = compose_handlers(dict(tracestore_routes(store)), default=None)
        broker = ServiceBroker()
        with HttpServer(handler, workers=2) as store_server:
            exporter = BatchSpanExporter(
                store_server.host,
                store_server.port,
                node="loadgen",
                flush_interval=0.05,
            )
            sampler = TailSampler(exporter, slow_threshold=SLOW_KEEP)
            with observed(sampler), publish_replicated(
                QuoteService, broker, replicas=3
            ):
                gateway = Gateway(
                    broker,
                    [GatewayRoute("/pub/Quote", "Quote")],
                    security=make_security(),
                    limiter=RateLimiter(
                        RateLimitPolicy(rate=1000.0, burst=1000.0),
                        anonymous=RateLimitPolicy(rate=1000.0, burst=1000.0),
                    ),
                )
                try:
                    with gateway.start(workers=4) as server:
                        gateway.attach_trace_store(
                            store_server.host, store_server.port
                        )
                        self._drive_and_assert(
                            gateway, server, store, store_server,
                            sampler, exporter,
                        )
                finally:
                    exporter.close()
                    gateway.close()

    # -- the drill, step by step ----------------------------------------
    def _drive_and_assert(
        self, gateway, server, store, store_server, sampler, exporter
    ):
        address = (server.host, server.port)

        # -- boring fleet traffic: dropped at the tail ------------------
        threads = [
            threading.Thread(target=_pound, args=(address, 10), daemon=True)
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        # -- the incident: one slow, failing request, last in line ------
        client = HttpClient(*address)
        try:
            with OBS.tracer.span(
                "load.request", kind="client", attributes={"suite": "trace"}
            ) as span:
                response = client.get("/pub/Quote/quote?symbol=DOOM")
                if response.status != 200:
                    span.record_exception(
                        RuntimeError(f"upstream said {response.status}")
                    )
            assert response.status >= 500
        finally:
            client.close()
        assert sampler.kept("kept_error") >= 1
        exporter.flush()

        # -- the spans, shipped from three nodes, assemble --------------
        def assembled():
            rows = store.search(error=True)
            return rows and len(rows[0]["nodes"]) >= 3

        assert wait_until(assembled), f"never assembled: {store.stats()}"
        trace_hex = store.search(error=True)[0]["trace_id"]
        assert wait_until(
            lambda: store.get(trace_hex)["state"] == "complete"
        )

        # ingest POSTs silenced themselves: no store-side trace buffered
        assert sampler.pending_traces() == 0

        # -- operator view: the stitched tree through the gateway -------
        token = self._token(gateway)
        doc = self._gateway_json(gateway, f"/traces/{trace_hex}", token)
        assert doc["root"] == "load.request"
        assert doc["error"] is True
        nodes = set(doc["nodes"])
        assert "loadgen" in nodes and "gateway" in nodes
        assert any(node.startswith("quote-") for node in nodes)
        # the replica's one server span names the call it dispatched
        assert "http.server [server] binding=rest operation=quote" in doc["tree"]
        path = doc["critical_path"]
        assert path and path[0]["name"] == "load.request"
        assert any(hop["node"].startswith("quote-") for hop in path)
        assert path[-1]["duration_ms"] >= FAIL_BURN * 1e3 * 0.5

        # -- the dependency rollup carries the error --------------------
        edges = self._gateway_json(gateway, "/dependencies", token)["edges"]
        by_pair = {(e["caller"], e["callee"]): e for e in edges}
        edge = by_pair.get(("gateway", "Quote"))
        assert edge is not None, f"no gateway→Quote edge in {edges}"
        assert edge["calls"] >= 1 and edge["errors"] >= 1
        assert by_pair[("loadgen", "gateway")]["calls"] >= 1

        # -- a /metrics exemplar resolves through the fleet monitor -----
        monitor = FleetMonitor()
        try:
            monitor.add_target("gw", server.base_url)
            monitor.attach_trace_store(store_server.base_url)
            monitor.tick()
            rows = monitor.exemplar_traces(limit=64)
            match = [row for row in rows if row["trace_id"] == trace_hex]
            assert match, f"errored exemplar missing from {rows}"
            assert match[0]["found"] is True
            assert match[0]["state"] == "complete"
            assert len(match[0]["nodes"]) >= 3
            dashboard = monitor.dashboard()
            assert "slowest traces (fleet store):" in dashboard
            assert "service dependencies (from traces):" in dashboard
            assert "gateway -> Quote" in dashboard
        finally:
            monitor.close()

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _token(gateway) -> str:
        from repro.transport.http11 import HttpRequest

        body = f"user=ada&password={PASSWORD}".encode()
        response = gateway(HttpRequest("POST", "/auth/token", {}, body))
        assert response.status == 200, response.text()
        return json.loads(response.text())["token"]

    @staticmethod
    def _gateway_json(gateway, target: str, token: str) -> dict:
        from repro.transport.http11 import HttpRequest

        response = gateway(
            HttpRequest("GET", target, {"Authorization": f"Bearer {token}"})
        )
        assert response.status == 200, response.text()
        return json.loads(response.text())
