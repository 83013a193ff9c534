"""The acceptance loop: two live nodes, one registered monitor, one alert.

Two :class:`HttpServer` nodes serve ``/metrics``; a
:class:`MonitorService` registered in the broker scrapes them over real
sockets.  Induced latency on one node drives exactly one SLO alert
through firing -> resolved under an injected clock, visible both through
the monitor's ``/alerts`` HTTP endpoint and as events on the bus — and
the slow request's access-log records carry the same ``trace_id`` as a
trace the tail sampler kept.
"""

import json
import time

import pytest

from repro.core import ServiceBroker, ServiceBus
from repro.events.bus import EventBus
from repro.observability import (
    BurnRateRule,
    Logger,
    MetricsRegistry,
    RingBufferSink,
    SloEngine,
    SloObjective,
    SpanCollector,
    TailSampler,
    access_log,
    observability_routes,
    observed,
)
from repro.services import MonitorService, FleetMonitor, monitor_routes, publish_service
from repro.transport import HttpClient, HttpServer, HttpResponse
from repro.web.app import compose_handlers

pytestmark = pytest.mark.obs

SLOW = 0.25          # induced handler latency (seconds)
SLOW_TRACE = 0.2     # tail sampler keeps traces at/over this
BOUND = 0.1          # SLO latency bound


def manual_clock(value=0.0):
    state = [value]

    def clock():
        return state[0]

    clock.advance = lambda d: state.__setitem__(0, state[0] + d)  # type: ignore[attr-defined]
    return clock


def make_node(sink):
    """One monitored node: /work records latency, /metrics exposes it."""
    registry = MetricsRegistry()
    latency = registry.histogram(
        "rpc_seconds", labelnames=("operation",), buckets=(0.05, BOUND, 0.5)
    )

    def work(request):
        delay = float(request.query.get("d", "0"))
        if delay:
            time.sleep(delay)
        latency.observe(delay, operation="work")
        return HttpResponse.text_response("ok\n")

    handler = compose_handlers(
        {"/work": work, **observability_routes(registry=registry)}
    )
    observer = access_log(Logger("acc", sink=sink), slow_threshold=SLOW_TRACE)
    return HttpServer(handler, on_request=observer)


class TestMonitoringService:
    def test_two_nodes_one_alert_episode_with_correlated_logs(self):
        sink = RingBufferSink()
        keeper = SpanCollector()
        sampler = TailSampler(keeper, slow_threshold=SLOW_TRACE)
        clock = manual_clock()
        events = []
        alert_bus = EventBus()  # unstarted: synchronous, ordered delivery
        alert_bus.subscribe("slo.alert.#", lambda e: events.append(e))

        objective = SloObjective(
            name="work-latency",
            family="rpc_seconds",
            objective=0.9,
            latency_bound=BOUND,
            labels={"operation": "work"},
        )
        engine = SloEngine(
            [objective],
            rules=[BurnRateRule(10.0, 30.0, burn_threshold=2.0)],
            bus=alert_bus,
            clock=clock,
        )

        with observed(sampler):
            monitor = FleetMonitor(engine)
            service = MonitorService(monitor)
            broker = ServiceBroker()
            service_bus = ServiceBus()
            endpoints = publish_service(service, broker, service_bus)
            address = endpoints["inproc"].address
            assert "FleetMonitor" in broker  # registered, discoverable

            with make_node(sink) as node_a, make_node(sink) as node_b:
                monitor_server = HttpServer(
                    compose_handlers(monitor_routes(monitor))
                )
                with monitor_server:
                    service_bus.call(
                        address, "add_target",
                        {"name": "alpha", "base_url": f"http://{node_a.host}:{node_a.port}"},
                    )
                    service_bus.call(
                        address, "add_target",
                        {"name": "beta", "base_url": f"http://{node_b.host}:{node_b.port}"},
                    )

                    client_a = HttpClient(node_a.host, node_a.port)
                    client_b = HttpClient(node_b.host, node_b.port)
                    monitor_client = HttpClient(
                        monitor_server.host, monitor_server.port
                    )
                    try:
                        # -- baseline: healthy traffic on both nodes ------
                        for _ in range(5):
                            assert client_a.get("/work?d=0").status == 200
                            assert client_b.get("/work?d=0").status == 200
                        summary = service_bus.call(address, "scrape")
                        assert summary["up"] == 2
                        assert summary["transitions"] == []

                        # -- incident: node beta turns slow ---------------
                        for _ in range(3):
                            assert client_b.get(f"/work?d={SLOW}").status == 200
                        clock.advance(5.0)
                        summary = service_bus.call(address, "scrape")
                        firing = summary["transitions"]
                        assert [t["transition"] for t in firing] == ["firing"]
                        assert firing[0]["objective"] == "work-latency"

                        # firing is visible over the monitor's HTTP plane
                        page = json.loads(monitor_client.get("/alerts").text())
                        assert [a["state"] for a in page["alerts"]] == ["firing"]
                        slo_rows = {r["objective"]: r for r in page["slo"]}
                        assert slo_rows["work-latency"]["compliant"] is False
                        dashboard = monitor_client.get("/dashboard").text()
                        assert "alerts firing: 1" in dashboard

                        # -- recovery: fast traffic drowns the burn -------
                        for _ in range(30):
                            assert client_b.get("/work?d=0").status == 200
                        clock.advance(5.0)
                        summary = service_bus.call(address, "scrape")
                        resolved = summary["transitions"]
                        assert [t["transition"] for t in resolved] == ["resolved"]

                        page = json.loads(monitor_client.get("/alerts").text())
                        assert [a["state"] for a in page["alerts"]] == ["inactive"]
                        assert page["alerts"][0]["episodes"] == 1
                    finally:
                        client_a.close()
                        client_b.close()
                        monitor_client.close()
                        monitor.close()

            # -- exactly one episode, delivered in order on the bus -------
            assert [e.topic for e in events] == [
                "slo.alert.firing", "slo.alert.resolved",
            ]
            assert events[0].payload["objective"] == "work-latency"
            assert events[0].sequence < events[1].sequence

            # -- log <-> trace correlation for the slow requests ----------
            slow_records = [
                r for r in sink.records()
                if r.fields.get("target", "").startswith("/work?d=0.25")
            ]
            assert len(slow_records) == 3
            assert all(r.levelname == "warning" for r in slow_records)
            kept_ids = {f"{t:032x}" for t in keeper.trace_ids()}
            for record in slow_records:
                assert record.trace_id is not None
                assert record.trace_id in kept_ids  # tail sampler kept it
            # fast requests' traces were dropped, not exported
            fast_records = [
                r for r in sink.records()
                if r.fields.get("target") == "/work?d=0"
                and r.fields.get("status") == 200
            ]
            assert fast_records, "healthy traffic must still be logged"
            assert all(
                r.trace_id not in kept_ids for r in fast_records
            ), "boring traces must not reach the exporter"
            assert sampler.kept("kept_slow") >= 3
