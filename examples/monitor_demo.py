#!/usr/bin/env python
"""Monitoring as a Service: two nodes, one monitor, one alert episode.

The §V repository's newest member watches the others.  This demo:

1. starts two HTTP "nodes", each serving a tiny ``/work`` operation and
   its own Prometheus ``/metrics`` page, with structured access logs
   that carry the active trace id
2. registers a ``FleetMonitor`` as a broker-published service
   (``MonitorService``) and points it at both nodes
3. drives healthy traffic, then slows one node down until a
   multi-window burn-rate SLO alert **fires**, then recovers it until
   the alert **resolves** — both transitions arrive as events on the
   event bus and show on the monitor's ``/alerts`` + ``/dashboard``
4. shows that the slow requests' log lines and the tail-sampled kept
   trace agree on the same ``trace_id`` — logs, metrics and traces
   joined at the hip
"""

import json
import time

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
from repro.services import FleetMonitor, MonitorService, monitor_routes, publish_service
from repro.transport import HttpClient, HttpResponse, HttpServer
from repro.web import compose_handlers

SLOW = 0.25


def make_node(sink):
    registry = MetricsRegistry()
    latency = registry.histogram(
        "rpc_seconds", labelnames=("operation",), buckets=(0.05, 0.1, 0.5)
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
    observer = access_log(Logger("acc", sink=sink), slow_threshold=0.2)
    return HttpServer(handler, on_request=observer)


def main() -> None:
    sink = RingBufferSink()
    keeper = SpanCollector()
    clock = [0.0]
    alert_bus = EventBus()
    alert_bus.subscribe(
        "slo.alert.#",
        lambda e: print(f"  event: {e.topic}  objective={e.payload['objective']}"),
    )
    engine = SloEngine(
        [
            SloObjective(
                name="work-latency",
                family="rpc_seconds",
                objective=0.9,
                latency_bound=0.1,
                labels={"operation": "work"},
                description="90% of work calls within 100ms, fleet-wide",
            )
        ],
        rules=[BurnRateRule(10.0, 30.0, burn_threshold=2.0)],
        bus=alert_bus,
        clock=lambda: clock[0],
    )

    with observed(TailSampler(keeper, slow_threshold=0.2)):
        monitor = FleetMonitor(engine)
        broker, service_bus = ServiceBroker(), ServiceBus()
        endpoints = publish_service(MonitorService(monitor), broker, service_bus)
        address = endpoints["inproc"].address
        print(f"monitor registered in broker: {'FleetMonitor' in broker}")

        with make_node(sink) as node_a, make_node(sink) as node_b, HttpServer(
            compose_handlers(monitor_routes(monitor))
        ) as monitor_server:
            for name, node in (("alpha", node_a), ("beta", node_b)):
                service_bus.call(
                    address, "add_target",
                    {"name": name, "base_url": f"http://{node.host}:{node.port}"},
                )
            client_a = HttpClient(node_a.host, node_a.port)
            client_b = HttpClient(node_b.host, node_b.port)
            watcher = HttpClient(monitor_server.host, monitor_server.port)
            try:
                print("\n-- healthy traffic on both nodes --")
                for _ in range(5):
                    client_a.get("/work?d=0")
                    client_b.get("/work?d=0")
                service_bus.call(address, "scrape")

                print("-- node beta turns slow --")
                for _ in range(3):
                    client_b.get(f"/work?d={SLOW}")
                clock[0] += 5.0
                service_bus.call(address, "scrape")
                page = json.loads(watcher.get("/alerts").text())
                states = [a["state"] for a in page["alerts"]]
                print(f"  /alerts states: {states}")
                print(watcher.get("/dashboard").text())

                print("-- beta recovers --")
                for _ in range(30):
                    client_b.get("/work?d=0")
                clock[0] += 5.0
                service_bus.call(address, "scrape")
                page = json.loads(watcher.get("/alerts").text())
                episodes = page["alerts"][0]["episodes"]
                print(f"  alert episodes completed: {episodes}")
            finally:
                client_a.close()
                client_b.close()
                watcher.close()
                monitor.close()

        kept = {f"{t:032x}" for t in keeper.trace_ids()}
        slow_logs = [
            r for r in sink.records()
            if r.fields.get("target", "").startswith(f"/work?d={SLOW}")
        ]
        correlated = sum(1 for r in slow_logs if r.trace_id in kept)
        print("\n-- logs <-> traces --")
        print(f"slow requests logged: {len(slow_logs)} "
              f"(level={slow_logs[0].levelname})")
        print(f"log lines joining a tail-sampled kept trace: {correlated}")
        print(f"sample access log line:\n  {slow_logs[0].format()}")


if __name__ == "__main__":
    main()
