"""The profiling acceptance drill, end to end over real sockets.

Threaded load drives a CPU-burning service through the gateway.  The SLO
engine notices the latency burn and fires; firing auto-captures a
profile whose hottest stacks name the handler's burn frame — tagged with
the route the gateway span carried.  The p99 bucket's exemplar trace id,
scraped off ``/metrics`` and merged through the fleet monitor, resolves
to a trace the tail sampler kept.  A second scenario points the fleet
monitor's ``profile_fleet`` at a bare node and checks the merged
hot-path view reaches the dashboard.
"""

import threading
import time

import pytest

from repro.core import ServiceBroker
from repro.core.service import Service, operation
from repro.events.bus import EventBus
from repro.gateway import Gateway, GatewayRoute, RateLimiter, RateLimitPolicy
from repro.observability import (
    BurnRateRule,
    MetricsRegistry,
    ProfileRing,
    SloEngine,
    SloObjective,
    SpanCollector,
    TailSampler,
    attach_auto_capture,
    observability_routes,
    observed,
)
from repro.replication.publish import publish_replicated
from repro.services import FleetMonitor
from repro.transport import HttpClient, HttpResponse, HttpServer
from repro.web.app import compose_handlers

pytestmark = pytest.mark.obs

SLOW_MS = 150        # induced handler burn (milliseconds)
BOUND = 0.05         # SLO latency bound (a LATENCY_BUCKETS edge)
KEEP_THRESHOLD = 0.1  # tail sampler keeps traces at/over this


def _hot_spin(seconds: float) -> int:
    """The recognizable hot frame the captured profile must name."""
    acc = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        acc = (acc * 31 + 7) % 1000003
    return acc


class CrunchService(Service):
    service_name = "Crunch"
    category = "test"

    @operation(idempotent=True)
    def crunch(self, ms: int) -> int:
        return _hot_spin(ms / 1000.0)


def manual_clock(value=0.0):
    state = [value]

    def clock():
        return state[0]

    clock.advance = lambda d: state.__setitem__(0, state[0] + d)  # type: ignore[attr-defined]
    return clock


def _pound(base_url: str, stop: threading.Event) -> None:
    """One load thread: slow crunches back to back until told to stop."""
    client = HttpClient(*base_url)
    try:
        while not stop.is_set():
            client.get(f"/pub/Crunch/crunch?ms={SLOW_MS}")
    except OSError:
        pass  # server shutting down under us is fine
    finally:
        client.close()


class TestProfilingEndToEnd:
    def test_slo_firing_captures_hot_profile_and_exemplar_resolves(self):
        keeper = SpanCollector()
        sampler = TailSampler(keeper, slow_threshold=KEEP_THRESHOLD)
        clock = manual_clock()
        ring = ProfileRing(4)
        alert_bus = EventBus()  # unstarted: synchronous, ordered delivery
        attach_auto_capture(
            alert_bus, ring, seconds=0.4, hz=200.0, background=False
        )
        objective = SloObjective(
            name="crunch-latency",
            family="repro_gateway_request_seconds",
            objective=0.9,
            latency_bound=BOUND,
            labels={"route": "/pub/Crunch"},
        )
        engine = SloEngine(
            [objective],
            rules=[BurnRateRule(10.0, 30.0, burn_threshold=2.0)],
            bus=alert_bus,
            clock=clock,
        )

        broker = ServiceBroker()
        with observed(sampler), publish_replicated(
            CrunchService, broker, replicas=1
        ):
            gateway = Gateway(
                broker,
                [GatewayRoute("/pub/Crunch", "Crunch")],
                limiter=RateLimiter(
                    anonymous=RateLimitPolicy(rate=1000.0, burst=1000.0)
                ),
            )
            with gateway.start(workers=4) as server:
                monitor = FleetMonitor(engine)
                monitor.add_target("gw", server.base_url)
                client = HttpClient(server.host, server.port)
                stop = threading.Event()
                load = [
                    threading.Thread(
                        target=_pound,
                        args=((server.host, server.port), stop),
                        daemon=True,
                    )
                    for _ in range(3)
                ]
                try:
                    # -- baseline: healthy fast traffic -----------------
                    for _ in range(5):
                        assert client.get("/pub/Crunch/crunch?ms=1").status == 200
                    assert monitor.tick() == []

                    # -- incident: sustained slow burn ------------------
                    for thread in load:
                        thread.start()
                    deadline = time.monotonic() + 5.0
                    while time.monotonic() < deadline:
                        response = client.get(
                            f"/pub/Crunch/crunch?ms={SLOW_MS}"
                        )
                        assert response.status == 200
                        clock.advance(2.0)
                        transitions = monitor.tick()
                        if transitions:
                            break
                    else:
                        pytest.fail("SLO never fired under slow load")
                    assert transitions[0]["transition"] == "firing"

                    # firing auto-captured a profile while the load was
                    # still burning — synchronously, so it is here now
                    report = ring.last()
                    assert report is not None
                    assert report.reason == "slo:crunch-latency"
                    fleet = monitor.fleet_families()
                finally:
                    stop.set()
                    for thread in load:
                        thread.join(timeout=10.0)
                    client.close()
                    monitor.close()
            gateway.close()

        # -- the profile names the handler's hot frame ------------------
        hot = [s for s, _ in report.top(5) if "_hot_spin" in s]
        assert hot, f"no _hot_spin stack in top of {report.top(5)}"
        # and the burning node's server span tagged it with the route it
        # served (the gateway forwards to the replica's REST binding, so
        # the burn is attributed to the replica-side route)
        assert any(
            s.startswith("route:") and "/Crunch/crunch" in s for s in hot
        )

        # -- the p99 exemplar survived scrape+merge and names a kept
        #    trace ------------------------------------------------------
        family = next(
            f for f in fleet if f.name == "repro_gateway_request_seconds"
        )
        exemplars = family.exemplars[("gw", "/pub/Crunch")]
        slow_buckets = [bound for bound in exemplars if bound >= KEEP_THRESHOLD]
        assert slow_buckets, f"no slow-bucket exemplar in {exemplars}"
        trace_hex, observed_value = exemplars[min(slow_buckets)]
        assert observed_value >= KEEP_THRESHOLD
        assert int(trace_hex, 16) in keeper.trace_ids()


class TestFleetProfiling:
    def test_profile_fleet_merges_node_stacks_into_dashboard(self):
        registry = MetricsRegistry()

        def work(request):
            _hot_spin(float(request.query.get("d", "0.05")))
            return HttpResponse.text_response("ok\n")

        handler = compose_handlers(
            {"/work": work, **observability_routes(registry=registry)}
        )
        with observed(SpanCollector()), HttpServer(handler, workers=4) as node:
            monitor = FleetMonitor()
            monitor.add_target("alpha", node.base_url)
            stop = threading.Event()

            def pound():
                client = HttpClient(node.host, node.port)
                try:
                    while not stop.is_set():
                        client.get("/work?d=0.05")
                except OSError:
                    pass
                finally:
                    client.close()

            threads = [
                threading.Thread(target=pound, daemon=True) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            try:
                merged = monitor.profile_fleet(seconds=0.4, hz=200.0)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)
                monitor.close()

        assert merged, "fleet profile came back empty"
        hot_paths = monitor.hot_paths(5)
        assert any("_hot_spin" in stack for stack, _ in hot_paths)
        # the node's server span tagged the burn with its route
        assert any(stack.startswith("route:/work;") for stack, _ in hot_paths)
        # and the dashboard renders the hot-path section from the same data
        dashboard = monitor.dashboard()
        assert "hot paths" in dashboard.lower()
        assert "_hot_spin" in dashboard

    def test_profile_fleet_refuses_seconds_past_scrape_timeout(self):
        monitor = FleetMonitor(scrape_timeout=1.0)
        with pytest.raises(ValueError):
            monitor.profile_fleet(seconds=1.0)
