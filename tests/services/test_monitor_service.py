"""Monitoring as a Service: parsing, federation, and the service facade."""

import json

import pytest

from repro.core import ServiceBus, ServiceFault, ServiceHost
from repro.observability import (
    MetricsRegistry,
    SloEngine,
    SloObjective,
    BurnRateRule,
    observed,
    parse_prometheus,
    render_prometheus,
)
from repro.services import (
    FleetMonitor,
    MonitorService,
    merge_families,
    monitor_routes,
)
from repro.services.catalog import attach_monitoring, build_repository
from repro.transport import (
    HttpRequest,
    RestEndpoint,
    SoapEndpoint,
    build_call,
    parse_envelope,
    serve_once,
)
from repro.observability.metrics import MetricFamily
from repro.xmlkit import from_element, parse


def manual_clock(value=0.0):
    state = [value]

    def clock():
        return state[0]

    clock.advance = lambda d: state.__setitem__(0, state[0] + d)  # type: ignore[attr-defined]
    return clock


# ---------------------------------------------------------------------------
# fakes: a node is a registry behind a fake HTTP client
# ---------------------------------------------------------------------------


class FakeResponse:
    def __init__(self, status, body):
        self.status = status
        self._body = body

    def text(self):
        return self._body


class FakeNode:
    """Stands in for HttpClient: serves this registry's /metrics text."""

    def __init__(self, registry):
        self.registry = registry
        self.failing = False
        self.closed = False

    def get(self, path):
        assert path == "/metrics"
        if self.failing:
            raise OSError("connection refused")
        return FakeResponse(200, render_prometheus(self.registry))

    def close(self):
        self.closed = True


def fleet_of(nodes):
    """FleetMonitor whose client factory resolves fake nodes by port."""

    def factory(host, port):
        return nodes[port]

    return nodes, factory


# ---------------------------------------------------------------------------
# parse_prometheus: the federation direction
# ---------------------------------------------------------------------------


class TestParsePrometheus:
    def test_round_trip_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", labelnames=("queue",)).inc(
            3, queue='fast "lane"\\x'
        )
        registry.gauge("depth").set(2.5)
        hist = registry.histogram(
            "wait_seconds", labelnames=("queue",), buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            hist.observe(value, queue="q")
        families = {f.name: f for f in parse_prometheus(render_prometheus(registry))}

        jobs = families["jobs_total"]
        assert jobs.kind == "counter"
        assert jobs.samples[('fast "lane"\\x',)] == 3.0

        assert families["depth"].samples[()] == 2.5

        wait = families["wait_seconds"]
        assert wait.kind == "histogram"
        assert wait.buckets == (0.1, 1.0)
        counts, total, count = wait.samples[("q",)]
        assert counts == [1, 1, 1]  # per-bucket, +Inf last
        assert count == 3 and total == pytest.approx(5.55)

    def test_unknown_and_malformed_lines_are_skipped(self):
        text = (
            "# HELP ok_total fine\n# TYPE ok_total counter\n"
            "ok_total 2\n"
            "not a sample line at all {{{\n"
            "dangling_metric_without_value\n"
        )
        families = parse_prometheus(text)
        assert [f.name for f in families if f.samples] == ["ok_total"]


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


class TestMergeFamilies:
    def _family(self, value, kind="counter"):
        return MetricFamily("x_total", kind, "", ("op",), {("add",): value})

    def test_node_label_prefixes_every_sample(self):
        merged = merge_families({"a": [self._family(1.0)], "b": [self._family(2.0)]})
        assert len(merged) == 1
        family = merged[0]
        assert family.labelnames == ("node", "op")
        assert family.samples == {("a", "add"): 1.0, ("b", "add"): 2.0}

    def test_incompatible_kind_is_skipped_not_poisoning(self):
        merged = merge_families(
            {"a": [self._family(1.0)], "b": [self._family(2.0, kind="gauge")]}
        )
        assert merged[0].samples == {("a", "add"): 1.0}


# ---------------------------------------------------------------------------
# FleetMonitor engine
# ---------------------------------------------------------------------------


def two_node_fleet():
    registries = {9001: MetricsRegistry(), 9002: MetricsRegistry()}
    for registry in registries.values():
        registry.counter("rpc_total", labelnames=("outcome",)).inc(5, outcome="ok")
    nodes, factory = fleet_of({p: FakeNode(r) for p, r in registries.items()})
    monitor = FleetMonitor(client_factory=factory)
    monitor.add_target("alpha", "http://127.0.0.1:9001")
    monitor.add_target("beta", "127.0.0.1:9002")  # scheme optional
    return monitor, nodes, registries


class TestFleetMonitor:
    def test_bad_target_address_is_a_client_fault(self):
        monitor = FleetMonitor()
        with pytest.raises(ServiceFault) as excinfo:
            monitor.add_target("x", "no-port-here")
        assert excinfo.value.code == "Client.BadInput"
        with pytest.raises(ServiceFault):
            monitor.add_target("x", "http://h:not-a-port")

    def test_scrape_merges_with_node_labels(self):
        monitor, _nodes, _ = two_node_fleet()
        families = monitor.scrape_all()
        merged = {f.name: f for f in families}["rpc_total"]
        assert merged.labelnames == ("node", "outcome")
        assert merged.samples[("alpha", "ok")] == 5.0
        assert merged.samples[("beta", "ok")] == 5.0
        statuses = {s["name"]: s for s in monitor.targets()}
        assert statuses["alpha"]["up"] and statuses["beta"]["up"]
        assert statuses["alpha"]["scrapes"] == 1

    def test_down_node_is_data_not_death(self):
        monitor, nodes, _ = two_node_fleet()
        nodes[9002].failing = True
        with observed() as obs:
            families = monitor.scrape_all()
            counter = obs.registry.get("repro_monitor_scrapes_total")
            assert counter.value(node="alpha", outcome="ok") == 1
            assert counter.value(node="beta", outcome="error") == 1
        merged = {f.name: f for f in families}["rpc_total"]
        assert ("beta", "ok") not in merged.samples
        status = {s["name"]: s for s in monitor.targets()}["beta"]
        assert status["up"] is False
        assert status["failures"] == 1
        assert "refused" in status["last_error"]
        # recovery on the next cycle
        nodes[9002].failing = False
        monitor.scrape_all()
        assert {s["name"]: s for s in monitor.targets()}["beta"]["up"] is True

    def test_remove_target_closes_client(self):
        monitor, nodes, _ = two_node_fleet()
        monitor.scrape_all()  # materialise clients
        assert monitor.remove_target("beta") is True
        assert monitor.remove_target("beta") is False
        assert nodes[9002].closed is True
        assert len(monitor.targets()) == 1

    def test_tick_evaluates_slos_over_the_fleet(self):
        clock = manual_clock()
        objective = SloObjective(
            name="fleet-availability",
            family="rpc_total",
            objective=0.9,
            kind="availability",
        )
        engine = SloEngine(
            [objective],
            rules=[BurnRateRule(10.0, 30.0, burn_threshold=2.0)],
            clock=clock,
        )
        monitor, _nodes, registries = two_node_fleet()
        monitor.engine = engine
        assert monitor.tick(now=clock()) == []  # baseline
        # one node starts failing every call
        registries[9002].counter("rpc_total", labelnames=("outcome",)).inc(
            50, outcome="fault"
        )
        clock.advance(5.0)
        transitions = monitor.tick(now=clock())
        assert [t["transition"] for t in transitions] == ["firing"]
        assert monitor.alerts()[0]["state"] == "firing"
        report = monitor.slo_report()
        assert report[0]["compliant"] is False
        assert report[0]["total"] == 60.0  # both nodes summed
        text = monitor.dashboard()
        assert "alerts firing: 1" in text
        assert "MISS" in text


# ---------------------------------------------------------------------------
# the service facade over every binding
# ---------------------------------------------------------------------------


def soap_call(endpoint, service, op, args):
    xml = build_call(op, args).toxml()
    request = HttpRequest(
        "POST", f"/soap/{service}", {"Content-Type": "text/xml"}, xml.encode()
    )
    return serve_once(endpoint, request)


class TestMonitorService:
    def test_contract_shape(self):
        contract = MonitorService().contract()
        assert contract.name == "FleetMonitor"
        assert contract.category == "monitoring"
        names = set(contract.operation_names())
        assert {"targets", "add_target", "remove_target", "scrape",
                "alerts", "slo_report", "dashboard"} <= names
        assert contract.operation("alerts").idempotent
        assert not contract.operation("add_target").idempotent

    def test_full_cycle_over_the_bus(self):
        monitor, _nodes, _ = two_node_fleet()
        service = MonitorService(monitor)
        bus = ServiceBus()
        address = bus.host(service)
        summary = bus.call(address, "scrape")
        assert summary["targets"] == 2
        assert summary["up"] == 2
        assert summary["families"] >= 1
        assert bus.call(address, "remove_target", {"name": "beta"}) is True
        assert len(bus.call(address, "targets")) == 1

    def test_soap_binding_serves_wsdl_and_operations(self):
        monitor, _nodes, _ = two_node_fleet()
        soap = SoapEndpoint()
        soap.mount(ServiceHost(MonitorService(monitor)))
        wsdl = serve_once(soap, HttpRequest("GET", "/soap/FleetMonitor?wsdl"))
        assert wsdl.status == 200
        assert "FleetMonitor" in wsdl.text()
        response = soap_call(soap, "FleetMonitor", "scrape", {})
        assert response.status == 200
        _, body = parse_envelope(response.text())
        assert body.local_name() == "Result"

    def test_rest_binding_get_for_idempotent_reads(self):
        monitor, _nodes, _ = two_node_fleet()
        monitor.tick()
        rest = RestEndpoint()
        rest.mount(ServiceHost(MonitorService(monitor)))
        response = serve_once(
            rest, HttpRequest("GET", "/rest/FleetMonitor/dashboard")
        )
        assert response.status == 200
        assert "fleet monitor" in from_element(parse(response.text()))

    def test_attach_monitoring_joins_the_catalogue(self):
        broker, bus, instances = build_repository()
        service = attach_monitoring(broker, bus)
        assert isinstance(service, MonitorService)
        assert "FleetMonitor" in broker
        registration = broker.lookup("FleetMonitor")
        assert registration.provider == "monitor.venus.eas.asu.edu"
        assert "FleetMonitor" not in instances  # catalogue invariant intact


class TestMonitorRoutes:
    def test_alerts_json_and_dashboard_text(self):
        monitor, _nodes, _ = two_node_fleet()
        monitor.tick()
        routes = monitor_routes(monitor)
        assert set(routes) == {"/alerts", "/dashboard"}
        response = routes["/alerts"](HttpRequest("GET", "/alerts"))
        document = json.loads(response.text())
        assert {t["name"] for t in document["targets"]} == {"alpha", "beta"}
        assert document["alerts"] == []  # no engine attached
        dashboard = routes["/dashboard"](HttpRequest("GET", "/dashboard"))
        assert "== fleet monitor ==" in dashboard.text()
        assert "[up  ] alpha" in dashboard.text()

    def test_post_is_rejected(self):
        routes = monitor_routes(FleetMonitor())
        assert routes["/alerts"](HttpRequest("POST", "/alerts")).status == 405
        assert routes["/dashboard"](HttpRequest("POST", "/dashboard")).status == 405
