"""Unit tests for the exposition plane: /metrics text and /healthz JSON."""

import json

import pytest

from repro.observability import (
    HealthHandler,
    MetricsRegistry,
    metrics_handler,
    observability_routes,
    observed,
    render_prometheus,
)
from repro.transport.http11 import HttpRequest
from repro.transport.httpserver import serve_once

pytestmark = pytest.mark.obs


class TestRenderPrometheus:
    def test_counter_rows_with_labels_and_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "demo_total", 'help with "quotes"\nand newline', ("label",)
        )
        counter.inc(label='va"l\nue')
        text = render_prometheus(registry)
        assert '# HELP demo_total help with "quotes"\\nand newline' in text
        assert "# TYPE demo_total counter" in text
        assert 'demo_total{label="va\\"l\\nue"} 1' in text
        assert text.endswith("\n")

    def test_histogram_rows_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = render_prometheus(registry)
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 5.55" in text

    def test_families_render_even_with_zero_samples(self):
        registry = MetricsRegistry()
        registry.counter("quiet_total", "never incremented")
        text = render_prometheus(registry)
        assert "# HELP quiet_total never incremented" in text
        assert "# TYPE quiet_total counter" in text

    def test_default_registry_documents_every_subsystem(self):
        with observed():
            text = render_prometheus()
        families = {
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE")
        }
        expected = {
            "repro_bus_dispatch_total",
            "repro_bus_dispatch_seconds",
            "repro_transport_requests_total",
            "repro_transport_request_seconds",
            "repro_client_calls_total",
            "repro_broker_operations_total",
            "repro_broker_qos_reports_total",
            "repro_crawler_fetches_total",
            "repro_crawler_quarantine_events_total",
            "repro_webapp_requests_total",
            "repro_webapp_request_seconds",
            "repro_resilience_events_total",
        }
        assert expected <= families
        assert len(expected) >= 8  # the acceptance floor, explicitly


class TestMetricsHandler:
    def test_serves_prometheus_text_over_the_wire(self):
        registry = MetricsRegistry()
        registry.counter("served_total").inc()
        handler = metrics_handler(registry)
        response = serve_once(handler, HttpRequest("GET", "/metrics"))
        assert response.status == 200
        assert response.headers.get("Content-Type").startswith("text/plain")
        assert "served_total 1" in response.text()

    def test_rejects_non_get(self):
        handler = metrics_handler(MetricsRegistry())
        response = serve_once(handler, HttpRequest("POST", "/metrics"))
        assert response.status == 405

    def test_default_handler_follows_observed_swaps(self):
        handler = metrics_handler()
        with observed() as obs:
            obs.registry.counter("fresh_total").inc()
            response = serve_once(handler, HttpRequest("GET", "/metrics"))
        assert "fresh_total 1" in response.text()


class _FakeBreakers:
    def __init__(self, states):
        self._states = states

    def states(self):
        return dict(self._states)


class TestHealthHandler:
    def _get(self, handler):
        response = serve_once(handler, HttpRequest("GET", "/healthz"))
        return response.status, json.loads(response.text())

    def test_healthy_by_default(self):
        status, document = self._get(HealthHandler())
        assert status == 200
        assert document == {"status": "ok"}

    def test_open_breaker_degrades(self):
        handler = HealthHandler().watch_breakers(
            _FakeBreakers({"soap:Quote": "open", "rest:Quote": "closed"})
        )
        status, document = self._get(handler)
        assert status == 503
        assert document["status"] == "degraded"
        assert document["breakers"]["breakers"]["soap:Quote"] == "open"

    def test_quarantine_lease_degrades(self):
        """A crawler's quarantined domain is an open breaker on /healthz."""
        from repro.directory import ServiceCrawler
        from repro.directory.webgraph import WebGraph
        from repro.resilience import CircuitBreakerRegistry, CircuitPolicy

        breakers = CircuitBreakerRegistry(CircuitPolicy(failure_threshold=1))
        handler = HealthHandler().watch_breakers(breakers, name="crawler")
        ServiceCrawler(WebGraph(), breakers=breakers).crawl(
            ["http://bad.example/gone"]
        )
        status, document = self._get(handler)
        assert status == 503
        assert document["breakers"]["crawler"] == {"bad.example": "open"}
        assert "quarantines" not in document

    def test_custom_checks(self):
        handler = (
            HealthHandler()
            .add_check("always", lambda: True)
            .add_check("failing", lambda: False)
        )
        status, document = self._get(handler)
        assert status == 503
        assert document["checks"] == {"always": "ok", "failing": "failing"}

    def test_raising_check_is_captured_not_fatal(self):
        def explode():
            raise RuntimeError("probe died")

        handler = HealthHandler().add_check("exploding", explode)
        status, document = self._get(handler)
        assert status == 503
        assert document["checks"]["exploding"].startswith("error:")

    def test_real_breaker_registry_and_quarantine_plug_in(self):
        from repro.resilience import CircuitBreakerRegistry, CircuitPolicy

        breakers = CircuitBreakerRegistry(CircuitPolicy(failure_threshold=1))
        breaker = breakers.breaker_for("inproc://quote")
        handler = HealthHandler().watch_breakers(breakers)
        assert self._get(handler)[0] == 200
        breaker.on_failure(probing=False)  # trips at threshold 1
        assert self._get(handler)[0] == 503

        quarantine = CircuitBreakerRegistry(CircuitPolicy(recovery_seconds=30))
        q_handler = HealthHandler().watch_breakers(quarantine, name="quarantine")
        assert self._get(q_handler) == (
            200,
            {"status": "ok", "breakers": {"quarantine": {}}},
        )

    def test_rejects_non_get(self):
        response = serve_once(HealthHandler(), HttpRequest("POST", "/healthz"))
        assert response.status == 405


class TestObservabilityRoutes:
    def test_route_table_mounts_on_compose_handlers(self):
        from repro.web import compose_handlers

        registry = MetricsRegistry()
        registry.counter("routed_total").inc(3)
        handler = compose_handlers(
            {**observability_routes(registry=registry)},
            default=None,
        )
        response = serve_once(handler, HttpRequest("GET", "/metrics"))
        assert "routed_total 3" in response.text()
        response = serve_once(handler, HttpRequest("GET", "/healthz"))
        assert json.loads(response.text())["status"] == "ok"
