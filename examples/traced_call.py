#!/usr/bin/env python
"""Observability walkthrough: one request traced across three bindings.

The paper's dependability story assumes you can *see* what a service
call did.  This example turns the telemetry layer on and watches a
single logical request fan out inproc -> SOAP -> REST over real
sockets, with a flaky backend forcing a retry along the way:

1. host a quote service over SOAP and over REST on real HTTP servers
2. front them with an in-process aggregator on the service bus
3. run one call under ``observed(SpanCollector())`` — every hop joins
   the same trace via W3C-style ``traceparent`` headers
4. pretty-print the trace tree, the Prometheus ``/metrics`` text and a
   ``/healthz`` probe served over the wire
"""

from repro.core import (
    Service,
    ServiceBus,
    ServiceHost,
    ServiceUnavailable,
    operation,
)
from repro.observability import (
    HealthHandler,
    SpanCollector,
    observability_routes,
    observed,
    render_prometheus,
    render_trace_tree,
)
from repro.resilience import ResiliencePolicy, ResilientInvoker, RetryPolicy
from repro.transport import (
    HttpClient,
    HttpRequest,
    HttpServer,
    RestEndpoint,
    SoapEndpoint,
    rest_proxy,
    soap_proxy,
)
from repro.web import compose_handlers


class QuoteService(Service):
    """A stock-quote lookalike, flaky on its first call."""

    category = "demo"
    wobbles = 1

    @operation(idempotent=True)
    def quote(self, symbol: str) -> float:
        """Price a symbol; the first call times out (then recovers)."""
        if QuoteService.wobbles > 0:
            QuoteService.wobbles -= 1
            raise ServiceUnavailable("exchange warming up")
        return 100.0 + len(symbol)


def main() -> None:
    soap_endpoint = SoapEndpoint()
    soap_endpoint.mount(ServiceHost(QuoteService()))
    rest_endpoint = RestEndpoint()
    rest_endpoint.mount(ServiceHost(QuoteService()))

    collector = SpanCollector()
    with HttpServer(soap_endpoint) as soap_server, HttpServer(
        rest_endpoint
    ) as rest_server:
        with HttpClient(
            soap_server.host, soap_server.port
        ) as soap_http, HttpClient(
            rest_server.host, rest_server.port
        ) as rest_http:
            soap_backend = soap_proxy(soap_http, "QuoteService")
            rest_backend = rest_proxy(rest_http, "QuoteService")

            # retries defend the flaky SOAP leg; each attempt becomes a
            # sibling span in the trace below
            def call_soap(operation_name, arguments):
                return soap_backend.quote(**arguments)

            defended_soap = ResilientInvoker(
                call_soap,
                ResiliencePolicy(
                    retry=RetryPolicy(attempts=3, base_delay=0.0),
                    circuit=None,
                ),
                endpoint="soap://QuoteService",
            )

            class Aggregator(Service):
                """Fan out to both remote bindings, return the spread."""

                @operation
                def spread(self, symbol: str) -> float:
                    """SOAP quote minus REST quote."""
                    return defended_soap("quote", {"symbol": symbol}) - (
                        rest_backend.quote(symbol=symbol)
                    )

            bus = ServiceBus()
            address = bus.host(Aggregator())

            with observed(collector) as obs:
                spread = bus.call(address, "spread", {"symbol": "ACME"})
                print(f"spread(ACME) = {spread}")
                trace_ids = collector.trace_ids()
                print(
                    f"one request, {len(collector)} spans, "
                    f"{len(trace_ids)} trace"
                )
                print()
                print(render_trace_tree(collector.spans()))

                # -- exposition plane: /metrics and /healthz over the wire
                handler = compose_handlers(
                    dict(observability_routes(registry=obs.registry)),
                    default=None,
                )
                with HttpServer(handler) as ops_server:
                    with HttpClient(
                        ops_server.host, ops_server.port
                    ) as ops_http:
                        metrics_text = ops_http.request(
                            HttpRequest("GET", "/metrics")
                        ).text()
                        health = ops_http.request(
                            HttpRequest("GET", "/healthz")
                        )
                print("scraped /metrics (excerpt):")
                for line in metrics_text.splitlines():
                    if line.startswith(
                        ("repro_bus_dispatch_total", "repro_client_calls_total")
                    ) or line.startswith("repro_resilience_events_total{"):
                        print(f"  {line}")
                print(f"/healthz -> {health.status} {health.text()}")

    # a degraded probe: HealthHandler watching a tripped breaker
    from repro.resilience import CircuitBreakerRegistry, CircuitPolicy

    breakers = CircuitBreakerRegistry(CircuitPolicy(failure_threshold=1))
    breaker = breakers.breaker_for("soap://QuoteService")
    breaker.on_failure(breaker.before_call())
    probe = HealthHandler().watch_breakers(breakers)
    response = probe(HttpRequest("GET", "/healthz"))
    print(f"with an open breaker, /healthz -> {response.status}")

    # the default registry renders even when nothing is enabled
    assert "repro_bus_dispatch_total" in render_prometheus(obs.registry)


if __name__ == "__main__":
    main()
