"""One trace across three bindings, one span per hop and side.

A single logical request fans out inproc -> SOAP -> REST over real
sockets; every hop must join the same trace, with parent/child edges
following the call chain.  Each remote hop is one client span
(``soap.call``/``rest.call``) and one ``http.server`` span, which names
the binding, operation and service it dispatched; no server span nests
in another on the same node.  Resilience retries show up as sibling
client spans under one ``resilience.call`` span, which only a policy
that can retry or note an event opens.
"""

import pytest

from repro.core import ServiceBus, ServiceFault, ServiceHost, ServiceUnavailable
from repro.core.service import Service, operation
from repro.observability import (
    OBS,
    SpanCollector,
    TraceContext,
    Tracer,
    observed,
    render_trace_tree,
)
from repro.resilience import ResiliencePolicy, ResilientInvoker, RetryPolicy
from repro.transport import (
    HttpClient,
    HttpServer,
    RestEndpoint,
    SoapClient,
    SoapEndpoint,
    rest_proxy,
    soap_proxy,
)

pytestmark = pytest.mark.obs


class Pricer(Service):
    """Backend: prices a symbol (hosted over SOAP and over REST)."""

    @operation
    def price(self, symbol: str) -> float:
        """A deterministic quote."""
        return float(len(symbol))


class Flaky(Service):
    """Backend that fails N times before recovering."""

    failures = 0

    @operation
    def wobble(self) -> str:
        """Unavailable until the failure budget is spent."""
        if Flaky.failures > 0:
            Flaky.failures -= 1
            raise ServiceUnavailable("warming up")
        return "steady"


@pytest.fixture
def backends():
    soap_endpoint = SoapEndpoint()
    soap_endpoint.mount(ServiceHost(Pricer()))
    rest_endpoint = RestEndpoint()
    rest_endpoint.mount(ServiceHost(Pricer()))
    with HttpServer(soap_endpoint) as soap_server:
        with HttpServer(rest_endpoint) as rest_server:
            yield soap_server, rest_server


class TestTraceSpansThreeBindings:
    def test_single_trace_id_across_inproc_soap_rest(self, backends):
        soap_server, rest_server = backends
        collector = SpanCollector()
        with HttpClient(soap_server.host, soap_server.port) as soap_http:
            with HttpClient(rest_server.host, rest_server.port) as rest_http:
                soap_backend = soap_proxy(soap_http, "Pricer")
                rest_backend = rest_proxy(rest_http, "Pricer")

                class Aggregator(Service):
                    """Front service fanning out to both remote bindings."""

                    @operation
                    def spread(self, symbol: str) -> float:
                        """SOAP quote minus REST quote."""
                        return soap_backend.price(
                            symbol=symbol
                        ) - rest_backend.price(symbol=symbol.lower())

                bus = ServiceBus()
                address = bus.host(Aggregator())
                with observed(collector):
                    assert bus.call(address, "spread", {"symbol": "ACME"}) == 0.0

        spans = collector.spans()
        # every hop of the fan-out joined the one trace
        assert len(collector.trace_ids()) == 1
        names = sorted(span.name for span in spans)
        assert names == [
            "bus.call",
            "http.server",
            "http.server",
            "rest.call",
            "soap.call",
        ]
        bindings = {
            span.attributes.get("binding")
            for span in spans
            if "binding" in span.attributes
        }
        assert {"inproc", "soap", "rest"} <= bindings
        served = sorted(
            (span.attributes["binding"], span.attributes["service"])
            for span in spans
            if span.name == "http.server"
        )
        assert served == [("rest", "Pricer"), ("soap", "Pricer")]
        assert_no_server_span_nests_on_its_node(spans)

    def test_parent_child_edges_follow_the_call_chain(self, backends):
        soap_server, _ = backends
        collector = SpanCollector()
        with HttpClient(soap_server.host, soap_server.port) as soap_http:
            backend = soap_proxy(soap_http, "Pricer")

            class Front(Service):
                """Thin inproc facade over the SOAP backend."""

                @operation
                def quote(self, symbol: str) -> float:
                    """Delegate to SOAP."""
                    return backend.price(symbol=symbol)

            bus = ServiceBus()
            address = bus.host(Front())
            with observed(collector):
                assert bus.call(address, "quote", {"symbol": "XY"}) == 2.0

        spans = collector.spans()
        assert len(spans) == 3
        by_name = {span.name: span for span in spans}
        bus_span = by_name["bus.call"]
        client_span = by_name["soap.call"]
        server_span = by_name["http.server"]
        assert bus_span.parent_id is None
        # the client span nests under the bus dispatch on the caller thread
        assert client_span.parent_id == bus_span.span_id
        # the server thread has no local context: it joins via traceparent
        assert server_span.parent_id == client_span.span_id
        assert server_span.attributes["trace.remote_parent"] is True
        assert server_span.attributes["operation"] == "price"
        assert bus_span.trace_id == client_span.trace_id == server_span.trace_id

    def test_a_fault_marks_the_server_span(self, backends):
        soap_server, _ = backends
        collector = SpanCollector()
        with HttpClient(soap_server.host, soap_server.port) as soap_http:
            client = SoapClient(soap_http, "Pricer")
            with observed(collector):
                with pytest.raises(ServiceFault):
                    client.call("price", {"symbol": 7})
        (server_span,) = collector.named("http.server")
        assert server_span.status == "error"
        assert server_span.attributes["binding"] == "soap"
        assert server_span.attributes["fault.code"] == "Client.ContractViolation"
        assert server_span.attributes["http.status"] == 400


def assert_no_server_span_nests_on_its_node(spans):
    """A hop has one server span: none is the parent of another server
    span on the same node (its own process and thread of dispatch)."""
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent_id)
        if span.kind == "server" and parent is not None:
            assert not (
                parent.kind == "server"
                and not span.attributes.get("trace.remote_parent")
            ), f"{span.name} nests in {parent.name} on one node"


class TestOneServerSpanPerHop:
    def test_no_server_span_parents_a_server_span_on_its_node(self, backends):
        soap_server, rest_server = backends
        collector = SpanCollector()
        with observed(collector):
            for server, proxy in (
                (soap_server, soap_proxy),
                (rest_server, rest_proxy),
            ):
                with HttpClient(server.host, server.port) as http:
                    assert proxy(http, "Pricer").price(symbol="AB") == 2.0
        spans = collector.spans()
        # each proxy's contract GET and its call: four hops, four servers
        assert [span.name for span in spans].count("http.server") == 4
        assert_no_server_span_nests_on_its_node(spans)


class TestServerSpan:
    """``HttpServer`` opens each request's one server span itself."""

    def test_joins_the_traceparent_header(self, backends):
        _, rest_server = backends
        collector = SpanCollector()
        header = TraceContext(trace_id=11, span_id=22).traceparent()
        with observed(collector):
            with HttpClient(rest_server.host, rest_server.port) as http:
                joined = http.get("/rest/Pricer", {"traceparent": header})
                fresh = http.get("/rest/Pricer")
        assert joined.status == fresh.status == 200
        first, second = collector.named("http.server")
        assert (first.trace_id, first.parent_id) == (11, 22)
        assert first.attributes["trace.remote_parent"] is True
        # no header: the request starts its own trace, a local root
        assert second.parent_id is None and second.trace_id != 11
        assert "trace.remote_parent" not in second.attributes

    def test_noop_when_disabled(self, backends, monkeypatch):
        _, rest_server = backends
        collector = SpanCollector()
        monkeypatch.setattr(OBS, "tracer", Tracer(collector))
        assert not OBS.enabled
        with HttpClient(rest_server.host, rest_server.port) as http:
            assert http.get("/rest/Pricer").status == 200
        assert len(collector) == 0


class TestRetriesAreSiblingSpans:
    def test_each_attempt_is_a_sibling_under_resilience_call(self):
        Flaky.failures = 2
        endpoint = SoapEndpoint()
        endpoint.mount(ServiceHost(Flaky()))
        collector = SpanCollector()
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                client = SoapClient(http, "Flaky")
                invoker = ResilientInvoker(
                    client.call,
                    ResiliencePolicy(
                        retry=RetryPolicy(attempts=3, base_delay=0.0),
                        circuit=None,
                    ),
                )
                with observed(collector):
                    assert invoker("wobble", {}) == "steady"

        assert len(collector.trace_ids()) == 1
        (resilience_span,) = collector.named("resilience.call")
        attempts = collector.named("soap.call")
        assert len(attempts) == 3
        # all three attempts are siblings: same parent, distinct spans
        assert {span.parent_id for span in attempts} == {
            resilience_span.span_id
        }
        assert len({span.span_id for span in attempts}) == 3
        # the first two attempts failed; the probe that succeeded did not
        assert [span.status for span in attempts].count("error") == 2
        assert [event.name for event in resilience_span.events] == [
            "retry",
            "retry",
        ]
        assert resilience_span.attributes["attempts"] == 3

    def test_only_a_defending_invoker_opens_resilience_call(self, backends):
        soap_server, _ = backends
        collector = SpanCollector()
        with HttpClient(soap_server.host, soap_server.port) as http:
            client = SoapClient(http, "Pricer")
            bare = ResilientInvoker(client.call, ResiliencePolicy.unprotected())
            retrying = ResilientInvoker(
                client.call,
                ResiliencePolicy(
                    retry=RetryPolicy(attempts=2, base_delay=0.0), circuit=None
                ),
            )
            with observed(collector):
                assert bare("price", {"symbol": "A"}) == 1.0
                bare_trace = set(collector.trace_ids())
                assert retrying("price", {"symbol": "AB"}) == 2.0
        spans = collector.spans()
        bare_spans = [s for s in spans if s.trace_id in bare_trace]
        # the unprotected chain passes straight through: call + server
        assert sorted(s.name for s in bare_spans) == ["http.server", "soap.call"]
        (defended,) = collector.named("resilience.call")
        (attempt,) = [
            s for s in collector.named("soap.call") if s.trace_id not in bare_trace
        ]
        assert attempt.parent_id == defended.span_id

    def test_trace_tree_renders_the_fan_out(self):
        Flaky.failures = 1
        endpoint = SoapEndpoint()
        endpoint.mount(ServiceHost(Flaky()))
        collector = SpanCollector()
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                client = SoapClient(http, "Flaky")
                invoker = ResilientInvoker(
                    client.call,
                    ResiliencePolicy(
                        retry=RetryPolicy(attempts=2, base_delay=0.0),
                        circuit=None,
                    ),
                )
                with observed(collector):
                    assert invoker("wobble", {}) == "steady"
        text = render_trace_tree(collector.spans())
        assert text.startswith("trace ")
        assert "resilience.call" in text
        assert text.count("soap.call") == 2
        assert "· retry" in text


class TestNothingLeaksWhenDisabled:
    def test_no_spans_without_observed(self, backends):
        soap_server, _ = backends
        assert not OBS.enabled
        with HttpClient(soap_server.host, soap_server.port) as http:
            backend = soap_proxy(http, "Pricer")
            assert backend.price(symbol="Q") == 1.0
        # nothing to assert on a collector: none was installed; the check
        # is that the call path ran with observability fully disabled
        assert not OBS.tracer.sampling
