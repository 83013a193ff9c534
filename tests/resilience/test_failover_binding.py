"""Failover across bindings, broker endpoint preference, and the QoS loop.

The claim under test: the broker learns which endpoints are healthy
from policy outcomes, and the replica balancer behind the resilient
proxy uses that knowledge to prefer healthy endpoints and fail over
across *bindings* — inproc, SOAP, and REST are interchangeable faces of
one contract.
"""

import pytest

from repro.core import (
    Endpoint,
    Service,
    ServiceBroker,
    ServiceBus,
    ServiceUnavailable,
    TransportError,
    operation,
    proxy_from_broker,
)
from repro.core.service import ServiceHost
from repro.resilience import (
    CircuitPolicy,
    ManualClock,
    ReplicaBalancer,
    ResiliencePolicy,
    RetryPolicy,
    broker_reporter,
    invoker_for_endpoint,
    resilient_proxy_from_broker,
)
from repro.resilience.middleware import Observation
from repro.transport.http11 import HttpRequest
from repro.transport.rest import RestEndpoint
from repro.transport.soap import SoapEndpoint


class Echo(Service):
    """Echoes its input; the healthy provider."""

    category = "demo"

    @operation
    def say(self, text: str) -> str:
        """Return the text unchanged."""
        return text


class DownEcho(Service):
    """Same contract shape as Echo, but always refuses work."""

    service_name = "Echo"
    category = "demo"

    @operation
    def say(self, text: str) -> str:
        """Always raise ServiceUnavailable."""
        raise ServiceUnavailable("provider down for maintenance", retry_after=5.0)


class InMemoryHttp:
    """Duck-typed HttpClient double: routes requests straight to a handler."""

    def __init__(self, handler):
        self.handler = handler
        self.requests = []

    def request(self, request):
        self.requests.append(request)
        return self.handler(request)

    def get(self, target, headers=None):
        return self.request(HttpRequest("GET", target, dict(headers or {})))

    def post(self, target, body, content_type="application/octet-stream", headers=None):
        payload = body.encode("utf-8") if isinstance(body, str) else body
        merged = {"Content-Type": content_type, **(headers or {})}
        return self.request(HttpRequest("POST", target, merged, payload))


def http_factory_for(handlers):
    """Build an http_factory dispatching on host name to in-memory handlers."""

    made = []

    def factory(host, port):
        http = InMemoryHttp(handlers[host])
        made.append((host, port, http))
        return http

    factory.made = made
    return factory


NO_WAIT = ResiliencePolicy(retry=RetryPolicy(attempts=1), circuit=None)


class PublicationOrder:
    """Deterministic rng stand-in: P2C samples endpoints in publication
    order, so on a health tie the first-published endpoint goes first."""

    def sample(self, population, k):
        return list(population)[:k]

    def random(self):
        return 0.5  # retry jitter of zero


def balancer(broker, **kwargs):
    """An ``Echo`` balancer over every binding, on a manual clock."""
    clock = ManualClock()
    kwargs.setdefault("sleep", clock.advance)
    return ReplicaBalancer(
        broker, "Echo", clock=clock, rng=PublicationOrder(), **kwargs
    )


class TestEndpointPreference:
    def test_unobserved_endpoints_keep_publication_order(self):
        broker = ServiceBroker()
        broker.publish(
            Echo.contract(),
            [Endpoint("inproc", "inproc://a"), Endpoint("soap", "http://h:1/soap/Echo")],
        )
        preferred = broker.endpoints_by_preference("Echo")
        assert [e.binding for e in preferred] == ["inproc", "soap"]

    def test_availability_dominates_latency(self):
        broker = ServiceBroker()
        fast_flaky = Endpoint("inproc", "inproc://fast")
        slow_solid = Endpoint("inproc", "inproc://slow")
        broker.publish(Echo.contract(), [fast_flaky, slow_solid])
        broker.report("Echo", 0.01, endpoint=fast_flaky)
        broker.report("Echo", 0.01, fault=True, endpoint=fast_flaky)
        broker.report("Echo", 0.9, endpoint=slow_solid)
        preferred = broker.endpoints_by_preference("Echo")
        assert preferred[0] == slow_solid

    def test_latency_breaks_availability_ties(self):
        broker = ServiceBroker()
        slow = Endpoint("rest", "http://h:1/rest/Echo")
        fast = Endpoint("soap", "http://h:1/soap/Echo")
        broker.publish(Echo.contract(), [slow, fast])
        broker.report("Echo", 0.8, endpoint=slow)
        broker.report("Echo", 0.1, endpoint=fast)
        assert broker.endpoints_by_preference("Echo")[0] == fast

    def test_fast_fails_hurt_availability_not_latency(self):
        broker = ServiceBroker()
        endpoint = Endpoint("soap", "http://h:1/soap/Echo")
        broker.publish(Echo.contract(), [endpoint])
        broker.report("Echo", 0.2, endpoint=endpoint)
        broker.report("Echo", 0.0, fault=True, endpoint=endpoint, fast_fail=True)
        qos = broker.lookup("Echo").qos_for(endpoint)
        assert qos.samples == 2
        assert qos.fast_fails == 1
        assert qos.mean_latency == pytest.approx(0.2)  # fast-fail excluded
        assert qos.availability == pytest.approx(0.5)


class TestBrokerReporter:
    def test_observations_attributed_per_endpoint(self):
        broker = ServiceBroker()
        endpoint = Endpoint("inproc", "inproc://echo")
        broker.publish(Echo.contract(), [endpoint])
        report = broker_reporter(broker, "Echo")
        report(Observation(endpoint.key, "say", 0.25, fault=False, fast_fail=False))
        report(Observation(endpoint.key, "say", 0.0, fault=True, fast_fail=True))
        qos = broker.lookup("Echo").qos_for(endpoint)
        assert (qos.samples, qos.faults, qos.fast_fails) == (2, 1, 1)
        assert broker.lookup("Echo").qos.samples == 2  # service-level too

    def test_vanished_service_is_ignored(self):
        broker = ServiceBroker()
        report = broker_reporter(broker, "Ghost")
        report(Observation("inproc:x", "say", 0.1, fault=False, fast_fail=False))


class TestInprocFailover:
    def make_world(self):
        broker = ServiceBroker()
        bus = ServiceBus()
        down = bus.host(DownEcho(), "echo-down")
        up = bus.host(Echo(), "echo-up")
        broker.publish(
            Echo.contract(), [Endpoint("inproc", down), Endpoint("inproc", up)]
        )
        return broker, bus, down, up

    def test_fails_over_to_healthy_endpoint(self):
        broker, bus, down, up = self.make_world()
        invoker = balancer(broker, bus=bus, policy=NO_WAIT)
        assert invoker("say", {"text": "hi"}) == "hi"
        reg = broker.lookup("Echo")
        assert reg.qos_for(Endpoint("inproc", down)).faults == 1
        assert reg.qos_for(Endpoint("inproc", up)).faults == 0

    def test_qos_loop_reorders_next_call(self):
        broker, bus, down, up = self.make_world()
        invoker = balancer(broker, bus=bus, policy=NO_WAIT)
        invoker("say", {"text": "first"})
        # The broker learned: the dead endpoint now ranks last.
        preferred = broker.endpoints_by_preference("Echo")
        assert preferred[0].address == up
        # Second call goes straight to the healthy endpoint: only one more
        # sample lands there and none on the dead one.
        before = broker.lookup("Echo").qos_for(Endpoint("inproc", down)).samples
        invoker("say", {"text": "second"})
        reg = broker.lookup("Echo")
        assert reg.qos_for(Endpoint("inproc", down)).samples == before
        assert reg.qos_for(Endpoint("inproc", up)).samples == 2

    def test_all_endpoints_down_raises_last_fault(self):
        broker = ServiceBroker()
        bus = ServiceBus()
        down = bus.host(DownEcho(), "echo-down")
        broker.publish(Echo.contract(), [Endpoint("inproc", down)])
        invoker = balancer(broker, bus=bus, policy=NO_WAIT)
        with pytest.raises(ServiceUnavailable):
            invoker("say", {"text": "hi"})

    def test_proxy_defaults_to_the_full_policy(self):
        """Without a policy the proxy retries (``ResiliencePolicy()``),
        where a bare balancer defaults to ``unprotected()``."""
        broker = ServiceBroker()
        bus = ServiceBus()
        down = bus.host(DownEcho(), "echo-down")
        broker.publish(Echo.contract(), [Endpoint("inproc", down)])
        slept = []
        proxy = resilient_proxy_from_broker(
            broker, "Echo", bus=bus, clock=ManualClock(), sleep=slept.append
        )
        with pytest.raises(ServiceUnavailable):
            proxy.say(text="hi")
        # three attempts, each wait floored at the provider's Retry-After
        assert slept == [pytest.approx(5.0)] * 2
        assert broker.lookup("Echo").qos_for(Endpoint("inproc", down)).samples == 3

    def test_application_faults_do_not_fail_over(self):
        broker, bus, down, up = self.make_world()
        invoker = balancer(broker, bus=bus, policy=NO_WAIT)
        # Unknown operation is a Client.* fault: retrying another binding of
        # the same contract would fail identically, so it must propagate.
        from repro.core import UnknownOperation

        with pytest.raises(UnknownOperation):
            invoker("shout", {"text": "hi"})

    def test_circuit_open_endpoint_reports_fast_fails(self):
        broker = ServiceBroker()
        bus = ServiceBus()
        down = bus.host(DownEcho(), "echo-down")
        broker.publish(Echo.contract(), [Endpoint("inproc", down)])
        policy = ResiliencePolicy(
            retry=RetryPolicy(attempts=1),
            circuit=CircuitPolicy(failure_threshold=1, recovery_seconds=60.0),
        )
        invoker = balancer(broker, bus=bus, policy=policy)
        with pytest.raises(ServiceUnavailable):
            invoker("say", {"text": "a"})  # trips the breaker
        assert invoker.breakers.states()[f"inproc:{down}"] == "open"
        with pytest.raises(ServiceUnavailable) as excinfo:
            invoker("say", {"text": "b"})  # fast-fails without touching the bus
        assert excinfo.value.fast_fail is True
        qos = broker.lookup("Echo").qos_for(Endpoint("inproc", down))
        assert qos.fast_fails == 1
        assert qos.samples == 2


class TestCrossBindingFailover:
    def make_world(self):
        broker = ServiceBroker()
        soap_endpoint = SoapEndpoint()
        rest_endpoint = RestEndpoint()
        soap_endpoint.mount(ServiceHost(DownEcho()))
        rest_endpoint.mount(ServiceHost(Echo()))
        broker.publish(
            Echo.contract(),
            [
                Endpoint("soap", "http://soap-host:80/soap/Echo"),
                Endpoint("rest", "http://rest-host:80/rest/Echo"),
            ],
        )
        factory = http_factory_for(
            {"soap-host": soap_endpoint, "rest-host": rest_endpoint}
        )
        return broker, factory

    def test_soap_down_rest_answers(self):
        broker, factory = self.make_world()
        invoker = balancer(broker, policy=NO_WAIT, http_clients=factory)
        assert invoker("say", {"text": "over the wire"}) == "over the wire"
        hosts = [host for host, _, _ in factory.made]
        assert hosts == ["soap-host", "rest-host"]
        reg = broker.lookup("Echo")
        assert reg.qos_for(Endpoint("soap", "http://soap-host:80/soap/Echo")).faults == 1
        assert reg.qos_for(Endpoint("rest", "http://rest-host:80/rest/Echo")).faults == 0

    def test_soap_503_carries_retry_after_hint(self):
        broker, factory = self.make_world()
        slept = []
        policy = ResiliencePolicy(
            retry=RetryPolicy(attempts=2, base_delay=0.0), circuit=None
        )
        invoker = balancer(
            broker, policy=policy, sleep=slept.append, http_clients=factory
        )
        assert invoker("say", {"text": "x"}) == "x"
        # The provider's retry_after=5.0 crossed the SOAP wire as a 503
        # Retry-After header and drove the retry wait.
        assert slept == [pytest.approx(5.0)]

    def test_resilient_proxy_end_to_end(self):
        broker, factory = self.make_world()
        clock = ManualClock()
        proxy = resilient_proxy_from_broker(
            broker,
            "Echo",
            policy=NO_WAIT,
            clock=clock,
            sleep=clock.advance,
            http_factory=factory,
        )
        assert proxy.say(text="typed and defended") == "typed and defended"

    def test_raw_socket_errors_surface_as_transport_error(self):
        """Mid-call failover accepts a raw ``OSError`` from each binding;
        once every endpoint failed, the caller sees the fault taxonomy."""
        broker, _ = self.make_world()

        def refused(request):
            raise ConnectionRefusedError("connection refused")

        factory = http_factory_for({"soap-host": refused, "rest-host": refused})
        clock = ManualClock()
        proxy = resilient_proxy_from_broker(
            broker, "Echo", policy=NO_WAIT, clock=clock, sleep=clock.advance,
            http_factory=factory,
        )
        with pytest.raises(TransportError, match="all replicas") as excinfo:
            proxy.say(text="anyone?")
        assert isinstance(excinfo.value.__cause__, ConnectionRefusedError)
        assert sorted(host for host, _, _ in factory.made) == [
            "rest-host", "soap-host",
        ]

    def test_proxy_validates_against_discovered_contract(self):
        broker, factory = self.make_world()
        clock = ManualClock()
        proxy = resilient_proxy_from_broker(
            broker,
            "Echo",
            policy=NO_WAIT,
            clock=clock,
            sleep=clock.advance,
            http_factory=factory,
        )
        from repro.core import ContractViolation

        with pytest.raises(ContractViolation):
            proxy.say(text=42)
        assert factory.made == []  # invalid call never built a client


class TestInvokerForEndpoint:
    def test_inproc_requires_bus(self):
        with pytest.raises(TransportError):
            invoker_for_endpoint(Endpoint("inproc", "inproc://echo"), Echo.contract())

    def test_unknown_binding_rejected(self):
        with pytest.raises(TransportError):
            invoker_for_endpoint(Endpoint("carrier-pigeon", "coop://1"), Echo.contract())

    def test_rest_invoker_uses_discovered_contract(self):
        rest_endpoint = RestEndpoint()
        rest_endpoint.mount(ServiceHost(Echo()))
        http = InMemoryHttp(rest_endpoint)
        call = invoker_for_endpoint(
            Endpoint("rest", "http://h:80/rest/Echo"),
            Echo.contract(),
            http_factory=lambda host, port: http,
        )
        assert call("say", {"text": "no wsdl round-trip"}) == "no wsdl round-trip"
        # First request is the operation itself — the contract came from the
        # broker, not a discovery GET.
        assert http.requests[0].method == "POST"


class TestProxyFromBrokerPolicyPath:
    def test_policy_kwarg_routes_through_resilience(self):
        broker = ServiceBroker()
        bus = ServiceBus()
        bus.host_and_publish(Echo(), broker)
        clock = ManualClock()
        proxy = proxy_from_broker(
            broker, bus, "Echo", policy=NO_WAIT, clock=clock, sleep=clock.advance
        )
        assert proxy.say(text="hello") == "hello"
        reg = broker.lookup("Echo")
        assert reg.qos.samples == 1
        assert reg.qos_for(Endpoint("inproc", "inproc://echo")).samples == 1


class TestBalancerOrder:
    def test_order_from_broker_qos(self):
        """The broker's QoS books, not publication order, pick the first
        endpoint: a reported fault sends the call straight past it."""
        broker = ServiceBroker()
        bus = ServiceBus()
        down = bus.host(DownEcho(), "echo-down")
        up = bus.host(Echo(), "echo-up")
        broker.publish(
            Echo.contract(), [Endpoint("inproc", down), Endpoint("inproc", up)]
        )
        broker.report("Echo", 0.1, fault=True, endpoint=Endpoint("inproc", down))
        invoker = balancer(broker, bus=bus, policy=NO_WAIT)
        assert invoker("say", {"text": "hi"}) == "hi"
        reg = broker.lookup("Echo")
        assert reg.qos_for(Endpoint("inproc", down)).samples == 1  # the report
        assert reg.qos_for(Endpoint("inproc", up)).samples == 1
