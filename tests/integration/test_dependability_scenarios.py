"""Failure-injection scenarios: the §V reliability complaints, simulated.

The paper's §V complains that free public services are slow, time out,
and vanish without notice.  These scenarios inject exactly those faults
into our own stack and verify the Unit 6 defenses hold:

* provider vanishes mid-session → replica failover while the broker
  still lists it
* provider is intermittently slow → timeout + retry
* provider crash-loops → circuit breaker sheds load
* directory HTML view + registration survive malformed submissions
"""

import pytest

from repro.core import (
    BusClient,
    Endpoint,
    Service,
    ServiceBroker,
    ServiceBus,
    ServiceFault,
    ServiceUnavailable,
    TimeoutFault,
    operation,
)
from repro.directory import render_directory_html
from repro.resilience import CircuitPolicy, EndpointBreaker, ReplicaBalancer
from repro.security import FaultInjector, with_retry, with_timeout


class Quote(Service):
    """A quote provider with an instance tag (to observe failover)."""

    category = "finance"

    def __init__(self, tag: str) -> None:
        self.tag = tag

    @operation(idempotent=True)
    def quote(self, symbol: str) -> dict:
        return {"symbol": symbol, "price": 42.0, "provider": self.tag}


class InOrder:
    """Deterministic rng stand-in: the balancer samples replicas in
    publication order, so on a health tie the primary goes first."""

    def sample(self, population, k):
        return list(population)[:k]


class TestVanishingProvider:
    def test_lease_expiry_then_failover(self):
        """The primary vanishes without notice: its host is gone, but the
        broker lists it until the registration's lease lapses.  In that
        window the balancer fails over to the mirror within the call, and
        the QoS books send later calls straight to the mirror."""
        broker, bus = ServiceBroker(), ServiceBus()
        primary = Endpoint("inproc", bus.host(Quote("primary"), "quote-primary"))
        mirror = Endpoint("inproc", bus.host(Quote("mirror"), "quote-mirror"))
        broker.publish(Quote.contract(), [primary, mirror], lease_seconds=60)
        balancer = ReplicaBalancer(broker, "Quote", bus=bus, rng=InOrder())
        assert balancer("quote", {"symbol": "ASU"})["provider"] == "primary"
        bus.unhost("quote-primary")  # the primary vanishes "without notice"
        broker.advance(30)  # lease still valid: the broker lists both
        assert balancer("quote", {"symbol": "ASU"})["provider"] == "mirror"
        assert balancer("quote", {"symbol": "ASU"})["provider"] == "mirror"
        # one failed attempt on the vanished primary, then it is avoided
        assert broker.lookup("Quote").qos_for(primary).faults == 1


class TestSlowProvider:
    def test_timeout_plus_retry_beats_intermittent_latency(self):
        import time as _time

        calls = {"n": 0}

        def sometimes_slow(**kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                _time.sleep(0.3)  # "too slow to use"
            return "data"

        guarded = with_retry(
            with_timeout(sometimes_slow, seconds=0.1),
            attempts=2,
            retry_on=(TimeoutFault,),
        )
        assert guarded() == "data"
        assert calls["n"] == 2

    def test_timeout_alone_reports_fault(self):
        import time as _time

        def always_slow(**kwargs):
            _time.sleep(0.3)
            return "late"

        with pytest.raises(TimeoutFault):
            with_timeout(always_slow, seconds=0.05)()


class TestCrashLoopingProvider:
    def test_breaker_sheds_load_and_recovers(self):
        clock = {"t": 0.0}
        state = {"healthy": False, "calls": 0}

        def flapping():
            state["calls"] += 1
            if not state["healthy"]:
                raise ServiceFault("crash")
            return "ok"

        breaker = EndpointBreaker(
            CircuitPolicy(failure_threshold=2, recovery_seconds=30),
            clock=lambda: clock["t"],
        )
        for _ in range(2):
            with pytest.raises(ServiceFault):
                breaker(flapping)
        # open: the provider is protected from the thundering herd
        calls_when_opened = state["calls"]
        for _ in range(10):
            with pytest.raises(ServiceUnavailable):
                breaker(flapping)
        assert state["calls"] == calls_when_opened  # zero calls while open
        # recovery
        clock["t"] = 31
        state["healthy"] = True
        assert breaker(flapping) == "ok"
        assert breaker.state == "closed"


class TestInjectedFaultsThroughFullStack:
    def test_flaky_bus_call_healed_by_retry(self):
        broker, bus = ServiceBroker(), ServiceBus()
        bus.host_and_publish(Quote("only"), broker)
        client = BusClient(bus, broker)
        flaky = FaultInjector(
            lambda **kw: client.call("Quote", "quote", **kw),
            [ServiceFault("glitch"), None, ServiceFault("glitch"), None],
        )
        healed = with_retry(flaky, attempts=3)
        assert healed(symbol="A")["provider"] == "only"
        assert healed(symbol="B")["provider"] == "only"
        # broker QoS recorded the client-observed faults
        assert flaky.injected_faults == 2

    def test_qos_tracking_demotes_flaky_provider(self):
        broker, bus = ServiceBroker(), ServiceBus()
        good = Quote("good")
        bad = Quote("bad")
        good_contract, bad_contract = good.contract(), bad.contract()
        good_contract.name, bad_contract.name = "QuoteGood", "QuoteBad"
        broker.publish(good_contract, Endpoint("inproc", bus.host(good, "qg")))
        broker.publish(bad_contract, Endpoint("inproc", bus.host(bad, "qb")))
        # simulate observed behaviour
        for _ in range(10):
            broker.report("QuoteGood", 0.01)
        for index in range(10):
            broker.report("QuoteBad", 0.01, fault=index % 2 == 0)
        best = broker.best_by_qos(["QuoteGood", "QuoteBad"])
        assert best.name == "QuoteGood"


class TestDirectoryRobustness:
    def test_html_view_escapes_hostile_docs(self):
        from repro.core import Operation, ServiceContract

        hostile = ServiceContract(
            "EvilSvc",
            documentation='<script>alert("xss")</script>',
            category="misc",
        )
        hostile.add(Operation("run"))
        html = render_directory_html([hostile])
        assert "<script>alert" not in html
        assert "&lt;script&gt;" in html

    def test_registration_desk_counts_rejections(self):
        from repro.directory import RegistrationDesk, ServiceSearchEngine

        desk = RegistrationDesk(ServiceSearchEngine())
        for bad in ("<broken", "<notcontract/>", "<contract/>"):
            with pytest.raises(Exception):
                desk.register_xml(bad)
        assert desk.rejected == 3
        assert len(desk) == 0
