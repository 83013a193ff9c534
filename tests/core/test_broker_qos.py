"""Broker QoS bookkeeping: endpoint ranking, leases, and concurrency.

Satellite coverage for the QoS loop: client-observed fault rates and
latencies must actually change which endpoint the broker recommends, and
the bookkeeping must stay consistent under concurrent publish/unpublish
and reporting (the broker is hit from many client threads at once).
"""

import threading

import pytest

from repro.core import Endpoint, Service, ServiceBroker, operation
from repro.resilience import CircuitBreakerRegistry, CircuitPolicy


class Echo(Service):
    """Minimal provider for registry tests."""

    category = "demo"

    @operation
    def say(self, text: str) -> str:
        """Return the text unchanged."""
        return text


@pytest.fixture
def broker():
    return ServiceBroker()


def three_endpoints():
    return [
        Endpoint("inproc", "inproc://echo"),
        Endpoint("soap", "http://h:1/soap/Echo"),
        Endpoint("rest", "http://h:1/rest/Echo"),
    ]


class TestEndpointRanking:
    def test_fault_rate_demotes_endpoint(self, broker):
        inproc, soap, rest = three_endpoints()
        broker.publish(Echo.contract(), [inproc, soap, rest])
        for _ in range(4):
            broker.report("Echo", 0.1, endpoint=inproc)
        for _ in range(2):
            broker.report("Echo", 0.1, fault=True, endpoint=inproc)
        broker.report("Echo", 0.1, endpoint=soap)
        broker.report("Echo", 0.2, endpoint=rest)
        order = [e.binding for e in broker.endpoints_by_preference("Echo")]
        assert order == ["soap", "rest", "inproc"]

    def test_latency_orders_equally_available_endpoints(self, broker):
        inproc, soap, rest = three_endpoints()
        broker.publish(Echo.contract(), [inproc, soap, rest])
        broker.report("Echo", 0.50, endpoint=inproc)
        broker.report("Echo", 0.05, endpoint=soap)
        broker.report("Echo", 0.20, endpoint=rest)
        order = [e.binding for e in broker.endpoints_by_preference("Echo")]
        assert order == ["soap", "rest", "inproc"]

    def test_recovery_is_observable(self, broker):
        """An endpoint that starts answering again climbs back up."""
        good, bad, _ = three_endpoints()
        broker.publish(Echo.contract(), [bad, good])
        broker.report("Echo", 0.1, fault=True, endpoint=bad)
        broker.report("Echo", 0.1, endpoint=good)
        assert broker.endpoints_by_preference("Echo")[0] == good
        # bad recovers: many clean samples dilute the one fault
        for _ in range(99):
            broker.report("Echo", 0.01, endpoint=bad)
        ranked = broker.endpoints_by_preference("Echo")
        bad_qos = broker.lookup("Echo").qos_for(bad)
        assert bad_qos.availability == pytest.approx(0.99)
        # still below good's 1.0 availability, so good stays first —
        # availability dominates, recency is not modelled
        assert ranked[0] == good

    def test_endpoint_key_identity(self):
        a = Endpoint("soap", "http://h:1/soap/Echo")
        b = Endpoint("rest", "http://h:1/soap/Echo")
        assert a.key != b.key
        assert a.key == "soap:http://h:1/soap/Echo"

    def test_report_accepts_key_string(self, broker):
        endpoint = Endpoint("inproc", "inproc://echo")
        broker.publish(Echo.contract(), [endpoint])
        broker.report("Echo", 0.3, endpoint=endpoint.key)
        assert broker.lookup("Echo").qos_for(endpoint).samples == 1

    def test_fast_fail_excluded_from_mean_latency(self, broker):
        endpoint = Endpoint("inproc", "inproc://echo")
        broker.publish(Echo.contract(), [endpoint])
        broker.report("Echo", 0.4, endpoint=endpoint)
        broker.report("Echo", 0.0, fault=True, endpoint=endpoint, fast_fail=True)
        qos = broker.lookup("Echo").qos_for(endpoint)
        assert qos.mean_latency == pytest.approx(0.4)
        assert qos.availability == pytest.approx(0.5)

    def test_republish_resets_endpoint_qos(self, broker):
        endpoint = Endpoint("inproc", "inproc://echo")
        broker.publish(Echo.contract(), [endpoint])
        broker.report("Echo", 0.4, fault=True, endpoint=endpoint)
        broker.publish(Echo.contract(), [endpoint])  # fresh registration
        assert broker.lookup("Echo").qos_for(endpoint).samples == 0


class TestQoSStaleness:
    """Regression: QoS reports must expire — a silently-dead replica's
    perfect history can no longer keep it at the top of the ranking."""

    def test_stale_perfect_history_decays_below_fresh_reports(self):
        broker = ServiceBroker(qos_staleness_seconds=10.0)
        dead, live, _ = three_endpoints()
        broker.publish(Echo.contract(), [dead, live])
        # 'dead' builds a flawless record, then goes silent.
        for _ in range(50):
            broker.report("Echo", 0.001, endpoint=dead)
        # 'live' keeps reporting — imperfectly (one fault) and slower.
        broker.report("Echo", 0.2, fault=True, endpoint=live)
        assert broker.endpoints_by_preference("Echo")[0] == dead
        for _ in range(3):
            broker.advance(10.0)
            broker.report("Echo", 0.2, endpoint=live)
        # 30s of silence against a 10s window: health 1.0 -> 1/3,
        # below live's 0.75 availability.
        registration = broker.lookup("Echo")
        now = broker.now()
        assert registration.qos_for(dead).health(now, 10.0) == pytest.approx(1 / 3)
        assert registration.qos_for(live).health(now, 10.0) == pytest.approx(0.75)
        assert broker.endpoints_by_preference("Echo")[0] == live

    def test_fresh_reports_keep_plain_availability(self):
        broker = ServiceBroker(qos_staleness_seconds=10.0)
        endpoint = three_endpoints()[0]
        broker.publish(Echo.contract(), [endpoint])
        broker.report("Echo", 0.1, endpoint=endpoint)
        broker.advance(10.0)  # exactly at the window: still fresh
        qos = broker.lookup("Echo").qos_for(endpoint)
        assert qos.health(broker.now(), 10.0) == pytest.approx(1.0)

    def test_unobserved_endpoint_stays_optimistic(self):
        broker = ServiceBroker(qos_staleness_seconds=10.0)
        endpoint = three_endpoints()[0]
        broker.publish(Echo.contract(), [endpoint])
        broker.advance(1000.0)
        qos = broker.lookup("Echo").qos_for(endpoint)
        assert qos.health(broker.now(), 10.0) == 1.0

    def test_zero_window_disables_decay(self):
        broker = ServiceBroker(qos_staleness_seconds=0.0)
        endpoint = three_endpoints()[0]
        broker.publish(Echo.contract(), [endpoint])
        broker.report("Echo", 0.1, endpoint=endpoint)
        broker.advance(1000.0)
        qos = broker.lookup("Echo").qos_for(endpoint)
        assert qos.health(broker.now(), broker.qos_staleness_seconds) == 1.0

    def test_replica_health_reflects_decay(self):
        broker = ServiceBroker(qos_staleness_seconds=10.0)
        a, b, _ = three_endpoints()
        broker.publish(Echo.contract(), [a, b])
        broker.report("Echo", 0.1, endpoint=a)
        broker.advance(20.0)
        broker.report("Echo", 0.1, endpoint=b)
        health = dict(broker.replica_health("Echo"))
        assert health[a] == pytest.approx(0.5)  # 10s window / 20s age
        assert health[b] == pytest.approx(1.0)


class TestReplicaLifecycle:
    def test_drain_removes_from_preference_until_undrained(self, broker):
        a, b, _ = three_endpoints()
        broker.publish(Echo.contract(), [a, b])
        broker.drain_endpoint("Echo", a)
        assert broker.endpoints_by_preference("Echo") == [b]
        assert [e for e, _h in broker.replica_health("Echo")] == [b]
        broker.undrain_endpoint("Echo", a)
        assert a in broker.endpoints_by_preference("Echo")

    def test_all_draining_still_answers(self, broker):
        a, b, _ = three_endpoints()
        broker.publish(Echo.contract(), [a, b])
        broker.drain_endpoint("Echo", a)
        broker.drain_endpoint("Echo", b)
        # a degraded answer beats none: both come back
        assert len(broker.endpoints_by_preference("Echo")) == 2

    def test_remove_endpoint_drops_qos_history(self, broker):
        a, b, _ = three_endpoints()
        broker.publish(Echo.contract(), [a, b])
        broker.report("Echo", 0.1, fault=True, endpoint=a)
        broker.remove_endpoint("Echo", a)
        assert broker.lookup("Echo").endpoints == [b]
        # rejoining starts with a clean slate
        broker.add_endpoint("Echo", a)
        assert broker.lookup("Echo").qos_for(a).samples == 0

    def test_removing_last_endpoint_unpublishes(self, broker):
        a = three_endpoints()[0]
        broker.publish(Echo.contract(), [a])
        broker.remove_endpoint("Echo", a)
        assert "Echo" not in broker

    def test_drain_unknown_endpoint_raises(self, broker):
        from repro.core.broker import BrokerError

        a, b, _ = three_endpoints()
        broker.publish(Echo.contract(), [a])
        with pytest.raises(BrokerError):
            broker.drain_endpoint("Echo", b)
        with pytest.raises(BrokerError):
            broker.remove_endpoint("Echo", b)


class TestLeasesAndQuarantineUnderConcurrency:
    def test_concurrent_publish_unpublish_report(self, broker):
        """Hammer the broker from many threads; bookkeeping stays sane."""
        endpoint = Endpoint("inproc", "inproc://echo")
        stop = threading.Event()
        errors = []

        def publisher():
            try:
                while not stop.is_set():
                    broker.publish(Echo.contract(), [endpoint], lease_seconds=5)
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                errors.append(exc)

        def reporter():
            try:
                while not stop.is_set():
                    broker.report("Echo", 0.1, endpoint=endpoint)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def expirer():
            try:
                while not stop.is_set():
                    broker.advance(0.01)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=target)
            for target in (publisher, publisher, reporter, reporter, expirer)
        ]
        for thread in threads:
            thread.start()
        stop_timer = threading.Timer(0.3, stop.set)
        stop_timer.start()
        for thread in threads:
            thread.join(timeout=10)
        stop_timer.cancel()
        assert errors == []
        # The broker is still coherent: lookup either works or the lease
        # lapsed — no torn state either way.
        registration = broker.try_lookup("Echo")
        if registration is not None:
            assert registration.qos.samples >= 0

    def test_lease_expiry_drops_qos_history(self, broker):
        endpoint = Endpoint("inproc", "inproc://echo")
        broker.publish(Echo.contract(), [endpoint], lease_seconds=10)
        broker.report("Echo", 0.5, fault=True, endpoint=endpoint)
        broker.advance(11)
        assert "Echo" not in broker
        broker.report("Echo", 0.5)  # must not raise, must not resurrect
        assert "Echo" not in broker

    def test_quarantine_mirrors_lease_semantics(self):
        """A host's quarantine (its open breaker) lapses the way a broker
        lease does: at exactly ``recovery_seconds``, into one probe."""
        clock = {"t": 0.0}
        breakers = CircuitBreakerRegistry(
            CircuitPolicy(failure_threshold=1, recovery_seconds=10.0),
            clock=lambda: clock["t"],
        )
        breaker = breakers.breaker_for("host")
        assert breaker.on_failure(probing=False) is True
        assert breakers.states() == {"host": "open"}
        clock["t"] = 9.9
        assert breakers.states() == {"host": "open"}
        clock["t"] = 10.0
        assert breakers.states() == {"host": "half-open"}
        assert breaker.before_call() is True  # the single probe

    def test_quarantine_threadsafe_counting(self):
        breaker = CircuitBreakerRegistry(
            CircuitPolicy(failure_threshold=100, recovery_seconds=60.0)
        ).breaker_for("h")
        trips = []
        threads = [
            threading.Thread(
                target=lambda: trips.extend(
                    breaker.on_failure(probing=False) for _ in range(10)
                )
            )
            for _ in range(10)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # exactly 100 failures: the threshold fired exactly once
        assert trips.count(True) == 1
        assert breaker.state == "open"
