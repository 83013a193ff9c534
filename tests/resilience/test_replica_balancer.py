"""ReplicaBalancer: P2C spread, ejection, cooldown, probes, hedging.

All over the in-process bus with injected clocks and seeded RNGs — the
balancer's whole decision surface exercised without a socket in sight
(the socket path is the chaos drill's job).

A recurring setup trick: the broker's health scores collapse the moment
a fresh replica reports its first fault, after which P2C never selects
it again (it only rides the failover tail).  Tests that need a failing
replica to *keep* attracting traffic — ejection, probes, cooldown —
pre-load it with a long flawless QoS record so a few failures dent its
availability without dethroning it, exactly the "silently dying
ex-champion" shape those mechanisms exist for.
"""

import random
import threading
import time

import pytest

from repro.core import Endpoint, Service, ServiceBroker, ServiceBus, operation
from repro.core.faults import ServiceFault, ServiceUnavailable, TransportError
from repro.observability import observed
from repro.resilience import (
    CircuitPolicy,
    HedgePolicy,
    ManualClock,
    ReplicaBalancer,
    ResiliencePolicy,
    resilient_proxy_from_broker,
)


class Worker(Service):
    """One replica: delegates to an injected behavior callable."""

    service_name = "WorkService"
    category = "demo"

    def __init__(self, behavior):
        self.behavior = behavior

    @operation(idempotent=True)
    def work(self, tag: str) -> str:
        """Idempotent work (hedging-eligible)."""
        return self.behavior(tag)

    @operation
    def mutate(self, tag: str) -> str:
        """Non-idempotent work (never hedged)."""
        return self.behavior(tag)


class Replica:
    """Counting behavior with a switchable failure mode."""

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.failure = None  # None, or an exception instance to raise

    def __call__(self, tag):
        self.calls += 1
        if self.failure is not None:
            raise self.failure
        return f"{self.name}:{tag}"


class FirstSample:
    """Deterministic rng stand-in: always samples in index order."""

    def sample(self, population, k):
        return list(population)[:k]


def replicated(count, **broker_kwargs):
    """Host ``count`` Worker replicas on one bus, one registration."""
    bus = ServiceBus()
    broker = ServiceBroker(**broker_kwargs)
    replicas = [Replica(f"r{i}") for i in range(count)]
    endpoints = [
        Endpoint("inproc", bus.host(Worker(replica), f"work-{i}"))
        for i, replica in enumerate(replicas)
    ]
    broker.publish(Worker.contract(), endpoints)
    return bus, broker, replicas, endpoints


def preload(broker, endpoint, ok=0, faults=0):
    """Seed an endpoint's QoS record (latency is immaterial here)."""
    for _ in range(ok):
        broker.report("WorkService", 0.01, endpoint=endpoint)
    for _ in range(faults):
        broker.report("WorkService", 0.01, fault=True, endpoint=endpoint)


class TestSelection:
    def test_p2c_spreads_load_across_healthy_replicas(self):
        bus, broker, replicas, _ = replicated(3)
        balancer = ReplicaBalancer(
            broker, "WorkService", bus=bus, rng=random.Random(7)
        )
        for i in range(60):
            assert balancer("work", {"tag": str(i)}).endswith(f":{i}")
        # every replica served a meaningful share — no herd on one node
        assert all(replica.calls >= 10 for replica in replicas)
        assert sum(replica.calls for replica in replicas) == 60

    def test_p2c_prefers_healthier_of_two_sampled(self):
        bus, broker, replicas, endpoints = replicated(2)
        preload(broker, endpoints[0], ok=1)
        preload(broker, endpoints[1], faults=1)  # tarnished record
        balancer = ReplicaBalancer(
            broker, "WorkService", bus=bus, rng=random.Random(0)
        )
        for i in range(20):
            balancer("work", {"tag": str(i)})
        # with two replicas P2C always samples both: the healthy one wins
        assert replicas[0].calls == 20
        assert replicas[1].calls == 0

    def test_typed_proxy_rides_the_balancer(self):
        bus, broker, replicas, _ = replicated(2)
        proxy = resilient_proxy_from_broker(
            broker, "WorkService", bus=bus, policy=ResiliencePolicy.unprotected()
        )
        assert proxy.work(tag="x").endswith(":x")
        with pytest.raises(ServiceFault):
            proxy.work(wrong_arg=1)  # the contract still validates


class TestFailoverAndEjection:
    def test_dead_replica_never_surfaces_to_caller(self):
        bus, broker, replicas, _ = replicated(3)
        replicas[1].failure = TransportError("connection refused")
        balancer = ReplicaBalancer(
            broker, "WorkService", bus=bus, rng=random.Random(3)
        )
        for i in range(30):
            assert balancer("work", {"tag": str(i)})  # zero caller faults
        assert replicas[0].calls + replicas[2].calls == 30

    def test_ejection_after_consecutive_failures_then_timed_probe(self):
        clock = ManualClock()
        bus, broker, replicas, endpoints = replicated(2)
        # replica 0: long flawless record, then silently dies
        preload(broker, endpoints[0], ok=100)
        preload(broker, endpoints[1], ok=90, faults=10)
        replicas[0].failure = TransportError("down")
        balancer = ReplicaBalancer(
            broker,
            "WorkService",
            bus=bus,
            clock=clock,
            sleep=clock.sleep,
            rng=FirstSample(),
            ejection=CircuitPolicy(failure_threshold=3, recovery_seconds=5.0),
        )
        # its availability dents slowly (100/101, 100/102...), so it keeps
        # winning P2C and racks up consecutive failures — callers never
        # notice because replica 1 rides the failover tail
        for _ in range(3):
            assert balancer("work", {"tag": "x"})
        key0 = next(k for k in balancer.states() if "work-0" in k)
        assert balancer.states()[key0] == {
            "status": "ejected", "failures": 3, "ejections": 1, "inflight": 0,
        }
        # while ejected, the dead replica receives no traffic
        assert replicas[0].calls == 3
        for _ in range(10):
            balancer("work", {"tag": "x"})
        assert replicas[0].calls == 3
        # cooldown elapses; the replica healed meanwhile
        replicas[0].failure = None
        clock.advance(5.0)
        assert balancer.states()[key0]["status"] == "probation"
        balancer("work", {"tag": "probe"})
        assert replicas[0].calls == 4  # exactly the probe call
        assert balancer.states()[key0]["status"] == "live"
        assert balancer.states()[key0]["failures"] == 0

    def test_failed_probe_reejects_for_another_cooldown(self):
        clock = ManualClock()
        bus, broker, replicas, endpoints = replicated(2)
        preload(broker, endpoints[0], ok=100)
        preload(broker, endpoints[1], ok=90, faults=10)
        replicas[0].failure = TransportError("down")
        balancer = ReplicaBalancer(
            broker,
            "WorkService",
            bus=bus,
            clock=clock,
            sleep=clock.sleep,
            rng=FirstSample(),
            ejection=CircuitPolicy(failure_threshold=2, recovery_seconds=5.0),
        )
        for _ in range(2):
            balancer("work", {"tag": "x"})
        clock.advance(5.0)  # probe window opens; replica 0 is still dead
        assert balancer("work", {"tag": "x"})  # probe fails, call succeeds
        key0 = next(k for k in balancer.states() if "work-0" in k)
        assert balancer.states()[key0]["status"] == "ejected"
        assert balancer.states()[key0]["ejections"] == 2

    def test_probe_answering_an_application_fault_frees_the_probe(self):
        """The caller's fault judges no replica: the probe that raised it
        leaves the replica on probation, and the next call probes again."""
        clock = ManualClock()
        bus, broker, replicas, endpoints = replicated(2)
        preload(broker, endpoints[0], ok=100)
        preload(broker, endpoints[1], ok=90, faults=10)
        replicas[0].failure = TransportError("down")
        balancer = ReplicaBalancer(
            broker,
            "WorkService",
            bus=bus,
            clock=clock,
            sleep=clock.sleep,
            rng=FirstSample(),
            ejection=CircuitPolicy(failure_threshold=1, recovery_seconds=5.0),
        )
        balancer("work", {"tag": "x"})  # ejects replica 0
        clock.advance(5.0)
        replicas[0].failure = ServiceFault("bad input", code="Client.BadInput")
        with pytest.raises(ServiceFault):
            balancer("work", {"tag": "x"})  # the probe: no failover
        key0 = next(k for k in balancer.states() if "work-0" in k)
        assert balancer.states()[key0]["status"] == "probation"
        replicas[0].failure = None
        calls = replicas[0].calls
        assert balancer("work", {"tag": "y"}) == "r0:y"  # probed again
        assert replicas[0].calls == calls + 1
        assert balancer.states()[key0]["status"] == "live"

    def test_all_replicas_dead_raises_last_failure(self):
        bus, broker, replicas, _ = replicated(2)
        for replica in replicas:
            replica.failure = TransportError("gone")
        balancer = ReplicaBalancer(broker, "WorkService", bus=bus)
        with pytest.raises(TransportError):
            balancer("work", {"tag": "x"})

    def test_exhausted_socket_errors_surface_as_transport_error(self):
        # Two rest replicas at closed ports: every attempt dies with a
        # raw ConnectionRefusedError (an OSError, failover-eligible).
        # Once the set is exhausted the *caller* must see the fault
        # taxonomy, not a bare socket error.
        import socket

        def refused_port():
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
            return port

        broker = ServiceBroker()
        endpoints = [
            Endpoint("rest", f"http://127.0.0.1:{refused_port()}/rest/WorkService")
            for _ in range(2)
        ]
        broker.publish(Worker.contract(), endpoints)
        balancer = ReplicaBalancer(broker, "WorkService")
        try:
            with pytest.raises(TransportError, match="all replicas"):
                balancer("work", {"tag": "x"})
        finally:
            balancer.close()

    def test_application_faults_do_not_fail_over(self):
        bus, broker, replicas, _ = replicated(2)
        for replica in replicas:
            replica.failure = ServiceFault("bad input", code="Client.BadInput")
        balancer = ReplicaBalancer(
            broker, "WorkService", bus=bus, rng=random.Random(0)
        )
        with pytest.raises(ServiceFault):
            balancer("work", {"tag": "x"})
        # exactly one replica was consulted: app faults are not retried
        assert sum(replica.calls for replica in replicas) == 1


class TestRetryAfterCooldown:
    def test_retry_after_cools_the_shedding_replica(self):
        clock = ManualClock()
        bus, broker, replicas, endpoints = replicated(2)
        preload(broker, endpoints[0], ok=100)
        preload(broker, endpoints[1], ok=90, faults=10)
        replicas[0].failure = ServiceUnavailable("shedding", retry_after=30.0)
        balancer = ReplicaBalancer(
            broker,
            "WorkService",
            bus=bus,
            clock=clock,
            sleep=clock.sleep,
            rng=FirstSample(),
        )
        # the first call hits replica 0, sees the 503 hint, cools it
        assert balancer("work", {"tag": "x"})
        key0 = next(k for k in balancer.states() if "work-0" in k)
        assert balancer.states()[key0]["status"] == "cooling"
        # for the advertised 30s, no traffic reaches the cooling replica
        assert replicas[0].calls == 1
        for _ in range(10):
            balancer("work", {"tag": "x"})
        assert replicas[0].calls == 1
        # provider recovered; cooldown expiry returns it to rotation
        replicas[0].failure = None
        clock.advance(30.0)
        assert balancer.states()[key0]["status"] == "live"
        balancer("work", {"tag": "x"})
        assert replicas[0].calls == 2

    def test_cooldown_does_not_eject(self):
        clock = ManualClock()
        bus, broker, replicas, endpoints = replicated(2)
        preload(broker, endpoints[0], ok=100)
        replicas[0].failure = ServiceUnavailable("shedding", retry_after=9.0)
        balancer = ReplicaBalancer(
            broker,
            "WorkService",
            bus=bus,
            clock=clock,
            sleep=clock.sleep,
            rng=FirstSample(),
        )
        balancer("work", {"tag": "x"})
        key0 = next(k for k in balancer.states() if "work-0" in k)
        assert balancer.states()[key0]["status"] == "cooling"
        assert balancer.states()[key0]["ejections"] == 0


class TestHedging:
    def hosted(self, behaviors, healths):
        """Host behaviors at work-0.., preload health records per spec."""
        bus = ServiceBus()
        broker = ServiceBroker()
        endpoints = []
        for i, behavior in enumerate(behaviors):
            endpoints.append(
                Endpoint("inproc", bus.host(Worker(behavior), f"work-{i}"))
            )
        broker.publish(Worker.contract(), endpoints)
        for endpoint, (ok, faults) in zip(endpoints, healths):
            preload(broker, endpoint, ok=ok, faults=faults)
        return bus, broker, endpoints

    def test_hedge_races_second_replica_and_fast_leg_wins(self):
        slow_gate = threading.Event()
        calls = {"slow": 0, "fast": 0}

        def slow_behavior(tag):
            calls["slow"] += 1
            slow_gate.wait(2.0)
            return "slow"

        def fast_behavior(tag):
            calls["fast"] += 1
            return "fast"

        # pin P2C on the slow replica by tarnishing the fast one's record
        bus, broker, _ = self.hosted(
            [slow_behavior, fast_behavior], [(1, 0), (0, 1)]
        )
        try:
            with observed() as obs:
                balancer = ReplicaBalancer(
                    broker,
                    "WorkService",
                    bus=bus,
                    rng=FirstSample(),
                    hedge=HedgePolicy(min_delay=0.01, max_delay=0.05),
                )
                started = time.monotonic()
                result = balancer("work", {"tag": "x"})
                elapsed = time.monotonic() - started
                assert result == "fast"  # the hedge leg won
                assert elapsed < 1.0     # nobody waited out the slow leg
                assert calls == {"slow": 1, "fast": 1}
                hedges = obs.instruments.replica_hedges
                assert hedges.value(service="WorkService", result="launched") == 1
                assert hedges.value(service="WorkService", result="hedge_won") == 1
        finally:
            slow_gate.set()

    def test_non_idempotent_operations_are_never_hedged(self):
        bus, broker, replicas, endpoints = replicated(2)
        preload(broker, endpoints[0], ok=1)
        preload(broker, endpoints[1], faults=1)
        with observed() as obs:
            balancer = ReplicaBalancer(
                broker,
                "WorkService",
                bus=bus,
                rng=FirstSample(),
                hedge=HedgePolicy(min_delay=0.001, max_delay=0.001),
            )
            assert balancer("mutate", {"tag": "x"}).endswith(":x")
            assert replicas[0].calls + replicas[1].calls == 1
            launched = obs.instruments.replica_hedges.value(
                service="WorkService", result="launched"
            )
            assert launched == 0

    def test_hedged_call_falls_back_to_spares_when_both_legs_fail(self):
        calls = {"slow_dead": 0, "fast_dead": 0, "ok": 0}

        def slow_dead(tag):
            calls["slow_dead"] += 1
            time.sleep(0.05)
            raise TransportError("slow crash")

        def fast_dead(tag):
            calls["fast_dead"] += 1
            raise TransportError("fast crash")

        def healthy(tag):
            calls["ok"] += 1
            return "spare"

        # health order: slow_dead > fast_dead > healthy, so the two dead
        # replicas are exactly the primary + hedge pair
        bus, broker, _ = self.hosted(
            [slow_dead, fast_dead, healthy],
            [(100, 0), (98, 2), (90, 10)],
        )
        with observed() as obs:
            balancer = ReplicaBalancer(
                broker,
                "WorkService",
                bus=bus,
                rng=FirstSample(),
                hedge=HedgePolicy(min_delay=0.001, max_delay=0.001),
            )
            assert balancer("work", {"tag": "x"}) == "spare"
            assert calls == {"slow_dead": 1, "fast_dead": 1, "ok": 1}
            launched = obs.instruments.replica_hedges.value(
                service="WorkService", result="launched"
            )
            assert launched == 1


class TestMetrics:
    def test_replica_metrics_cover_the_lifecycle(self):
        clock = ManualClock()
        bus, broker, replicas, endpoints = replicated(2)
        preload(broker, endpoints[0], ok=100)
        preload(broker, endpoints[1], ok=90, faults=10)
        replicas[0].failure = TransportError("down")
        with observed() as obs:
            balancer = ReplicaBalancer(
                broker,
                "WorkService",
                bus=bus,
                clock=clock,
                sleep=clock.sleep,
                rng=FirstSample(),
                ejection=CircuitPolicy(
                    failure_threshold=2, recovery_seconds=1.0
                ),
            )
            balancer("work", {"tag": "x"})  # fail over, then succeed
            balancer("work", {"tag": "x"})  # second failure: ejected
            replicas[0].failure = None
            clock.advance(1.0)
            balancer("work", {"tag": "x"})  # probe + readmit
            calls = obs.instruments.replica_calls
            events = obs.instruments.replica_events
            assert calls.value(service="WorkService", outcome="ok") == 3
            assert calls.value(service="WorkService", outcome="failover") == 2
            assert events.value(service="WorkService", event="eject") == 1
            assert events.value(service="WorkService", event="probe") == 1
            assert events.value(service="WorkService", event="readmit") == 1
            live = obs.instruments.replica_live.value(service="WorkService")
            assert live == 2
