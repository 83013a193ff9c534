"""publish_replicated / ReplicaSet: shape, lifecycle, fleet SLOs.

Real sockets throughout — each test stands up N :class:`HttpServer`
nodes on loopback, which is exactly what the production path does.
Kept small (2-3 replicas, handfuls of calls) so the suite stays fast.
"""

import pytest

from repro.core import Service, ServiceBroker, operation
from repro.core.faults import ServiceFault
from repro.observability import BurnRateRule
from repro.replication import (
    NODE_REQUESTS_FAMILY,
    publish_replicated,
    replica_objectives,
    watch_replica_set,
)
from repro.resilience import CircuitPolicy, ReplicaBalancer
from repro.services import FleetMonitor
from repro.transport import HttpClient

pytestmark = pytest.mark.obs


class Echo(Service):
    """Minimal replicated provider."""

    category = "demo"

    @operation(idempotent=True)
    def say(self, text: str) -> str:
        """Return the text unchanged."""
        return text


def manual_clock(value=0.0):
    state = [value]

    def clock():
        return state[0]

    clock.advance = lambda d: state.__setitem__(0, state[0] + d)  # type: ignore[attr-defined]
    return clock


class TestPublishReplicated:
    def test_three_nodes_one_registration(self):
        broker = ServiceBroker()
        with publish_replicated(Echo, broker, 3) as replica_set:
            assert len(replica_set) == 3
            registration = broker.lookup("Echo")
            assert len(registration.endpoints) == 3
            # one distinct port per node, all rest-bound
            ports = {node.server.port for node in replica_set.nodes}
            assert len(ports) == 3
            assert all(e.binding == "rest" for e in registration.endpoints)
            assert all(node.alive for node in replica_set.nodes)

    def test_balancer_round_trips_over_the_set(self):
        broker = ServiceBroker()
        with publish_replicated(Echo, broker, 2) as replica_set:
            balancer = ReplicaBalancer(broker, "Echo")
            try:
                for i in range(6):
                    assert balancer("say", {"text": f"m{i}"}) == f"m{i}"
            finally:
                balancer.close()
            # every request landed in some node's private registry
            served = sum(
                node.registry.get(NODE_REQUESTS_FAMILY)
                .value(service="Echo", outcome="ok")
                for node in replica_set.nodes
            )
            assert served == 6

    def test_each_node_serves_its_own_metrics(self):
        broker = ServiceBroker()
        with publish_replicated(Echo, broker, 2) as replica_set:
            node = replica_set.node(0)
            client = HttpClient(node.server.host, node.server.port)
            try:
                body = client.get("/metrics").body.decode()
            finally:
                client.close()
            assert NODE_REQUESTS_FAMILY in body or "# " in body

    def test_soap_and_rest_bindings_per_node(self):
        broker = ServiceBroker()
        with publish_replicated(
            Echo, broker, 2, bindings=("soap", "rest")
        ) as replica_set:
            registration = broker.lookup("Echo")
            assert len(registration.endpoints) == 4
            bindings = sorted(e.binding for e in registration.endpoints)
            assert bindings == ["rest", "rest", "soap", "soap"]
            assert set(replica_set.node(0).endpoints) == {"soap", "rest"}

    def test_input_validation(self):
        broker = ServiceBroker()
        with pytest.raises(ServiceFault):
            publish_replicated(Echo, broker, 0)
        with pytest.raises(ServiceFault):
            publish_replicated(Echo, broker, 1, bindings=("grpc",))
        with pytest.raises(ServiceFault):
            publish_replicated(Echo, broker, 1, bindings=())
        assert "Echo" not in broker  # nothing half-published


class TestLifecycle:
    def test_kill_is_silent_and_restart_keeps_addresses(self):
        broker = ServiceBroker()
        with publish_replicated(Echo, broker, 2) as replica_set:
            before = [e.address for e in broker.lookup("Echo").endpoints]
            killed = replica_set.kill(1)
            assert not killed.alive
            # a crash tells the broker nothing: registration unchanged
            assert [
                e.address for e in broker.lookup("Echo").endpoints
            ] == before
            replica_set.restart(1)
            assert killed.alive
            assert [
                e.address for e in broker.lookup("Echo").endpoints
            ] == before
            # the reborn node actually serves on the old port
            balancer = ReplicaBalancer(broker, "Echo")
            try:
                assert balancer("say", {"text": "back"}) == "back"
            finally:
                balancer.close()

    def test_calls_survive_a_dead_replica(self):
        broker = ServiceBroker()
        with publish_replicated(Echo, broker, 3) as replica_set:
            replica_set.kill(0)
            balancer = ReplicaBalancer(
                broker,
                "Echo",
                ejection=CircuitPolicy(failure_threshold=1, recovery_seconds=60.0),
            )
            try:
                for i in range(8):
                    assert balancer("say", {"text": str(i)}) == str(i)
            finally:
                balancer.close()

    def test_drain_removes_from_rotation_reversibly(self):
        broker = ServiceBroker()
        with publish_replicated(Echo, broker, 2) as replica_set:
            drained = set(replica_set.node(0).endpoints.values())
            replica_set.drain(0)
            preferred = set(broker.endpoints_by_preference("Echo"))
            assert preferred.isdisjoint(drained)
            replica_set.undrain(0)
            assert drained <= set(broker.endpoints_by_preference("Echo"))

    def test_leave_unpublishes_the_node_for_good(self):
        broker = ServiceBroker()
        with publish_replicated(Echo, broker, 2) as replica_set:
            leaver = replica_set.node(0)
            replica_set.leave(0)
            assert not leaver.alive
            assert leaver.endpoints == {}
            remaining = broker.lookup("Echo").endpoints
            assert remaining == list(replica_set.node(1).endpoints.values())


class TestFleetSlos:
    def test_objectives_pin_the_service_label(self):
        availability, latency = replica_objectives("Echo")
        assert availability.labels == {"service": "Echo"}
        assert latency.labels == {"service": "Echo"}
        assert availability.kind == "availability"
        assert latency.kind == "latency"

    def test_watch_tick_reports_per_service_slos(self):
        clock = manual_clock()
        broker = ServiceBroker()
        monitor = FleetMonitor()
        with publish_replicated(Echo, broker, 2) as replica_set:
            engine = watch_replica_set(
                monitor,
                replica_set,
                rules=[BurnRateRule(10.0, 30.0, burn_threshold=2.0)],
                clock=clock,
            )
            balancer = ReplicaBalancer(broker, "Echo")
            try:
                for i in range(6):
                    balancer("say", {"text": str(i)})
            finally:
                balancer.close()
            assert monitor.watched_services() == ["Echo"]
            transitions = monitor.tick(now=clock())
            assert transitions == []  # healthy fleet: nothing fires
            report = [
                row for row in monitor.slo_report() if row.get("service") == "Echo"
            ]
            assert {row["objective"] for row in report} == {
                "Echo-availability", "Echo-latency",
            }
            assert all(row["compliant"] for row in report)
            availability = next(
                row for row in report if row["kind"] == "availability"
            )
            assert availability["total"] == 6  # summed across both nodes
            # alerts stay quiet and carry the service tag when present
            assert [a for a in monitor.alerts() if a.get("state") == "firing"] == []
            monitor.close()

    def test_killed_replica_keeps_service_slo_green(self):
        clock = manual_clock()
        broker = ServiceBroker()
        monitor = FleetMonitor()
        with publish_replicated(Echo, broker, 2) as replica_set:
            engine = watch_replica_set(
                monitor,
                replica_set,
                rules=[BurnRateRule(10.0, 30.0, burn_threshold=2.0)],
                clock=clock,
            )
            balancer = ReplicaBalancer(
                broker,
                "Echo",
                ejection=CircuitPolicy(failure_threshold=1, recovery_seconds=60.0),
            )
            try:
                for i in range(4):
                    balancer("say", {"text": str(i)})
                replica_set.kill(0)
                for i in range(4):
                    assert balancer("say", {"text": str(i)}) == str(i)
            finally:
                balancer.close()
            transitions = monitor.tick(now=clock())
            assert transitions == []
            report = [
                row for row in monitor.slo_report() if row.get("service") == "Echo"
            ]
            # the survivor's scrape alone satisfies the fleet objective
            assert all(row["compliant"] for row in report)
            down = [t for t in monitor.targets() if not t["up"]]
            assert len(down) == 1  # the corpse is visible per-node...
            assert monitor.engine is None  # ...but pages no global engine
            monitor.close()
