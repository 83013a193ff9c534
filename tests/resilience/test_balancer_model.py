"""Model-based test of the replica balancer's per-replica state machine.

Hypothesis drives a :class:`ReplicaBalancer` over inproc replicas with
random sequences of rules — call, fail replica *i*, heal replica *i*,
advance the clock, and park a call inside a replica's handler to finish
it (succeeding or failing) later — while a small reference model
predicts what :meth:`ReplicaBalancer.states` must report for every
replica: its status (``live``, ``cooling``, ``ejected``, ``probation``),
its run of failures, its ejection count and its calls in flight.  A
parked call that is still in flight when its replica is ejected must
change nothing when it finally answers: only calls sent since the
ejection (the probe) judge the replica.  Every call is also checked
against the failover ladder the statuses promise: a probation replica is
probed first, live replicas come before cooling ones, cooling before
ejected, and a call fails only after every replica failed.  A probe is
the only one: while a parked probe is in flight, its replica sits on the
ladder with the ejected ones until that probe's outcome is booked.
"""

import random
import threading

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import Endpoint, Service, ServiceBroker, ServiceBus, operation
from repro.core.faults import ServiceUnavailable, TransportError
from repro.resilience import CircuitPolicy, ManualClock, ReplicaBalancer

REPLICAS = 3
EJECTION = CircuitPolicy(failure_threshold=2, recovery_seconds=5.0)

#: Where each status sits on the failover ladder (probation replicas
#: beyond the one probe queue with the live ones).
TIER = {"live": 0, "probation": 0, "cooling": 1, "ejected": 2}


class Parking:
    """Holds the next call to reach any replica inside its handler."""

    def __init__(self):
        self.armed = False
        self.index = None  # the replica the parked call reached
        self.ok = True  # how the parked call answers once released
        self.entered = threading.Event()
        self.released = threading.Event()


class Node(Service):
    """One replica: answers with its index, or raises its failure."""

    category = "demo"

    def __init__(self, index, attempts, parking):
        self.index = index
        self.attempts = attempts
        self.parking = parking
        self.failure = None

    @operation
    def ping(self) -> int:
        """Record the attempt; park if asked to; answer or fail."""
        self.attempts.append(self.index)
        parking = self.parking
        if parking.armed:
            parking.armed = False
            parking.index = self.index
            parking.entered.set()
            assert parking.released.wait(10), "parked call never released"
            if not parking.ok:
                raise TransportError(f"node {self.index} late failure")
            return self.index
        if self.failure is not None:
            raise self.failure
        return self.index


class ModelReplica:
    """What the balancer should believe about one replica."""

    def __init__(self):
        self.failures = 0
        self.ejected = False
        self.ejected_until = 0.0
        self.cooling_until = 0.0
        self.ejections = 0
        self.inflight = 0
        self.probing = False  # a parked probe is in flight

    def status(self, now):
        if self.ejected:
            return "ejected" if now < self.ejected_until else "probation"
        return "cooling" if now < self.cooling_until else "live"

    def rung(self, now):
        """Where a call planned now puts the replica on its ladder."""
        status = self.status(now)
        return "ejected" if status == "probation" and self.probing else status

    def succeeded(self):
        """A success readmits the replica and clears failures and cooling."""
        self.probing = False
        self.failures = 0
        self.ejected = False
        self.ejected_until = 0.0
        self.cooling_until = 0.0

    def failed(self, now, retry_after):
        """A failure cools on a hint; a run of them, or a failed probe,
        ejects for one cooldown."""
        self.probing = False
        self.failures += 1
        if retry_after is not None:
            self.cooling_until = max(self.cooling_until, now + retry_after)
        probe = self.ejected and now >= self.ejected_until
        if probe or (
            not self.ejected and self.failures >= EJECTION.failure_threshold
        ):
            self.ejected = True
            self.ejected_until = now + EJECTION.recovery_seconds
            self.ejections += 1


class BalancerModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.balancer = None
        self.called = False
        self.parked = None  # (thread, outcome, replica, ejections when sent)

    @initialize(seed=st.integers(0, 2**16))
    def world(self, seed):
        self.attempts = []
        self.parking = Parking()
        self.clock = ManualClock()
        self.bus, self.broker = ServiceBus(), ServiceBroker()
        self.nodes = [
            Node(i, self.attempts, self.parking) for i in range(REPLICAS)
        ]
        self.endpoints = [
            Endpoint("inproc", self.bus.host(node, f"node-{node.index}"))
            for node in self.nodes
        ]
        self.broker.publish(Node.contract(), self.endpoints)
        self.balancer = ReplicaBalancer(
            self.broker,
            "Node",
            bus=self.bus,
            ejection=EJECTION,
            clock=self.clock,
            sleep=self.clock.advance,
            rng=random.Random(seed),
        )
        self.model = [ModelReplica() for _ in range(REPLICAS)]
        self.hints = [None] * REPLICAS  # retry_after of each failing replica

    # -- rules -----------------------------------------------------------
    @rule(
        index=st.integers(0, REPLICAS - 1),
        retry_after=st.none() | st.sampled_from([1.0, 3.0, 7.0]),
    )
    def fail(self, index, retry_after):
        if retry_after is None:
            failure = TransportError(f"node {index} down")
        else:
            failure = ServiceUnavailable(
                f"node {index} shedding", retry_after=retry_after
            )
        self.nodes[index].failure = failure
        self.hints[index] = retry_after

    @rule(index=st.integers(0, REPLICAS - 1))
    def heal(self, index):
        self.nodes[index].failure = None

    @rule(seconds=st.sampled_from([0.5, 1.0, 2.5, 5.0, 10.0]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule()
    def call(self):
        now = self.clock.now()
        before = [replica.rung(now) for replica in self.model]
        health = dict(self.broker.replica_health("Node"))
        del self.attempts[:]
        try:
            answer = self.balancer("ping", {})
        except (ServiceUnavailable, TransportError) as exc:
            answer, error = None, exc
        else:
            error = None
        attempts = list(self.attempts)
        self.called = True

        assert len(set(attempts)) == len(attempts), "a replica tried twice"
        failing = [self.nodes[i].failure is not None for i in range(REPLICAS)]
        if error is None:
            assert answer == attempts[-1]
            assert not failing[answer]
            assert all(failing[i] for i in attempts[:-1])
        else:
            # a dead replica surfaces only once every replica failed
            assert sorted(attempts) == list(range(REPLICAS))
            assert all(failing)
            assert f"node {attempts[-1]} " in str(error)
        self.check_ladder(attempts, before, health)
        self.apply(attempts, now)

    def apply(self, attempts, now):
        """Book each attempt's outcome in the model, in order."""
        for i in attempts:
            if self.nodes[i].failure is not None:
                self.model[i].failed(now, self.hints[i])
            else:
                self.model[i].succeeded()

    @precondition(lambda self: self.balancer is not None and self.parked is None)
    @rule()
    def park_call(self):
        """Send a call that stops inside the first replica it reaches."""
        outcome = {}
        now = self.clock.now()
        probation = [r.rung(now) == "probation" for r in self.model]

        def run():
            try:
                outcome["answer"] = self.balancer("ping", {})
            except (ServiceUnavailable, TransportError) as exc:
                outcome["error"] = exc

        self.parking.armed = True
        self.parking.entered.clear()
        self.parking.released.clear()
        thread = threading.Thread(target=run, name="parked-call", daemon=True)
        thread.start()
        assert self.parking.entered.wait(10), "the parked call never arrived"
        del self.attempts[:]
        self.called = True
        index = self.parking.index
        self.model[index].inflight += 1
        if any(probation):  # the call went to the probe first
            assert probation[index]
            self.model[index].probing = True
        self.parked = (thread, outcome, index, self.model[index].ejections)

    @precondition(
        lambda self: self.balancer is not None
        and self.parked is None
        and any(r.rung(self.clock.now()) == "probation" for r in self.model)
    )
    @rule()
    def park_probe(self):
        """Park a probation replica's one probe mid-call."""
        self.park_call()
        assert self.model[self.parked[2]].probing

    @precondition(lambda self: self.parked is not None)
    @rule(ok=st.booleans())
    def release_parked_call(self, ok):
        """Let the parked call answer; on failure it fails over."""
        thread, outcome, index, ejections = self.parked
        self.parked = None
        now = self.clock.now()
        del self.attempts[:]
        self.parking.ok = ok
        self.parking.released.set()
        thread.join(10)
        assert not thread.is_alive()
        attempts = list(self.attempts)  # the failover after a late failure
        replica = self.model[index]
        replica.inflight -= 1
        if replica.ejections == ejections:  # not ejected since it was sent
            if ok:
                replica.succeeded()
            else:
                replica.failed(now, None)
        if ok:
            assert outcome == {"answer": index} and not attempts
            return
        self.apply(attempts, now)
        healthy = [i for i in attempts if self.nodes[i].failure is None]
        if healthy:
            assert outcome == {"answer": healthy[0]} and attempts[-1] == healthy[0]
        else:
            assert "error" in outcome

    def teardown(self):
        if self.parked is not None:
            self.parking.released.set()
            self.parked[0].join(10)

    def check_ladder(self, attempts, before, health):
        """The attempt order follows the statuses held before the call."""
        tiers = [TIER[before[i]] for i in attempts]
        assert tiers == sorted(tiers), (attempts, before)
        if "probation" in before:
            assert before[attempts[0]] == "probation", (attempts, before)
        cooling = [
            self.model[i].cooling_until
            for i in attempts
            if before[i] == "cooling"
        ]
        assert cooling == sorted(cooling)
        # after the probe (if any) and the P2C winner, the remaining live
        # replicas go healthiest first; waiting probes count as health 0
        head = 2 if "probation" in before else 1
        live = [i for i in attempts if TIER[before[i]] == 0][head:]
        scores = [
            0.0 if before[i] == "probation" else health[self.endpoints[i]]
            for i in live
        ]
        assert scores == sorted(scores, reverse=True), (attempts, before)

    # -- the model's prediction -----------------------------------------
    @invariant()
    def states_match_model(self):
        if self.balancer is None:
            return
        observed = self.balancer.states()
        if not self.called:
            assert observed == {}
            return
        now = self.clock.now()
        assert observed == {
            endpoint.key: {
                "status": replica.status(now),
                "failures": replica.failures,
                "ejections": replica.ejections,
                "inflight": replica.inflight,
            }
            for endpoint, replica in zip(self.endpoints, self.model)
        }


BalancerModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestBalancerModel = BalancerModel.TestCase


def test_late_success_of_a_call_sent_before_ejection_does_not_readmit():
    """A call parked inside a replica while the replica is ejected, then
    answering, must leave it ejected: only the probe readmits it."""
    machine = BalancerModel()
    machine.world(seed=0)
    machine.park_call()
    for index in range(REPLICAS):
        machine.fail(index, None)
    machine.call()
    machine.call()  # the second run of failures ejects every replica
    for index in range(REPLICAS):
        machine.heal(index)
    machine.release_parked_call(True)
    machine.states_match_model()
    parked = machine.endpoints[machine.parking.index].key
    assert machine.balancer.states()[parked]["status"] == "ejected"


def test_a_second_call_during_probation_does_not_probe_again():
    """Two concurrent calls while a replica is on probation: the first
    probes it and parks there; the second must go elsewhere first."""
    machine = BalancerModel()
    machine.world(seed=0)
    for index in range(REPLICAS):
        machine.fail(index, None)
    machine.call()
    machine.call()  # every replica ejected
    for index in range(REPLICAS):
        machine.heal(index)
    machine.advance(5.0)  # every ejection lapses: all on probation
    machine.park_call()
    probe = machine.parking.index
    try:
        machine.call()
        heads = [probe, machine.attempts[0]]
        assert heads[1] != heads[0], heads
        machine.release_parked_call(True)
        machine.states_match_model()
    finally:
        machine.teardown()
