"""Model-based test of the replica balancer's per-replica state machine.

Hypothesis drives a :class:`ReplicaBalancer` over inproc replicas with
random sequences of four rules — call, fail replica *i*, heal replica
*i*, advance the clock — while a small reference model predicts what
:meth:`ReplicaBalancer.states` must report for every replica: its status
(``live``, ``cooling``, ``ejected``, ``probation``), its run of failures
and its ejection count.  Every call is also checked against the failover
ladder the statuses promise: a probation replica is probed first, live
replicas come before cooling ones, cooling before ejected, and a call
fails only after every replica failed.
"""

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import Endpoint, Service, ServiceBroker, ServiceBus, operation
from repro.core.faults import ServiceUnavailable, TransportError
from repro.resilience import EjectionPolicy, ManualClock, ReplicaBalancer

REPLICAS = 3
EJECTION = EjectionPolicy(consecutive_failures=2, readmit_after=5.0)

#: Where each status sits on the failover ladder (probation replicas
#: beyond the one probe queue with the live ones).
TIER = {"live": 0, "probation": 0, "cooling": 1, "ejected": 2}


class Node(Service):
    """One replica: answers with its index, or raises its failure."""

    category = "demo"

    def __init__(self, index, attempts):
        self.index = index
        self.attempts = attempts
        self.failure = None

    @operation
    def ping(self) -> int:
        """Record the attempt; answer or fail."""
        self.attempts.append(self.index)
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

    def status(self, now):
        if self.ejected:
            return "ejected" if now < self.ejected_until else "probation"
        return "cooling" if now < self.cooling_until else "live"

    def succeeded(self):
        """A success readmits the replica and clears failures and cooling."""
        self.failures = 0
        self.ejected = False
        self.ejected_until = 0.0
        self.cooling_until = 0.0

    def failed(self, now, retry_after):
        """A failure cools on a hint; a run of them, or a failed probe,
        ejects for one cooldown."""
        self.failures += 1
        if retry_after is not None:
            self.cooling_until = max(self.cooling_until, now + retry_after)
        probe = self.ejected and now >= self.ejected_until
        if probe or (
            not self.ejected and self.failures >= EJECTION.consecutive_failures
        ):
            self.ejected = True
            self.ejected_until = now + EJECTION.readmit_after
            self.ejections += 1


class BalancerModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.balancer = None
        self.called = False

    @initialize(seed=st.integers(0, 2**16))
    def world(self, seed):
        self.attempts = []
        self.clock = ManualClock()
        self.bus, self.broker = ServiceBus(), ServiceBroker()
        self.nodes = [Node(i, self.attempts) for i in range(REPLICAS)]
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
        before = [replica.status(now) for replica in self.model]
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

        for i in attempts:
            if failing[i]:
                self.model[i].failed(now, self.hints[i])
            else:
                self.model[i].succeeded()

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
                "inflight": 0,
            }
            for endpoint, replica in zip(self.endpoints, self.model)
        }


BalancerModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestBalancerModel = BalancerModel.TestCase
