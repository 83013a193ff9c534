"""Model-based test of the circuit breaker's closed/open/half-open machine.

Hypothesis drives one :class:`EndpointBreaker` on a :class:`ManualClock`
with random sequences of rules — a call that succeeds, a call that
fails, a call that fails with a ``Retry-After`` hint, advancing the
clock, starting a call that stays in flight (a gated concurrent caller,
which in half-open is *the* probe, or an ungated one admitted through
``admit``), and finishing it later with a success, a failure or no
verdict at all — while a tiny reference model predicts the state, the
run of failures, the generation (trips so far), the ``fast_fails``
count, the ``retry_after`` hint of every fast-fail, every ticket, and
the transitions the breaker reports.  A call held in flight across a
trip answers for a breaker that has judged the endpoint since: its
outcome must change nothing.  At most one half-open probe of the current
generation may ever be in flight.
"""

import itertools
import random
import sys
import threading

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.faults import ServiceUnavailable
from repro.resilience import CircuitPolicy, EndpointBreaker, ManualClock

RECOVERY = 5.0


class Boom(Exception):
    """The guarded provider's failure."""


class ModelBreaker:
    """What the breaker should be, in a few dozen lines.

    Tickets are ``(generation, probe)`` pairs; an outcome whose
    generation is not the current one is stale and changes nothing.
    """

    def __init__(self, threshold):
        self.threshold = threshold
        self.state = "closed"
        self.failures = 0
        self.generation = 0
        self.opened_at = 0.0
        self.probe_in_flight = False
        self.fast_fails = 0

    def decay(self, now):
        if self.state == "open" and now - self.opened_at >= RECOVERY:
            self.state = "half-open"

    def gate(self, now):
        """``(admitted, ticket, retry_after)`` for one arriving gated call."""
        self.decay(now)
        if self.state == "open":
            self.fast_fails += 1
            return False, None, max(RECOVERY - (now - self.opened_at), 0.0)
        if self.state == "half-open":
            if self.probe_in_flight:
                self.fast_fails += 1
                return False, None, RECOVERY
            self.probe_in_flight = True
            return True, (self.generation, True), None
        return True, (self.generation, False), None

    def admit(self, now, probe):
        """``(state, ticket)`` for one ungated call; claims a free probe
        only when asked to."""
        self.decay(now)
        if self.state == "half-open":
            if self.probe_in_flight:
                return "probing", (self.generation, False)
            if probe:
                self.probe_in_flight = True
                return "half-open", (self.generation, True)
        return self.state, (self.generation, False)

    def succeeded(self, ticket):
        """Returns whether the success re-closed a tripped circuit."""
        if ticket[0] != self.generation:
            return False  # stale
        reclosed = self.state != "closed"
        self.failures = 0
        self.state = "closed"
        self.probe_in_flight = False
        return reclosed

    def failed(self, now, ticket):
        """Returns whether the failure tripped the circuit open.  While
        open, a failure counts but the open period runs on."""
        if ticket[0] != self.generation:
            return False  # stale
        self.failures += 1
        self.decay(now)
        if self.state == "open":
            return False
        if self.state == "half-open" or self.failures >= self.threshold:
            self.state = "open"
            self.opened_at = now
            self.probe_in_flight = False
            self.generation += 1
            return True
        return False

    def released(self, ticket):
        """A call that judged nothing frees the probe slot if it held it."""
        if ticket[1] and ticket[0] == self.generation:
            self.probe_in_flight = False


class BreakerModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.breaker = None

    @initialize(threshold=st.integers(1, 3))
    def world(self, threshold):
        self.clock = ManualClock()
        self.breaker = EndpointBreaker(
            CircuitPolicy(failure_threshold=threshold, recovery_seconds=RECOVERY),
            clock=self.clock,
            endpoint="node",
        )
        self.model = ModelBreaker(threshold)
        self.held = []  # tickets of the calls still in flight

    def call(self, outcome):
        """One synchronous ``breaker(fn)`` call; ``outcome`` is what fn does."""
        now = self.clock.now()
        admitted, ticket, retry_after = self.model.gate(now)
        touched = []

        def provider():
            touched.append(True)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        try:
            result = self.breaker(provider)
        except (ServiceUnavailable, Boom) as exc:
            raised = exc
        else:
            raised = None
        if not admitted:
            assert not touched, "a fast-failed call reached the provider"
            assert isinstance(raised, ServiceUnavailable)
            assert raised.fast_fail is True
            assert raised.retry_after == retry_after
            return
        assert touched, "an admitted call never reached the provider"
        if isinstance(outcome, Exception):
            assert raised is outcome, "the provider's own failure must surface"
            self.model.failed(now, ticket)
        else:
            assert raised is None and result == outcome
            self.model.succeeded(ticket)

    # -- rules -----------------------------------------------------------
    @rule()
    def succeed(self):
        self.call("ok")

    @rule()
    def fail(self):
        self.call(Boom("provider down"))

    @rule(hint=st.sampled_from([0.5, 2.0, 60.0]))
    def fail_with_retry_after(self, hint):
        # The breaker trips on the failure; the provider's hint is for
        # the retry layer and must reach the caller untouched.
        self.call(ServiceUnavailable("provider shedding", retry_after=hint))

    @rule(seconds=st.sampled_from([1.0, 2.5, 5.0, 7.5]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule()
    def start_concurrent_call(self):
        now = self.clock.now()
        admitted, ticket, retry_after = self.model.gate(now)
        try:
            got = self.breaker.before_call()
        except ServiceUnavailable as exc:
            assert not admitted
            assert exc.fast_fail is True and exc.retry_after == retry_after
        else:
            assert admitted and got == ticket
            self.held.append(got)

    @rule(probe=st.booleans())
    def start_ungated_call(self, probe):
        """A caller with nowhere else to go (the balancer's ladder)."""
        now = self.clock.now()
        state, ticket = self.breaker.admit(probe)
        assert (state, ticket) == self.model.admit(now, probe)
        self.held.append(ticket)

    @precondition(lambda self: self.breaker is not None and self.held)
    @rule(data=st.data(), verdict=st.sampled_from(["ok", "failed", "none"]))
    def finish_concurrent_call(self, data, verdict):
        self.finish(data.draw(st.integers(0, len(self.held) - 1)), verdict)

    @precondition(
        lambda self: self.breaker is not None
        and any(ticket.generation != self.model.generation for ticket in self.held)
    )
    @rule(data=st.data(), verdict=st.sampled_from(["ok", "failed", "none"]))
    def finish_call_held_across_a_trip(self, data, verdict):
        """A call sent before the latest trip answers: nothing changes."""
        stale = [
            index
            for index, ticket in enumerate(self.held)
            if ticket.generation != self.model.generation
        ]
        before = self.observed()
        self.finish(data.draw(st.sampled_from(stale)), verdict)
        assert self.observed() == before

    def finish(self, index, verdict):
        ticket = self.held.pop(index)
        if verdict == "ok":
            assert self.breaker.on_success(ticket) == self.model.succeeded(ticket)
        elif verdict == "failed":
            now = self.clock.now()
            assert self.breaker.on_failure(ticket) == self.model.failed(now, ticket)
        else:
            self.breaker.release(ticket)
            self.model.released(ticket)

    def observed(self):
        breaker = self.breaker
        return (
            breaker.state, breaker.failures, breaker.generation, breaker.fast_fails
        )

    # -- the model's prediction -----------------------------------------
    @invariant()
    def matches_model(self):
        if self.breaker is None:
            return
        self.model.decay(self.clock.now())
        model = self.model
        assert self.observed() == (
            model.state, model.failures, model.generation, model.fast_fails
        )

    @invariant()
    def at_most_one_probe(self):
        if self.breaker is None:
            return
        current = [
            ticket
            for ticket in self.held
            if ticket.probe and ticket.generation == self.model.generation
        ]
        assert len(current) <= 1
        # a current success closes the circuit and frees the probe slot
        assert self.model.probe_in_flight == (
            bool(current) and self.model.state != "closed"
        )


BreakerModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestBreakerModel = BreakerModel.TestCase


def replay(machine, steps):
    for step in steps:
        step()
        machine.matches_model()
        machine.at_most_one_probe()


def test_a_stale_straggler_neither_closes_nor_frees_the_probe():
    """A call admitted while closed answers after the trip, while the
    probe is out: stale, it leaves the circuit half-open with its probe
    in flight, and the probe's failure re-opens the circuit."""
    machine = BreakerModel()
    machine.world(threshold=2)
    replay(machine, [
        machine.start_concurrent_call,  # a call in flight while closed
        machine.fail,
        machine.fail,  # trips open
        lambda: machine.advance(RECOVERY),  # half-open
        machine.start_concurrent_call,  # the probe
        lambda: machine.finish(0, "ok"),  # the straggler succeeds: stale
    ])
    assert machine.breaker.state == "half-open"
    assert machine.held[0].probe
    assert machine.breaker.admit(False)[0] == "probing"
    replay(machine, [lambda: machine.finish(0, "failed")])  # the probe fails
    assert machine.breaker.state == "open"
    assert machine.breaker.generation == 2


def breaker_with_a_call_in_flight_across_a_trip(recovery):
    """Threshold 1: call A is admitted, then call B fails and trips."""
    clock = ManualClock()
    breaker = EndpointBreaker(
        CircuitPolicy(failure_threshold=1, recovery_seconds=recovery),
        clock=clock,
        endpoint="node",
    )
    late = breaker.before_call()  # call A
    assert breaker.on_failure(breaker.before_call()) is True  # call B trips
    return clock, breaker, late


def test_late_success_does_not_reclose_the_circuit():
    clock, breaker, late = breaker_with_a_call_in_flight_across_a_trip(30.0)
    clock.advance(1.0)
    assert breaker.on_success(late) is False
    assert breaker.state == "open"
    assert (breaker.failures, breaker.generation) == (1, 1)


def test_late_failure_does_not_extend_the_open_period():
    clock, breaker, late = breaker_with_a_call_in_flight_across_a_trip(5.0)
    clock.advance(4.0)
    assert breaker.on_failure(late) is False
    clock.advance(1.5)  # 5.5 s after the trip
    assert breaker.state == "half-open"
    assert breaker.failures == 1


def test_racing_callers_see_each_trip_once_and_one_probe_per_generation():
    """Eight threads drive one breaker whose clock moves on at every
    read, so it trips, lapses and probes over and over while their
    tickets race the lock-free closed path.  Every trip is reported
    exactly once, and no generation hands out two probes."""
    ticks = itertools.count()
    breaker = EndpointBreaker(
        CircuitPolicy(failure_threshold=2, recovery_seconds=0.02),
        clock=lambda: next(ticks) * 0.001,
    )
    trips, probes = [], []

    def caller(seed):
        rng = random.Random(seed)
        for _ in range(1500):
            try:
                ticket = breaker.before_call()
            except ServiceUnavailable:
                continue
            if ticket.probe:
                probes.append(ticket.generation)
            if rng.random() < 0.5:
                trips.append(breaker.on_failure(ticket))
            else:
                breaker.on_success(ticket)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(trips) == breaker.generation > 1
    assert len(probes) == len(set(probes)) > 0
