"""Model-based test of the circuit breaker's closed/open/half-open machine.

Hypothesis drives one :class:`EndpointBreaker` on a :class:`ManualClock`
with random sequences of rules — a call that succeeds, a call that
fails, a call that fails with a ``Retry-After`` hint, advancing the
clock, and starting or finishing a call that stays in flight (a
concurrent caller, which in half-open is *the* probe) — while a tiny
reference model predicts the state, the ``fast_fails`` count, the
``retry_after`` hint of every fast-fail, and the transitions the
breaker reports.  At most one half-open probe may ever be in flight.
"""

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
    """What the breaker should be, in a dozen lines."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.probe_in_flight = False
        self.fast_fails = 0

    def decay(self, now):
        if self.state == "open" and now - self.opened_at >= RECOVERY:
            self.state = "half-open"

    def gate(self, now):
        """``(admitted, probing, retry_after)`` for one arriving call."""
        self.decay(now)
        if self.state == "open":
            self.fast_fails += 1
            return False, False, max(RECOVERY - (now - self.opened_at), 0.0)
        if self.state == "half-open":
            if self.probe_in_flight:
                self.fast_fails += 1
                return False, False, RECOVERY
            self.probe_in_flight = True
            return True, True, None
        return True, False, None

    def succeeded(self, probing):
        """Returns whether the success re-closed a tripped circuit."""
        if probing:
            self.probe_in_flight = False
        reclosed = self.state != "closed"
        self.failures = 0
        self.state = "closed"
        return reclosed

    def failed(self, now, probing):
        """Returns whether the failure tripped the circuit open."""
        if probing:
            self.probe_in_flight = False
        self.failures += 1
        if probing or self.failures >= self.threshold:
            opened = self.state != "open"
            self.state = "open"
            self.opened_at = now
            return opened
        return False


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
        self.held = []  # probing flags of the calls still in flight

    def call(self, outcome):
        """One synchronous ``breaker(fn)`` call; ``outcome`` is what fn does."""
        now = self.clock.now()
        admitted, probing, retry_after = self.model.gate(now)
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
            self.model.failed(now, probing)
        else:
            assert raised is None and result == outcome
            self.model.succeeded(probing)

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
        admitted, probing, retry_after = self.model.gate(now)
        try:
            got = self.breaker.before_call()
        except ServiceUnavailable as exc:
            assert not admitted
            assert exc.fast_fail is True and exc.retry_after == retry_after
        else:
            assert admitted and got == probing
            self.held.append(probing)

    @precondition(lambda self: self.breaker is not None and self.held)
    @rule(data=st.data(), ok=st.booleans())
    def finish_concurrent_call(self, data, ok):
        self.finish(data.draw(st.integers(0, len(self.held) - 1)), ok)

    def finish(self, index, ok):
        probing = self.held.pop(index)
        if ok:
            assert self.breaker.on_success(probing) == self.model.succeeded(probing)
        else:
            now = self.clock.now()
            assert self.breaker.on_failure(probing) == self.model.failed(
                now, probing
            )

    # -- the model's prediction -----------------------------------------
    @invariant()
    def matches_model(self):
        if self.breaker is None:
            return
        self.model.decay(self.clock.now())
        assert self.breaker.state == self.model.state
        assert self.breaker.fast_fails == self.model.fast_fails

    @invariant()
    def at_most_one_probe(self):
        if self.breaker is None:
            return
        assert sum(self.held) <= 1
        assert self.model.probe_in_flight == any(self.held)


BreakerModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestBreakerModel = BreakerModel.TestCase


def test_probe_failure_reopens_after_a_straggler_closed_the_circuit():
    """The one path where a failed probe is not also the threshold-th
    failure in a row, so only the half-open rule re-opens the circuit.
    Random search rarely walks it; this run of the machine does."""
    machine = BreakerModel()
    machine.world(threshold=2)
    steps = [
        machine.start_concurrent_call,  # a call in flight while closed
        machine.fail,
        machine.fail,  # trips open
        lambda: machine.advance(RECOVERY),  # half-open
        machine.start_concurrent_call,  # the probe
        lambda: machine.finish(0, True),  # the straggler succeeds: closed
        lambda: machine.finish(0, False),  # the probe fails: open again
    ]
    for step in steps:
        step()
        machine.matches_model()
        machine.at_most_one_probe()
    assert machine.breaker.state == "open"
