"""Model-based test of the SLO alert lifecycle.

Hypothesis drives one :class:`SloEngine` (one availability objective,
one burn-rate rule with a drawn ``for_seconds`` hold) on an injected
clock with random sequences of rules — good and bad traffic on the
counter the objective reads, and evaluation ticks after a drawn clock
advance — while a small reference model recomputes both burn rates from
its own record of the cumulative counts and predicts every transition
of the alert.  Beside the model, the events published on the bus must
alternate ``firing``/``resolved`` starting with ``firing`` (exactly one
``firing`` per episode, ``resolved`` only after it), and every
``firing`` must come at least ``for_seconds`` after the burn began.
A second machine drives :class:`AlertState` directly with raw
conditions, where a pending hold can also end without firing.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.events.bus import EventBus
from repro.observability import (
    TOPIC_FIRING,
    TOPIC_RESOLVED,
    AlertState,
    BurnRateRule,
    MetricsRegistry,
    SloEngine,
    SloObjective,
)

SHORT, LONG, THRESHOLD = 10.0, 20.0, 2.0
HOLDS = st.sampled_from([0.0, 4.0, 10.0])

#: A budget of 0.25 is exact in binary, so a window exactly at the
#: threshold (as many bad calls as good) burns exactly 2.0 and must not fire.
OBJECTIVE = SloObjective(
    name="calls-ok",
    family="calls_total",
    objective=0.75,
    kind="availability",
)


class ModelAlert:
    """What one alert should do, given the condition at each tick."""

    def __init__(self, hold):
        self.hold = hold
        self.since = None  # when the current run of true conditions began
        self.fired = False
        self.episodes = 0

    @property
    def state(self):
        if self.fired:
            return "firing"
        return "inactive" if self.since is None else "pending"

    def observe(self, condition, now):
        if not condition:
            fired, self.since, self.fired = self.fired, None, False
            return "resolved" if fired else None
        starting = self.since is None
        if starting:
            self.since = now
        if not self.fired and now - self.since >= self.hold:
            self.fired = True
            self.episodes += 1
            return "firing"
        return "pending" if starting else None


class ModelBurn:
    """Every cumulative (t, good, total) point; burn over a trailing window."""

    def __init__(self):
        self.points = []

    def burn(self, now, window):
        latest = self.points[-1]
        baseline = self.points[0]
        for point in self.points:
            if point[0] <= now - window:
                baseline = point
        total = latest[2] - baseline[2]
        if total <= 0:
            return 0.0
        bad = total - (latest[1] - baseline[1])
        return (bad / total) / OBJECTIVE.error_budget


class SloEngineModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = None

    @initialize(hold=HOLDS)
    def world(self, hold):
        self.now = 0.0
        self.registry = MetricsRegistry()
        self.calls = self.registry.counter("calls_total", labelnames=("outcome",))
        self.good = self.total = 0
        bus = EventBus()  # unstarted: synchronous delivery
        self.events = []
        bus.subscribe("slo.alert.*", lambda event: self.events.append(event))
        self.rule = BurnRateRule(
            SHORT, LONG, burn_threshold=THRESHOLD, for_seconds=hold
        )
        self.engine = SloEngine(
            [OBJECTIVE], rules=[self.rule], bus=bus, clock=lambda: self.now
        )
        self.alert = ModelAlert(hold)
        self.burn = ModelBurn()

    @rule(good=st.sampled_from([0, 5, 20]), bad=st.sampled_from([0, 1, 5, 20]))
    def traffic(self, good, bad):
        if good:
            self.calls.inc(good, outcome="ok")
        if bad:
            self.calls.inc(bad, outcome="fault")
        self.good += good
        self.total += good + bad

    @rule(seconds=st.sampled_from([1.0, 2.5, 5.0, 12.0]))
    def tick(self, seconds):
        self.now += seconds
        self.burn.points.append((self.now, self.good, self.total))
        condition = (
            self.burn.burn(self.now, SHORT) > THRESHOLD
            and self.burn.burn(self.now, LONG) > THRESHOLD
        )
        expected = self.alert.observe(condition, self.now)
        published = len(self.events)
        transitions = self.engine.evaluate(self.registry.collect())
        reported = [t["transition"] for t in transitions]
        assert reported == ([expected] if expected in ("firing", "resolved") else [])
        assert [e.payload for e in self.events[published:]] == transitions
        for payload in transitions:
            burning = (
                payload["burn_short"] > THRESHOLD and payload["burn_long"] > THRESHOLD
            )
            assert burning == (payload["transition"] == "firing")

    @invariant()
    def matches_model(self):
        if self.engine is None:
            return
        (alert,) = self.engine.alerts()
        assert (alert["state"], alert["episodes"]) == (
            self.alert.state,
            self.alert.episodes,
        )

    @invariant()
    def one_firing_per_episode_then_resolved(self):
        if self.engine is None:
            return
        topics = [event.topic for event in self.events]
        assert topics == [TOPIC_FIRING, TOPIC_RESOLVED] * (len(topics) // 2) + (
            [TOPIC_FIRING] if len(topics) % 2 else []
        )
        for event in self.events:
            if event.topic == TOPIC_FIRING:
                payload = event.payload
                assert payload["at"] - payload["pending_since"] >= self.rule.for_seconds


SloEngineModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestSloEngineModel = SloEngineModel.TestCase


class AlertStateModel(RuleBasedStateMachine):
    """:class:`AlertState` fed raw conditions, ``pending`` included."""

    def __init__(self):
        super().__init__()
        self.state = None

    @initialize(hold=HOLDS)
    def world(self, hold):
        self.now = 0.0
        self.state = AlertState(OBJECTIVE, BurnRateRule(1.0, 1.0, for_seconds=hold))
        self.model = ModelAlert(hold)

    @rule(condition=st.booleans(), seconds=st.sampled_from([0.0, 1.0, 3.0, 4.0, 6.0]))
    def observe(self, condition, seconds):
        self.now += seconds
        expected = self.model.observe(condition, self.now)
        assert self.state.observe(condition, self.now) == expected

    @invariant()
    def matches_model(self):
        if self.state is None:
            return
        assert self.state.state == self.model.state
        assert self.state.episodes == self.model.episodes
        assert self.state.pending_since == self.model.since


AlertStateModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestAlertStateModel = AlertStateModel.TestCase
