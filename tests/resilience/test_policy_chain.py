"""Unit tests for the resilience policy layer: every middleware in the
chain, deterministic via injected clocks/sleeps/RNGs."""

import random
import threading

import pytest

from repro.core import ServiceFault, ServiceUnavailable, TimeoutFault, TransportError
from repro.resilience import (
    BulkheadPolicy,
    ChaosPlan,
    CircuitBreakerRegistry,
    CircuitPolicy,
    EndpointBreaker,
    FallbackPolicy,
    ManualClock,
    ResiliencePolicy,
    ResilientInvoker,
    RetryBudget,
    RetryPolicy,
)


def make_invoker(fn, policy, **kwargs):
    """Wrap a (**kwargs)-style callable as a resilient (op, args) invoker."""
    return ResilientInvoker(lambda op, args: fn(**args), policy, **kwargs)


class TestRetryMiddleware:
    def test_retries_until_success(self):
        clock = ManualClock()
        calls = {"n": 0}

        def flaky(**kw):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ServiceUnavailable("down")
            return "up"

        invoker = make_invoker(
            flaky,
            ResiliencePolicy(retry=RetryPolicy(attempts=3, base_delay=1.0), circuit=None),
            clock=clock,
            sleep=clock.advance,
        )
        assert invoker("op", {}) == "up"
        assert calls["n"] == 3
        # exponential backoff: 1.0 + 2.0 simulated seconds slept
        assert clock.now() == pytest.approx(3.0)

    def test_non_retryable_faults_propagate_immediately(self):
        calls = {"n": 0}

        def bad_input(**kw):
            calls["n"] += 1
            raise ServiceFault("bad input", code="Client.BadInput")

        invoker = make_invoker(
            bad_input,
            ResiliencePolicy(retry=RetryPolicy(attempts=5), circuit=None),
        )
        with pytest.raises(ServiceFault):
            invoker("op", {})
        assert calls["n"] == 1  # application faults are never retried

    def test_jitter_is_deterministic_for_a_seeded_rng(self):
        def run_once(seed):
            clock = ManualClock()

            def always_down(**kw):
                raise TransportError("gone")

            invoker = make_invoker(
                always_down,
                ResiliencePolicy(
                    retry=RetryPolicy(attempts=4, base_delay=1.0, jitter=0.5),
                    circuit=None,
                ),
                clock=clock,
                sleep=clock.advance,
                rng=random.Random(seed),
            )
            with pytest.raises(TransportError):
                invoker("op", {})
            return clock.now()

        assert run_once(7) == run_once(7)  # same seed, same schedule
        assert run_once(7) != run_once(8)  # jitter actually jitters

    def test_retry_after_hint_raises_the_wait(self):
        clock = ManualClock()
        calls = {"n": 0}

        def throttled(**kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ServiceUnavailable("throttled", retry_after=9.0)
            return "ok"

        invoker = make_invoker(
            throttled,
            ResiliencePolicy(
                retry=RetryPolicy(attempts=2, base_delay=0.5), circuit=None
            ),
            clock=clock,
            sleep=clock.advance,
        )
        assert invoker("op", {}) == "ok"
        assert clock.now() == pytest.approx(9.0)  # hint dominated backoff

    def test_retry_budget_stops_retry_storms(self):
        budget = RetryBudget(ratio=0.1, burst=2)

        def always_down(**kw):
            raise ServiceUnavailable("down")

        invoker = make_invoker(
            always_down,
            ResiliencePolicy(retry=RetryPolicy(attempts=10), circuit=None),
            budget=budget,
        )
        with pytest.raises(ServiceUnavailable):
            invoker("op", {})
        # burst of 2 tokens (+0.1 deposit) allowed only 2 retries of 9
        assert budget.retries_allowed == 2
        assert budget.retries_denied == 1


class TestDeadlineMiddleware:
    def test_deadline_bounds_retries(self):
        clock = ManualClock()
        calls = {"n": 0}

        def always_down(**kw):
            calls["n"] += 1
            raise ServiceUnavailable("down")

        invoker = make_invoker(
            always_down,
            ResiliencePolicy(
                deadline_seconds=2.5,
                retry=RetryPolicy(attempts=100, base_delay=1.0, factor=1.0),
                circuit=None,
            ),
            clock=clock,
            sleep=clock.advance,
        )
        with pytest.raises(ServiceUnavailable):
            invoker("op", {})
        # attempts at t=0, 1, 2; the wait to t=3 would blow the deadline
        assert calls["n"] == 3

    def test_a_retry_the_deadline_stops_spends_no_budget(self):
        clock = ManualClock()
        budget = RetryBudget(ratio=0.1, burst=2.0)
        calls = {"n": 0}

        def always_down(**kw):
            calls["n"] += 1
            raise ServiceUnavailable("down")

        invoker = make_invoker(
            always_down,
            ResiliencePolicy(
                deadline_seconds=1.0,
                retry=RetryPolicy(attempts=3, base_delay=5.0),
                circuit=None,
            ),
            clock=clock,
            sleep=clock.advance,
            budget=budget,
        )
        for _ in range(2):
            with pytest.raises(ServiceUnavailable):
                invoker("op", {})
        # the 5 s backoff never fits the 1 s deadline: no retry ran, so
        # none was paid for
        assert calls["n"] == 2
        assert (budget.retries_allowed, budget.retries_denied) == (0, 0)
        assert budget.tokens == 2.0

    def test_latency_spike_surfaces_as_timeout_fault(self):
        clock = ManualClock()

        def slow(**kw):
            clock.advance(10.0)  # provider answers... eventually
            return "late"

        invoker = make_invoker(
            slow,
            ResiliencePolicy(deadline_seconds=1.0, retry=None, circuit=None),
            clock=clock,
        )
        with pytest.raises(TimeoutFault):
            invoker("op", {})


class TestCircuitMiddleware:
    def test_per_endpoint_isolation(self):
        clock = ManualClock()
        registry = CircuitBreakerRegistry(
            CircuitPolicy(failure_threshold=1, recovery_seconds=30), clock=clock
        )
        policy = ResiliencePolicy(
            retry=None, circuit=CircuitPolicy(failure_threshold=1, recovery_seconds=30)
        )

        def down(**kw):
            raise TransportError("down")

        def up(**kw):
            return "up"

        bad = make_invoker(down, policy, endpoint="soap:bad", clock=clock, breakers=registry)
        good = make_invoker(up, policy, endpoint="rest:good", clock=clock, breakers=registry)
        with pytest.raises(TransportError):
            bad("op", {})
        # bad endpoint's circuit is open; good endpoint is untouched
        with pytest.raises(ServiceUnavailable):
            bad("op", {})
        assert good("op", {}) == "up"
        assert registry.states() == {"soap:bad": "open", "rest:good": "closed"}

    def test_breaker_fast_fail_carries_retry_after(self):
        clock = ManualClock()
        breaker = EndpointBreaker(
            CircuitPolicy(failure_threshold=1, recovery_seconds=30), clock=clock
        )
        with pytest.raises(TransportError):
            breaker(lambda: (_ for _ in ()).throw(TransportError("x")))
        clock.advance(10)
        with pytest.raises(ServiceUnavailable) as info:
            breaker(lambda: "unreachable")
        assert info.value.fast_fail is True
        assert info.value.retry_after == pytest.approx(20.0)

    def test_half_open_allows_exactly_one_probe(self):
        clock = ManualClock()
        breaker = EndpointBreaker(
            CircuitPolicy(failure_threshold=1, recovery_seconds=5), clock=clock
        )
        with pytest.raises(TransportError):
            breaker(lambda: (_ for _ in ()).throw(TransportError("x")))
        clock.advance(6)  # open -> half-open

        release = threading.Event()
        started = threading.Event()
        outcomes = []

        def slow_probe():
            started.set()
            release.wait(timeout=5)
            return "probe-ok"

        def probe_thread():
            outcomes.append(breaker(slow_probe))

        thread = threading.Thread(target=probe_thread)
        thread.start()
        assert started.wait(timeout=5)
        # while the probe is in flight, every other caller fails fast
        for _ in range(5):
            with pytest.raises(ServiceUnavailable):
                breaker(lambda: "should not run")
        release.set()
        thread.join(timeout=5)
        assert outcomes == ["probe-ok"]
        assert breaker.state == "closed"


class TestBulkheadMiddleware:
    def test_excess_concurrency_fails_fast(self):
        policy = ResiliencePolicy(
            retry=None, circuit=None, bulkhead=BulkheadPolicy(max_concurrent=2)
        )
        release = threading.Event()
        entered = []
        entered_lock = threading.Lock()
        ready = threading.Barrier(3)

        def slow(**kw):
            with entered_lock:
                entered.append(1)
            ready.wait(timeout=5)
            release.wait(timeout=5)
            return "done"

        invoker = make_invoker(slow, policy)
        results, errors = [], []

        def call():
            try:
                results.append(invoker("op", {}))
            except ServiceUnavailable as exc:
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(2)]
        for thread in threads:
            thread.start()
        ready.wait(timeout=5)  # both holders are inside the bulkhead
        call()  # third caller: rejected synchronously
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert len(results) == 2
        assert len(errors) == 1
        assert errors[0].fast_fail is True


class TestFallbackMiddleware:
    def test_static_value_degradation(self):
        policy = ResiliencePolicy(
            retry=None, circuit=None,
            fallback=FallbackPolicy(value={"stale": True}),
        )

        def down(**kw):
            raise ServiceUnavailable("down")

        invoker = make_invoker(down, policy)
        assert invoker("op", {}) == {"stale": True}

    def test_last_good_value_cache(self):
        policy = ResiliencePolicy(
            retry=None, circuit=None, fallback=FallbackPolicy(use_last_good=True)
        )
        state = {"healthy": True}

        def sometimes(**kw):
            if not state["healthy"]:
                raise TransportError("down")
            return {"price": 42.0}

        invoker = make_invoker(sometimes, policy)
        assert invoker("quote", {}) == {"price": 42.0}
        state["healthy"] = False
        assert invoker("quote", {}) == {"price": 42.0}  # degraded, last good

    def test_no_cache_no_value_propagates(self):
        policy = ResiliencePolicy(
            retry=None, circuit=None, fallback=FallbackPolicy(use_last_good=True)
        )

        def down(**kw):
            raise TransportError("down")

        invoker = make_invoker(down, policy)
        with pytest.raises(TransportError):
            invoker("quote", {})  # nothing cached yet

    def test_application_faults_never_degraded(self):
        policy = ResiliencePolicy(
            retry=None, circuit=None,
            fallback=FallbackPolicy(value="fallback", use_last_good=True),
        )

        def bad(**kw):
            raise ServiceFault("bad input", code="Client.BadInput")

        invoker = make_invoker(bad, policy)
        with pytest.raises(ServiceFault):
            invoker("op", {})


class TestChaosPlan:
    def test_seeded_plans_are_reproducible(self):
        a = ChaosPlan.generate(2014, 50)
        b = ChaosPlan.generate(2014, 50)
        assert a.kinds() == b.kinds()
        assert [e.value for e in a.events] == [e.value for e in b.events]

    def test_different_seeds_differ(self):
        assert ChaosPlan.generate(1, 50).kinds() != ChaosPlan.generate(2, 50).kinds()

    def test_injector_specs_roundtrip(self):
        from repro.security import FaultInjector

        plan = ChaosPlan.generate(7, 30)
        clock = ManualClock()
        injector = FaultInjector(
            lambda **kw: "ok", plan.as_injector_specs(), sleep=clock.advance
        )
        outcomes = []
        for _ in range(len(plan)):
            try:
                outcomes.append(injector())
            except Exception as exc:  # noqa: BLE001 - collecting chaos outcomes
                outcomes.append(type(exc).__name__)
        kinds = plan.kinds()
        expected = {
            "ok": "ok",
            "latency": "ok",
            "fault": "ServiceFault",
            "unavailable": "ServiceUnavailable",
            "drop": "TransportError",
        }
        assert outcomes == [expected[kind] for kind in kinds]
        # injected latency advanced the manual clock, never slept for real
        planned_latency = sum(e.value for e in plan.events if e.kind == "latency")
        assert clock.now() == pytest.approx(planned_latency)

    def test_plan_consumption_and_reset(self):
        plan = ChaosPlan.generate(3, 5)
        assert plan.remaining() == 5
        plan.next_event()
        assert plan.remaining() == 4
        plan.reset()
        assert plan.remaining() == 5


class TestPolicyValidation:
    def test_rejects_nonsense_configuration(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            CircuitPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BulkheadPolicy(max_concurrent=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(deadline_seconds=0)
        with pytest.raises(ValueError):
            RetryBudget(ratio=0)

    def test_unprotected_policy_is_a_passthrough(self):
        invoker = make_invoker(lambda **kw: "plain", ResiliencePolicy.unprotected())
        assert invoker("op", {}) == "plain"
