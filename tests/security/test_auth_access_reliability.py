"""Tests for authentication, RBAC, and reliability patterns.

The circuit breaker and replica failover cases run against their one
implementation each, :class:`EndpointBreaker` and
:class:`ReplicaBalancer` from :mod:`repro.resilience`.
"""

import pytest

from repro.core import (
    AccessDenied,
    Endpoint,
    Service,
    ServiceBroker,
    ServiceBus,
    ServiceFault,
    ServiceUnavailable,
    TimeoutFault,
    operation,
)
from repro.resilience import (
    CircuitBreakerRegistry,
    CircuitPolicy,
    EndpointBreaker,
    ReplicaBalancer,
    ResiliencePolicy,
    ResilientInvoker,
)
from repro.security import (
    AccessControl,
    AuthError,
    Checkpointer,
    FaultInjector,
    PasswordPolicy,
    PasswordVault,
    TokenIssuer,
    hash_password,
    verify_password,
    with_retry,
    with_timeout,
)


class TestPasswordPolicy:
    def test_strong_password_accepted(self):
        assert PasswordPolicy().is_strong("Str0ng!pass")

    @pytest.mark.parametrize(
        "weak,expected_problem",
        [
            ("Sh0r!t", "shorter"),
            ("alllower1!", "uppercase"),
            ("ALLUPPER1!", "lowercase"),
            ("NoDigits!!", "digit"),
            ("NoSpecial11", "special"),
        ],
    )
    def test_weak_passwords_flagged(self, weak, expected_problem):
        problems = PasswordPolicy().problems(weak)
        assert any(expected_problem in p for p in problems)

    def test_custom_policy(self):
        policy = PasswordPolicy(min_length=4, require_special=False, require_upper=False)
        assert policy.is_strong("ab1c")


class TestPasswordHashing:
    def test_verify_correct_password(self):
        stored = hash_password("hunter2!")
        assert verify_password("hunter2!", stored)
        assert not verify_password("hunter3!", stored)

    def test_salting_makes_hashes_unique(self):
        assert hash_password("same") != hash_password("same")

    def test_garbage_stored_value(self):
        assert not verify_password("x", "not-a-valid-record")
        assert not verify_password("x", "zz$zz")


class TestPasswordVault:
    def test_set_and_login(self):
        vault = PasswordVault()
        vault.set_password("u1", "Str0ng!pass", "Str0ng!pass")
        assert vault.has_password("u1")
        assert vault.login("u1", "Str0ng!pass")
        assert not vault.login("u1", "wrong")

    def test_mismatch_rejected(self):
        vault = PasswordVault()
        with pytest.raises(AuthError, match="match"):
            vault.set_password("u1", "Str0ng!pass", "Different!1")

    def test_weak_rejected(self):
        vault = PasswordVault()
        with pytest.raises(AuthError, match="weak"):
            vault.set_password("u1", "weak", "weak")

    def test_unknown_user_login_fails(self):
        assert not PasswordVault().login("ghost", "x")

    def test_lockout_after_failures(self):
        vault = PasswordVault(max_failures=3)
        vault.set_password("u1", "Str0ng!pass", "Str0ng!pass")
        for _ in range(3):
            vault.login("u1", "wrong")
        with pytest.raises(AuthError, match="locked"):
            vault.login("u1", "Str0ng!pass")
        vault.unlock("u1")
        assert vault.login("u1", "Str0ng!pass")

    def test_success_resets_failures(self):
        vault = PasswordVault(max_failures=3)
        vault.set_password("u1", "Str0ng!pass", "Str0ng!pass")
        vault.login("u1", "wrong")
        vault.login("u1", "wrong")
        assert vault.login("u1", "Str0ng!pass")
        vault.login("u1", "wrong")
        vault.login("u1", "wrong")
        assert vault.login("u1", "Str0ng!pass")  # not locked


class TestTokenIssuer:
    def test_issue_and_authenticate(self):
        issuer = TokenIssuer()
        token = issuer.issue("alice", {"admin"})
        principal, roles = issuer.authenticate(token)
        assert principal == "alice"
        assert roles == frozenset({"admin"})

    def test_unknown_token(self):
        with pytest.raises(AuthError):
            TokenIssuer().authenticate("bogus")

    def test_expiry(self):
        clock = {"t": 0.0}
        issuer = TokenIssuer(ttl_seconds=10, clock=lambda: clock["t"])
        token = issuer.issue("bob")
        clock["t"] = 11
        with pytest.raises(AuthError, match="expired"):
            issuer.authenticate(token)

    def test_revoke(self):
        issuer = TokenIssuer()
        token = issuer.issue("bob")
        issuer.revoke(token)
        with pytest.raises(AuthError):
            issuer.authenticate(token)

    def test_active_count(self):
        clock = {"t": 0.0}
        issuer = TokenIssuer(ttl_seconds=10, clock=lambda: clock["t"])
        issuer.issue("a")
        issuer.issue("b")
        assert issuer.active_count() == 2
        clock["t"] = 20
        assert issuer.active_count() == 0


class TestAccessControl:
    @pytest.fixture
    def rbac(self):
        rbac = AccessControl()
        rbac.define_role("reader", {"doc.read"})
        rbac.define_role("editor", {"doc.write"}, inherits=["reader"])
        rbac.define_role("admin", {"user.manage"}, inherits=["editor"])
        rbac.assign_role("alice", "editor")
        rbac.assign_role("bob", "reader")
        return rbac

    def test_direct_permission(self, rbac):
        assert rbac.is_allowed("bob", "doc.read")
        assert not rbac.is_allowed("bob", "doc.write")

    def test_inherited_permission(self, rbac):
        assert rbac.is_allowed("alice", "doc.read")
        assert rbac.is_allowed("alice", "doc.write")
        assert not rbac.is_allowed("alice", "user.manage")

    def test_transitive_inheritance(self, rbac):
        rbac.assign_role("root", "admin")
        assert rbac.permissions_of("root") == {"doc.read", "doc.write", "user.manage"}
        assert rbac.roles_of("root") == {"admin", "editor", "reader"}

    def test_check_raises(self, rbac):
        with pytest.raises(AccessDenied):
            rbac.check("bob", "doc.write")
        rbac.check("alice", "doc.write")  # no raise

    def test_unknown_role_operations(self, rbac):
        with pytest.raises(ValueError):
            rbac.assign_role("x", "ghost")
        with pytest.raises(ValueError):
            rbac.grant_permission("ghost", "p")
        with pytest.raises(ValueError):
            rbac.define_role("r", inherits=["ghost"])

    def test_cycle_rejected(self, rbac):
        with pytest.raises(ValueError, match="cycle"):
            rbac.define_role("reader", inherits=["admin"])

    def test_grant_revoke(self, rbac):
        rbac.grant_permission("reader", "doc.list")
        assert rbac.is_allowed("bob", "doc.list")
        rbac.revoke_permission("reader", "doc.list")
        assert not rbac.is_allowed("bob", "doc.list")

    def test_unassign(self, rbac):
        rbac.unassign_role("bob", "reader")
        assert rbac.permissions_of("bob") == frozenset()


class TestRetry:
    def test_succeeds_after_failures(self):
        calls = {"n": 0}

        def flaky(**kwargs):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ServiceFault("transient")
            return "ok"

        assert with_retry(flaky, attempts=3)() == "ok"
        assert calls["n"] == 3

    def test_exhausted_reraises(self):
        def always_fails(**kwargs):
            raise ServiceFault("down")

        with pytest.raises(ServiceFault):
            with_retry(always_fails, attempts=2)()

    def test_non_retryable_passes_through(self):
        def type_error(**kwargs):
            raise TypeError("bug, not fault")

        calls = []

        with pytest.raises(TypeError):
            with_retry(lambda **kw: (calls.append(1), type_error())[1], attempts=3)()
        assert len(calls) == 1

    def test_backoff_schedule(self):
        sleeps = []

        def always_fails(**kwargs):
            raise ServiceFault("down")

        with pytest.raises(ServiceFault):
            with_retry(
                always_fails,
                attempts=4,
                backoff_seconds=1.0,
                backoff_factor=2.0,
                sleep=sleeps.append,
            )()
        assert sleeps == [1.0, 2.0, 4.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            with_retry(lambda: None, attempts=0)


class TestTimeout:
    def test_fast_call_passes(self):
        assert with_timeout(lambda **kw: 42, seconds=1.0)() == 42

    def test_slow_call_times_out(self):
        import time

        def slow(**kwargs):
            time.sleep(0.5)
            return "late"

        with pytest.raises(TimeoutFault):
            with_timeout(slow, seconds=0.05)()

    def test_exception_transported(self):
        def boom(**kwargs):
            raise KeyError("inner")

        with pytest.raises(KeyError):
            with_timeout(boom, seconds=1.0)()

    def test_validation(self):
        with pytest.raises(ValueError):
            with_timeout(lambda: None, seconds=0)


def failing_with(message):
    def fail():
        raise ServiceFault(message)

    return fail


class TestCircuitBreaker:
    def make(self, failure_threshold):
        self.clock = {"t": 0.0}
        return EndpointBreaker(
            CircuitPolicy(failure_threshold=failure_threshold, recovery_seconds=30),
            clock=lambda: self.clock["t"],
        )

    def test_trips_after_threshold(self):
        breaker = self.make(failure_threshold=3)
        for _ in range(3):
            with pytest.raises(ServiceFault):
                breaker(failing_with("down"))
        assert breaker.state == "open"
        with pytest.raises(ServiceUnavailable):
            breaker(failing_with("down"))

    def test_half_open_probe_success_closes(self):
        breaker = self.make(failure_threshold=1)
        with pytest.raises(ServiceFault):
            breaker(failing_with("down"))
        assert breaker.state == "open"
        self.clock["t"] = 31
        assert breaker(lambda: "ok") == "ok"
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        breaker = self.make(failure_threshold=1)
        with pytest.raises(ServiceFault):
            breaker(failing_with("still down"))
        self.clock["t"] = 31
        assert breaker.state == "half-open"
        with pytest.raises(ServiceFault):
            breaker(failing_with("still down"))
        assert breaker.state == "open"
        with pytest.raises(ServiceUnavailable):
            breaker(failing_with("still down"))

    def test_success_resets_failure_count(self):
        plan = iter([True, True, False, True, True, False])

        def mostly_ok():
            if next(plan):
                return "ok"
            raise ServiceFault("blip")

        breaker = self.make(failure_threshold=2)
        breaker(mostly_ok)
        breaker(mostly_ok)
        with pytest.raises(ServiceFault):
            breaker(mostly_ok)
        breaker(mostly_ok)
        breaker(mostly_ok)
        with pytest.raises(ServiceFault):
            breaker(mostly_ok)
        assert breaker.state == "closed"  # never two consecutive failures

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitPolicy(failure_threshold=0)


class Mirror(Service):
    """One replica of a mirrored provider; ``failure`` switches it off."""

    category = "demo"

    def __init__(self, tag, failure=None):
        self.tag = tag
        self.failure = failure
        self.calls = 0

    @operation
    def fetch(self) -> str:
        """Answer with this replica's tag, or raise its failure."""
        self.calls += 1
        if self.failure is not None:
            raise self.failure
        return self.tag


class InOrder:
    """Deterministic rng stand-in: P2C samples replicas in publication
    order, so on a health tie the first-published replica goes first."""

    def sample(self, population, k):
        return list(population)[:k]


def mirrored(*replicas, binding=None):
    """Publish ``replicas`` as one replica set; balance over it."""
    bus, broker = ServiceBus(), ServiceBroker()
    endpoints = [
        Endpoint("inproc", bus.host(replica, f"mirror-{index}"))
        for index, replica in enumerate(replicas)
    ]
    broker.publish(Mirror.contract(), endpoints)
    balancer = ReplicaBalancer(
        broker, "Mirror", bus=bus, binding=binding, rng=InOrder()
    )
    return broker, endpoints, balancer


class TestReplication:
    def test_failover_to_secondary(self):
        primary = Mirror("primary", ServiceUnavailable("primary down"))
        secondary = Mirror("secondary")
        _, _, balancer = mirrored(primary, secondary)
        assert balancer("fetch", {}) == "secondary"
        assert (primary.calls, secondary.calls) == (1, 1)

    def test_all_fail_reraises_last(self):
        _, _, balancer = mirrored(
            Mirror("a", ServiceUnavailable("one")),
            Mirror("b", ServiceUnavailable("two")),
        )
        with pytest.raises(ServiceFault, match="two"):
            balancer("fetch", {})

    def test_empty_rejected(self):
        # no endpoint of the requested binding: nothing to balance over
        _, _, balancer = mirrored(Mirror("a"), binding="soap")
        with pytest.raises(ServiceUnavailable, match="no replicas"):
            balancer("fetch", {})


class TestCheckpointer:
    def test_checkpoints_every_interval(self):
        saves = []
        checkpointer = Checkpointer(saves.append, lambda: None, interval=3)

        def step(state):
            return state + 1, state + 1 >= 10

        result = checkpointer.run(step, 0)
        assert result == 10
        assert saves == [3, 6, 9, 10]

    def test_resume_from_checkpoint(self):
        store = {"state": 7}
        checkpointer = Checkpointer(
            lambda s: store.__setitem__("state", s), lambda: store["state"], interval=2
        )

        steps = []

        def step(state):
            steps.append(state)
            return state + 1, state + 1 >= 10

        assert checkpointer.run(step, 0) == 10
        assert steps[0] == 7  # resumed, not restarted

    def test_validation(self):
        with pytest.raises(ValueError):
            Checkpointer(lambda s: None, lambda: None, interval=0)


class TestFaultInjector:
    def test_plan_consumed_in_order(self):
        injector = FaultInjector(
            lambda **kw: "ok", [ServiceFault("one"), None, ServiceFault("two")]
        )
        with pytest.raises(ServiceFault, match="one"):
            injector()
        assert injector() == "ok"
        with pytest.raises(ServiceFault, match="two"):
            injector()
        assert injector() == "ok"  # plan exhausted
        assert injector.calls == 4
        assert injector.injected_faults == 2

    def test_latency_injection(self):
        sleeps = []
        injector = FaultInjector(lambda **kw: "ok", [0.5], sleep=sleeps.append)
        assert injector() == "ok"
        assert sleeps == [0.5]

    def test_composes_with_retry(self):
        injector = FaultInjector(
            lambda **kw: "recovered", [ServiceFault("x"), ServiceFault("y")]
        )
        assert with_retry(injector, attempts=3)() == "recovered"


class TestCircuitBreakerHalfOpenRace:
    """Regression: half-open must admit exactly one probe at a time.

    Before the fix, every caller observing the half-open state was let
    through simultaneously — a thundering herd onto a provider that had
    just started recovering.
    """

    def make(self, failure_threshold):
        self.clock = {"t": 0.0}
        return EndpointBreaker(
            CircuitPolicy(failure_threshold=failure_threshold, recovery_seconds=30),
            clock=lambda: self.clock["t"],
        )

    def test_concurrent_half_open_callers_single_probe(self):
        import threading

        probe_entered = threading.Event()
        release_probe = threading.Event()
        provider_calls = []

        def slow_recovering():
            provider_calls.append(1)
            probe_entered.set()
            release_probe.wait(timeout=5)
            return "recovered"

        breaker = self.make(failure_threshold=1)
        with pytest.raises(ServiceFault):
            breaker(failing_with("down"))  # trip it
        self.clock["t"] = 31  # past recovery: next caller becomes THE probe

        results = {}

        def probe():
            results["probe"] = breaker(slow_recovering)

        thread = threading.Thread(target=probe)
        thread.start()
        assert probe_entered.wait(timeout=5)
        # A second caller while the probe is in flight: fail fast, never
        # reach the provider.
        with pytest.raises(ServiceUnavailable) as excinfo:
            breaker(slow_recovering)
        assert excinfo.value.retry_after is not None
        release_probe.set()
        thread.join(timeout=5)
        assert results["probe"] == "recovered"
        assert len(provider_calls) == 1
        assert breaker.state == "closed"

    def test_probe_failure_keeps_single_probe_invariant(self):
        attempts = []

        def failing():
            attempts.append(1)
            raise ServiceFault("still down")

        breaker = self.make(failure_threshold=1)
        with pytest.raises(ServiceFault):
            breaker(failing)
        self.clock["t"] = 31
        with pytest.raises(ServiceFault):
            breaker(failing)  # the probe itself
        # Probe failed: circuit re-opened, flag released — after another
        # recovery window a fresh probe is admitted (no stuck flag).
        self.clock["t"] = 62
        with pytest.raises(ServiceFault):
            breaker(failing)
        assert len(attempts) == 3

    def test_open_fast_fail_carries_retry_after(self):
        breaker = self.make(failure_threshold=1)
        with pytest.raises(ServiceFault):
            breaker(failing_with("down"))
        self.clock["t"] = 10  # 20s of the 30s recovery remain
        with pytest.raises(ServiceUnavailable) as excinfo:
            breaker(failing_with("down"))
        assert excinfo.value.retry_after == pytest.approx(20.0)


class TestRetryJitterAndRetryAfter:
    """Satellite: jittered backoff and Retry-After hints in with_retry."""

    def test_jitter_is_deterministic_per_seed(self):
        import random

        def run(seed):
            sleeps = []
            plan = iter([True, True, False])

            def flaky(**kwargs):
                if next(plan):
                    raise ServiceFault("blip")
                return "ok"

            fn = with_retry(
                flaky,
                attempts=3,
                backoff_seconds=1.0,
                jitter=0.5,
                rng=random.Random(seed),
                retry_on=(ServiceFault,),
                sleep=sleeps.append,
            )
            assert fn() == "ok"
            return sleeps

        assert run(7) == run(7)  # reproducible
        assert run(7) != run(8)  # seed actually matters
        for wait in run(7):
            assert wait >= 0.0

    def test_jitter_stays_within_band(self):
        import random

        sleeps = []
        plan = iter([True, False])

        def flaky(**kwargs):
            if next(plan):
                raise ServiceFault("blip")
            return "ok"

        with_retry(
            flaky,
            attempts=2,
            backoff_seconds=1.0,
            jitter=0.25,
            rng=random.Random(3),
            retry_on=(ServiceFault,),
            sleep=sleeps.append,
        )()
        assert len(sleeps) == 1
        assert 0.75 <= sleeps[0] <= 1.25

    def test_retry_after_hint_raises_the_wait(self):
        sleeps = []
        plan = iter([True, False])

        def refusing(**kwargs):
            if next(plan):
                raise ServiceUnavailable("overloaded", retry_after=4.5)
            return "ok"

        fn = with_retry(
            refusing, attempts=2, backoff_seconds=0.1, sleep=sleeps.append
        )
        assert fn() == "ok"
        assert sleeps == [pytest.approx(4.5)]

    def test_retry_after_honored_even_without_backoff(self):
        sleeps = []
        plan = iter([True, False])

        def refusing(**kwargs):
            if next(plan):
                raise ServiceUnavailable("busy", retry_after=2.0)
            return "ok"

        fn = with_retry(refusing, attempts=2, sleep=sleeps.append)
        assert fn() == "ok"
        assert sleeps == [pytest.approx(2.0)]

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            with_retry(lambda **kw: None, jitter=1.5)


class TestBalancerQosOrder:
    """The broker's QoS books order every call of the balancer."""

    def test_health_read_every_call(self):
        a, b = Mirror("a"), Mirror("b")
        broker, (first, second), balancer = mirrored(a, b)
        broker.report("Mirror", 0.01, fault=True, endpoint=first)
        assert balancer("fetch", {}) == "b"
        for _ in range(3):  # the books turn: a recovers, b starts failing
            broker.report("Mirror", 0.01, endpoint=first)
            broker.report("Mirror", 0.01, fault=True, endpoint=second)
        assert balancer("fetch", {}) == "a"
        assert (a.calls, b.calls) == (1, 1)


class TestSharedBreakerState:
    """Both call paths guarding one endpoint share one automaton: the
    direct ``breaker(fn)`` path and the resilience middleware, which
    reach it through one :class:`CircuitBreakerRegistry`."""

    KEY = "rest:http://h:1/rest/Echo"

    def make_shared(self):
        self.clock = {"t": 0.0}
        registry = CircuitBreakerRegistry(
            CircuitPolicy(failure_threshold=2, recovery_seconds=30.0),
            clock=lambda: self.clock["t"],
        )
        return registry, registry.breaker_for(self.KEY)

    def defended(self, registry, raw):
        """The middleware path: a breaker-only policy over ``raw``."""
        return ResilientInvoker(
            raw,
            ResiliencePolicy(retry=None, circuit=registry.policy),
            endpoint=self.KEY,
            clock=lambda: self.clock["t"],
            breakers=registry,
        )

    def test_legacy_failures_trip_the_resilience_breaker(self):
        registry, shared = self.make_shared()
        for _ in range(2):
            with pytest.raises(ServiceFault):
                shared(failing_with("down"))
        assert registry.states() == {self.KEY: "open"}
        calls = []
        invoker = self.defended(registry, lambda op, args: calls.append(op))
        with pytest.raises(ServiceUnavailable) as caught:
            invoker("say", {})  # the middleware path fast-fails too
        assert caught.value.fast_fail is True
        assert caught.value.retry_after == pytest.approx(30.0)
        assert calls == []

    def test_resilience_trip_fast_fails_the_legacy_path(self):
        registry, shared = self.make_shared()

        def down(operation, arguments):
            raise ServiceUnavailable("down")

        invoker = self.defended(registry, down)
        for _ in range(2):
            with pytest.raises(ServiceUnavailable):
                invoker("say", {})
        calls = []

        def fn():
            calls.append(1)
            return "ok"

        with pytest.raises(ServiceUnavailable):
            shared(fn)
        assert calls == []  # fast-fail: the callable never ran
        # recovery probes flow through either path: the direct call is
        # the half-open probe whose success closes the shared breaker
        self.clock["t"] = 31.0
        assert shared(fn) == "ok"
        assert registry.states() == {self.KEY: "closed"}

    def test_registry_hands_out_the_same_breaker_per_endpoint(self):
        registry, shared = self.make_shared()
        assert registry.breaker_for(self.KEY) is shared
