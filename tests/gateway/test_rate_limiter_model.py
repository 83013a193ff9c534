"""Model-based test of the gateway's token-bucket + quota rate limiter.

Hypothesis drives one :class:`RateLimiter` on an injected clock with
random sequences of rules — check a key (as an authenticated principal
or an anonymous caller), advance the clock, override a key's policy,
sweep idle buckets, and retry a denied key exactly when its
``Retry-After`` said to — while a
small reference model, in exact rational arithmetic, predicts every
decision: admitted or not, its ``reason``, its ``retry_after`` and its
``remaining_quota``.  Two promises of the limiter are checked on every
denial: a denial consumes nothing (asking again at once gets the same
answer), and a retry at the advertised ``retry_after`` is admitted.

Rates, times and windows are dyadic, so the limiter's float arithmetic
is exact and its answers must equal the model's to the last bit.  The
model also predicts the idle sweep, explicit or amortized into checks
(small ``idle_ttl`` and ``sweep_interval`` make it happen): it drops a
bucket idle past ``idle_ttl`` only once its quota window has lapsed,
and the model must agree on which buckets are left.
"""

from fractions import Fraction

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.gateway import RateLimiter, RateLimitPolicy

KEYS = ("ada", "bob", "addr:10.0.0.1")

policies = st.builds(
    RateLimitPolicy,
    rate=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    burst=st.sampled_from([1.0, 2.0, 3.0, 5.0]),
    quota=st.none() | st.sampled_from([1, 2, 5]),
    quota_window=st.sampled_from([2.0, 8.0, 32.0]),
)


class Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class ModelBucket:
    def __init__(self, policy, now):
        self.policy = policy  # the one it was created under
        self.tokens = Fraction(policy.burst)
        self.refilled_at = now
        self.window_start = now
        self.used = 0
        self.last_seen = now

    def reclaimable(self, now, idle_ttl):
        """Idle long enough, with no quota tally left to remember."""
        window = self.policy.quota_window if self.policy.quota is not None else 0
        return (
            now - self.last_seen >= Fraction(idle_ttl)
            and now - self.window_start >= Fraction(window)
        )


class ModelLimiter:
    """What the limiter should decide, in exact arithmetic."""

    def __init__(self, default, anonymous, idle_ttl, sweep_interval):
        self.default = default
        self.anonymous = anonymous
        self.idle_ttl = idle_ttl
        self.sweep_interval = sweep_interval
        self.overrides = {}
        self.buckets = {}
        self.checks = 0  # since the last sweep
        self.sweep_due = sweep_interval

    def sweep(self, now):
        """Drop the reclaimable buckets; the next amortized sweep comes
        after as many checks as buckets are left (``sweep_interval`` at
        least)."""
        idle = [
            key
            for key, bucket in self.buckets.items()
            if bucket.reclaimable(now, self.idle_ttl)
        ]
        for key in idle:
            del self.buckets[key]
        self.checks = 0
        self.sweep_due = max(self.sweep_interval, len(self.buckets))
        return len(idle)

    def set_policy(self, key, policy):
        self.overrides[key] = policy
        self.buckets.pop(key, None)

    def check(self, key, anonymous, now):
        """``(allowed, reason, retry_after, remaining_quota)``."""
        policy = self.overrides.get(key) or (
            self.anonymous if anonymous else self.default
        )
        self.checks += 1
        if self.checks >= self.sweep_due:
            self.sweep(now)
        rate = Fraction(policy.rate)
        bucket = self.buckets.setdefault(key, ModelBucket(policy, now))
        bucket.last_seen = now
        bucket.tokens = min(
            Fraction(policy.burst), bucket.tokens + (now - bucket.refilled_at) * rate
        )
        bucket.refilled_at = now
        token_wait = max(1 - bucket.tokens, 0) / rate
        remaining = None
        if policy.quota is not None:
            if now - bucket.window_start >= Fraction(policy.quota_window):
                bucket.window_start, bucket.used = now, 0
            if bucket.used >= policy.quota:
                window_left = bucket.window_start + Fraction(policy.quota_window) - now
                return False, "quota", max(window_left, token_wait), 0
            remaining = policy.quota - bucket.used
        if bucket.tokens < 1:
            return False, "throttled", token_wait, remaining
        bucket.tokens -= 1
        bucket.used += 1
        return True, "ok", 0, None if remaining is None else remaining - 1


class RateLimiterModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.limiter = None

    @initialize(
        default=policies,
        anonymous=policies,
        idle_ttl=st.sampled_from([1.0, 16.0, 3600.0]),
        sweep_interval=st.sampled_from([1, 3, 1024]),
    )
    def world(self, default, anonymous, idle_ttl, sweep_interval):
        self.clock = Clock()
        self.limiter = RateLimiter(
            default,
            anonymous=anonymous,
            clock=self.clock,
            idle_ttl=idle_ttl,
            sweep_interval=sweep_interval,
        )
        self.model = ModelLimiter(default, anonymous, idle_ttl, sweep_interval)
        self.now = Fraction(self.clock.now)
        self.denied = None  # (key, anonymous, retry_after) of the last check

    def decide(self, key, anonymous):
        """One check, compared field by field with the model's."""
        decision = self.limiter.check(key, anonymous=anonymous)
        allowed, reason, retry_after, remaining = self.model.check(
            key, anonymous, self.now
        )
        assert (
            decision.allowed,
            decision.reason,
            Fraction(decision.retry_after),
            decision.remaining_quota,
        ) == (allowed, reason, retry_after, remaining), (key, anonymous)
        return decision

    def advance_to(self, seconds):
        self.clock.now += seconds
        self.now += Fraction(seconds)

    # -- rules -----------------------------------------------------------
    @rule(key=st.sampled_from(KEYS), anonymous=st.booleans())
    def check(self, key, anonymous):
        decision = self.decide(key, anonymous)
        self.denied = None
        if not decision.allowed:
            # a denial consumes nothing: asking again at once is denied
            # the same way, for the same wait
            assert self.decide(key, anonymous) == decision
            self.denied = (key, anonymous, decision.retry_after)

    @precondition(lambda self: self.limiter is not None and self.denied is not None)
    @rule()
    def retry_when_told(self):
        key, anonymous, retry_after = self.denied
        self.denied = None
        self.advance_to(retry_after)
        assert self.decide(key, anonymous).allowed, "Retry-After was not honoured"

    @rule(seconds=st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 40.0]))
    def advance(self, seconds):
        self.advance_to(seconds)
        self.denied = None

    @rule(key=st.sampled_from(KEYS), policy=policies)
    def set_policy(self, key, policy):
        self.limiter.set_policy(key, policy)
        self.model.set_policy(key, policy)
        self.denied = None

    @precondition(lambda self: self.limiter is not None)
    @rule()
    def sweep(self):
        assert self.limiter.sweep() == self.model.sweep(self.now)
        self.denied = None

    @invariant()
    def tracks_the_keys_the_model_keeps(self):
        if self.limiter is not None:
            assert self.limiter.tracked_keys() == len(self.model.buckets)


RateLimiterModel.TestCase.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None
)
TestRateLimiterModel = RateLimiterModel.TestCase


def test_quota_retry_after_covers_an_empty_bucket():
    """A quota window that rolls over before the bucket refills: the
    quota denial's Retry-After must cover the token wait as well."""
    clock = Clock()
    policy = RateLimitPolicy(rate=0.25, burst=1.0, quota=1, quota_window=2.0)
    limiter = RateLimiter(policy, clock=clock)
    assert limiter.check("ada").allowed
    clock.now += 1.0
    decision = limiter.check("ada")
    assert (decision.reason, decision.retry_after) == ("quota", 3.0)
    clock.now += decision.retry_after
    assert limiter.check("ada").allowed


def test_the_sweep_keeps_a_spent_quota():
    """A principal idle past ``idle_ttl`` but inside its quota window must
    not get a fresh quota from the sweep."""
    clock = Clock()
    policy = RateLimitPolicy(rate=50.0, burst=10.0, quota=2)
    limiter = RateLimiter(policy, clock=clock, sweep_interval=1)
    assert [limiter.check("ada").allowed for _ in range(3)] == [True, True, False]
    clock.now += 3600.0
    decision = limiter.check("ada")
    assert (decision.allowed, decision.reason) == (False, "quota")
    clock.now += decision.retry_after
    assert limiter.check("ada").allowed
