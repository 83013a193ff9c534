"""Model-based test of the gateway's token-bucket + quota rate limiter.

Hypothesis drives one :class:`RateLimiter` on an injected clock with
random sequences of rules — check a key (as an authenticated principal
or an anonymous caller), advance the clock, override a key's policy, and
retry a denied key exactly when its ``Retry-After`` said to — while a
small reference model, in exact rational arithmetic, predicts every
decision: admitted or not, its ``reason``, its ``retry_after`` and its
``remaining_quota``.  Two promises of the limiter are checked on every
denial: a denial consumes nothing (asking again at once gets the same
answer), and a retry at the advertised ``retry_after`` is admitted.

Rates, times and windows are dyadic, so the limiter's float arithmetic
is exact and its answers must equal the model's to the last bit.  The
idle-bucket sweep (every ``sweep_interval`` checks) is outside the
model: a run makes far fewer checks than that.
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
        self.tokens = Fraction(policy.burst)
        self.refilled_at = now
        self.window_start = now
        self.used = 0


class ModelLimiter:
    """What the limiter should decide, in exact arithmetic."""

    def __init__(self, default, anonymous):
        self.default = default
        self.anonymous = anonymous
        self.overrides = {}
        self.buckets = {}

    def set_policy(self, key, policy):
        self.overrides[key] = policy
        self.buckets.pop(key, None)

    def check(self, key, anonymous, now):
        """``(allowed, reason, retry_after, remaining_quota)``."""
        policy = self.overrides.get(key) or (
            self.anonymous if anonymous else self.default
        )
        rate = Fraction(policy.rate)
        bucket = self.buckets.setdefault(key, ModelBucket(policy, now))
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

    @initialize(default=policies, anonymous=policies)
    def world(self, default, anonymous):
        self.clock = Clock()
        self.limiter = RateLimiter(default, anonymous=anonymous, clock=self.clock)
        self.model = ModelLimiter(default, anonymous)
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

    @invariant()
    def tracks_every_checked_key(self):
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
