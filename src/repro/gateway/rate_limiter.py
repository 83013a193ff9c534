"""Per-principal rate limiting for the gateway: token buckets + quotas.

Two independent controls, both per principal (or per client address for
anonymous callers):

* a **token bucket** caps the short-term request *rate*: ``burst``
  tokens of capacity refilled at ``rate`` tokens/second, each admitted
  request spending one.  An empty bucket denies with the exact seconds
  until the next token — the ``Retry-After`` the gateway sends back;
* a **fixed-window quota** caps total volume: at most ``quota``
  admissions per ``quota_window`` seconds (a day, by default).  A spent
  quota denies until the window rolls over.

A request is admitted only when both agree, and a denial consumes
nothing — retrying at the advertised time succeeds (no punishment for
honouring ``Retry-After``).

Buckets are created on first sight of a key and reclaimed by an
amortized idle sweep (every ``sweep_interval`` checks, or every as many
checks as there are buckets if that is more, buckets idle past
``idle_ttl`` whose quota window has lapsed are dropped — a spent quota is
never forgotten early), so one-shot anonymous addresses cannot grow the
map without bound.  The clock is injectable; tests drive it manually.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["RateLimitPolicy", "RateDecision", "RateLimiter"]


@dataclass(frozen=True)
class RateLimitPolicy:
    """Admission policy for one principal class.

    ``quota=None`` disables the daily-volume control; the token bucket
    always applies.
    """

    rate: float = 50.0            # bucket refill, tokens per second
    burst: float = 10.0           # bucket capacity
    quota: Optional[int] = None   # admissions per quota_window, None = off
    quota_window: float = 86_400.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.quota is not None and self.quota < 1:
            raise ValueError("quota must be >= 1 (or None)")
        if self.quota_window <= 0:
            raise ValueError("quota_window must be positive")


@dataclass(frozen=True)
class RateDecision:
    """One admission verdict: allowed, or why not and when to retry."""

    allowed: bool
    reason: str = "ok"            # "ok" | "throttled" | "quota"
    retry_after: float = 0.0      # seconds until a retry can succeed
    remaining_quota: Optional[int] = None


class _Bucket:
    """Mutable per-key state: bucket level + quota window tally."""

    __slots__ = ("tokens", "refilled_at", "window_start", "used", "last_seen", "window")

    def __init__(self, policy: RateLimitPolicy, now: float) -> None:
        self.window = 0.0 if policy.quota is None else policy.quota_window
        self.tokens = policy.burst
        self.refilled_at = now
        self.window_start = now
        self.used = 0
        self.last_seen = now


class RateLimiter:
    """Keyed admission control: one bucket + quota tally per key.

    ``default`` covers authenticated principals; ``anonymous`` (usually
    stingier) covers address-keyed callers.  Per-principal overrides via
    :meth:`set_policy` win over both.
    """

    def __init__(
        self,
        default: Optional[RateLimitPolicy] = None,
        *,
        anonymous: Optional[RateLimitPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        idle_ttl: float = 3600.0,
        sweep_interval: int = 1024,
    ) -> None:
        if idle_ttl <= 0:
            raise ValueError("idle_ttl must be positive")
        if sweep_interval < 1:
            raise ValueError("sweep_interval must be >= 1")
        self.default = default or RateLimitPolicy()
        self.anonymous = anonymous or RateLimitPolicy(rate=5.0, burst=5.0)
        self.idle_ttl = idle_ttl
        self.sweep_interval = sweep_interval
        self._clock = clock
        self._overrides: dict[str, RateLimitPolicy] = {}
        self._buckets: dict[str, _Bucket] = {}
        self._checks_since_sweep = 0
        self._sweep_due = sweep_interval
        self._lock = threading.Lock()

    # -- configuration ---------------------------------------------------
    def set_policy(self, key: str, policy: RateLimitPolicy) -> None:
        """Override the policy for one key (principal or address)."""
        with self._lock:
            self._overrides[key] = policy
            # the old bucket was sized for the old policy
            self._buckets.pop(key, None)

    def policy_for(self, key: str, *, anonymous: bool = False) -> RateLimitPolicy:
        with self._lock:
            override = self._overrides.get(key)
        if override is not None:
            return override
        return self.anonymous if anonymous else self.default

    # -- admission -------------------------------------------------------
    def check(self, key: str, *, anonymous: bool = False) -> RateDecision:
        """Admit or deny one request for ``key``; denial spends nothing."""
        policy = self.policy_for(key, anonymous=anonymous)
        now = self._clock()
        with self._lock:
            self._checks_since_sweep += 1
            if self._checks_since_sweep >= self._sweep_due:
                self._sweep_locked(now)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _Bucket(policy, now)
            bucket.last_seen = now
            # refill, then quota first: a throttle verdict must not hide
            # an exhausted quota's much longer Retry-After
            elapsed = now - bucket.refilled_at
            bucket.tokens = min(policy.burst, bucket.tokens + elapsed * policy.rate)
            bucket.refilled_at = now
            if policy.quota is not None:
                if now - bucket.window_start >= policy.quota_window:
                    bucket.window_start = now
                    bucket.used = 0
                if bucket.used >= policy.quota:
                    # the retry must find a token too, should the window
                    # roll over before the bucket refills
                    return RateDecision(
                        False,
                        "quota",
                        retry_after=max(
                            bucket.window_start + policy.quota_window - now,
                            (1.0 - bucket.tokens) / policy.rate,
                        ),
                        remaining_quota=0,
                    )
            remaining = None if policy.quota is None else policy.quota - bucket.used
            if bucket.tokens < 1.0:
                return RateDecision(
                    False,
                    "throttled",
                    retry_after=(1.0 - bucket.tokens) / policy.rate,
                    remaining_quota=remaining,
                )
            bucket.tokens -= 1.0
            bucket.used += 1
            return RateDecision(
                True, remaining_quota=None if remaining is None else remaining - 1
            )

    # -- housekeeping ----------------------------------------------------
    def _sweep_locked(self, now: float) -> int:
        idle = [
            key
            for key, bucket in self._buckets.items()
            if now - bucket.last_seen >= self.idle_ttl
            and now - bucket.window_start >= bucket.window
        ]
        for key in idle:
            del self._buckets[key]
        self._checks_since_sweep = 0
        self._sweep_due = max(self.sweep_interval, len(self._buckets))
        return len(idle)

    def sweep(self) -> int:
        """Drop buckets idle past ``idle_ttl`` whose quota window has
        lapsed now; returns how many."""
        with self._lock:
            return self._sweep_locked(self._clock())

    def tracked_keys(self) -> int:
        """How many keys currently hold a bucket (bounded-memory tests)."""
        with self._lock:
            return len(self._buckets)
