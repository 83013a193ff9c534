"""The circuit breaker: per-endpoint, with single-probe half-open semantics.

:class:`EndpointBreaker` is the one breaker automaton in the codebase.
The resilience middleware drives it through
:meth:`~EndpointBreaker.before_call` / :meth:`~EndpointBreaker.on_success`
/ :meth:`~EndpointBreaker.on_failure`; direct use wraps a zero-argument
callable with ``breaker(fn)``.  Breakers guard *endpoints*: the
:class:`CircuitBreakerRegistry` lazily creates one breaker per endpoint
key, so a middleware chain shared by several bindings trips and recovers
each endpoint independently, and every call path guarding one endpoint
shares one automaton.

Half-open allows exactly **one** probe at a time; concurrent callers fail
fast with :class:`~repro.core.faults.ServiceUnavailable` instead of
stampeding a barely-recovered provider.  Fast-fail exceptions carry
``fast_fail=True`` (the provider was never touched) and a ``retry_after``
hint, both consumed upstream by retry and QoS middleware.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..core.faults import ServiceUnavailable
from .policy import CircuitPolicy

__all__ = ["EndpointBreaker", "CircuitBreakerRegistry"]


def _fast_fail(message: str, retry_after: Optional[float]) -> ServiceUnavailable:
    fault = ServiceUnavailable(message, retry_after=retry_after)
    fault.fast_fail = True
    return fault


class EndpointBreaker:
    """closed → open → half-open automaton guarding one endpoint.

    * closed: calls pass; ``failure_threshold`` consecutive failures trip
    * open: calls fail fast until ``recovery_seconds`` of ``clock`` elapse
    * half-open: exactly one in-flight probe; success closes, failure
      re-opens, concurrent callers fail fast
    """

    def __init__(
        self,
        policy: CircuitPolicy,
        *,
        clock: Callable[[], float] = time.monotonic,
        endpoint: str = "default",
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.endpoint = endpoint
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._lock = threading.Lock()
        self.fast_fails = 0

    @property
    def state(self) -> str:
        """Current state after applying clock-driven open→half-open decay."""
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == "open"
            and self.clock() - self._opened_at >= self.policy.recovery_seconds
        ):
            self._state = "half-open"

    def before_call(self) -> bool:
        """Gate an attempt; returns True when this caller is *the* probe.

        Raises :class:`ServiceUnavailable` (``fast_fail=True``) when the
        circuit is open or another probe is already in flight.
        """
        # Hot path: a closed breaker admits the call without the lock.
        # The unlocked read is benign — at worst one straggler call slips
        # through in the same instant another thread trips the circuit;
        # all state *transitions* still happen under the lock.
        if self._state == "closed":
            return False
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == "open":
                remaining = self.policy.recovery_seconds - (
                    self.clock() - self._opened_at
                )
                self.fast_fails += 1
                raise _fast_fail(
                    f"circuit open for {self.endpoint!r}",
                    max(remaining, 0.0),
                )
            if self._state == "half-open":
                if self._probe_in_flight:
                    self.fast_fails += 1
                    raise _fast_fail(
                        f"circuit half-open for {self.endpoint!r}: probe in flight",
                        self.policy.recovery_seconds,
                    )
                self._probe_in_flight = True
                return True
            return False

    def on_success(self, probing: bool) -> bool:
        """Record a successful attempt; closes the circuit.

        Returns True when this success *re-closed* a tripped circuit —
        the transition observability cares about.
        """
        # Hot path: success-on-closed with a clean failure streak changes
        # nothing — skip the lock entirely.
        if (
            not probing
            and self._state == "closed"
            and self._consecutive_failures == 0
        ):
            return False
        with self._lock:
            if probing:
                self._probe_in_flight = False
            reclosed = self._state != "closed"
            self._consecutive_failures = 0
            self._state = "closed"
            return reclosed

    def on_failure(self, probing: bool) -> bool:
        """Record a failed attempt; may (re-)open the circuit.

        Returns True when this failure *tripped* the circuit (closed or
        half-open → open), so callers can emit one event per transition
        rather than one per failure.
        """
        with self._lock:
            if probing:
                self._probe_in_flight = False
            self._consecutive_failures += 1
            if probing or self._consecutive_failures >= self.policy.failure_threshold:
                opened = self._state != "open"
                self._state = "open"
                self._opened_at = self.clock()
                return opened
            return False

    def __call__(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` under the breaker (convenience for direct use)."""
        probing = self.before_call()
        try:
            result = fn()
        except Exception:
            self.on_failure(probing)
            raise
        self.on_success(probing)
        return result


class CircuitBreakerRegistry:
    """Lazily creates and shares one :class:`EndpointBreaker` per endpoint key."""

    def __init__(
        self,
        policy: CircuitPolicy,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self._breakers: dict[str, EndpointBreaker] = {}
        self._lock = threading.Lock()

    def breaker_for(self, endpoint: str) -> EndpointBreaker:
        """Get (or create) the breaker guarding ``endpoint``."""
        with self._lock:
            breaker = self._breakers.get(endpoint)
            if breaker is None:
                breaker = EndpointBreaker(
                    self.policy, clock=self.clock, endpoint=endpoint
                )
                self._breakers[endpoint] = breaker
            return breaker

    def states(self) -> dict[str, str]:
        """Snapshot of every endpoint's breaker state (for dashboards/tests)."""
        with self._lock:
            breakers = dict(self._breakers)
        return {key: breaker.state for key, breaker in breakers.items()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._breakers)
