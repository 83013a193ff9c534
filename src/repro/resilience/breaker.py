"""The circuit breaker: per-endpoint, with single-probe half-open semantics.

:class:`EndpointBreaker` is the one breaker automaton in the codebase:
the resilience middleware's circuit stage, the crawler's per-domain
quarantine and the replica balancer's ejection all run on it.  Gated
callers drive it through :meth:`~EndpointBreaker.before_call` /
:meth:`~EndpointBreaker.on_success` / :meth:`~EndpointBreaker.on_failure`;
direct use wraps a zero-argument callable with ``breaker(fn)``; a caller
that ranks endpoints itself (the balancer) reads the state and claims
the probe through :meth:`~EndpointBreaker.admit`, which never raises,
and ends an attempt that judged nothing with
:meth:`~EndpointBreaker.release`.
Breakers guard *endpoints*: the :class:`CircuitBreakerRegistry` lazily
creates one breaker per endpoint key, so a middleware chain shared by
several bindings trips and recovers each endpoint independently, and
every call path guarding one endpoint shares one automaton.

Every trip to open starts a new **generation**.  An admitted call holds
a :class:`Ticket` naming the generation it was admitted under; its
outcome is ignored once the breaker has tripped since — an answer to a
call sent before the trip says nothing about the endpoint now.

Half-open allows exactly **one** probe at a time; concurrent callers fail
fast with :class:`~repro.core.faults.ServiceUnavailable` instead of
stampeding a barely-recovered provider.  Fast-fail exceptions carry
``fast_fail=True`` (the provider was never touched) and a ``retry_after``
hint, both consumed upstream by retry and QoS middleware.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, NamedTuple, Optional

from ..core.faults import ServiceUnavailable
from .policy import CircuitPolicy

__all__ = ["EndpointBreaker", "CircuitBreakerRegistry", "Ticket"]


class Ticket(NamedTuple):
    """What an admitted call hands back to ``on_success``/``on_failure``."""

    generation: int  #: trips the breaker had made when the call was admitted
    probe: bool  #: this call is the half-open probe


def _fast_fail(message: str, retry_after: Optional[float]) -> ServiceUnavailable:
    fault = ServiceUnavailable(message, retry_after=retry_after)
    fault.fast_fail = True
    return fault


class EndpointBreaker:
    """closed → open → half-open automaton guarding one endpoint.

    * closed: calls pass; ``failure_threshold`` consecutive failures trip
    * open: calls fail fast until ``recovery_seconds`` of ``clock`` elapse;
      a failure in that time counts but does not restart the period
    * half-open: exactly one in-flight probe; success closes, failure
      re-opens, concurrent callers fail fast

    Only outcomes of the current generation count (see :class:`Ticket`).
    ``generation`` (trips so far) and ``failures`` (the current run of
    failures) are read-only to callers.
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
        self.generation = 0
        self.failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        # the current generation's non-probe ticket, handed out as is
        self._ticket = Ticket(0, False)
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

    def admit(self, probe: bool = True) -> tuple[str, Ticket]:
        """Admit a call without gating it; never raises.

        Returns the state a gated caller would meet — ``"probing"`` for
        a half-open breaker whose probe is out — and the call's ticket:
        the probe's when ``probe`` is true and the probe was free to
        claim, otherwise a plain ticket of the current generation, which
        lets a caller with nowhere else to go try the endpoint anyway.
        """
        ticket = self._ticket
        if self._state == "closed":
            return "closed", ticket
        with self._lock:
            self._maybe_half_open_locked()
            state = self._state
            if state == "half-open":
                if self._probe_in_flight:
                    return "probing", self._ticket
                if probe:
                    self._probe_in_flight = True
                    return state, Ticket(self.generation, True)
            return state, self._ticket

    def before_call(self) -> Ticket:
        """Gate an attempt; returns its ticket (``probe`` set for *the* probe).

        Raises :class:`ServiceUnavailable` (``fast_fail=True``) when the
        circuit is open or another probe is already in flight.
        """
        # Hot path: a closed breaker admits the call without the lock or
        # an allocation.  The ticket is read before the state, and a trip
        # writes the state before the ticket: a call that reads "closed"
        # while another thread trips holds the old generation's ticket,
        # so its outcome is ignored like any call sent before the trip.
        ticket = self._ticket
        if self._state == "closed":
            return ticket
        state, ticket = self.admit()
        if state != "open" and state != "probing":
            return ticket
        with self._lock:
            self.fast_fails += 1
            if state == "probing":
                raise _fast_fail(
                    f"circuit half-open for {self.endpoint!r}: probe in flight",
                    self.policy.recovery_seconds,
                )
            remaining = self.policy.recovery_seconds - (self.clock() - self._opened_at)
        raise _fast_fail(f"circuit open for {self.endpoint!r}", max(remaining, 0.0))

    def on_success(self, ticket: Ticket) -> bool:
        """Record a successful attempt; closes the circuit.

        Returns True when this success *re-closed* a tripped circuit —
        the transition observability cares about.  A stale ticket
        changes nothing.
        """
        # Hot path: success-on-closed with a clean failure streak changes
        # nothing, whatever the ticket — skip the lock entirely.
        if self._state == "closed" and self.failures == 0:
            return False
        with self._lock:
            if ticket.generation != self.generation:
                return False  # sent before the latest trip
            reclosed = self._state != "closed"
            self.failures = 0
            self._state = "closed"  # the next trip frees the probe slot
            return reclosed

    def on_failure(self, ticket: Ticket) -> bool:
        """Record a failed attempt; may (re-)open the circuit.

        Returns True when this failure *tripped* the circuit (closed or
        half-open → open), so callers can emit one event per transition
        rather than one per failure.  A stale ticket changes nothing.
        """
        with self._lock:
            if ticket.generation != self.generation:
                return False  # sent before the latest trip
            self.failures += 1
            self._maybe_half_open_locked()
            if self._state == "open":
                return False  # counted; the open period runs on
            if (
                self._state == "half-open"
                or self.failures >= self.policy.failure_threshold
            ):
                self._state = "open"  # before the ticket: see before_call
                self._opened_at = self.clock()
                self._probe_in_flight = False
                self.generation += 1
                self._ticket = Ticket(self.generation, False)
                return True
            return False

    def release(self, ticket: Ticket) -> None:
        """End an attempt that judged nothing (its fault was the
        caller's, not the endpoint's): a probe frees the probe slot."""
        if not ticket.probe:
            return
        with self._lock:
            if ticket.generation == self.generation:
                self._probe_in_flight = False

    def __call__(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` under the breaker (convenience for direct use)."""
        ticket = self.before_call()
        try:
            result = fn()
        except Exception:
            self.on_failure(ticket)
            raise
        self.on_success(ticket)
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
