"""Health-gated load balancing and failover across a replica set.

:class:`ReplicaBalancer` is the one failover path in the codebase: it
*spreads* load across N equivalent endpoints of one service — replicas
of one binding behind the gateway, or every binding of a service behind
a typed proxy (:func:`resilient_proxy_from_broker`) — the horizontal
scale-out the curriculum's dependability unit builds toward:

* selection is **power-of-two-choices** over the broker's
  staleness-decayed health scores
  (:meth:`~repro.core.broker.ServiceBroker.replica_health`): sample two
  live replicas, send the call to the healthier one.  P2C keeps herd
  behaviour away from one "best" replica while still avoiding bad ones;
* replicas are **ejected** after ``EjectionPolicy.consecutive_failures``
  straight failures and re-admitted through a **timed probe**: once
  ``readmit_after`` elapses the replica gets exactly one trial call
  (with the healthy replicas as failover behind it; calls planned while
  it is in flight treat the replica as ejected) — success readmits it,
  failure re-ejects it for another cooldown.  A call sent before an
  ejection that answers after it changes nothing: only calls sent since
  the latest ejection judge the replica;
* a ``Retry-After`` hint from a load-shedding provider (PR 4's 503
  path, surfaced as :class:`~repro.core.faults.ServiceUnavailable`)
  **cools** that replica for the advertised duration instead of
  hammering it;
* **hedging** (optional): idempotent calls that outlive a latency
  percentile of recent successes are raced against a second replica;
  first success wins, the loser is abandoned.

Every replica failure in :data:`FAILOVER_FAULTS` falls over to the next
candidate within the same call (any other fault propagates at once:
another replica of the same contract would fail identically), the
per-endpoint invokers share one breaker registry / retry budget / pooled
HTTP client per authority, and every outcome feeds the broker's QoS
loop — so the next call's health scores already know what this call
learned.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.broker import Endpoint, Registration, ServiceBroker
from ..core.bus import ServiceBus
from ..core.faults import (
    ServiceError,
    ServiceUnavailable,
    TimeoutFault,
    TransportError,
)
from ..core.proxy import ServiceProxy, make_proxy
from ..observability.runtime import OBS
from .binding import (
    HttpFactory,
    PooledHttpClients,
    broker_reporter,
    invoker_for_endpoint,
)
from .breaker import CircuitBreakerRegistry
from .middleware import Middleware, ResilientInvoker
from .policy import ResiliencePolicy, RetryBudget

__all__ = [
    "EjectionPolicy",
    "HedgePolicy",
    "ReplicaBalancer",
    "resilient_proxy_from_broker",
    "FAILOVER_FAULTS",
]

#: Failures that justify abandoning one replica for the next: the
#: provider refused, timed out, or was unreachable.  Application faults
#: (bad input, unknown operation...) propagate immediately — another
#: replica of the same contract would fail identically.
FAILOVER_FAULTS: tuple[type[Exception], ...] = (
    ServiceUnavailable,
    TimeoutFault,
    TransportError,
    OSError,
)

#: One caller's call: operation, arguments, and the REST request to relay.
Call = tuple[str, dict[str, Any], Any]


@dataclass(frozen=True)
class EjectionPolicy:
    """When to stop sending calls to a replica, and when to probe it again.

    ``consecutive_failures`` straight failures eject the replica for
    ``readmit_after`` seconds; after that it receives a single probe call
    (failover-covered) whose outcome readmits or re-ejects it.  Outcomes
    of calls sent before the ejection are ignored.
    """

    consecutive_failures: int = 3
    readmit_after: float = 5.0

    def __post_init__(self) -> None:
        if self.consecutive_failures < 1:
            raise ValueError("consecutive_failures must be >= 1")
        if self.readmit_after <= 0:
            raise ValueError("readmit_after must be positive")


@dataclass(frozen=True)
class HedgePolicy:
    """Hedge idempotent calls that outlive a latency percentile.

    The hedge delay is the ``delay_percentile`` of the last ``window``
    successful latencies, clamped to ``[min_delay, max_delay]``; with no
    history yet the balancer stays conservative (``max_delay``).  Only
    operations the contract marks idempotent are ever hedged — a hedged
    non-idempotent call could execute twice.
    """

    delay_percentile: float = 0.95
    min_delay: float = 0.005
    max_delay: float = 1.0
    window: int = 128

    def __post_init__(self) -> None:
        if not 0.0 < self.delay_percentile <= 1.0:
            raise ValueError("delay_percentile must be in (0, 1]")
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValueError("need 0 <= min_delay <= max_delay")
        if self.window < 1:
            raise ValueError("window must be >= 1")


class _ReplicaState:
    """Balancer-local bookkeeping for one endpoint (broker holds QoS)."""

    __slots__ = (
        "failures", "ejected_until", "cooling_until", "ejections", "ejected",
        "inflight", "probe",
    )

    def __init__(self) -> None:
        self.failures = 0
        self.ejected_until = 0.0
        self.cooling_until = 0.0
        self.ejections = 0
        self.ejected = False
        self.inflight = 0
        self.probe = -1  # the ejection count its in-flight probe was sent under


class _LatencyWindow:
    """Ring buffer of recent success latencies with percentile reads."""

    def __init__(self, size: int) -> None:
        self._samples: deque[float] = deque(maxlen=size)
        self._lock = threading.Lock()

    def add(self, latency: float) -> None:
        with self._lock:
            self._samples.append(latency)

    def percentile(self, fraction: float) -> Optional[float]:
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        index = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[index]


class ReplicaBalancer:
    """Spread calls across a service's live replicas, health-gated.

    Drop-in invoker (``(operation, arguments) -> result``) for any
    service whose broker registration holds multiple endpoints.  The
    default ``policy`` is :meth:`ResiliencePolicy.unprotected` — the
    balancer's own ejection + cross-replica failover replaces per-attempt
    retries and breakers; pass a full policy to stack both layers.

    Deterministic under test: ``clock``, ``sleep`` and ``rng`` are
    injectable, and ejection/cooldown state is inspectable via
    :meth:`states`.
    """

    def __init__(
        self,
        broker: ServiceBroker,
        service_name: str,
        *,
        bus: Optional[ServiceBus] = None,
        policy: Optional[ResiliencePolicy] = None,
        ejection: Optional[EjectionPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
        binding: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        budget: Optional[RetryBudget] = None,
        http_clients: Optional[HttpFactory] = None,
        middlewares: tuple[Middleware, ...] = (),
    ) -> None:
        self.broker = broker
        self.service_name = service_name
        self.policy = policy or ResiliencePolicy.unprotected()
        self.ejection = ejection or EjectionPolicy()
        self.hedge = hedge
        self._binding = binding
        self._bus = bus
        self._clock = clock
        self._sleep = sleep
        self._rng = rng or random.Random(0)
        self._budget = budget
        self._middlewares = middlewares
        self._breakers = (
            CircuitBreakerRegistry(self.policy.circuit, clock=clock)
            if self.policy.circuit is not None
            else None
        )
        self._reporter = broker_reporter(broker, service_name)
        self._invokers: dict[str, ResilientInvoker] = {}
        self._invoker_lock = threading.Lock()
        # A caller-supplied client source (e.g. the gateway sharing one
        # pool across every fronted service) is borrowed, not owned:
        # close() must not yank sockets out from under its other users.
        self._owns_http_clients = http_clients is None
        self._http_clients: HttpFactory = http_clients or PooledHttpClients()
        self._states: dict[str, _ReplicaState] = {}
        self._lock = threading.Lock()
        self._latencies = _LatencyWindow(hedge.window if hedge else 128)

    # -- wiring ----------------------------------------------------------
    @property
    def breakers(self) -> Optional[CircuitBreakerRegistry]:
        """The shared per-endpoint breaker registry (None when disabled)."""
        return self._breakers

    def close(self) -> None:
        """Close every pooled HTTP client this balancer dialed (no-op
        when ``http_clients`` was injected by — and belongs to — the
        caller)."""
        if self._owns_http_clients:
            self._http_clients.close()

    def _invoker_for(
        self, endpoint: Endpoint, registration: Registration
    ) -> ResilientInvoker:
        with self._invoker_lock:
            invoker = self._invokers.get(endpoint.key)
            if invoker is None:
                raw = invoker_for_endpoint(
                    endpoint,
                    registration.contract,
                    bus=self._bus,
                    http_factory=self._http_clients,
                )
                invoker = ResilientInvoker(
                    raw,
                    self.policy,
                    endpoint=endpoint.key,
                    clock=self._clock,
                    sleep=self._sleep,
                    rng=self._rng,
                    breakers=self._breakers,
                    budget=self._budget,
                    reporter=self._reporter,
                    middlewares=self._middlewares,
                )
                self._invokers[endpoint.key] = invoker
            return invoker

    def _state_locked(self, key: str) -> _ReplicaState:
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _ReplicaState()
        return state

    def _event(self, event: str) -> None:
        if OBS.enabled:
            OBS.instruments.replica_events.inc(
                service=self.service_name, event=event
            )

    def _outcome(self, outcome: str) -> None:
        if OBS.enabled:
            OBS.instruments.replica_calls.inc(
                service=self.service_name, outcome=outcome
            )

    # -- selection -------------------------------------------------------
    def _plan(self, replicas: list[tuple[Endpoint, float]]) -> list[Endpoint]:
        """Order replicas for one call: probe, then P2C pick, then spares.

        Returns every replica exactly once — the head is where the call
        goes, the tail is the in-call failover ladder, so a single dead
        replica can never surface to the caller while a live one exists.
        """
        now = self._clock()
        with self._lock:
            available: list[tuple[Endpoint, float]] = []
            probes: list[Endpoint] = []
            cooling: list[tuple[float, Endpoint]] = []
            ejected: list[Endpoint] = []
            for endpoint, health in replicas:
                state = self._state_locked(endpoint.key)
                if state.ejected and (now < state.ejected_until or state.probe == state.ejections):
                    ejected.append(endpoint)  # cooling down, or its probe in flight
                elif state.ejected:
                    probes.append(endpoint)  # cooldown elapsed: one trial call
                elif now < state.cooling_until:
                    cooling.append((state.cooling_until, endpoint))
                else:
                    available.append((endpoint, health))
            live = len(available) + len(probes)
            if probes:
                state = self._states[probes[0].key]
                state.probe = state.ejections
        if OBS.enabled:
            OBS.instruments.replica_live.set(live, service=self.service_name)

        order: list[Endpoint] = []
        if probes:
            order.append(probes[0])
            self._event("probe")
            available.extend(
                (endpoint, 0.0) for endpoint in probes[1:]
            )  # extra probes wait their turn at the back
        order.extend(self._pick_two(available))
        order.extend(endpoint for _until, endpoint in sorted(cooling, key=lambda c: c[0]))
        order.extend(ejected)
        return order

    def _pick_two(self, available: list[tuple[Endpoint, float]]) -> list[Endpoint]:
        """Power-of-two-choices head, remaining candidates health-first."""
        if len(available) <= 1:
            return [endpoint for endpoint, _health in available]
        first, second = self._rng.sample(range(len(available)), 2)
        winner = (
            first
            if available[first][1] >= available[second][1]
            else second
        )
        rest = sorted(
            (candidate for index, candidate in enumerate(available) if index != winner),
            key=lambda candidate: -candidate[1],
        )
        return [available[winner][0]] + [endpoint for endpoint, _health in rest]

    # -- outcome bookkeeping ---------------------------------------------
    # ``ejections`` is the state a call was sent to: an outcome that
    # arrives after a later ejection answers for a replica the balancer
    # has already judged, so only calls sent since (the probe) count.
    def _record_success(
        self, endpoint: Endpoint, latency: float, ejections: int
    ) -> None:
        self._latencies.add(latency)
        readmitted = False
        with self._lock:
            state = self._state_locked(endpoint.key)
            if state.ejections != ejections:
                return
            if state.ejected:
                readmitted = True
            state.ejected = False
            state.failures = 0
            state.ejected_until = 0.0
            state.cooling_until = 0.0
        if readmitted:
            self._event("readmit")

    def _record_failure(
        self, endpoint: Endpoint, exc: Exception, ejections: int
    ) -> None:
        now = self._clock()
        retry_after = getattr(exc, "retry_after", None)
        cooled = ejected = False
        with self._lock:
            state = self._state_locked(endpoint.key)
            if state.ejections != ejections:
                return
            state.failures += 1
            if retry_after is not None:
                cool_until = now + float(retry_after)
                if cool_until > state.cooling_until:
                    state.cooling_until = cool_until
                    cooled = True
            if state.ejected and now >= state.ejected_until:
                # failed re-admission probe: straight back out
                state.ejected_until = now + self.ejection.readmit_after
                state.ejections += 1
                ejected = True
            elif (
                not state.ejected
                and state.failures >= self.ejection.consecutive_failures
            ):
                state.ejected = True
                state.ejected_until = now + self.ejection.readmit_after
                state.ejections += 1
                ejected = True
        if cooled:
            self._event("cooldown")
        if ejected:
            self._event("eject")

    def states(self) -> dict[str, dict[str, Any]]:
        """Balancer-eye view of every replica it has bookkeeping for."""
        now = self._clock()
        with self._lock:
            out = {}
            for key, state in self._states.items():
                if state.ejected and now < state.ejected_until:
                    status = "ejected"
                elif state.ejected:
                    status = "probation"
                elif now < state.cooling_until:
                    status = "cooling"
                else:
                    status = "live"
                out[key] = {
                    "status": status,
                    "failures": state.failures,
                    "ejections": state.ejections,
                    "inflight": state.inflight,
                }
            return out

    # -- invocation ------------------------------------------------------
    def __call__(self, operation: str, arguments: dict[str, Any], relay: Any = None) -> Any:
        """Call ``operation`` on one replica, failing over to the rest.
        With ``relay``, the caller's own REST-dialect request (the
        gateway's), REST replicas are sent it as it arrived and their
        reply, an ``HttpResponse``, is returned undecoded."""
        registration = self.broker.lookup(self.service_name)
        replicas = self.broker.replica_health(
            self.service_name, binding=self._binding
        )
        if not replicas:
            raise ServiceUnavailable(
                f"service {self.service_name!r} has no replicas"
            )
        order = self._plan(replicas)
        if (
            self.hedge is not None
            and len(order) > 1
            and self._is_idempotent(registration, operation)
        ):
            return self._call_hedged(order, registration, (operation, arguments, relay))
        return self._failover_call(order, registration, (operation, arguments, relay))

    def _is_idempotent(self, registration: Registration, operation: str) -> bool:
        try:
            return bool(registration.contract.operation(operation).idempotent)
        except Exception:  # unknown operation: let the invoker raise the fault
            return False

    def _attempt(self, endpoint: Endpoint, registration: Registration, call: Call) -> Any:
        """One call on one replica, with its outcome booked."""
        operation, arguments, relay = call
        if relay is not None and endpoint.binding == "rest":
            arguments = relay  # sent as it arrived
        invoker = self._invoker_for(endpoint, registration)
        started = self._clock()
        ejections = self._inflight_delta(endpoint, +1)
        try:
            result = invoker(operation, arguments)
        except FAILOVER_FAULTS as exc:
            self._record_failure(endpoint, exc, ejections)
            self._outcome("failover")
            raise
        else:
            self._record_success(endpoint, self._clock() - started, ejections)
        finally:
            self._inflight_delta(endpoint, -1, ejections)
        return result

    def _inflight_delta(self, endpoint: Endpoint, delta: int, sent_under: int = -1) -> int:
        """Track concurrent calls per replica (capacity observability);
        returns the replica's ejection count.  An attempt that ends, its
        outcome booked, under the ejection count it was ``sent_under``
        ends the replica's probe, if one was in flight."""
        with self._lock:
            state = self._state_locked(endpoint.key)
            state.inflight += delta
            if sent_under == state.ejections:
                state.probe = -1
            value = state.inflight
            ejections = state.ejections
        if OBS.enabled:
            OBS.instruments.replica_inflight.set(
                value, service=self.service_name, replica=endpoint.key
            )
        return ejections

    def inflight(self) -> dict[str, int]:
        """Point-in-time concurrent calls per replica endpoint."""
        with self._lock:
            return {
                key: state.inflight
                for key, state in self._states.items()
                if state.inflight
            }

    def _failover_call(
        self,
        order: list[Endpoint],
        registration: Registration,
        call: Call,
        last: Optional[Exception] = None,
    ) -> Any:
        """Try ``order`` in turn; the first success wins.

        Failures in :data:`FAILOVER_FAULTS` move on to the next replica,
        anything else propagates immediately.  When every replica failed,
        the last failure (``last`` when ``order`` is empty) surfaces
        through :meth:`_exhausted`.
        """
        for endpoint in order:
            try:
                result = self._attempt(endpoint, registration, call)
            except FAILOVER_FAULTS as exc:
                last = exc
                continue
            self._outcome("ok")
            return result
        assert last is not None, "failover over an empty order"
        self._outcome("error")
        raise self._exhausted(last) from last

    def _exhausted(self, exc: Exception) -> Exception:
        """Caller-facing fault once every replica has been tried.

        Mid-call failover treats raw socket errors (``OSError``) as
        eligible faults, but the *caller's* contract is the fault
        taxonomy: a replica set that dies entirely surfaces as
        :class:`TransportError`, never a bare ``ConnectionRefusedError``.
        """
        if isinstance(exc, ServiceError):
            return exc
        return TransportError(
            f"all replicas of {self.service_name!r} failed: {exc}"
        )

    # -- hedging ---------------------------------------------------------
    def _hedge_delay(self) -> float:
        assert self.hedge is not None
        observed = self._latencies.percentile(self.hedge.delay_percentile)
        if observed is None:
            return self.hedge.max_delay
        return min(max(observed, self.hedge.min_delay), self.hedge.max_delay)

    def _call_hedged(
        self, order: list[Endpoint], registration: Registration, call: Call
    ) -> Any:
        """Race the primary against one hedge leg; first success wins.

        The losing leg is abandoned, not cancelled (idempotent-only, so a
        duplicate execution is harmless).  If both legs fail with
        failover-eligible faults, the remaining replicas are walked
        sequentially; non-failover faults propagate immediately.
        """
        outcomes: "queue.Queue[tuple[str, bool, Any]]" = queue.Queue()

        def leg(label: str, endpoint: Endpoint) -> None:
            try:
                value = self._attempt(endpoint, registration, call)
            except Exception as exc:  # noqa: BLE001 - transported to caller
                outcomes.put((label, False, exc))
            else:
                outcomes.put((label, True, value))

        def spawn(label: str, endpoint: Endpoint) -> None:
            threading.Thread(
                target=leg,
                args=(label, endpoint),
                name=f"replica-hedge-{label}",
                daemon=True,
            ).start()

        spawn("primary", order[0])
        delay = self._hedge_delay()
        hedged = False
        pending = 1
        failures: list[Exception] = []
        while pending:
            try:
                timeout = None if hedged else delay
                label, succeeded, payload = outcomes.get(timeout=timeout)
            except queue.Empty:
                spawn("hedge", order[1])
                hedged = True
                pending += 1
                if OBS.enabled:
                    OBS.instruments.replica_hedges.inc(
                        service=self.service_name, result="launched"
                    )
                continue
            pending -= 1
            if succeeded:
                if OBS.enabled and hedged:
                    OBS.instruments.replica_hedges.inc(
                        service=self.service_name, result=f"{label}_won"
                    )
                self._outcome("ok")
                return payload
            if not isinstance(payload, FAILOVER_FAULTS):
                raise payload  # application fault: every replica would agree
            failures.append(payload)
        # both hedge legs failed: walk the remaining replicas in order
        spares = order[2:] if hedged else order[1:]
        return self._failover_call(spares, registration, call, last=failures[-1])


def resilient_proxy_from_broker(
    broker: ServiceBroker,
    service_name: str,
    *,
    bus: Optional[ServiceBus] = None,
    policy: Optional[ResiliencePolicy] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    rng: Optional[random.Random] = None,
    budget: Optional[RetryBudget] = None,
    http_factory: Optional[HttpFactory] = None,
    middlewares: tuple[Middleware, ...] = (),
) -> ServiceProxy:
    """Discover ``service_name`` and bind a typed proxy with failover.

    The returned proxy validates calls against the discovered contract
    and dispatches through a :class:`ReplicaBalancer` over *every*
    registered binding (inproc, SOAP, REST): P2C selection on broker
    health, ejection and ``Retry-After`` cooling, each attempt defended
    by ``policy`` (default: a full :class:`ResiliencePolicy`), outcomes
    reported back to the broker, and in-call failover across bindings.
    """
    registration = broker.lookup(service_name)
    balancer = ReplicaBalancer(
        broker,
        service_name,
        bus=bus,
        policy=policy or ResiliencePolicy(),
        binding=None,
        clock=clock,
        sleep=sleep,
        rng=rng,
        budget=budget,
        http_clients=http_factory,
        middlewares=middlewares,
    )
    return make_proxy(registration.contract, balancer)
