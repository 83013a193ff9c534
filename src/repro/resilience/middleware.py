"""The policy-compiled middleware chain and the resilient invoker.

A chain is a stack of handler decorators compiled **once** from a
:class:`~repro.resilience.policy.ResiliencePolicy`; the no-fault path
through the compiled chain is a handful of closure frames, cheap enough
to sit on every call of every binding (see
``benchmarks/bench_resilience_overhead.py``).

Order (outer → inner)::

    fallback → retry → observe(QoS) → circuit breaker → bulkhead →
    deadline → [custom middleware] → terminal invoker

so a breaker fast-fail is observed (and reported to the broker) and then
retried against — possibly after the ``retry_after`` hint — while
fallback degradation only engages when the whole defended invocation has
failed.  Deadlines are cooperative: checked against the injected clock
before and after each attempt; a latency spike that blows the deadline
surfaces as :class:`~repro.core.faults.TimeoutFault` even though the
provider eventually answered (the caller has stopped caring — exactly the
"too slow to use" situation of the paper's §V).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..core.faults import ServiceUnavailable, TimeoutFault
from ..observability.runtime import OBS
from ..observability.trace import add_event
from .breaker import CircuitBreakerRegistry
from .policy import ResiliencePolicy, RetryBudget

__all__ = [
    "Invocation",
    "Handler",
    "Middleware",
    "Reporter",
    "Observation",
    "ResilientInvoker",
    "build_chain",
]


@dataclass(slots=True)
class Invocation:
    """Per-call state threaded through the middleware chain.

    ``properties`` is lazily allocated (``None`` until someone writes to
    it) — the class sits on every defended call, so its construction is
    part of the hot path measured by the overhead benchmark.
    """

    operation: str
    arguments: dict[str, Any]
    endpoint: str = "default"
    attempt: int = 0
    deadline: Optional[float] = None  # absolute, on the chain's clock
    properties: Optional[dict[str, Any]] = None


@dataclass(frozen=True)
class Observation:
    """One policy outcome, as reported to QoS sinks.

    ``fast_fail`` marks rejections that never touched the provider
    (open circuit, saturated bulkhead) — they count against availability
    but not against provider latency.
    """

    endpoint: str
    operation: str
    latency: float
    fault: bool
    fast_fail: bool


Handler = Callable[[Invocation], Any]
Middleware = Callable[[Handler], Handler]
Reporter = Callable[[Observation], None]


def _note(event: str, **attributes: Any) -> None:
    """Report one policy deviation to the active span and the metrics.

    Sits on fault/slow paths only, so a disabled subsystem costs one
    branch; enabled, the event lands on whatever span is active (the
    enclosing ``resilience.call`` of a policy that can emit one) and
    bumps ``repro_resilience_events_total``.
    """
    if not OBS.enabled:
        return
    add_event(event, **attributes)
    OBS.instruments.resilience_events.inc(event=event)


def build_chain(
    policy: ResiliencePolicy,
    terminal: Handler,
    *,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    rng: Optional[random.Random] = None,
    breakers: Optional[CircuitBreakerRegistry] = None,
    budget: Optional[RetryBudget] = None,
    reporter: Optional[Reporter] = None,
    middlewares: Sequence[Middleware] = (),
) -> Handler:
    """Compile ``policy`` into a single handler around ``terminal``.

    ``middlewares`` are custom decorators applied innermost (closest to
    the terminal invoker), e.g. fault injectors in the chaos harness.
    """
    if policy.circuit is not None and breakers is None:
        breakers = CircuitBreakerRegistry(policy.circuit, clock=clock)
    if rng is None:
        rng = random.Random(0)

    handler = terminal
    for middleware in reversed(middlewares):
        handler = middleware(handler)

    if policy.deadline_seconds is not None:
        handler = _deadline_middleware(handler, clock)
    if policy.bulkhead is not None:
        handler = _bulkhead_middleware(handler, policy.bulkhead.max_concurrent)
    if policy.circuit is not None:
        assert breakers is not None
        handler = _breaker_middleware(handler, breakers)
    if reporter is not None:
        handler = _observe_middleware(handler, clock, reporter)
    if policy.retry is not None:
        handler = _retry_middleware(handler, policy, clock, sleep, rng, budget)
    if policy.fallback is not None:
        handler = _fallback_middleware(handler, policy)
    return handler


def _deadline_middleware(handler: Handler, clock: Callable[[], float]) -> Handler:
    def run(invocation: Invocation) -> Any:
        deadline = invocation.deadline
        if deadline is not None and clock() >= deadline:
            _note(
                "deadline",
                operation=invocation.operation,
                phase="before-attempt",
            )
            raise TimeoutFault(
                f"deadline exceeded before attempt {invocation.attempt + 1} "
                f"of {invocation.operation!r}"
            )
        result = handler(invocation)
        if deadline is not None and clock() > deadline:
            _note(
                "deadline",
                operation=invocation.operation,
                phase="after-attempt",
            )
            raise TimeoutFault(
                f"deadline exceeded during {invocation.operation!r} "
                f"(attempt {invocation.attempt + 1})"
            )
        return result

    return run


def _bulkhead_middleware(handler: Handler, max_concurrent: int) -> Handler:
    semaphore = threading.Semaphore(max_concurrent)

    def run(invocation: Invocation) -> Any:
        if not semaphore.acquire(blocking=False):
            _note(
                "bulkhead_reject",
                endpoint=invocation.endpoint,
                max_concurrent=max_concurrent,
            )
            fault = ServiceUnavailable(
                f"bulkhead saturated ({max_concurrent} in flight) "
                f"for {invocation.endpoint!r}"
            )
            fault.fast_fail = True
            raise fault
        try:
            return handler(invocation)
        finally:
            semaphore.release()

    return run


def _breaker_middleware(handler: Handler, breakers: CircuitBreakerRegistry) -> Handler:
    # Per-chain memo of endpoint -> bound breaker methods: a chain usually
    # serves one endpoint, so this skips the registry's lock *and* the
    # per-call bound-method allocations on the hot path.
    cache: dict[str, tuple[Callable[[], bool], Callable[[bool], None], Callable[[bool], None]]] = {}

    def run(invocation: Invocation) -> Any:
        entry = cache.get(invocation.endpoint)
        if entry is None:
            breaker = breakers.breaker_for(invocation.endpoint)
            entry = (breaker.before_call, breaker.on_success, breaker.on_failure)
            cache[invocation.endpoint] = entry
        before_call, on_success, on_failure = entry
        try:
            probing = before_call()
        except ServiceUnavailable:
            _note("breaker_fast_fail", endpoint=invocation.endpoint)
            raise
        if probing:
            _note("breaker_probe", endpoint=invocation.endpoint)
        try:
            result = handler(invocation)
        except Exception:
            if on_failure(probing):
                _note("breaker_open", endpoint=invocation.endpoint)
            raise
        if on_success(probing):
            _note("breaker_close", endpoint=invocation.endpoint)
        return result

    return run


def _observe_middleware(
    handler: Handler, clock: Callable[[], float], reporter: Reporter
) -> Handler:
    def run(invocation: Invocation) -> Any:
        start = clock()
        try:
            result = handler(invocation)
        except Exception as exc:
            reporter(
                Observation(
                    invocation.endpoint,
                    invocation.operation,
                    clock() - start,
                    fault=True,
                    fast_fail=bool(getattr(exc, "fast_fail", False)),
                )
            )
            raise
        reporter(
            Observation(
                invocation.endpoint,
                invocation.operation,
                clock() - start,
                fault=False,
                fast_fail=False,
            )
        )
        return result

    return run


def _retry_middleware(
    handler: Handler,
    policy: ResiliencePolicy,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    rng: random.Random,
    budget: Optional[RetryBudget],
) -> Handler:
    retry = policy.retry
    assert retry is not None
    # Hoist frozen-dataclass reads out of the per-call path.
    attempts = retry.attempts
    retry_on = retry.retry_on
    base_delay = retry.base_delay
    factor = retry.factor
    max_delay = retry.max_delay
    jitter = retry.jitter

    def run(invocation: Invocation) -> Any:
        if budget is not None:
            budget.record_attempt()
        try:
            # Fast path: the overwhelmingly common no-fault first attempt
            # costs one try frame — no loop, no bookkeeping.
            return handler(invocation)
        except retry_on as exc:
            last: Exception = exc
        delay = base_delay
        for attempt in range(1, attempts):
            wait = delay
            if jitter and delay:
                wait += delay * jitter * (2.0 * rng.random() - 1.0)
                wait = max(wait, 0.0)
            retry_after = getattr(last, "retry_after", None)
            if retry_after is not None:
                wait = max(wait, float(retry_after))
            if (
                invocation.deadline is not None
                and clock() + wait >= invocation.deadline
            ):
                stopped = "deadline"  # no time left to wait *and* attempt again
                break
            # after the deadline check: a retry it stops spends no token
            if budget is not None and not budget.allow_retry():
                stopped = "budget"
                break
            if wait > 0:
                sleep(wait)
            delay = min(delay * factor, max_delay)
            invocation.attempt = attempt
            _note(
                "retry",
                operation=invocation.operation,
                attempt=attempt,
                endpoint=invocation.endpoint,
            )
            try:
                return handler(invocation)
            except retry_on as exc:
                last = exc
        else:
            raise last  # attempts exhausted
        _note(
            "retry_stopped",
            reason=stopped,
            operation=invocation.operation,
            attempt=attempt,
            endpoint=invocation.endpoint,
        )
        raise last

    return run


def _fallback_middleware(handler: Handler, policy: ResiliencePolicy) -> Handler:
    fallback = policy.fallback
    assert fallback is not None
    last_good: dict[tuple[str, str], Any] = {}
    lock = threading.Lock()

    def run(invocation: Invocation) -> Any:
        key = (invocation.endpoint, invocation.operation)
        try:
            result = handler(invocation)
        except fallback.applies_to:
            if fallback.use_last_good:
                with lock:
                    cached = key in last_good
                    value = last_good.get(key)
                if cached:
                    _note(
                        "fallback",
                        source="last_good",
                        operation=invocation.operation,
                    )
                    return value
            if fallback.has_static_value:
                _note(
                    "fallback",
                    source="static",
                    operation=invocation.operation,
                )
                return fallback.value
            raise
        if fallback.use_last_good:
            with lock:
                last_good[key] = result
        return result

    return run


class ResilientInvoker:
    """A policy-defended invoker: drop-in for any proxy/bus/transport invoker.

    Wraps a raw ``(operation, arguments) -> result`` callable — a bus
    call, a :class:`~repro.transport.soap.SoapClient`'s ``call``, a
    :class:`~repro.transport.rest.RestClient`'s ``call`` — with the
    middleware chain compiled from ``policy``.  Because the wrapped shape
    matches :data:`repro.core.proxy.Invoker`, the result plugs straight
    into :func:`repro.core.proxy.make_proxy`.
    """

    def __init__(
        self,
        invoker: Callable[[str, dict[str, Any]], Any],
        policy: Optional[ResiliencePolicy] = None,
        *,
        endpoint: str = "default",
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        breakers: Optional[CircuitBreakerRegistry] = None,
        budget: Optional[RetryBudget] = None,
        reporter: Optional[Reporter] = None,
        middlewares: Sequence[Middleware] = (),
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.endpoint = endpoint
        self.raw_invoker = invoker
        self._clock = clock
        self._deadline_seconds = self.policy.deadline_seconds
        # unprotected: no stage retries or notes events; no span to open
        self._traced = self.policy != ResiliencePolicy.unprotected()

        def terminal(invocation: Invocation) -> Any:
            return invoker(invocation.operation, invocation.arguments)

        self._chain = build_chain(
            self.policy,
            terminal,
            clock=clock,
            sleep=sleep,
            rng=rng,
            breakers=breakers,
            budget=budget,
            reporter=reporter,
            middlewares=middlewares,
        )

    def __call__(self, operation: str, arguments: dict[str, Any]) -> Any:
        """Invoke ``operation`` under the compiled policy chain.

        With tracing collecting, the whole defended invocation runs
        inside one ``resilience.call`` span: each attempt's inner span
        (bus dispatch, SOAP/REST client call) becomes a *sibling* child,
        and policy deviations land on it as events — a retry storm reads
        directly off the trace tree.  An unprotected policy (a bare
        balancer's default) opens none: its one attempt is the call.
        """
        invocation = Invocation(operation, arguments, endpoint=self.endpoint)
        if self._deadline_seconds is not None:
            invocation.deadline = self._clock() + self._deadline_seconds
        if not self._traced or not OBS.enabled or not OBS.tracer.sampling:
            return self._chain(invocation)
        with OBS.tracer.span(
            "resilience.call",
            kind="internal",
            attributes={"endpoint": self.endpoint, "operation": operation},
        ) as span:
            result = self._chain(invocation)
            if invocation.attempt:
                span.set_attribute("attempts", invocation.attempt + 1)
            return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResilientInvoker(endpoint={self.endpoint!r})"
