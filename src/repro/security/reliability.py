"""Reliability patterns — the other half of "Dependability of Web Software".

The paper §V complains about free public services: "too slow to use
(frequent timeout)... often offline or removed without notice".  CSE445
Unit 6 teaches the client-side defenses.  Each pattern here wraps an
invokable (``callable(**kwargs) -> value``) and composes with the others:

* :func:`with_retry` — bounded retries with (deterministic) backoff
* :func:`with_timeout` — preemptive deadline on a worker thread
* :class:`Checkpointer` — save/restore long-running computation state
* :class:`FaultInjector` — deterministic fault injection for testing

The retry schedule, the circuit breaker and replica failover each have
exactly one implementation in :mod:`repro.resilience`: :func:`with_retry`
is built on the retry middleware behind
:class:`~repro.resilience.middleware.ResilientInvoker`;
:class:`~repro.resilience.breaker.EndpointBreaker` (``breaker(fn)`` runs
a zero-argument callable under the closed → open → half-open automaton)
guards endpoints and crawled domains alike; and
:class:`~repro.resilience.replica.ReplicaBalancer` does health-gated
selection with in-call failover across a service's replicas.
"""

from __future__ import annotations

import math
import random
import threading
import time
from typing import Any, Callable, Optional, Sequence

from ..core.faults import ServiceFault, TimeoutFault
from ..resilience.middleware import ResilientInvoker
from ..resilience.policy import ResiliencePolicy, RetryPolicy

__all__ = [
    "with_retry",
    "with_timeout",
    "Checkpointer",
    "FaultInjector",
]

Invokable = Callable[..., Any]


def with_retry(
    fn: Invokable,
    *,
    attempts: int = 3,
    backoff_seconds: float = 0.0,
    backoff_factor: float = 2.0,
    jitter: float = 0.0,
    rng: Optional[random.Random] = None,
    retry_on: tuple[type[Exception], ...] = (ServiceFault, OSError),
    sleep: Callable[[float], None] = time.sleep,
) -> Invokable:
    """Retry on listed exception types; re-raise the last failure.

    Built on the one retry schedule: a
    :class:`~repro.resilience.middleware.ResilientInvoker` whose policy
    has only a :class:`~repro.resilience.policy.RetryPolicy` (no delay
    cap, no circuit).  ``jitter`` randomizes each backoff delay by +/-
    that fraction through ``rng`` (an injectable :class:`random.Random`;
    defaults to a fixed seed, so retries are deterministic unless you
    supply entropy) — de-synchronizing retry storms across clients.  A
    ``retry_after`` hint on the failure (set by
    :class:`~repro.core.faults.ServiceUnavailable` and populated from
    HTTP 503 ``Retry-After`` headers by the wire bindings) raises the
    wait to at least that long, even when no backoff was configured.
    """
    policy = ResiliencePolicy(
        retry=RetryPolicy(
            attempts,
            base_delay=backoff_seconds,
            factor=backoff_factor,
            max_delay=math.inf,
            jitter=jitter,
            retry_on=retry_on,
        ),
        circuit=None,
    )
    name = getattr(fn, "__name__", "fn")
    invoker = ResilientInvoker(
        lambda _operation, arguments: fn(**arguments),
        policy,
        sleep=sleep,
        rng=rng,
    )

    def wrapped(**kwargs: Any) -> Any:
        return invoker(name, kwargs)

    wrapped.__name__ = f"retry({name})"
    return wrapped


def with_timeout(fn: Invokable, *, seconds: float) -> Invokable:
    """Run ``fn`` on a worker thread; raise :class:`TimeoutFault` on deadline.

    (The worker is abandoned, not killed — the standard caveat the course
    discusses about cooperative cancellation.)

    This is the only *preemptive* bound, so it stays beside the
    resilience chain's ``deadline_seconds``: that deadline is
    cooperative — checked before and after each attempt — and cannot
    stop a call that hangs, while this one returns on time and leaves
    the hung call behind.  Neither can express the other.
    """
    if seconds <= 0:
        raise ValueError("timeout must be positive")

    def wrapped(**kwargs: Any) -> Any:
        box: dict[str, Any] = {}

        def target() -> None:
            try:
                box["result"] = fn(**kwargs)
            except Exception as exc:  # noqa: BLE001 - transported to caller
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=seconds)
        if thread.is_alive():
            raise TimeoutFault(f"call exceeded {seconds}s deadline")
        if "error" in box:
            raise box["error"]
        return box["result"]

    wrapped.__name__ = f"timeout({getattr(fn, '__name__', 'fn')})"
    return wrapped


class Checkpointer:
    """Checkpoint/restore for long computations (recovery-oriented design).

    ``run`` executes ``step(state) -> (state, done)`` repeatedly, saving
    state through ``save`` every ``interval`` steps; on restart, ``run``
    resumes from the last saved state.
    """

    def __init__(
        self,
        save: Callable[[Any], None],
        load: Callable[[], Optional[Any]],
        *,
        interval: int = 10,
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.save = save
        self.load = load
        self.interval = interval

    def run(self, step: Callable[[Any], tuple[Any, bool]], initial: Any) -> Any:
        state = self.load()
        if state is None:
            state = initial
        count = 0
        while True:
            state, done = step(state)
            count += 1
            if done:
                self.save(state)
                return state
            if count % self.interval == 0:
                self.save(state)


class FaultInjector:
    """Deterministic fault injection wrapper for dependability testing.

    ``plan`` is a sequence of fault specs consumed one call at a time:
    ``None`` (pass through), an Exception instance (raised), or a float
    (seconds of injected latency).  When the plan is exhausted the wrapped
    callable passes through untouched.
    """

    def __init__(
        self,
        fn: Invokable,
        plan: Sequence[Optional[Exception | float]],
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.fn = fn
        self._plan = list(plan)
        self._position = 0
        self._sleep = sleep
        self._lock = threading.Lock()
        self.calls = 0
        self.injected_faults = 0

    def __call__(self, **kwargs: Any) -> Any:
        with self._lock:
            self.calls += 1
            spec = (
                self._plan[self._position] if self._position < len(self._plan) else None
            )
            self._position += 1
        if isinstance(spec, Exception):
            with self._lock:
                self.injected_faults += 1
            raise spec
        if isinstance(spec, (int, float)) and spec:
            self._sleep(float(spec))
        return self.fn(**kwargs)
