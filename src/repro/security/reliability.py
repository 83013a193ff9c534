"""Reliability patterns — the other half of "Dependability of Web Software".

The paper §V complains about free public services: "too slow to use
(frequent timeout)... often offline or removed without notice".  CSE445
Unit 6 teaches the client-side defenses.  Each pattern here wraps an
invokable (``callable(**kwargs) -> value``) and composes with the others:

* :func:`with_retry` — bounded retries with (deterministic) backoff
* :func:`with_timeout` — deadline enforcement on a worker thread
* :class:`Checkpointer` — save/restore long-running computation state
* :class:`FaultInjector` — deterministic fault injection for testing

The circuit breaker and replica failover are infrastructure, and each
has exactly one implementation in :mod:`repro.resilience`:
:class:`~repro.resilience.breaker.EndpointBreaker` (``breaker(fn)`` runs
a zero-argument callable under the closed → open → half-open automaton)
and :class:`~repro.resilience.replica.ReplicaBalancer` (health-gated
selection with in-call failover across a service's replicas).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Optional, Sequence

from ..core.faults import ServiceFault, TimeoutFault

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

    ``jitter`` randomizes each backoff delay by +/- that fraction through
    ``rng`` (an injectable :class:`random.Random`; defaults to a fixed
    seed, so retries are deterministic unless you supply entropy) —
    de-synchronizing retry storms across clients.  A ``retry_after``
    hint on the failure (set by :class:`~repro.core.faults.ServiceUnavailable`
    and populated from HTTP 503 ``Retry-After`` headers by the wire
    bindings) raises the wait to at least that long, even when no backoff
    was configured.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError("jitter must be in [0, 1]")
    if rng is None:
        rng = random.Random(0)

    def wrapped(**kwargs: Any) -> Any:
        delay = backoff_seconds
        last: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                return fn(**kwargs)
            except retry_on as exc:
                last = exc
                if attempt + 1 < attempts:
                    wait = delay
                    if jitter and wait > 0:
                        wait += wait * jitter * (2.0 * rng.random() - 1.0)
                        wait = max(wait, 0.0)
                    retry_after = getattr(exc, "retry_after", None)
                    if retry_after is not None:
                        wait = max(wait, float(retry_after))
                    if wait > 0:
                        sleep(wait)
                    delay *= backoff_factor
        assert last is not None
        raise last

    wrapped.__name__ = f"retry({getattr(fn, '__name__', 'fn')})"
    return wrapped


def with_timeout(fn: Invokable, *, seconds: float) -> Invokable:
    """Run ``fn`` on a worker thread; raise :class:`TimeoutFault` on deadline.

    (The worker is abandoned, not killed — the standard caveat the course
    discusses about cooperative cancellation.)
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
