"""Dependability middleware: policy-driven resilience for every binding.

The paper's §V observes that free public services are "too slow to use
(frequent timeout)... often offline or removed without notice".  This
package is the systematic answer: a declarative
:class:`~repro.resilience.policy.ResiliencePolicy` (deadline, jittered
retry with a shared retry budget, per-endpoint single-probe circuit
breakers, bulkhead concurrency caps, fallback/last-good degradation)
compiled once into a middleware chain that attaches at the
proxy/bus/transport boundary — so the same policy governs in-process,
SOAP-style, and REST-style invocations identically, outcomes feed the
broker's QoS reports, and discovery prefers whatever is actually healthy.

Deterministic by construction: clocks, sleeps, and RNGs are injectable
everywhere, and :mod:`repro.resilience.chaos` provides seeded fault plans
plus a manual clock for flake-free chaos testing.
"""

from .policy import (
    NO_FALLBACK,
    RETRYABLE_FAULTS,
    BulkheadPolicy,
    CircuitPolicy,
    FallbackPolicy,
    ResiliencePolicy,
    RetryBudget,
    RetryPolicy,
)
from .breaker import CircuitBreakerRegistry, EndpointBreaker, Ticket
from .middleware import (
    Handler,
    Invocation,
    Middleware,
    Observation,
    Reporter,
    ResilientInvoker,
    build_chain,
)
from .binding import PooledHttpClients, broker_reporter, invoker_for_endpoint
from .replica import (
    FAILOVER_FAULTS,
    HedgePolicy,
    ReplicaBalancer,
    resilient_proxy_from_broker,
)
from .chaos import ChaosEvent, ChaosPlan, ManualClock

__all__ = [
    "ResiliencePolicy", "RetryPolicy", "CircuitPolicy", "BulkheadPolicy",
    "FallbackPolicy", "RetryBudget", "NO_FALLBACK", "RETRYABLE_FAULTS",
    "EndpointBreaker", "CircuitBreakerRegistry", "Ticket",
    "Invocation", "Observation", "Handler", "Middleware", "Reporter",
    "ResilientInvoker", "build_chain",
    "broker_reporter", "invoker_for_endpoint", "PooledHttpClients",
    "resilient_proxy_from_broker", "FAILOVER_FAULTS",
    "HedgePolicy", "ReplicaBalancer",
    "ManualClock", "ChaosEvent", "ChaosPlan",
]
