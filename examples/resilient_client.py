#!/usr/bin/env python
"""Dependability walkthrough: one policy defending a flaky service.

CSE445 Unit 6 ("Dependability of Web Software") teaches the client-side
answer to the paper's §V complaint — free public services are "too slow
to use (frequent timeout) ... often offline or removed without notice".
This example shows the resilience middleware earning its keep:

1. declare a :class:`ResiliencePolicy` (deadline, retries, circuit
   breaker, fallback) — pure data, no behaviour
2. attach it to a broker-discovered proxy; calls now retry with
   deterministic backoff, honour ``Retry-After`` hints, and feed QoS
   observations back to the broker
3. watch the circuit breaker trip when the provider dies, fail fast
   while it is open, and probe it back closed after recovery
4. fail over within the call when the broker's favourite endpoint
   dies: the replica balancer behind the proxy picks by per-endpoint
   QoS (power of two choices), falls over to the next endpoint, and
   the broker's books then rank the survivor first

Everything is driven by a manual clock — the whole outage plays out in
zero wall-clock seconds and is reproducible run-to-run.
"""

from repro.core import (
    Endpoint,
    Service,
    ServiceBroker,
    ServiceBus,
    ServiceUnavailable,
    operation,
    proxy_from_broker,
)
from repro.resilience import (
    CircuitPolicy,
    FallbackPolicy,
    ManualClock,
    ResiliencePolicy,
    RetryPolicy,
    resilient_proxy_from_broker,
)


class QuoteService(Service):
    """A stock-quote lookalike that can be switched on and off."""

    category = "demo"

    healthy = True

    @operation(idempotent=True)
    def quote(self, symbol: str) -> float:
        """Price for a symbol — or a refusal while the provider is down."""
        if not self.healthy:
            raise ServiceUnavailable("provider offline", retry_after=5.0)
        return 42.0 + len(symbol)


def main() -> None:
    clock = ManualClock()
    broker, bus = ServiceBroker(), ServiceBus()
    provider = QuoteService()
    bus.host_and_publish(provider, broker, provider="asu-repository")

    # -- 1+2: a declarative policy attached at the proxy boundary ---------
    policy = ResiliencePolicy(
        deadline_seconds=30.0,
        retry=RetryPolicy(attempts=3, base_delay=1.0, factor=2.0),
        circuit=CircuitPolicy(failure_threshold=3, recovery_seconds=10.0),
        fallback=FallbackPolicy(use_last_good=True),
    )
    proxy = proxy_from_broker(
        broker, bus, "QuoteService",
        policy=policy, clock=clock, sleep=clock.advance,
    )
    print("healthy call:", proxy.quote(symbol="ASU"))

    # -- 3: the provider dies; retries, then the breaker trips ------------
    provider.healthy = False
    for call in range(2):
        value = proxy.quote(symbol="ASU")  # degraded: last-good fallback
        print(f"outage call {call + 1}: {value} (last-good fallback)")
    registration = broker.lookup("QuoteService")
    print("broker saw faults:", registration.qos.faults > 0)

    # -- recovery: after the lease-like window, one probe closes it -------
    clock.advance(10.0)
    provider.healthy = True
    print("after recovery:", proxy.quote(symbol="ASU"))

    # -- 4: failover across endpoints when the favourite dies -------------
    dead = Endpoint("inproc", bus.host(QuoteService(), "quotes-dead"))
    live = Endpoint("inproc", "inproc://quoteservice")
    broker.publish(QuoteService.contract(), [dead, live], provider="two-sites")
    # site two had a blip earlier, so the broker favours site one...
    broker.report("QuoteService", 0.05, fault=True, endpoint=live)
    bus._hosts["quotes-dead"].service.healthy = False  # ...which is down now

    failover = resilient_proxy_from_broker(
        broker, "QuoteService",
        bus=bus,
        policy=ResiliencePolicy(retry=RetryPolicy(attempts=1)),
        clock=clock, sleep=clock.advance,
    )
    print("failover call:", failover.quote(symbol="ASU"))
    faults = broker.lookup("QuoteService").qos_for(dead).faults
    print("dead site tried first, faults seen:", faults)
    ranked = broker.endpoints_by_preference("QuoteService")
    print("broker now prefers:", ranked[0].address)
    print("simulated seconds elapsed:", round(clock.now(), 2))


if __name__ == "__main__":
    main()
