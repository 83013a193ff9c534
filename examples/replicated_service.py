#!/usr/bin/env python
"""Replication walkthrough: publish N replicas, kill one, recover it.

The dependability unit's scale-out lab in one script:

1. ``publish_replicated`` stands up three real HTTP nodes of one
   ``Quote`` service — each with its own server, metrics registry and
   ``/metrics`` page — behind a *single* broker registration
2. a ``ReplicaBalancer`` spreads client calls across the set
   (power-of-two-choices on broker health scores)
3. one replica is hard-killed mid-traffic: callers never notice — the
   balancer fails over within the call, ejects the corpse (its
   per-replica circuit breaker trips open), and the per-service fleet
   SLO watched by a ``FleetMonitor`` stays green
4. the node restarts on its old port; once the breaker's open period
   lapses, its one half-open probe call re-admits the node and the
   fleet is whole again
"""

import time

from repro.core import Service, ServiceBroker, operation
from repro.observability import BurnRateRule, observed
from repro.replication import publish_replicated, watch_replica_set
from repro.resilience import CircuitPolicy, ReplicaBalancer
from repro.services import FleetMonitor

READMIT_AFTER = 0.4


class Quote(Service):
    """A tiny quotation service, replicated three ways."""

    category = "demo"

    @operation(idempotent=True)
    def quote(self, symbol: str) -> str:
        """Return a deterministic 'price' for a symbol."""
        return f"{symbol}:{sum(symbol.encode()) % 997}"


def drive(balancer, count, label):
    ok = 0
    for i in range(count):
        assert balancer("quote", {"symbol": f"SYM{i}"}).startswith("SYM")
        ok += 1
    print(f"  {label}: {ok}/{count} calls ok")
    return ok


def main() -> None:
    broker = ServiceBroker()
    monitor = FleetMonitor()
    with observed() as obs, publish_replicated(Quote, broker, 3) as fleet:
        print(f"published {len(fleet)} replicas of 'Quote':")
        for node in fleet.nodes:
            print(f"  {node.name} -> {node.base_url}")
        print(f"broker holds ONE registration, "
              f"{len(broker.lookup('Quote').endpoints)} endpoints")

        watch_replica_set(
            monitor, fleet, rules=[BurnRateRule(10.0, 30.0, burn_threshold=2.0)]
        )
        balancer = ReplicaBalancer(
            broker,
            "Quote",
            ejection=CircuitPolicy(
                failure_threshold=1, recovery_seconds=READMIT_AFTER
            ),
        )
        try:
            print("healthy fleet:")
            drive(balancer, 12, "steady traffic")

            victim = fleet.kill(1)
            print(f"killed {victim.name} (broker not told — a silent crash)")
            drive(balancer, 12, "one replica dead")
            status = balancer.states()
            dead = next(s for k, s in status.items() if victim.base_url in k)
            print(f"  balancer ejected it: status={dead['status']}")

            monitor.tick()
            report = [
                row for row in monitor.slo_report()
                if row.get("service") == "Quote"
            ]
            green = all(row["compliant"] for row in report)
            firing = [a for a in monitor.alerts() if a["state"] == "firing"]
            print(f"  fleet SLO green: {green}; firing alerts: {len(firing)}")

            fleet.restart(1)
            print(f"restarted {victim.name} on its old port "
                  f"({victim.base_url})")
            time.sleep(READMIT_AFTER + 0.1)
            drive(balancer, 12, "after recovery")
            alive = all(
                s["status"] == "live" for s in balancer.states().values()
            )
            print(f"  all replicas live again: {alive}")

            calls = obs.instruments.replica_calls
            events = obs.instruments.replica_events
            print("replica metrics:")
            print(f"  ok={calls.value(service='Quote', outcome='ok'):.0f} "
                  f"failover={calls.value(service='Quote', outcome='failover'):.0f} "
                  f"error={calls.value(service='Quote', outcome='error'):.0f}")
            print(f"  ejects={events.value(service='Quote', event='eject'):.0f} "
                  f"readmits={events.value(service='Quote', event='readmit'):.0f}")
        finally:
            balancer.close()
        monitor.close()
    print("done: a replica died under load and no caller ever saw it")


if __name__ == "__main__":
    main()
