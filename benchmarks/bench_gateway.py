"""Gateway bench: what does the mediation plane cost per call?

The front door runs bearer termination, RBAC, rate-limit accounting and
balanced forwarding on every request — worth it only if the toll stays
small against a realistic backend.  Two variants of the same threaded
workload against the same 3-replica fleet:

* ``direct_replica`` — callers hit one replica's REST binding directly
  (the un-mediated baseline: no auth, no limits, no extra hop);
* ``through_gateway`` — callers present a bearer token to the gateway,
  which authenticates, authorizes, rate-limits and forwards through its
  :class:`ReplicaBalancer`.

The ceiling is on **p50 latency**: mediation must add at most
``OVERHEAD_CEILING`` (25%) to the median call against an I/O-bound
handler.  Results land in ``BENCH_gateway.json``;
``bench_regression_guard.py`` normalises future runs by their own
``direct_replica`` row, so the guarded factor *is* the relative cost of
mediation and machine speed cancels.
"""

import json
import statistics
import threading
import time
from pathlib import Path

from repro.core import Service, ServiceBroker, operation
from repro.gateway import (
    Gateway,
    GatewayRoute,
    RateLimiter,
    RateLimitPolicy,
    SecurityPolicy,
)
from repro.replication import publish_replicated
from repro.security.access import AccessControl
from repro.security.auth import PasswordVault, TokenIssuer
from repro.transport.client import HttpClient

THREADS = 8
CALLS_PER_THREAD = 25
HANDLER_SLEEP = 0.002  # simulated provider work per request (I/O bound)
WORKERS_PER_NODE = 4
REPEATS = 2            # best-of per variant (by p50)
OVERHEAD_CEILING = 0.25  # gateway may add at most 25% to p50 latency
PASSWORD = "Bench-Horse-77"
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_gateway.json"


class BenchService(Service):
    """A tiny I/O-bound provider: fixed 'backend' latency per request."""

    service_name = "GatewayBench"
    category = "bench"

    @operation(idempotent=True)
    def ping(self, n: int) -> int:
        """Sleep the simulated backend latency, return ``n``."""
        time.sleep(HANDLER_SLEEP)
        return n


def make_security():
    vault = PasswordVault()
    vault.set_password("bench", PASSWORD, PASSWORD)
    access = AccessControl()
    access.define_role("caller", ["bench:call"])
    access.assign_role("bench", "caller")
    return SecurityPolicy(TokenIssuer(), access, vault)


def run_batch(host, port, path_for, headers=None):
    """Latencies (seconds) for THREADS x CALLS_PER_THREAD HTTP calls.

    Each thread drives its own pooled :class:`HttpClient`;
    ``path_for(n)`` builds the request target for call ``n``.
    """
    latencies: list[float] = []
    errors: list[Exception] = []
    lock = threading.Lock()
    barrier = threading.Barrier(THREADS)

    def worker(index):
        client = HttpClient(host, port, pool_size=2)
        try:
            barrier.wait()
            mine = []
            for call in range(CALLS_PER_THREAD):
                n = index * CALLS_PER_THREAD + call
                started = time.perf_counter()
                response = client.get(path_for(n), headers=headers)
                elapsed = time.perf_counter() - started
                assert response.status == 200, response.text()
                mine.append(elapsed)
            with lock:
                latencies.extend(mine)
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    assert len(latencies) == THREADS * CALLS_PER_THREAD
    return latencies


def best_p50(host, port, path_for, headers=None):
    """Best-of-REPEATS (p50, mean) after one warming batch."""
    run_batch(host, port, path_for, headers)  # warm pools + token caches
    batches = [run_batch(host, port, path_for, headers) for _ in range(REPEATS)]
    best = min(batches, key=statistics.median)
    return statistics.median(best), statistics.fmean(best)


def test_gateway_overhead(report):
    broker = ServiceBroker()
    with publish_replicated(
        BenchService, broker, 3, workers=WORKERS_PER_NODE
    ) as fleet:
        node = fleet.node(0)
        direct_p50, direct_mean = best_p50(
            node.server.host, node.server.port,
            lambda n: f"/rest/GatewayBench/ping?n={n}",
        )

        gw = Gateway(
            broker,
            [GatewayRoute("/api/GatewayBench", "GatewayBench",
                          permission="bench:call")],
            security=make_security(),
            limiter=RateLimiter(
                RateLimitPolicy(rate=100_000.0, burst=100_000.0)
            ),
        )
        with gw:
            login = HttpClient(gw.server.host, gw.server.port)
            response = login.post(
                "/auth/token",
                f"user=bench&password={PASSWORD}",
                content_type="application/x-www-form-urlencoded",
            )
            assert response.status == 200, response.text()
            token = json.loads(response.text())["token"]
            login.close()
            gateway_p50, gateway_mean = best_p50(
                gw.server.host, gw.server.port,
                lambda n: f"/api/GatewayBench/ping?n={n}",
                headers={"Authorization": f"Bearer {token}"},
            )

    overhead = gateway_p50 / direct_p50 - 1.0
    timings = {"direct_replica": direct_p50, "through_gateway": gateway_p50}
    results = {
        "threads": THREADS,
        "calls_per_thread": CALLS_PER_THREAD,
        "handler_sleep_ms": HANDLER_SLEEP * 1e3,
        "workers_per_node": WORKERS_PER_NODE,
        "method": "per-call p50 over best-of-repeats threaded batches; "
                  "same 3-replica fleet behind both variants",
        "p50_seconds": timings,
        "mean_seconds": {
            "direct_replica": direct_mean,
            "through_gateway": gateway_mean,
        },
        "microseconds_per_call": {
            name: seconds * 1e6 for name, seconds in timings.items()
        },
        "p50_overhead": overhead,
        "overhead_ceiling": OVERHEAD_CEILING,
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    report(
        "Gateway mediation overhead (auth + rate limit + balanced forward)",
        "\n".join(
            [
                f"workload         : {THREADS} threads x "
                f"{CALLS_PER_THREAD} calls, "
                f"{HANDLER_SLEEP * 1e3:.0f} ms handler, 3 replicas",
                f"direct to replica: p50 {direct_p50 * 1e3:7.2f} ms  "
                f"mean {direct_mean * 1e3:7.2f} ms",
                f"through gateway  : p50 {gateway_p50 * 1e3:7.2f} ms  "
                f"mean {gateway_mean * 1e3:7.2f} ms",
                f"p50 overhead     : {overhead:+8.1%}  "
                f"(ceiling +{OVERHEAD_CEILING:.0%})",
                f"written to       : {RESULTS_PATH.name}",
            ]
        ),
    )

    assert overhead <= OVERHEAD_CEILING, (
        f"gateway adds {overhead:+.1%} at p50, ceiling "
        f"+{OVERHEAD_CEILING:.0%}"
    )
