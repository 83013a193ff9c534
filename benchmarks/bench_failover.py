"""Failover bench: replica-set throughput and the cost of a mid-load kill.

Three questions the replication tentpole must answer with numbers:

* **scale-out** — does a 3-replica set actually serve an I/O-bound
  workload faster than a single node?  Each node has its own worker
  pool, so concurrent callers should overlap across replicas;
* **steady overhead** — the :class:`ReplicaBalancer`'s P2C planning,
  per-replica ejection breakers and QoS bookkeeping ride on every call;
  the per-call cost must stay a
  small multiple of the single-replica path, not a new bottleneck;
* **kill blast radius** — hard-killing one replica mid-batch must leave
  zero caller-visible faults, and the p99 latency *during the kill*
  must stay within ``KILL_P99_CEILING`` (failover means one extra
  connection attempt, not a timeout stall).

Results land in ``BENCH_failover.json`` next to the repo root;
``bench_regression_guard.py`` normalises future runs by their own
``single_replica`` row and holds the relative factors to the committed
baseline (machine speed cancels; "failover got slower" does not).
"""

import json
import threading
import time
from pathlib import Path

from repro.core import Service, ServiceBroker, operation
from repro.replication import publish_replicated
from repro.resilience import CircuitPolicy, ReplicaBalancer

THREADS = 8
CALLS_PER_THREAD = 25
HANDLER_SLEEP = 0.002  # simulated provider work per request (I/O bound)
WORKERS_PER_NODE = 4
REPEATS = 2            # best-of per variant
SCALEOUT_FLOOR = 1.1   # 3 replicas must beat 1 by at least this factor
KILL_P99_CEILING = 0.5  # seconds; p99 during the kill stays bounded
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_failover.json"


class BenchService(Service):
    """A tiny I/O-bound provider: fixed 'backend' latency per request."""

    service_name = "FailoverBench"
    category = "bench"

    @operation(idempotent=True)
    def ping(self, n: int) -> int:
        """Sleep the simulated backend latency, return ``n``."""
        time.sleep(HANDLER_SLEEP)
        return n


def make_balancer(broker):
    return ReplicaBalancer(
        broker,
        "FailoverBench",
        ejection=CircuitPolicy(failure_threshold=1, recovery_seconds=60.0),
    )


def run_batch(balancer, latencies=None, mid_batch=None):
    """Wall seconds for THREADS x CALLS_PER_THREAD balanced calls.

    ``latencies`` (a list) collects per-call seconds; ``mid_batch`` is a
    zero-arg callable fired from a side thread once ~25% of the batch
    duration has elapsed (the kill switch).
    """
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(THREADS + (1 if mid_batch else 0))

    def worker(index):
        barrier.wait()
        try:
            for call in range(CALLS_PER_THREAD):
                n = index * CALLS_PER_THREAD + call
                started = time.perf_counter()
                assert balancer("ping", {"n": n}) == n
                if latencies is not None:
                    with lock:
                        latencies.append(time.perf_counter() - started)
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(THREADS)
    ]
    if mid_batch is not None:
        expected = CALLS_PER_THREAD * HANDLER_SLEEP
        def assassin():
            barrier.wait()
            time.sleep(expected * 0.25)
            mid_batch()
        threads.append(threading.Thread(target=assassin))
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def best_batch_seconds(balancer):
    return min(run_batch(balancer) for _ in range(REPEATS))


def steady_state_seconds(replicas):
    broker = ServiceBroker()
    with publish_replicated(
        BenchService, broker, replicas, workers=WORKERS_PER_NODE
    ) as fleet:
        balancer = make_balancer(broker)
        try:
            run_batch(balancer)  # warm the connection pools
            return best_batch_seconds(balancer)
        finally:
            balancer.close()


def kill_phase():
    """One 3-replica batch with a mid-batch kill; returns (seconds, p99)."""
    broker = ServiceBroker()
    with publish_replicated(
        BenchService, broker, 3, workers=WORKERS_PER_NODE
    ) as fleet:
        balancer = make_balancer(broker)
        try:
            run_batch(balancer)  # warm pools against all three nodes
            latencies = []
            seconds = run_batch(
                balancer, latencies=latencies, mid_batch=lambda: fleet.kill(1)
            )
            assert len(latencies) == THREADS * CALLS_PER_THREAD
            ordered = sorted(latencies)
            p99 = ordered[min(int(0.99 * len(ordered)), len(ordered) - 1)]
            dead = [
                state
                for key, state in balancer.states().items()
                if fleet.node(1).base_url in key
            ]
            assert dead and dead[0]["status"] == "ejected"
            return seconds, p99
        finally:
            balancer.close()


def test_failover_bench(report):
    total_calls = THREADS * CALLS_PER_THREAD
    single_s = steady_state_seconds(1)
    three_s = steady_state_seconds(3)
    kill_s, kill_p99 = kill_phase()

    timings = {
        "single_replica": single_s,
        "three_replicas": three_s,
        "three_replicas_during_kill": kill_s,
    }
    scaleout = single_s / three_s
    results = {
        "threads": THREADS,
        "calls_per_thread": CALLS_PER_THREAD,
        "handler_sleep_ms": HANDLER_SLEEP * 1e3,
        "workers_per_node": WORKERS_PER_NODE,
        "method": "best-of-repeats wall time per batch; kill fires at ~25% "
                  "of one batch into the measured kill batch",
        "seconds": timings,
        "microseconds_per_call": {
            name: seconds / total_calls * 1e6
            for name, seconds in timings.items()
        },
        "requests_per_second": {
            name: total_calls / seconds for name, seconds in timings.items()
        },
        "scaleout_three_vs_one": scaleout,
        "scaleout_floor": SCALEOUT_FLOOR,
        "kill_p99_seconds": kill_p99,
        "kill_p99_ceiling": KILL_P99_CEILING,
        "caller_visible_faults_during_kill": 0,  # run_batch raised none
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    report(
        "Failover (replica set under load, one node killed mid-batch)",
        "\n".join(
            [
                f"workload            : {THREADS} threads x "
                f"{CALLS_PER_THREAD} calls, "
                f"{HANDLER_SLEEP * 1e3:.0f} ms handler",
                f"single replica      : {single_s:8.3f} s  "
                f"({total_calls / single_s:7.1f} req/s)",
                f"three replicas      : {three_s:8.3f} s  "
                f"({total_calls / three_s:7.1f} req/s)",
                f"scale-out           : {scaleout:8.2f}x  "
                f"(floor {SCALEOUT_FLOOR:.1f}x)",
                f"during replica kill : {kill_s:8.3f} s  "
                f"p99 {kill_p99 * 1e3:7.1f} ms  "
                f"(ceiling {KILL_P99_CEILING * 1e3:.0f} ms)",
                f"caller faults       : 0 (asserted)",
                f"written to          : {RESULTS_PATH.name}",
            ]
        ),
    )

    assert scaleout >= SCALEOUT_FLOOR, (
        f"3 replicas only {scaleout:.2f}x a single node "
        f"(floor {SCALEOUT_FLOOR:.1f}x)"
    )
    assert kill_p99 <= KILL_P99_CEILING, (
        f"p99 during kill {kill_p99:.3f}s exceeds "
        f"{KILL_P99_CEILING:.1f}s ceiling"
    )
