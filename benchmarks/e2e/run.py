#!/usr/bin/env python3
"""End-to-end benchmark: closed-loop consumers calling through the gateway.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                  # all four workloads
    python3 benchmarks/e2e/run.py --workload cache_mixed --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --workload account_fig4 --seed 0 --trace 1

Each run spawns the system under test (``sut.py``) in a child process,
sets it up several times to time set-up, then drives it from this
process with :data:`~workloads.CLIENT_THREADS` client threads, each
holding one ``HttpClient`` with one connection.  The loop is closed:
a thread sends its next request only after the previous answer, as a
synchronous SOA consumer does.  Unmeasured warm-up requests come first;
the measured phase lasts ``--seconds``.  Every answer is checked.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs an untraced and a traced system side by side, the
load alternating between them every half second so that both meet the
same machine, prints the per-layer ledger of the traced one, writes
``benchmarks/e2e/out/trace_<workload>.json`` and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.transport import HttpClient  # noqa: E402 - after the path setup

from channel import Channel  # noqa: E402
from ledger import (  # noqa: E402
    RECONCILE_TOLERANCE,
    Recorder,
    TracedHttpClient,
    format_ledger,
    percentile,
    summarize,
)
from workloads import CLIENT_THREADS, CLIENTS, WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"

#: The measured phase, unless ``--seconds`` says otherwise.
DEFAULT_SECONDS = 20.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Throughput and CPU per request are medians over windows this long.
WINDOW_SECONDS = 1.0
#: Latency percentiles are medians over chunks of this many consecutive
#: completions: enough for ten samples past the 99th percentile.
CHUNK_REQUESTS = 1000
#: With ``--trace 1`` the untraced and traced systems take turns this long
#: (shorter in runs too short for several turns).
SLOT_SECONDS = 0.5
#: Tracing may slow mean latency by at most this share.
MAX_TRACE_OVERHEAD = 0.15
#: Mismatches printed per run.
SHOWN_PROBLEMS = 5
ANSWER_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "sut_cpu_ms_per_req": "ms",
    "sut_peak_rss_mb": "MB",
}

#: Spans every workload records; their self times are never empty.
COMMON_SPANS = (
    "transport.edge",
    "gateway.handler",
    "gateway.auth",
    "gateway.ratelimit",
    "resilience.balancer",
    "transport.upstream",
    "replica.handler",
)
#: Spans only some workloads record.
WORKLOAD_SPANS = (
    "services.cache",
    "observability.export",
    "web.page",
    "apps.apply",
    "apps.create_password",
    "apps.login",
    "apps.store_add",
    "security.hash",
    "apps.credit_call",
)
COUNTER_UNITS = {
    "transport.upstream_connections": "count",
    "transport.rejected": "count",
    "gateway.refused": "count",
    "resilience.failovers": "count",
    "resilience.ejections": "count",
    "services.cache_hit_ratio": "ratio",
    "observability.kept_ratio": "ratio",
    "observability.export_dropped": "count",
    "apps.approved_ratio": "ratio",
    "transport.body_bytes_per_req": "bytes",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric ``--trace 1`` prints, with its unit."""
    units = {}
    for span in COMMON_SPANS + WORKLOAD_SPANS:
        units[f"{span}.calls_per_req"] = "count"
        units[f"{span}.self_share"] = "ratio"
    for span in COMMON_SPANS:
        units[f"{span}.self_us_mean"] = "us"
        units[f"{span}.self_us_p99"] = "us"
    units.update(COUNTER_UNITS)
    return units


class SystemUnderTest:
    """One ``sut.py`` child process and the channel to it.

    The child is a plain subprocess, not a ``multiprocessing`` one: that
    would also start a resource-tracker process that outlives the run.
    """

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        command = [sys.executable, str(HERE / "sut.py"), workload, str(seed), str(int(trace))]
        paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        started = time.perf_counter()
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
        )
        self._conn = Channel(self._process.stdout.fileno(), self._process.stdin.fileno())
        try:
            _ready, self.address, self.token = self._receive()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def ask(self, command: str) -> Any:
        self._conn.send(command)
        return self._receive()

    def _receive(self) -> Any:
        if not self._conn.poll(ANSWER_TIMEOUT):
            raise RuntimeError("the system under test stopped answering")
        reply = self._conn.recv()
        if isinstance(reply, tuple) and reply[0] == "error":
            raise RuntimeError(f"system under test failed:\n{reply[1]}")
        return reply

    def close(self) -> None:
        """Stop the child and wait for it, killing it if it hangs."""
        try:
            self._conn.send("stop")
        except OSError:
            pass  # the child has gone already
        try:
            self._process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdin.close()
        self._process.stdout.close()

    def __enter__(self) -> "SystemUnderTest":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ClientLog:
    """What one client thread saw of one system."""

    def __init__(self) -> None:
        self.attempted = 0
        self.completed = 0
        self.problems: list[str] = []
        self.latencies: list[tuple[float, float]] = []  # (completed at, latency)
        self.steps: dict[str, list[float]] = defaultdict(list)
        self.body_bytes = 0
        self.approved = 0
        self.applications = 0

    def exchange(self, generator: Any, http: HttpClient) -> None:
        """Send the generator's next request, time it and check the answer."""
        request, step = generator.next_request()
        sent = len(request.body)
        self.attempted += 1
        start = time.perf_counter()
        try:
            response = http.request(request)
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            self.problems.append(f"{step}: {exc!r}")
            return
        done = time.perf_counter()
        self.latencies.append((done, done - start))
        self.steps[step].append(done - start)
        self.body_bytes += sent + len(response.body)
        if step == "apply":
            self.applications += 1
            self.approved += response.status == 200
        try:
            problem = generator.check(response)
        except Exception as exc:  # noqa: BLE001 - an unreadable answer is a failure
            problem = f"{step}: unreadable answer: {exc!r}"
        if problem is not None:
            self.problems.append(problem)
        self.completed += 1


class Lane:
    """One system under test and, per client thread, the generator,
    connection and logs that thread uses against it."""

    def __init__(
        self, system: SystemUnderTest, workload: str, seed: int, recorder: Optional[Recorder]
    ) -> None:
        host, port = system.address
        self.system = system
        self.recorder = recorder
        self.generators = [
            CLIENTS[workload](seed, index, system.token) for index in range(CLIENT_THREADS)
        ]
        self.https = [
            TracedHttpClient(recorder, "transport.edge", host, port, root=True, pool_size=1)
            if recorder is not None
            else HttpClient(host, port, pool_size=1)
            for _ in range(CLIENT_THREADS)
        ]
        self.warmups = [ClientLog() for _ in range(CLIENT_THREADS)]
        self.logs = [ClientLog() for _ in range(CLIENT_THREADS)]

    def completed(self) -> int:
        return sum(log.completed for log in self.logs)


def _client_loop(index, lanes, warmup_scale, ready, go, schedule) -> None:
    for lane in lanes:
        generator = lane.generators[index]
        for _ in range(max(1, round(generator.warmup * warmup_scale))):
            lane.warmups[index].exchange(generator, lane.https[index])
    ready.wait(ANSWER_TIMEOUT)
    go.wait(ANSWER_TIMEOUT)
    begin, end, slot = schedule
    clock = time.perf_counter
    while (now := clock()) < end:
        # several systems take turns, so slow spells of the machine hit each alike
        lane = lanes[int((now - begin) / slot) % len(lanes)]
        lane.logs[index].exchange(lane.generators[index], lane.https[index])


def measure(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    setups: int = SETUPS,
    warmup_scale: float = 1.0,
) -> list[dict[str, Any]]:
    """Set the system up ``setups`` times, then drive the last set-up.

    With ``trace`` a second, traced system runs beside it and the load
    alternates between the two.  Returns the observations of the
    measured phase, one per system: untraced first.
    """
    setup_times = []
    for _ in range(setups - 1):
        with SystemUnderTest(workload, seed, False) as spare:
            setup_times.append(spare.setup_s)
    with contextlib.ExitStack() as stack:
        lanes = []
        for traced in (False, True) if trace else (False,):
            system = stack.enter_context(SystemUnderTest(workload, seed, traced))
            lanes.append(Lane(system, workload, seed, Recorder() if traced else None))
        setup_times.append(lanes[0].system.setup_s)
        observations = _drive(lanes, seconds, warmup_scale)
    observations[0]["setup_times"] = setup_times
    return observations


def _drive(lanes: list[Lane], seconds: float, warmup_scale: float) -> list[dict[str, Any]]:
    ready = threading.Barrier(CLIENT_THREADS + 1)
    go = threading.Barrier(CLIENT_THREADS + 1)
    schedule = [0.0, 0.0, min(SLOT_SECONDS, seconds / (2 * len(lanes)))]
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(index, lanes, warmup_scale, ready, go, schedule),
            name=f"bench-client-{index}",
            daemon=True,
        )
        for index in range(CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    try:
        ready.wait(ANSWER_TIMEOUT)
        for lane in lanes:
            if lane.recorder is not None:
                lane.recorder.clear()  # the warm-up's edge spans
        cpu_begin = [lane.system.ask("begin") for lane in lanes]
        begin = time.perf_counter()
        schedule[:2] = [begin, begin + seconds]
        go.wait(ANSWER_TIMEOUT)
        windows = [[(begin, 0, cpu)] for cpu in cpu_begin]
        while time.perf_counter() + WINDOW_SECONDS <= schedule[1]:
            time.sleep(max(0.0, windows[0][-1][0] + WINDOW_SECONDS - time.perf_counter()))
            for lane, lane_windows in zip(lanes, windows):
                lane_windows.append(
                    (time.perf_counter(), lane.completed(), lane.system.ask("cpu"))
                )
        for thread in threads:
            thread.join(schedule[1] - time.perf_counter() + ANSWER_TIMEOUT)
        finished = time.perf_counter()
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread did not finish")
        reports = [lane.system.ask("end") for lane in lanes]
    finally:
        ready.abort()  # frees client threads still waiting if this run failed
        go.abort()
        for lane in lanes:
            for http in lane.https:
                http.close()
    return [
        _observed(lane, report, cpu, lane_windows, finished - begin)
        for lane, report, cpu, lane_windows in zip(lanes, reports, cpu_begin, windows)
    ]


def _observed(lane: Lane, report: dict, cpu_begin: float, windows: list, wall: float) -> dict:
    logs = lane.logs
    steps: dict[str, list[float]] = defaultdict(list)
    for log in logs:
        for step, values in log.steps.items():
            steps[step].extend(values)
    observed = {
        "attempted": sum(log.attempted for log in logs + lane.warmups),
        "completed": lane.completed(),
        "problems": [f"warm-up {p}" for log in lane.warmups for p in log.problems]
        + [p for log in logs for p in log.problems],
        "latencies": sorted(sample for log in logs for sample in log.latencies),
        "steps": {step: sorted(values) for step, values in steps.items()},
        "body_bytes": sum(log.body_bytes for log in logs),
        "applications": sum(log.applications for log in logs),
        "approved": sum(log.approved for log in logs),
        "wall": wall,
        "cpu": report["cpu"] - cpu_begin,
        "rss_mb": report["rss_mb"],
        "windows": windows,
    }
    if lane.recorder is not None:
        observed["spans"] = lane.recorder.spans + report["spans"]
        observed["roots"] = {span[1] for span in lane.recorder.spans}
        observed["counters"] = report["counters"]
        observed["profile"] = report["profile"]
    return observed


def _windowed(observed: dict[str, Any]) -> tuple[float, float]:
    """Median throughput and CPU ms per request over the full windows."""
    windows = observed["windows"]
    rates, costs = [], []
    for (t0, n0, c0), (t1, n1, c1) in zip(windows, windows[1:]):
        if n1 > n0:
            rates.append((n1 - n0) / (t1 - t0))
            costs.append((c1 - c0) / (n1 - n0) * 1e3)
    if not rates:  # a run shorter than one window
        completed = max(observed["completed"], 1)
        return completed / observed["wall"], observed["cpu"] / completed * 1e3
    return statistics.median(rates), statistics.median(costs)


def _chunked_percentile(samples: list[tuple[float, float]], fraction: float) -> float:
    """Median over consecutive chunks of completions of each chunk's percentile.

    A slow spell of the machine then moves only the chunks it covers.
    """
    chunks = max(1, len(samples) // CHUNK_REQUESTS)
    size = len(samples) / chunks
    values = []
    for index in range(chunks):
        chunk = samples[round(index * size) : round((index + 1) * size)]
        values.append(percentile(sorted(latency for _done, latency in chunk), fraction))
    return statistics.median(values)


def end_to_end_metrics(observed: dict[str, Any]) -> dict[str, float]:
    throughput, cpu_per_request = _windowed(observed)
    latencies = observed["latencies"]
    return {
        "setup_s": statistics.median(observed["setup_times"]),
        "throughput_rps": throughput,
        "latency_p50_ms": _chunked_percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": _chunked_percentile(latencies, 0.99) * 1e3,
        "sut_cpu_ms_per_req": cpu_per_request,
        "sut_peak_rss_mb": observed["rss_mb"],
    }


def per_layer_metrics(
    summary: dict[str, Any], traced: dict[str, Any], untraced: dict[str, Any]
) -> dict[str, float]:
    metrics: dict[str, float] = {}
    empty = {"calls_per_req": 0.0, "self_share": 0.0}
    for span in COMMON_SPANS + WORKLOAD_SPANS:
        row = summary["layers"].get(span, empty)
        metrics[f"{span}.calls_per_req"] = row["calls_per_req"]
        metrics[f"{span}.self_share"] = row["self_share"]
    for span in COMMON_SPANS:
        row = summary["layers"][span]
        metrics[f"{span}.self_us_mean"] = row["self_us_mean"]
        metrics[f"{span}.self_us_p99"] = row["self_us_p99"]
    metrics.update(traced["counters"])
    completed = max(traced["completed"], 1)
    metrics["apps.approved_ratio"] = traced["approved"] / max(traced["applications"], 1)
    metrics["transport.body_bytes_per_req"] = traced["body_bytes"] / completed
    metrics["trace.overhead_ratio"] = _mean(traced["latencies"]) / _mean(
        untraced["latencies"]
    ) - 1.0
    return metrics


def _mean(samples: list[tuple[float, float]]) -> float:
    return sum(latency for _done, latency in samples) / len(samples) if samples else 0.0


def _write_trace(workload, seed, summary, traced, metrics) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload}.json"
    document = {
        "workload": workload,
        "seed": seed,
        "ledger": summary,
        "metrics": metrics,
        "step_p90_ms": {
            step: percentile(values, 0.90) * 1e3 for step, values in traced["steps"].items()
        },
        "profile_top": traced["profile"],
        "span_fields": ["request", "span_id", "parent_id", "name", "start", "end"],
        "spans": traced["spans"],
    }
    path.write_text(json.dumps(document))
    return path


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    setups: int = SETUPS,
    warmup_scale: float = 1.0,
) -> dict[str, Any]:
    """One benchmark run; returns the result object the last line prints."""
    runs = measure(
        workload,
        seed,
        seconds,
        trace=trace,
        setups=1 if trace else setups,
        warmup_scale=warmup_scale,
    )
    if not trace:
        values = end_to_end_metrics(runs[0])
        units = END_TO_END_UNITS
    else:
        untraced, traced = runs
        summary = summarize(traced["spans"], traced["roots"])
        values = per_layer_metrics(summary, traced, untraced)
        units = per_layer_units()
        print(f"-- {workload} ledger (seed {seed}) --")
        print(format_ledger(summary))
        for step, ordered in sorted(traced["steps"].items()):
            print(f"step {step:<10} p90 {percentile(ordered, 0.90) * 1e3:8.2f} ms")
        for frames, count in traced["profile"]:
            print(f"profile {count:>5}  {frames[-160:]}")
        path = _write_trace(workload, seed, summary, traced, values)
        print(f"trace written to {path}")
        if summary["worst_reconcile"] > RECONCILE_TOLERANCE:
            raise RuntimeError(
                f"self times miss their root span by {summary['worst_reconcile']:.2%}"
            )
        overhead = values["trace.overhead_ratio"]
        if overhead > MAX_TRACE_OVERHEAD:
            print(f"warning: tracing overhead {overhead:.1%} exceeds {MAX_TRACE_OVERHEAD:.0%}")
    problems = [problem for observed in runs for problem in observed["problems"]]
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"mismatch ({workload}, seed {seed}): {problem}")
    for name, value in values.items():
        print(f"{workload:<17} {name:<36} {value:>12.4f} {units[name]}")
    return {
        "correct": not problems,
        "attempted": sum(observed["attempted"] for observed in runs),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--save", type=Path, help="append each workload's result as a JSON line (for compare.py)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        parser.error(f"{SRC / 'repro'} is missing: run from a checkout of the repository")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        results[workload] = result
        if args.save is not None:
            record = {"workload": workload, "seed": args.seed, "trace": args.trace, **result}
            with args.save.open("a") as handle:
                handle.write(json.dumps(record) + "\n")
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, result in results.items()
                for name, metric in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
