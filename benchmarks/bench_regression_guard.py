"""Bench regression guard: hold the overhead benches to their baselines.

The ROADMAP's open item: the two overhead benches
(``bench_resilience_overhead.py``, ``bench_observability_overhead.py``)
write machine-local results into ``BENCH_resilience.json`` /
``BENCH_observability.json`` — but nothing *held* fresh runs to the
committed numbers.  This guard does, two ways:

* **ceiling breach** — each bench enforces its own overhead ceilings
  internally; a red bench subprocess fails the guard outright.
* **drift** — every instrumented row's *cost factor* (its
  microseconds-per-call divided by the same run's ``bare_bus``) is
  compared against the committed baseline's factor; a *slowdown* over
  ``DRIFT_TOLERANCE`` (25%) fails.  Normalising by the run's own bare
  row cancels machine speed, so the guard flags "this code path got
  slower", not "this box is busy"; getting faster never fails.

The benches rewrite their JSONs as they run, so the guard snapshots the
committed baselines first and always restores them — a guard run leaves
the work tree untouched.

Opt-in lane (not tier-1)::

    PYTHONPATH=src python -m pytest benchmarks -m benchguard -q

or standalone::

    PYTHONPATH=src python benchmarks/bench_regression_guard.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.benchguard

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DRIFT_TOLERANCE = 0.25  # max relative change of a row's bare-normalised factor

#: (bench file, committed baseline JSON, normalising row) under guard.
#: Each run's rows are divided by its own *normalising row* before the
#: drift comparison, cancelling machine speed: the overhead benches
#: normalise by the bare bus, the transport bench by the serialized
#: (seed-behaviour) client — so its guarded factor *is* the inverse
#: pooling speedup, and losing the speedup is what trips the guard.
#: The failover bench normalises by its single-replica run: the guarded
#: factors are the inverse scale-out of three replicas and the relative
#: cost of a batch with a mid-load kill.  The gateway bench normalises
#: by the direct-to-replica p50, so its guarded factor is the relative
#: p50 cost of mediation (auth + rate limit + balanced forward).  The
#: cache bench normalises by its uncached tf-idf search, so its guarded
#: factors are the relative cost of a cache-aside hit and of a wire
#: revalidation — losing the cache-aside speedup is what trips it.
#: The xmlkit bench normalises by its 128 B encode+decode round trip, so
#: its guarded factors are the cost of a large message relative to a
#: small one: a per-byte Python cost coming back is what trips it.
GUARDED = (
    ("bench_resilience_overhead.py", "BENCH_resilience.json", "bare_bus"),
    ("bench_observability_overhead.py", "BENCH_observability.json", "bare_bus"),
    ("bench_transport_throughput.py", "BENCH_transport.json", "serialized_client"),
    ("bench_failover.py", "BENCH_failover.json", "single_replica"),
    ("bench_gateway.py", "BENCH_gateway.json", "direct_replica"),
    ("bench_profiling.py", "BENCH_profiling.json", "profiler_off"),
    ("bench_trace_export.py", "BENCH_trace_export.json", "tracing_only"),
    ("bench_cache.py", "BENCH_cache.json", "uncached"),
    ("bench_xmlkit.py", "BENCH_xmlkit.json", "round_trip_128"),
)


def cost_factors(results: dict, baseline_row: str) -> dict[str, float]:
    """Per-row cost relative to the same run's ``baseline_row``."""
    rows = results["microseconds_per_call"]
    bare = rows.get(baseline_row)
    if not bare:
        raise ValueError(
            f"results carry no {baseline_row!r} row to normalise by"
        )
    return {
        name: value / bare
        for name, value in rows.items()
        if name != baseline_row
    }


def compare(baseline: dict, fresh: dict, baseline_row: str) -> list[str]:
    """Human-readable drift violations of ``fresh`` against ``baseline``."""
    violations = []
    base_factors = cost_factors(baseline, baseline_row)
    fresh_factors = cost_factors(fresh, baseline_row)
    for row, base in sorted(base_factors.items()):
        current = fresh_factors.get(row)
        if current is None:
            violations.append(f"row {row!r} disappeared from the bench output")
            continue
        drift = current / base - 1.0
        if drift > DRIFT_TOLERANCE:  # only slowdowns are regressions
            violations.append(
                f"{row}: cost factor {base:.3f}x -> {current:.3f}x "
                f"({drift:+.1%} drift, tolerance +{DRIFT_TOLERANCE:.0%})"
            )
    return violations


def run_bench(bench_file: str) -> subprocess.CompletedProcess:
    """One bench file in a fresh interpreter (isolated OBS/global state)."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", str(BENCH_DIR / bench_file), "-x", "-q"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def guard_one(bench_file: str, baseline_name: str, baseline_row: str) -> list[str]:
    """Run one bench against its committed baseline; return violations."""
    baseline_path = ROOT / baseline_name
    committed_text = baseline_path.read_text()
    baseline = json.loads(committed_text)
    try:
        proc = run_bench(bench_file)
        if proc.returncode != 0:
            tail = "\n".join(proc.stdout.splitlines()[-15:])
            return [f"{bench_file} failed (ceiling breach?):\n{tail}"]
        fresh = json.loads(baseline_path.read_text())
        return [
            f"{bench_file}: {v}"
            for v in compare(baseline, fresh, baseline_row)
        ]
    finally:
        baseline_path.write_text(committed_text)  # guard leaves no footprint


@pytest.mark.parametrize("bench_file,baseline_name,baseline_row", GUARDED)
def test_bench_holds_its_baseline(bench_file, baseline_name, baseline_row):
    violations = guard_one(bench_file, baseline_name, baseline_row)
    assert not violations, "\n".join(violations)


def main() -> int:
    failures = 0
    for bench_file, baseline_name, baseline_row in GUARDED:
        print(f"== {bench_file} vs {baseline_name} ==")
        violations = guard_one(bench_file, baseline_name, baseline_row)
        if violations:
            failures += 1
            for violation in violations:
                print(f"  FAIL {violation}")
        else:
            print("  ok: within ceilings, drift under "
                  f"{DRIFT_TOLERANCE:.0%}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
