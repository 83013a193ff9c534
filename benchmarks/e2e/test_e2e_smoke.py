"""Opt-in smoke lane for the end-to-end benchmark: ``pytest benchmarks/e2e``.

Every workload runs at about 1/50 of its full size, untraced and traced.
Each run must report exactly the metrics ``BENCHMARK.json`` lists, with
their units; fail no request; leave no child process or ``repro`` thread
behind; and, traced, write a ledger whose self times reconcile with the
client-timed root spans.
"""

import json
import os
import threading

import pytest

import run
from ledger import RECONCILE_TOLERANCE
from workloads import WORKLOADS

SCALE = 1 / 50
BENCHMARK = json.loads((run.HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    seconds = BENCHMARK["run_seconds"] * SCALE
    result = run.run_workload(workload, 0, seconds, trace, setups=1, warmup_scale=SCALE)

    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed
    }
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert [
        thread.name
        for thread in threading.enumerate()
        if "repro" in thread.name or thread.name.startswith("bench-client")
    ] == []
    if trace:
        trace_file = json.loads((run.OUT_DIR / f"trace_{workload}.json").read_text())
        ledger = trace_file["ledger"]
        assert ledger["requests"] > 0
        assert ledger["worst_reconcile"] <= RECONCILE_TOLERANCE
        assert result["metrics"]["transport.edge.calls_per_req"]["value"] == 1.0
