"""Smoke tests: every shipped example runs to completion.

Each example is executed as a real subprocess (fresh interpreter, no
test fixtures) and its observable claims are checked on stdout — the
deliverable's "runnable examples" made regression-proof.

``parallel_collatz`` is excluded here: it measures multi-minute real
process-backend timings and is exercised by its own CI lane (run it
manually; the Fig. 3 benchmark covers its logic).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: float = 120.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr[-2000:]}"
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "100 C = 212.0 F" in out
    assert "typed fault over the wire: Client.BadInput" in out


def test_maze_robotics():
    out = run_example("maze_robotics.py")
    assert "same trail: True" in out
    assert "twin divergence: 0" in out
    assert "greedy      : success=True" in out


def test_account_application():
    out = run_example("account_application.py")
    assert "You do not qualify" in out
    assert "login after restart: True" in out
    assert "<accounts>" in out


def test_service_directory():
    out = run_example("service_directory.py")
    assert "registration over HTTP -> 201" in out
    assert "harvested" in out


def test_bpel_mortgage():
    out = run_example("bpel_mortgage.py")
    assert "outcome: approved" in out
    assert "withdrawn by the compensation handler" in out


def test_cloud_saas():
    out = run_example("cloud_saas.py")
    assert "autoscaled" in out
    assert "pool limit enforced: Cloud.CapacityExhausted" in out
    assert "capacity reclaimed" in out


def test_resilient_client():
    out = run_example("resilient_client.py")
    assert "healthy call: 45.0" in out
    assert "outage call 2: 45.0 (last-good fallback)" in out
    assert "broker saw faults: True" in out
    assert "after recovery: 45.0" in out
    assert "failover call: 45.0" in out
    assert "dead site tried first, faults seen: 1" in out
    assert "broker now prefers: inproc://quoteservice" in out
    assert "simulated seconds elapsed: 35.0" in out


def test_cart_webapp():
    out = run_example("cart_webapp.py")
    assert "Total: $428.99" in out
    assert "checkout ->" in out


def test_traced_call():
    out = run_example("traced_call.py")
    assert "spread(ACME) = 0.0" in out
    assert "1 trace" in out
    assert "bus.call [server] binding=inproc" in out
    assert "· retry attempt=1" in out
    # both bindings appear under the one tree, each hop's server span
    # naming the call it dispatched
    assert "http.server [server] binding=soap operation=quote" in out
    assert "http.server [server] binding=rest operation=quote" in out
    assert ".invoke" not in out
    assert 'repro_bus_dispatch_total{operation="spread",outcome="ok"} 1' in out
    assert "/healthz -> 200" in out
    assert "with an open breaker, /healthz -> 503" in out


def test_monitor_demo():
    out = run_example("monitor_demo.py")
    assert "monitor registered in broker: True" in out
    assert "event: slo.alert.firing" in out
    assert "event: slo.alert.resolved" in out
    assert "/alerts states: ['firing']" in out
    assert "alerts firing: 1" in out
    assert "alert episodes completed: 1" in out
    assert "log lines joining a tail-sampled kept trace: 3" in out


def test_replicated_service():
    out = run_example("replicated_service.py")
    assert "broker holds ONE registration, 3 endpoints" in out
    assert "one replica dead: 12/12 calls ok" in out
    assert "balancer ejected it: status=ejected" in out
    assert "fleet SLO green: True; firing alerts: 0" in out
    assert "all replicas live again: True" in out
    assert "error=0" in out


def test_gateway_demo():
    out = run_example("gateway_demo.py")
    assert 'anonymous call   -> 401 (Bearer realm="repro-gateway")' in out
    assert "token issued     -> 200" in out
    assert "mediated call    -> 200" in out
    assert "brute-force wall -> 429" in out
    assert "replica killed   -> 10/10 calls still ok" in out
    assert "after logout     -> 401" in out
    assert 'repro_gateway_requests_total{route="/api/Quote",outcome="ok"}' in out


def test_profiling_demo():
    out = run_example("profiling_demo.py")
    assert "names the burner: True" in out
    assert "tagged with its route: True" in out
    assert "-> firing" in out
    assert "auto-captured: reason=slo:work-latency" in out
    assert "/debug/profiles/last serves it: True" in out
    assert "resolves to a kept trace: True" in out
    assert "burn_cpu [route:/work]" in out
    assert "/healthz carries pool detail: True" in out


def test_cached_service():
    out = run_example("cached_service.py")
    assert "catalogue member -> CacheService" in out
    assert "get over bus: service-oriented!" in out
    assert "search hot == cold: True" in out
    assert "16-thread stampede -> 1 compute (singleflight)" in out
    assert "revalidated GET  -> 200, body identical: True" in out
    assert "/cache/stats     -> 200" in out
    assert "done: computed once, served many" in out


def test_tracing_demo():
    out = run_example("tracing_demo.py")
    assert "DOOM quote came back 500" in out
    assert "assembled from 3 nodes" in out
    assert "http.server [server] binding=rest operation=quote" in out
    assert "critical path:" in out
    assert "gateway -> Quote  calls=1 errors=1" in out
    assert "resolved: True state=complete" in out
