"""Deterministic chaos suite: identical faults across all three bindings.

The tentpole's acceptance test: a seeded :class:`ChaosPlan` injected at
the provider layer or the transport layer must surface as the *same*
:class:`ServiceFault` subtype whether the client binds in-process, over
SOAP, or over REST — and every run is reproducible by construction
(manual clocks, seeded plans, zero real sleeps).

Marked ``chaos``: runs in tier-1, deselectable with ``-m "not chaos"``.
"""

import pytest

from repro.core import (
    Service,
    ServiceBus,
    ServiceFault,
    ServiceUnavailable,
    TransportError,
    operation,
)
from repro.core.service import ServiceHost
from repro.resilience import (
    ChaosPlan,
    CircuitPolicy,
    ManualClock,
    ResiliencePolicy,
    ResilientInvoker,
    RetryPolicy,
)
from repro.resilience.breaker import CircuitBreakerRegistry
from repro.security.reliability import FaultInjector
from repro.transport.http11 import HttpRequest, HttpResponse, _Headers
from repro.transport.rest import RestClient, RestEndpoint
from repro.transport.soap import SoapClient, SoapEndpoint

pytestmark = pytest.mark.chaos

BINDINGS = ("inproc", "soap", "rest")


class ChaoticService(Service):
    """A provider that misbehaves according to an injected chaos plan."""

    service_name = "Chaotic"
    category = "chaos"

    def __init__(self):
        self.plan = None
        self.clock = None

    def arm(self, plan, clock):
        """Install the chaos plan and clock driving this provider."""
        self.plan = plan
        self.clock = clock

    @operation
    def poke(self, n: int) -> int:
        """Return ``n`` — unless the chaos plan says otherwise."""
        event = self.plan.next_event() if self.plan is not None else None
        if event is None or event.kind == "ok":
            return n
        if event.kind == "latency":
            self.clock.advance(event.value)
            return n
        if event.kind == "fault":
            raise ServiceFault("chaos: provider fault", code="Server.Chaos")
        if event.kind == "unavailable":
            raise ServiceUnavailable(
                "chaos: provider refused work", retry_after=event.value
            )
        raise ServiceFault(f"unplannable event {event.kind}", code="Server.Chaos")


class InMemoryHttp:
    """Duck-typed HttpClient double routing requests straight to a handler."""

    def __init__(self, handler):
        self.handler = handler

    def request(self, request):
        return self.handler(request)

    def get(self, target, headers=None):
        return self.request(HttpRequest("GET", target, dict(headers or {})))

    def post(self, target, body, content_type="application/octet-stream", headers=None):
        payload = body.encode("utf-8") if isinstance(body, str) else body
        merged = {"Content-Type": content_type, **(headers or {})}
        return self.request(HttpRequest("POST", target, merged, payload))


class ChaosGate:
    """Transport-layer chaos: corrupts HTTP exchanges per a chaos plan."""

    def __init__(self, handler, plan, clock):
        self.handler = handler
        self.plan = plan
        self.clock = clock

    def __call__(self, request):
        event = self.plan.next_event()
        if event is None or event.kind == "ok":
            return self.handler(request)
        if event.kind == "latency":
            self.clock.advance(event.value)
            return self.handler(request)
        if event.kind == "unavailable":
            return HttpResponse(
                503,
                _Headers(
                    [
                        ("Content-Type", "text/plain"),
                        ("Retry-After", f"{event.value:g}"),
                    ]
                ),
                b"service melting",
            )
        if event.kind == "drop":
            # garbage instead of a well-formed reply: neither XML nor a
            # mappable status — the client must see a transport failure
            return HttpResponse.text_response("%%%", status=502)
        return self.handler(request)  # pragma: no cover - exhaustive kinds


def raw_invoker(binding, service, gate_plan=None, clock=None):
    """Build one binding's raw invoker around ``service``.

    With ``gate_plan``, HTTP bindings are corrupted at the transport layer
    by a :class:`ChaosGate`; the inproc binding gets an equivalent
    :class:`FaultInjector` compiled from the same plan.
    """
    if binding == "inproc":
        bus = ServiceBus()
        address = bus.host(service)

        def invoke(op, args):
            return bus.call(address, op, args)

        if gate_plan is not None:
            injector = FaultInjector(
                lambda **kw: bus.call(address, kw.pop("__op"), kw),
                gate_plan.as_injector_specs(),
                sleep=clock.advance,
            )
            return lambda op, args: injector(__op=op, **args)
        return invoke
    host = ServiceHost(service)
    if binding == "soap":
        endpoint = SoapEndpoint()
        endpoint.mount(host)
        handler = (
            ChaosGate(endpoint, gate_plan, clock) if gate_plan is not None else endpoint
        )
        return SoapClient(InMemoryHttp(handler), "Chaotic").call
    endpoint = RestEndpoint()
    endpoint.mount(host)
    handler = (
        ChaosGate(endpoint, gate_plan, clock) if gate_plan is not None else endpoint
    )
    return RestClient(
        InMemoryHttp(handler), "Chaotic", contract=service.contract()
    ).call


def outcome_of(invoke, n):
    """Classify one call: ('ok', value) or (fault type, code, retry_after)."""
    try:
        value = invoke("poke", {"n": n})
    except TransportError as exc:
        return ("TransportError", None, None)
    except ServiceFault as exc:
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            retry_after = round(float(retry_after), 3)
        return (type(exc).__name__, exc.code, retry_after)
    return ("ok", value, None)


class TestProviderLayerChaos:
    """Faults raised *inside the provider* cross every binding identically."""

    WEIGHTS = {"ok": 0.4, "fault": 0.2, "unavailable": 0.2, "latency": 0.2}

    def run_binding(self, binding, seed, length=24):
        plan = ChaosPlan.generate(seed, length, weights=self.WEIGHTS)
        clock = ManualClock()
        service = ChaoticService()
        service.arm(plan, clock)
        invoke = raw_invoker(binding, service)
        outcomes = [outcome_of(invoke, i) for i in range(length)]
        return outcomes, clock.now(), plan

    @pytest.mark.parametrize("seed", [11, 29, 1729])
    def test_identical_fault_types_across_bindings(self, seed):
        results = {b: self.run_binding(b, seed) for b in BINDINGS}
        baseline_outcomes, baseline_clock, plan = results["inproc"]
        for binding in ("soap", "rest"):
            outcomes, elapsed, _ = results[binding]
            assert outcomes == baseline_outcomes, f"{binding} diverged from inproc"
            assert elapsed == pytest.approx(baseline_clock)
        # Sanity: the plan actually exercised faults, not 24 lucky OKs.
        kinds = set(plan.kinds())
        assert {"fault", "unavailable"} & kinds

    def test_expected_subtype_per_event_kind(self):
        from repro.resilience.chaos import ChaosEvent

        plan = ChaosPlan(
            [
                ChaosEvent("ok"),
                ChaosEvent("fault"),
                ChaosEvent("unavailable", 0.75),
                ChaosEvent("latency", 2.0),
            ]
        )
        for binding in BINDINGS:
            plan.reset()
            clock = ManualClock()
            service = ChaoticService()
            service.arm(plan, clock)
            invoke = raw_invoker(binding, service)
            assert outcome_of(invoke, 1) == ("ok", 1, None)
            assert outcome_of(invoke, 2) == ("ServiceFault", "Server.Chaos", None)
            assert outcome_of(invoke, 3) == (
                "ServiceUnavailable",
                "Server.Unavailable",
                0.75,
            )
            assert outcome_of(invoke, 4) == ("ok", 4, None)
            assert clock.now() == pytest.approx(2.0)

    def test_same_seed_reproduces_exactly(self):
        first = self.run_binding("soap", seed=5)[0]
        second = self.run_binding("soap", seed=5)[0]
        assert first == second

    def test_different_seeds_diverge(self):
        a = self.run_binding("rest", seed=1)[0]
        b = self.run_binding("rest", seed=2)[0]
        assert a != b


class TestTransportLayerChaos:
    """Faults injected *between* client and provider map identically too."""

    WEIGHTS = {"ok": 0.4, "unavailable": 0.25, "drop": 0.2, "latency": 0.15}

    def run_binding(self, binding, seed, length=24):
        plan = ChaosPlan.generate(seed, length, weights=self.WEIGHTS)
        clock = ManualClock()
        service = ChaoticService()  # unarmed: provider itself is healthy
        invoke = raw_invoker(binding, service, gate_plan=plan, clock=clock)
        outcomes = [outcome_of(invoke, i) for i in range(length)]
        return outcomes, clock.now()

    @pytest.mark.parametrize("seed", [3, 77])
    def test_identical_fault_types_across_bindings(self, seed):
        results = {b: self.run_binding(b, seed) for b in BINDINGS}
        baseline, baseline_clock = results["inproc"]
        for binding in ("soap", "rest"):
            outcomes, elapsed = results[binding]
            assert outcomes == baseline, f"{binding} diverged from inproc"
            assert elapsed == pytest.approx(baseline_clock)
        assert any(o[0] == "TransportError" for o in baseline)
        assert any(o[0] == "ServiceUnavailable" for o in baseline)

    def test_drop_is_a_transport_error_everywhere(self):
        from repro.resilience.chaos import ChaosEvent

        for binding in BINDINGS:
            plan = ChaosPlan([ChaosEvent("drop")])
            clock = ManualClock()
            invoke = raw_invoker(
                binding, ChaoticService(), gate_plan=plan, clock=clock
            )
            with pytest.raises(TransportError):
                invoke("poke", {"n": 1})


class TestPolicyDefendedRecovery:
    """The same policy rides out the same chaos identically on any binding."""

    def defended(self, binding, plan, clock, policy, breakers=None):
        service = ChaoticService()
        service.arm(plan, clock)
        raw = raw_invoker(binding, service)
        return ResilientInvoker(
            raw,
            policy,
            endpoint=f"{binding}:chaotic",
            clock=clock,
            sleep=clock.advance,
            breakers=breakers,
        )

    def test_retry_rides_out_unavailability_deterministically(self):
        from repro.resilience.chaos import ChaosEvent

        policy = ResiliencePolicy(
            retry=RetryPolicy(attempts=3, base_delay=1.0, factor=2.0),
            circuit=CircuitPolicy(failure_threshold=5, recovery_seconds=60.0),
        )
        for binding in BINDINGS:
            plan = ChaosPlan(
                [
                    ChaosEvent("unavailable", 0.2),
                    ChaosEvent("unavailable", 0.2),
                    ChaosEvent("ok"),
                ]
            )
            clock = ManualClock()
            invoker = self.defended(binding, plan, clock, policy)
            assert invoker("poke", {"n": 9}) == 9
            # two retries: waits of exactly 1.0 then 2.0 simulated seconds
            # (retry_after hints of 0.2 are below the backoff floor)
            assert clock.now() == pytest.approx(3.0), binding

    def test_circuit_opens_and_recovers_identically(self):
        from repro.resilience.chaos import ChaosEvent

        policy = ResiliencePolicy(
            retry=RetryPolicy(attempts=1),
            circuit=CircuitPolicy(failure_threshold=2, recovery_seconds=10.0),
        )
        traces = {}
        for binding in BINDINGS:
            plan = ChaosPlan(
                [
                    ChaosEvent("unavailable", 0.1),
                    ChaosEvent("unavailable", 0.1),
                    ChaosEvent("ok"),  # consumed by the successful probe
                ]
            )
            clock = ManualClock()
            breakers = CircuitBreakerRegistry(policy.circuit, clock=clock)
            invoker = self.defended(binding, plan, clock, policy, breakers=breakers)
            key = f"{binding}:chaotic"
            trace = []
            for call in range(2):
                with pytest.raises(ServiceUnavailable):
                    invoker("poke", {"n": call})
                trace.append(breakers.states()[key])
            # third call: breaker is open, fast-fail without consuming plan
            with pytest.raises(ServiceUnavailable) as excinfo:
                invoker("poke", {"n": 2})
            assert excinfo.value.fast_fail is True
            trace.append(breakers.states()[key])
            assert plan.remaining() == 1  # the ok event is still unconsumed
            clock.advance(10.0)  # recovery window elapses
            assert invoker("poke", {"n": 3}) == 3  # the probe closes it
            trace.append(breakers.states()[key])
            traces[binding] = trace
        assert (
            traces["inproc"] == traces["soap"] == traces["rest"]
            == ["closed", "open", "open", "closed"]
        )


class Steady(Service):
    """A healthy replicated provider for the kill-a-replica drill."""

    service_name = "Steady"
    category = "chaos"

    @operation(idempotent=True)
    def ping(self, n: int) -> int:
        """Return ``n`` — replicas are healthy; the chaos is the kill."""
        return n


class TestKillAReplicaMidLoad:
    """The replication drill: three real HTTP replicas under concurrent
    load, one hard-killed mid-flight.  Callers must see ZERO faults, the
    balancer must eject the corpse and re-admit it after restart, and the
    per-service fleet SLO must stay green throughout."""

    THREADS = 4
    CALLS_PER_THREAD = 10
    READMIT_AFTER = 0.4

    def hammer(self, balancer, tag):
        """Fire THREADS x CALLS_PER_THREAD concurrent calls; collect faults."""
        import threading as _threading

        faults = []
        done = []
        barrier = _threading.Barrier(self.THREADS)

        def caller(worker):
            barrier.wait()
            for i in range(self.CALLS_PER_THREAD):
                n = worker * 1000 + i
                try:
                    assert balancer("ping", {"n": n}) == n
                except Exception as exc:  # noqa: BLE001 - the drill's verdict
                    faults.append((tag, worker, i, exc))
                else:
                    done.append(n)

        threads = [
            _threading.Thread(target=caller, args=(w,))
            for w in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        return faults, done

    def test_kill_one_replica_under_load_zero_caller_faults(self):
        import time as _time

        from repro.observability import BurnRateRule, observed
        from repro.replication import publish_replicated, watch_replica_set
        from repro.resilience import EjectionPolicy, ReplicaBalancer
        from repro.services import FleetMonitor
        from repro.core import ServiceBroker

        def manual_clock(value=0.0):
            state = [value]
            clock = lambda: state[0]  # noqa: E731
            clock.advance = lambda d: state.__setitem__(0, state[0] + d)
            return clock

        slo_clock = manual_clock()
        broker = ServiceBroker()
        monitor = FleetMonitor()
        with observed() as obs, publish_replicated(
            Steady, broker, 3
        ) as replica_set:
            watch_replica_set(
                monitor,
                replica_set,
                rules=[BurnRateRule(10.0, 30.0, burn_threshold=2.0)],
                clock=slo_clock,
            )
            balancer = ReplicaBalancer(
                broker,
                "Steady",
                ejection=EjectionPolicy(
                    consecutive_failures=1, readmit_after=self.READMIT_AFTER
                ),
            )
            try:
                # phase 1: healthy fleet under concurrent load
                faults, done = self.hammer(balancer, "healthy")
                assert faults == []
                assert len(done) == self.THREADS * self.CALLS_PER_THREAD

                # phase 2: hard-kill replica 1, keep hammering — the
                # broker is never told; detection is the balancer's job
                replica_set.kill(1)
                faults, done = self.hammer(balancer, "one-dead")
                assert faults == []  # ZERO caller-visible faults
                assert len(done) == self.THREADS * self.CALLS_PER_THREAD
                dead_key = next(
                    key
                    for key in balancer.states()
                    if replica_set.node(1).base_url in key
                )
                assert balancer.states()[dead_key]["status"] in (
                    "ejected", "probation",
                )

                # the fleet SLO stays green: survivors absorbed the load
                transitions = monitor.tick(now=slo_clock())
                assert transitions == []
                slo_clock.advance(30.0)
                transitions = monitor.tick(now=slo_clock())
                assert transitions == []
                # "stays resolved": no alert ever entered firing
                for alert in monitor.alerts():
                    assert alert["state"] != "firing"
                    assert alert["episodes"] == 0
                report = [
                    row
                    for row in monitor.slo_report()
                    if row.get("service") == "Steady"
                ]
                assert report and all(row["compliant"] for row in report)

                # phase 3: restart, wait out the cooldown, verify the
                # probe re-admits the reborn replica
                replica_set.restart(1)
                _time.sleep(self.READMIT_AFTER + 0.1)
                faults, done = self.hammer(balancer, "reborn")
                assert faults == []
                assert all(
                    state["status"] == "live"
                    for state in balancer.states().values()
                )

                # the repro_replica_* metrics tell the same story
                calls = obs.instruments.replica_calls
                events = obs.instruments.replica_events
                total = 3 * self.THREADS * self.CALLS_PER_THREAD
                assert calls.value(service="Steady", outcome="ok") == total
                assert calls.value(service="Steady", outcome="error") == 0
                assert calls.value(service="Steady", outcome="failover") >= 1
                assert events.value(service="Steady", event="eject") >= 1
                assert events.value(service="Steady", event="readmit") >= 1
            finally:
                balancer.close()
            monitor.close()
