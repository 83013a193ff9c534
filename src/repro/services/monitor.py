"""Monitoring as a Service: the federated fleet monitor of the catalogue.

PR 2 gave every node a ``/metrics`` page; this module closes the SOA
loop by making *monitoring itself* an invokable service, the way the
paper's Repository of Services exposes every capability behind a
contract.  Three layers:

* :class:`FleetMonitor` — the engine: scrapes other nodes' ``/metrics``
  over :class:`~repro.transport.client.HttpClient`, parses the
  Prometheus text back into metric families
  (:func:`~repro.observability.exposition.parse_prometheus`), merges
  them into one fleet view (every sample gains a ``node`` label), and
  evaluates SLOs over the merged data with a
  :class:`~repro.observability.slo.SloEngine` — alerts fire onto the
  event bus exactly as local ones would.  Federation in the i3 sense:
  many systems, one pane.
* :class:`MonitorService` — the :class:`~repro.core.service.Service`
  façade: ``add_target`` / ``targets`` / ``scrape`` / ``alerts`` /
  ``slo_report`` as contract operations, so the monitor publishes into
  the broker and is discoverable and invokable over the in-process bus,
  SOAP (with a ``?wsdl`` contract document) and REST, like any other
  catalogue member.
* :func:`monitor_routes` — the ``/alerts`` + ``/dashboard`` HTTP
  handlers that mount beside ``/metrics`` and ``/healthz``.  Broker
  registration across all three bindings is the catalogue's one
  publisher, :func:`~repro.services.catalog.publish_service`.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Iterable, Optional

from ..core.faults import ServiceFault
from ..core.service import Service, operation
from ..observability.exposition import parse_prometheus
from ..observability.metrics import MetricFamily
from ..observability.profiling import IDLE_KEY, OVERFLOW_KEY, merge_folded, parse_collapsed
from ..observability.runtime import OBS
from ..observability.slo import SloEngine
from ..resilience.binding import PooledHttpClients

__all__ = [
    "ScrapeTarget",
    "merge_families",
    "FleetMonitor",
    "MonitorService",
    "monitor_routes",
]

NODE_LABEL = "node"


class ScrapeTarget:
    """One monitored node: a name plus the address of its ``/metrics``."""

    __slots__ = (
        "name", "host", "port", "path", "up", "last_error",
        "last_scrape_seconds", "scrapes", "failures", "families",
    )

    def __init__(self, name: str, host: str, port: int, path: str = "/metrics") -> None:
        self.name = name
        self.host = host
        self.port = port
        self.path = path
        self.up: Optional[bool] = None  # None until first scrape
        self.last_error: Optional[str] = None
        self.last_scrape_seconds = 0.0
        self.scrapes = 0
        self.failures = 0
        self.families: list[MetricFamily] = []

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def status(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "url": self.base_url + self.path,
            "up": bool(self.up),
            "scrapes": self.scrapes,
            "failures": self.failures,
            "last_scrape_ms": round(self.last_scrape_seconds * 1e3, 3),
        }
        if self.last_error:
            doc["last_error"] = self.last_error
        return doc


def _parse_base_url(base_url: str) -> tuple[str, int]:
    """Split ``http://host:port`` (scheme optional) into (host, port)."""
    text = base_url.strip()
    for scheme in ("http://", "https://"):
        if text.startswith(scheme):
            text = text[len(scheme):]
            break
    text = text.rstrip("/")
    host, _, port_text = text.partition(":")
    if not host or not port_text:
        raise ServiceFault(
            f"target address must look like host:port, got {base_url!r}",
            code="Client.BadInput",
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceFault(
            f"bad port in target address {base_url!r}", code="Client.BadInput"
        ) from None
    return host, port


def relabel_families(
    families: list[MetricFamily], node: str
) -> list[MetricFamily]:
    """Return copies of ``families`` with a ``node`` label on every sample.

    Histogram exemplars are rekeyed the same way, so a slow bucket in the
    merged fleet view still names the trace id (and the node) it came
    from.
    """
    out: list[MetricFamily] = []
    for family in families:
        labelnames = (NODE_LABEL, *family.labelnames)
        samples = {
            (node, *key): value for key, value in family.samples.items()
        }
        exemplars = {
            (node, *key): value for key, value in family.exemplars.items()
        }
        out.append(
            MetricFamily(
                family.name,
                family.kind,
                family.help,
                labelnames,
                samples,
                family.buckets,
                exemplars=exemplars,
            )
        )
    return out


def merge_families(
    per_node: dict[str, list[MetricFamily]]
) -> list[MetricFamily]:
    """Merge many nodes' families into one fleet view.

    Each node's samples keep their identity under an added ``node``
    label, so nothing is lost; consumers that want fleet totals (the SLO
    engine) simply sum over the ``node`` label, which
    :meth:`~repro.observability.slo.SloObjective.measure` does for every
    label it was not asked to pin.  Families sharing a name must agree on
    kind; disagreeing nodes are skipped rather than poisoning the view.
    """
    merged: dict[str, MetricFamily] = {}
    order: list[str] = []
    for node in sorted(per_node):
        for family in relabel_families(per_node[node], node):
            existing = merged.get(family.name)
            if existing is None:
                merged[family.name] = family
                order.append(family.name)
                continue
            if existing.kind != family.kind or existing.labelnames != family.labelnames:
                continue  # incompatible peer dialect: keep first seen
            existing.samples.update(family.samples)
            existing.exemplars.update(family.exemplars)
    return [merged[name] for name in sorted(order)]


class FleetMonitor:
    """Scrape many nodes, merge, evaluate SLOs — the monitoring engine.

    ``client_factory`` is injectable for tests (anything returning an
    object with ``get(path) -> HttpResponse`` and ``close()``); the
    default builds a real :class:`HttpClient`.  Scrapes, profile pulls
    and trace-store reads all dial through one
    :class:`~repro.resilience.binding.PooledHttpClients`, so each
    ``host:port`` authority gets one pooled client.  All public methods
    are thread-safe: a scrape tick may race service-operation reads from
    SOAP/REST worker threads.
    """

    def __init__(
        self,
        engine: Optional[SloEngine] = None,
        *,
        client_factory: Optional[Callable[[str, int], Any]] = None,
        scrape_timeout: float = 5.0,
        max_parallel_scrapes: int = 8,
    ) -> None:
        if max_parallel_scrapes < 1:
            raise ValueError("max_parallel_scrapes must be >= 1")
        self.engine = engine
        self.scrape_timeout = scrape_timeout
        self.max_parallel_scrapes = max_parallel_scrapes
        if client_factory is None:
            def client_factory(host: str, port: int):
                from ..transport.client import HttpClient  # lazy: layering

                return HttpClient(
                    host, port, timeout=self.scrape_timeout, pool_size=2
                )
        self._http_clients = PooledHttpClients(client_factory)
        self._targets: dict[str, ScrapeTarget] = {}
        self._trace_store: Optional[tuple[str, int]] = None
        self._lock = threading.RLock()
        self._fleet: list[MetricFamily] = []
        self._services: dict[str, tuple[tuple[str, ...], SloEngine]] = {}
        self._hot_paths: dict[str, int] = {}
        self.ticks = 0

    # -- target management ----------------------------------------------
    def add_target(self, name: str, base_url: str, *, path: str = "/metrics") -> ScrapeTarget:
        host, port = _parse_base_url(base_url)
        target = ScrapeTarget(name, host, port, path)
        with self._lock:
            old = self._targets.get(name)
            self._targets[name] = target
        if old is not None:
            self._http_clients.discard(old.host, old.port)
        return target

    def remove_target(self, name: str) -> bool:
        with self._lock:
            removed = self._targets.pop(name, None)
        if removed is not None:
            self._http_clients.discard(removed.host, removed.port)
        return removed is not None

    def targets(self) -> list[dict[str, Any]]:
        with self._lock:
            return [t.status() for t in self._targets.values()]

    # -- replica-set watches ---------------------------------------------
    def watch_service(
        self, service: str, nodes: Iterable[str], engine: SloEngine
    ) -> None:
        """Evaluate SLOs for one *service's replica set*, not per node.

        ``nodes`` names already-added scrape targets (the replicas of
        ``service``); each :meth:`tick` merges just those nodes' families
        and runs ``engine`` over the merged view — so the objective spans
        the whole set (a killed replica whose peers absorb the load keeps
        the service SLO green), and its alerts surface in
        :meth:`alerts` / ``/alerts`` tagged with the service name.
        """
        with self._lock:
            self._services[service] = (tuple(nodes), engine)

    def unwatch_service(self, service: str) -> bool:
        """Stop evaluating a replica set; returns whether it was watched."""
        with self._lock:
            return self._services.pop(service, None) is not None

    def watched_services(self) -> list[str]:
        """Names of replica sets under per-service SLO evaluation."""
        with self._lock:
            return sorted(self._services)

    def service_families(self, service: str) -> list[MetricFamily]:
        """Merged families of one watched service's (up) replicas."""
        with self._lock:
            watch = self._services.get(service)
            if watch is None:
                return []
            nodes, _engine = watch
            per_node = {
                name: self._targets[name].families
                for name in nodes
                if name in self._targets
                and self._targets[name].up
                and self._targets[name].families
            }
        return merge_families(per_node)

    def close(self) -> None:
        self._http_clients.close()

    # -- scraping --------------------------------------------------------
    def _fan_out(self, work: Callable[[ScrapeTarget], Any]) -> list[Any]:
        """Run ``work`` on every target, concurrently when there are several.

        Returns the results in target order.  No lock is held while
        ``work`` runs, so a slow peer cannot stall service-operation
        reads from SOAP/REST worker threads.
        """
        with self._lock:
            targets = list(self._targets.values())
        if len(targets) > 1 and self.max_parallel_scrapes > 1:
            from concurrent.futures import ThreadPoolExecutor  # stdlib

            with ThreadPoolExecutor(
                max_workers=min(self.max_parallel_scrapes, len(targets)),
                thread_name_prefix="monitor",
            ) as pool:
                return list(pool.map(work, targets))
        return [work(target) for target in targets]

    def _scrape_one(self, target: ScrapeTarget) -> ScrapeTarget:
        started = time.perf_counter()
        try:
            client = self._http_clients(target.host, target.port)
            response = client.get(target.path)
            if response.status != 200:
                raise ServiceFault(
                    f"scrape returned HTTP {response.status}",
                    code="Monitor.ScrapeFailed",
                )
            families = parse_prometheus(response.text())
        except Exception as exc:  # noqa: BLE001 - a down node is data, not death
            target.up = False
            target.failures += 1
            target.last_error = str(exc)
            if OBS.enabled:
                OBS.instruments.monitor_scrapes.inc(
                    node=target.name, outcome="error"
                )
        else:
            target.up = True
            target.last_error = None
            target.families = families
            if OBS.enabled:
                OBS.instruments.monitor_scrapes.inc(node=target.name, outcome="ok")
        finally:
            target.scrapes += 1
            target.last_scrape_seconds = time.perf_counter() - started
        return target

    def scrape_all(self) -> list[MetricFamily]:
        """Scrape every target — concurrently — and rebuild the fleet view.

        A fleet tick is latency-bound by its slowest node; scraping each
        target on its own thread (up to ``max_parallel_scrapes``) makes
        the tick cost ``max(node latency)`` instead of ``sum(...)``, and
        the pooled :class:`HttpClient` per authority keeps the sockets
        warm between ticks.  No lock is held during network I/O — a slow
        peer cannot stall service-operation reads (``targets()``,
        ``alerts()``) from SOAP/REST worker threads.
        """
        targets = self._fan_out(self._scrape_one)
        with self._lock:
            per_node = {
                t.name: t.families for t in targets if t.up and t.families
            }
            self._fleet = merge_families(per_node)
            return list(self._fleet)

    def fleet_families(self) -> list[MetricFamily]:
        """The most recent merged view (without re-scraping)."""
        with self._lock:
            return list(self._fleet)

    # -- fleet profiling --------------------------------------------------
    def profile_fleet(
        self, seconds: float = 1.0, hz: float = 100.0
    ) -> dict[str, int]:
        """Profile every target concurrently and merge the folded stacks.

        Pulls each node's ``/debug/profile?seconds=&hz=`` (the collapsed
        format) in parallel — each target blocks for ``seconds``, so the
        fleet-wide wall cost is ``seconds`` plus scrape latency, not
        ``seconds × targets``.  Keep ``seconds`` comfortably under
        ``scrape_timeout`` or the pull times out.  Nodes that fail or
        don't serve the route contribute nothing (a heterogeneous fleet
        is fine).  The merged counts land in the ``/dashboard`` hot-path
        section and are returned.
        """
        if seconds >= self.scrape_timeout:
            raise ValueError(
                f"seconds ({seconds:g}) must be under scrape_timeout "
                f"({self.scrape_timeout:g}) or every pull times out"
            )

        def pull(target: ScrapeTarget) -> Optional[dict[str, int]]:
            try:
                client = self._http_clients(target.host, target.port)
                response = client.get(
                    f"/debug/profile?seconds={seconds:g}&hz={hz:g}"
                )
                if response.status != 200:
                    return None
                return parse_collapsed(response.text())
            except Exception:  # noqa: BLE001 - an unprofiled node is data, not death
                return None

        merged = merge_folded(p for p in self._fan_out(pull) if p)
        with self._lock:
            self._hot_paths = merged
        return merged

    def hot_paths(self, n: int = 5) -> list[tuple[str, int]]:
        """The ``n`` busiest folded stacks from the last fleet profile."""
        with self._lock:
            folded = dict(self._hot_paths)
        rows = [
            (stack, count)
            for stack, count in folded.items()
            if stack not in (IDLE_KEY, OVERFLOW_KEY)
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows[:n]

    # -- trace plane -----------------------------------------------------
    def attach_trace_store(self, base_url: str) -> None:
        """Point the monitor at a fleet trace store (``services.tracestore``).

        ``/dashboard`` then grows slowest-traces and dependency-graph
        sections, and :meth:`resolve_exemplar` can turn any exemplar's
        ``trace_id`` — from *any* node's histograms — into the assembled
        cross-node trace.  The store is just another HTTP peer; a down
        store degrades the sections to empty, never breaks the monitor.
        """
        address = _parse_base_url(base_url)
        with self._lock:
            old, self._trace_store = self._trace_store, address
        if old is not None and old != address:
            self._http_clients.discard(*old)

    def _trace_store_json(self, path: str) -> Optional[Any]:
        """GET one store route as parsed JSON; None on any failure."""
        with self._lock:
            address = self._trace_store
        if address is None:
            return None
        try:
            response = self._http_clients(*address).get(path)
            if response.status != 200:
                return None
            return json.loads(response.text())
        except Exception:  # noqa: BLE001 - a down store is data, not death
            return None

    def slowest_traces(self, n: int = 5) -> list[dict[str, Any]]:
        """The store's slowest assembled traces (empty without a store)."""
        document = self._trace_store_json(f"/traces?limit={int(n)}")
        if not isinstance(document, dict):
            return []
        return list(document.get("traces") or [])

    def trace_dependencies(self) -> list[dict[str, Any]]:
        """The store's service dependency edges (empty without a store)."""
        document = self._trace_store_json("/dependencies")
        if not isinstance(document, dict):
            return []
        return list(document.get("edges") or [])

    def resolve_exemplar(self, trace_id: str) -> Optional[dict[str, Any]]:
        """One exemplar's ``trace_id`` → the assembled cross-node trace."""
        clean = str(trace_id).strip().lower()
        if not clean or any(c not in "0123456789abcdef" for c in clean):
            return None
        return self._trace_store_json(f"/traces/{clean}")

    def exemplar_traces(self, limit: int = 8) -> list[dict[str, Any]]:
        """Every exemplar in the merged fleet view, resolved via the store.

        Walks the histogram exemplars of the last scrape's merged
        families (each ``(trace_id, value)`` riding a bucket), asks the
        store for each distinct trace, and reports whether the fleet
        plane could stitch it — the join the PR 7 exemplars promised but
        could only answer node-locally.
        """
        seen: dict[str, str] = {}
        for family in self.fleet_families():
            for bucket_exemplars in family.exemplars.values():
                for trace_hex, _value in bucket_exemplars.values():
                    seen.setdefault(trace_hex, family.name)
        rows: list[dict[str, Any]] = []
        for trace_hex in sorted(seen)[: max(0, limit)]:
            resolved = self.resolve_exemplar(trace_hex)
            row: dict[str, Any] = {
                "trace_id": trace_hex,
                "family": seen[trace_hex],
                "found": resolved is not None,
            }
            if resolved is not None:
                row["state"] = resolved.get("state")
                row["duration_ms"] = resolved.get("duration_ms")
                row["nodes"] = resolved.get("nodes")
            rows.append(row)
        return rows

    # -- evaluation ------------------------------------------------------
    def tick(self, *, now: Optional[float] = None) -> list[dict[str, Any]]:
        """One monitor cycle: scrape, merge, evaluate SLOs over the fleet.

        Returns the alert transitions this cycle produced (also published
        onto the engine's event bus).  With no engine configured the tick
        is scrape-and-merge only.
        """
        families = self.scrape_all()
        self.ticks += 1
        kwargs: dict[str, Any] = {}
        if now is not None:
            kwargs["now"] = now
        transitions: list[dict[str, Any]] = []
        if self.engine is not None:
            transitions.extend(self.engine.evaluate(families, **kwargs))
        with self._lock:
            watches = list(self._services.items())
        for service, (_nodes, engine) in watches:
            for transition in engine.evaluate(
                self.service_families(service), **kwargs
            ):
                transitions.append({**transition, "service": service})
        return transitions

    # -- reporting -------------------------------------------------------
    def alerts(self) -> list[dict[str, Any]]:
        snapshots = self.engine.alerts() if self.engine is not None else []
        with self._lock:
            watches = sorted(self._services.items())
        for service, (_nodes, engine) in watches:
            snapshots.extend(
                {**snapshot, "service": service} for snapshot in engine.alerts()
            )
        return snapshots

    def slo_report(self) -> list[dict[str, Any]]:
        report = (
            self.engine.objective_status(self.fleet_families())
            if self.engine is not None
            else []
        )
        with self._lock:
            watches = sorted(self._services.items())
        for service, (_nodes, engine) in watches:
            report.extend(
                {**row, "service": service}
                for row in engine.objective_status(self.service_families(service))
            )
        return report

    def dashboard(self) -> str:
        """A text dashboard: targets, objectives, alerts — human-first."""
        lines = ["== fleet monitor =="]
        targets = self.targets()
        lines.append(f"targets ({len(targets)}):")
        for status in targets:
            mark = "up  " if status["up"] else "DOWN"
            suffix = f"  last_error={status.get('last_error')}" if not status["up"] and status.get("last_error") else ""
            lines.append(
                f"  [{mark}] {status['name']:<16} {status['url']} "
                f"scrapes={status['scrapes']} failures={status['failures']}{suffix}"
            )
        report = self.slo_report()
        if report:
            lines.append("objectives:")
            for row in report:
                verdict = "OK  " if row["compliant"] else "MISS"
                scope = f" service={row['service']}" if "service" in row else ""
                lines.append(
                    f"  [{verdict}] {row['objective']:<24} "
                    f"target={row['target']:.4f} attained={row['attained']:.4f} "
                    f"({row['good']:.0f}/{row['total']:.0f}){scope}"
                )
        firing = [a for a in self.alerts() if a["state"] == "firing"]
        lines.append(f"alerts firing: {len(firing)}")
        for alert in firing:
            lines.append(f"  !! {alert['objective']} [{alert['rule']}]")
        hot = self.hot_paths()
        if hot:
            total = sum(self._hot_paths.values()) or 1
            lines.append("hot paths (fleet-merged profile):")
            for stack, count in hot:
                leaf = stack.rsplit(";", 1)[-1]
                route = stack.split(";", 1)[0] if stack.startswith("route:") else ""
                scope = f" [{route}]" if route else ""
                lines.append(
                    f"  {count / total * 100:5.1f}% {count:>6} {leaf}{scope}"
                )
        slowest = self.slowest_traces()
        if slowest:
            lines.append("slowest traces (fleet store):")
            for row in slowest:
                mark = "!!" if row.get("error") else "  "
                nodes = ",".join(row.get("nodes") or [])
                lines.append(
                    f"  {mark} {row['trace_id'][:16]} "
                    f"{row.get('duration_ms', 0.0):9.2f}ms "
                    f"{row.get('root') or '?':<20} "
                    f"nodes={nodes} [{row.get('state', '?')}]"
                )
        edges = self.trace_dependencies()
        if edges:
            lines.append("service dependencies (from traces):")
            for edge in edges:
                lines.append(
                    f"  {edge['caller']} -> {edge['callee']}  "
                    f"calls={edge['calls']} errors={edge['errors']} "
                    f"avg={edge['avg_ms']:.2f}ms max={edge['max_ms']:.2f}ms"
                )
        return "\n".join(lines) + "\n"


class MonitorService(Service):
    """Monitoring offered *as a service*: the catalogue's watchtower.

    Wraps a :class:`FleetMonitor` behind contract operations so a client
    can discover the monitor in the broker and drive a whole monitoring
    cycle over any binding — add targets, scrape, read alerts — exactly
    like invoking any other repository service.
    """

    service_name = "FleetMonitor"
    category = "monitoring"

    def __init__(self, monitor: Optional[FleetMonitor] = None) -> None:
        self.monitor = monitor or FleetMonitor()

    @operation(idempotent=True)
    def targets(self) -> list:
        """Monitored nodes with their scrape health."""
        return self.monitor.targets()

    @operation
    def add_target(self, name: str, base_url: str) -> bool:
        """Register a node to scrape (``base_url`` like ``http://host:port``)."""
        self.monitor.add_target(name, base_url)
        return True

    @operation
    def remove_target(self, name: str) -> bool:
        """Forget a node; returns whether it was known."""
        return self.monitor.remove_target(name)

    @operation
    def scrape(self) -> dict:
        """Run one monitor cycle; returns scrape + alert summary."""
        transitions = self.monitor.tick()
        statuses = self.monitor.targets()
        return {
            "targets": len(statuses),
            "up": sum(1 for s in statuses if s["up"]),
            "families": len(self.monitor.fleet_families()),
            "transitions": transitions,
        }

    @operation(idempotent=True)
    def alerts(self) -> list:
        """Current alert state snapshots (all rules, all objectives)."""
        return self.monitor.alerts()

    @operation(idempotent=True)
    def slo_report(self) -> list:
        """Point-in-time SLO compliance over the merged fleet view."""
        return self.monitor.slo_report()

    @operation(idempotent=True)
    def dashboard(self) -> str:
        """The text dashboard, identical to ``GET /dashboard``."""
        return self.monitor.dashboard()

    @operation
    def attach_trace_store(self, base_url: str) -> bool:
        """Point the monitor at a fleet trace store node."""
        self.monitor.attach_trace_store(base_url)
        return True

    @operation(idempotent=True)
    def slowest_traces(self, n: float = 5) -> list:
        """Slowest assembled traces from the attached store."""
        return self.monitor.slowest_traces(int(n))

    @operation(idempotent=True)
    def resolve_exemplar(self, trace_id: str) -> dict:
        """An exemplar's trace_id resolved to its cross-node trace."""
        resolved = self.monitor.resolve_exemplar(trace_id)
        if resolved is None:
            raise ServiceFault(
                f"trace {trace_id!r} not found in the fleet store",
                code="Client.NotFound",
            )
        return resolved

    @operation
    def profile_fleet(self, seconds: float = 1.0, hz: float = 100.0) -> dict:
        """Profile every target and merge the folded stacks fleet-wide."""
        merged = self.monitor.profile_fleet(float(seconds), float(hz))
        return {
            "stacks": len(merged),
            "samples": sum(merged.values()),
            "hot_paths": [
                {"stack": stack, "count": count}
                for stack, count in self.monitor.hot_paths()
            ],
        }


def monitor_routes(monitor: FleetMonitor) -> dict[str, Callable[[Any], Any]]:
    """``/alerts`` (JSON) + ``/dashboard`` (text) handlers for this monitor.

    Mount beside :func:`~repro.observability.exposition.observability_routes`
    via :func:`repro.web.app.compose_handlers` — the node then serves its
    own telemetry *and* the fleet's.
    """
    from ..transport.http11 import HttpResponse  # lazy: layering

    def alerts_handler(request):
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        document = {
            "alerts": monitor.alerts(),
            "targets": monitor.targets(),
            "slo": monitor.slo_report(),
        }
        return HttpResponse.json_response(document)

    def dashboard_handler(request):
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        return HttpResponse.text_response(monitor.dashboard())

    return {"/alerts": alerts_handler, "/dashboard": dashboard_handler}

