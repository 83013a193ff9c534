"""Tracing as a Service: fleet-wide span assembly behind a contract.

PR 3 made *monitoring* a catalogue service; this module does the same
for *traces*.  Every node ships its tail-kept spans here (see
:class:`~repro.observability.export.BatchSpanExporter`), and the store
turns the arriving jumble — batches out of order, nodes on different
``perf_counter`` bases, duplicates from retried POSTs, traces whose
root never arrives — into queryable cross-node records.  Three layers,
mirroring :mod:`.monitor`:

* :class:`TraceStore` — the engine: bounded per-trace assembly with
  de-duplication and truncation, a completeness machine
  (``pending`` → ``complete`` once the root arrived and the trace went
  quiet, or → ``timed_out`` when no root ever shows), cross-node
  **clock-skew alignment** (a child from another clock base is centred
  inside its parent's interval, and the shift carries through its
  same-node subtree), per-trace **critical-path** extraction (the chain
  of latest-ending children from the root, with self-time per hop), and
  a **service dependency graph** rolled up from cross-node parent→child
  span edges (call counts, error counts, latency).
* :class:`TraceStoreService` — the :class:`~repro.core.service.Service`
  façade: ``ingest`` / ``get_trace`` / ``search`` / ``dependencies`` /
  ``stats`` as contract operations, discoverable in the broker and
  invokable over every binding like any catalogue member.
* :func:`tracestore_routes` — the HTTP ingest + query plane
  (``POST /traces/ingest``, ``GET /traces``, ``GET /traces/<id>``,
  ``GET /dependencies``).  Exporters speak plain HTTP, not the
  contract; the service joins the broker through
  :func:`~repro.services.catalog.publish_service`.

Node identity: each batch names its exporting node, but a span whose
attributes carry a ``node`` key (set by
:class:`~repro.transport.httpserver.HttpServer` when given a
``node_name``) overrides it — and children inherit their parent's node
— so a single-process fleet (tests, examples) still attributes every
hop correctly.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Optional

from ..core.faults import ServiceFault
from ..core.service import Service, operation
from ..observability.trace import Span, render_trace_tree, span_from_dict

__all__ = [
    "TraceStore",
    "TraceRecord",
    "TraceStoreService",
    "tracestore_routes",
]

_REPLICA_SUFFIX = re.compile(r"-\d+$")
_TRACE_ID_PATTERN = re.compile(r"^[0-9a-f]{1,32}$")


def _service_name(node: str, spans: list[tuple[Span, str]]) -> str:
    """The service a node belongs to, for the dependency graph.

    Prefer the ``service`` attribute the SOAP/REST dispatch spans carry;
    fall back to the node name with any replica index stripped
    (``quote-2`` → ``quote``, matching :class:`ReplicaNode` naming).
    """
    votes: dict[str, int] = {}
    for span, resolved in spans:
        if resolved != node:
            continue
        service = span.attributes.get("service")
        if isinstance(service, str) and service:
            votes[service] = votes.get(service, 0) + 1
    if votes:
        return max(sorted(votes), key=lambda name: votes[name])
    return _REPLICA_SUFFIX.sub("", node)


class TraceRecord:
    """One trace's accumulating spans, bounded and de-duplicated."""

    __slots__ = (
        "trace_id", "spans", "batch_nodes", "first_seen", "last_seen",
        "duplicates", "truncated",
    )

    def __init__(self, trace_id: int, now: float) -> None:
        self.trace_id = trace_id
        self.spans: dict[int, tuple[Span, str]] = {}  # span_id -> (span, batch node)
        self.batch_nodes: set[str] = set()
        self.first_seen = now
        self.last_seen = now
        self.duplicates = 0
        self.truncated = 0

    def has_root(self) -> bool:
        return any(span.parent_id is None for span, _ in self.spans.values())


class _Assembled:
    """Scratch result of assembling one record (all times aligned)."""

    __slots__ = ("spans", "node_of", "start_of", "end_of", "children", "roots")

    def __init__(self) -> None:
        self.spans: dict[int, Span] = {}
        self.node_of: dict[int, str] = {}
        self.start_of: dict[int, float] = {}
        self.end_of: dict[int, float] = {}
        self.children: dict[int, list[int]] = {}
        self.roots: list[int] = []


class TraceStore:
    """Bounded cross-node trace assembly with completeness tracking.

    ``clock`` is injectable (tests drive the completeness machine by
    hand); it must be monotonic.  All public methods are thread-safe —
    ingest POSTs race query GETs from separate server workers.

    Completeness per trace:

    * ``complete`` — a root span (no parent) arrived and nothing new has
      landed for ``settle_seconds``;
    * ``timed_out`` — no root after ``complete_after`` seconds since the
      first span (the batch carrying the root was lost, or the root's
      node died) — the partial trace stays queryable, rendered with
      ``(orphan)`` roots;
    * ``pending`` — everything else.
    """

    def __init__(
        self,
        *,
        max_traces: int = 256,
        max_spans_per_trace: int = 512,
        settle_seconds: float = 0.25,
        complete_after: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_traces < 1 or max_spans_per_trace < 1:
            raise ValueError("bounds must be positive")
        if settle_seconds <= 0 or complete_after <= 0:
            raise ValueError("timing knobs must be positive")
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self.settle_seconds = settle_seconds
        self.complete_after = complete_after
        self.clock = clock
        self._records: "OrderedDict[int, TraceRecord]" = OrderedDict()
        self._lock = threading.RLock()
        self.batches = 0
        self.accepted = 0
        self.malformed = 0
        self.evicted = 0

    # -- ingest ----------------------------------------------------------
    def ingest(self, node: str, payloads: list[Any]) -> dict[str, int]:
        """Fold one exported batch in; returns per-batch accounting.

        Malformed span payloads are counted and skipped, never fatal —
        one bad exporter must not poison the plane.  Duplicate span ids
        (retried batches) keep the first-seen span.
        """
        node = str(node) or "node"
        accepted = duplicates = malformed = truncated = 0
        now = self.clock()
        with self._lock:
            self.batches += 1
            for payload in payloads:
                try:
                    span = span_from_dict(payload)
                except (KeyError, ValueError, TypeError):
                    malformed += 1
                    continue
                record = self._records.get(span.trace_id)
                if record is None:
                    record = self._record_for(span.trace_id, now)
                record.last_seen = now
                record.batch_nodes.add(node)
                self._records.move_to_end(span.trace_id)
                if span.span_id in record.spans:
                    record.duplicates += 1
                    duplicates += 1
                    continue
                if len(record.spans) >= self.max_spans_per_trace:
                    record.truncated += 1
                    truncated += 1
                    continue
                record.spans[span.span_id] = (span, node)
                accepted += 1
            self.accepted += accepted
            self.malformed += malformed
        return {
            "accepted": accepted,
            "duplicates": duplicates,
            "malformed": malformed,
            "truncated": truncated,
        }

    def _record_for(self, trace_id: int, now: float) -> TraceRecord:
        """New record, evicting the least-recently-touched past the bound."""
        while len(self._records) >= self.max_traces:
            self._records.popitem(last=False)
            self.evicted += 1
        record = self._records[trace_id] = TraceRecord(trace_id, now)
        return record

    # -- assembly --------------------------------------------------------
    def _assemble(self, record: TraceRecord) -> _Assembled:
        """Stitch one record: parentage, node resolution, skew alignment.

        Roots are spans with no parent *or* whose parent never arrived
        (cross-node partial traces).  Node resolution: a span's own
        ``node`` attribute wins, else it inherits its parent's node,
        else the batch origin.  Alignment: a child on a different clock
        base than its parent is centred inside the parent's (aligned)
        interval; the computed shift carries to the child's same-node
        descendants, so sibling order within one node survives.
        """
        out = _Assembled()
        for span_id, (span, batch_node) in record.spans.items():
            out.spans[span_id] = span
        for span_id, span in sorted(
            out.spans.items(), key=lambda item: item[1].start
        ):
            if span.parent_id is not None and span.parent_id in out.spans:
                out.children.setdefault(span.parent_id, []).append(span_id)
            else:
                out.roots.append(span_id)

        def resolve(span_id: int, parent_node: Optional[str]) -> None:
            span, batch_node = record.spans[span_id]
            own = span.attributes.get("node")
            node = (
                own if isinstance(own, str) and own
                else parent_node if parent_node
                else batch_node
            )
            out.node_of[span_id] = node
            for child_id in out.children.get(span_id, ()):
                resolve(child_id, node)

        def align(span_id: int, shift: float) -> None:
            span = out.spans[span_id]
            end = span.end if span.end is not None else span.start
            out.start_of[span_id] = span.start + shift
            out.end_of[span_id] = end + shift
            for child_id in out.children.get(span_id, ()):
                child = out.spans[child_id]
                if out.node_of[child_id] == out.node_of[span_id]:
                    align(child_id, shift)  # same clock base: same shift
                    continue
                parent_duration = end - span.start
                child_end = child.end if child.end is not None else child.start
                child_duration = child_end - child.start
                slack = max(0.0, parent_duration - child_duration)
                aligned_start = out.start_of[span_id] + slack / 2.0
                align(child_id, aligned_start - child.start)

        for root_id in out.roots:
            resolve(root_id, None)
            align(root_id, 0.0)
        return out

    def _primary_root(self, out: _Assembled) -> Optional[int]:
        """The true root when present, else the longest orphan root."""
        if not out.roots:
            return None
        true_roots = [
            span_id for span_id in out.roots
            if out.spans[span_id].parent_id is None
        ]
        candidates = true_roots or out.roots
        return max(
            candidates,
            key=lambda sid: out.end_of[sid] - out.start_of[sid],
        )

    def _critical_path(self, out: _Assembled) -> list[dict[str, Any]]:
        """Latest-ending-child descent from the root, with self-time.

        Each hop's ``self_ms`` is the span's duration not covered by the
        chosen child — the time this hop itself was the bottleneck; the
        final hop keeps its whole duration.
        """
        span_id = self._primary_root(out)
        if span_id is None:
            return []
        path: list[dict[str, Any]] = []
        while True:
            span = out.spans[span_id]
            duration = out.end_of[span_id] - out.start_of[span_id]
            children = out.children.get(span_id, [])
            if not children:
                path.append({
                    "name": span.name,
                    "node": out.node_of[span_id],
                    "duration_ms": round(duration * 1e3, 3),
                    "self_ms": round(duration * 1e3, 3),
                })
                return path
            chosen = max(children, key=lambda sid: out.end_of[sid])
            child_duration = out.end_of[chosen] - out.start_of[chosen]
            path.append({
                "name": span.name,
                "node": out.node_of[span_id],
                "duration_ms": round(duration * 1e3, 3),
                "self_ms": round(max(0.0, duration - child_duration) * 1e3, 3),
            })
            span_id = chosen

    def _state(self, record: TraceRecord, now: float) -> str:
        if record.has_root():
            if now - record.last_seen >= self.settle_seconds:
                return "complete"
            return "pending"
        if now - record.first_seen >= self.complete_after:
            return "timed_out"
        return "pending"

    def _summary(self, record: TraceRecord, out: _Assembled, now: float) -> dict[str, Any]:
        starts = list(out.start_of.values())
        ends = list(out.end_of.values())
        duration = (max(ends) - min(starts)) if starts else 0.0
        nodes = sorted(set(out.node_of.values()))
        root_id = self._primary_root(out)
        spans_by_node = list(
            (out.spans[sid], node) for sid, node in out.node_of.items()
        )
        return {
            "trace_id": f"{record.trace_id:032x}",
            "state": self._state(record, now),
            "spans": len(out.spans),
            "nodes": nodes,
            "services": sorted(
                {_service_name(node, spans_by_node) for node in nodes}
            ),
            "duration_ms": round(duration * 1e3, 3),
            "error": any(
                span.status == "error" for span in out.spans.values()
            ),
            "root": out.spans[root_id].name if root_id is not None else None,
        }

    # -- queries ---------------------------------------------------------
    def trace_ids(self) -> list[str]:
        with self._lock:
            return [f"{trace_id:032x}" for trace_id in self._records]

    def get(self, trace_id: str) -> Optional[dict[str, Any]]:
        """One assembled trace: summary + rendered tree + critical path."""
        key = _parse_trace_id(trace_id)
        with self._lock:
            record = self._records.get(key)
            if record is None:
                return None
            out = self._assemble(record)
            document = self._summary(record, out, self.clock())
            document["duplicates"] = record.duplicates
            document["truncated"] = record.truncated
            document["tree"] = render_trace_tree(
                [span for span, _node in record.spans.values()]
            )
            document["critical_path"] = self._critical_path(out)
            return document

    def search(
        self,
        *,
        service: Optional[str] = None,
        min_duration_ms: float = 0.0,
        error: bool = False,
        limit: int = 20,
    ) -> list[dict[str, Any]]:
        """Trace summaries, slowest first, filtered by the query knobs."""
        with self._lock:
            now = self.clock()
            rows = []
            for record in self._records.values():
                out = self._assemble(record)
                summary = self._summary(record, out, now)
                if error and not summary["error"]:
                    continue
                if summary["duration_ms"] < min_duration_ms:
                    continue
                if service and service not in summary["services"]:
                    continue
                rows.append(summary)
        rows.sort(key=lambda row: -row["duration_ms"])
        return rows[: max(1, limit)]

    def dependencies(self) -> list[dict[str, Any]]:
        """The service graph: cross-node parent→child edges, rolled up."""
        edges: dict[tuple[str, str], dict[str, Any]] = {}
        with self._lock:
            for record in self._records.values():
                out = self._assemble(record)
                spans_by_node = list(
                    (out.spans[sid], node) for sid, node in out.node_of.items()
                )
                names = {
                    node: _service_name(node, spans_by_node)
                    for node in set(out.node_of.values())
                }
                for parent_id, child_ids in out.children.items():
                    for child_id in child_ids:
                        parent_node = out.node_of[parent_id]
                        child_node = out.node_of[child_id]
                        if parent_node == child_node:
                            continue
                        key = (names[parent_node], names[child_node])
                        edge = edges.get(key)
                        if edge is None:
                            edge = edges[key] = {
                                "caller": key[0],
                                "callee": key[1],
                                "calls": 0,
                                "errors": 0,
                                "total_seconds": 0.0,
                                "max_seconds": 0.0,
                            }
                        duration = out.end_of[child_id] - out.start_of[child_id]
                        edge["calls"] += 1
                        edge["total_seconds"] += duration
                        edge["max_seconds"] = max(edge["max_seconds"], duration)
                        if self._subtree_errored(out, child_id):
                            edge["errors"] += 1
        rows = []
        for edge in edges.values():
            calls = edge["calls"]
            rows.append({
                "caller": edge["caller"],
                "callee": edge["callee"],
                "calls": calls,
                "errors": edge["errors"],
                "avg_ms": round(edge["total_seconds"] / calls * 1e3, 3),
                "max_ms": round(edge["max_seconds"] * 1e3, 3),
            })
        rows.sort(key=lambda row: (row["caller"], row["callee"]))
        return rows

    @staticmethod
    def _subtree_errored(out: _Assembled, span_id: int) -> bool:
        """Did this span — or any same-node descendant — end in error?"""
        node = out.node_of[span_id]
        stack = [span_id]
        while stack:
            current = stack.pop()
            if out.spans[current].status == "error":
                return True
            stack.extend(
                child for child in out.children.get(current, ())
                if out.node_of[child] == node
            )
        return False

    def stats(self) -> dict[str, Any]:
        with self._lock:
            now = self.clock()
            states: dict[str, int] = {}
            for record in self._records.values():
                state = self._state(record, now)
                states[state] = states.get(state, 0) + 1
            return {
                "traces": len(self._records),
                "batches": self.batches,
                "accepted": self.accepted,
                "malformed": self.malformed,
                "evicted": self.evicted,
                "states": states,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def _parse_trace_id(text: str) -> int:
    value = str(text).strip().lower()
    if not _TRACE_ID_PATTERN.match(value):
        raise ServiceFault(
            f"trace id must be hex, got {text!r}", code="Client.BadInput"
        )
    return int(value, 16)


class TraceStoreService(Service):
    """The trace store offered *as a service*, catalogue-style.

    The same engine the HTTP routes serve, behind contract operations —
    so a client can discover the store in the broker and follow a trace
    over the in-process bus, SOAP, or REST, exactly like invoking any
    other repository member.
    """

    service_name = "TraceStore"
    category = "monitoring"

    def __init__(self, store: Optional[TraceStore] = None) -> None:
        # explicit None-check: an *empty* store is falsy (len() == 0)
        self.store = store if store is not None else TraceStore()

    @operation
    def ingest(self, node: str, spans: list) -> dict:
        """Fold one exported span batch in; returns batch accounting."""
        return self.store.ingest(node, spans)

    @operation(idempotent=True)
    def get_trace(self, trace_id: str) -> dict:
        """One assembled trace (tree + critical path) by hex id."""
        document = self.store.get(trace_id)
        if document is None:
            raise ServiceFault(
                f"unknown trace {trace_id!r}", code="Client.NotFound"
            )
        return document

    @operation(idempotent=True)
    def search(
        self,
        service: str = "",
        min_duration_ms: float = 0.0,
        error: bool = False,
    ) -> list:
        """Trace summaries, slowest first, filtered like ``GET /traces``."""
        return self.store.search(
            service=service or None,
            min_duration_ms=float(min_duration_ms),
            error=bool(error),
        )

    @operation(idempotent=True)
    def dependencies(self) -> list:
        """The rolled-up service dependency graph."""
        return self.store.dependencies()

    @operation(idempotent=True)
    def stats(self) -> dict:
        """Store occupancy and ingest accounting."""
        return self.store.stats()


def tracestore_routes(store: TraceStore) -> dict[str, Callable[[Any], Any]]:
    """The HTTP plane: ingest POSTs plus the query GETs.

    Returns ``{path: handler}`` for
    :func:`repro.web.app.compose_handlers`; ``/traces`` doubles as the
    prefix route for ``/traces/<id>`` lookups (handlers receive the full
    request and route on ``request.path``).
    """
    from ..transport.http11 import HttpResponse  # lazy: layering

    def ingest_handler(request):
        if request.method != "POST":
            return HttpResponse.error(405, "POST only")
        try:
            document = json.loads(request.body.decode("utf-8"))
            node = document["node"]
            spans = document["spans"]
            if not isinstance(spans, list):
                raise TypeError("spans must be a list")
        except (ValueError, KeyError, TypeError) as exc:
            return HttpResponse.error(400, f"bad ingest payload: {exc}")
        return HttpResponse.json_response(store.ingest(node, spans))

    def traces_handler(request):
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        path = request.path
        if path.rstrip("/") not in ("", "/traces"):
            trace_id = path.rsplit("/", 1)[-1]
            try:
                document = store.get(trace_id)
            except ServiceFault as exc:
                return HttpResponse.error(400, str(exc))
            if document is None:
                return HttpResponse.error(404, f"unknown trace {trace_id}")
            return HttpResponse.json_response(document)
        query = request.query
        try:
            rows = store.search(
                service=query.get("service") or None,
                min_duration_ms=float(query.get("min_duration_ms", 0.0)),
                error=query.get("error", "").lower() in ("true", "1", "yes"),
                limit=int(query.get("limit", 20)),
            )
        except ValueError as exc:
            return HttpResponse.error(400, f"bad query: {exc}")
        return HttpResponse.json_response({"traces": rows})

    def dependencies_handler(request):
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        return HttpResponse.json_response({"edges": store.dependencies()})

    return {
        "/traces/ingest": ingest_handler,
        "/traces": traces_handler,
        "/dependencies": dependencies_handler,
    }

