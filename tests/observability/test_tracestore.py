"""Cross-node trace assembly under adversity.

The satellite coverage the trace plane demands: batches arriving out of
order, duplicate span delivery (retried POSTs), nodes on clock bases
thousands of seconds apart, and traces whose root never arrives (the
timeout path).  Exercises :class:`TraceStore` directly plus the HTTP
routes and the service façade.
"""

import json

import pytest

from repro.core.broker import ServiceBroker
from repro.core.bus import ServiceBus
from repro.core.faults import ServiceFault
from repro.services import publish_service
from repro.services.tracestore import (
    TraceStore,
    TraceStoreService,
    tracestore_routes,
)
from repro.transport.http11 import HttpRequest
from repro.transport.httpserver import serve_once
from repro.web.app import compose_handlers

pytestmark = pytest.mark.obs

TRACE = 0xABCDEF


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def wire_span(
    span_id,
    parent,
    name,
    start,
    end,
    *,
    trace=TRACE,
    node=None,
    status="ok",
    service=None,
    kind="server",
):
    attributes = {}
    if node is not None:
        attributes["node"] = node
    if service is not None:
        attributes["service"] = service
    return {
        "name": name,
        "kind": kind,
        "trace_id": f"{trace:032x}",
        "span_id": f"{span_id:016x}",
        "parent_id": f"{parent:016x}" if parent is not None else None,
        "start": start,
        "end": end,
        "status": status,
        "error": "boom" if status == "error" else None,
        "attributes": attributes,
        "events": [],
    }


def three_node_trace():
    """client → gateway → replica, each node on its own clock base."""
    return {
        "client": [wire_span(1, None, "load", 50.0, 50.5, node="client")],
        "gateway": [
            wire_span(2, 1, "http.server", 710.05, 710.45, node="gateway")
        ],
        "quote-1": [
            wire_span(3, 2, "http.server", 9000.0, 9000.2, node="quote-1"),
            wire_span(
                4, 3, "rest.invoke", 9000.05, 9000.15,
                node="quote-1", status="error", service="QuoteService",
            ),
        ],
    }


def settled_store(clock=None, **kwargs):
    clock = clock or ManualClock()
    return TraceStore(settle_seconds=0.5, complete_after=5.0, clock=clock, **kwargs), clock


class TestOutOfOrderAssembly:
    def test_children_before_root_still_assemble(self):
        store, clock = settled_store()
        batches = three_node_trace()
        # deepest node first, root last — the worst arrival order
        store.ingest("quote-1", batches["quote-1"])
        store.ingest("gateway", batches["gateway"])
        assert store.get(f"{TRACE:032x}")["state"] == "pending"
        store.ingest("client", batches["client"])
        clock.now = 1.0
        doc = store.get(f"{TRACE:032x}")
        assert doc["state"] == "complete"
        assert doc["spans"] == 4
        assert doc["nodes"] == ["client", "gateway", "quote-1"]
        assert doc["error"] is True
        assert doc["root"] == "load"
        # one stitched tree, no orphan marks once everything arrived
        assert "(orphan)" not in doc["tree"]
        assert doc["tree"].count("trace ") == 1

    def test_partial_trace_renders_orphan_roots(self):
        store, clock = settled_store()
        store.ingest("quote-1", three_node_trace()["quote-1"])
        doc = store.get(f"{TRACE:032x}")
        assert "(orphan)" in doc["tree"]
        assert doc["root"] == "http.server"


class TestDuplicateDelivery:
    def test_retried_batches_keep_first_seen_spans(self):
        store, _clock = settled_store()
        batches = three_node_trace()
        first = store.ingest("gateway", batches["gateway"])
        again = store.ingest("gateway", batches["gateway"])  # retried POST
        assert first == {
            "accepted": 1, "duplicates": 0, "malformed": 0, "truncated": 0,
        }
        assert again["duplicates"] == 1
        assert again["accepted"] == 0
        doc = store.get(f"{TRACE:032x}")
        assert doc["spans"] == 1
        assert doc["duplicates"] == 1

    def test_malformed_spans_are_counted_not_fatal(self):
        store, _clock = settled_store()
        good = wire_span(1, None, "ok-span", 0.0, 1.0)
        result = store.ingest(
            "n", [{"garbage": True}, good, {"trace_id": "zz", "span_id": "1"}]
        )
        assert result["accepted"] == 1
        assert result["malformed"] == 2
        assert store.stats()["malformed"] == 2

    def test_span_bound_truncates_with_accounting(self):
        store, _clock = settled_store(max_spans_per_trace=3)
        spans = [wire_span(i, None if i == 1 else 1, f"s{i}", 0.0, 1.0) for i in range(1, 7)]
        result = store.ingest("n", spans)
        assert result["accepted"] == 3
        assert result["truncated"] == 3
        assert store.get(f"{TRACE:032x}")["truncated"] == 3

    def test_trace_bound_evicts_least_recently_touched(self):
        store, _clock = settled_store(max_traces=2)
        store.ingest("n", [wire_span(1, None, "a", 0.0, 1.0, trace=1)])
        store.ingest("n", [wire_span(2, None, "b", 0.0, 1.0, trace=2)])
        store.ingest("n", [wire_span(3, 1, "a2", 0.2, 0.8, trace=1)])  # touch 1
        store.ingest("n", [wire_span(4, None, "c", 0.0, 1.0, trace=3)])
        assert store.get(f"{2:032x}") is None  # least-recently-touched: gone
        assert store.get(f"{1:032x}") is not None
        assert store.get(f"{3:032x}") is not None
        assert store.stats()["evicted"] == 1


class TestClockSkew:
    def test_cross_node_children_are_centred_inside_parents(self):
        store, clock = settled_store()
        for node, spans in three_node_trace().items():
            store.ingest(node, spans)
        clock.now = 1.0
        doc = store.get(f"{TRACE:032x}")
        # replica base (9000.x) vs gateway base (710.x) vs client (50.x):
        # the assembled duration must reflect the client's 500ms window,
        # not the thousands-of-seconds raw spread.
        assert doc["duration_ms"] == pytest.approx(500.0, abs=1.0)
        path = doc["critical_path"]
        assert [hop["name"] for hop in path] == [
            "load", "http.server", "http.server", "rest.invoke",
        ]
        assert [hop["node"] for hop in path] == [
            "client", "gateway", "quote-1", "quote-1",
        ]
        # every hop fits inside its parent: durations strictly decrease
        durations = [hop["duration_ms"] for hop in path]
        assert durations == sorted(durations, reverse=True)
        # self time sums back to the root's duration
        assert sum(hop["self_ms"] for hop in path) == pytest.approx(
            durations[0], abs=0.5
        )

    def test_same_node_subtree_keeps_relative_offsets(self):
        store, clock = settled_store()
        store.ingest("a", [wire_span(1, None, "root", 100.0, 101.0, node="a")])
        store.ingest("b", [
            wire_span(2, 1, "server", 5000.0, 5000.8, node="b"),
            wire_span(3, 2, "step-one", 5000.1, 5000.3, node="b"),
            wire_span(4, 2, "step-two", 5000.4, 5000.7, node="b"),
        ])
        clock.now = 1.0
        doc = store.get(f"{TRACE:032x}")
        tree = doc["tree"]
        # both steps nest under the shifted server span, order preserved
        assert tree.index("step-one") < tree.index("step-two")
        assert doc["duration_ms"] == pytest.approx(1000.0, abs=1.0)

    def test_dependency_edges_survive_skew(self):
        store, clock = settled_store()
        for node, spans in three_node_trace().items():
            store.ingest(node, spans)
        edges = {(e["caller"], e["callee"]): e for e in store.dependencies()}
        gw_edge = edges[("gateway", "QuoteService")]
        assert gw_edge["calls"] == 1
        assert gw_edge["errors"] == 1
        assert 0.0 < gw_edge["avg_ms"] < 500.0
        assert ("client", "gateway") in edges


class TestCompletenessTimeout:
    def test_rootless_trace_times_out_but_stays_queryable(self):
        store, clock = settled_store()
        store.ingest("quote-1", three_node_trace()["quote-1"])
        assert store.get(f"{TRACE:032x}")["state"] == "pending"
        clock.now = 4.9
        assert store.get(f"{TRACE:032x}")["state"] == "pending"
        clock.now = 5.0
        doc = store.get(f"{TRACE:032x}")
        assert doc["state"] == "timed_out"
        assert doc["spans"] == 2
        assert "(orphan)" in doc["tree"]
        assert store.stats()["states"] == {"timed_out": 1}

    def test_root_arrival_requires_settle_before_complete(self):
        store, clock = settled_store()
        store.ingest("client", three_node_trace()["client"])
        assert store.get(f"{TRACE:032x}")["state"] == "pending"
        clock.now = 0.4
        assert store.get(f"{TRACE:032x}")["state"] == "pending"
        clock.now = 0.5
        assert store.get(f"{TRACE:032x}")["state"] == "complete"
        # a late batch reopens the settle window
        store.ingest("gateway", three_node_trace()["gateway"])
        assert store.get(f"{TRACE:032x}")["state"] == "pending"
        clock.now = 1.0
        assert store.get(f"{TRACE:032x}")["state"] == "complete"


class TestSearch:
    def fill(self, store):
        store.ingest("a", [wire_span(1, None, "fast", 0.0, 0.05, trace=1)])
        store.ingest("a", [
            wire_span(2, None, "slow", 0.0, 0.9, trace=2),
            wire_span(
                3, 2, "rest.invoke", 0.1, 0.8,
                trace=2, status="error", service="Billing",
            ),
        ])
        store.ingest("a", [wire_span(4, None, "mid", 0.0, 0.4, trace=3)])

    def test_slowest_first_and_filters(self):
        store, _clock = settled_store()
        self.fill(store)
        rows = store.search()
        assert [r["duration_ms"] for r in rows] == sorted(
            (r["duration_ms"] for r in rows), reverse=True
        )
        assert [r["trace_id"][-1] for r in rows] == ["2", "3", "1"]
        errored = store.search(error=True)
        assert len(errored) == 1 and errored[0]["error"]
        slow = store.search(min_duration_ms=300.0)
        assert {r["trace_id"][-1] for r in slow} == {"2", "3"}
        by_service = store.search(service="Billing")
        assert len(by_service) == 1
        assert store.search(limit=1) == rows[:1]

    def test_bad_trace_id_is_a_client_fault(self):
        store, _clock = settled_store()
        with pytest.raises(ServiceFault):
            store.get("not-hex!")


class TestHttpRoutes:
    def make_handler(self, store):
        return compose_handlers(dict(tracestore_routes(store)), default=None)

    def ingest_request(self, node, spans):
        return HttpRequest(
            "POST",
            "/traces/ingest",
            {"Content-Type": "application/json"},
            json.dumps({"node": node, "spans": spans}).encode(),
        )

    def test_ingest_then_query_over_the_wire(self):
        store, clock = settled_store()
        handler = self.make_handler(store)
        for node, spans in three_node_trace().items():
            response = serve_once(handler, self.ingest_request(node, spans))
            assert response.status == 200
            assert json.loads(response.text())["malformed"] == 0
        clock.now = 1.0
        listing = serve_once(handler, HttpRequest("GET", "/traces?error=true"))
        rows = json.loads(listing.text())["traces"]
        assert len(rows) == 1
        trace_id = rows[0]["trace_id"]
        detail = serve_once(handler, HttpRequest("GET", f"/traces/{trace_id}"))
        doc = json.loads(detail.text())
        assert doc["state"] == "complete"
        assert doc["critical_path"]
        deps = serve_once(handler, HttpRequest("GET", "/dependencies"))
        edges = json.loads(deps.text())["edges"]
        assert any(
            e["caller"] == "gateway" and e["callee"] == "QuoteService"
            for e in edges
        )

    def test_route_error_shapes(self):
        store, _clock = settled_store()
        handler = self.make_handler(store)
        assert serve_once(handler, HttpRequest("GET", "/traces/ingest")).status == 405
        assert serve_once(
            handler,
            HttpRequest("POST", "/traces/ingest", {}, b"not json"),
        ).status == 400
        assert serve_once(
            handler,
            HttpRequest("POST", "/traces/ingest", {}, b'{"node": "n"}'),
        ).status == 400
        assert serve_once(handler, HttpRequest("GET", "/traces/feed")).status == 404
        assert serve_once(handler, HttpRequest("GET", "/traces/zz!")).status == 400
        assert serve_once(handler, HttpRequest("POST", "/dependencies", {}, b"")).status == 405
        assert serve_once(
            handler, HttpRequest("GET", "/traces?min_duration_ms=soon")
        ).status == 400


class TestServiceFacade:
    def test_published_and_invokable_like_any_service(self):
        bus = ServiceBus()
        broker = ServiceBroker()
        store, clock = settled_store()
        service = TraceStoreService(store)
        endpoints = publish_service(service, broker, bus)
        assert "inproc" in endpoints
        registration = broker.lookup("TraceStore")
        assert registration.contract.name == "TraceStore"

        address = endpoints["inproc"].address
        for node, spans in three_node_trace().items():
            result = bus.call(address, "ingest", {"node": node, "spans": spans})
            assert result["malformed"] == 0
        clock.now = 1.0
        doc = bus.call(
            address, "get_trace", {"trace_id": f"{TRACE:032x}"}
        )
        assert doc["state"] == "complete"
        rows = bus.call(address, "search", {"error": True})
        assert len(rows) == 1
        edges = bus.call(address, "dependencies", {})
        assert edges
        stats = bus.call(address, "stats", {})
        assert stats["traces"] == 1

    def test_unknown_trace_is_a_client_fault(self):
        service = TraceStoreService()
        with pytest.raises(ServiceFault):
            service.get_trace(f"{0xDEAD:032x}")
