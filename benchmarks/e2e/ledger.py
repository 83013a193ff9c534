"""Span recording and the per-layer ledger of the end-to-end benchmark.

A span is one call into one layer: ``(request, span_id, parent_id, name,
start, end)``, timed with :func:`time.perf_counter`.  The wrappers here
are wired into the system under test only through constructor injection
points and public attributes; they never patch a module.  The spans of
one request share its id, which crosses threads and processes in the
``X-Bench-Id: <request>:<parent span>`` header that the client-side
wrappers add and the handler wrappers read.

A span's *self time* is its duration minus the durations of its child
spans, so the self times of one request sum to its root span's duration
(the client-timed ``transport.edge`` call).  :func:`summarize` checks
that sum for every request.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

from repro.transport.httpserver import HttpClient

BENCH_HEADER = "X-Bench-Id"

#: A request's id and the span now active in it.
Context = tuple[int, int]

#: Largest allowed gap between a request's summed self times and its
#: root span's duration, as a share of the root.
RECONCILE_TOLERANCE = 0.01


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[Context] = []
        self.trailer: Optional[Context] = None


class Recorder:
    """In-memory span sink of one process, with a per-thread span stack.

    ``first_id`` keeps the span ids of two processes apart.  Appends to
    ``spans`` are single list operations, safe across threads.
    """

    def __init__(self, first_id: int = 1) -> None:
        self.spans: list[tuple[int, int, Optional[int], str, float, float]] = []
        self._ids = itertools.count(first_id)
        self._local = _ThreadState()

    def clear(self) -> None:
        """Forget every span (call only while no request is in flight)."""
        self.spans = []

    def context(self) -> Optional[Context]:
        """The innermost open span of this thread.

        When none is open, the parent of the last handler this thread
        ran: a server thread's work between its handler returning and
        the response leaving (the telemetry export of the server span)
        still belongs to that request.
        """
        local = self._local
        return local.stack[-1] if local.stack else local.trailer

    def trail(self, context: Context) -> None:
        self._local.trailer = context

    def record(
        self,
        name: str,
        context: tuple[Optional[int], Optional[int]],
        fn: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict[str, Any]] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` as span ``name`` under ``context``.

        ``(None, None)`` opens a new request whose id is this span's id.
        """
        request, parent = context
        span_id = next(self._ids)
        if request is None:
            request = span_id
        stack = self._local.stack
        stack.append((request, span_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((request, span_id, parent, name, start, end))


class Layer:
    """Record a span around every call of ``target`` made inside a request.

    Calls made outside any request pass straight through.  Other
    attributes (``close``, ``states``...) are the target's.
    """

    def __init__(self, recorder: Recorder, name: str, target: Callable[..., Any]) -> None:
        self.recorder = recorder
        self.name = name
        self.target = target

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        context = self.recorder.context()
        if context is None:
            return self.target(*args, **kwargs)
        return self.recorder.record(self.name, context, self.target, args, kwargs)

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self.target, attribute)


def _parse_header(value: Optional[str]) -> Optional[Context]:
    if not value:
        return None
    request, _, parent = value.partition(":")
    return int(request), int(parent)


class Entry(Layer):
    """A server's request handler: the context arrives in the header."""

    def __call__(self, request: Any) -> Any:
        context = _parse_header(request.headers.get(BENCH_HEADER))
        if context is None:
            return self.target(request)
        try:
            return self.recorder.record(self.name, context, self.target, (request,))
        finally:
            self.recorder.trail(context)


class TracedHttpClient(HttpClient):
    """An :class:`HttpClient` whose requests are spans.

    With ``root=True`` every request opens a new benchmark request (the
    load generator's edge); otherwise requests are recorded only inside
    an open one.  Either way the request carries :data:`BENCH_HEADER`
    so the server's :class:`Entry` joins the same request.
    """

    def __init__(
        self,
        recorder: Recorder,
        name: str,
        host: str,
        port: int,
        *,
        root: bool = False,
        **kwargs: Any,
    ) -> None:
        super().__init__(host, port, **kwargs)
        self.recorder = recorder
        self.name = name
        self.root = root

    def request(self, request: Any) -> Any:
        context = (None, None) if self.root else self.recorder.context()
        if context is None:
            return super().request(request)
        return self.recorder.record(self.name, context, self._send, (request,))

    def _send(self, request: Any) -> Any:
        current, span = self.recorder.context()
        request.headers.set(BENCH_HEADER, f"{current}:{span}")
        return HttpClient.request(self, request)


def percentile(ordered: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(spans: list[tuple], roots: set[int]) -> dict[str, Any]:
    """Self times per span name over the requests whose root is in ``roots``.

    Returns ``{"requests", "worst_reconcile", "layers": {name: {...}}}``
    where each layer row holds ``calls_per_req``, ``self_us_mean``,
    ``self_us_p99`` and ``self_share`` (its part of all root time).
    ``worst_reconcile`` is the largest gap, over requests, between the
    summed self times and the root span's duration, as a share of it.
    """
    by_request: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[0] in roots:
            by_request[span[0]].append(span)
    self_times: dict[str, list[float]] = defaultdict(list)
    root_total = 0.0
    worst = 0.0
    for request, group in by_request.items():
        children: dict[int, float] = defaultdict(float)
        for _req, _sid, parent, _name, start, end in group:
            if parent is not None:
                children[parent] += end - start
        summed = 0.0
        root_duration = 0.0
        for _req, span_id, _parent, name, start, end in group:
            own = max(0.0, (end - start) - children.get(span_id, 0.0))
            self_times[name].append(own)
            summed += own
            if span_id == request:
                root_duration = end - start
        root_total += root_duration
        if root_duration > 0:
            worst = max(worst, abs(summed - root_duration) / root_duration)
        else:
            worst = max(worst, 1.0)  # a request without its root span
    requests = len(by_request)
    layers = {}
    for name, values in self_times.items():
        values.sort()
        layers[name] = {
            "calls_per_req": len(values) / requests,
            "self_us_mean": sum(values) / len(values) * 1e6,
            "self_us_p99": percentile(values, 0.99) * 1e6,
            "self_share": sum(values) / root_total if root_total else 0.0,
        }
    return {"requests": requests, "worst_reconcile": worst, "layers": layers}


def format_ledger(summary: dict[str, Any]) -> str:
    """The ledger as a text table, largest self time per request first."""
    rows = sorted(
        summary["layers"].items(),
        key=lambda row: -row[1]["self_share"],
    )
    lines = [
        f"{'span':<22}{'calls/req':>10}{'self us mean':>14}"
        f"{'self us p99':>13}{'share':>8}"
    ]
    for name, row in rows:
        lines.append(
            f"{name:<22}{row['calls_per_req']:>10.2f}{row['self_us_mean']:>14.1f}"
            f"{row['self_us_p99']:>13.1f}{row['self_share']:>8.1%}"
        )
    lines.append(
        f"{summary['requests']} requests; self times reconcile with the root "
        f"span within {summary['worst_reconcile']:.2e}"
    )
    return "\n".join(lines)
