"""Continuous profiling: always-on sampling, folded stacks, flamegraphs.

The monitoring plane (metrics, traces, SLO alerts) says *that* a service
is slow; this module says *where the time goes* — the missing attribution
the ROADMAP's "raw wire speed" item needs before any zero-copy work can
be targeted.  Zero-dependency, built on ``sys._current_frames()``:

* :class:`SamplingProfiler` — a background thread samples every other
  thread's Python stack at a configurable ``hz``, aggregating bounded
  *folded-stack* counts (``frame;frame;frame`` root-first, the collapsed
  format flamegraph tooling speaks).  Threads parked in well-known wait
  frames (``threading.wait``, selectors, queue gets, ``HttpServer``
  workers in their epoll wait) fold into a single ``(idle)`` bucket by
  default so hot stacks dominate the report; ``include_idle=True`` keeps
  them verbatim.
* **span tagging** — while a profiler runs, a hook installed into
  :mod:`.trace` records the active span's route/operation per thread, so
  samples lead with a ``route:<target>`` segment and a folded stack
  answers *which endpoint* burned the CPU, not just which function.
* :class:`ProfileReport` — the immutable result: folded counts plus
  :meth:`~ProfileReport.collapsed` text and a
  :meth:`~ProfileReport.flamegraph` ASCII rendering.
* :class:`ProfileRing` + :func:`attach_auto_capture` — a bounded ring of
  recent reports, fed automatically when an SLO alert transitions to
  ``firing`` (subscribes to :data:`~repro.observability.slo.TOPIC_FIRING`),
  so the profile of the incident is already captured when a human
  arrives; ``GET /debug/profiles/last`` serves it.
* :func:`dump_threads` — an instant stack dump of every live thread (no
  profiler session needed), the ``/debug/threads`` payload.
* :func:`parse_collapsed` / :func:`merge_folded` — the federation
  direction: a :class:`~repro.services.monitor.FleetMonitor` pulls many
  nodes' ``/debug/profile`` pages and merges their folded stacks into
  one fleet-wide hot-path view.

Overhead contract: a profiler at the default 100 Hz costs the target
process only the GIL pauses of ``sys._current_frames()`` — held under an
explicit ceiling by ``benchmarks/bench_profiling.py`` and the bench
regression guard.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Iterable, Optional

from .runtime import OBS
from .trace import Span, set_profile_hook

__all__ = [
    "SamplingProfiler",
    "ProfileReport",
    "ProfileRing",
    "LAST_PROFILES",
    "attach_auto_capture",
    "dump_threads",
    "parse_collapsed",
    "merge_folded",
    "render_flamegraph",
]

#: Leaf frames that mean "parked, not working": (file basename, co_name).
#: A sample whose innermost frame matches folds into the ``(idle)`` bucket
#: unless the profiler was asked to keep idle stacks verbatim.
IDLE_LEAVES: frozenset[tuple[str, str]] = frozenset(
    {
        ("threading.py", "wait"),
        ("threading.py", "_wait_for_tstate_lock"),
        ("selectors.py", "select"),
        ("selectors.py", "poll"),
        ("queue.py", "get"),
        ("socket.py", "accept"),
        ("connection.py", "wait"),
        ("httpserver.py", "_await_ready"),  # HttpServer workers, epoll wait
    }
)

IDLE_KEY = "(idle)"
OVERFLOW_KEY = "(other)"

# ---------------------------------------------------------------------------
# span tagging: thread -> active route/operation, maintained by trace hooks
# ---------------------------------------------------------------------------

#: thread ident -> stack of tags (spans nest; the *outermost* tag wins:
#: samples attribute to the entry-point route of the request, not to
#: whatever nested operation span happens to be innermost).
_THREAD_TAGS: dict[int, list[str]] = {}
_HOOK_LOCK = threading.Lock()
_ACTIVE_PROFILERS = 0

#: Span attributes consulted (in order) to derive a sample tag.
_TAG_ATTRIBUTES = ("http.target", "operation", "http.route")


def _tag_of(span: Span) -> Optional[str]:
    for attribute in _TAG_ATTRIBUTES:
        value = span.attributes.get(attribute)
        if value:
            # strip the query string: /api/fib?n=30 and ?n=31 are one route
            return f"route:{str(value).split('?', 1)[0]}"
    return None


def _on_span_enter(span: Span) -> None:
    tag = _tag_of(span)
    if tag is None:
        return
    ident = threading.get_ident()
    stack = _THREAD_TAGS.get(ident)
    if stack is None:
        stack = _THREAD_TAGS[ident] = []
    stack.append(tag)


def _on_span_exit(span: Span) -> None:
    if _tag_of(span) is None:
        return
    ident = threading.get_ident()
    stack = _THREAD_TAGS.get(ident)
    if stack:
        stack.pop()
        if not stack:
            _THREAD_TAGS.pop(ident, None)


def _hooks_acquire() -> None:
    global _ACTIVE_PROFILERS
    with _HOOK_LOCK:
        _ACTIVE_PROFILERS += 1
        if _ACTIVE_PROFILERS == 1:
            set_profile_hook(_on_span_enter, _on_span_exit)


def _hooks_release() -> None:
    global _ACTIVE_PROFILERS
    with _HOOK_LOCK:
        _ACTIVE_PROFILERS = max(0, _ACTIVE_PROFILERS - 1)
        if _ACTIVE_PROFILERS == 0:
            set_profile_hook(None, None)
            _THREAD_TAGS.clear()


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class ProfileReport:
    """One finished profiling session: folded-stack counts plus metadata."""

    __slots__ = ("folded", "samples", "duration", "hz", "captured_at", "reason")

    def __init__(
        self,
        folded: dict[str, int],
        *,
        samples: int,
        duration: float,
        hz: float,
        captured_at: float,
        reason: str = "manual",
    ) -> None:
        self.folded = folded
        self.samples = samples          # thread-stack samples aggregated
        self.duration = duration        # wall seconds the session ran
        self.hz = hz
        self.captured_at = captured_at  # wall-clock time.time()
        self.reason = reason

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` hottest folded stacks, busiest first (idle excluded)."""
        rows = [
            (stack, count)
            for stack, count in self.folded.items()
            if stack not in (IDLE_KEY, OVERFLOW_KEY)
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows[:n]

    def collapsed(self, *, header: bool = True) -> str:
        """Collapsed-stack text: ``stack count`` per line, busiest first.

        The optional header rides as ``#``-prefixed comment lines, which
        :func:`parse_collapsed` (and any flamegraph tool) skips.
        """
        lines: list[str] = []
        if header:
            lines.append(
                f"# profile reason={self.reason} samples={self.samples} "
                f"duration={self.duration:.3f}s hz={self.hz:g} "
                f"captured_at={self.captured_at:.3f}"
            )
        for stack, count in sorted(
            self.folded.items(), key=lambda row: (-row[1], row[0])
        ):
            lines.append(f"{stack} {count}")
        return "\n".join(lines) + "\n"

    def flamegraph(self, *, width: int = 50, min_percent: float = 1.0) -> str:
        """ASCII flamegraph of this report (see :func:`render_flamegraph`)."""
        title = (
            f"profile {self.reason}: {self.samples} samples over "
            f"{self.duration:.2f}s at {self.hz:g} Hz"
        )
        return title + "\n" + render_flamegraph(
            self.folded, width=width, min_percent=min_percent
        )


class ProfileRing:
    """Thread-safe bounded ring of recent :class:`ProfileReport` s.

    Auto-captures land here (newest kept, oldest evicted), so the
    profile of the last few incidents survives without unbounded memory.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._reports: deque[ProfileReport] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def add(self, report: ProfileReport) -> None:
        with self._lock:
            self._reports.append(report)

    def last(self) -> Optional[ProfileReport]:
        with self._lock:
            return self._reports[-1] if self._reports else None

    def reports(self) -> list[ProfileReport]:
        """Oldest-first snapshot of retained reports."""
        with self._lock:
            return list(self._reports)

    def clear(self) -> None:
        with self._lock:
            self._reports.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._reports)


#: Default ring ``/debug/profiles/last`` serves and auto-capture fills.
LAST_PROFILES = ProfileRing(8)


# ---------------------------------------------------------------------------
# the profiler
# ---------------------------------------------------------------------------


class SamplingProfiler:
    """Background statistical profiler over ``sys._current_frames()``.

    ``start()`` spawns a daemon sampler thread; ``stop()`` joins it and
    returns the :class:`ProfileReport`.  :meth:`profile` wraps the pair
    for the common run-for-N-seconds case.  Bounds:

    * ``max_stacks`` distinct folded stacks are kept; further novel
      stacks aggregate under ``(other)`` so a pathological workload
      cannot grow memory without bound;
    * ``max_depth`` frames per stack (deeper stacks are truncated at the
      root end, keeping the hot leaves).

    The sampler never samples itself, and sampling errors are swallowed —
    a profiler must not take the process down with it.
    """

    def __init__(
        self,
        hz: float = 100.0,
        *,
        max_stacks: int = 2000,
        max_depth: int = 64,
        include_idle: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        if max_stacks < 1 or max_depth < 1:
            raise ValueError("max_stacks and max_depth must be positive")
        self.hz = float(hz)
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self.include_idle = include_idle
        self._clock = clock
        self._folded: dict[str, int] = {}
        self._samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0
        self._captured_at = 0.0

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._folded = {}
        self._samples = 0
        self._stop.clear()
        self._started_at = self._clock()
        self._captured_at = time.time()
        _hooks_acquire()
        if OBS.enabled:
            OBS.instruments.profiler_active.inc()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, reason: str = "manual") -> ProfileReport:
        if self._thread is None:
            raise RuntimeError("profiler not started")
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        _hooks_release()
        if OBS.enabled:
            OBS.instruments.profiler_active.dec()
        return ProfileReport(
            dict(self._folded),
            samples=self._samples,
            duration=self._clock() - self._started_at,
            hz=self.hz,
            captured_at=self._captured_at,
            reason=reason,
        )

    def profile(self, seconds: float, *, reason: str = "manual") -> ProfileReport:
        """Run one bounded session on the calling thread."""
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        self.start()
        try:
            self._stop.wait(seconds)
        finally:
            report = self.stop(reason=reason)
        return report

    # -- sampling --------------------------------------------------------
    def _sample_loop(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        next_tick = self._clock() + interval
        while not self._stop.is_set():
            try:
                self._take_sample(own)
            except Exception:  # noqa: BLE001 - the profiler must never kill us
                pass
            delay = next_tick - self._clock()
            next_tick += interval
            if delay > 0:
                self._stop.wait(delay)
            else:
                next_tick = self._clock() + interval  # fell behind: resync

    def _take_sample(self, own_ident: int) -> None:
        frames = sys._current_frames()
        taken = 0
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            key = self._fold(ident, frame)
            if key is None:
                continue
            taken += 1
            if key in self._folded:
                self._folded[key] += 1
            elif len(self._folded) < self.max_stacks:
                self._folded[key] = 1
            else:
                self._folded[OVERFLOW_KEY] = self._folded.get(OVERFLOW_KEY, 0) + 1
        self._samples += taken
        if taken and OBS.enabled:
            OBS.instruments.profiler_samples.inc(taken)

    def _fold(self, ident: int, frame: Any) -> Optional[str]:
        leaf = (os.path.basename(frame.f_code.co_filename), frame.f_code.co_name)
        if leaf in IDLE_LEAVES and not self.include_idle:
            return IDLE_KEY
        parts: list[str] = []
        current = frame
        depth = 0
        while current is not None and depth < self.max_depth:
            code = current.f_code
            parts.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")
            current = current.f_back
            depth += 1
        parts.reverse()
        tags = _THREAD_TAGS.get(ident)
        if tags:
            parts.insert(0, tags[0])
        return ";".join(parts)


# ---------------------------------------------------------------------------
# folded-stack plumbing: parse, merge, render
# ---------------------------------------------------------------------------


def parse_collapsed(text: str) -> dict[str, int]:
    """Parse collapsed-stack text back into folded counts.

    The inverse of :meth:`ProfileReport.collapsed`: ``#`` comments and
    malformed lines are skipped, so a peer's slightly different dialect
    degrades to partial data rather than an exception — same contract as
    :func:`~repro.observability.exposition.parse_prometheus`.
    """
    folded: dict[str, int] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        stack, _, count_text = line.rpartition(" ")
        if not stack:
            continue
        try:
            count = int(count_text)
        except ValueError:
            continue
        folded[stack] = folded.get(stack, 0) + count
    return folded


def merge_folded(profiles: Iterable[dict[str, int]]) -> dict[str, int]:
    """Sum many folded-stack dicts into one (the fleet-wide hot path view)."""
    merged: dict[str, int] = {}
    for folded in profiles:
        for stack, count in folded.items():
            merged[stack] = merged.get(stack, 0) + count
    return merged


class _FlameNode:
    __slots__ = ("count", "children")

    def __init__(self) -> None:
        self.count = 0
        self.children: dict[str, "_FlameNode"] = {}


def render_flamegraph(
    folded: dict[str, int], *, width: int = 50, min_percent: float = 1.0
) -> str:
    """Render folded stacks as an indented ASCII flamegraph.

    Each line is one frame: a bar proportional to the share of samples
    passing through it, the percentage, the sample count, and the frame,
    indented under its caller.  Frames below ``min_percent`` are elided
    (their samples stay in the parent's total).
    """
    total = sum(folded.values())
    if total == 0:
        return "(no samples)\n"
    root = _FlameNode()
    root.count = total
    for stack, count in folded.items():
        node = root
        for part in stack.split(";"):
            child = node.children.get(part)
            if child is None:
                child = node.children[part] = _FlameNode()
            child.count += count
            node = child
    lines = [f"total: {total} samples"]

    def walk(node: _FlameNode, depth: int) -> None:
        ordered = sorted(
            node.children.items(), key=lambda kv: (-kv[1].count, kv[0])
        )
        for name, child in ordered:
            percent = child.count / total * 100.0
            if percent < min_percent:
                continue
            bar = "▇" * max(1, int(child.count / total * width))
            lines.append(
                f"{'  ' * depth}{bar} {percent:5.1f}% {child.count:>6} {name}"
            )
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instant thread dump (no session needed)
# ---------------------------------------------------------------------------


def dump_threads() -> str:
    """Render every live thread's current Python stack, newest frame last.

    Safe to call at any time — the ``/debug/threads`` payload.  Threads
    the interpreter knows but :mod:`threading` does not (foreign threads)
    render with their ident only.
    """
    by_ident = {t.ident: t for t in threading.enumerate()}
    frames = sys._current_frames()
    lines = [f"== {len(frames)} threads =="]
    for ident in sorted(frames, key=lambda i: (by_ident.get(i) is None, i)):
        thread = by_ident.get(ident)
        label = thread.name if thread is not None else "(foreign)"
        flags = " daemon" if thread is not None and thread.daemon else ""
        lines.append(f"-- thread {label!r} ident={ident}{flags} --")
        for entry in traceback.format_stack(frames[ident]):
            lines.extend("  " + sub for sub in entry.rstrip().splitlines())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SLO-triggered auto-capture
# ---------------------------------------------------------------------------


def attach_auto_capture(
    bus: Any,
    ring: Optional[ProfileRing] = None,
    *,
    seconds: float = 1.0,
    hz: float = 100.0,
    include_idle: bool = False,
    background: bool = True,
) -> Any:
    """Capture a profile into ``ring`` whenever an SLO alert starts firing.

    Subscribes to :data:`~repro.observability.slo.TOPIC_FIRING` on
    ``bus`` (the same :class:`~repro.events.bus.EventBus` the
    :class:`~repro.observability.slo.SloEngine` publishes on).  At most
    one capture runs at a time — a burst of simultaneous alerts yields
    one profile, not a pile-up of sampler threads.  ``background=True``
    (production) captures on a daemon thread so alert delivery is never
    delayed by ``seconds``; tests pass ``False`` for determinism.

    Returns the bus subscription (pass to ``bus.unsubscribe`` to detach).
    """
    from .slo import TOPIC_FIRING  # local: slo does not know about us

    target_ring = ring if ring is not None else LAST_PROFILES
    capturing = threading.Lock()

    def capture(reason: str) -> None:
        try:
            profiler = SamplingProfiler(hz=hz, include_idle=include_idle)
            target_ring.add(profiler.profile(seconds, reason=reason))
            if OBS.enabled:
                OBS.instruments.profiler_captures.inc(trigger="slo_firing")
        finally:
            capturing.release()

    def on_firing(event: Any) -> None:
        payload = getattr(event, "payload", None) or {}
        objective = payload.get("objective", "?") if isinstance(payload, dict) else "?"
        if not capturing.acquire(blocking=False):
            return  # a capture is already running; one profile is enough
        reason = f"slo:{objective}"
        if background:
            threading.Thread(
                target=capture, args=(reason,), name="profile-capture", daemon=True
            ).start()
        else:
            capture(reason)

    return bus.subscribe(TOPIC_FIRING, on_firing, name="profile-auto-capture")
