"""The exposition plane: ``/metrics`` (Prometheus text) and ``/healthz``.

Both are plain ``HttpRequest -> HttpResponse`` handlers, so they mount
on :class:`~repro.transport.httpserver.HttpServer` beside the SOAP/REST
endpoints and the web application via
:func:`repro.web.app.compose_handlers` — one server, all bindings, plus
its own telemetry, as on the paper's single IIS host.

:func:`render_prometheus` implements Prometheus text exposition format
0.0.4 (``# HELP``/``# TYPE`` rows, label escaping, cumulative histogram
``_bucket``/``_sum``/``_count`` series) without any dependency.

HTTP types are imported lazily so :mod:`repro.core.bus` can import the
observability package without dragging the transport layer in — the
layering stays one-directional until a handler is actually built.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from .metrics import MetricFamily, MetricsRegistry
from .runtime import OBS

__all__ = [
    "render_prometheus",
    "parse_prometheus",
    "metrics_handler",
    "HealthHandler",
    "debug_routes",
    "observability_routes",
]


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_block(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _render_family(family: MetricFamily) -> list[str]:
    lines = [
        f"# HELP {family.name} {_escape_help(family.help)}",
        f"# TYPE {family.name} {family.kind}",
    ]
    for key in sorted(family.samples):
        value = family.samples[key]
        if family.kind == "histogram":
            counts, total, count = value
            exemplars = family.exemplars.get(key, {})
            cumulative = 0
            bounds = [*family.buckets, float("inf")]
            for bound, bucket_count in zip(bounds, counts):
                cumulative += bucket_count
                le = "+Inf" if bound == float("inf") else _format_value(bound)
                exemplar = exemplars.get(bound)
                annotation = ""
                if exemplar is not None:
                    trace_hex, observed = exemplar
                    annotation = (
                        f' # {{trace_id="{_escape_label(trace_hex)}"}}'
                        f" {repr(float(observed))}"
                    )
                lines.append(
                    f"{family.name}_bucket"
                    + _label_block(family.labelnames, key, f'le="{le}"')
                    + f" {cumulative}"
                    + annotation
                )
            lines.append(
                f"{family.name}_sum"
                + _label_block(family.labelnames, key)
                + f" {repr(float(total))}"
            )
            lines.append(
                f"{family.name}_count"
                + _label_block(family.labelnames, key)
                + f" {count}"
            )
        else:
            lines.append(
                family.name
                + _label_block(family.labelnames, key)
                + f" {_format_value(value)}"
            )
    return lines


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Render every family of ``registry`` (default: the global one)."""
    reg = registry if registry is not None else OBS.registry
    lines: list[str] = []
    for family in reg.collect():
        lines.extend(_render_family(family))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Prometheus text parsing (the federation direction)
# ---------------------------------------------------------------------------


def _unescape_label(value: str) -> str:
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        if nxt == "n":
            out.append("\n")
        elif nxt in ('"', "\\"):
            out.append(nxt)
        else:
            out.append("\\" + nxt)
    return "".join(out)


def _parse_labels(block: str) -> dict[str, str]:
    """Parse the inside of a ``{...}`` label block."""
    labels: dict[str, str] = {}
    i = 0
    length = len(block)
    while i < length:
        eq = block.index("=", i)
        name = block[i:eq].strip().strip(",").strip()
        if block[eq + 1] != '"':
            raise ValueError(f"unquoted label value near {block[eq:]!r}")
        j = eq + 2
        raw: list[str] = []
        while j < length:
            ch = block[j]
            if ch == "\\":
                raw.append(block[j : j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        labels[name] = _unescape_label("".join(raw))
        i = j + 1
        while i < length and block[i] in ", ":
            i += 1
    return labels


def _split_exemplar(
    line: str,
) -> tuple[str, Optional[tuple[dict[str, str], float]]]:
    """Peel an OpenMetrics exemplar annotation off a sample line.

    ``name{le="0.1"} 5 # {trace_id="ab..."} 0.09`` returns the plain
    sample line plus ``({"trace_id": "ab..."}, 0.09)``.  The scan walks
    outside quoted label values, so a ``#`` *inside* a label survives.
    A malformed annotation is dropped (the sample itself is kept) —
    exemplars are decoration, never worth losing the count over.
    """
    in_quotes = False
    i = 0
    length = len(line)
    while i < length:
        ch = line[i]
        if in_quotes:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_quotes = False
            i += 1
            continue
        if ch == '"':
            in_quotes = True
        elif ch == "#" and i > 0 and line[i - 1] == " ":
            body = line[: i - 1].rstrip()
            annotation = line[i + 1 :].strip()
            if annotation.startswith("{"):
                block, closed, value_text = annotation[1:].partition("}")
                if closed:
                    try:
                        labels = _parse_labels(block)
                        value = float(value_text.strip().split()[0])
                    except (ValueError, IndexError):
                        return body, None
                    return body, (labels, value)
            return body, None
        i += 1
    return line, None


def _parse_sample_line(line: str) -> tuple[str, dict[str, str], float]:
    """Split ``name{labels} value`` into its parts (labels may be absent)."""
    if "{" in line:
        name, _, rest = line.partition("{")
        block, _, value_text = rest.rpartition("}")
        labels = _parse_labels(block)
    else:
        name, _, value_text = line.partition(" ")
        labels = {}
    text = value_text.strip().split()[0]
    if text == "+Inf":
        value = float("inf")
    elif text == "-Inf":
        value = float("-inf")
    else:
        value = float(text)
    return name.strip(), labels, value


def parse_prometheus(text: str) -> list[MetricFamily]:
    """Parse Prometheus text exposition back into :class:`MetricFamily` rows.

    The inverse of :func:`render_prometheus` — the seam that lets a
    :class:`~repro.services.monitor.FleetMonitor` scrape *other nodes'*
    ``/metrics`` pages over HTTP and re-evaluate SLOs over the merged
    result.  Histograms are reassembled from their cumulative
    ``_bucket``/``_sum``/``_count`` series into the per-bucket counts
    :class:`MetricFamily` carries internally.  Unknown *and* malformed
    lines are skipped — a peer speaking a slightly richer (or slightly
    broken) dialect must not discard a whole scrape.
    """
    kinds: dict[str, str] = {}
    helps: dict[str, str] = {}
    order: list[str] = []
    # family -> labelkey(frozen items w/o le) -> {"buckets": {le: cum}, "sum": x, "count": n}
    histograms: dict[str, dict[tuple[tuple[str, str], ...], dict[str, Any]]] = {}
    scalars: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}

    def base_family(sample_name: str) -> Optional[str]:
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                candidate = sample_name[: -len(suffix)]
                if kinds.get(candidate) == "histogram":
                    return candidate
        return sample_name if sample_name in kinds else None

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) >= 4:
                kinds[parts[2]] = parts[3]
                if parts[2] not in order:
                    order.append(parts[2])
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) >= 3:
                helps[parts[2]] = parts[3] if len(parts) == 4 else ""
            continue
        if line.startswith("#"):
            continue
        line, exemplar = _split_exemplar(line)
        try:
            name, labels, value = _parse_sample_line(line)
        except (ValueError, IndexError):
            continue  # malformed peer line: skip, keep the scrape
        family = base_family(name)
        if family is None:
            continue  # sample without a TYPE row: not ours, skip
        if kinds[family] == "histogram":
            le = labels.pop("le", None)
            key = tuple(sorted(labels.items()))
            entry = histograms.setdefault(family, {}).setdefault(
                key, {"buckets": {}, "sum": 0.0, "count": 0, "exemplars": {}}
            )
            if name.endswith("_bucket") and le is not None:
                bound = float("inf") if le == "+Inf" else float(le)
                entry["buckets"][bound] = value
                if exemplar is not None and "trace_id" in exemplar[0]:
                    entry["exemplars"][bound] = (
                        exemplar[0]["trace_id"],
                        exemplar[1],
                    )
            elif name.endswith("_sum"):
                entry["sum"] = value
            elif name.endswith("_count"):
                entry["count"] = int(value)
        else:
            key = tuple(sorted(labels.items()))
            scalars.setdefault(family, {})[key] = value

    families: list[MetricFamily] = []
    for family in order:
        kind = kinds[family]
        help_text = helps.get(family, "")
        if kind == "histogram":
            children = histograms.get(family, {})
            bounds: list[float] = sorted(
                {b for entry in children.values() for b in entry["buckets"]}
            )
            finite = tuple(b for b in bounds if b != float("inf"))
            labelnames: tuple[str, ...] = ()
            samples: dict[tuple[str, ...], Any] = {}
            exemplars: dict[tuple[str, ...], dict[float, tuple[str, float]]] = {}
            for key, entry in sorted(children.items()):
                labelnames = tuple(name for name, _ in key)
                cumulative = [entry["buckets"].get(b, 0.0) for b in finite]
                inf_cum = entry["buckets"].get(float("inf"), entry["count"])
                counts: list[int] = []
                previous = 0.0
                for cum in [*cumulative, inf_cum]:
                    counts.append(int(cum - previous))
                    previous = cum
                value_key = tuple(value for _, value in key)
                samples[value_key] = (
                    counts,
                    entry["sum"],
                    entry["count"],
                )
                if entry["exemplars"]:
                    exemplars[value_key] = dict(entry["exemplars"])
            families.append(
                MetricFamily(
                    family, kind, help_text, labelnames, samples, finite,
                    exemplars=exemplars,
                )
            )
        else:
            children_scalar = scalars.get(family, {})
            labelnames = ()
            samples = {}
            for key, value in sorted(children_scalar.items()):
                labelnames = tuple(name for name, _ in key)
                samples[tuple(v for _, v in key)] = value
            families.append(
                MetricFamily(family, kind, help_text, labelnames, samples)
            )
    return families


def metrics_handler(
    registry: Optional[MetricsRegistry] = None,
) -> Callable[[Any], Any]:
    """Build the ``/metrics`` handler.

    With ``registry=None`` the handler re-reads ``OBS.registry`` per
    scrape, so it keeps working across :func:`~.runtime.observed` swaps.
    """
    from ..transport.http11 import HttpResponse  # lazy: layering

    def handle(request) -> "HttpResponse":
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        return HttpResponse.text_response(
            render_prometheus(registry),
            content_type="text/plain; version=0.0.4",
        )

    return handle


# ---------------------------------------------------------------------------
# health
# ---------------------------------------------------------------------------


class HealthHandler:
    """``/healthz``: one JSON verdict summarising dependability state.

    Sources plug in after construction:

    * :meth:`watch_breakers` — a
      :class:`~repro.resilience.breaker.CircuitBreakerRegistry` (or any
      object with ``states() -> dict[str, str]``); any endpoint not
      ``closed`` degrades the verdict.  A crawler's per-domain
      ``breakers`` plug in the same way: a quarantined domain is an
      open breaker.
    * :meth:`add_check` — a named callable; falsy return or an exception
      degrades the verdict.

    ``GET`` answers 200 when everything is healthy, 503 when degraded —
    load balancers act on the status line, humans read the body.
    """

    def __init__(self) -> None:
        self._breakers: list[tuple[str, Any]] = []
        self._checks: list[tuple[str, Callable[[], Any]]] = []
        self._pools: list[tuple[str, Any]] = []

    # -- registration ----------------------------------------------------
    def watch_breakers(self, registry: Any, name: str = "breakers") -> "HealthHandler":
        self._breakers.append((name, registry))
        return self

    def add_check(self, name: str, check: Callable[[], Any]) -> "HealthHandler":
        self._checks.append((name, check))
        return self

    def watch_pool(self, pool: Any, name: str = "http_pool") -> "HealthHandler":
        """Surface connection-pool occupancy in the health document.

        ``pool`` is anything with ``pool_stats()`` — a single
        :class:`~repro.transport.client.HttpClient` or a
        :class:`~repro.resilience.binding.PooledHttpClients` aggregate.
        Occupancy is *detail*, not a verdict: a busy pool does not flip
        ``/healthz`` to 503, but ``waiters > 0`` is visible here before
        any borrow-timeout ``OSError`` fires.
        """
        self._pools.append((name, pool))
        return self

    # -- evaluation ------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The health document (also the JSON body of a ``GET``)."""
        healthy = True
        breakers: dict[str, dict[str, str]] = {}
        for name, registry in self._breakers:
            states = dict(registry.states())
            breakers[name] = states
            if any(state != "closed" for state in states.values()):
                healthy = False
        checks: dict[str, str] = {}
        for name, check in self._checks:
            try:
                ok = bool(check())
            except Exception as exc:  # noqa: BLE001 - a check must not kill /healthz
                checks[name] = f"error: {exc}"
                healthy = False
                continue
            checks[name] = "ok" if ok else "failing"
            if not ok:
                healthy = False
        pools: dict[str, Any] = {}
        for name, pool in self._pools:
            try:
                pools[name] = pool.pool_stats()
            except Exception as exc:  # noqa: BLE001 - detail must not kill /healthz
                pools[name] = f"error: {exc}"
        document: dict[str, Any] = {"status": "ok" if healthy else "degraded"}
        if breakers:
            document["breakers"] = breakers
        if checks:
            document["checks"] = checks
        if pools:
            document["pools"] = pools
        return document

    def __call__(self, request):
        from ..transport.http11 import HttpResponse  # lazy: layering

        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        document = self.snapshot()
        status = 200 if document["status"] == "ok" else 503
        return HttpResponse.json_response(document, status)


# ---------------------------------------------------------------------------
# debug routes: on-demand profiling and thread dumps
# ---------------------------------------------------------------------------

#: Server-side caps on ``/debug/profile`` query parameters: a remote
#: caller must not be able to park a worker thread for minutes or spin
#: the sampler at absurd rates.
MAX_PROFILE_SECONDS = 30.0
MAX_PROFILE_HZ = 997.0


def profile_handler(
    *,
    default_seconds: float = 1.0,
    default_hz: float = 100.0,
) -> Callable[[Any], Any]:
    """``GET /debug/profile?seconds=&hz=``: run one profiling session.

    Blocks the serving worker for ``seconds`` (capped), then answers with
    collapsed-stack text — or an ASCII flamegraph with ``format=flame``.
    ``idle=1`` keeps parked-thread stacks verbatim instead of folding
    them into ``(idle)``.
    """
    from ..transport.http11 import HttpResponse  # lazy: layering

    def handle(request) -> "HttpResponse":
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        from .profiling import SamplingProfiler  # lazy: only when used

        query = request.query
        try:
            seconds = float(query.get("seconds", default_seconds))
            hz = float(query.get("hz", default_hz))
        except ValueError:
            return HttpResponse.error(400, "seconds and hz must be numbers")
        if seconds <= 0 or hz <= 0:
            return HttpResponse.error(400, "seconds and hz must be positive")
        seconds = min(seconds, MAX_PROFILE_SECONDS)
        hz = min(hz, MAX_PROFILE_HZ)
        profiler = SamplingProfiler(hz=hz, include_idle=query.get("idle") == "1")
        report = profiler.profile(seconds, reason="debug_endpoint")
        if query.get("format") == "flame":
            return HttpResponse.text_response(report.flamegraph())
        return HttpResponse.text_response(report.collapsed())

    return handle


def threads_handler() -> Callable[[Any], Any]:
    """``GET /debug/threads``: instant stack dump of every live thread."""
    from ..transport.http11 import HttpResponse  # lazy: layering

    def handle(request) -> "HttpResponse":
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        from .profiling import dump_threads  # lazy: only when used

        return HttpResponse.text_response(dump_threads())

    return handle


def last_profiles_handler(ring: Optional[Any] = None) -> Callable[[Any], Any]:
    """``GET /debug/profiles/last``: the newest auto-captured profile.

    Serves from ``ring`` (default: the module-wide
    :data:`~repro.observability.profiling.LAST_PROFILES` that SLO-firing
    auto-capture fills); 404 until something has been captured.
    """
    from ..transport.http11 import HttpResponse  # lazy: layering

    def handle(request) -> "HttpResponse":
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        from .profiling import LAST_PROFILES  # lazy: only when used

        source = ring if ring is not None else LAST_PROFILES
        report = source.last()
        if report is None:
            return HttpResponse.error(404, "no profile captured yet")
        if request.query.get("format") == "flame":
            return HttpResponse.text_response(report.flamegraph())
        return HttpResponse.text_response(report.collapsed())

    return handle


def debug_routes(profile_ring: Optional[Any] = None) -> dict[str, Callable[[Any], Any]]:
    """The ``/debug/*`` route table (profiling + thread dumps).

    Mounted by default via :func:`observability_routes`; the gateway
    fronts the same paths behind RBAC (``Gateway.debug_permission``).
    """
    return {
        "/debug/profile": profile_handler(),
        "/debug/threads": threads_handler(),
        "/debug/profiles/last": last_profiles_handler(profile_ring),
    }


def observability_routes(
    registry: Optional[MetricsRegistry] = None,
    health: Optional[HealthHandler] = None,
    *,
    debug: bool = True,
    profile_ring: Optional[Any] = None,
) -> dict[str, Callable[[Any], Any]]:
    """Route table for :func:`repro.web.app.compose_handlers`.

    ::

        health = HealthHandler().watch_breakers(invoker.breakers)
        handler = compose_handlers({
            "/soap": soap_endpoint,
            "/rest": rest_endpoint,
            **observability_routes(health=health),
        })

    ``debug=True`` (the default) also mounts :func:`debug_routes` —
    ``/debug/profile``, ``/debug/threads`` and ``/debug/profiles/last``.
    Nodes exposed directly to untrusted callers should either pass
    ``debug=False`` or sit behind the gateway, which guards the paths
    with RBAC.
    """
    routes: dict[str, Callable[[Any], Any]] = {
        "/metrics": metrics_handler(registry),
        "/healthz": health if health is not None else HealthHandler(),
    }
    if debug:
        routes.update(debug_routes(profile_ring))
    return routes
