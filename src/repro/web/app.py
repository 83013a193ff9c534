"""The web application framework: routing + state + cookies, three-tier.

Unit 5 structures a web application into presentation / business logic /
data management.  :class:`WebApp` is the presentation substrate:

* routes with path variables (via :class:`~repro.transport.rest.RestRouter`)
* automatic session resolution (cookie ``SESSIONID``) — handlers receive a
  :class:`RequestContext` carrying the session (created on first use),
  query, form and app state
* cookie emission, redirects, HTML helpers
* post-redirect-get helper for form flows

It is an ``HttpRequest -> HttpResponse`` handler, so it mounts directly
on :class:`~repro.transport.httpserver.HttpServer`, possibly side-by-side
with SOAP/REST endpoints via :func:`compose_handlers`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..observability.metrics import AtomicCounter
from ..observability.runtime import OBS
from ..transport.http11 import HttpRequest, HttpResponse
from ..transport.rest import RestRouter
from .state import ApplicationState, Session, SessionManager

__all__ = ["RequestContext", "WebApp", "compose_handlers", "parse_cookies", "format_cookie"]


def parse_cookies(header: Optional[str]) -> dict[str, str]:
    """Parse a ``Cookie:`` request header."""
    cookies: dict[str, str] = {}
    if not header:
        return cookies
    for part in header.split(";"):
        name, _, value = part.strip().partition("=")
        if name:
            cookies[name] = value
    return cookies


def format_cookie(
    name: str,
    value: str,
    *,
    path: str = "/",
    http_only: bool = True,
    max_age: Optional[int] = None,
) -> str:
    """Format a ``Set-Cookie:`` response header value."""
    parts = [f"{name}={value}", f"Path={path}"]
    if max_age is not None:
        parts.append(f"Max-Age={max_age}")
    if http_only:
        parts.append("HttpOnly")
    return "; ".join(parts)


@dataclass
class RequestContext:
    """Everything a page handler needs for one request.

    A live session named by the ``SESSIONID`` cookie is resolved up front,
    which slides its expiry on every request.  When there is none,
    :attr:`session` creates one only when a handler first reads it: pages
    that keep no per-user state neither allocate a session nor send its
    ``Set-Cookie``.
    """

    request: HttpRequest
    sessions: SessionManager
    app_state: ApplicationState
    path_args: dict[str, str] = field(default_factory=dict)
    _session: Optional[Session] = None
    _new_session: bool = False
    _extra_cookies: list[str] = field(default_factory=list)

    @property
    def session(self) -> Session:
        if self._session is None:
            self._session, self._new_session = self.sessions.create(), True
        return self._session

    @property
    def query(self) -> dict[str, str]:
        return self.request.query

    @property
    def form(self) -> dict[str, str]:
        return self.request.form()

    @property
    def method(self) -> str:
        return self.request.method

    def set_cookie(self, name: str, value: str, **options: Any) -> None:
        self._extra_cookies.append(format_cookie(name, value, **options))

    def cookies(self) -> dict[str, str]:
        return parse_cookies(self.request.headers.get("Cookie"))


PageHandler = Callable[..., HttpResponse]


class WebApp:
    """Route table + session plumbing; the application tier of Fig. 4."""

    def __init__(
        self,
        session_manager: Optional[SessionManager] = None,
        app_state: Optional[ApplicationState] = None,
    ) -> None:
        self.sessions = session_manager or SessionManager()
        self.state = app_state or ApplicationState()
        self._router = RestRouter()
        self._router.not_found = lambda request: HttpResponse.error(
            404, f"no page at {request.path}"
        )
        self._error_handler: Optional[Callable[[HttpRequest, Exception], HttpResponse]] = None
        # One shared atomic primitive with the metrics registry: the tally
        # stays exact under HttpServer's thread-per-connection dispatch.
        self._requests = AtomicCounter()

    # -- registration ------------------------------------------------------
    def page(self, pattern: str, methods: Sequence[str] = ("GET",)):
        """Decorator: register a page handler for one or more methods.

        Handlers take ``(context, **path_vars)`` and return HttpResponse.
        """

        def register(handler: PageHandler) -> PageHandler:
            for method in methods:
                self._router.add(method, pattern, self._wrap(handler))
            return handler

        return register

    def set_error_handler(
        self, handler: Callable[[HttpRequest, Exception], HttpResponse]
    ) -> None:
        self._error_handler = handler

    def _wrap(self, handler: PageHandler):
        def dispatch(request: HttpRequest, **path_args: str) -> HttpResponse:
            session_id = parse_cookies(request.headers.get("Cookie")).get(
                SessionManager.COOKIE_NAME
            )
            context = RequestContext(
                request, self.sessions, self.state, path_args, self.sessions.resolve(session_id)
            )
            response = handler(context, **path_args)
            if context._new_session:
                response.headers.add(
                    "Set-Cookie",
                    format_cookie(SessionManager.COOKIE_NAME, context.session.id),
                )
            for cookie in context._extra_cookies:
                response.headers.add("Set-Cookie", cookie)
            return response

        return dispatch

    # -- dispatch --------------------------------------------------------
    def __call__(self, request: HttpRequest) -> HttpResponse:
        self._requests.inc()
        if not OBS.enabled:
            return self._dispatch(request)
        start = time.perf_counter()
        response = self._dispatch(request)
        instruments = OBS.instruments
        instruments.webapp_seconds.observe(time.perf_counter() - start)
        instruments.webapp_requests.inc(
            outcome="error" if response.status >= 500 else "ok"
        )
        return response

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        try:
            return self._router(request)
        except Exception as exc:  # noqa: BLE001 - error page boundary
            if self._error_handler is not None:
                return self._error_handler(request, exc)
            return HttpResponse.error(500, f"unhandled error: {exc}")

    @property
    def request_count(self) -> int:
        return int(self._requests.value)


def compose_handlers(
    routes: dict[str, Callable[[HttpRequest], HttpResponse]],
    default: Optional[Callable[[HttpRequest], HttpResponse]] = None,
):
    """Mount several handlers under path prefixes (longest prefix wins).

    ``compose_handlers({"/soap": soap_endpoint, "/rest": rest_endpoint,
    "/": webapp})`` — one server, all bindings, as on the paper's host.
    """
    ordered = sorted(routes.items(), key=lambda kv: -len(kv[0]))

    def handler(request: HttpRequest) -> HttpResponse:
        for prefix, target in ordered:
            if request.path == prefix or request.path.startswith(
                prefix.rstrip("/") + "/"
            ) or prefix == "/":
                return target(request)
        if default is not None:
            return default(request)
        return HttpResponse.error(404)

    return handler
