"""HTTP/1.1 message model and wire codec, from scratch.

The curriculum's service bindings ride on HTTP ("communication protocols
such as SOAP and HTTP").  This module implements just enough of RFC 7230:
request/response objects, header handling, Content-Length framing, and
(de)serialization to bytes.  It is the one framer: the server, the client
and the in-memory tests all decide where a message ends with
:func:`read_request`/:func:`read_response`, of which
:func:`parse_request`/:func:`parse_response` are the whole-buffer case.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional
from urllib.parse import parse_qsl, quote, unquote, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "bodyless_status",
    "content_length_of",
    "keeps_alive",
    "parse_request",
    "parse_response",
    "read_request",
    "read_response",
    "parse_query_string",
    "encode_query",
    "STATUS_PHRASES",
]

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_METHODS = {"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH"}


def bodyless_status(status: int) -> bool:
    """Statuses whose responses carry no message body (RFC 7230 §3.3.3).

    ``1xx``, ``204 No Content`` and ``304 Not Modified`` responses are
    terminated by the end of the header section regardless of any
    ``Content-Length`` present — a 304 *may* carry the length the full
    representation would have had, and a peer that frames on it anyway
    desyncs the keep-alive connection (reads the next response's status
    line as body bytes, or hangs waiting for a body that never comes).
    Both the serializer and the parsers consult this one predicate so
    the two sides can never disagree.
    """
    return status == 204 or status == 304 or 100 <= status < 200


class HttpError(ValueError):
    """Malformed HTTP message."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class _Headers:
    """Case-insensitive multi-map with first-value convenience access."""

    def __init__(self, items: Optional[list[tuple[str, str]]] = None) -> None:
        self._items: list[tuple[str, str]] = list(items or [])

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        lowered = name.lower()
        for key, value in self._items:
            if key.lower() == lowered:
                return value
        return default

    def get_all(self, name: str) -> list[str]:
        lowered = name.lower()
        return [v for k, v in self._items if k.lower() == lowered]

    def set(self, name: str, value: str) -> None:
        lowered = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]
        self._items.append((name, value))

    def add(self, name: str, value: str) -> None:
        self._items.append((name, value))

    def remove(self, name: str) -> None:
        lowered = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]

    def items(self) -> list[tuple[str, str]]:
        return list(self._items)

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __repr__(self) -> str:
        return f"_Headers({self._items!r})"


def _normalize_headers(
    headers: Optional[dict[str, str] | list[tuple[str, str]] | _Headers],
) -> _Headers:
    if headers is None:
        return _Headers()
    if isinstance(headers, _Headers):
        return headers
    if isinstance(headers, dict):
        return _Headers(list(headers.items()))
    return _Headers(list(headers))


@dataclass
class HttpRequest:
    """One HTTP request: method, target (path + query), headers, body.

    ``client_address`` is the peer IP as observed by the server socket
    (``None`` for requests that never crossed a socket, e.g.
    :func:`~repro.transport.httpserver.serve_once`).  The gateway's
    anonymous rate-limit buckets key on it.
    """

    method: str
    target: str
    headers: _Headers = field(default_factory=_Headers)
    body: bytes = b""
    version: str = "HTTP/1.1"
    client_address: Optional[str] = None

    def __post_init__(self) -> None:
        self.headers = _normalize_headers(self.headers)  # type: ignore[arg-type]

    @property
    def path(self) -> str:
        return unquote(urlsplit(self.target).path)

    @property
    def query(self) -> dict[str, str]:
        return parse_query_string(urlsplit(self.target).query)

    @property
    def content_type(self) -> str:
        return (self.headers.get("Content-Type") or "").split(";")[0].strip()

    def text(self, encoding: str = "utf-8") -> str:
        return self.body.decode(encoding)

    def form(self) -> dict[str, str]:
        """Decode an ``application/x-www-form-urlencoded`` body."""
        return parse_query_string(self.body.decode("utf-8", "replace"))

    def to_bytes(self) -> bytes:
        headers = _Headers(self.headers.items())
        if self.body and "Content-Length" not in headers:
            headers.set("Content-Length", str(len(self.body)))
        elif not self.body and self.method in ("POST", "PUT", "PATCH"):
            headers.set("Content-Length", "0")
        lines = [f"{self.method} {self.target} {self.version}"]
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


@dataclass
class HttpResponse:
    """One HTTP response; helpers build common content types."""

    status: int = 200
    headers: _Headers = field(default_factory=_Headers)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def __post_init__(self) -> None:
        self.headers = _normalize_headers(self.headers)  # type: ignore[arg-type]

    @property
    def reason(self) -> str:
        return STATUS_PHRASES.get(self.status, "Unknown")

    @property
    def content_type(self) -> str:
        return (self.headers.get("Content-Type") or "").split(";")[0].strip()

    def text(self, encoding: str = "utf-8") -> str:
        return self.body.decode(encoding)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @classmethod
    def text_response(
        cls, body: str, status: int = 200, content_type: str = "text/plain"
    ) -> "HttpResponse":
        return cls(
            status,
            _Headers([("Content-Type", f"{content_type}; charset=utf-8")]),
            body.encode("utf-8"),
        )

    @classmethod
    def json_response(cls, document: object, status: int = 200) -> "HttpResponse":
        """``document`` as indented, key-sorted JSON plus a newline."""
        return cls.text_response(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            status,
            "application/json",
        )

    @classmethod
    def xml_response(cls, body: str, status: int = 200) -> "HttpResponse":
        return cls.text_response(body, status, "application/xml")

    @classmethod
    def html_response(cls, body: str, status: int = 200) -> "HttpResponse":
        return cls.text_response(body, status, "text/html")

    @classmethod
    def error(cls, status: int, message: str = "") -> "HttpResponse":
        phrase = STATUS_PHRASES.get(status, "Error")
        return cls.text_response(message or phrase, status)

    @classmethod
    def redirect(cls, location: str, status: int = 302) -> "HttpResponse":
        return cls(status, _Headers([("Location", location)]))

    def to_bytes(self, *, include_body: bool = True) -> bytes:
        """Serialize; ``include_body=False`` emits the HEAD-response form:
        full status line and headers — ``Content-Length`` still describing
        the body — with the body itself omitted (RFC 7230 §3.3).

        Bodyless statuses (:func:`bodyless_status`: 1xx, 204, 304) never
        emit body bytes.  204 and 1xx drop ``Content-Length`` entirely
        (RFC 7230 §3.3.2 forbids it); 304 keeps an explicitly-set
        ``Content-Length`` — it describes the representation the client
        already holds — but never frames bytes under it.  The seed framed
        ``Content-Length: len(body)`` plus the body unconditionally, so a
        304 built from a cached 200 desynced every keep-alive peer.
        """
        headers = _Headers(self.headers.items())
        if bodyless_status(self.status):
            if self.status != 304:
                headers.remove("Content-Length")
            lines = [f"{self.version} {self.status} {self.reason}"]
            lines.extend(f"{k}: {v}" for k, v in headers.items())
            return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        headers.set("Content-Length", str(len(self.body)))
        lines = [f"{self.version} {self.status} {self.reason}"]
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body if include_body else head


# ---------------------------------------------------------------------------
# wire framing: the one place that decides where a message ends
# ---------------------------------------------------------------------------

_TERMINATOR = b"\r\n\r\n"
_RECV_CHUNK = 65536


def _parse_headers(lines: list[str]) -> _Headers:
    headers = _Headers()
    for line in lines:
        if not line:
            continue
        if ":" not in line:
            raise HttpError(f"malformed header line {line!r}")
        name, _, value = line.partition(":")
        if not name or name != name.strip() or "\t" in name or " " in name:
            raise HttpError(f"malformed header name {name!r}")
        headers.add(name, value.strip())
    return headers


def content_length_of(headers: _Headers) -> Optional[int]:
    """The message's declared ``Content-Length``, strictly validated.

    Duplicate ``Content-Length`` headers — agreeing or not — are rejected
    outright (HTTP 400): a message that frames differently depending on
    whether a parser honours the first or the last copy is the shape of a
    request-smuggling desync, so neither interpretation is acceptable.
    """
    values = headers.get_all("Content-Length")
    if not values:
        return None
    if len(values) > 1:
        raise HttpError(
            "duplicate Content-Length headers (request-smuggling shape)"
        )
    raw_length = values[0]
    try:
        length = int(raw_length)
    except ValueError as exc:
        raise HttpError(f"bad Content-Length {raw_length!r}") from exc
    if length < 0:
        raise HttpError("negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError("body too large", status=413)
    return length


def _body_length(headers: _Headers, bodyless: bool) -> int:
    """The one body-length rule: 0 when ``bodyless`` (a HEAD response, a
    1xx/204/304 status) or without ``Content-Length``, whose value is
    validated either way.  ``Transfer-Encoding`` is refused with 501
    (RFC 7230 §3.3.1, §3.3.3): nothing here decodes chunked bodies, and
    framing one on anything else leaves its body on the wire to be read
    as the next message — the request-smuggling shape."""
    if "Transfer-Encoding" in headers:
        raise HttpError("Transfer-Encoding is not supported", status=501)
    length = content_length_of(headers)
    return 0 if bodyless or length is None else length


def keeps_alive(version: str, headers: _Headers) -> bool:
    """Does this message leave its connection open (RFC 7230 §6.1, §6.3)?

    ``Connection`` is a case-insensitive, comma-separated token list that
    may span several header lines: a ``close`` token anywhere ends the
    connection.  Otherwise HTTP/1.1 is persistent by default, while an
    HTTP/1.0 message is persistent only with a ``keep-alive`` token.
    """
    tokens = {
        token.strip().lower()
        for value in headers.get_all("Connection")
        for token in value.split(",")
    }
    if "close" in tokens:
        return False
    return version != "HTTP/1.0" or "keep-alive" in tokens


def _head_lines(head: bytes) -> list[str]:
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError("header section too large", status=431)
    return head.decode("latin-1").split("\r\n")


def _request_head(head: bytes) -> tuple[HttpRequest, int]:
    """A request from its header section, and the body length it frames."""
    lines = _head_lines(head)
    if not lines[0]:
        raise HttpError("empty request line")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if method not in _METHODS:
        raise HttpError(f"unsupported method {method!r}", status=501)
    if not version.startswith("HTTP/"):
        raise HttpError(f"bad HTTP version {version!r}")
    headers = _parse_headers(lines[1:])
    return HttpRequest(method, target, headers, b"", version), _body_length(headers, False)


def _response_head(head: bytes, head_response: bool = False) -> tuple[HttpResponse, int]:
    """A response from its header section, and the body length it frames."""
    lines = _head_lines(head)
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HttpError(f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise HttpError(f"bad status code {parts[1]!r}") from exc
    headers = _parse_headers(lines[1:])
    bodyless = head_response or bodyless_status(status)
    return HttpResponse(status, headers, b"", parts[0]), _body_length(headers, bodyless)


def _recv(sock, deadline: Optional[float], pending: bool, where: str) -> bytes:
    """The next chunk of a message, waiting at most until ``deadline``.
    ``b""`` only for a close or timeout before the message's first byte
    (``pending`` false); after it, EOF is a 400 and a timeout a 408."""
    try:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout
            sock.settimeout(remaining)
        chunk = sock.recv(_RECV_CHUNK)
    except socket.timeout:
        if not pending:
            return b""
        raise HttpError(f"peer stalled mid-{where}", status=408) from None
    if not chunk and pending:
        raise HttpError(f"incomplete message: input ended mid-{where}")
    return chunk


def _read(sock, buffer: bytes, parse_head, timeout: Optional[float] = None):
    """Frame one message off ``sock`` after the bytes in ``buffer``.

    The terminator is searched for only in new bytes, and the head is
    parsed once.  ``timeout`` is a budget for the whole message, set back
    on the socket afterwards.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        end = buffer.find(_TERMINATOR)
        while end == -1:
            # no terminator yet: the head is at least len(buffer) - 3 long
            if len(buffer) - 3 > MAX_HEADER_BYTES:
                raise HttpError("header section too large", status=431)
            chunk = _recv(sock, deadline, bool(buffer), "headers")
            if not chunk:
                return None, b""
            scanned = max(len(buffer) - 3, 0)
            buffer += chunk
            end = buffer.find(_TERMINATOR, scanned)
        message, length = parse_head(buffer[:end])
        stop = end + 4 + length
        if len(buffer) < stop:  # a bytearray grows in place: linear in the body
            body = bytearray(buffer)
            while len(body) < stop:
                body += _recv(sock, deadline, True, "body")
            buffer = bytes(body)
    finally:
        if timeout is not None:
            sock.settimeout(timeout)
    message.body = buffer[end + 4 : stop]
    return message, buffer[stop:]


class _Exhausted:
    """A socket with nothing more to give: framing one whole buffer."""

    def recv(self, _size: int) -> bytes:
        return b""

    def gettimeout(self) -> None:
        return None


def read_request(
    sock: socket.socket, buffer: bytes = b""
) -> tuple[Optional[HttpRequest], bytes]:
    """Read one request off ``sock``: ``(request, leftover)``.

    ``buffer`` holds bytes already read; bytes past the request come back
    as ``leftover``, so pipelined requests survive.  ``(None, b"")`` is a
    peer that closed or timed out before its first byte.  The socket's
    timeout bounds the whole request, not each ``recv``, so a peer
    dribbling bytes cannot hold the reader longer: a server reads once a
    request's first bytes are in, so it counts from them.  Bad framing
    raises :class:`HttpError` with the status to answer: 400, 408, 413,
    431, 501.
    """
    return _read(sock, buffer, _request_head, sock.gettimeout())


def read_response(
    sock: socket.socket, buffer: bytes = b"", *, head_response: bool = False
) -> tuple[Optional[HttpResponse], bytes]:
    """Read one response off ``sock``, as :func:`read_request` does but
    with the socket's timeout bounding each ``recv``.
    ``head_response=True`` reads the answer to a ``HEAD`` request: its
    ``Content-Length`` describes a body that never arrives."""
    if head_response:
        return _read(sock, buffer, partial(_response_head, head_response=True))
    return _read(sock, buffer, _response_head)


def parse_request(raw: bytes) -> HttpRequest:
    """Parse one request from bytes: :func:`read_request` on a whole
    buffer.  Bytes past the message's framing are ignored."""
    request, _ = read_request(_Exhausted(), raw)  # type: ignore[arg-type]
    if request is None:
        raise HttpError("empty message")
    return request


def parse_response(raw: bytes, *, head_response: bool = False) -> HttpResponse:
    """Parse one response from bytes: :func:`read_response` on a whole
    buffer, ``head_response`` as there."""
    response, _ = read_response(  # type: ignore[arg-type]
        _Exhausted(), raw, head_response=head_response
    )
    if response is None:
        raise HttpError("empty message")
    return response


def parse_query_string(query: str) -> dict[str, str]:
    """Decode a query string / form body; last duplicate key wins."""
    return dict(parse_qsl(query, keep_blank_values=True))


def encode_query(values: dict[str, str]) -> str:
    """Percent-encode a dict as a query string."""
    return "&".join(f"{quote(str(k))}={quote(str(v))}" for k, v in values.items())
