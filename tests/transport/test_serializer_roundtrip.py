"""The serializers and the one framer agree: ``to_bytes`` then read back.

Generated :class:`HttpRequest` and :class:`HttpResponse` values — every
method, bodies empty and not, explicit ``Content-Length`` headers the
serializer must replace or keep, the bodyless statuses (1xx, 204, 304)
and the HEAD-response form (``include_body=False`` read with
``head_response=True``) — are serialized, joined into a pipelined
stream, and read back with :func:`read_request`/:func:`read_response`
in random byte splits.  Each message must come back equal to what the
serializer promised to put on the wire, and the stream must end exactly
where the last message ends.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.http11 import (
    STATUS_PHRASES,
    HttpRequest,
    HttpResponse,
    bodyless_status,
    read_request,
    read_response,
)

from .test_one_framer import ChunkedSocket, cuts, split

TOKEN = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

names = st.text(TOKEN, min_size=1, max_size=12).filter(
    lambda name: name.lower() not in ("content-length", "transfer-encoding")
)
# visible latin-1 with inner spaces: the parser strips the ends of a value
values = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_characters="\x7f"),
    max_size=20,
).map(str.strip)
headers = st.lists(st.tuples(names, values), max_size=4)
bodies = st.binary(max_size=64)
versions = st.sampled_from(["HTTP/1.1", "HTTP/1.0"])


@st.composite
def requests(draw):
    method = draw(st.sampled_from(["GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH"]))
    target = "/" + draw(st.text("abcxyz019-._~%/=&?", max_size=16))
    return HttpRequest(method, target, draw(headers), draw(bodies), draw(versions))


def request_on_the_wire(request):
    """What ``HttpRequest.to_bytes`` promises the peer reads."""
    items = request.headers.items()
    if request.body:
        items.append(("Content-Length", str(len(request.body))))
    elif request.method in ("POST", "PUT", "PATCH"):
        items.append(("Content-Length", "0"))
    return ("request", request.method, request.target, request.version, items, request.body)


@st.composite
def responses(draw):
    status = draw(st.sampled_from([100, 101, 204, 304, *sorted(STATUS_PHRASES)]))
    items = draw(headers)
    if draw(st.booleans()):
        # an explicit length: replaced, dropped (1xx, 204) or kept (304)
        position = draw(st.integers(0, len(items)))
        items.insert(position, ("Content-Length", str(draw(st.integers(0, 999)))))
    return HttpResponse(status, items, draw(bodies), draw(versions))


def response_on_the_wire(response, include_body):
    """What ``HttpResponse.to_bytes`` promises the peer reads."""
    items = response.headers.items()
    body = response.body
    if bodyless_status(response.status):
        if response.status != 304:
            items = [(k, v) for k, v in items if k.lower() != "content-length"]
        body = b""
    else:
        items = [(k, v) for k, v in items if k.lower() != "content-length"]
        items.append(("Content-Length", str(len(body))))
        if not include_body:
            body = b""
    return ("response", response.status, response.version, items, body)


def read_all(read, stream, cut_points):
    """Every message of ``stream``, read through random byte splits."""
    sock = ChunkedSocket(split(stream, cut_points))
    buffer, messages = b"", []
    while True:
        message, buffer = read(sock, buffer)
        if message is None:
            assert buffer == b""
            return messages
        messages.append(message)


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(requests(), min_size=1, max_size=3), cut_points=cuts)
def test_requests_round_trip(batch, cut_points):
    stream = b"".join(request.to_bytes() for request in batch)
    read_back = read_all(read_request, stream, cut_points)
    assert [
        ("request", m.method, m.target, m.version, m.headers.items(), m.body)
        for m in read_back
    ] == [request_on_the_wire(request) for request in batch]


@settings(max_examples=300, deadline=None)
@given(
    batch=st.lists(responses(), min_size=1, max_size=3),
    cut_points=cuts,
    include_body=st.booleans(),
)
def test_responses_round_trip(batch, cut_points, include_body):
    stream = b"".join(
        response.to_bytes(include_body=include_body) for response in batch
    )
    read_back = read_all(
        lambda sock, buffer: read_response(
            sock, buffer, head_response=not include_body
        ),
        stream,
        cut_points,
    )
    assert [
        ("response", m.status, m.version, m.headers.items(), m.body)
        for m in read_back
    ] == [response_on_the_wire(response, include_body) for response in batch]
