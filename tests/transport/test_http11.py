"""Tests for the HTTP/1.1 message codec."""

import pytest

from repro.transport import (
    HttpError,
    HttpRequest,
    HttpResponse,
    encode_query,
    parse_query_string,
    parse_request,
    parse_response,
)


class TestRequestCodec:
    def test_round_trip_get(self):
        request = HttpRequest("GET", "/path?x=1", {"Host": "a"})
        parsed = parse_request(request.to_bytes())
        assert parsed.method == "GET"
        assert parsed.target == "/path?x=1"
        assert parsed.headers.get("Host") == "a"

    def test_round_trip_post_body(self):
        request = HttpRequest("POST", "/svc", {"Content-Type": "text/xml"}, b"<a/>")
        parsed = parse_request(request.to_bytes())
        assert parsed.body == b"<a/>"
        assert parsed.content_type == "text/xml"

    def test_path_and_query_properties(self):
        request = HttpRequest("GET", "/a%20b/c?x=1&y=hello%20world")
        assert request.path == "/a b/c"
        assert request.query == {"x": "1", "y": "hello world"}

    def test_form_decoding(self):
        request = HttpRequest(
            "POST",
            "/f",
            {"Content-Type": "application/x-www-form-urlencoded"},
            b"name=Ada+Lovelace&age=36",
        )
        assert request.form() == {"name": "Ada Lovelace", "age": "36"}

    def test_header_case_insensitive(self):
        parsed = parse_request(b"GET / HTTP/1.1\r\ncontent-type: text/xml\r\n\r\n")
        assert parsed.headers.get("Content-Type") == "text/xml"

    def test_content_length_truncates_body(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nabXX"
        assert parse_request(raw).body == b"ab"

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"GET /\r\n\r\n",
            b"FROB / HTTP/1.1\r\n\r\n",
            b"GET / NOTHTTP\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header Line\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ],
    )
    def test_malformed_requests_rejected(self, raw):
        with pytest.raises(HttpError):
            parse_request(raw)

    def test_unsupported_method_status_501(self):
        try:
            parse_request(b"FROB / HTTP/1.1\r\n\r\n")
        except HttpError as exc:
            assert exc.status == 501

    def test_post_without_body_gets_zero_length(self):
        raw = HttpRequest("POST", "/x").to_bytes()
        assert b"Content-Length: 0" in raw


class TestResponseCodec:
    def test_round_trip(self):
        response = HttpResponse.text_response("hello", 200)
        parsed = parse_response(response.to_bytes())
        assert parsed.status == 200
        assert parsed.text() == "hello"
        assert parsed.ok

    def test_reason_phrases(self):
        assert HttpResponse(404).reason == "Not Found"
        assert HttpResponse(999).reason == "Unknown"

    def test_error_factory(self):
        response = HttpResponse.error(503)
        assert response.status == 503
        assert b"Service Unavailable" in response.body

    def test_redirect_factory(self):
        response = HttpResponse.redirect("/login")
        assert response.status == 302
        assert response.headers.get("Location") == "/login"

    def test_xml_and_html_content_types(self):
        assert HttpResponse.xml_response("<a/>").content_type == "application/xml"
        assert HttpResponse.html_response("<p/>").content_type == "text/html"

    def test_json_factory_bytes(self):
        """The bytes every JSON route (/alerts, /healthz, /cache/stats,
        /traces*) has always served: indented, key-sorted, ASCII-escaped,
        newline-terminated."""
        response = HttpResponse.json_response({"b": [1, "\u00fc"], "a": None}, 503)
        body = b'{\n  "a": null,\n  "b": [\n    1,\n    "\\u00fc"\n  ]\n}\n'
        assert response.to_bytes() == (
            b"HTTP/1.1 503 Service Unavailable\r\n"
            b"Content-Type: application/json; charset=utf-8\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        assert HttpResponse.json_response([]).status == 200

    def test_content_length_always_set(self):
        parsed = parse_response(HttpResponse.text_response("abc").to_bytes())
        assert parsed.headers.get("Content-Length") == "3"

    def test_malformed_status_line(self):
        with pytest.raises(HttpError):
            parse_response(b"NOTHTTP 200 OK\r\n\r\n")
        with pytest.raises(HttpError):
            parse_response(b"HTTP/1.1 abc OK\r\n\r\n")

    def test_not_ok_statuses(self):
        assert not HttpResponse(404).ok
        assert not HttpResponse(500).ok
        assert HttpResponse(204).ok


class TestQueryCodec:
    def test_round_trip(self):
        values = {"a": "1", "b": "hello world", "c": "x&y=z"}
        assert parse_query_string(encode_query(values)) == values

    def test_blank_values_kept(self):
        assert parse_query_string("a=&b=2") == {"a": "", "b": "2"}

    def test_empty_string(self):
        assert parse_query_string("") == {}
