"""Differential test: the linear-time codec against the codec it replaced.

The reference model below is the previous ``escape_text``,
``escape_attribute``, ``_Scanner``, ``_decode_references``,
``_read_attributes`` and ``parse_events``, copied verbatim (only the shared
``XMLSyntaxError`` and event classes are imported).  For generated and
mutated documents, both sides must yield equal events (type, payload,
line, column) and, if one raises ``XMLSyntaxError``, both raise it after
the same events with equal message, line and column.

Two behaviour changes are deliberate bugfixes, and the inputs they touch
are excluded by one predicate, :func:`changed_by_bugfix`:

* a character reference outside the ``&#[0-9]+;`` / ``&#x[0-9a-fA-F]+;``
  grammar or the XML ``Char`` range, which the old decoder accepted;
* a document opening with ``<?xml`` not followed by whitespace (such as
  ``<?xml-stylesheet ...?>``), which the old parser took for the XML
  declaration.

``tests/xmlkit/test_parser.py`` pins the new behaviour on those inputs.
"""

import re
from typing import Iterator

from hypothesis import example, given, settings, strategies as st

from repro.xmlkit import dom, parser
from repro.xmlkit.parser import (
    Characters,
    CommentEvent,
    EndElement,
    Event,
    PIEvent,
    StartElement,
    XMLSyntaxError,
)

from .test_properties import elements, text_data

# ---------------------------------------------------------------------------
# reference model: the previous codec, verbatim
# ---------------------------------------------------------------------------

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;", "'": "&apos;"}


def escape_text(value: str) -> str:
    """Escape character data for inclusion in element content."""
    out = []
    for ch in value:
        out.append(_TEXT_ESCAPES.get(ch, ch))
    return "".join(out)


def escape_attribute(value: str) -> str:
    """Escape character data for inclusion in a double-quoted attribute."""
    out = []
    for ch in value:
        out.append(_ATTR_ESCAPES.get(ch, ch))
    return "".join(out)


_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

_NAME_START_EXTRA = set(":_")
_NAME_EXTRA = set(":_-.")


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA or ord(ch) > 0x7F


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA or ord(ch) > 0x7F


class _Scanner:
    """Character scanner with line/column tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.line, self.column)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos : self.pos + n]

    def advance(self, n: int = 1) -> str:
        chunk = self.text[self.pos : self.pos + n]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += n
        return chunk

    def expect(self, literal: str, what: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {what} ({literal!r})")
        self.advance(len(literal))

    def skip_whitespace(self) -> None:
        while not self.eof() and self.text[self.pos] in " \t\r\n":
            self.advance()

    def read_until(self, terminator: str, what: str) -> str:
        end = self.text.find(terminator, self.pos)
        if end == -1:
            raise self.error(f"unterminated {what}")
        data = self.text[self.pos : end]
        self.advance(end - self.pos)
        self.advance(len(terminator))
        return data

    def read_name(self) -> str:
        if self.eof() or not _is_name_start(self.text[self.pos]):
            raise self.error("expected XML name")
        start = self.pos
        while not self.eof() and _is_name_char(self.text[self.pos]):
            self.advance()
        return self.text[start : self.pos]


def _decode_references(raw: str, scanner: _Scanner) -> str:
    """Expand entity and character references in character/attribute data."""
    if "&" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end == -1:
            raise scanner.error("unterminated entity reference")
        name = raw[i + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            try:
                out.append(chr(int(name[2:], 16)))
            except ValueError:
                raise scanner.error(f"bad character reference &{name};") from None
        elif name.startswith("#"):
            try:
                out.append(chr(int(name[1:])))
            except ValueError:
                raise scanner.error(f"bad character reference &{name};") from None
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise scanner.error(f"unknown entity &{name};")
        i = end + 1
    return "".join(out)


def _read_attributes(scanner: _Scanner) -> dict[str, str]:
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        nxt = scanner.peek()
        if nxt in (">", "/", "?") or scanner.eof():
            return attributes
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=", "'=' after attribute name")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        value = scanner.read_until(quote, "attribute value")
        if "<" in value:
            raise scanner.error("'<' not allowed in attribute value")
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}")
        attributes[name] = _decode_references(value, scanner)


# ---------------------------------------------------------------------------
# pull parser
# ---------------------------------------------------------------------------


def parse_events(text: str) -> Iterator[Event]:
    """Yield a stream of parse events for ``text`` (a full XML document).

    The stream is well-formedness checked: exactly one root element, all
    tags properly nested and matched.
    """
    scanner = _Scanner(text)
    scanner.skip_whitespace()
    if scanner.peek(5) == "<?xml":
        scanner.advance(5)
        scanner.read_until("?>", "XML declaration")
    stack: list[str] = []
    seen_root = False

    while not scanner.eof():
        line, column = scanner.line, scanner.column
        if scanner.peek() != "<":
            # character data
            end = scanner.text.find("<", scanner.pos)
            if end == -1:
                raw = scanner.text[scanner.pos :]
                scanner.advance(len(raw))
            else:
                raw = scanner.text[scanner.pos : end]
                scanner.advance(end - scanner.pos)
            if stack:
                yield Characters(line, column, _decode_references(raw, scanner))
            elif raw.strip():
                raise scanner.error("character data outside root element")
            continue

        if scanner.peek(4) == "<!--":
            scanner.advance(4)
            data = scanner.read_until("-->", "comment")
            if "--" in data:
                raise scanner.error("'--' not allowed inside comment")
            yield CommentEvent(line, column, data)
            continue
        if scanner.peek(9) == "<![CDATA[":
            if not stack:
                raise scanner.error("CDATA outside root element")
            scanner.advance(9)
            data = scanner.read_until("]]>", "CDATA section")
            yield Characters(line, column, data, cdata=True)
            continue
        if scanner.peek(2) == "<!":
            # DOCTYPE or other declaration: skip to matching '>'
            scanner.advance(2)
            depth = 0
            while not scanner.eof():
                ch = scanner.advance()
                if ch == "<":
                    depth += 1
                elif ch == ">":
                    if depth == 0:
                        break
                    depth -= 1
            continue
        if scanner.peek(2) == "<?":
            scanner.advance(2)
            target = scanner.read_name()
            body = scanner.read_until("?>", "processing instruction").strip()
            yield PIEvent(line, column, target, body)
            continue
        if scanner.peek(2) == "</":
            scanner.advance(2)
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect(">", "'>' closing end tag")
            if not stack:
                raise scanner.error(f"unexpected end tag </{name}>")
            expected = stack.pop()
            if expected != name:
                raise scanner.error(
                    f"mismatched end tag: expected </{expected}>, got </{name}>"
                )
            yield EndElement(line, column, name)
            continue

        # start tag
        scanner.advance()  # consume '<'
        name = scanner.read_name()
        attributes = _read_attributes(scanner)
        if scanner.peek(2) == "/>":
            scanner.advance(2)
            if seen_root and not stack:
                raise scanner.error("multiple root elements")
            seen_root = True
            yield StartElement(line, column, name, attributes)
            yield EndElement(line, column, name)
            continue
        scanner.expect(">", "'>' closing start tag")
        if seen_root and not stack:
            raise scanner.error("multiple root elements")
        seen_root = True
        stack.append(name)
        yield StartElement(line, column, name, attributes)

    if stack:
        raise scanner.error(f"unclosed element <{stack[-1]}>")
    if not seen_root:
        raise scanner.error("no root element")


# ---------------------------------------------------------------------------
# the two deliberate changes
# ---------------------------------------------------------------------------

_CHAR_REFERENCE = re.compile(r"&#([^;]*);")
_STRICT_DIGITS = re.compile(r"[0-9]+|x[0-9a-fA-F]+")


def _is_strict_char_reference(digits: str) -> bool:
    if not _STRICT_DIGITS.fullmatch(digits):
        return False
    code = int(digits[1:], 16) if digits.startswith("x") else int(digits)
    return (
        code in (0x9, 0xA, 0xD)
        or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )


def changed_by_bugfix(text: str) -> bool:
    """Whether ``text`` holds an input that one of the two bugfixes changes."""
    if any(
        not _is_strict_char_reference(m.group(1))
        for m in _CHAR_REFERENCE.finditer(text)
    ):
        return True
    head = text.lstrip(" \t\r\n")
    return head.startswith("<?xml") and not re.match(r"<\?xml[ \t\r\n]", head)


# ---------------------------------------------------------------------------
# generated documents
# ---------------------------------------------------------------------------

FRAGMENTS = (
    "<", ">", "&", ";", '"', "'", "=", "/", "\n", "\r", "\t", " ", "]]>", "--",
    "text", "a\nb \n c", "\r\n\r\n", "\u00e9\n\u4e2d",
    "<![CDATA[a<&\n\n]]>", "<!-- c\n\n -->", "<?pi da\nta?>", "<?xml-stylesheet href='a'?>",
    '<?xml version="1.0"?>', "<!DOCTYPE r [<!ENTITY e 'v'>\n]>", "<!DOCTYPE r>",
    "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&amp;lt;", "&amp;amp;", "&e;",
    "&#65;", "&#x4E2D;", "&#10;", "&#X41;", "&#xD800;", "&#0;", "&#;", "&#+1;",
    "<b/>", "</b>", "<a x='1'>", "<b\ny = '&lt;\n'>",
)


@st.composite
def documents(draw):
    """A serialized tree, or a root holding a run of fragments, then mutated."""
    text = draw(st.sampled_from(["", '<?xml version="1.0"?>\n', " \n"]))
    if draw(st.booleans()):
        text += draw(elements()).toxml()
    else:
        soup = draw(st.lists(st.sampled_from(FRAGMENTS), max_size=12))
        text += "<r>" + "".join(soup) + "</r>"
    for _ in range(draw(st.integers(0, 4))):
        position = draw(st.integers(0, len(text)))
        if text and draw(st.booleans()):
            end = draw(st.integers(position, min(len(text), position + 3)))
            text = text[:position] + text[end:]
        else:
            text = text[:position] + draw(st.sampled_from(FRAGMENTS)) + text[position:]
    return text


def outcome(events_of, text):
    """The events yielded, then the error's message and position, if any."""
    events: list = []
    try:
        events.extend(events_of(text))
    except XMLSyntaxError as exc:
        events.append(("error", str(exc), exc.line, exc.column))
    return events


@given(documents())
@example("<r>&amp;lt;&amp;amp;&quot;</r>")
@example("<r>\n\n<b/>a\nb\n<c\n x='\n'/></r>")
@example("<!DOCTYPE r [<!ENTITY e 'v'>\n]>\n<r a='&lt;\n'><!--\n--></r>")
@settings(max_examples=250, deadline=None)
def test_parse_events_matches_the_previous_parser(text):
    if changed_by_bugfix(text):
        return
    assert outcome(parser.parse_events, text) == outcome(parse_events, text)


@given(st.one_of(text_data, st.sampled_from(FRAGMENTS)))
@settings(max_examples=200, deadline=None)
def test_escapes_match_the_previous_codec(value):
    assert dom.escape_text(value) == escape_text(value)
    assert dom.escape_attribute(value) == escape_attribute(value)
