"""A from-scratch, recursive-descent XML 1.0 parser (well-formed subset).

Two processing models are built over the same scanner, mirroring the two
models taught in CSE445 Unit 4:

* :func:`parse` / :func:`parse_document` — DOM model: build a
  :class:`~repro.xmlkit.dom.Document` tree.
* :func:`parse_events` — pull/streaming model yielding events; the SAX
  push API in :mod:`repro.xmlkit.sax` is layered on this.

Supported grammar: prolog with XML declaration, comments and processing
instructions; elements with attributes (single or double quoted); character
data; CDATA sections; the five predefined entities plus decimal/hex
character references to XML characters. DTDs are tolerated (skipped), not
interpreted.

The scanner does no Python work per character: it moves with ``str.find``,
``str.count`` and compiled regexes, so a message costs the interpreter the
same number of steps at any size.  The decoder takes one step per entity
or character reference, not per character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .dom import Comment, Document, Element, Node, ProcessingInstruction, Text

__all__ = [
    "XMLSyntaxError",
    "Event",
    "StartElement",
    "EndElement",
    "Characters",
    "CommentEvent",
    "PIEvent",
    "parse",
    "parse_document",
    "parse_events",
]


class XMLSyntaxError(ValueError):
    """Raised on malformed input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

# A name starts with an ASCII letter, ':' or '_' and goes on with those,
# digits, '-' and '.'; every non-ASCII character is allowed in both places.
# The classes are negated ASCII sets: a positive range up to U+10FFFF would
# make the pattern slow to compile.
_NAME = re.compile(
    r"[^\x00-\x39\x3B-\x40\x5B-\x5E\x60\x7B-\x7F]"
    r"[^\x00-\x2C/\x3B-\x40\x5B-\x5E\x60\x7B-\x7F]*"
)
_WHITESPACE = re.compile(r"[ \t\r\n]*")
# The XML declaration is '<?xml' followed by whitespace (XML 1.0 section
# 2.8); '<?xml-stylesheet ...?>' and the like are processing instructions.
_XML_DECLARATION = re.compile(r"<\?xml[ \t\r\n]")
_ANGLE = re.compile(r"[<>]")
_CHAR_REFERENCE = re.compile(r"#(?:([0-9]+)|x([0-9a-fA-F]+))")


# ---------------------------------------------------------------------------
# event types (pull model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    line: int
    column: int


@dataclass(frozen=True)
class StartElement(Event):
    tag: str
    attributes: dict[str, str]


@dataclass(frozen=True)
class EndElement(Event):
    tag: str


@dataclass(frozen=True)
class Characters(Event):
    data: str
    cdata: bool = False


@dataclass(frozen=True)
class CommentEvent(Event):
    data: str


@dataclass(frozen=True)
class PIEvent(Event):
    target: str
    data: str


# ---------------------------------------------------------------------------
# scanner
# ---------------------------------------------------------------------------


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
        newlines = chunk.count("\n")
        if newlines:
            self.line += newlines
            self.column = len(chunk) - chunk.rfind("\n")
        else:
            self.column += len(chunk)
        self.pos += n
        return chunk

    def expect(self, literal: str, what: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {what} ({literal!r})")
        self.advance(len(literal))

    def skip_whitespace(self) -> None:
        end = _WHITESPACE.match(self.text, self.pos).end()
        if end > self.pos:
            self.advance(end - self.pos)

    def read_until(self, terminator: str, what: str) -> str:
        end = self.text.find(terminator, self.pos)
        if end == -1:
            raise self.error(f"unterminated {what}")
        data = self.advance(end - self.pos)
        self.advance(len(terminator))
        return data

    def read_name(self) -> str:
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise self.error("expected XML name")
        return self.advance(match.end() - self.pos)


def _is_xml_char(code: int) -> bool:
    """The XML 1.0 ``Char`` production, as a code point test."""
    return (
        0x20 <= code <= 0xD7FF
        or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )


def _decode_char_reference(name: str, scanner: _Scanner) -> str:
    """Decode ``name`` (the text between ``&`` and ``;``) of ``&#...;``."""
    match = _CHAR_REFERENCE.fullmatch(name)
    if match is not None:
        decimal, hexadecimal = match.groups()
        digits = (decimal or hexadecimal).lstrip("0")
        # more than 7 significant digits is past U+10FFFF in either base
        if len(digits) <= 7:
            code = int(digits or "0", 10 if decimal else 16)
            if _is_xml_char(code):
                return chr(code)
    raise scanner.error(f"bad character reference &{name};")


def _decode_references(raw: str, scanner: _Scanner) -> str:
    """Expand entity and character references in character/attribute data."""
    if "&" not in raw:
        return raw
    out: list[str] = []
    i = 0
    start = raw.find("&")
    while start != -1:
        out.append(raw[i:start])
        end = raw.find(";", start + 1)
        if end == -1:
            raise scanner.error("unterminated entity reference")
        name = raw[start + 1 : end]
        if name.startswith("#"):
            out.append(_decode_char_reference(name, scanner))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise scanner.error(f"unknown entity &{name};")
        i = end + 1
        start = raw.find("&", i)
    out.append(raw[i:])
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
    if _XML_DECLARATION.match(text, scanner.pos):
        scanner.advance(5)
        scanner.read_until("?>", "XML declaration")
    stack: list[str] = []
    seen_root = False

    while not scanner.eof():
        line, column = scanner.line, scanner.column
        if scanner.peek() != "<":
            # character data
            end = text.find("<", scanner.pos)
            raw = scanner.advance((len(text) if end == -1 else end) - scanner.pos)
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
            end = len(text)
            for bracket in _ANGLE.finditer(text, scanner.pos):
                if bracket.group() == "<":
                    depth += 1
                elif depth == 0:
                    end = bracket.end()
                    break
                else:
                    depth -= 1
            scanner.advance(end - scanner.pos)
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
# DOM parser
# ---------------------------------------------------------------------------


def parse_document(text: str) -> Document:
    """Parse ``text`` into a :class:`~repro.xmlkit.dom.Document`."""
    declaration: Optional[dict[str, str]] = None
    stripped = text.lstrip(" \t\r\n")
    if _XML_DECLARATION.match(stripped):
        decl_scanner = _Scanner(stripped[5:])
        declaration = _read_attributes(decl_scanner)

    prolog: list[Node] = []
    root: Optional[Element] = None
    stack: list[Element] = []
    pending_text: list[str] = []

    def flush_text() -> None:
        if pending_text and stack:
            data = "".join(pending_text)
            if data:
                stack[-1].append(Text(data))
        pending_text.clear()

    for event in parse_events(text):
        if isinstance(event, StartElement):
            flush_text()
            element = Element(event.tag, event.attributes)
            if stack:
                stack[-1].append(element)
            elif root is None:
                root = element
            stack.append(element)
        elif isinstance(event, EndElement):
            flush_text()
            stack.pop()
        elif isinstance(event, Characters):
            pending_text.append(event.data)
        elif isinstance(event, CommentEvent):
            flush_text()
            node = Comment(event.data)
            if stack:
                stack[-1].append(node)
            else:
                prolog.append(node)
        elif isinstance(event, PIEvent):
            flush_text()
            node = ProcessingInstruction(event.target, event.data)
            if stack:
                stack[-1].append(node)
            else:
                prolog.append(node)

    assert root is not None  # parse_events guarantees a root element
    # prolog nodes that arrived after the root close are dropped into prolog
    return Document(root, declaration, prolog)


def parse(text: str) -> Element:
    """Parse ``text`` and return the root :class:`Element`."""
    return parse_document(text).root
