"""The XML codec runs a fixed number of Python lines whatever the body size.

Escaping, scanning, line/column tracking and entity decoding are done by
``str`` methods and compiled regexes, so a 64 KB string costs the codec
the same Python bytecode as a 1 KB one.  Counting ``sys.settrace`` line
events inside ``repro.xmlkit`` makes this deterministic: a per-character
loop anywhere on the path shows up as a count that grows with the input.

The decoder costs one step per reference, not per character, so the
``parse`` case reads a body without references: ASCII letters and line
breaks, the text the end-to-end cache workload sends.  The encoding
cases get every character the codec escapes.
"""

import os
import string
import sys

import pytest

import repro.xmlkit
from repro.xmlkit import escape_attribute, parse, to_element

XMLKIT_DIR = os.path.dirname(repro.xmlkit.__file__) + os.sep
# every character the codec escapes, plus line breaks for the line counter
ESCAPED = "plain <tag> & \"quoted\" 'apos'\n\r\tend;"
# letters and line breaks: no reference in the encoded document
PLAIN = string.ascii_letters + "\n"


def body(size: int, pattern: str = ESCAPED) -> str:
    return (pattern * (size // len(pattern) + 1))[:size]


def xmlkit_lines(fn, *args) -> int:
    """Line events executed inside ``repro/xmlkit`` while running ``fn``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(XMLKIT_DIR):
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def encode(value: str) -> str:
    return to_element("v", value).toxml()


@pytest.mark.parametrize(
    "operation, pattern",
    [
        (encode, ESCAPED),
        (lambda value: parse(encode(value)), PLAIN),
        (escape_attribute, ESCAPED),
    ],
    ids=["toxml", "parse", "escape_attribute"],
)
def test_line_count_does_not_grow_with_the_body(operation, pattern):
    small = xmlkit_lines(operation, body(1_000, pattern))
    large = xmlkit_lines(operation, body(64_000, pattern))
    assert small > 0
    assert large == small


def test_round_trip_of_the_traced_body():
    value = body(64_000)
    decoded = parse(encode(value))
    assert decoded.text == value
