"""Unit tests for the from-scratch XML parser."""

import pytest

from repro.xmlkit import (
    Comment,
    Element,
    ProcessingInstruction,
    Text,
    XMLSyntaxError,
    parse,
    parse_document,
    parse_events,
)
from repro.xmlkit.parser import Characters, EndElement, PIEvent, StartElement


class TestBasicParsing:
    def test_single_empty_element(self):
        root = parse("<a/>")
        assert root.tag == "a"
        assert root.children == []
        assert root.attributes == {}

    def test_element_with_text(self):
        root = parse("<greeting>hello</greeting>")
        assert root.text == "hello"

    def test_nested_elements(self):
        root = parse("<a><b><c/></b></a>")
        assert root.find("b").find("c") is not None

    def test_attributes_double_and_single_quotes(self):
        root = parse("""<a x="1" y='2'/>""")
        assert root.attributes == {"x": "1", "y": "2"}

    def test_attribute_with_whitespace_around_equals(self):
        root = parse('<a x = "1"/>')
        assert root["x"] == "1"

    def test_mixed_content_preserved(self):
        root = parse("<p>one<b>two</b>three</p>")
        kinds = [type(c).__name__ for c in root.children]
        assert kinds == ["Text", "Element", "Text"]
        assert root.text == "onetwothree"

    def test_xml_declaration_parsed(self):
        doc = parse_document('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert doc.declaration == {"version": "1.0", "encoding": "UTF-8"}

    def test_no_declaration(self):
        doc = parse_document("<a/>")
        assert doc.declaration is None

    def test_comment_inside_element(self):
        root = parse("<a><!-- note --><b/></a>")
        assert isinstance(root.children[0], Comment)
        assert root.children[0].data == " note "

    def test_comment_in_prolog(self):
        doc = parse_document("<!-- header --><a/>")
        assert isinstance(doc.prolog[0], Comment)

    def test_processing_instruction(self):
        root = parse('<a><?php echo "x"?></a>')
        pi = root.children[0]
        assert isinstance(pi, ProcessingInstruction)
        assert pi.target == "php"

    def test_cdata_section(self):
        root = parse("<a><![CDATA[<not&parsed>]]></a>")
        assert root.text == "<not&parsed>"

    def test_doctype_skipped(self):
        root = parse("<!DOCTYPE html><a/>")
        assert root.tag == "a"

    def test_whitespace_only_document_edges(self):
        root = parse("  \n <a/>\n  ")
        assert root.tag == "a"

    def test_namespaced_tags(self):
        root = parse("<soap:Envelope><soap:Body/></soap:Envelope>")
        assert root.tag == "soap:Envelope"
        assert root.local_name() == "Envelope"
        assert root.prefix() == "soap"

    def test_unicode_content(self):
        root = parse("<t>面向服务的计算</t>")
        assert root.text == "面向服务的计算"

    def test_unicode_tag(self):
        root = parse("<数据>x</数据>")
        assert root.tag == "数据"


class TestEntities:
    def test_predefined_entities(self):
        root = parse("<a>&lt;&gt;&amp;&quot;&apos;</a>")
        assert root.text == "<>&\"'"

    def test_decimal_character_reference(self):
        assert parse("<a>&#65;</a>").text == "A"

    def test_hex_character_reference(self):
        assert parse("<a>&#x41;&#x4E2D;</a>").text == "A中"

    def test_entities_in_attributes(self):
        root = parse('<a v="&lt;tag&gt; &amp; more"/>')
        assert root["v"] == "<tag> & more"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&nbsp;</a>")

    def test_bad_character_reference_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&#xZZ;</a>")


class TestStrictCharacterReferences:
    """Character references follow the grammar and the ``Char`` range."""

    @pytest.mark.parametrize(
        "reference",
        [
            "&#+65;",  # int() would take a sign ...
            "&# 65;",  # ... surrounding whitespace ...
            "&#6_5;",  # ... digit separators ...
            "&#\u0666\u0665;",  # ... and non-ASCII digits
            "&#X41;",  # the hex marker is a lowercase 'x'
            "&#;",
            "&#x;",
            "&#0;",  # below #x20, only tab, newline and CR are characters
            "&#1;",
            "&#x1F;",
            "&#xD800;",  # a lone surrogate cannot be UTF-8 encoded
            "&#xDFFF;",
            "&#xFFFE;",
            "&#xFFFF;",
            "&#x110000;",
            "&#99999999999999999999;",
        ],
    )
    @pytest.mark.parametrize("template", ["<a>{}</a>", '<a v="{}"/>'])
    def test_rejected(self, reference, template):
        with pytest.raises(XMLSyntaxError, match="bad character reference"):
            parse(template.format(reference))

    def test_error_names_the_reference_and_its_place(self):
        with pytest.raises(XMLSyntaxError) as caught:
            parse("<a>\nok &#xD800; tail</a>")
        assert str(caught.value) == (
            "bad character reference &#xD800; (line 2, column 17)"
        )

    @pytest.mark.parametrize(
        "reference,char",
        [
            ("&#9;", "\t"),
            ("&#xA;", "\n"),
            ("&#13;", "\r"),
            ("&#x20;", " "),
            ("&#x0041;", "A"),
            ("&#00065;", "A"),
            ("&#xd7ff;", "\ud7ff"),
            ("&#xE000;", "\ue000"),
            ("&#xFFFD;", "\ufffd"),
            ("&#x10000;", "\U00010000"),
            ("&#1114111;", "\U0010ffff"),
        ],
    )
    def test_accepted_at_the_edges_of_the_range(self, reference, char):
        assert parse(f"<a>{reference}</a>").text == char
        assert parse(f'<a v="{reference}"/>')["v"] == char


class TestProcessingInstructionBeforeRoot:
    """Only ``<?xml`` followed by whitespace is the XML declaration."""

    STYLED = '<?xml-stylesheet href="a.xsl" type="text/xsl"?><r/>'

    def test_stylesheet_pi_lands_in_the_prolog(self):
        doc = parse_document(self.STYLED)
        assert doc.declaration is None
        assert [(n.target, n.data) for n in doc.prolog] == [
            ("xml-stylesheet", 'href="a.xsl" type="text/xsl"')
        ]
        assert doc.toxml() == self.STYLED

    def test_stylesheet_pi_is_an_event(self):
        events = list(parse_events(self.STYLED))
        assert isinstance(events[0], PIEvent)
        assert (events[0].target, events[0].line, events[0].column) == (
            "xml-stylesheet", 1, 1,
        )

    def test_declaration_then_stylesheet(self):
        text = '<?xml version="1.0"?>\n<?xml-stylesheet href="a.xsl"?><r/>'
        doc = parse_document(text)
        assert doc.declaration == {"version": "1.0"}
        assert [n.target for n in doc.prolog] == ["xml-stylesheet"]
        assert doc.toxml() == text.replace("\n", "")

    def test_declaration_followed_by_any_whitespace(self):
        doc = parse_document('<?xml\tversion="1.0"?><r/>')
        assert doc.declaration == {"version": "1.0"}
        assert doc.prolog == []


class TestWellFormednessErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "<a>",
            "</a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a/><b/>",
            "<a x=1/>",
            '<a x="1" x="2"/>',
            "<a><!-- unterminated </a>",
            "<a>text",
            'text<a/>',
            '<a "v"/>',
            "<a><![CDATA[unterminated</a>",
            '<a x="a<b"/>',
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse(bad)

    def test_error_carries_location(self):
        try:
            parse("<a>\n  <b></c>\n</a>")
        except XMLSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected XMLSyntaxError")

    def test_double_hyphen_in_comment_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><!-- bad -- comment --></a>")


class TestEventStream:
    def test_event_sequence(self):
        events = list(parse_events("<a><b>x</b></a>"))
        kinds = [type(e).__name__ for e in events]
        assert kinds == [
            "StartElement",
            "StartElement",
            "Characters",
            "EndElement",
            "EndElement",
        ]

    def test_self_closing_emits_both_events(self):
        events = list(parse_events("<a/>"))
        assert isinstance(events[0], StartElement)
        assert isinstance(events[1], EndElement)
        assert events[0].tag == events[1].tag == "a"

    def test_attributes_on_start_event(self):
        events = list(parse_events('<a id="7"/>'))
        assert events[0].attributes == {"id": "7"}

    def test_cdata_flag(self):
        events = [e for e in parse_events("<a><![CDATA[x]]></a>") if isinstance(e, Characters)]
        assert events[0].cdata is True


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc",
        [
            "<a/>",
            "<a><b/><c/></a>",
            '<a x="1"><b>text &amp; more</b></a>',
            "<p>one<b>two</b>three</p>",
            '<svc name="credit"><op in="ssn" out="score"/></svc>',
        ],
    )
    def test_parse_serialize_parse_fixpoint(self, doc):
        first = parse(doc)
        second = parse(first.toxml())
        assert first.equals(second)

    def test_pretty_print_reparses_equal_ignoring_whitespace(self):
        root = parse('<a><b x="1">t</b><c/></a>')
        pretty = root.topretty()
        assert parse(pretty).equals(root, ignore_whitespace=True)
