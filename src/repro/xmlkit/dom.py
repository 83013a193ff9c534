"""DOM-style XML tree model.

The paper's CSE445 Unit 4 ("XML Data Representation and Processing")
teaches three processing models — SAX, DOM and XPath.  This module is the
DOM: a small, fully in-memory tree of :class:`Element`, :class:`Text`,
:class:`Comment` and :class:`ProcessingInstruction` nodes rooted at a
:class:`Document`.

The model is intentionally close to W3C DOM semantics where that matters
for teaching (node parentage, document ownership, ordered children,
attribute maps) while staying Pythonic (iteration, ``find``-style helpers).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

__all__ = [
    "Node",
    "Element",
    "Text",
    "Comment",
    "ProcessingInstruction",
    "Document",
    "escape_text",
    "escape_attribute",
]


def escape_text(value: str) -> str:
    """Escape character data for inclusion in element content."""
    # '&' first, so the '&' of an inserted reference is not escaped again
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape character data for inclusion in a double-quoted attribute."""
    return escape_text(value).replace('"', "&quot;").replace("'", "&apos;")


class Node:
    """Base class of every tree node."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional[Element] = None

    # -- genealogy -----------------------------------------------------
    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """Return the topmost node reachable through ``parent`` links."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def toxml(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class Text(Node):
    """A run of character data."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def toxml(self) -> str:
        return escape_text(self.data)

    def __repr__(self) -> str:
        return f"Text({self.data!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Text) and other.data == self.data

    def __hash__(self) -> int:
        return hash(("Text", self.data))


class Comment(Node):
    """An XML comment; preserved through parse/serialize round trips."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def toxml(self) -> str:
        return f"<!--{self.data}-->"

    def __repr__(self) -> str:
        return f"Comment({self.data!r})"


class ProcessingInstruction(Node):
    """A processing instruction such as ``<?xml-stylesheet ...?>``."""

    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str = "") -> None:
        super().__init__()
        self.target = target
        self.data = data

    def toxml(self) -> str:
        if self.data:
            return f"<?{self.target} {self.data}?>"
        return f"<?{self.target}?>"

    def __repr__(self) -> str:
        return f"ProcessingInstruction({self.target!r}, {self.data!r})"


class Element(Node):
    """An XML element with attributes and ordered children.

    Supports a convenient construction style::

        Element("account", {"id": "u1"},
                Element("name", text="Ada"),
                Element("score", text="720"))
    """

    __slots__ = ("tag", "attributes", "children")

    def __init__(
        self,
        tag: str,
        attributes: Optional[dict[str, str]] = None,
        *children: Node | str,
        text: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[Node] = []
        if text is not None:
            self.append(Text(text))
        for child in children:
            self.append(child)

    # -- structure mutation -------------------------------------------
    def append(self, child: Node | str) -> Node:
        """Append ``child`` (a node, or a string wrapped as :class:`Text`)."""
        node = Text(child) if isinstance(child, str) else child
        node.parent = self
        self.children.append(node)
        return node

    def insert(self, index: int, child: Node | str) -> Node:
        node = Text(child) if isinstance(child, str) else child
        node.parent = self
        self.children.insert(index, node)
        return node

    def remove(self, child: Node) -> None:
        self.children.remove(child)
        child.parent = None

    def clear(self) -> None:
        for child in self.children:
            child.parent = None
        self.children.clear()

    # -- attribute access ----------------------------------------------
    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.attributes.get(name, default)

    def set(self, name: str, value: str) -> None:
        self.attributes[name] = value

    def __getitem__(self, name: str) -> str:
        return self.attributes[name]

    def __setitem__(self, name: str, value: str) -> None:
        self.attributes[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self.attributes

    # -- navigation ------------------------------------------------------
    def elements(self, tag: Optional[str] = None) -> Iterator["Element"]:
        """Yield direct child elements, optionally filtered by tag."""
        for child in self.children:
            if isinstance(child, Element) and (tag is None or child.tag == tag):
                yield child

    def find(self, tag: str) -> Optional["Element"]:
        """Return the first direct child element with the given tag."""
        for element in self.elements(tag):
            return element
        return None

    def findall(self, tag: str) -> list["Element"]:
        return list(self.elements(tag))

    def iter(self, tag: Optional[str] = None) -> Iterator["Element"]:
        """Depth-first traversal of this element and its descendants."""
        if tag is None or self.tag == tag:
            yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter(tag)

    def walk(self) -> Iterator[Node]:
        """Depth-first traversal of *all* node kinds, self included."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.walk()
            else:
                yield child

    @property
    def text(self) -> str:
        """Concatenated character data of all descendant text nodes."""
        parts: list[str] = []
        for node in self.walk():
            if isinstance(node, Text):
                parts.append(node.data)
        return "".join(parts)

    @text.setter
    def text(self, value: str) -> None:
        self.clear()
        self.append(Text(value))

    def normalize(self) -> "Element":
        """W3C-style normalization: merge adjacent text nodes, drop empty
        ones, recursively.  After normalization, serialize→parse is a
        structure-preserving round trip.  Returns self for chaining."""
        merged: list[Node] = []
        for child in self.children:
            if isinstance(child, Text):
                if not child.data:
                    child.parent = None
                    continue
                if merged and isinstance(merged[-1], Text):
                    merged[-1] = Text(merged[-1].data + child.data)
                    merged[-1].parent = self
                    continue
            elif isinstance(child, Element):
                child.normalize()
            merged.append(child)
        self.children = merged
        return self

    def local_name(self) -> str:
        """Tag name with any ``prefix:`` stripped."""
        return self.tag.rsplit(":", 1)[-1]

    def prefix(self) -> Optional[str]:
        if ":" in self.tag:
            return self.tag.split(":", 1)[0]
        return None

    # -- serialization -----------------------------------------------------
    def toxml(self) -> str:
        parts = [f"<{self.tag}"]
        for name, value in self.attributes.items():
            parts.append(f' {name}="{escape_attribute(value)}"')
        if not self.children:
            parts.append("/>")
            return "".join(parts)
        parts.append(">")
        for child in self.children:
            parts.append(child.toxml())
        parts.append(f"</{self.tag}>")
        return "".join(parts)

    def topretty(self, indent: str = "  ", _level: int = 0) -> str:
        """Pretty-print with one element per line (text-only elements inline)."""
        pad = indent * _level
        open_tag = [f"{pad}<{self.tag}"]
        for name, value in self.attributes.items():
            open_tag.append(f' {name}="{escape_attribute(value)}"')
        if not self.children:
            open_tag.append("/>")
            return "".join(open_tag)
        element_children = [c for c in self.children if isinstance(c, Element)]
        has_significant_text = any(
            isinstance(c, Text) and c.data.strip() for c in self.children
        )
        if not element_children or has_significant_text:
            # text-only or mixed content: indentation would alter the text,
            # so serialize the whole element inline
            body = "".join(c.toxml() for c in self.children)
            return "".join(open_tag) + ">" + body + f"</{self.tag}>"
        open_tag.append(">")
        lines = ["".join(open_tag)]
        for child in self.children:
            if isinstance(child, Element):
                lines.append(child.topretty(indent, _level + 1))
            elif isinstance(child, Text) and not child.data.strip():
                continue
            else:
                lines.append(indent * (_level + 1) + child.toxml())
        lines.append(f"{pad}</{self.tag}>")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Element({self.tag!r}, attrs={len(self.attributes)}, children={len(self.children)})"

    # -- structural equality -------------------------------------------
    def equals(self, other: "Element", *, ignore_whitespace: bool = False) -> bool:
        """Deep structural equality (tags, attributes, children in order)."""
        if self.tag != other.tag or self.attributes != other.attributes:
            return False
        mine = _significant_children(self, ignore_whitespace)
        theirs = _significant_children(other, ignore_whitespace)
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            if isinstance(a, Element) and isinstance(b, Element):
                if not a.equals(b, ignore_whitespace=ignore_whitespace):
                    return False
            elif isinstance(a, Text) and isinstance(b, Text):
                if a.data != b.data:
                    return False
            elif type(a) is not type(b):
                return False
            elif isinstance(a, Comment) and isinstance(b, Comment):
                if a.data != b.data:
                    return False
            elif isinstance(a, ProcessingInstruction) and isinstance(b, ProcessingInstruction):
                if (a.target, a.data) != (b.target, b.data):
                    return False
        return True


def _significant_children(element: Element, ignore_whitespace: bool) -> list[Node]:
    if not ignore_whitespace:
        return element.children
    return [
        c
        for c in element.children
        if not (isinstance(c, Text) and not c.data.strip())
    ]


class Document:
    """A parsed document: optional XML declaration, prolog nodes, one root."""

    __slots__ = ("root", "declaration", "prolog")

    def __init__(
        self,
        root: Element,
        declaration: Optional[dict[str, str]] = None,
        prolog: Optional[list[Node]] = None,
    ) -> None:
        self.root = root
        self.declaration = declaration
        self.prolog: list[Node] = list(prolog or [])

    def toxml(self) -> str:
        parts = []
        if self.declaration is not None:
            attrs = " ".join(f'{k}="{v}"' for k, v in self.declaration.items())
            parts.append(f"<?xml {attrs}?>")
        for node in self.prolog:
            parts.append(node.toxml())
        parts.append(self.root.toxml())
        return "".join(parts)

    def topretty(self, indent: str = "  ") -> str:
        lines = []
        if self.declaration is not None:
            attrs = " ".join(f'{k}="{v}"' for k, v in self.declaration.items())
            lines.append(f"<?xml {attrs}?>")
        for node in self.prolog:
            lines.append(node.toxml())
        lines.append(self.root.topretty(indent))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Document(root={self.root.tag!r})"
