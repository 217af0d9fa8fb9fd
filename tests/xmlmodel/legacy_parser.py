"""Frozen copy of the character-walk XML parser the tokenizer replaced.

A test-only oracle for ``test_tokenizer_differential.py``: the
``_Scanner`` cursor and its two hand-copied walks, the tree parser
(``parse_fragment``/``parse_document``) and the unguarded event
stream (``parse_events``), exactly as they stood before
:func:`repro.xmlmodel.parser.tokenize` took their place.  Do not edit:
the differential suite is only meaningful against the old behaviour.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import ParseError, XMLParseError, source_snippet
from repro.limits import NOOP_PARSE_METER, ParseBudget, start_parse_meter
from repro.xmlmodel.builder import attr, text
from repro.xmlmodel.events import END, LEAF, START, Event
from repro.xmlmodel.tree import ROOT_LABEL, XMLDocument, XMLNode

_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_NAME_START = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_:"
)
_NAME_CHARS = _NAME_START | set("0123456789.-")


class _Scanner:
    """Cursor over the raw XML text with small lookahead helpers."""

    def __init__(self, source: str, meter=NOOP_PARSE_METER) -> None:
        self.source = source
        self.pos = 0
        self.meter = meter

    def at_end(self) -> bool:
        return self.pos >= len(self.source)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def startswith(self, token: str) -> bool:
        return self.source.startswith(token, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise XMLParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while not self.at_end() and self.peek() in " \t\r\n":
            self.advance()

    def read_until(self, token: str) -> str:
        end = self.source.find(token, self.pos)
        if end < 0:
            raise XMLParseError(f"unterminated construct, expected {token!r}", self.pos)
        chunk = self.source[self.pos : end]
        self.pos = end + len(token)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or self.peek() not in _NAME_START:
            raise XMLParseError("expected a name", self.pos)
        while not self.at_end() and self.peek() in _NAME_CHARS:
            self.advance()
        return self.source[start : self.pos]


def _decode_entities(raw: str, offset: int, meter=NOOP_PARSE_METER) -> str:
    """Replace ``&name;`` and ``&#N;`` references in character data."""
    if "&" not in raw:
        return raw
    pieces: list[str] = []
    index = 0
    while index < len(raw):
        char = raw[index]
        if char != "&":
            pieces.append(char)
            index += 1
            continue
        end = raw.find(";", index + 1)
        if end < 0:
            raise XMLParseError("unterminated entity reference", offset + index)
        name = raw[index + 1 : end]
        if name.startswith("#"):
            # numeric character reference: digits may be garbage and the
            # code point out of range — both are parse errors, not
            # ValueError leaks
            try:
                if name.startswith("#x") or name.startswith("#X"):
                    code = int(name[2:], 16)
                else:
                    code = int(name[1:])
                pieces.append(chr(code))
                meter.expand(1, offset + index)
            except (ValueError, OverflowError):
                raise XMLParseError(
                    f"invalid character reference &{name};", offset + index
                ) from None
        elif name in _ENTITIES:
            pieces.append(_ENTITIES[name])
            meter.expand(1, offset + index)
        else:
            raise XMLParseError(f"unknown entity {name!r}", offset + index)
        index = end + 1
    return "".join(pieces)


def _skip_misc(scanner: _Scanner) -> None:
    """Skip whitespace, comments and processing instructions."""
    while True:
        scanner.skip_whitespace()
        if scanner.startswith("<!--"):
            scanner.advance(4)
            scanner.read_until("-->")
        elif scanner.startswith("<?"):
            scanner.advance(2)
            scanner.read_until("?>")
        else:
            return


def _parse_attributes(scanner: _Scanner, element: XMLNode) -> None:
    while True:
        scanner.skip_whitespace()
        if scanner.at_end() or scanner.peek() in ">/":
            return
        name = scanner.read_name()
        scanner.meter.token(scanner.pos)
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in "\"'":
            raise XMLParseError("attribute value must be quoted", scanner.pos)
        scanner.advance()
        start = scanner.pos
        raw = scanner.read_until(quote)
        element.append_child(
            attr(name, _decode_entities(raw, start, scanner.meter))
        )


def _read_open_tag(scanner: _Scanner) -> tuple[XMLNode, bool]:
    """Read ``<name attrs...`` up to ``>`` or ``/>``.

    Returns the element and whether the tag was self-closing.
    """
    scanner.expect("<")
    name = scanner.read_name()
    scanner.meter.token(scanner.pos)
    element = XMLNode(name)
    _parse_attributes(scanner, element)
    scanner.skip_whitespace()
    if scanner.startswith("/>"):
        scanner.advance(2)
        return element, True
    scanner.expect(">")
    return element, False


def _parse_element(scanner: _Scanner, keep_whitespace: bool) -> XMLNode:
    """Parse one element and its whole subtree.

    Iterative (explicit stack of open elements), so arbitrarily deep
    documents parse without hitting the interpreter recursion limit.
    """
    meter = scanner.meter
    meter.enter(scanner.pos)
    root, closed = _read_open_tag(scanner)
    if closed:
        meter.leave()
        return root
    stack: list[XMLNode] = [root]
    buffers: list[list[str]] = [[]]

    def flush() -> None:
        buffer = buffers[-1]
        if not buffer:
            return
        joined = "".join(buffer)
        buffer.clear()
        if joined.strip() or keep_whitespace:
            stack[-1].append_child(text(joined))

    while stack:
        if scanner.at_end():
            raise XMLParseError(
                f"unclosed element <{stack[-1].label}>", scanner.pos
            )
        if scanner.startswith("</"):
            flush()
            scanner.advance(2)
            closing = scanner.read_name()
            if closing != stack[-1].label:
                raise XMLParseError(
                    f"mismatched end tag </{closing}> for <{stack[-1].label}>",
                    scanner.pos,
                )
            scanner.skip_whitespace()
            scanner.expect(">")
            stack.pop()
            buffers.pop()
            meter.leave()
        elif scanner.startswith("<!--"):
            flush()
            scanner.advance(4)
            scanner.read_until("-->")
        elif scanner.startswith("<![CDATA["):
            scanner.advance(9)
            buffers[-1].append(scanner.read_until("]]>"))
        elif scanner.startswith("<?"):
            flush()
            scanner.advance(2)
            scanner.read_until("?>")
        elif scanner.startswith("<"):
            flush()
            meter.enter(scanner.pos)
            child, child_closed = _read_open_tag(scanner)
            stack[-1].append_child(child)
            if child_closed:
                meter.leave()
            else:
                stack.append(child)
                buffers.append([])
        else:
            start = scanner.pos
            while not scanner.at_end() and scanner.peek() != "<":
                scanner.advance()
            meter.token(scanner.pos)
            buffers[-1].append(
                _decode_entities(
                    scanner.source[start : scanner.pos], start, meter
                )
            )
    return root


def parse_fragment(
    source: str,
    keep_whitespace: bool = False,
    limits: ParseBudget | None = None,
) -> XMLNode:
    """Parse a single element (with its subtree) from XML text.

    Malformed input always surfaces as :class:`XMLParseError` (a
    :class:`~repro.errors.ParseError` with position and snippet) —
    never a bare ``ValueError``/``IndexError`` from the scanner's
    internals.  The fuzz suite holds the parser to this contract.

    ``limits`` guards the parse against hostile input: oversized text,
    nesting bombs, token floods and entity-expansion floods raise the
    structured :class:`~repro.errors.ParseLimitError` family instead of
    exhausting memory.  ``limits=None`` (the default) parses exactly as
    before — the element loop is iterative, so even unguarded parses
    never hit ``RecursionError`` on deep documents.
    """
    scanner = _Scanner(source)
    try:
        scanner.meter = start_parse_meter(limits, source)
        _skip_misc(scanner)
        if scanner.startswith("<!DOCTYPE"):
            raise XMLParseError(
                "DOCTYPE declarations are not supported", scanner.pos
            )
        element = _parse_element(scanner, keep_whitespace)
        _skip_misc(scanner)
        if not scanner.at_end():
            raise XMLParseError(
                "trailing content after document element", scanner.pos
            )
    except ParseError as error:
        raise error.with_snippet(source) from None
    except (ValueError, IndexError, OverflowError) as error:
        # belt and braces: any scanner slip on adversarial input is
        # still reported as a parse error at the current offset
        raise XMLParseError(
            f"malformed XML: {error}",
            scanner.pos,
            source_snippet(source, scanner.pos),
        ) from error
    return element


def parse_document(
    source: str,
    keep_whitespace: bool = False,
    limits: ParseBudget | None = None,
) -> XMLDocument:
    """Parse XML text into a document rooted at the reserved ``'/'`` node.

    Whitespace-only text nodes are dropped unless ``keep_whitespace`` is
    set, matching the data-centric reading of the paper's documents.
    ``limits`` guards against hostile input (see :func:`parse_fragment`).
    """
    element = parse_fragment(
        source, keep_whitespace=keep_whitespace, limits=limits
    )
    return XMLDocument.from_document_element(element)


def parse_events(
    source: str, keep_whitespace: bool = False
) -> Iterator[Event]:
    """Stream XML text as events without building a tree.

    Accepts the same dialect as :func:`repro.xmlmodel.parser.parse_document`
    (elements, attributes, text with entities, CDATA, comments, PIs) and
    wraps the document element in the reserved ``'/'`` root events.
    """
    scanner = _Scanner(source)
    _skip_misc(scanner)
    if scanner.startswith("<!DOCTYPE"):
        raise XMLParseError("DOCTYPE declarations are not supported", scanner.pos)
    yield (START, ROOT_LABEL)
    yield from _stream_element(scanner, keep_whitespace)
    _skip_misc(scanner)
    if not scanner.at_end():
        raise XMLParseError("trailing content after document element", scanner.pos)
    yield (END, ROOT_LABEL)


def _stream_tag(scanner: _Scanner) -> tuple[str, bool, list[Event]]:
    """Read one start tag; returns (name, self-closing, attribute events)."""
    scanner.expect("<")
    name = scanner.read_name()
    attribute_events: list[Event] = []
    while True:
        scanner.skip_whitespace()
        if scanner.at_end() or scanner.peek() in ">/":
            break
        attribute = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in "\"'":
            raise XMLParseError("attribute value must be quoted", scanner.pos)
        scanner.advance()
        start = scanner.pos
        raw = scanner.read_until(quote)
        attribute_events.append(
            (LEAF, (f"@{attribute}", _decode_entities(raw, start)))
        )
    scanner.skip_whitespace()
    if scanner.startswith("/>"):
        scanner.advance(2)
        return name, True, attribute_events
    scanner.expect(">")
    return name, False, attribute_events


def _stream_element(scanner: _Scanner, keep_whitespace: bool) -> Iterator[Event]:
    """Stream one element's subtree iteratively (depth-safe)."""
    name, closed, attribute_events = _stream_tag(scanner)
    yield (START, name)
    yield from attribute_events
    if closed:
        yield (END, name)
        return

    stack: list[str] = [name]
    buffer: list[str] = []

    def flush() -> Iterator[Event]:
        if buffer:
            joined = "".join(buffer)
            buffer.clear()
            if joined.strip() or keep_whitespace:
                yield (LEAF, ("#text", joined))

    while stack:
        if scanner.at_end():
            raise XMLParseError(f"unclosed element <{stack[-1]}>", scanner.pos)
        if scanner.startswith("</"):
            yield from flush()
            scanner.advance(2)
            closing = scanner.read_name()
            if closing != stack[-1]:
                raise XMLParseError(
                    f"mismatched end tag </{closing}> for <{stack[-1]}>",
                    scanner.pos,
                )
            scanner.skip_whitespace()
            scanner.expect(">")
            stack.pop()
            yield (END, closing)
        elif scanner.startswith("<!--"):
            yield from flush()
            scanner.advance(4)
            scanner.read_until("-->")
        elif scanner.startswith("<![CDATA["):
            scanner.advance(9)
            buffer.append(scanner.read_until("]]>"))
        elif scanner.startswith("<?"):
            yield from flush()
            scanner.advance(2)
            scanner.read_until("?>")
        elif scanner.startswith("<"):
            yield from flush()
            child, child_closed, child_attributes = _stream_tag(scanner)
            yield (START, child)
            yield from child_attributes
            if child_closed:
                yield (END, child)
            else:
                stack.append(child)
        else:
            start = scanner.pos
            while not scanner.at_end() and scanner.peek() != "<":
                scanner.advance()
            buffer.append(
                _decode_entities(scanner.source[start : scanner.pos], start)
            )
