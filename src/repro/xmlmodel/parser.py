"""One XML tokenizer with two consumers: the tree parser and the event stream.

The dialect covers the XML constructs the paper's documents need:
elements, attributes, character data with the five predefined entities
and numeric character references, CDATA sections, comments and
processing instructions (both skipped), and an optional XML
declaration.  Namespaces are treated as plain label prefixes; DOCTYPE
declarations are rejected.

:func:`tokenize` scans the text with a handful of compiled regular
expressions and yields the document element as ``(kind, payload)``
events:

* ``("start", label)`` — an element opens;
* ``("end", label)`` — an element closes;
* ``("leaf", (label, value))`` — an attribute (label ``@name``) or a
  text node (label ``#text``).

Attributes come right after their element's start event, matching the
paper's modeling of attributes as labeled leaves placed before the
element children (Figure 1).  A text node is one maximal stretch of
character data and CDATA; a comment or PI inside text splits it in two.
Whitespace-only text is dropped unless ``keep_whitespace`` is set.

Two consumers read the same events: :func:`parse_fragment` /
:func:`parse_document` build the tree, and
:func:`repro.xmlmodel.events.parse_events` streams them (wrapped in the
reserved ``'/'`` root pair) to the streaming FD validator.  Both
therefore accept exactly the same texts, raise the same errors, and
run under the same :class:`~repro.limits.ParseBudget` guards.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.errors import ParseError, XMLParseError, source_snippet
from repro.limits import NOOP_PARSE_METER, ParseBudget, start_parse_meter
from repro.xmlmodel.tree import TEXT_LABEL, XMLDocument, XMLNode

Event = tuple[str, object]

START = "start"
END = "end"
LEAF = "leaf"

_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_WS = "[ \t\r\n]*"
_NAME = "[A-Za-z_:][A-Za-z0-9_:.-]*"

_WHITESPACE = re.compile(_WS)
_NAME_AT = re.compile(_NAME)

#: whitespace, comments and PIs around the document element
_MISC = re.compile(r"(?:[ \t\r\n]+|<!--.*?-->|<\?.*?\?>)*", re.S)

#: one token of element content; ``bad`` is a ``<`` that opens nothing
#: well-formed (diagnosed by :func:`_markup_error`)
_CONTENT = re.compile(
    rf"(?P<text>[^<]+)"
    rf"|<(?P<start>{_NAME})"
    rf"|</(?P<end>{_NAME}){_WS}>"
    r"|<!\[CDATA\[(?P<cdata>.*?)\]\]>"
    r"|(?P<skip><!--.*?-->|<\?.*?\?>)"
    r"|(?P<bad><)",
    re.S,
)

#: what follows a start tag's name or attribute: one more attribute, or
#: the end of the tag (``close`` is ``/`` when self-closing)
_IN_TAG = re.compile(
    rf"{_WS}(?:(?P<name>{_NAME}){_WS}={_WS}"
    r"""(?:"(?P<dq>[^"]*)"|'(?P<sq>[^']*)')|(?P<close>/?)>)"""
)


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


def _skip_misc(source: str, pos: int) -> int:
    """Offset past the whitespace, comments and PIs at ``pos``."""
    pos = _MISC.match(source, pos).end()
    if source.startswith("<!--", pos):
        raise XMLParseError("unterminated construct, expected '-->'", pos + 4)
    if source.startswith("<?", pos):
        raise XMLParseError("unterminated construct, expected '?>'", pos + 2)
    return pos


def _tag_error(source: str, pos: int, meter) -> XMLParseError:
    """Diagnose a start tag whose attributes stop matching at ``pos``.

    An attribute name read here is still a token, so a token flood
    ending in a malformed tag trips the budget at the same offset.
    """
    pos = _WHITESPACE.match(source, pos).end()
    if pos >= len(source) or source[pos] in ">/":
        return XMLParseError("expected '>'", pos)
    name = _NAME_AT.match(source, pos)
    if name is None:
        return XMLParseError("expected a name", pos)
    meter.token(name.end())
    pos = _WHITESPACE.match(source, name.end()).end()
    if not source.startswith("=", pos):
        return XMLParseError("expected '='", pos)
    pos = _WHITESPACE.match(source, pos + 1).end()
    quote = source[pos : pos + 1]
    if quote not in ('"', "'"):
        return XMLParseError("attribute value must be quoted", pos)
    return XMLParseError(f"unterminated construct, expected {quote!r}", pos + 1)


def _markup_error(source: str, pos: int, open_label: str, meter) -> XMLParseError:
    """Diagnose a ``<`` in element content that opens nothing well-formed."""
    for opener, closer in (("<!--", "-->"), ("<![CDATA[", "]]>"), ("<?", "?>")):
        if source.startswith(opener, pos):
            return XMLParseError(
                f"unterminated construct, expected {closer!r}", pos + len(opener)
            )
    if not source.startswith("</", pos):
        # the start of an element: its nesting level counts first
        meter.enter(pos)
        return XMLParseError("expected a name", pos + 1)
    name = _NAME_AT.match(source, pos + 2)
    if name is None:
        return XMLParseError("expected a name", pos + 2)
    if name.group() != open_label:
        return XMLParseError(
            f"mismatched end tag </{name.group()}> for <{open_label}>", name.end()
        )
    return XMLParseError("expected '>'", _WHITESPACE.match(source, name.end()).end())


def tokenize(
    source: str,
    keep_whitespace: bool = False,
    limits: ParseBudget | None = None,
) -> Iterator[Event]:
    """Yield the events of the document element of ``source``.

    Malformed input always surfaces as :class:`XMLParseError` (a
    :class:`~repro.errors.ParseError` with position and snippet) —
    never a bare ``ValueError``/``IndexError`` from the scan.

    ``limits`` guards the scan against hostile input: oversized text,
    nesting bombs, token floods and entity-expansion floods raise the
    structured :class:`~repro.errors.ParseLimitError` family.  Budget
    checks run at token granularity: one token per start-tag name, per
    attribute name and per text run (at the offset where it ends), one
    nesting level at each ``<`` that opens an element, and one
    expansion per entity reference.  ``limits=None`` (the default)
    skips every check; the scan is iterative, so even unguarded input
    never hits ``RecursionError`` on deep documents.
    """
    pos = 0
    try:
        meter = start_parse_meter(limits, source)
        pos = _skip_misc(source, 0)
        if source.startswith("<!DOCTYPE", pos):
            raise XMLParseError("DOCTYPE declarations are not supported", pos)
        match = _CONTENT.match(source, pos)
        if match is None or match.lastgroup != "start":
            meter.enter(pos)
            if source.startswith("<", pos):
                raise XMLParseError("expected a name", pos + 1)
            raise XMLParseError("expected '<'", pos)
        stack: list[str] = []
        buffer: list[str] = []
        while True:
            kind = match.lastgroup
            if kind == "text":
                pos = match.end()
                meter.token(pos)
                buffer.append(_decode_entities(match.group(), match.start(), meter))
            elif kind == "cdata":
                buffer.append(match.group(kind))
                pos = match.end()
            else:
                if buffer:
                    # any other token ends the text node
                    joined = "".join(buffer)
                    buffer.clear()
                    if keep_whitespace or joined.strip():
                        yield (LEAF, (TEXT_LABEL, joined))
                if kind == "start":
                    meter.enter(pos)
                    label = match.group(kind)
                    pos = match.end()
                    meter.token(pos)
                    yield (START, label)
                    while True:
                        match = _IN_TAG.match(source, pos)
                        if match is None:
                            raise _tag_error(source, pos, meter)
                        kind = match.lastgroup
                        if kind == "close":
                            break
                        meter.token(match.end("name"))
                        value = _decode_entities(
                            match.group(kind), match.start(kind), meter
                        )
                        yield (LEAF, ("@" + match.group("name"), value))
                        pos = match.end()
                    pos = match.end()
                    if match.group(kind):
                        meter.leave()
                        yield (END, label)
                    else:
                        stack.append(label)
                elif kind == "end":
                    label = match.group(kind)
                    if label != stack[-1]:
                        raise XMLParseError(
                            f"mismatched end tag </{label}> for <{stack[-1]}>",
                            match.end(kind),
                        )
                    stack.pop()
                    meter.leave()
                    pos = match.end()
                    yield (END, label)
                elif kind == "skip":
                    pos = match.end()
                else:
                    raise _markup_error(source, pos, stack[-1], meter)
            if not stack:
                break
            match = _CONTENT.match(source, pos)
            if match is None:
                raise XMLParseError(f"unclosed element <{stack[-1]}>", pos)
        pos = _skip_misc(source, pos)
        if pos < len(source):
            raise XMLParseError("trailing content after document element", pos)
    except ParseError as error:
        raise error.with_snippet(source) from None
    except (ValueError, IndexError, OverflowError) as error:
        # belt and braces: any slip on adversarial input is still
        # reported as a parse error at the current offset
        raise XMLParseError(
            f"malformed XML: {error}", pos, source_snippet(source, pos)
        ) from error


def parse_fragment(
    source: str,
    keep_whitespace: bool = False,
    limits: ParseBudget | None = None,
) -> XMLNode:
    """Parse a single element (with its subtree) from XML text.

    Builds the tree from :func:`tokenize`'s events, so errors and
    ``limits`` behave exactly as documented there.
    """
    stack: list[XMLNode] = []
    for kind, payload in tokenize(source, keep_whitespace, limits):
        if kind == END:
            element = stack.pop()
            continue
        node = XMLNode(payload) if kind == START else XMLNode(*payload)
        if stack:
            # events nest every node in an open element: link it
            # directly, without append_child's re-validation
            node.parent = stack[-1]
            stack[-1].children.append(node)
        if kind == START:
            stack.append(node)
    return element


def parse_document(
    source: str,
    keep_whitespace: bool = False,
    limits: ParseBudget | None = None,
) -> XMLDocument:
    """Parse XML text into a document rooted at the reserved ``'/'`` node.

    Whitespace-only text nodes are dropped unless ``keep_whitespace`` is
    set, matching the data-centric reading of the paper's documents.
    ``limits`` guards against hostile input (see :func:`tokenize`).
    """
    element = parse_fragment(
        source, keep_whitespace=keep_whitespace, limits=limits
    )
    return XMLDocument.from_document_element(element)
