"""Event streams over XML: the SAX-style view of documents.

Three event kinds, as ``(kind, payload)`` tuples:

* ``("start", label)`` — an element opens;
* ``("end", label)`` — an element closes;
* ``("leaf", (label, value))`` — an attribute or text node.

Streams come from two sources with one shape.  :func:`iter_events`
walks an in-memory tree; :func:`parse_events` reads XML text through
the tokenizer the tree parser itself consumes
(:func:`repro.xmlmodel.parser.tokenize`) and never materializes the
tree — the substrate for the streaming FD validator of
:mod:`repro.fd.streaming`.  The reserved document root ``'/'`` is
included as the outermost start/end pair, so
``list(parse_events(text)) == list(iter_events(parse_document(text)))``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.limits import ParseBudget
from repro.xmlmodel.parser import END, LEAF, START, Event, tokenize
from repro.xmlmodel.tree import NodeType, ROOT_LABEL, XMLDocument, XMLNode

def iter_events(document: XMLDocument | XMLNode) -> Iterator[Event]:
    """Stream a tree as events (depth-first, document order).

    Iterative, so arbitrarily deep trees stream without recursion.
    """
    root = document.root if isinstance(document, XMLDocument) else document
    # stack entries: (node, next-child-index); leaves never enter it
    if root.node_type is not NodeType.ELEMENT:
        yield (LEAF, (root.label, root.value or ""))
        return
    yield (START, root.label)
    stack: list[tuple[XMLNode, int]] = [(root, 0)]
    while stack:
        node, index = stack[-1]
        if index >= len(node.children):
            stack.pop()
            yield (END, node.label)
            continue
        stack[-1] = (node, index + 1)
        child = node.children[index]
        if child.node_type is not NodeType.ELEMENT:
            yield (LEAF, (child.label, child.value or ""))
        else:
            yield (START, child.label)
            stack.append((child, 0))


def parse_events(
    source: str,
    keep_whitespace: bool = False,
    limits: ParseBudget | None = None,
) -> Iterator[Event]:
    """Stream XML text as events without building a tree.

    The events of :func:`repro.xmlmodel.parser.tokenize` wrapped in the
    reserved ``'/'`` root pair: the same dialect, errors and ``limits``
    guards as :func:`repro.xmlmodel.parser.parse_document`.
    """
    yield (START, ROOT_LABEL)
    yield from tokenize(source, keep_whitespace, limits)
    yield (END, ROOT_LABEL)
