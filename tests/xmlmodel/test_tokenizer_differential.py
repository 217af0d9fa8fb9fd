"""Differential suite: the regex tokenizer against the walk it replaced.

Two oracles:

* ``tests/xmlmodel/legacy_parser.py`` — a frozen copy of the old
  character-at-a-time parser (both its tree walk and its event walk);
* stdlib ``pyexpat`` — a third opinion on well-formed input.

Against the old parser, every input must agree on accept or reject and
on the exception class; every :class:`~repro.errors.ParseLimitError`
on its dimension, limit and position.  Every
:class:`~repro.errors.XMLParseError` must carry a position, a snippet
and a message from the parser's vocabulary, at the old offset unless a
rule of :data:`OFFSET_RULES` names the difference.  Accepted inputs
must give equal trees, and ``parse_events`` must stream exactly the
events of the parsed tree.
"""

from __future__ import annotations

import random
import re
from xml.parsers import expat

import pytest

from repro.errors import ParseError, ParseLimitError, XMLParseError
from repro.limits import ParseBudget
from repro.workload.exams import generate_session, paper_document
from repro.workload.library import generate_library
from repro.workload.packages import generate_package, write_poison_corpus
from repro.workload.random_docs import random_document
from repro.xmlmodel.events import END, LEAF, START, iter_events
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize_document
from tests.test_fuzz_parsers import (
    ADVERSARIAL_DOCUMENTS,
    GUARDS,
    VALID_DOCUMENTS,
    _mutate,
    stream_events,
)
from tests.xmlmodel import legacy_parser as legacy

#: budgets that trip on small inputs, so limit positions get compared
TIGHT_BUDGETS = [
    ParseBudget(max_depth=2),
    ParseBudget(max_tokens=5),
    ParseBudget(max_entity_expansion=0.01),
    ParseBudget(max_input_bytes=40),
    ParseBudget(max_depth=3, max_tokens=40, max_entity_expansion=0.05),
]

BUDGETS = [None, GUARDS, ParseBudget.default()] + TIGHT_BUDGETS

#: every message an XMLParseError may carry
MESSAGES = re.compile(
    "|".join(
        [
            r"expected '<'",
            r"expected '>'",
            r"expected '='",
            r"expected a name",
            r"attribute value must be quoted",
            r"unterminated construct, expected ('-->'|'\?>'|']\]>'|'\"'|\"'\")",
            r"unterminated entity reference",
            r"invalid character reference &.*;",
            r"unknown entity .*",
            r"unclosed element <.*>",
            r"mismatched end tag </.*> for <.*>",
            r"DOCTYPE declarations are not supported",
            r"trailing content after document element",
        ]
    ),
    re.S,
)


def _attribute_cut_off_at_end(source, old, new):
    """``<a b=`` then end of input: the old walk read the missing quote
    as an empty one and reported ``unterminated construct, expected ''``
    one past the end; the tokenizer reports the unquoted value at the
    end of the input."""
    return (
        new.message == "attribute value must be quoted"
        and new.position == len(source)
        and old.message == "unterminated construct, expected ''"
        and old.position == len(source) + 1
    )


#: the only syntax errors whose offset (and message) differ from the
#: old walk, by name
OFFSET_RULES = {"attribute value cut off at end of input": _attribute_cut_off_at_end}


def _outcome(parse, source, **options):
    try:
        return parse(source, **options), None
    except ParseError as error:
        return None, error


def _events(document):
    return None if document is None else list(iter_events(document))


def _drained(source, **options):
    return list(legacy.parse_events(source, **options))


def _assert_same_error(source, old, new):
    assert type(new) is type(old), (source, old, new)
    assert new.position is not None and new.snippet is not None, new
    if isinstance(old, ParseLimitError):
        assert (new.dimension, new.limit, new.position) == (
            old.dimension,
            old.limit,
            old.position,
        ), (source, old, new)
        return
    assert isinstance(new, XMLParseError), new
    assert MESSAGES.fullmatch(new.message), new.message
    if (new.position, new.message) != (old.position, old.message):
        rules = [
            name
            for name, applies in OFFSET_RULES.items()
            if applies(source, old, new)
        ]
        assert rules, f"unexplained difference on {source!r}: {old} / {new}"


def assert_parity(source, keep_whitespace=False, limits=None):
    """Old and new parsers agree on ``source`` (see module doc)."""
    old_tree, old_error = _outcome(
        legacy.parse_document,
        source,
        keep_whitespace=keep_whitespace,
        limits=limits,
    )
    new_tree, new_error = _outcome(
        parse_document, source, keep_whitespace=keep_whitespace, limits=limits
    )
    assert (old_error is None) == (new_error is None), (source, old_error, new_error)
    stream, stream_error = _outcome(
        stream_events, source, keep_whitespace=keep_whitespace, limits=limits
    )
    if new_error is not None:
        _assert_same_error(source, old_error, new_error)
        # one tokenizer: the stream fails exactly like the tree parser
        assert type(stream_error) is type(new_error)
        assert str(stream_error) == str(new_error)
    else:
        assert _events(new_tree) == _events(old_tree), source
        assert stream == _events(new_tree), source
    if limits is None:
        # the old event walk was unguarded: compare it only bare
        old_stream, old_stream_error = _outcome(
            _drained, source, keep_whitespace=keep_whitespace
        )
        assert type(old_stream_error) is type(stream_error), source
        assert old_stream == stream, source
    return new_tree


def _expat_events(source, keep_whitespace=False):
    """``source`` as events read by pyexpat, in this repo's vocabulary."""
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    events = [(START, "/")]
    buffer: list[str] = []

    def flush(*_):
        if buffer:
            joined = "".join(buffer)
            buffer.clear()
            if keep_whitespace or joined.strip():
                events.append((LEAF, ("#text", joined)))

    def start(name, attributes):
        flush()
        events.append((START, name))
        for index in range(0, len(attributes), 2):
            events.append((LEAF, ("@" + attributes[index], attributes[index + 1])))

    def end(name):
        flush()
        events.append((END, name))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = buffer.append
    parser.CommentHandler = flush
    parser.ProcessingInstructionHandler = flush
    parser.Parse(source, True)
    events.append((END, "/"))
    return events


def _expat_comparable(source, document):
    """pyexpat normalizes line ends, and tabs/newlines in attribute
    values; compare only where neither can occur."""
    if "\r" in source:
        return False
    return not any(
        node.label.startswith("@") and re.search("[\t\n]", node.value)
        for node in document.nodes()
    )


def assert_expat_agrees(source, keep_whitespace=False):
    document = parse_document(source, keep_whitespace=keep_whitespace)
    assert _expat_comparable(source, document)
    assert _expat_events(source, keep_whitespace) == _events(document)


# ----------------------------------------------------------------------
# the parity traps
# ----------------------------------------------------------------------


class TestParityTraps:
    def test_comment_splits_text(self):
        document = assert_parity("<a>x<!--c-->y</a>")
        assert [c.value for c in document.document_element.children] == ["x", "y"]

    def test_pi_splits_text(self):
        document = assert_parity("<a>x<?p data?>y</a>")
        assert [c.value for c in document.document_element.children] == ["x", "y"]

    def test_cdata_joins_text(self):
        document = assert_parity("<a>x<![CDATA[<z>]]>y</a>")
        assert [c.value for c in document.document_element.children] == ["x<z>y"]

    def test_cdata_is_not_entity_decoded(self):
        document = assert_parity("<a>&amp;<![CDATA[&amp;]]>&lt;</a>")
        assert document.document_element.text_value() == "&&amp;<"

    @pytest.mark.parametrize(
        "source",
        [
            "<a\x0bb='1'/>",
            "<a\x0c/>",
            "<a b\x0b='1'/>",
            "<a></a\x0b>",
            "\x0c<a/>",
            "<a/>\x0b",
            "<a\xa0/>",
            "<a> </a>",
            "<a>\xa0</a>",
        ],
    )
    @pytest.mark.parametrize("keep_whitespace", [False, True])
    def test_whitespace_is_the_four_xml_characters(self, source, keep_whitespace):
        assert_parity(source, keep_whitespace=keep_whitespace)

    @pytest.mark.parametrize(
        "source",
        [
            "<a \t\r\nb \t\r\n= \t\r\n'1' \t\r\n/ >",
            "<a \t\r\nb \t\r\n= \t\r\n'1' \t\r\n/>",
            "<a></a \t\r\n>",
            " \t\r\n<a/> \t\r\n",
        ],
    )
    def test_xml_whitespace_inside_tags(self, source):
        assert_parity(source)

    @pytest.mark.parametrize(
        "source",
        [
            "<a x='1'y='2'/>",
            "<a x='1' x='2'/>",
            "<a x='<&lt;>'/>",
            "<a x=\"it's\" y='say \"hi\"'/>",
            "<a:b c:d='1'><_e.f-g/></a:b>",
            "<?xml version='1.0'?><!--c--><?p?><a/><!--d--><?q?>",
            "<a><!----></a>",
            "<a><![CDATA[]]></a>",
            "<a>&#65;&#x42;&#X43;&#x1F600;</a>",
            "<a>&#5_0;&# 66;</a>",
        ],
    )
    def test_old_dialect_quirks_survive(self, source):
        assert_parity(source)

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "   ",
            "text",
            "<",
            "<a",
            "<a ",
            "<a b",
            "<a b=",
            "<a b = ",
            "<a b='",
            '<a b="x',
            "<a b=x>",
            "<a/",
            "<a/ >",
            "<a>",
            "<a></",
            "<a></a",
            "<a></a x>",
            "<a></b>",
            "<a><b></a>",
            "<a></ a>",
            "<a><!--",
            "<a><!-- -->",
            "<a><![CDATA[",
            "<a><?pi",
            "<a>< b/></a>",
            "<a><!x/></a>",
            "<a><!DOCTYPE a></a>",
            "<!DOCTYPE a><a/>",
            "<!--",
            "<?pi",
            "<a/><!--",
            "<a/><?pi",
            "<a/>x",
            "<a/><b/>",
            "</a>",
            "<![CDATA[x]]><a/>",
            "<a>&</a>",
            "<a>&amp</a>",
            "<a>&bogus;</a>",
            "<a>&#;</a>",
            "<a>&#xZZ;</a>",
            "<a>&#999999999;</a>",
            "<a>&#-1;</a>",
            "<a b='&bogus;'/>",
            "<a b='&#xZZ;' c",
            "<ab='1'/>",
        ],
    )
    def test_syntax_errors(self, source):
        for limits in BUDGETS:
            assert_parity(source, limits=limits)

    def test_offset_rule_example(self):
        """The one documented difference, pinned on its smallest input."""
        source = "<a b="
        old = _outcome(legacy.parse_document, source)[1]
        new = _outcome(parse_document, source)[1]
        assert _attribute_cut_off_at_end(source, old, new)


# ----------------------------------------------------------------------
# the fuzz corpora
# ----------------------------------------------------------------------

MUTATIONS_PER_SEED = 150

FUZZ_SEEDS = VALID_DOCUMENTS + [
    "<a>x<!--c-->y<?p?>z<![CDATA[<w>]]>v</a>",
    "<?xml version='1.0'?>\n<!-- h -->\n<r a='1'\tb=\"2\"\n><s/>\n</r>\n",
]


@pytest.mark.parametrize("seed", range(4))
def test_valid_documents_and_their_mutations(seed):
    rng = random.Random(seed)
    for source in VALID_DOCUMENTS:
        assert_expat_agrees(source)
    for _ in range(MUTATIONS_PER_SEED):
        source = rng.choice(FUZZ_SEEDS)
        for _ in range(rng.randrange(1, 5)):
            source = _mutate(rng, source)
        keep_whitespace = rng.random() < 0.3
        for limits in BUDGETS:
            assert_parity(source, keep_whitespace=keep_whitespace, limits=limits)
        try:
            expected = _expat_events(source, keep_whitespace)
        except expat.ExpatError:
            continue
        document = _outcome(
            parse_document, source, keep_whitespace=keep_whitespace
        )[0]
        if document is not None and _expat_comparable(source, document):
            assert expected == _events(document), source


@pytest.mark.parametrize("index", range(len(ADVERSARIAL_DOCUMENTS)))
def test_adversarial_documents(index):
    source = ADVERSARIAL_DOCUMENTS[index]
    assert_parity(source, limits=GUARDS)
    assert_parity(source, limits=ParseBudget(max_tokens=1000, max_depth=50))


# ----------------------------------------------------------------------
# every workload generator
# ----------------------------------------------------------------------


def _library_texts():
    for seed in range(3):
        document = generate_library(12, seed=seed, violate_key=1, violate_title=1)
        yield serialize_document(document)
        yield serialize_document(document, indent=1)


def _package_texts():
    for seed in range(3):
        document = generate_package(
            10, seed=seed, violate_uri_key=1, violate_extension_default=1
        )
        yield serialize_document(document)
        yield serialize_document(document, indent=2)


def _exam_texts():
    yield serialize_document(paper_document(), indent=1)
    for seed in range(3):
        yield serialize_document(
            generate_session(6, seed=seed, violate_fd1=1, violate_fd2=1)
        )


def _random_texts():
    for seed in range(40):
        document = random_document(seed, values=("0", "1", " ", "a&b<c"))
        yield serialize_document(document)
        yield serialize_document(document, indent=1)


WORKLOADS = {
    "library": _library_texts,
    "packages": _package_texts,
    "exams": _exam_texts,
    "random": _random_texts,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_documents(workload):
    for source in WORKLOADS[workload]():
        for keep_whitespace in (False, True):
            for limits in BUDGETS:
                assert_parity(source, keep_whitespace=keep_whitespace, limits=limits)
            assert_expat_agrees(source, keep_whitespace)


def test_poison_corpus(tmp_path):
    written = write_poison_corpus(
        tmp_path, oversized_bytes=4096, bomb_depth=600, entity_references=600
    )
    for kind, path in sorted(written.items()):
        source = open(path, "rb").read().decode("utf-8", errors="surrogateescape")
        for limits in BUDGETS:
            assert_parity(source, limits=limits)
