"""Unit and property tests for the streaming FD validator."""

import random

import pytest

from repro.errors import FDError
from repro.fd.fd import EqualityType
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.fd.satisfaction import check_fd
from repro.fd.streaming import StreamingFDValidator
from repro.workload.exams import generate_session, paper_document
from repro.workload.random_docs import random_document
from repro.xmlmodel.events import iter_events, parse_events
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize_document

EXPR1 = LinearFD.build(
    context="/session",
    conditions=["candidate/exam/discipline", "candidate/exam/mark"],
    target="candidate/exam/rank",
    name="expr1",
)

EXPR2 = LinearFD.build(
    context="/session/candidate",
    conditions=["exam/date", "exam/discipline"],
    target=("exam", EqualityType.NODE),
    name="expr2",
)


class TestEvents:
    def test_tree_events_round(self):
        document = parse_document('<a k="v"><b>x</b></a>')
        events = list(iter_events(document))
        assert events == [
            ("start", "/"),
            ("start", "a"),
            ("leaf", ("@k", "v")),
            ("start", "b"),
            ("leaf", ("#text", "x")),
            ("end", "b"),
            ("end", "a"),
            ("end", "/"),
        ]

    def test_parse_events_equals_tree_events(self):
        source = '<a k="v">x<b/><c><d>deep</d></c></a>'
        document = parse_document(source)
        assert list(parse_events(source)) == list(iter_events(document))

    def test_parse_events_handles_entities_and_cdata(self):
        # CDATA merges with adjacent character data into one text run,
        # exactly as the DOM parser does
        source = "<a>&lt;x&gt;<![CDATA[<raw>]]></a>"
        events = [e for e in parse_events(source) if e[0] == "leaf"]
        assert events == [("leaf", ("#text", "<x><raw>"))]
        document = parse_document(source)
        assert list(parse_events(source)) == list(iter_events(document))

    def test_parse_events_mismatched_tags(self):
        from repro.errors import XMLParseError

        with pytest.raises(XMLParseError):
            list(parse_events("<a></b>"))


class TestValidator:
    def test_paper_document_satisfied(self):
        report = StreamingFDValidator(EXPR1).validate_document(paper_document())
        assert report.satisfied
        assert report.context_count == 1
        assert report.assignment_count == 4

    def test_violation_detected(self):
        document = generate_session(10, seed=1, violate_fd1=1)
        report = StreamingFDValidator(EXPR1).validate_document(document)
        assert not report.satisfied
        assert report.violation_count >= 1

    def test_from_text_without_tree(self):
        source = serialize_document(generate_session(10, seed=2))
        assert StreamingFDValidator(EXPR1).validate_text(source).satisfied

    def test_validate_text_threads_the_parse_budget(self):
        from repro.errors import DepthLimitError
        from repro.limits import ParseBudget

        validator = StreamingFDValidator(EXPR1)
        source = "<session>" * 20 + "</session>" * 20
        assert validator.validate_text(source).satisfied
        with pytest.raises(DepthLimitError) as excinfo:
            validator.validate_text(source, limits=ParseBudget(max_depth=5))
        assert excinfo.value.position == 5 * len("<session>")

    def test_node_equality_target(self):
        validator = StreamingFDValidator(EXPR2)
        assert validator.validate_document(paper_document()).satisfied
        bad = generate_session(8, seed=3, violate_fd2=1)
        assert not validator.validate_document(bad).satisfied

    def test_context_scoping(self):
        linear = LinearFD.build(
            context="/r/c", conditions=["i/p"], target="i/q"
        )
        document = parse_document(
            "<r><c><i><p>1</p><q>a</q></i></c>"
            "<c><i><p>1</p><q>b</q></i></c></r>"
        )
        report = StreamingFDValidator(linear).validate_document(document)
        assert report.satisfied
        assert report.context_count == 2

    def test_order_sensitivity_matches_patterns(self):
        # the translated pattern requires date before discipline; a
        # document with them swapped yields no mappings in either engine
        linear = LinearFD.build(
            context="/c", conditions=["e/x", "e/y"], target="e/z"
        )
        swapped = parse_document(
            "<c><e><y>1</y><x>2</x><z>3</z></e></c>"
        )
        fd = translate_linear_fd(linear)
        assert check_fd(fd, swapped).mapping_count == 0
        report = StreamingFDValidator(linear).validate_document(swapped)
        assert report.assignment_count == 0

    def test_duplicate_paths_rejected(self):
        with pytest.raises(FDError):
            StreamingFDValidator(
                LinearFD.build(context="/c", conditions=["a", "a"], target="b")
            )


class TestAgreementWithDOM:
    """The central property: streaming == translate+check, everywhere."""

    CASES = [
        LinearFD.build(context="/doc", conditions=["a/b"], target="a/b2"),
        LinearFD.build(context="/doc/a", conditions=["b"], target="b2"),
        LinearFD.build(
            context="/doc", conditions=["a", "b"], target="a/b"
        ),
        LinearFD.build(
            context="/doc",
            conditions=[("a", EqualityType.NODE)],
            target="a/b",
        ),
        LinearFD.build(
            context="/doc", conditions=["a/a"], target=("a", EqualityType.NODE)
        ),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("seed", range(12))
    def test_random_documents(self, case, seed):
        linear = self.CASES[case]
        # label 'b2' must exist in generated docs for assignments to form
        rng = random.Random(seed * 31 + case)
        document = random_document(
            rng,
            labels=("a", "b", "b2"),
            values=("0", "1"),
            max_depth=4,
            max_children=3,
        )
        fd = translate_linear_fd(linear)
        dom = check_fd(fd, document)
        stream = StreamingFDValidator(linear).validate_document(document)
        assert stream.satisfied == dom.satisfied, (case, seed)
        assert stream.assignment_count == dom.mapping_count, (case, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_exam_documents(self, seed):
        document = generate_session(
            12, seed=seed, violate_fd1=seed % 2, violate_fd2=(seed + 1) % 2
        )
        for linear in (EXPR1, EXPR2):
            fd = translate_linear_fd(linear)
            dom = check_fd(fd, document)
            stream = StreamingFDValidator(linear).validate_document(document)
            assert stream.satisfied == dom.satisfied, (linear.name, seed)
            assert stream.assignment_count == dom.mapping_count
