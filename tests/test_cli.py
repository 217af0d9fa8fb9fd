"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.workload.exams import paper_document
from repro.xmlmodel.serializer import serialize_document

SCHEMA_TEXT = """
!document orders
orders   := order*
order    := @id customer line* status
customer := name address
name     := #text
address  := #text
line     := product qty price
product  := #text
qty      := #text
price    := #text
status   := #text
"""

STORE_XML = """
<orders>
  <order id="1">
    <customer><name>Ada</name><address>B1</address></customer>
    <line><product>widget</product><qty>2</qty><price>10</price></line>
    <status>open</status>
  </order>
  <order id="1">
    <customer><name>Eve</name><address>B2</address></customer>
    <status>open</status>
  </order>
</orders>
"""

FD = "(/orders, ((order/@id) -> order/customer/name))"


@pytest.fixture
def store(tmp_path):
    document = tmp_path / "store.xml"
    document.write_text(STORE_XML)
    schema = tmp_path / "store.schema"
    schema.write_text(SCHEMA_TEXT)
    return document, schema


class TestValidate:
    def test_valid(self, store, capsys):
        document, schema = store
        code = main(["validate", str(document), "--schema", str(schema)])
        assert code == 0
        assert "VALID" in capsys.readouterr().out

    def test_invalid(self, store, tmp_path, capsys):
        _, schema = store
        bad = tmp_path / "bad.xml"
        bad.write_text("<orders><unknown/></orders>")
        code = main(["validate", str(bad), "--schema", str(schema)])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_missing_file(self, store, capsys):
        _, schema = store
        code = main(["validate", "/no/such/file.xml", "--schema", str(schema)])
        assert code == 66


class TestCheckFD:
    def test_violated(self, store, capsys):
        document, _ = store
        code = main(["check-fd", str(document), "--fd", FD])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_satisfied(self, store, tmp_path, capsys):
        good = tmp_path / "good.xml"
        good.write_text(STORE_XML.replace("Eve", "Ada"))
        code = main(["check-fd", str(good), "--fd", FD])
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_bad_fd_syntax(self, store, capsys):
        document, _ = store
        code = main(["check-fd", str(document), "--fd", "not an fd"])
        assert code == 64
        assert "error:" in capsys.readouterr().err

    def test_cache_stats_flag(self, store, capsys):
        document, _ = store
        code = main(
            ["check-fd", str(document), "--fd", FD, "--cache-stats"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "# cache[compile]:" in captured.err
        assert "hits=" in captured.err
        assert "misses=" in captured.err

    def test_no_cache_stats_by_default(self, store, capsys):
        document, _ = store
        main(["check-fd", str(document), "--fd", FD])
        assert "cache[" not in capsys.readouterr().err


class TestIndependence:
    def test_independent_with_schema(self, store, capsys):
        _, schema = store
        code = main(
            [
                "independence",
                "--fd",
                FD,
                "--update-xpath",
                "/orders/order/status",
                "--schema",
                str(schema),
            ]
        )
        assert code == 0
        assert "INDEPENDENT" in capsys.readouterr().out

    def test_unknown_with_witness(self, store, capsys):
        code = main(
            [
                "independence",
                "--fd",
                FD,
                "--update-xpath",
                "/orders/order/customer/name",
                "--show-witness",
            ]
        )
        assert code == 2
        output = capsys.readouterr().out
        assert "POSSIBLY-DEPENDENT" in output
        assert "dangerous document:" in output
        assert "<orders" in output


class TestBudgetedIndependence:
    def test_exhausted_budget_exits_3(self, capsys):
        code = main(
            [
                "independence",
                "--fd",
                FD,
                "--update-xpath",
                "/orders/order/status",
                "--max-explored",
                "2",
            ]
        )
        assert code == 3
        output = capsys.readouterr().out
        assert "UNKNOWN" in output
        assert "budget exhausted" in output
        assert "revalidation" in output

    def test_generous_budget_exits_0(self, capsys):
        code = main(
            [
                "independence",
                "--fd",
                FD,
                "--update-xpath",
                "/orders/order/status",
                "--budget-ms",
                "60000",
                "--max-explored",
                "1000000",
            ]
        )
        assert code == 0
        assert "INDEPENDENT" in capsys.readouterr().out

    def test_matrix_unknown_wins_over_possibly_dependent(self, capsys):
        # one cell would be POSSIBLY_DEPENDENT unbudgeted; with a tiny
        # cap every cell is UNKNOWN and the batch exit code says so
        code = main(
            [
                "independence",
                "--fd",
                FD,
                "--update-xpath",
                "/orders/order/status",
                "--update-xpath",
                "/orders/order/customer/name",
                "--max-explored",
                "2",
            ]
        )
        assert code == 3
        output = capsys.readouterr().out
        assert "UNKNOWN" in output
        assert "revalidation required" in output

    def test_matrix_without_budget_keeps_boolean_codes(self, capsys):
        code = main(
            [
                "independence",
                "--fd",
                FD,
                "--update-xpath",
                "/orders/order/status",
                "--update-xpath",
                "/orders/order/customer/name",
            ]
        )
        assert code == 2
        assert "POSSIBLY_DEPENDENT" in capsys.readouterr().out

    def test_negative_budget_rejected_cleanly(self, capsys):
        code = main(
            [
                "independence",
                "--fd",
                FD,
                "--update-xpath",
                "/orders/order/status",
                "--budget-ms",
                "-5",
            ]
        )
        assert code == 64
        assert "must be >= 0" in capsys.readouterr().err


class TestCheckpointFlags:
    ARGS = [
        "independence",
        "--fd",
        FD,
        "--update-xpath",
        "/orders/order/status",
        "--update-xpath",
        "/orders/order/customer/name",
    ]

    def test_checkpointed_matrix_run(self, tmp_path, capsys):
        run_dir = tmp_path / "ckpt"
        code = main(self.ARGS + ["--checkpoint-dir", str(run_dir)])
        assert code == 2  # one cell possibly-dependent, as without the dir
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "complete.json").is_file()

    def test_resume_over_complete_run(self, tmp_path, capsys):
        run_dir = tmp_path / "ckpt"
        main(self.ARGS + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        code = main(
            self.ARGS + ["--checkpoint-dir", str(run_dir), "--resume"]
        )
        assert code == 2
        assert "POSSIBLY_DEPENDENT" in capsys.readouterr().out

    def test_baseline_splices_unchanged_cells(self, tmp_path, capsys):
        run_dir = tmp_path / "ckpt"
        main(self.ARGS + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        code = main(self.ARGS + ["--baseline", str(run_dir)])
        assert code == 2  # splicing changes the cost, not the verdicts
        out = capsys.readouterr().out
        assert "2 cell(s) spliced from baseline, 0 recomputed" in out

    def test_baseline_with_drifted_inputs_recomputes_the_new_cell(
        self, tmp_path, capsys
    ):
        run_dir = tmp_path / "ckpt"
        main(self.ARGS + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        code = main(
            self.ARGS
            + ["--update-xpath", "/orders/order/line/qty"]
            + ["--baseline", str(run_dir)]
        )
        assert code == 2
        assert "2 cell(s) spliced from baseline, 1 recomputed" in (
            capsys.readouterr().out
        )

    def test_resume_with_changed_inputs_refused(self, tmp_path, capsys):
        run_dir = tmp_path / "ckpt"
        main(self.ARGS + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        code = main(
            self.ARGS
            + [
                "--checkpoint-dir",
                str(run_dir),
                "--resume",
                "--max-explored",
                "7",
            ]
        )
        assert code == 64
        assert "refusing to splice" in capsys.readouterr().err


class TestCheckpointsSubcommand:
    def _complete_run(self, tmp_path):
        run_dir = tmp_path / "ckpt" / "orders"
        main(
            [
                "independence",
                "--fd",
                FD,
                "--update-xpath",
                "/orders/order/status",
                "--checkpoint-dir",
                str(run_dir),
            ]
        )
        return run_dir

    def test_list(self, tmp_path, capsys):
        run_dir = self._complete_run(tmp_path)
        capsys.readouterr()
        code = main(["checkpoints", "list", str(tmp_path / "ckpt")])
        assert code == 0
        out = capsys.readouterr().out
        assert str(run_dir) in out
        assert "complete" in out

    def test_list_empty(self, tmp_path, capsys):
        code = main(["checkpoints", "list", str(tmp_path)])
        assert code == 0
        assert "no checkpoint run directories" in capsys.readouterr().out

    def test_inspect(self, tmp_path, capsys):
        run_dir = self._complete_run(tmp_path)
        capsys.readouterr()
        code = main(["checkpoints", "inspect", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "independence-matrix" in out
        assert "1x1" in out

    def test_inspect_non_run_dir(self, tmp_path, capsys):
        code = main(["checkpoints", "inspect", str(tmp_path)])
        assert code != 0
        assert "not a checkpoint run directory" in capsys.readouterr().err

    def test_inspect_journal_only_run_dir(self, tmp_path, capsys):
        """Interrupted run: no snapshot yet, cells only in the journal."""
        import json

        from repro.persistence.journal import encode_record

        run_dir = self._complete_run(tmp_path)
        # completion compacted the journal into the snapshot; turn the
        # dir back into its pre-compaction (crashed mid-run) state
        cells = json.loads((run_dir / "snapshot.json").read_text())["cells"]
        with open(run_dir / "journal.wal", "wb") as journal:
            for record in cells:
                journal.write(encode_record(record))
        (run_dir / "snapshot.json").unlink()
        (run_dir / "complete.json").unlink()
        capsys.readouterr()
        code = main(["checkpoints", "inspect", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "in-progress" in out
        assert "1 cell record(s)" in out
        assert "1 decided" in out

    def test_clean_defaults_to_dry_run(self, tmp_path, capsys):
        run_dir = self._complete_run(tmp_path)
        capsys.readouterr()
        code = main(["checkpoints", "clean", str(tmp_path / "ckpt")])
        assert code == 0
        out = capsys.readouterr().out
        assert "would remove" in out
        assert "pass --force" in out
        assert run_dir.exists()

    def test_clean_force_removes_complete_runs(self, tmp_path, capsys):
        run_dir = self._complete_run(tmp_path)
        capsys.readouterr()
        code = main(
            ["checkpoints", "clean", str(tmp_path / "ckpt"), "--force"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "removed" in out and "would remove" not in out
        assert not run_dir.exists()


class TestParseErrorRendering:
    """Malformed input of every kind: one-line diagnostic, exit 2."""

    def _assert_parse_error(self, code, capsys):
        assert code == 2
        captured = capsys.readouterr()
        error = captured.err.strip()
        assert error.startswith("parse error:")
        assert "\n" not in error  # one line, no traceback
        assert "Traceback" not in captured.err

    def test_malformed_xml(self, store, tmp_path, capsys):
        _, schema = store
        bad = tmp_path / "bad.xml"
        bad.write_text("<orders><order></orders>")
        code = main(["validate", str(bad), "--schema", str(schema)])
        self._assert_parse_error(code, capsys)

    def test_malformed_schema(self, store, tmp_path, capsys):
        document, _ = store
        bad = tmp_path / "bad.schema"
        bad.write_text("orders = order*")
        code = main(["validate", str(document), "--schema", str(bad)])
        self._assert_parse_error(code, capsys)

    def test_malformed_xpath(self, store, capsys):
        document, _ = store
        code = main(
            ["evaluate", str(document), "--xpath", "/orders/order["]
        )
        self._assert_parse_error(code, capsys)

    def test_malformed_regex_in_schema(self, store, tmp_path, capsys):
        document, _ = store
        bad = tmp_path / "bad.schema"
        bad.write_text("orders := order*)")
        code = main(["validate", str(document), "--schema", str(bad)])
        self._assert_parse_error(code, capsys)

    def test_diagnostic_carries_position_and_snippet(
        self, store, tmp_path, capsys
    ):
        _, schema = store
        bad = tmp_path / "bad.xml"
        bad.write_text("<orders><order></orders>")
        main(["validate", str(bad), "--schema", str(schema)])
        error = capsys.readouterr().err
        assert "at offset" in error
        assert "near" in error


class TestStreamCheck:
    def test_violated(self, store, capsys):
        document, _ = store
        code = main(["stream-check", str(document), "--fd", FD])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "single pass" in out

    def test_satisfied(self, store, tmp_path, capsys):
        good = tmp_path / "good.xml"
        good.write_text(STORE_XML.replace("Eve", "Ada"))
        code = main(["stream-check", str(good), "--fd", FD])
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_agrees_with_dom_check(self, store, capsys):
        document, _ = store
        dom_code = main(["check-fd", str(document), "--fd", FD])
        stream_code = main(["stream-check", str(document), "--fd", FD])
        assert dom_code == stream_code

    def test_guarded_by_default(self, tmp_path, capsys):
        """A nesting bomb is refused by the default parse budget: a
        one-line parse error, exit 2."""
        bomb = tmp_path / "bomb.xml"
        bomb.write_text("<orders>" * 1500 + "</orders>" * 1500)
        code = main(["stream-check", str(bomb), "--fd", FD])
        assert code == 2
        error = capsys.readouterr().err
        assert error.startswith("parse error: nesting exceeds depth limit 1000")
        assert "near" in error

    def test_malformed_and_undecodable_documents(self, tmp_path, capsys):
        malformed = tmp_path / "malformed.xml"
        malformed.write_text("<orders><order></orders>")
        undecodable = tmp_path / "undecodable.xml"
        undecodable.write_bytes(b"<orders>\xff</orders>")
        for path in (malformed, undecodable):
            assert main(["stream-check", str(path), "--fd", FD]) == 2
            error = capsys.readouterr().err
            assert error.startswith("parse error: ") and "at offset" in error


class TestEvaluate:
    def test_matches(self, store, capsys):
        document, _ = store
        code = main(
            ["evaluate", str(document), "--xpath", "//line/product"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "widget" in captured.out
        assert "1 node(s)" in captured.err

    def test_paper_document_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "exam.xml"
        path.write_text(serialize_document(paper_document()))
        code = main(
            ["evaluate", str(path), "--xpath", "/session/candidate/@IDN"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "C1" in out and "C2" in out
