"""``--resume`` without ``--checkpoint-dir`` is a usage error (exit 2).

A resume with nothing to resume from used to recompute everything from
scratch and exit normally, so a typo'd or dropped ``--checkpoint-dir``
went unnoticed.  Every subcommand that journals to a checkpoint
directory now refuses it the way argparse refuses any bad usage.
``corpus load --resume`` stays accepted: a load is idempotent, so
resuming it is re-running it.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.workload.library import generate_library
from repro.workload.packages import package_linear_fds, write_package_corpus
from repro.xmlmodel.serializer import serialize_document

ORDERS_FD = "(/orders, ((order/@id) -> order/customer/name))"
ISBN_TITLE = "(/library, ((book/@isbn) -> book/title))"


@pytest.fixture
def store(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for index in range(2):
        (corpus / f"doc{index}.xml").write_text(
            serialize_document(generate_library(books=2, seed=index)),
            encoding="utf-8",
        )
    db = str(tmp_path / "store.db")
    assert main(["corpus", "load", db, str(corpus)]) == 0
    return db, str(corpus)


def _commands(tmp_path, store):
    db, _ = store
    audit_paths = write_package_corpus(
        tmp_path / "packages", documents=1, parts=2
    )
    audit_fds = [arg for fd in package_linear_fds() for arg in ("--fd", fd)]
    return {
        "independence": [
            "independence", "--fd", ORDERS_FD,
            "--update-xpath", "/orders/order/status",
        ],
        "independence-matrix": [
            "independence", "--matrix", "--fd", ORDERS_FD,
            "--update-xpath", "/orders/order/status",
            "--update-xpath", "/orders/order/customer/name",
        ],
        "audit": ["audit", *audit_paths, *audit_fds],
        "corpus-check-fd": ["corpus", "check-fd", db, "--fd", ISBN_TITLE],
        "corpus-apply": [
            "corpus", "apply", db, "--set", "/library/book/title=T",
        ],
    }


@pytest.mark.parametrize(
    "command",
    [
        "independence",
        "independence-matrix",
        "audit",
        "corpus-check-fd",
        "corpus-apply",
    ],
)
def test_resume_without_checkpoint_dir_is_a_usage_error(
    command, tmp_path, store, capsys
):
    argv = _commands(tmp_path, store)[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--resume"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "--resume requires --checkpoint-dir" in captured.err
    assert captured.out == ""  # refused before any work ran


@pytest.mark.parametrize("command", ["independence", "corpus-check-fd"])
def test_resume_with_checkpoint_dir_still_runs(
    command, tmp_path, store, capsys
):
    argv = _commands(tmp_path, store)[command]
    checkpoint = str(tmp_path / "ckpt")
    assert main(argv + ["--checkpoint-dir", checkpoint]) == 0
    assert main(argv + ["--checkpoint-dir", checkpoint, "--resume"]) == 0


def test_corpus_load_resume_stays_a_no_op(tmp_path, store):
    db, corpus = store
    assert main(["corpus", "load", db, corpus, "--resume"]) == 0
