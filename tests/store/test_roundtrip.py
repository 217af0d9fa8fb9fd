"""Property suites: encoding round-trips and FD-state persistence.

Two identities, each over 100+ random documents:

* document → node/edge/attr rows → document is the identity (serialized
  forms compared — the strongest observable equality the model offers);
* a persisted-and-reloaded :class:`~repro.store.fdstate.FDIndexState`
  equals the state snapshotted from a freshly built
  :class:`~repro.fd.index.FDIndex` on the same document.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.store import SqliteBackend, decode_document, encode_document
from repro.store.encoding import DocumentRows
from repro.store.fdstate import FDIndexState, fingerprint_fd
from repro.workload.library import generate_library, library_fds
from repro.workload.random_docs import random_document
from repro.xmlmodel.builder import attr, doc, elem, text
from repro.xmlmodel.serializer import serialize_document

ROUNDTRIP_SEEDS = range(110)


def _random_corpus_document(seed: int):
    """Vary the generator so attributes, text and shape all appear."""
    if seed % 4 == 0:
        return generate_library(
            books=1 + seed % 3,
            seed=seed,
            violate_key=1 if seed % 8 == 0 else 0,
        )
    return random_document(
        seed=seed,
        max_depth=2 + seed % 3,
        max_children=1 + seed % 3,
        text_probability=0.2 + (seed % 5) * 0.15,
    )


class TestEncodingRoundtrip:
    @pytest.mark.parametrize("seed", ROUNDTRIP_SEEDS)
    def test_document_rows_document_identity(self, seed):
        document = _random_corpus_document(seed)
        rows = encode_document(document)
        back = decode_document(rows)
        assert serialize_document(back) == serialize_document(document)
        # encoding the decoded document reproduces the same rows, so
        # the encoding itself is canonical (no hidden normalization)
        assert encode_document(back) == rows

    def test_attribute_order_preserved(self):
        document = doc(
            elem(
                "book",
                attr("isbn", "i1"),
                attr("lang", "en"),
                elem("title", text("T")),
            )
        )
        back = decode_document(encode_document(document))
        labels = [child.label for child in back.root.children[0].children]
        assert labels == ["@isbn", "@lang", "title"]

    def test_empty_element_document(self):
        document = doc(elem("empty"))
        rows = encode_document(document)
        assert rows.node_count == 2  # root + the element
        back = decode_document(rows)
        assert serialize_document(back) == serialize_document(document)

    def test_damaged_rows_are_loud(self):
        rows = encode_document(random_document(seed=3))
        # orphan edge: parent id that owns no node
        bad_edges = rows.edges + ((999, 1000, 0),)
        with pytest.raises(StoreError):
            decode_document(
                DocumentRows(
                    nodes=rows.nodes, edges=bad_edges, attrs=rows.attrs
                )
            )

    def test_gapped_positions_are_loud(self):
        document = doc(elem("a", elem("b"), elem("c")))
        rows = encode_document(document)
        # drop the first child edge: position 1 is now non-contiguous
        gapped = tuple(
            edge for edge in rows.edges if edge[2] != 0 or edge[0] != 1
        )
        if gapped != rows.edges:
            with pytest.raises(StoreError):
                decode_document(
                    DocumentRows(
                        nodes=rows.nodes, edges=gapped, attrs=rows.attrs
                    )
                )


class TestFDStatePersistence:
    @pytest.mark.parametrize("seed", range(104))
    def test_reloaded_state_equals_fresh_index(self, seed):
        document = generate_library(
            books=1 + seed % 4,
            seed=seed,
            violate_key=1 if seed % 5 == 0 else 0,
            violate_title=1 if seed % 7 == 0 else 0,
        )
        fd = library_fds()[seed % len(library_fds())]
        state = FDIndexState.from_document(fd, document, fingerprint_fd(fd))
        reloaded = FDIndexState.from_json_dict(state.to_json_dict())
        assert reloaded == state
        # and a *fresh* index over the same document agrees completely
        fresh = FDIndexState.from_document(fd, document, fingerprint_fd(fd))
        assert fresh == reloaded

    def test_state_survives_sqlite(self, tmp_path):
        document = generate_library(books=3, seed=9, violate_key=1)
        fd = library_fds()[0]
        state = FDIndexState.from_document(fd, document, fingerprint_fd(fd))
        backend = SqliteBackend(tmp_path / "s.db")
        backend.put_document(
            "d.xml", "sha", encode_document(document)
        )
        backend.put_index_state(
            "d.xml", state.fd_fingerprint, state.to_json_dict()
        )
        backend.close()
        reopened = SqliteBackend(tmp_path / "s.db")
        persisted = reopened.get_index_state("d.xml", state.fd_fingerprint)
        assert FDIndexState.from_json_dict(persisted) == state
        reopened.close()

    def test_node_equality_target_keys_roundtrip(self):
        # an FD with node-equality target exercises the ("node", pos)
        # key shape of the codec
        fd = translate_linear_fd(
            LinearFD.parse(
                "(/library, ((book/@isbn) -> book[N]))", name="node-target"
            )
        )
        document = generate_library(books=3, seed=2)
        state = FDIndexState.from_document(fd, document, fingerprint_fd(fd))
        assert FDIndexState.from_json_dict(state.to_json_dict()) == state

    def test_fingerprint_separates_different_fds(self):
        fds = library_fds()
        fingerprints = {fingerprint_fd(fd) for fd in fds}
        assert len(fingerprints) == len(fds)

    def test_damaged_state_is_loud(self):
        document = generate_library(books=2, seed=1)
        fd = library_fds()[0]
        state = FDIndexState.from_document(fd, document, fingerprint_fd(fd))
        payload = state.to_json_dict()
        payload["groups"] = [[[{"zz": 1}], []]]
        with pytest.raises(StoreError):
            FDIndexState.from_json_dict(payload)
