"""Persistable snapshots of :class:`~repro.fd.index.FDIndex` state.

The corpus store amortizes FD checking across reopens: after an index
is built for ``(document, FD)`` once, its *group table* — the
``group_key -> {target_key: count}`` map satisfaction is read from —
is persisted next to the document rows.  Reopening the corpus then
answers ``check_fd_corpus`` for unchanged documents from the stored
table alone: no parse, no pattern matching, no re-indexing (the 5x+
warm-reopen win T16 measures).

Keys are heterogeneous tuples (positions, value-key digests, tagged
node keys), so persistence needs a canonical JSON codec:

* a position — a tuple of ints — encodes as ``{"p": [...]}``;
* a value key — a SHA-256 digest (:mod:`repro.xmlmodel.equality`) —
  encodes as ``{"h": "<hex>"}``;
* a node-equality target key ``("node", position)`` encodes as
  ``{"n": [...]}``.

Anything else is rejected with :class:`~repro.errors.StoreError`: the
codec enumerates the shapes :class:`~repro.fd.index.FDIndex` actually
produces, and a silent fallback (``repr``, pickling) would turn a
representation drift into wrong verdicts instead of a loud error.

:func:`fingerprint_fd` pins what a persisted state is valid *for*: the
pattern content (template, edge regexes, selected tuple) plus the FD's
role assignment and equality types.  Content drift in either the
document (sha mismatch — the backend drops states on replace) or the
FD (fingerprint mismatch — the lookup misses) re-indexes.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.errors import StoreError
from repro.fd.fd import FunctionalDependency
from repro.fd.index import FDIndex
from repro.persistence.manifest import fingerprint_pattern
from repro.xmlmodel.tree import XMLDocument


def fingerprint_fd(fd: FunctionalDependency) -> str:
    """Stable content hash of everything an index verdict depends on."""
    parts = [
        "fd",
        fingerprint_pattern(fd.pattern),
        f"context:{fd.context}",
        "conditions:"
        + ";".join(
            f"{position}~{equality.value}"
            for position, equality in zip(
                fd.condition_positions, fd.condition_types
            )
        ),
        f"target:{fd.target_position}~{fd.target_type.value}",
    ]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the key codec
# ----------------------------------------------------------------------


def _encode_key(key: object) -> dict:
    if isinstance(key, bytes):
        return {"h": key.hex()}
    if isinstance(key, tuple):
        if len(key) == 2 and key[0] == "node" and isinstance(key[1], tuple):
            return {"n": [int(index) for index in key[1]]}
        if all(isinstance(index, int) for index in key):
            return {"p": [int(index) for index in key]}
    raise StoreError(
        f"cannot persist FD index key of shape {type(key).__name__}: {key!r}"
    )


def _decode_key(encoded: object) -> object:
    if isinstance(encoded, dict) and len(encoded) == 1:
        if "h" in encoded:
            return bytes.fromhex(encoded["h"])
        if "n" in encoded:
            return ("node", tuple(int(index) for index in encoded["n"]))
        if "p" in encoded:
            return tuple(int(index) for index in encoded["p"])
    raise StoreError(f"damaged persisted FD index key: {encoded!r}")


def _encode_group_key(group_key: tuple) -> list[dict]:
    return [_encode_key(part) for part in group_key]


def _decode_group_key(encoded: object) -> tuple:
    if not isinstance(encoded, list):
        raise StoreError(f"damaged persisted FD group key: {encoded!r}")
    return tuple(_decode_key(part) for part in encoded)


# ----------------------------------------------------------------------
# the state object
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FDIndexState:
    """One FD's persisted satisfaction state over one document.

    ``groups`` maps group keys to target-key counters, exactly the
    :meth:`~repro.fd.index.FDIndex.group_table` snapshot; everything
    else is derived and stored denormalized so a reload can answer
    :attr:`satisfied` without touching the table.
    """

    fd_name: str
    fd_fingerprint: str
    satisfied: bool
    mapping_count: int
    group_count: int
    groups: tuple[tuple[tuple, tuple[tuple[object, int], ...]], ...]

    # -- construction ---------------------------------------------------

    @classmethod
    def from_index(cls, index: FDIndex, fingerprint: str) -> "FDIndexState":
        """Snapshot a live index (canonical group/target ordering).

        ``fingerprint`` is ``fingerprint_fd(index.fd)``, passed in so a
        corpus check computes it once per FD, not once per document.
        """
        table = index.group_table()
        groups = tuple(
            sorted(
                (
                    (
                        group_key,
                        tuple(
                            sorted(
                                counter.items(),
                                key=lambda item: repr(item[0]),
                            )
                        ),
                    )
                    for group_key, counter in table.items()
                ),
                key=lambda entry: repr(entry[0]),
            )
        )
        return cls(
            fd_name=index.fd.name,
            fd_fingerprint=fingerprint,
            satisfied=index.is_satisfied(),
            mapping_count=index.mapping_count,
            group_count=index.group_count,
            groups=groups,
        )

    @classmethod
    def from_document(
        cls,
        fd: FunctionalDependency,
        document: XMLDocument,
        fingerprint: str,
    ) -> "FDIndexState":
        """Build a fresh index for ``document`` and snapshot it."""
        index = FDIndex(fd, document, reuse_matcher=True)
        try:
            return cls.from_index(index, fingerprint)
        finally:
            index.close()

    # -- JSON round trip ------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON shape (what the backend persists)."""
        return {
            "fd_name": self.fd_name,
            "fd_fingerprint": self.fd_fingerprint,
            "satisfied": self.satisfied,
            "mapping_count": self.mapping_count,
            "group_count": self.group_count,
            "groups": [
                [
                    _encode_group_key(group_key),
                    [
                        [_encode_key(target_key), count]
                        for target_key, count in targets
                    ],
                ]
                for group_key, targets in self.groups
            ],
        }

    @classmethod
    def from_json_dict(cls, document: dict) -> "FDIndexState":
        """Rebuild a state from its persisted JSON shape."""
        try:
            groups = tuple(
                (
                    _decode_group_key(entry[0]),
                    tuple(
                        (_decode_key(target), int(count))
                        for target, count in entry[1]
                    ),
                )
                for entry in document["groups"]
            )
            return cls(
                fd_name=str(document["fd_name"]),
                fd_fingerprint=str(document["fd_fingerprint"]),
                satisfied=bool(document["satisfied"]),
                mapping_count=int(document["mapping_count"]),
                group_count=int(document["group_count"]),
                groups=groups,
            )
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise StoreError(
                f"damaged persisted FD index state: {error}"
            ) from error
