"""Single-pass (streaming) validation of linear-path FDs.

The DOM checker (:mod:`repro.fd.satisfaction`) enumerates pattern
mappings over a materialized tree.  For the linear fragment of [8] —
whose translated patterns are label tries — satisfaction can instead be
decided in *one pass over an event stream* with memory bounded by
document depth plus the live groups of the currently open context nodes:

* the trie of relative paths is walked alongside the open-element stack;
* each context match owns a DP table per trie-node *instance*: as the
  instance's children close, assignments of (ordered, distinct-children)
  edge matches are combined exactly like the pattern engine's
  first-child-increasing combinations;
* value equality uses rolling structural digests computed on end events
  (children digests fold into the parent's), so a subtree's Definition 3
  key is available the moment it closes without retaining the subtree;
* node equality uses the node's position word, reconstructed from the
  per-frame child counters.

Agreement with the DOM pipeline (translate + check) is pinned down by
the test suite on random documents; the practical payoff — validating
documents larger than memory — is measured in experiment T11.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Iterable

from repro.errors import FDError
from repro.fd.fd import EqualityType
from repro.fd.linear import LinearFD
from repro.limits import ParseBudget
from repro.xmlmodel.events import END, START, Event, iter_events, parse_events
from repro.xmlmodel.tree import XMLDocument


class _TrieNode:
    """Single-label trie over the relative condition/target paths."""

    __slots__ = ("children", "terminal_of", "edge_order")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.terminal_of: list[int] = []
        self.edge_order: list[str] = []

    def child(self, label: str) -> "_TrieNode":
        node = self.children.get(label)
        if node is None:
            node = _TrieNode()
            self.children[label] = node
            self.edge_order.append(label)
        return node


def _digest_leaf(label: str, value: str) -> bytes:
    payload = f"L|{label}|{value}".encode()
    return hashlib.sha256(payload).digest()


def _digest_element(label: str, child_digests: list[bytes]) -> bytes:
    hasher = hashlib.sha256(f"E|{label}|".encode())
    for digest in child_digests:
        hasher.update(digest)
    return hasher.digest()


# an assignment maps selected-path indices to keys (digest or position)
_Assignment = tuple


def _merge(left: _Assignment, right: _Assignment) -> _Assignment:
    return left + right


@dataclasses.dataclass
class _Instance:
    """A matched trie node, anchored at an open element."""

    trie: _TrieNode
    own: _Assignment  # contributions of the node itself (terminals)
    # partial[j]: assignments covering the first j outgoing edges using
    # the children seen so far, in strictly increasing child order
    partial: list[list[_Assignment]]

    @classmethod
    def create(cls, trie: _TrieNode, own: _Assignment) -> "_Instance":
        partial: list[list[_Assignment]] = [[()]]
        partial.extend([] for _ in trie.edge_order)
        return cls(trie=trie, own=own, partial=partial)

    def absorb(self, label: str, results: list[_Assignment]) -> None:
        """One child with this label closed, offering ``results`` per
        outgoing-edge match; advance the DP (descending j so one child
        serves at most one edge per assignment)."""
        if not results:
            return
        for j in range(len(self.trie.edge_order) - 1, -1, -1):
            if self.trie.edge_order[j] != label:
                continue
            if not self.partial[j]:
                continue
            self.partial[j + 1] = self.partial[j + 1] + [
                _merge(before, result)
                for before in self.partial[j]
                for result in results
            ]

    def results(self) -> list[_Assignment]:
        """Complete assignments for this instance (all edges matched)."""
        complete = self.partial[len(self.trie.edge_order)]
        if not self.own:
            return complete
        return [_merge(self.own, parts) for parts in complete]


@dataclasses.dataclass
class StreamingReport:
    """Outcome of a streaming validation run."""

    satisfied: bool
    context_count: int
    assignment_count: int
    violation_count: int


class StreamingFDValidator:
    """One-pass validator for a linear-path FD."""

    def __init__(self, linear: LinearFD) -> None:
        self.linear = linear
        paths = [path for path, _ in linear.conditions] + [linear.target[0]]
        self.equalities = [eq for _, eq in linear.conditions] + [
            linear.target[1]
        ]
        seen: set[tuple[str, ...]] = set()
        for path in paths:
            if path.steps in seen:
                raise FDError(
                    f"duplicate relative path {path} — the linear fragment "
                    f"cannot repeat a path"
                )
            seen.add(path.steps)
        self.path_count = len(paths)
        self.trie = _TrieNode()
        for index, path in enumerate(paths):
            node = self.trie
            for step in path.steps:
                node = node.child(step)
            node.terminal_of.append(index)
        self.context_steps = linear.context.steps

    # ------------------------------------------------------------------

    def validate_document(self, document: XMLDocument) -> StreamingReport:
        """Validate an in-memory document via its event stream."""
        return self.validate_events(iter_events(document))

    def validate_text(
        self, source: str, limits: ParseBudget | None = None
    ) -> StreamingReport:
        """Validate XML text without building a tree.

        ``limits`` guards the parse exactly as in
        :func:`~repro.xmlmodel.parser.parse_document`.
        """
        return self.validate_events(parse_events(source, limits=limits))

    def validate_events(self, events: Iterable[Event]) -> StreamingReport:
        """Validate an arbitrary event stream."""
        # per-frame state; the virtual '/' root is frame 0 once started
        label_stack: list[str] = []
        position_stack: list[int] = []  # child index of each open element
        child_counters: list[int] = [0]
        digests_stack: list[list[bytes]] = []
        # instances anchored at each frame: list of _Instance
        instances_stack: list[list[_Instance]] = []
        # context-chain progress: frames where the next context step may
        # start; entry = how many context steps are consumed at the frame
        context_progress: list[int] = []
        # is the element at each frame itself a context node?
        is_context: list[bool] = []

        context_count = 0
        assignment_count = 0
        violations = 0

        def open_frame(label: str) -> None:
            nonlocal context_count
            depth = len(label_stack)
            position = child_counters[-1]
            label_stack.append(label)
            position_stack.append(position)
            child_counters.append(0)
            digests_stack.append([])
            instances: list[_Instance] = []
            consumed = context_progress[-1] if context_progress else 0
            # context chain: at depth d the element is the d-th step
            if depth >= 1:
                step_index = depth - 1
                progressing = (
                    consumed == step_index
                    and step_index < len(self.context_steps)
                    and label == self.context_steps[step_index]
                )
                context_progress.append(
                    consumed + 1 if progressing else consumed
                )
                now_context = (
                    progressing and consumed + 1 == len(self.context_steps)
                )
            else:
                context_progress.append(0)
                now_context = False
            is_context.append(now_context)
            if now_context:
                context_count += 1
                instances.append(_Instance.create(self.trie, ()))
            # trie-edge openings from parent instances
            if depth >= 1:
                for parent_instance in instances_stack[-1]:
                    child_trie = parent_instance.trie.children.get(label)
                    if child_trie is not None:
                        own = self._own_contribution(
                            child_trie, tuple(position_stack)
                        )
                        instances.append(_Instance.create(child_trie, own))
            instances_stack.append(instances)

        def close_frame() -> None:
            nonlocal assignment_count, violations
            label = label_stack.pop()
            position_stack.pop()
            child_counters.pop()
            child_digests = digests_stack.pop()
            digest = _digest_element(label, child_digests)
            if digests_stack:
                digests_stack[-1].append(digest)
            if child_counters:
                child_counters[-1] += 1
            instances = instances_stack.pop()
            context_progress.pop()
            context_here = is_context.pop()

            # patch VALUE-equality terminals of just-closed instances:
            # their digests were unknown at open time
            for instance in instances:
                if instance.trie.terminal_of and instance.own:
                    instance.own = self._finalize_own(
                        instance.trie, instance.own, digest
                    )

            for instance in instances:
                if context_here and instance.trie is self.trie:
                    # groups live only while their context is open: they
                    # are checked and discarded here, which is what keeps
                    # memory bounded by the open contexts
                    local_groups: dict[tuple, object] = {}
                    for assignment in instance.results():
                        assignment_count += 1
                        violations += self._record(local_groups, assignment)
                    continue
                results = instance.results()
                if results and instances_stack:
                    for parent_instance in instances_stack[-1]:
                        if parent_instance.trie.children.get(label) is (
                            instance.trie
                        ):
                            parent_instance.absorb(label, results)

        def leaf(label: str, value: str) -> None:
            digest = _digest_leaf(label, value)
            digests_stack[-1].append(digest)
            position = child_counters[-1]
            child_counters[-1] += 1
            # leaf-terminated trie edges of the instances at the top frame
            full_position = tuple(position_stack) + (position,)
            for instance in instances_stack[-1]:
                child_trie = instance.trie.children.get(label)
                if child_trie is None:
                    continue
                if child_trie.children:
                    continue  # deeper steps cannot go below a leaf
                own: list = []
                for index in sorted(child_trie.terminal_of):
                    if self.equalities[index] is EqualityType.VALUE:
                        own.append((index, digest))
                    else:
                        own.append((index, full_position))
                instance.absorb(label, [tuple(own)])

        for kind, payload in events:
            if kind == START:
                open_frame(payload)  # type: ignore[arg-type]
            elif kind == END:
                close_frame()
            else:
                leaf_label, leaf_value = payload  # type: ignore[misc]
                leaf(leaf_label, leaf_value)

        return StreamingReport(
            satisfied=violations == 0,
            context_count=context_count,
            assignment_count=assignment_count,
            violation_count=violations,
        )

    # ------------------------------------------------------------------

    def _own_contribution(
        self, trie: _TrieNode, position: tuple[int, ...]
    ) -> _Assignment:
        """Terminal contributions known at open time (positions only;
        digests are patched at close)."""
        own: list = []
        for index in sorted(trie.terminal_of):
            if self.equalities[index] is EqualityType.NODE:
                own.append((index, position))
            else:
                own.append((index, None))  # digest placeholder
        return tuple(own)

    def _finalize_own(
        self, trie: _TrieNode, own: _Assignment, digest: bytes
    ) -> _Assignment:
        return tuple(
            (index, digest if key is None else key) for index, key in own
        )

    def _record(self, groups: dict, assignment: _Assignment) -> int:
        """Group one complete assignment within its context instance;
        returns 1 on a violating (group, new-target) pair."""
        keys = dict(assignment)
        condition_key = tuple(
            keys[index] for index in range(self.path_count - 1)
        )
        target_key = keys[self.path_count - 1]
        existing = groups.get(condition_key)
        if existing is None:
            groups[condition_key] = target_key
            return 0
        return 1 if existing != target_key else 0
