"""The pattern-matching engine: mapping enumeration and evaluation.

Semantics implemented (Definition 2):

* the template root maps to the document root;
* each template edge ``(w, w')`` maps to the unique document path from
  ``π(w)`` down to ``π(w')`` whose label word (source label excluded,
  target label included) belongs to the edge's regular language;
* paths of two distinct edges leaving the same template node must not
  share a prefix — equivalently they start at *distinct children* of
  ``π(w)``;
* document order is preserved: for template siblings ``w1 ≺ w2`` the
  chosen first children must appear in increasing sibling order, which —
  because order between any two template nodes is decided at their lowest
  common ancestor's branch point — is exactly the global condition
  ``w ≺ w' ⇒ π(w) < π(w')``.

Enumeration is exact (every mapping, no duplicates); an existence-only
entry point with memoization serves the update/impact layers where only
"is there a mapping?" matters.

The per-evaluation caches of :class:`_MatchContext` are *node-scoped*
(two-level: document node → template edge → result) and keyed by the
node objects themselves, never by ``id(node)``: a context that outlives
a single call (see :class:`repro.pattern.matcher.PatternMatcher`) must
not alias a recycled ``id`` of a garbage-collected node to a stale
entry.  :meth:`_MatchContext.repair_replacement` repairs the caches
around a subtree replacement instead of discarding them — entries under
the detached subtree are dropped, entries on the ancestor path are
re-derived by rescanning only the replacement subtree, and everything
else is kept, which is what makes warm repeated matching cheap.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import PatternError
from repro.pattern.mapping import Mapping
from repro.pattern.template import (
    ROOT_POSITION,
    RegularTreePattern,
    RegularTreeTemplate,
    TemplatePosition,
)
from repro.regex.dfa import DFA
from repro.xmlmodel.tree import ROOT_LABEL, XMLDocument, XMLNode


class _MatchContext:
    """Caches shared across the matching recursion (and across calls).

    ``reach_cache`` and ``exists_cache`` map a document node to a
    per-template-edge dict; holding the node object itself as the key
    both pins it against garbage collection (so ``id`` reuse cannot
    alias entries) and makes node-scoped invalidation a single ``pop``.
    """

    __slots__ = (
        "template",
        "live_cache",
        "reach_cache",
        "exists_cache",
        "hits",
        "misses",
        "invalidated_nodes",
        "repaired_entries",
    )

    def __init__(self, template: RegularTreeTemplate) -> None:
        self.template = template
        self.live_cache: dict[TemplatePosition, frozenset[int]] = {}
        self.reach_cache: dict[
            XMLNode, dict[TemplatePosition, list[tuple[int, XMLNode]]]
        ] = {}
        self.exists_cache: dict[XMLNode, dict[TemplatePosition, bool]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidated_nodes = 0
        self.repaired_entries = 0

    # ------------------------------------------------------------------
    # cache maintenance
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop every node-scoped entry (full teardown fallback)."""
        self.reach_cache.clear()
        self.exists_cache.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss and invalidation counters plus current sizes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidated_nodes": self.invalidated_nodes,
            "repaired_entries": self.repaired_entries,
            "reach_nodes": len(self.reach_cache),
            "exists_nodes": len(self.exists_cache),
        }

    def repair_replacement(self, old_root: XMLNode, new_root: XMLNode) -> None:
        """Repair the caches after ``replace_subtree(old_root, new_root)``.

        Three node classes exist after a replacement:

        * nodes of the detached subtree — every entry dropped;
        * ancestors of the splice point — existence entries dropped
          (they may flip either way), reachability entries *repaired* by
          removing targets inside the old subtree and rescanning only
          the replacement subtree with the DFA state reconstructed along
          the unchanged path;
        * all other nodes — untouched: reachability and existence depend
          only on the node's own subtree, which did not change.
        """
        dead_ids = set()
        for node in old_root.iter_subtree():
            dead_ids.add(id(node))
            if self.reach_cache.pop(node, None) is not None:
                self.invalidated_nodes += 1
            self.exists_cache.pop(node, None)

        ancestor = new_root.parent
        while ancestor is not None:
            self.exists_cache.pop(ancestor, None)
            per_edge = self.reach_cache.get(ancestor)
            if per_edge:
                for child_pos, entries in per_edge.items():
                    per_edge[child_pos] = self._repair_reach(
                        child_pos, ancestor, entries, dead_ids, new_root
                    )
                    self.repaired_entries += 1
            ancestor = ancestor.parent

    def _repair_reach(
        self,
        child: TemplatePosition,
        source: XMLNode,
        entries: list[tuple[int, XMLNode]],
        dead_ids: set[int],
        new_root: XMLNode,
    ) -> list[tuple[int, XMLNode]]:
        """Patch one cached reachability list around a replacement.

        ``source`` is a strict ancestor of ``new_root``; targets inside
        the detached subtree are removed and fresh targets are collected
        by running the edge DFA only over the replacement subtree, with
        the state at its root recovered along the unchanged access path.
        """
        kept = [entry for entry in entries if id(entry[1]) not in dead_ids]

        # path from source (exclusive) down to new_root (inclusive)
        path: list[XMLNode] = []
        walker: XMLNode | None = new_root
        while walker is not None and walker is not source:
            path.append(walker)
            walker = walker.parent
        path.reverse()
        first_index = path[0].child_index()

        dfa: DFA = self.template.edge_dfa(child)
        live = self.live_states(child)
        state = dfa.start
        alive = True
        for node in path:
            state = dfa.step(state, node.label)
            if state not in live:
                alive = False
                break

        fresh: list[tuple[int, XMLNode]] = []
        if alive:
            # DFS inside the replacement subtree only, document order
            stack: list[tuple[XMLNode, int]] = [(new_root, state)]
            while stack:
                node, node_state = stack.pop()
                if node_state in dfa.accepting:
                    fresh.append((first_index, node))
                for kid in reversed(node.children):
                    kid_state = dfa.step(node_state, kid.label)
                    if kid_state in live:
                        stack.append((kid, kid_state))

        if not fresh:
            return kept
        merged = kept + fresh
        merged.sort(key=lambda entry: (entry[0], entry[1].position()))
        return merged

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def live_states(self, child: TemplatePosition) -> frozenset[int]:
        live = self.live_cache.get(child)
        if live is None:
            live = self.template.edge_dfa(child).live_states()
            self.live_cache[child] = live
        return live

    def reachable(
        self, child: TemplatePosition, source: XMLNode
    ) -> list[tuple[int, XMLNode]]:
        """All ``(first_child_index, target)`` pairs for one template edge.

        ``target`` ranges over descendants of ``source`` whose unique path
        from ``source`` has a label word in the edge language; the first
        child index identifies which child of ``source`` the path enters.
        Results are in document order of the targets.
        """
        per_edge = self.reach_cache.get(source)
        if per_edge is None:
            per_edge = {}
            self.reach_cache[source] = per_edge
        cached = per_edge.get(child)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        dfa: DFA = self.template.edge_dfa(child)
        live = self.live_states(child)
        found: list[tuple[int, XMLNode]] = []
        # Iterative DFS preserving document order of targets.
        for index, first in enumerate(source.children):
            state = dfa.step(dfa.start, first.label)
            if state not in live:
                continue
            stack: list[tuple[XMLNode, int]] = [(first, state)]
            while stack:
                node, node_state = stack.pop()
                if node_state in dfa.accepting:
                    found.append((index, node))
                for kid in reversed(node.children):
                    kid_state = dfa.step(node_state, kid.label)
                    if kid_state in live:
                        stack.append((kid, kid_state))
        # the child loop runs in sibling order and the DFS visits each
        # child subtree in document order, so `found` is already sorted
        # by (first child index, document order)
        per_edge[child] = found
        return found

    # ------------------------------------------------------------------
    # existence (memoized)
    # ------------------------------------------------------------------

    def subtree_embeds(self, node: TemplatePosition, image: XMLNode) -> bool:
        """Can the template subtree rooted at ``node`` embed with image ``image``?"""
        per_edge = self.exists_cache.get(image)
        if per_edge is None:
            per_edge = {}
            self.exists_cache[image] = per_edge
        cached = per_edge.get(node)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        children = self.template.children(node)
        result = self._edges_satisfiable(children, image)
        per_edge[node] = result
        return result

    def _edges_satisfiable(
        self, children: tuple[TemplatePosition, ...], image: XMLNode
    ) -> bool:
        # Greedy left-to-right: take the smallest usable first child for
        # each edge.  Later edges only need strictly larger first
        # children, so the greedy choice is optimal.
        last_index = -1
        for child in children:
            best: int | None = None
            for index, target in self.reachable(child, image):
                if index <= last_index:
                    continue
                if self.subtree_embeds(child, target):
                    best = index
                    break
            if best is None:
                return False
            last_index = best
        return True

    # ------------------------------------------------------------------
    # full enumeration
    # ------------------------------------------------------------------

    def enumerate(
        self, node: TemplatePosition, image: XMLNode
    ) -> Iterator[dict[TemplatePosition, XMLNode]]:
        """Yield every embedding of the subtree at ``node`` with ``π(node) = image``."""
        children = self.template.children(node)
        if not children:
            yield {node: image}
            return
        for combination in self._edge_combinations(children, image, -1):
            for assembled in self._cross_product(combination, 0):
                assembled[node] = image
                yield assembled

    def _edge_combinations(
        self,
        children: tuple[TemplatePosition, ...],
        image: XMLNode,
        last_index: int,
    ) -> Iterator[list[tuple[TemplatePosition, XMLNode]]]:
        """Choose a target per edge with strictly increasing first children."""
        if not children:
            yield []
            return
        head, tail = children[0], children[1:]
        for index, target in self.reachable(head, image):
            if index <= last_index:
                continue
            if not self.subtree_embeds(head, target):
                continue
            for rest in self._edge_combinations(tail, image, index):
                yield [(head, target)] + rest

    def _cross_product(
        self,
        chosen: list[tuple[TemplatePosition, XMLNode]],
        offset: int,
    ) -> Iterator[dict[TemplatePosition, XMLNode]]:
        if offset == len(chosen):
            yield {}
            return
        child, target = chosen[offset]
        for head in self.enumerate(child, target):
            for rest in self._cross_product(chosen, offset + 1):
                merged = dict(head)
                merged.update(rest)
                yield merged

    # ------------------------------------------------------------------
    # region-restricted enumeration
    # ------------------------------------------------------------------

    def enumerate_touching(
        self, root: XMLNode, region_root: XMLNode
    ) -> Iterator[dict[TemplatePosition, XMLNode]]:
        """Embeddings of the whole template with >= 1 image inside the
        ``region_root`` subtree.

        This is the incremental-maintenance primitive: after replacing
        the subtree at ``region_root``, exactly these mappings can be
        new (see :mod:`repro.fd.index`).  The "at least one image
        touches the region" requirement is pushed through the whole
        recursion with a first-touch decomposition, so sibling branches
        that provably cannot reach the region are never asked to carry
        the requirement, and branches outside the region's root path are
        enumerated only when some earlier branch already touched.
        """
        region_ids = {id(node) for node in region_root.iter_subtree()}
        ancestor_ids: set[int] = set()
        walker: XMLNode | None = region_root.parent
        while walker is not None:
            ancestor_ids.add(id(walker))
            walker = walker.parent

        def _product(lists: list[list[dict]], offset: int) -> Iterator[dict]:
            if offset == len(lists):
                yield {}
                return
            for head in lists[offset]:
                for rest in _product(lists, offset + 1):
                    merged = dict(head)
                    merged.update(rest)
                    yield merged

        def expand_touch(
            node: TemplatePosition, image: XMLNode
        ) -> Iterator[dict[TemplatePosition, XMLNode]]:
            """Embeddings of the subtree at ``node`` with >= 1 image in region."""
            if id(image) in region_ids:
                # the node itself is inside: every embedding qualifies
                yield from self.enumerate(node, image)
                return
            if id(image) not in ancestor_ids:
                return  # the region is unreachable from this subtree
            children = self.template.children(node)
            if not children:
                return  # leaf image strictly above the region: cannot touch
            for combination in self._edge_combinations(children, image, -1):
                # first-touch decomposition: exactly one branch `index` is
                # the first whose sub-embedding reaches the region; earlier
                # branches contribute only non-touching embeddings, later
                # ones are unconstrained.  This enumerates each qualifying
                # mapping exactly once.
                for index, (child, target) in enumerate(combination):
                    if (
                        id(target) not in region_ids
                        and id(target) not in ancestor_ids
                    ):
                        continue
                    touching = list(expand_touch(child, target))
                    if not touching:
                        continue
                    earlier: list[list[dict]] = []
                    for c, t in combination[:index]:
                        embeddings = [
                            part
                            for part in self.enumerate(c, t)
                            if not any(
                                id(n) in region_ids for n in part.values()
                            )
                        ]
                        earlier.append(embeddings)
                    later = [
                        list(self.enumerate(c, t))
                        for c, t in combination[index + 1 :]
                    ]
                    if any(not part for part in earlier + later):
                        continue
                    for touching_part in touching:
                        for before in _product(earlier, 0):
                            for after in _product(later, 0):
                                assembled = dict(touching_part)
                                assembled.update(before)
                                assembled.update(after)
                                assembled[node] = image
                                yield assembled

        yield from expand_touch(ROOT_POSITION, root)


def _root_of(document: XMLDocument | XMLNode) -> XMLNode:
    if isinstance(document, XMLDocument):
        return document.root
    if document.label != ROOT_LABEL:
        raise PatternError(
            f"pattern evaluation starts at a {ROOT_LABEL!r}-labeled root, "
            f"got {document.label!r}"
        )
    return document


def _template_of(
    pattern: RegularTreePattern | RegularTreeTemplate,
) -> RegularTreeTemplate:
    return pattern.template if isinstance(pattern, RegularTreePattern) else pattern


def enumerate_mappings(
    pattern: RegularTreePattern | RegularTreeTemplate,
    document: XMLDocument | XMLNode,
) -> Iterator[Mapping]:
    """Yield every mapping of the pattern's template on the document."""
    template = _template_of(pattern)
    context = _MatchContext(template)
    root = _root_of(document)
    for images in context.enumerate(ROOT_POSITION, root):
        yield Mapping(template, images)


def has_mapping(
    pattern: RegularTreePattern | RegularTreeTemplate,
    document: XMLDocument | XMLNode,
) -> bool:
    """Decide whether at least one mapping exists (memoized, no enumeration)."""
    template = _template_of(pattern)
    context = _MatchContext(template)
    return context.subtree_embeds(ROOT_POSITION, _root_of(document))


def enumerate_mappings_touching(
    pattern: RegularTreePattern | RegularTreeTemplate,
    document: XMLDocument | XMLNode,
    region_root: XMLNode,
) -> Iterator[Mapping]:
    """Yield the mappings with at least one image inside ``region_root``'s
    subtree (see :meth:`_MatchContext.enumerate_touching`).
    """
    template = _template_of(pattern)
    context = _MatchContext(template)
    root = _root_of(document)
    for images in context.enumerate_touching(root, region_root):
        yield Mapping(template, images)


def selected_node_tuples(
    pattern: RegularTreePattern,
    document: XMLDocument | XMLNode,
) -> list[tuple[XMLNode, ...]]:
    """Distinct tuples of selected-node images, in first-found order.

    This is the node-level counterpart of ``R(D)``: the paper returns the
    tuples of *subtrees* rooted at these nodes, which is the same data
    since a node determines its subtree.
    """
    seen: set[tuple[int, ...]] = set()
    result: list[tuple[XMLNode, ...]] = []
    for mapping in enumerate_mappings(pattern, document):
        tuple_nodes = mapping.selected_images(pattern)
        key = tuple(id(node) for node in tuple_nodes)
        if key not in seen:
            seen.add(key)
            result.append(tuple_nodes)
    return result


def evaluate_pattern(
    pattern: RegularTreePattern,
    document: XMLDocument | XMLNode,
) -> list[tuple[XMLNode, ...]]:
    """``R(D)``: evaluate the pattern, returning subtree-root tuples."""
    return selected_node_tuples(pattern, document)
