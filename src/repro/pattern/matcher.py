"""Long-lived pattern matching over a mutable document.

The module-level entry points of :mod:`repro.pattern.engine` build a
fresh :class:`~repro.pattern.engine._MatchContext` per call, which is
right for one-shot queries but wasteful for the repeated-check workloads
the FD layer runs (index maintenance, guarded batches, revalidation
streams): every call re-derives reachability and existence facts for
document regions that did not change.

:class:`PatternMatcher` owns one context per ``(template, document)``
pair and keeps it warm across calls.  It registers itself as an edit
listener (:mod:`repro.xmlmodel.edit`), so a ``replace_subtree`` on its
document triggers *node-scoped* invalidation — entries under the
replaced subtree are dropped, ancestor-path entries are repaired by
rescanning only the replacement — instead of a full teardown.  Inserts
and deletes shift sibling indices, which cached reachability lists
embed, so those fall back to a full context reset.

Mutating the document while a mapping generator obtained from this
matcher is partially consumed is not supported (the generator may then
mix pre- and post-edit facts); exhaust or drop generators before
editing, as the FD index does.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import PatternError
from repro.obs.trace import current_tracer
from repro.pattern.engine import _MatchContext, _root_of
from repro.pattern.mapping import Mapping
from repro.pattern.template import (
    ROOT_POSITION,
    RegularTreePattern,
    RegularTreeTemplate,
)
from repro.xmlmodel.edit import register_edit_listener, unregister_edit_listener
from repro.xmlmodel.tree import XMLDocument, XMLNode


class PatternMatcher:
    """Reusable matching engine for one pattern over one document.

    Exposes the same query surface as the module-level functions —
    :meth:`has_mapping`, :meth:`enumerate_mappings`,
    :meth:`enumerate_mappings_touching` — but shares one match context
    across all calls, invalidating it precisely on edits.
    """

    def __init__(
        self,
        pattern: RegularTreePattern | RegularTreeTemplate,
        document: XMLDocument | XMLNode,
    ) -> None:
        if isinstance(pattern, RegularTreePattern):
            self.pattern: RegularTreePattern | None = pattern
            self.template = pattern.template
        else:
            self.pattern = None
            self.template = pattern
        self.document = document
        self._root = _root_of(document)
        self._context = _MatchContext(self.template)
        self._edits_absorbed = 0
        self._resets = 0
        # resolved once: a matcher lives as long as its document, so it
        # keeps whatever tracer was installed when it was built
        self._tracer = current_tracer()
        register_edit_listener(self)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def has_mapping(self) -> bool:
        """Is there at least one mapping? (memoized existence check)"""
        return self._context.subtree_embeds(ROOT_POSITION, self._root)

    def enumerate_mappings(self) -> Iterator[Mapping]:
        """Yield every mapping of the template on the document."""
        for images in self._context.enumerate(ROOT_POSITION, self._root):
            yield Mapping(self.template, images)

    def enumerate_mappings_touching(
        self, region_root: XMLNode
    ) -> Iterator[Mapping]:
        """Yield the mappings with >= 1 image inside ``region_root``'s subtree."""
        for images in self._context.enumerate_touching(self._root, region_root):
            yield Mapping(self.template, images)

    def selected_node_tuples(self) -> list[tuple[XMLNode, ...]]:
        """Distinct selected-image tuples, in first-found order."""
        if self.pattern is None:
            raise PatternError(
                "selected_node_tuples needs a pattern, not a bare template"
            )
        seen: set[tuple[int, ...]] = set()
        result: list[tuple[XMLNode, ...]] = []
        for mapping in self.enumerate_mappings():
            tuple_nodes = mapping.selected_images(self.pattern)
            key = tuple(id(node) for node in tuple_nodes)
            if key not in seen:
                seen.add(key)
                result.append(tuple_nodes)
        return result

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def _owns(self, attached: XMLNode) -> bool:
        return attached.root() is self._root

    def subtree_replaced(self, old_root: XMLNode, new_root: XMLNode) -> None:
        """Edit-listener hook: precise repair around a replacement."""
        if not self._owns(new_root):
            return
        self._context.repair_replacement(old_root, new_root)
        self._edits_absorbed += 1
        if self._tracer.enabled:
            self._tracer.event(
                "matcher.repair", {"edits_absorbed": self._edits_absorbed}
            )

    def subtree_inserted(self, node: XMLNode) -> None:
        """Edit-listener hook: sibling indices shifted — full reset."""
        if not self._owns(node):
            return
        self.invalidate()

    def subtree_deleted(self, old_root: XMLNode, parent: XMLNode) -> None:
        """Edit-listener hook: sibling indices shifted — full reset."""
        if not self._owns(parent):
            return
        self.invalidate()

    def invalidate(self) -> None:
        """Drop every cached fact (safe catch-all for untracked changes)."""
        self._context.reset()
        self._resets += 1
        if self._tracer.enabled:
            self._tracer.event("matcher.reset", {"resets": self._resets})

    def close(self) -> None:
        """Unsubscribe from edit notifications and drop the caches.

        Garbage collection achieves the same (the listener registry is
        weak); ``close`` just makes teardown deterministic.
        """
        unregister_edit_listener(self)
        self._context.reset()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict[str, int]:
        """Context hit/miss/invalidation counters plus edit accounting."""
        stats = self._context.stats()
        stats["edits_absorbed"] = self._edits_absorbed
        stats["resets"] = self._resets
        return stats

    def __enter__(self) -> "PatternMatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self._context.stats()
        return (
            f"<PatternMatcher {len(self.template.nodes)} template nodes, "
            f"{stats['hits']} hits / {stats['misses']} misses, "
            f"{self._edits_absorbed} edits absorbed>"
        )
