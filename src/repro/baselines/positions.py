"""Per-embedding MNI placement for the baselines.

The baselines patternise and place one embedding at a time, as Arabesque
and RStream do; Kaleido's block mappers place a whole slab's distinct
codes with :func:`repro.apps.mni.canonical_placements` instead.
"""

from __future__ import annotations

from ..core.isomorphism import automorphisms, canonical_form, pattern_from_key
from ..core.pattern import Pattern

__all__ = ["PositionMapper"]


class PositionMapper:
    """Maps embedding vertices onto *canonical* pattern positions.

    MNI domains must use one consistent position space per pattern class.
    Raw structures of the same class can differ (first-appearance order
    varies across embeddings), so we canonicalise each raw structure once
    (cached) and keep the witnessing permutation; every embedding's
    vertices are then placed at canonical positions, and each automorphism
    of the canonical form contributes an additional valid placement (GraMi
    semantics — without this, supports of symmetric patterns are wrong).
    """

    def __init__(self) -> None:
        self._cache: dict[
            tuple[tuple[int, ...], int],
            tuple[tuple[int, ...], list[tuple[int, ...]]],
        ] = {}

    def placements(
        self, pattern: Pattern, structure_vertices: list[int]
    ) -> list[tuple[int, ...]]:
        """All canonical-position vertex assignments of one embedding."""
        key = (pattern.labels, pattern.bits, pattern.edge_labels)
        entry = self._cache.get(key)
        if entry is None:
            canon_key, perm = canonical_form(pattern)
            auts = automorphisms(pattern_from_key(canon_key))
            entry = self._cache[key] = (perm, auts)
        perm, auts = entry
        base = tuple(structure_vertices[p] for p in perm)
        return [tuple(base[a] for a in aut) for aut in auts]

    @property
    def nbytes(self) -> int:
        return 220 * len(self._cache)
