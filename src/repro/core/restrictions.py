"""Symmetry-breaking restriction compilation (GraphZero, PAPERS.md).

A pattern with a non-trivial automorphism group is found once per
automorphic relabeling unless the enumeration breaks the symmetry.
GraphZero's observation is that the entire Definition-2 canonical filter
can be replaced by a small *partial order* over pattern-vertex ids — a
handful of ``<`` comparisons — derived from the automorphism group, and
that those comparisons can be *fused into candidate generation* as range
constraints instead of running as a post-hoc filter.

:func:`compile_restrictions` turns a query
:class:`~repro.core.pattern.Pattern` into a minimal
:class:`RestrictionSet` via the stabilizer-chain construction: walk
positions in ascending order, emit ``p < q`` for every other member
``q`` of ``p``'s orbit under the *remaining* group, then shrink the
group to the stabilizer of ``p``.  A transitive reduction keeps the set
minimal.  The defining property (hypothesis-tested): for any injective
assignment of data vertices to pattern positions, **exactly one** member
of its automorphism orbit satisfies the set.  For a complete query
pattern whose set is the chain ``0 < 1 < ... < k-1``,
:func:`pattern_gathers` turns each position's slice
(:meth:`RestrictionSet.constraints_at`) into a :class:`PatternGather`,
which the planner attaches to that level's
:class:`~repro.core.plan.LevelPlan`; any other pattern's levels carry
none.

The engine's generic Definition-2 canonical order — the symmetry-breaking
rule the *all-subgraph* enumeration uses, of which the pattern sets here
are the per-pattern specialisation — needs no compiled form: it is a
pure function of the exploration mode and the embedding depth, so the
one expansion kernel (:func:`repro.core.kernels.expand_block`) derives
its fused gather bounds itself.  The scalar loops
(:mod:`repro.core.explore`, ``use_kernels=False``) keep the post-hoc
canonical filter as the independent parity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .isomorphism import automorphisms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pattern import Pattern

__all__ = [
    "Restriction",
    "RestrictionSet",
    "LevelConstraint",
    "PatternGather",
    "compile_restrictions",
    "pattern_gathers",
]


# ----------------------------------------------------------------------
# Pattern layer: automorphism-derived partial orders
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Restriction:
    """One partial-order constraint: the data vertex bound to position
    ``smaller`` must have a smaller id than the one bound to ``larger``.

    The stabilizer-chain construction only ever emits ``smaller <
    larger`` as *positions* too, so restriction endpoints are always
    ascending position pairs.
    """

    smaller: int
    larger: int


@dataclass(frozen=True)
class LevelConstraint:
    """The ordering constraints binding one pattern position.

    When exploration binds position ``d`` (level ``d + 1`` of the CSE),
    the candidate's id must exceed every already-bound column in
    ``lower_cols`` and stay below every column in ``upper_cols``.  With
    the stabilizer-chain construction ``upper_cols`` is always empty
    (restrictions point forward), but the split stays general so
    hand-built sets round-trip too.
    """

    position: int
    lower_cols: tuple[int, ...]
    upper_cols: tuple[int, ...]


@dataclass(frozen=True)
class RestrictionSet:
    """A minimal symmetry-breaking partial order over pattern positions."""

    num_vertices: int
    restrictions: tuple[Restriction, ...]

    def __post_init__(self) -> None:
        for r in self.restrictions:
            if not 0 <= r.smaller < self.num_vertices:
                raise ValueError(f"restriction {r} out of range")
            if not 0 <= r.larger < self.num_vertices:
                raise ValueError(f"restriction {r} out of range")
            if r.smaller == r.larger:
                raise ValueError(f"restriction {r} is reflexive")

    def accepts(self, binding: Sequence[int]) -> bool:
        """Whether an assignment (position → data-vertex id) satisfies
        every restriction.  ``binding`` must cover all positions."""
        if len(binding) != self.num_vertices:
            raise ValueError(
                f"binding of length {len(binding)} for a "
                f"{self.num_vertices}-position restriction set"
            )
        return all(binding[r.smaller] < binding[r.larger] for r in self.restrictions)

    def constraints_at(self, position: int) -> LevelConstraint:
        """The constraints active when ``position`` is the one being bound
        (all positions below it already bound, in order)."""
        lower = tuple(
            sorted(r.smaller for r in self.restrictions if r.larger == position and r.smaller < position)
        )
        upper = tuple(
            sorted(r.larger for r in self.restrictions if r.smaller == position and r.larger < position)
        )
        return LevelConstraint(position=position, lower_cols=lower, upper_cols=upper)

    def level_constraints(self) -> tuple[LevelConstraint, ...]:
        """Per-position constraint split for positions ``1..k-1`` — the
        form a plan attaches so each expansion level carries exactly the
        comparisons its newly-bound vertex must satisfy."""
        return tuple(
            self.constraints_at(position) for position in range(1, self.num_vertices)
        )


class PatternGather(NamedTuple):
    """How one level of a complete query pattern gathers its candidates.

    The new vertex must be adjacent to every column in ``required_cols``
    and exceed every column in ``bound_cols``.  The kernel
    (:func:`repro.core.kernels.expand_block`) gathers the shortest
    bounded tail among the required columns' neighbor lists and probes
    the others; the scalar loops apply the same rule as a post-filter.
    """

    required_cols: tuple[int, ...]
    bound_cols: tuple[int, ...]


def pattern_gathers(
    pattern: "Pattern", rset: RestrictionSet
) -> dict[int, PatternGather]:
    """Per-position gather descriptors (key = the position a level binds,
    i.e. the CSE depth before the expansion), or ``{}`` unless the
    pattern is complete and ``rset`` is the chain ``0 < 1 < ... < k-1``
    — the one case in which the gather emits exactly the canonical
    expansion's all-adjacent survivors."""
    k = pattern.num_vertices
    chain = tuple(Restriction(p, p + 1) for p in range(k - 1))
    if pattern.num_edges != k * (k - 1) // 2 or rset.restrictions != chain:
        return {}
    return {
        position: PatternGather(
            tuple(j for j in range(position) if pattern.has_edge(j, position)),
            rset.constraints_at(position).lower_cols,
        )
        for position in range(1, k)
    }


def compile_restrictions(pattern: "Pattern") -> RestrictionSet:
    """GraphZero's symmetry-breaking construction for a query pattern.

    Walk positions in ascending order; for each position ``p``, emit
    ``p < q`` for every *other* member ``q`` of ``p``'s orbit under the
    group that remains after stabilizing all earlier positions, then
    reduce the group to the stabilizer of ``p``.  Because every earlier
    position is already fixed, orbit members are always ``> p``, so the
    emitted pairs form a DAG over ascending positions; a transitive
    reduction makes the set minimal.

    The construction guarantees exactly one representative per
    automorphism orbit: at each step the emitted comparisons pick the
    orbit member with the smallest data id for position ``p``, which
    pins down the coset of the stabilizer the surviving assignment lives
    in; induction over the chain leaves a single assignment.
    """
    k = pattern.num_vertices
    group = automorphisms(pattern)
    pairs: set[tuple[int, int]] = set()
    for p in range(k):
        orbit = sorted({perm[p] for perm in group})
        for q in orbit:
            if q != p:
                pairs.add((p, q))
        group = [perm for perm in group if perm[p] == p]
    reduced = _transitive_reduction(pairs, k)
    return RestrictionSet(
        num_vertices=k,
        restrictions=tuple(Restriction(a, b) for a, b in sorted(reduced)),
    )


def _transitive_reduction(pairs: set[tuple[int, int]], k: int) -> set[tuple[int, int]]:
    """Minimal edge set with the same transitive closure (DAG input)."""
    reach = [[False] * k for _ in range(k)]
    for a, b in pairs:
        reach[a][b] = True
    for mid in range(k):
        for a in range(k):
            if reach[a][mid]:
                row_a, row_m = reach[a], reach[mid]
                for b in range(k):
                    if row_m[b]:
                        row_a[b] = True
    kept: set[tuple[int, int]] = set()
    for a, b in pairs:
        redundant = any(
            mid != a and mid != b and reach[a][mid] and reach[mid][b]
            for mid in range(k)
        )
        if not redundant:
            kept.add((a, b))
    return kept
