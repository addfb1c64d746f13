"""Exact labeled graph isomorphism for small patterns.

Used as ground truth in tests and wherever the EigenHash guarantee does not
apply (embeddings with 9+ vertices).  Two entry points:

* :func:`canonical_key` — an exact canonical form: the lexicographically
  smallest ``(labels, bits)`` over all permutations consistent with the
  ``(label, degree)`` sort, which is a complete isomorphism invariant.
* :func:`automorphisms` — every automorphism of a pattern, as a permutation.
"""

from __future__ import annotations

from itertools import permutations

from .pattern import Pattern

__all__ = [
    "canonical_key",
    "canonical_form",
    "pattern_from_key",
    "CanonicalKey",
    "automorphisms",
]


def _sort_groups(pattern: Pattern) -> list[list[int]]:
    """Positions grouped by their (label, degree) sort key, keys ascending."""
    degrees = pattern.degree_sequence()
    keyed = sorted(range(pattern.num_vertices), key=lambda i: (pattern.labels[i], degrees[i]))
    groups: list[list[int]] = []
    prev_key: tuple[int, int] | None = None
    for pos in keyed:
        key = (pattern.labels[pos], degrees[pos])
        if key != prev_key:
            groups.append([])
            prev_key = key
        groups[-1].append(pos)
    return groups


def _group_permutations(groups: list[list[int]]):
    """Yield full permutations composed of independent within-group ones."""

    def rec(idx: int, prefix: list[int]):
        if idx == len(groups):
            yield tuple(prefix)
            return
        for sub in permutations(groups[idx]):
            yield from rec(idx + 1, prefix + list(sub))

    yield from rec(0, [])


#: Canonical key: (vertex labels, adjacency bitmap, edge labels or ()).
CanonicalKey = tuple[tuple[int, ...], int, tuple[int, ...]]


def _key_of(pattern: Pattern) -> CanonicalKey:
    return (pattern.labels, pattern.bits, pattern.edge_labels or ())


def pattern_from_key(key: CanonicalKey) -> Pattern:
    """Rebuild the pattern a canonical key describes."""
    labels, bits, edge_labels = key
    return Pattern(labels, bits, tuple(edge_labels) if edge_labels else None)


def canonical_key(pattern: Pattern) -> CanonicalKey:
    """Exact canonical form ``(labels, bits, edge_labels)`` of a pattern.

    Any isomorphism preserves labels and degrees, so minimising over the
    permutations that respect the (label, degree) grouping covers every
    isomorphic relabeling; the minimum is therefore a complete invariant.
    Worst case is factorial in the largest tie group, which is tiny for
    mining-sized patterns (k <= 8).
    """
    return canonical_form(pattern)[0]


def canonical_form(pattern: Pattern) -> tuple[CanonicalKey, tuple[int, ...]]:
    """Canonical key plus the witnessing permutation.

    The permutation ``perm`` satisfies ``pattern.permute(perm) ==
    pattern_from_key(key)`` — i.e. canonical position ``t`` corresponds to
    original position ``perm[t]``.  The MNI counter needs the witness to
    map embedding vertices onto canonical positions consistently across
    all automorphic raw structures.
    """
    groups = _sort_groups(pattern)
    best: CanonicalKey | None = None
    best_perm: tuple[int, ...] | None = None
    for perm in _group_permutations(groups):
        candidate = pattern.permute(perm)
        key = _key_of(candidate)
        if best is None or key < best:
            best = key
            best_perm = perm
    assert best is not None and best_perm is not None
    return best, best_perm


def automorphisms(pattern: Pattern) -> list[tuple[int, ...]]:
    """All automorphisms of the pattern, as permutations ``perm`` with
    ``pattern.permute(perm) == pattern``.

    Candidates are restricted to (label, degree)-preserving permutations,
    which every automorphism must be.  Used by the FSM MNI counter: a
    vertex observed at position ``t`` is also a valid image of every
    position in ``t``'s automorphism orbit.
    """
    perms: list[tuple[int, ...]] = []
    keyed = sorted(
        range(pattern.num_vertices),
        key=lambda i: (pattern.labels[i], pattern.degree_sequence()[i]),
    )
    # Group positions (not sort-destinations) by key for identity-preserving
    # permutations of the *original* index space.
    degrees = pattern.degree_sequence()
    by_key: dict[tuple[int, int], list[int]] = {}
    for pos in keyed:
        by_key.setdefault((pattern.labels[pos], degrees[pos]), []).append(pos)
    groups = [by_key[k] for k in sorted(by_key)]

    def rec(idx: int, mapping: dict[int, int]) -> None:
        if idx == len(groups):
            perm = [0] * pattern.num_vertices
            for src, dst in mapping.items():
                perm[src] = dst
            tperm = tuple(perm)
            if pattern.permute(tperm) == pattern:
                perms.append(tperm)
            return
        group = groups[idx]
        for sub in permutations(group):
            nxt = dict(mapping)
            for src, dst in zip(group, sub):
                nxt[src] = dst
            rec(idx + 1, nxt)

    rec(0, {})
    return perms
