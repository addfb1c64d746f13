"""Set-based MNI domains, as the baselines count them.

Arabesque and RStream patternise and place one embedding at a time, and
keep each pattern's per-position domains as Python sets: one
:meth:`SetMNIDomains.add` per automorphic placement, and
:func:`merge_set_domains` to union two parts' domains.  Kaleido's FSM
apps keep the same domains as sorted int64 arrays
(:class:`repro.apps.mni.MNIState`) and must equal this class exactly; the
tests use it as their per-row oracle.
"""

from __future__ import annotations

__all__ = ["SetMNIDomains", "merge_set_domains", "edge_pattern_supports"]


class SetMNIDomains:
    """Per-position distinct-vertex domains of one pattern."""

    __slots__ = ("domains", "frozen")

    def __init__(self, k: int) -> None:
        self.domains: list[set[int]] = [set() for _ in range(k)]
        #: True once the short-circuit threshold was reached.
        self.frozen = False

    def add(self, vertices_by_position: tuple[int, ...], threshold: int | None) -> int:
        """Record one embedding's vertices (already in normalised order).

        With a ``threshold``, counting freezes as soon as every domain
        holds at least ``threshold`` vertices (the paper's short-circuit).
        Returns the number of set insertions performed — the Figure-11
        benchmark uses the total as a deterministic cost proxy.
        """
        if self.frozen:
            return 0
        inserted = 0
        for domain, vertex in zip(self.domains, vertices_by_position):
            before = len(domain)
            domain.add(vertex)
            inserted += len(domain) - before
        if threshold is not None and all(
            len(domain) >= threshold for domain in self.domains
        ):
            self.frozen = True
        return inserted

    @property
    def support(self) -> int:
        """Current (possibly short-circuited lower-bound) support."""
        if not self.domains:
            return 0
        return min(len(domain) for domain in self.domains)

    @property
    def nbytes(self) -> int:
        """Accounted size: set overhead + 28 bytes per stored int."""
        return sum(64 + 28 * len(domain) for domain in self.domains)

    def __eq__(self, other: object) -> bool:
        """Value equality over the recorded domains (the executor parity
        tests compare whole pattern maps); the array views compare with
        this class from their side."""
        if not isinstance(other, SetMNIDomains):
            return NotImplemented
        return self.domains == other.domains and self.frozen == other.frozen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SetMNIDomains(support={self.support}, frozen={self.frozen})"


def merge_set_domains(
    into: SetMNIDomains, other: SetMNIDomains, threshold: int | None
) -> SetMNIDomains:
    """Union per-position domains (the Reducer side of MNI counting)."""
    if into.frozen:
        return into
    for mine, theirs in zip(into.domains, other.domains):
        mine.update(theirs)
    if other.frozen or (
        threshold is not None
        and all(len(domain) >= threshold for domain in into.domains)
    ):
        into.frozen = True
    return into


def edge_pattern_supports(graph) -> dict[tuple[int, int, int], SetMNIDomains]:
    """MNI domains of every single-edge pattern.

    Keys are ``(label_u, label_v, edge_label)`` with the vertex labels
    ordered; the edge label is 0 for edge-unlabeled graphs.
    :func:`repro.apps.fsm.frequent_edge_mask` thresholds the same supports
    with array operations."""
    supports: dict[tuple[int, int, int], SetMNIDomains] = {}
    eu, ev = graph.edge_arrays()
    labels = graph.labels
    elabels = (
        graph.edge_labels.tolist()
        if graph.has_edge_labels
        else [0] * eu.shape[0]
    )
    for u, v, elab in zip(eu.tolist(), ev.tolist(), elabels):
        lu, lv = int(labels[u]), int(labels[v])
        if lu > lv:
            lu, lv = lv, lu
            u, v = v, u
        key = (lu, lv, int(elab))
        dom = supports.get(key)
        if dom is None:
            dom = supports[key] = SetMNIDomains(2)
        dom.domains[0].add(u)
        dom.domains[1].add(v)
        if lu == lv:
            # Either endpoint can play either role when labels tie.
            dom.domains[0].add(v)
            dom.domains[1].add(u)
    return supports
