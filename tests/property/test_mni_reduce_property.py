"""The FSM apps' array ``reduce`` against the set-based merge it replaced.

Each drawn case runs FSM or vertex FSM on a random graph, keeps every
aggregated level's embeddings, cuts each level into 1–8 random parts
(empty ones included) and folds every part through the app's
``map_block``.  ``reduce_domains`` over those parts must equal folding
the same parts' domains, as ``SetMNIDomains``, in part order with
``merge_set_domains``: insertion order, domains, ``frozen`` flags and
supports; the app's ``reduce`` must equal that fold's frequent patterns
(Listing 1's PatternFilter), the same way; then the prune mask — over
the group hashes and row groups ``reduce`` took from the parts, whose
gather is checked against one ``hash_pattern`` per row — and the
``FSMResult`` read from the reduced map.  Each level also folds as one
part, whose ``reduce_domains`` must be that part's state without its
``rows``.  The budget is the hypothesis profile's, so the ``deep``
profile runs it longer; the module imports nothing from ``tests`` (a
second import of ``tests/conftest.py`` would reload the tier-1 profile
for the whole session).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import FrequentSubgraphMining, KaleidoEngine
from repro.apps.fsm_vertex import VertexInducedFSM
from repro.apps.mni import mni_state, reduce_domains
from repro.baselines.mni_sets import SetMNIDomains, merge_set_domains
from repro.core import Pattern
from repro.graph import GraphBuilder


def _graph(seed: int, vertices: int, edges: int, labels: int, edge_labels: int):
    """A seeded random labelled graph, edge-labelled when ``edge_labels``."""
    rng = np.random.default_rng(seed)
    pairs = {(min(u, v), max(u, v)) for u, v in rng.integers(vertices, size=(edges, 2)).tolist()}
    builder = GraphBuilder(vertices)
    builder.add_edges(sorted((u, v) for u, v in pairs if u != v))
    builder.set_labels(rng.integers(labels, size=vertices).tolist())
    graph = builder.build(name=f"reduce-{seed}")
    if edge_labels:
        graph = graph.with_edge_labels(rng.integers(edge_labels, size=graph.num_edges))
    return graph


class _LevelRecorder:
    """Keeps each aggregated level's embeddings (its parts in order) and
    the engine context."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.levels: list[np.ndarray] = []
        self._parts: list[np.ndarray] = []
        self.ctx = None

    def map_block(self, ctx, block, pmap):
        self.ctx = ctx
        self._parts.append(np.array(block, copy=True))
        super().map_block(ctx, block, pmap)

    def reduce(self, ctx, pmaps):
        self.levels.append(np.concatenate(self._parts))
        self._parts = []
        return super().reduce(ctx, pmaps)


class RecordingFSM(_LevelRecorder, FrequentSubgraphMining):
    pass


class RecordingVFSM(_LevelRecorder, VertexInducedFSM):
    pass


def _as_sets(pmap: dict) -> dict:
    out = {}
    for phash, dom in pmap.items():
        copy = out[phash] = SetMNIDomains(len(dom.domains))
        copy.domains = dom.domains
        copy.frozen = dom.frozen
    return out


def set_fold(parts: list[dict], threshold: int | None) -> tuple[dict, set[str]]:
    """Fold the parts' set domains in order, as the set-based Reducer did;
    also names the freeze events seen: ``"first"`` — a group frozen in
    its first part that appears in a later one — and ``"middle"`` — a
    group no part froze whose union reaches the threshold before its
    last part."""
    merged: dict = {}
    last = {phash: p for p, pmap in enumerate(parts) for phash in pmap}
    events = set()
    for p, pmap in enumerate(parts):
        for phash, dom in pmap.items():
            mine = merged.get(phash)
            if mine is None:
                merged[phash] = dom
                if dom.frozen and last[phash] > p:
                    events.add("first")
                continue
            was = mine.frozen
            merge_set_domains(mine, dom, threshold)
            if mine.frozen and not was and not dom.frozen and last[phash] > p:
                events.add("middle")
    return merged, events


def row_hashes(ctx, block: np.ndarray, edge_induced: bool) -> np.ndarray:
    """Each row's pattern hash, one ``hash_pattern`` call per row."""
    hashes = []
    if edge_induced:
        eu, ev = ctx.edge_index.edge_u.tolist(), ctx.edge_index.edge_v.tolist()
    for row in block.tolist():
        if edge_induced:
            pattern = Pattern.from_edge_embedding(ctx.graph, [(eu[e], ev[e]) for e in row])
        else:
            pattern = Pattern.from_vertex_embedding(ctx.graph, row)
        hashes.append(ctx.hash_pattern(pattern))
    return np.array(hashes, dtype=np.uint64)


def check_one_part(app, ctx, block: np.ndarray, threshold: int | None) -> None:
    """``reduce_domains`` of one part — alone, or among empty parts — is
    that part's state, field for field, without ``rows``; in both modes."""
    whole: dict = {}
    app.map_block(ctx, block, whole)
    part = mni_state(whole)
    for pmaps in ([whole], [{}, whole, {}]):
        reduced = reduce_domains(pmaps, threshold)
        assert list(reduced) == list(whole)
        state = mni_state(reduced)
        if part is None:
            assert state is None
            continue
        assert state.rows is None
        assert part.rows is not None and part.rows.shape[0] == block.shape[0]
        assert (state.kmax, state.n) == (part.kmax, part.n)
        for name in ("hashes", "sizes", "keys", "frozen", "support"):
            mine, theirs = getattr(state, name), getattr(part, name)
            assert mine.dtype == theirs.dtype, name
            np.testing.assert_array_equal(mine, theirs, err_msg=name)


def check_case(case: dict) -> set[str]:
    """Run one case; returns the freeze events the set fold saw."""
    graph = _graph(
        case["seed"], case["vertices"], case["edges"], case["labels"], case["edge_labels"]
    )
    support, exact = case["support"], case["exact_mni"]
    if case["app"] == "vfsm":
        make = lambda cls: cls(case["size"] + 1, support, exact)  # noqa: E731
        recorder, fresh = make(RecordingVFSM), make(VertexInducedFSM)
    else:
        make = lambda cls: cls(case["size"], support, exact)  # noqa: E731
        recorder, fresh = make(RecordingFSM), make(FrequentSubgraphMining)
    with KaleidoEngine(graph) as engine:
        engine.run(recorder)
    ctx = recorder.ctx
    rng = np.random.default_rng(case["split_seed"])
    threshold = None if exact else support
    events: set[str] = set()
    for block in recorder.levels:
        cuts = np.sort(rng.integers(0, block.shape[0] + 1, size=case["parts"] - 1))
        bounds = [0, *cuts.tolist(), block.shape[0]]
        pmaps = []
        for lo, hi in zip(bounds, bounds[1:]):
            pmap: dict = {}
            fresh.map_block(ctx, block[lo:hi], pmap)
            pmaps.append(pmap)
        merged, seen = set_fold([_as_sets(pmap) for pmap in pmaps], threshold)
        events |= seen
        check_one_part(fresh, ctx, block, threshold)
        unfiltered = reduce_domains(pmaps, threshold)
        assert list(unfiltered) == list(merged)
        assert unfiltered == merged
        assert [d.support for d in unfiltered.values()] == [
            d.support for d in merged.values()
        ]
        want = {h: d for h, d in merged.items() if d.support >= support}
        got = fresh.reduce(ctx, pmaps)
        assert list(got) == list(want)
        assert got == want
        assert [d.support for d in got.values()] == [d.support for d in want.values()]
        assert [d.frozen for d in got.values()] == [d.frozen for d in want.values()]
        # Prune reads the reduced supports and each part's group hashes
        # and row groups, which reduce took from the parts: the groups'
        # hashes gathered by row are the rows' pattern hashes.
        rows = row_hashes(ctx, block, case["app"] == "fsm")
        taken = fresh._iter_rows
        assert len(taken) == sum(1 for pmap in pmaps if pmap)
        if taken:
            by_row = np.concatenate([hashes[groups] for hashes, groups in taken])
            assert by_row.tolist() == rows.tolist()
        mask = fresh.prune(ctx, None, got)
        frequent = [h for h, d in want.items() if d.support >= support]
        keep = np.isin(rows, np.array(frequent, dtype=np.uint64))
        assert (mask is None) == bool(keep.all())
        if mask is not None:
            assert mask.tolist() == keep.tolist()
        result = fresh.finalize(ctx, None, got)
        # A short-circuited support reads "at least the threshold".
        assert dict(result) == {
            h: d.support if threshold is None else min(d.support, threshold)
            for h, d in want.items()
            if d.support >= support
        }
        assert list(result) == frequent
    return events


CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "vertices": st.integers(6, 16),
        "edges": st.integers(8, 32),
        "labels": st.integers(1, 3),
        "edge_labels": st.sampled_from([0, 2]),
        "app": st.sampled_from(["fsm", "vfsm"]),
        "size": st.integers(1, 3),
        "support": st.integers(1, 5),
        "exact_mni": st.booleans(),
        "parts": st.integers(1, 8),
        "split_seed": st.integers(0, 2**32 - 1),
    }
)


@given(CASES)
def test_array_reduce_matches_set_merge(case):
    check_case(case)


BASE = {
    "seed": 11,
    "vertices": 20,
    "edges": 50,
    "labels": 2,
    "edge_labels": 0,
    "size": 2,
    "support": 3,
    "exact_mni": False,
    "parts": 6,
    "split_seed": 2,
}


@pytest.mark.parametrize("app", ["fsm", "vfsm"])
@pytest.mark.parametrize("edge_labels", [0, 2])
def test_groups_freeze_in_their_first_and_in_a_middle_part(app, edge_labels):
    """Some group is frozen by its first part and appears again later, and
    some group no part froze reaches the threshold by a middle part; the
    array reduce must stop both exactly where the set merge does."""
    events = check_case(dict(BASE, app=app, edge_labels=edge_labels))
    assert events == {"first", "middle"}
