"""The FSM block mappers against the per-row mappers they replaced.

The oracle is the per-row Mapper both FSM apps ran before they mapped
whole blocks: patternise one embedding, hash it (through its own
raw-structure memo for edge-induced FSM), place its vertices with
``PositionMapper.placements`` and call ``SetMNIDomains.add`` once per
automorphic placement; its Reducer folds the parts' set domains in order
with ``merge_set_domains``, and its prune and result read the merged
sets.  The block mappers and the array reduce must reproduce every
per-part and every reduced pattern map (domains, ``frozen`` flags and
insertion order), the cost counters, the prune masks and the result
exactly, with one hasher miss per pattern class (one call per row under
``hash_every_embedding``) and no more hasher misses or cache bytes than
the oracle.
"""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FrequentSubgraphMining, KaleidoEngine
from repro.apps import mni
from repro.apps.fsm import FSMResult, frequent_edge_mask
from repro.apps.fsm_vertex import VertexInducedFSM
from repro.baselines.mni_sets import SetMNIDomains, edge_pattern_supports, merge_set_domains
from repro.baselines.positions import PositionMapper
from repro.core import Pattern, PatternHasher
from tests.conftest import random_labeled_graph


class _Recording:
    """Records the per-part pattern maps each ``reduce`` receives (before
    the set merge mutates them), the map it returns and every prune mask."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.part_maps: list[list[dict]] = []
        self.reduced_maps: list[dict] = []
        self.masks: list[np.ndarray | None] = []

    def reduce(self, ctx, pmaps):
        self.part_maps.append(copy.deepcopy(pmaps))
        reduced = super().reduce(ctx, pmaps)
        self.reduced_maps.append(copy.deepcopy(reduced))
        return reduced

    def prune(self, ctx, cse, reduced):
        mask = super().prune(ctx, cse, reduced)
        self.masks.append(None if mask is None else mask.copy())
        return mask


class _PartDomains(SetMNIDomains):
    """One pattern's set domains in one oracle part, plus what the block
    mappers' part ``MNIState`` carries: the part's rows that mapped to the
    pattern and the set insertions its placements made."""

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.rows: list[int] = []
        self.insertions = 0


class _PerRowOracle:
    """Per-row MNI fold shared by both oracles, over set domains, with the
    set-based reduce, prune, accounting and result; also records, per part
    and pattern, the rows at which its domains were first touched and
    frozen."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._positions = PositionMapper()
        self.freezes: list[tuple[int, int]] = []

    def _fold(self, pmap, rows) -> None:
        first_row: dict[int, int] = {}
        for row, (pattern, phash, structure_order) in enumerate(rows):
            dom = pmap.get(phash)
            if dom is None:
                dom = pmap[phash] = _PartDomains(len(structure_order))
                first_row[phash] = row
            was_frozen = dom.frozen
            for placement in self._positions.placements(pattern, structure_order):
                dom.insertions += dom.add(placement, self._threshold)
            if dom.frozen and not was_frozen:
                self.freezes.append((first_row[phash], row))
            dom.rows.append(row)

    def reduce(self, ctx, pmaps):
        self._iter_hashes = []
        for pmap in pmaps:
            # The part's row hashes, in row order, from its patterns' rows.
            by_row = sorted((row, phash) for phash, dom in pmap.items() for row in dom.rows)
            self._iter_hashes.append(np.array([phash for _, phash in by_row], dtype=np.uint64))
            self.total_insertions += sum(dom.insertions for dom in pmap.values())
            self.total_mapped += len(by_row)
        merged: dict = {}
        for pmap in pmaps:
            for phash, dom in pmap.items():
                mine = merged.get(phash)
                if mine is None:
                    merged[phash] = dom
                else:
                    merge_set_domains(mine, dom, self._threshold)
        return merged

    def prune(self, ctx, cse, reduced):
        frequent = [phash for phash, dom in reduced.items() if dom.support >= self.support]
        rows = np.concatenate(self._iter_hashes) if self._iter_hashes else np.zeros(0, np.uint64)
        self._iter_hashes = []
        keep = np.isin(rows, np.array(frequent, dtype=np.uint64))
        return None if keep.all() else keep

    def pmap_nbytes(self, pmap):
        return sum(120 + dom.nbytes for dom in pmap.values())

    def finalize(self, ctx, cse, pmap):
        supports = {h: dom.support for h, dom in pmap.items() if dom.support >= self.support}
        return FSMResult(supports, {})


class OracleFSM(_Recording, _PerRowOracle, FrequentSubgraphMining):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._memo: dict[tuple, int] = {}

    def map_block(self, ctx, block, pmap):
        eu, ev = ctx.edge_index.edge_u.tolist(), ctx.edge_index.edge_v.tolist()
        rows = []
        for embedding in block.tolist():
            edges = [(eu[eid], ev[eid]) for eid in embedding]
            pattern = Pattern.from_edge_embedding(ctx.graph, edges)
            if self.hash_every_embedding:
                phash = ctx.hash_pattern(pattern)
            else:
                raw_key = (pattern.labels, pattern.bits, pattern.edge_labels)
                phash = self._memo.get(raw_key)
                if phash is None:
                    phash = self._memo[raw_key] = ctx.hash_pattern(pattern)
            structure_order = list(dict.fromkeys(w for edge in edges for w in edge))
            rows.append((pattern, phash, structure_order))
        self._fold(pmap, rows)


class OracleVFSM(_Recording, _PerRowOracle, VertexInducedFSM):
    def map_block(self, ctx, block, pmap):
        rows = []
        for embedding in block.tolist():
            pattern = Pattern.from_vertex_embedding(ctx.graph, embedding)
            rows.append((pattern, ctx.hash_pattern(pattern), embedding))
        self._fold(pmap, rows)


class BlockFSM(_Recording, FrequentSubgraphMining):
    pass


class BlockVFSM(_Recording, VertexInducedFSM):
    pass


def _graph(seed: int, vertices: int, edges: int, labels: int, edge_labels: int):
    graph = random_labeled_graph(vertices, edges, labels, seed=seed)
    if edge_labels:
        rng = np.random.default_rng(seed + 1)
        graph = graph.with_edge_labels(rng.integers(edge_labels, size=graph.num_edges))
    return graph


def _run(graph, app, executor):
    hasher = PatternHasher()
    with KaleidoEngine(graph, workers=2, executor=executor, hasher=hasher) as engine:
        result = engine.run(app)
    return result, hasher


def _assert_same(app, block, ref, oracle, executor) -> None:
    got, got_hasher = block
    want, want_hasher = oracle
    assert got.level_sizes == want.level_sizes
    assert dict(got.value) == dict(want.value)
    assert len(app.part_maps) == len(ref.part_maps)
    for mine, theirs in zip(app.part_maps, ref.part_maps):
        assert [list(p) for p in mine] == [list(p) for p in theirs]
        assert mine == theirs
    assert len(app.reduced_maps) == len(ref.reduced_maps)
    for mine, theirs in zip(app.reduced_maps, ref.reduced_maps):
        assert list(mine) == list(theirs)
        assert mine == theirs
        assert [dom.support for dom in mine.values()] == [dom.support for dom in theirs.values()]
    assert len(app.masks) == len(ref.masks)
    for mine, theirs in zip(app.masks, ref.masks):
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert np.array_equal(mine, theirs)
    assert app.total_insertions == ref.total_insertions
    assert app.total_mapped == ref.total_mapped
    if executor == "serial":
        # Threads may race the oracle's memo into a duplicate hash call.
        # The block mappers hand the hasher one canonical row per class per
        # part, so each class misses once and its later parts hit; the
        # oracle hashes raw structures, which need not be canonical.
        if getattr(app, "hash_every_embedding", False):
            calls = got_hasher.hits + got_hasher.misses
            assert calls == want_hasher.hits + want_hasher.misses
        else:
            classes = {h for level in ref.part_maps for pmap in level for h in pmap}
            assert got_hasher.misses == len(classes) == len(got_hasher)
        assert got_hasher.misses <= want_hasher.misses
        assert got_hasher.nbytes <= want_hasher.nbytes


def check_config(config: dict) -> list[tuple[int, int]]:
    """Run one configuration through the block mapper and the oracle and
    assert they agree; returns the oracle's (first row, freeze row) pairs."""
    graph = _graph(
        config["seed"],
        config["vertices"],
        config["edges"],
        config["labels"],
        config["edge_labels"],
    )
    vertex_induced = config["app"] == "vfsm"
    if vertex_induced:
        args = (config["size"] + 1, config["support"], config["exact_mni"])
        block_app, oracle_app = BlockVFSM(*args), OracleVFSM(*args)
    else:
        args = (config["size"], config["support"], config["exact_mni"])
        kwargs = {"hash_every_embedding": config["hash_every_embedding"]}
        block_app, oracle_app = BlockFSM(*args, **kwargs), OracleFSM(*args, **kwargs)
    executor = config["executor"]
    with mock.patch.object(mni, "SLAB_ROWS", config["slab_rows"]):
        block = _run(graph, block_app, executor)
    oracle = _run(graph, oracle_app, executor)
    _assert_same(block_app, block, oracle_app, oracle, executor)
    return oracle_app.freezes


CONFIGS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "vertices": st.integers(8, 18),
        "edges": st.integers(12, 40),
        "labels": st.integers(1, 3),
        "edge_labels": st.sampled_from([0, 0, 2]),
        "app": st.sampled_from(["fsm", "vfsm"]),
        "size": st.integers(1, 4),
        "support": st.integers(1, 4),
        "exact_mni": st.booleans(),
        "hash_every_embedding": st.booleans(),
        "executor": st.sampled_from(["serial", "threads"]),
        "slab_rows": st.sampled_from([2, 3, 7, mni.SLAB_ROWS]),
    }
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(CONFIGS)
def test_block_mappers_match_per_row_oracle(config):
    check_config(config)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(CONFIGS)
def test_block_mappers_match_per_row_oracle_deep(config):
    check_config(config)


BASE = {
    "seed": 11,
    "vertices": 20,
    "edges": 50,
    "labels": 2,
    "edge_labels": 0,
    "size": 2,
    "support": 3,
    "exact_mni": False,
    "hash_every_embedding": False,
    "executor": "serial",
    "slab_rows": mni.SLAB_ROWS,
}


@pytest.mark.parametrize("app", ["fsm", "vfsm"])
@pytest.mark.parametrize("edge_labels", [0, 2])
@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_slab_boundary_splits_a_part_mid_freeze(app, edge_labels, executor):
    """With 4-row slabs, some pattern's domains start filling in one slab
    and freeze in a later one."""
    config = dict(BASE, app=app, edge_labels=edge_labels, executor=executor, slab_rows=4)
    freezes = check_config(config)
    assert any(first // 4 < frozen // 4 for first, frozen in freezes)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("edge_labels", [0, 2])
def test_exact_and_hash_every_embedding(size, edge_labels):
    for exact_mni in (False, True):
        for every in (False, True):
            check_config(
                dict(
                    BASE,
                    app="fsm",
                    size=size,
                    edge_labels=edge_labels,
                    exact_mni=exact_mni,
                    hash_every_embedding=every,
                )
            )


@pytest.mark.parametrize("app", ["fsm", "vfsm"])
@pytest.mark.parametrize("edge_labels", [0, 2])
def test_five_vertex_patterns(app, edge_labels):
    """Four edges (k <= 5) and five induced vertices place through the
    120-permutation table."""
    check_config(
        dict(BASE, app=app, size=4, edge_labels=edge_labels, vertices=14, edges=28, support=2)
    )


def test_hash_every_embedding_hashes_every_row():
    graph = _graph(5, 14, 30, 2, 0)
    app = FrequentSubgraphMining(2, 2, hash_every_embedding=True)
    _, hasher = _run(graph, app, "serial")
    assert hasher.hits + hasher.misses == app.total_mapped


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("edge_labels", [0, 2])
@pytest.mark.parametrize("support", [1, 2, 3, 5])
def test_frequent_edge_mask_matches_edge_supports(seed, edge_labels, support):
    graph = _graph(seed, 12, 26, 3, edge_labels)
    supports = edge_pattern_supports(graph)
    eu, ev = graph.edge_arrays()
    elabels = graph.edge_labels if edge_labels else np.zeros(eu.shape[0], dtype=int)
    expected = []
    for u, v, elab in zip(eu.tolist(), ev.tolist(), elabels.tolist()):
        lu, lv = sorted((int(graph.labels[u]), int(graph.labels[v])))
        expected.append(supports[(lu, lv, elab)].support >= support)
    mask = frequent_edge_mask(graph, support)
    assert mask.dtype == bool
    assert mask.tolist() == expected
