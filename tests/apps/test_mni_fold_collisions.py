"""``fold_mni_block`` when two isomorphism classes share a pattern hash.

EigenHash has no collisions below nine vertices, so the fold's
renumbering of classes into hash groups is the identity in every real
run.  A hasher that ignores vertex labels makes classes that differ only
in their labels collide; the block mappers must then merge their domains
exactly as the per-row oracle does (one domain per hash, positions by
each class's canonical order, first steps kept), in every part map and
prune mask.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import KaleidoEngine
from repro.apps import mni
from repro.core import Pattern, PatternHasher
from tests.apps.test_fsm_block import BlockFSM, BlockVFSM, OracleFSM, OracleVFSM, _graph


class _LabelBlindHasher(PatternHasher):
    """Hashes every pattern and code row as if all its vertex labels were
    0, and records the distinct code rows it was handed."""

    def __init__(self) -> None:
        super().__init__()
        self.rows: set[tuple[int, ...]] = set()

    def hash_pattern(self, pattern: Pattern) -> int:
        blind = Pattern((0,) * pattern.num_vertices, pattern.bits, pattern.edge_labels)
        return super().hash_pattern(blind)

    def hash_codes(self, codes: np.ndarray, kmax: int) -> np.ndarray:
        self.rows.update(map(tuple, codes.tolist()))
        labels = codes[:, 1 : 1 + kmax]
        blind = codes.copy()
        blind[:, 1 : 1 + kmax] = np.where(labels >= 0, 0, labels)
        return super().hash_codes(blind, kmax)


def _run(graph, app):
    hasher = _LabelBlindHasher()
    with KaleidoEngine(graph, hasher=hasher) as engine:
        return engine.run(app), hasher


@pytest.mark.parametrize("app", ["fsm", "vfsm"])
@pytest.mark.parametrize("edge_labels", [0, 2])
@pytest.mark.parametrize("exact_mni", [False, True])
@pytest.mark.parametrize("slab_rows", [3, mni.SLAB_ROWS])
def test_colliding_classes_merge_like_the_oracle(app, edge_labels, exact_mni, slab_rows):
    graph = _graph(11, 20, 50, 3, edge_labels)
    if app == "fsm":
        block_app, oracle_app = BlockFSM(3, 2, exact_mni), OracleFSM(3, 2, exact_mni)
    else:
        block_app, oracle_app = BlockVFSM(3, 2, exact_mni), OracleVFSM(3, 2, exact_mni)
    with mock.patch.object(mni, "SLAB_ROWS", slab_rows):
        got, hasher = _run(graph, block_app)
    want, _ = _run(graph, oracle_app)
    # The block mappers hand the hasher one canonical row per class; fewer
    # distinct hashes than distinct rows means the label-blind hasher
    # really merged classes.
    hashes = {h for level in block_app.part_maps for pmap in level for h in pmap}
    assert len(hashes) < len(hasher.rows)
    assert got.level_sizes == want.level_sizes
    assert dict(got.value) == dict(want.value)
    assert len(block_app.part_maps) == len(oracle_app.part_maps)
    for mine, theirs in zip(block_app.part_maps, oracle_app.part_maps):
        assert [list(p) for p in mine] == [list(p) for p in theirs]
        assert mine == theirs
    for mine, theirs in zip(block_app.masks, oracle_app.masks):
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert np.array_equal(mine, theirs)
