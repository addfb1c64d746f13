"""The folded last level: mapped as it is produced, never stored.

Every run whose application does not aggregate every iteration maps the
last level inside its expansion parts, one kernel chunk at a time; the
level is counted in ``level_sizes`` but never written, decoded or kept,
and the iteration's checkpoint holds the reduced map instead of it.
"""

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro import CliqueDiscovery, KaleidoEngine, MiningApplication, MotifCounting
from repro.core import CSE, kernels
from repro.core.explore import expand_vertex_level
from repro.errors import StorageError
from repro.graph import chung_lu
from repro.storage import PartStore
from tests.oracles import OracleExecutor


class BlockShapes(MiningApplication):
    """Counts the connected 4-vertex subgraphs and records, per part, the
    largest block and the number of blocks ``map_block`` received."""

    def iterations(self):
        return 3

    def map_block(self, ctx, block, pmap):
        pmap["rows"] = pmap.get("rows", 0) + block.shape[0]
        pmap["calls"] = pmap.get("calls", 0) + 1
        pmap["largest"] = max(pmap.get("largest", 0), block.shape[0])
        pmap["width"] = block.shape[1]

    def reduce(self, ctx, pmaps):
        return {
            "rows": sum(p.get("rows", 0) for p in pmaps),
            "calls": sum(p.get("calls", 0) for p in pmaps),
            "largest": max((p.get("largest", 0) for p in pmaps), default=0),
            "width": max((p.get("width", 0) for p in pmaps), default=0),
            "parts": sum(1 for p in pmaps if p),
        }


def test_folded_mapper_sees_chunk_bounded_blocks(monkeypatch):
    """A last level of many kernel chunks reaches ``map_block`` one chunk
    at a time: no block holds more children than the pair budget, and
    together they are the whole level.  The oracle executor maps each
    part's children in one call."""
    graph = chung_lu(60, 200, 3)
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 256)
    # No single parent gathers past the budget, so every chunk is cut by it.
    assert 4 * int(graph.degrees().max()) < kernels.PAIR_BUDGET
    with KaleidoEngine(graph, workers=2) as engine:
        folded = engine.run(BlockShapes())
    with KaleidoEngine(graph, workers=2, executor=OracleExecutor()) as engine:
        oracle = engine.run(BlockShapes())
    level = folded.level_sizes[-1]
    assert folded.level_sizes == oracle.level_sizes
    assert level > 20 * kernels.PAIR_BUDGET
    assert folded.pattern_map["rows"] == oracle.pattern_map["rows"] == level
    assert folded.pattern_map["width"] == 4
    assert folded.pattern_map["largest"] <= kernels.PAIR_BUDGET
    assert folded.pattern_map["calls"] >= level // kernels.PAIR_BUDGET
    # One call per non-empty part on the oracle: a whole part at once.
    assert oracle.pattern_map["calls"] == oracle.pattern_map["parts"]
    assert oracle.pattern_map["largest"] > kernels.PAIR_BUDGET


def test_spill_last_clique_writes_only_its_intermediate_levels(tmp_path, monkeypatch):
    """Under spill-last a 4-clique run writes the parts of its two stored
    levels (edges and triangles) and nothing of its last level."""
    saves = []
    real_save = PartStore.save

    def save(self, array, tag="part"):
        saves.append((tag, array.shape[0]))
        return real_save(self, array, tag)

    monkeypatch.setattr(PartStore, "save", save)
    graph = chung_lu(80, 300, 3)
    with KaleidoEngine(graph, storage_mode="spill-last", spill_dir=str(tmp_path)) as engine:
        result = engine.run(CliqueDiscovery(4))
    memory = KaleidoEngine(graph, storage_mode="memory").run(CliqueDiscovery(4))
    assert result.level_sizes == memory.level_sizes
    assert result.value.count == memory.value.count == result.level_sizes[-1] > 0
    assert result.extra["spilled_levels"] == 2
    entries: dict[str, int] = {}
    for tag, count in saves:
        entries[tag] = entries.get(tag, 0) + count
    # The stored levels 1 and 2 are spilled whole; level 3 is never written.
    assert entries == {"vert2": result.level_sizes[1], "vert3": result.level_sizes[2]}
    writes = [event for event in engine.io_stats.events if event.kind == "write"]
    assert len(writes) == len(saves)
    assert result.io_bytes_written == sum(event.nbytes for event in writes)


class _Kill(BaseException):
    """Not an Exception: nothing in the engine may swallow the kill."""


def _kill_at(boundary):
    def on_checkpoint(iteration, path):
        if iteration == boundary:
            raise _Kill

    return on_checkpoint


@pytest.mark.parametrize(
    "make_app",
    [lambda: MotifCounting(4), lambda: CliqueDiscovery(4, materialize=True)],
    ids=["motif", "clique-materialize"],
)
@pytest.mark.parametrize("storage_mode", ["memory", "spill-last"])
def test_resume_after_the_folded_checkpoint_explores_nothing(
    tmp_path, monkeypatch, make_app, storage_mode
):
    """Killed right after the last iteration's checkpoint, a resumed run
    returns the straight run's answer and level sizes from the checkpoint
    alone: it plans and expands no level."""
    graph = chung_lu(80, 300, 3)
    kwargs = dict(storage_mode=storage_mode, spill_dir=str(tmp_path / "spill"))
    straight = KaleidoEngine(graph, **kwargs).run(make_app())
    ckpt = str(tmp_path / "ckpt")
    last = make_app().iterations() - 1
    with pytest.raises(_Kill):
        with KaleidoEngine(
            graph, checkpoint_dir=ckpt, on_checkpoint=_kill_at(last), **kwargs
        ) as engine:
            engine.run(make_app())

    def no_expansion(*args, **kwargs):
        raise AssertionError("a resume from the folded checkpoint explored a level")

    monkeypatch.setattr(engine_module, "expand_vertex_level", no_expansion)
    with KaleidoEngine(graph, checkpoint_dir=ckpt, **kwargs) as engine:
        resumed = engine.run(make_app(), resume=True)
    assert resumed.extra["resumed_from_level"] == last
    assert resumed.level_sizes == straight.level_sizes
    assert resumed.pattern_map == straight.pattern_map
    if isinstance(straight.value, dict):
        assert dict(resumed.value) == dict(straight.value)
    else:
        assert resumed.value.count == straight.value.count
        assert resumed.value.cliques == straight.value.cliques
        assert len(straight.value.cliques) == straight.level_sizes[-1] > 0
    assert resumed.extra["spilled_levels"] == straight.extra["spilled_levels"]


def test_materialized_resume_rejects_a_counting_checkpoint(tmp_path):
    """``materialize`` is not in the app name, so the resume checks it:
    the counting run's checkpoint holds no cliques to return."""
    graph = chung_lu(80, 300, 3)
    ckpt = str(tmp_path / "ckpt")
    with KaleidoEngine(graph, checkpoint_dir=ckpt) as engine:
        engine.run(CliqueDiscovery(4))
    with KaleidoEngine(graph, checkpoint_dir=ckpt) as engine:
        with pytest.raises(StorageError, match="materialize=False, not materialize=True"):
            engine.run(CliqueDiscovery(4, materialize=True), resume=True)
        # The same setting resumes.
        resumed = engine.run(CliqueDiscovery(4), resume=True)
    assert resumed.pattern_map == KaleidoEngine(graph).run(CliqueDiscovery(4)).pattern_map


def test_folded_level_is_not_accounted_as_stored():
    """The meter's ``cse`` entry never holds the last level: a 4-Motif run
    accounts exactly its roots and its stored 2-embeddings."""
    graph = chung_lu(80, 300, 3)
    result = KaleidoEngine(graph, storage_mode="memory").run(MotifCounting(4))
    stored = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    expand_vertex_level(graph, stored)
    assert result.level_sizes[:2] == [stored.size(0), stored.size(1)]
    assert result.memory_snapshot["cse"] == stored.nbytes_in_memory
