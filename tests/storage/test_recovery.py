"""Mid-run crash recovery: kill at every level boundary and resume.

The acceptance bar: for every iteration boundary of a run in hybrid
(spill) mode, simulating a crash right after the checkpoint lands and
resuming with a fresh engine + application must reproduce the exact
pattern map of an uninterrupted run.
"""

import json
import os

import numpy as np
import pytest

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
)
from repro.apps.fsm import MNIApplication
from repro.baselines.mni_sets import SetMNIDomains
from repro.errors import StorageError
from repro.storage import RunCheckpoint, save_cse
from repro.core import CSE
from repro.core import engine as engine_module
from repro.core.cse import InMemoryLevel


class _SimulatedCrash(BaseException):
    """Not an Exception: nothing in the engine may swallow the kill."""


def _run(graph, app, tmp_path, name, **kwargs):
    with KaleidoEngine(
        graph, storage_mode="spill-last", spill_dir=str(tmp_path / name), **kwargs
    ) as engine:
        return engine.run(app)


def _crash_at(boundary):
    def on_checkpoint(iteration, path):
        if iteration == boundary:
            raise _SimulatedCrash

    return on_checkpoint


def _kill_and_resume(graph, make_app, tmp_path, label, boundary, resume_app=None):
    """Crash right after checkpoint ``boundary`` lands, then resume."""
    ckpt = tmp_path / f"ckpt-{label}-{boundary}"
    with pytest.raises(_SimulatedCrash):
        with KaleidoEngine(
            graph,
            storage_mode="spill-last",
            spill_dir=str(tmp_path / f"spill-{label}-{boundary}-a"),
            checkpoint_dir=str(ckpt),
            on_checkpoint=_crash_at(boundary),
        ) as engine:
            engine.run(make_app())
    with KaleidoEngine(
        graph,
        storage_mode="spill-last",
        spill_dir=str(tmp_path / f"spill-{label}-{boundary}-b"),
        checkpoint_dir=str(ckpt),
    ) as engine:
        return engine.run(
            make_app() if resume_app is None else resume_app, resume=True
        )


@pytest.mark.slow
def test_fsm_kill_at_every_level(tmp_path, labeled_square):
    make_app = lambda: FrequentSubgraphMining(num_edges=3, support=1)
    straight_app = make_app()
    straight = _run(labeled_square, straight_app, tmp_path, "fsm-straight")
    boundaries = range(make_app().iterations())
    assert len(list(boundaries)) >= 2  # the kill sweep must cover >1 level
    for boundary in boundaries:
        resumed_app = make_app()
        resumed = _kill_and_resume(
            labeled_square, make_app, tmp_path, "fsm", boundary,
            resume_app=resumed_app,
        )
        assert resumed.pattern_map == straight.pattern_map, (
            f"pattern map diverged after crash at iteration {boundary}"
        )
        assert resumed.extra["resumed_from_level"] == boundary
        # The resumed FSM also restored its cross-iteration cost counters.
        assert resumed_app.total_insertions == straight_app.total_insertions


@pytest.mark.slow
def test_motif_kill_at_every_level_hybrid(tmp_path, paper_graph):
    make_app = lambda: MotifCounting(4)
    straight = _run(paper_graph, make_app(), tmp_path, "motif-straight")
    for boundary in range(make_app().iterations()):
        resumed = _kill_and_resume(paper_graph, make_app, tmp_path, "motif", boundary)
        assert resumed.pattern_map == straight.pattern_map
        assert resumed.value == straight.value
        assert resumed.extra["resumed_from_level"] == boundary


def test_resumed_run_trace_shows_restore_and_no_replayed_levels(
    tmp_path, paper_graph
):
    """The resumed run's trace proves recovery actually skipped work.

    It must contain exactly one ``checkpoint-restore`` instant naming the
    restored iteration, and its ``level`` spans must cover only the
    iterations *after* the checkpoint — an already-checkpointed level
    reappearing as a span would mean the engine silently recomputed it.
    The resumed pattern map equals an uninterrupted run's.
    """
    from repro.obs import Tracer

    make_app = lambda: MotifCounting(4)
    boundary = 0
    total_iterations = make_app().iterations()
    ckpt = tmp_path / "ckpt-trace"
    with pytest.raises(_SimulatedCrash):
        with KaleidoEngine(
            paper_graph,
            storage_mode="spill-last",
            spill_dir=str(tmp_path / "spill-trace-a"),
            checkpoint_dir=str(ckpt),
            on_checkpoint=_crash_at(boundary),
        ) as engine:
            engine.run(make_app())

    tracer = Tracer()
    with KaleidoEngine(
        paper_graph,
        storage_mode="spill-last",
        spill_dir=str(tmp_path / "spill-trace-b"),
        checkpoint_dir=str(ckpt),
        tracer=tracer,
    ) as engine:
        resumed = engine.run(make_app(), resume=True)
    assert resumed.extra["resumed_from_level"] == boundary
    assert resumed.pattern_map == KaleidoEngine(paper_graph).run(make_app()).pattern_map

    events = tracer.events
    restores = [e for e in events if e.name == "checkpoint-restore"]
    assert len(restores) == 1
    assert restores[0].kind == "instant"
    assert restores[0].args["iteration"] == boundary

    level_indices = [
        e.args["index"] for e in events if e.kind == "begin" and e.name == "level"
    ]
    assert level_indices == list(range(boundary + 1, total_iterations)), (
        "resumed trace must span only the not-yet-checkpointed levels"
    )
    assert len(level_indices) == len(set(level_indices))  # no duplicates
    # The restore landed before any level work started.
    first_level_ts = min(
        e.ts for e in events if e.kind == "begin" and e.name == "level"
    )
    assert restores[0].ts <= first_level_ts


def test_resume_with_empty_checkpoint_dir_starts_fresh(tmp_path, paper_graph):
    straight = KaleidoEngine(paper_graph).run(MotifCounting(3))
    with KaleidoEngine(
        paper_graph, checkpoint_dir=str(tmp_path / "empty")
    ) as engine:
        result = engine.run(MotifCounting(3), resume=True)
    assert result.extra["resumed_from_level"] is None
    assert result.pattern_map == straight.pattern_map


def test_resume_without_checkpoint_dir_raises(paper_graph):
    with pytest.raises(ValueError, match="checkpoint_dir"):
        KaleidoEngine(paper_graph).run(MotifCounting(3), resume=True)


def test_resume_rejects_other_apps_checkpoint(tmp_path, paper_graph):
    ckpt = str(tmp_path / "ckpt")
    with KaleidoEngine(paper_graph, checkpoint_dir=ckpt) as engine:
        engine.run(MotifCounting(3))
    with KaleidoEngine(paper_graph, checkpoint_dir=ckpt) as engine:
        with pytest.raises(StorageError, match="belongs to"):
            engine.run(CliqueDiscovery(3), resume=True)


def test_resume_refuses_version_2_fsm_checkpoint(tmp_path, labeled_square, monkeypatch):
    """A run-state blob from before the array MNI state (version 2, whose
    reduced map held set-based domains) is refused with a StorageError
    before anything reaches the array reduce."""
    ckpt = str(tmp_path / "ckpt")
    monkeypatch.setattr(engine_module, "_RUN_STATE_VERSION", 2)
    old_reduce = MNIApplication.reduce

    def set_reduce(self, ctx, pmaps):
        # What a version-2 run pickled: one set-based domain per pattern.
        reduced = {}
        for phash, dom in old_reduce(self, ctx, pmaps).items():
            copy = reduced[phash] = SetMNIDomains(len(dom.domains))
            copy.domains, copy.frozen = dom.domains, dom.frozen
        return reduced

    monkeypatch.setattr(MNIApplication, "reduce", set_reduce)
    monkeypatch.setattr(MNIApplication, "prune", lambda self, ctx, cse, reduced: None)
    monkeypatch.setattr(MNIApplication, "finalize", lambda self, ctx, cse, pmap: pmap)
    monkeypatch.setattr(MNIApplication, "pmap_nbytes", lambda self, pmap: 0)
    with KaleidoEngine(labeled_square, checkpoint_dir=ckpt) as engine:
        engine.run(FrequentSubgraphMining(num_edges=3, support=1))
    monkeypatch.undo()

    calls = []
    monkeypatch.setattr(
        MNIApplication, "reduce", lambda self, ctx, pmaps: calls.append(pmaps) or {}
    )
    with KaleidoEngine(labeled_square, checkpoint_dir=ckpt) as engine:
        with pytest.raises(StorageError, match="unsupported run-state version 2"):
            engine.run(FrequentSubgraphMining(num_edges=3, support=1), resume=True)
    assert calls == []


def test_resume_rejects_mismatched_roots(tmp_path, paper_graph, labeled_square):
    ckpt = str(tmp_path / "ckpt")
    with KaleidoEngine(paper_graph, checkpoint_dir=ckpt) as engine:
        engine.run(MotifCounting(3))
    with KaleidoEngine(labeled_square, checkpoint_dir=ckpt) as engine:
        with pytest.raises(StorageError, match="root level"):
            engine.run(MotifCounting(3), resume=True)


def test_checkpoints_written_counter(tmp_path, paper_graph):
    with KaleidoEngine(
        paper_graph, checkpoint_dir=str(tmp_path / "ckpt")
    ) as engine:
        result = engine.run(MotifCounting(4))
    assert result.extra["checkpoints_written"] == MotifCounting(4).iterations()
    assert result.extra["checkpoint_failures"] == 0


def test_checkpoint_every_skips_iterations(tmp_path, paper_graph):
    with KaleidoEngine(
        paper_graph, checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=2
    ) as engine:
        result = engine.run(MotifCounting(4))
    # Two iterations, checkpoint only after the second (index 1).
    assert result.extra["checkpoints_written"] == 1
    assert sorted(os.listdir(tmp_path / "ckpt")) == ["level-001"]


def test_checkpoint_failure_does_not_abort_run(tmp_path, paper_graph, monkeypatch):
    straight = KaleidoEngine(paper_graph).run(MotifCounting(4))

    def broken_save(self, iteration, cse, state):
        raise StorageError("injected checkpoint failure")

    monkeypatch.setattr(RunCheckpoint, "save", broken_save)
    with KaleidoEngine(
        paper_graph, checkpoint_dir=str(tmp_path / "ckpt")
    ) as engine:
        result = engine.run(MotifCounting(4))
    assert result.pattern_map == straight.pattern_map
    assert result.extra["checkpoints_written"] == 0
    assert result.extra["checkpoint_failures"] == MotifCounting(4).iterations()


def test_latest_skips_corrupt_deeper_checkpoint(tmp_path):
    ck = RunCheckpoint(tmp_path)
    ck.save(0, CSE([1, 2, 3]), b"shallow")
    ck.save(1, CSE([1, 2, 3]), b"deep")
    # Corrupt the deeper level's manifest: resume must fall back to 0.
    manifest = os.path.join(ck.level_path(1), "cse_manifest.json")
    with open(manifest, "w") as fh:
        fh.write("{not json")
    iteration, cse, state = ck.latest()
    assert iteration == 0
    assert state == b"shallow"
    assert cse.levels[0].vert_array().tolist() == [1, 2, 3]


def test_latest_skips_checkpoint_with_corrupt_state_blob(tmp_path):
    ck = RunCheckpoint(tmp_path)
    ck.save(0, CSE([1, 2, 3]), b"shallow")
    ck.save(1, CSE([1, 2, 3]), b"deep")
    manifest_path = os.path.join(ck.level_path(1), "cse_manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    state_file = manifest["state"][0]
    with open(os.path.join(ck.level_path(1), state_file), "wb") as fh:
        fh.write(b"garbage that fails the crc")
    iteration, _cse, state = ck.latest()
    assert iteration == 0 and state == b"shallow"


def test_collect_garbage_removes_crash_debris(tmp_path):
    ck = RunCheckpoint(tmp_path)
    ck.save(0, CSE([1, 2, 3]), b"state")
    # Crash debris: a temp file, an unreferenced array inside the valid
    # level, and a torn level directory with no readable manifest.
    (tmp_path / "junk.tmp").write_bytes(b"torn write")
    (tmp_path / "level-000" / "stray-deadbeef.npy").write_bytes(b"orphan")
    torn = tmp_path / "level-001"
    torn.mkdir()
    (torn / "level0_vert-cafe.npy").write_bytes(b"half a file")
    removed = RunCheckpoint(tmp_path).collect_garbage()
    assert removed == 3
    assert not (tmp_path / "junk.tmp").exists()
    assert not torn.exists()
    assert not (tmp_path / "level-000" / "stray-deadbeef.npy").exists()
    # The valid checkpoint survived intact.
    iteration, cse, state = RunCheckpoint(tmp_path).latest()
    assert iteration == 0 and state == b"state"
    assert cse.levels[0].vert_array().tolist() == [1, 2, 3]


def test_crash_mid_save_leaves_previous_checkpoint_loadable(tmp_path, monkeypatch):
    from repro.storage import PartStore

    directory = tmp_path / "ckpt"
    save_cse(CSE([1, 2, 3]), directory)

    real_write_payload = PartStore._write_payload

    def dies_on_manifest(self, path, payload):
        if path.endswith("cse_manifest.json"):
            raise OSError("simulated crash before the manifest rename")
        real_write_payload(self, path, payload)

    monkeypatch.setattr(PartStore, "_write_payload", dies_on_manifest)
    cse = CSE([9, 9, 9])
    cse.append_level(
        InMemoryLevel(
            np.array([5], dtype=np.int32), np.array([0, 1, 1, 1], dtype=np.int64)
        )
    )
    with pytest.raises(OSError):
        save_cse(cse, directory)
    monkeypatch.undo()
    # The old manifest still references the old arrays — nothing was GCed
    # because the new manifest never became durable.
    from repro.storage import load_cse

    loaded = load_cse(directory)
    assert loaded.depth == 1
    assert loaded.levels[0].vert_array().tolist() == [1, 2, 3]


def _hubs_low_graph():
    """A graph not in ascending-degree order, so clique runs explore a
    relabelled view of it."""
    from repro.graph.generators import chung_lu

    graph = chung_lu(40, 160, 5)
    assert graph.degree_ordered() is not graph
    return graph


@pytest.mark.parametrize("boundary", [0, 1])
def test_clique_kill_and_resume_on_a_relabelled_graph(tmp_path, boundary):
    graph = _hubs_low_graph()
    make_app = lambda: CliqueDiscovery(4, materialize=True)
    straight = _run(graph, make_app(), tmp_path, "clique-straight")
    resumed = _kill_and_resume(graph, make_app, tmp_path, "clique", boundary)
    assert resumed.extra["resumed_from_level"] == boundary
    assert resumed.pattern_map == straight.pattern_map
    assert resumed.level_sizes == straight.level_sizes
    assert resumed.value.cliques == straight.value.cliques
    assert straight.value.count > 0


def test_resume_refuses_a_level_explored_in_another_id_order(tmp_path, monkeypatch):
    """Both id orders seed roots 0..n-1, so the roots check alone would
    take a level written over the input's ids; the recorded fingerprint
    of the explored graph refuses it."""
    from repro.graph import Graph

    graph = _hubs_low_graph()
    input_fingerprint = graph.fingerprint()
    ckpt = str(tmp_path / "ckpt")
    # What a run that explored the input's own id order records.
    monkeypatch.setattr(Graph, "fingerprint", lambda self: input_fingerprint)
    with KaleidoEngine(graph, checkpoint_dir=ckpt) as engine:
        engine.run(CliqueDiscovery(4))
    monkeypatch.undo()
    with KaleidoEngine(graph, checkpoint_dir=ckpt) as engine:
        with pytest.raises(StorageError, match="another id order"):
            engine.run(CliqueDiscovery(4), resume=True)
