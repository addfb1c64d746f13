"""Checkpoints are manifests over ``PartStore`` parts.

Spilled parts and the levels an earlier checkpoint of the same run holds
are hard-linked, never rewritten; a save holds no more than the arrays it
writes; a resumed spill-last run reopens its on-disk levels on disk and
reports the straight run's spills and memory; checkpoint write failures
are counted, not fatal, and leave no partial level directory behind.
"""

import errno
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MiningApplication,
    MotifCounting,
    Pattern,
)
from repro.apps import PatternMatching, VertexInducedFSM
from repro.errors import DiskFullError, StorageError
from repro.graph import chung_lu
from repro.storage import PartStore, RetryPolicy, RunCheckpoint, load_cse


class _Kill(BaseException):
    """Not an Exception: nothing in the engine may swallow the kill."""


def _kill_at(boundary):
    def on_checkpoint(iteration, path):
        if iteration == boundary:
            raise _Kill

    return on_checkpoint


class _RowCount(MiningApplication):
    """Counts the connected 4-vertex subgraphs: three stored levels and
    an O(1) mapper over the folded fourth."""

    def iterations(self):
        return 3

    def map_block(self, ctx, block, pmap):
        pmap[0] = pmap.get(0, 0) + block.shape[0]


def _manifests(ckpt):
    for name in sorted(os.listdir(ckpt)):
        with open(os.path.join(ckpt, name, "cse_manifest.json")) as fh:
            yield os.path.join(ckpt, name), json.load(fh)


@pytest.mark.parametrize("storage_mode", ["memory", "spill-last"])
def test_levels_two_manifests_reference_share_one_inode(tmp_path, storage_mode):
    ckpt = tmp_path / "ckpt"
    with KaleidoEngine(
        chung_lu(80, 300, 3),
        storage_mode=storage_mode,
        spill_dir=str(tmp_path / "spill"),
        checkpoint_dir=str(ckpt),
    ) as engine:
        result = engine.run(CliqueDiscovery(4))
    assert result.extra["checkpoints_written"] == 3
    inodes: dict[str, list[int]] = {}
    for path, manifest in _manifests(ckpt):
        for entry in manifest["levels"]:
            for record in entry["parts"] + [entry["off"]]:
                if record is not None:
                    inode = os.stat(os.path.join(path, record[0])).st_ino
                    inodes.setdefault(record[0], []).append(inode)
    shared = {name: found for name, found in inodes.items() if len(found) >= 2}
    # At least the root's part and levels 1-2's vert and off parts.
    assert len(shared) >= 5
    assert all(len(set(found)) == 1 for found in shared.values())


def test_save_holds_only_the_arrays_it_writes(tmp_path, monkeypatch):
    """Linking a spilled level costs no RAM: each save's tracemalloc peak
    stays within twice what it writes (+64 KiB), far below the level."""
    real_save = RunCheckpoint.save
    saves = []

    def traced_save(self, iteration, cse, state):
        before = self.bytes_written
        tracemalloc.start()
        try:
            path = real_save(self, iteration, cse, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        top = cse.levels[-1]
        saves.append((peak, self.bytes_written - before, top.nbytes_on_disk))
        return path

    monkeypatch.setattr(RunCheckpoint, "save", traced_save)
    with KaleidoEngine(
        chung_lu(200, 900, 3),
        storage_mode="spill-last",
        spill_dir=str(tmp_path / "spill"),
        checkpoint_dir=str(tmp_path / "ckpt"),
    ) as engine:
        # Its stored 3-vertex level is the one 4-Motif used to spill last.
        engine.run(_RowCount())
    assert len(saves) == 3
    for peak, written, _ in saves:
        assert peak <= 2 * written + 64 * 1024
    peak, _, spilled = saves[-1]
    assert spilled > 64 * 1024 and peak < spilled


def _resume_pair(make_app, spill_root, ckpt, boundary, checkpoint_every=1):
    """(straight run, run killed after checkpoint ``boundary`` and resumed),
    spill-last on ``chung_lu(80, 300, 3)``."""
    graph = chung_lu(80, 300, 3)

    def engine(name, **kwargs):
        return KaleidoEngine(
            graph,
            storage_mode="spill-last",
            spill_dir=str(spill_root / name),
            checkpoint_every=checkpoint_every,
            **kwargs,
        )

    with engine("straight") as straight_engine:
        straight = straight_engine.run(make_app())
    ckpt = str(ckpt)
    with pytest.raises(_Kill):
        with engine("killed", checkpoint_dir=ckpt, on_checkpoint=_kill_at(boundary)) as e:
            e.run(make_app())
    with engine("resumed", checkpoint_dir=ckpt) as e:
        resumed = e.run(make_app(), resume=True)
    return straight, resumed


@pytest.mark.parametrize("boundary", [0, 1])
def test_resumed_spill_run_reopens_levels_on_disk(tmp_path, boundary):
    straight, resumed = _resume_pair(
        lambda: CliqueDiscovery(4), tmp_path, tmp_path / "ckpt", boundary
    )
    assert resumed.extra["resumed_from_level"] == boundary
    assert resumed.pattern_map == straight.pattern_map
    assert resumed.level_sizes == straight.level_sizes
    for key in ("spilled_levels", "demoted_levels"):
        assert resumed.extra[key] == straight.extra[key]
    assert resumed.memory_snapshot["cse"] == straight.memory_snapshot["cse"]
    assert resumed.peak_memory_bytes <= straight.peak_memory_bytes
    # The resumed run dropped its links, never the checkpoint's files.
    assert not list((tmp_path / "resumed").glob("*.npy"))
    ck = RunCheckpoint(tmp_path / "ckpt")
    assert load_cse(ck.level_path(boundary)).depth == boundary + 2
    assert ck.latest()[0] == CliqueDiscovery(4).iterations() - 1


def test_restore_failure_leaves_nothing_in_the_store(tmp_path):
    ckpt = tmp_path / "ckpt"
    with KaleidoEngine(
        chung_lu(60, 200, 3),
        storage_mode="spill-last",
        spill_dir=str(tmp_path / "spill"),
        checkpoint_dir=str(ckpt),
    ) as engine:
        engine.run(MotifCounting(4))
    path, manifest = list(_manifests(ckpt))[-1]
    manifest["levels"][-1]["count"] += 1
    with open(os.path.join(path, "cse_manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    store = PartStore(str(tmp_path / "restore"))
    with pytest.raises(StorageError, match="manifest says"):
        load_cse(path, store)
    assert not list((tmp_path / "restore").glob("*.npy"))


def _fail_checkpoint_writes(monkeypatch, ckpt, error, times=None, manifest_only=False):
    real_write = PartStore._write_payload
    failures = []

    def write(self, path, payload):
        hit = path.startswith(str(ckpt)) and (
            not manifest_only or path.endswith("cse_manifest.json")
        )
        if hit and (times is None or len(failures) < times):
            failures.append(path)
            raise OSError(error, os.strerror(error))
        real_write(self, path, payload)

    monkeypatch.setattr(PartStore, "_write_payload", write)
    return failures


@pytest.mark.parametrize("manifest_only", [False, True], ids=["part", "manifest"])
def test_disk_full_checkpoint_is_counted_not_fatal(tmp_path, monkeypatch, manifest_only):
    graph = chung_lu(60, 200, 3)
    straight = KaleidoEngine(graph).run(MotifCounting(4))
    ckpt = tmp_path / "ckpt"
    failures = _fail_checkpoint_writes(
        monkeypatch, ckpt, errno.ENOSPC, manifest_only=manifest_only
    )
    with KaleidoEngine(graph, storage_mode="memory", checkpoint_dir=str(ckpt)) as engine:
        result = engine.run(MotifCounting(4))
    assert failures
    assert result.pattern_map == straight.pattern_map
    assert result.extra["checkpoint_failures"] == MotifCounting(4).iterations()
    assert result.extra["checkpoints_written"] == 0
    assert RunCheckpoint(ckpt).latest() is None


def test_transient_checkpoint_write_is_retried(tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt"
    failures = _fail_checkpoint_writes(monkeypatch, ckpt, errno.EIO, times=1)
    with KaleidoEngine(
        chung_lu(60, 200, 3),
        checkpoint_dir=str(ckpt),
        io_retry=RetryPolicy(attempts=3, base_delay=0.0),
    ) as engine:
        result = engine.run(MotifCounting(4))
    assert len(failures) == 1
    assert result.extra["checkpoints_written"] == MotifCounting(4).iterations()
    assert result.extra["checkpoint_failures"] == 0
    assert result.extra["checkpoint_bytes_written"] > 0
    assert engine.metrics.counter("checkpoint.bytes_written").value == (
        result.extra["checkpoint_bytes_written"]
    )


def test_stale_deeper_checkpoint_does_not_block_resume(tmp_path):
    graph = chung_lu(60, 200, 3)
    ckpt = str(tmp_path / "ckpt")
    with KaleidoEngine(graph, checkpoint_dir=ckpt) as engine:
        engine.run(MotifCounting(4))
    assert sorted(os.listdir(ckpt)) == ["level-000", "level-001"]
    with pytest.raises(_Kill):
        with KaleidoEngine(graph, checkpoint_dir=ckpt, on_checkpoint=_kill_at(0)) as engine:
            engine.run(CliqueDiscovery(3))
    with KaleidoEngine(graph, checkpoint_dir=ckpt) as engine:
        resumed = engine.run(CliqueDiscovery(3), resume=True)
    assert resumed.extra["resumed_from_level"] == 0
    assert resumed.pattern_map == KaleidoEngine(graph).run(CliqueDiscovery(3)).pattern_map


def test_matching_resume_rejects_another_patterns_checkpoint(tmp_path):
    graph = chung_lu(80, 300, 3)
    triangle = Pattern.from_adjacency([0, 0, 0], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    wedge = Pattern.from_adjacency([0, 0, 0], [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert PatternMatching(triangle).name != PatternMatching(wedge).name
    ckpt = str(tmp_path / "ckpt")
    with KaleidoEngine(graph, checkpoint_dir=ckpt) as engine:
        engine.run(PatternMatching(triangle))
    with KaleidoEngine(graph, checkpoint_dir=ckpt) as engine:
        with pytest.raises(StorageError, match="belongs to"):
            engine.run(PatternMatching(wedge), resume=True)


def test_cross_device_checkpoint_copies_parts(tmp_path):
    """``os.link`` really raises EXDEV: spill parts on ``/dev/shm``,
    checkpoints under ``tmp_path``."""
    if not os.path.isdir("/dev/shm") or (
        os.stat("/dev/shm").st_dev == os.stat(tmp_path).st_dev
    ):
        pytest.skip("needs /dev/shm on another device than tmp_path")
    ckpt = tmp_path / "ckpt"
    with tempfile.TemporaryDirectory(dir="/dev/shm") as shm:
        # The resumed run re-explores stored level 4 and checkpoints it
        # with the folded last iteration (iteration 3): no later
        # checkpoint links its parts.
        straight, resumed = _resume_pair(
            lambda: CliqueDiscovery(5), Path(shm), ckpt, boundary=1, checkpoint_every=2
        )
        assert not list(Path(shm).glob("*/*.npy"))
    assert resumed.pattern_map == straight.pattern_map
    assert resumed.extra["spilled_levels"] == straight.extra["spilled_levels"]
    # The deepest level was copied across devices, not linked.
    path, manifest = list(_manifests(ckpt))[-1]
    for record in manifest["levels"][-1]["parts"]:
        assert os.stat(os.path.join(path, record[0])).st_nlink == 1


def test_link_failure_falls_back_to_a_checked_copy(tmp_path, monkeypatch):
    def no_links(src, dst, **kwargs):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

    monkeypatch.setattr(os, "link", no_links)
    straight, resumed = _resume_pair(
        lambda: CliqueDiscovery(4), tmp_path, tmp_path / "ckpt", boundary=1
    )
    assert resumed.pattern_map == straight.pattern_map
    assert resumed.extra["spilled_levels"] == straight.extra["spilled_levels"]
    # Copying the restored spilled levels back into the spill store costs
    # what spilling them cost the straight run; links would cost nothing.
    assert resumed.io_bytes_written == straight.io_bytes_written


def test_link_reuses_a_link_already_in_place(tmp_path):
    """A killed run leaves spill parts that are links to checkpoint parts;
    linking the same part again reuses the link instead of copying."""
    import numpy as np

    source = PartStore(str(tmp_path / "ckpt"))
    part = source.save(np.arange(100, dtype=np.int32))
    target = PartStore(str(tmp_path / "spill"))
    first, again = target.link(part), target.link(part)
    assert first == again and os.path.samefile(first.path, part.path)
    assert target.io.bytes_written == 0


@pytest.mark.parametrize(
    "make_app",
    [
        lambda exact: FrequentSubgraphMining(3, 3, exact_mni=exact),
        lambda exact: VertexInducedFSM(3, 3, exact_mni=exact),
    ],
    ids=["fsm", "vfsm"],
)
def test_exact_mni_resume_rejects_an_approximate_checkpoint(tmp_path, make_app):
    """``exact_mni`` changes the supports but not the name, so the resume
    checks it: an exact run must not continue from capped supports."""
    graph = chung_lu(120, 420, 3, num_labels=3)
    ckpt = str(tmp_path / "ckpt")
    with pytest.raises(_Kill):
        with KaleidoEngine(
            graph, checkpoint_dir=ckpt, checkpoint_every=1, on_checkpoint=_kill_at(1)
        ) as engine:
            engine.run(make_app(False))
    with KaleidoEngine(graph, checkpoint_dir=ckpt, checkpoint_every=1) as engine:
        with pytest.raises(StorageError, match="belongs to .* exact_mni=False, not exact_mni=True"):
            engine.run(make_app(True), resume=True)
        # The same setting resumes.
        resumed = engine.run(make_app(False), resume=True)
    assert resumed.extra["resumed_from_level"] == 1
    assert resumed.pattern_map == KaleidoEngine(graph).run(make_app(False)).pattern_map


def _fail_part_saves(monkeypatch, nth):
    """``PartStore.save`` raises ``DiskFullError`` on its ``nth`` call."""
    real_save = PartStore.save
    calls = []

    def save(self, array, tag="part"):
        calls.append(tag)
        if len(calls) == nth:
            raise DiskFullError("injected: no space left on device")
        return real_save(self, array, tag)

    monkeypatch.setattr(PartStore, "save", save)
    return calls


def test_failed_save_removes_its_partial_level_directory(tmp_path, monkeypatch):
    """Level 0's save writes the root, level 1's vert and off and the state
    blob (four saves); level 1's fails on its off part, after the links
    and the vert part landed, and must leave no ``level-001/`` behind.
    FSM stores its last level too, so no later checkpoint follows."""
    graph = chung_lu(60, 200, 3)
    ckpt = tmp_path / "ckpt"
    calls = _fail_part_saves(monkeypatch, nth=6)
    with KaleidoEngine(
        graph, storage_mode="memory", checkpoint_dir=str(ckpt), checkpoint_every=1
    ) as engine:
        result = engine.run(FrequentSubgraphMining(3, 2))
    assert calls[:6] == ["level0", "level1", "off1", "state", "level2", "off2"]
    assert result.extra["checkpoint_failures"] == 1
    assert result.extra["checkpoints_written"] == 1
    assert sorted(os.listdir(ckpt)) == ["level-000"]
    assert RunCheckpoint(ckpt).latest()[0] == 0


def test_failed_resave_sweeps_back_to_the_manifest_in_place(tmp_path, monkeypatch):
    """A failed save over an existing checkpoint (a second run's level 0,
    failing on its level-1 part) keeps that checkpoint and removes only
    the files it does not reference."""
    graph = chung_lu(300, 1400, 3)
    ckpt = tmp_path / "ckpt"
    with KaleidoEngine(graph, checkpoint_dir=str(ckpt)) as engine:
        engine.run(MotifCounting(4))
    before = sorted(os.listdir(ckpt / "level-000"))
    _fail_part_saves(monkeypatch, nth=2)
    with KaleidoEngine(graph, checkpoint_dir=str(ckpt)) as engine:
        assert engine.run(MotifCounting(4)).extra["checkpoint_failures"] == 1
    assert sorted(os.listdir(ckpt / "level-000")) == before
    assert load_cse(ckpt / "level-000").depth == 2
