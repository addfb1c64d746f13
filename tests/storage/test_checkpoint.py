"""Unit tests for CSE checkpoint save/load."""

import json
import os

import numpy as np
import pytest

from repro.core import CSE
from repro.core.explore import expand_vertex_level
from repro.errors import StorageError
from repro.storage import PartStore, SpillingSink, load_cse, save_cse


def _explored(graph, depth=2):
    cse = CSE(np.arange(graph.num_vertices))
    for _ in range(depth):
        expand_vertex_level(graph, cse)
    return cse


def _manifest(directory):
    return json.loads((directory / "cse_manifest.json").read_text())


def _vert_file(directory, idx):
    """The one vertex part of resident level ``idx``, named by the manifest."""
    (record,) = _manifest(directory)["levels"][idx]["parts"]
    return directory / record[0]


def test_roundtrip(tmp_path, paper_graph):
    cse = _explored(paper_graph)
    save_cse(cse, tmp_path)
    loaded = load_cse(tmp_path)
    assert loaded.depth == cse.depth
    assert [e for _, e in loaded.iter_embeddings()] == [
        e for _, e in cse.iter_embeddings()
    ]


def test_resume_exploration(tmp_path, paper_graph):
    """Load a checkpoint and keep exploring — same result as uninterrupted."""
    cse = _explored(paper_graph, depth=1)
    save_cse(cse, tmp_path)
    resumed = load_cse(tmp_path)
    expand_vertex_level(paper_graph, resumed)
    straight = _explored(paper_graph, depth=2)
    assert [e for _, e in resumed.iter_embeddings()] == [
        e for _, e in straight.iter_embeddings()
    ]


def test_checkpoint_spilled_level(tmp_path, paper_graph):
    store = PartStore(str(tmp_path / "spill"))
    cse = CSE(np.arange(paper_graph.num_vertices))
    sink = SpillingSink(store)
    expand_vertex_level(paper_graph, cse, parts=[(0, 3), (3, 6)], sink=sink)
    save_cse(cse, tmp_path / "ckpt")
    loaded = load_cse(tmp_path / "ckpt")
    assert [e for _, e in loaded.iter_embeddings()] == [
        e for _, e in cse.iter_embeddings()
    ]


def test_root_only_checkpoint(tmp_path):
    cse = CSE([3, 1, 4])
    save_cse(cse, tmp_path)
    loaded = load_cse(tmp_path)
    assert loaded.levels[0].vert_array().tolist() == [3, 1, 4]


def test_missing_manifest(tmp_path):
    with pytest.raises(StorageError):
        load_cse(tmp_path)


def test_bad_version(tmp_path):
    (tmp_path / "cse_manifest.json").write_text(json.dumps({"version": 99}))
    with pytest.raises(StorageError):
        load_cse(tmp_path)


def test_missing_level_file(tmp_path, paper_graph):
    cse = _explored(paper_graph)
    save_cse(cse, tmp_path)
    os.remove(_vert_file(tmp_path, 1))
    with pytest.raises(StorageError):
        load_cse(tmp_path)


def test_overwrite_existing(tmp_path, paper_graph):
    save_cse(_explored(paper_graph, 1), tmp_path)
    save_cse(_explored(paper_graph, 2), tmp_path)
    assert load_cse(tmp_path).depth == 3


def test_overwrite_removes_stale_files(tmp_path, paper_graph):
    """The second save's GC leaves only files the new manifest references."""
    save_cse(_explored(paper_graph, 2), tmp_path)
    save_cse(_explored(paper_graph, 1), tmp_path)
    manifest = _manifest(tmp_path)
    referenced = {r[0] for e in manifest["levels"] for r in e["parts"]}
    referenced |= {e["off"][0] for e in manifest["levels"] if e["off"] is not None}
    on_disk = {p.name for p in tmp_path.glob("*.npy")}
    assert on_disk == referenced


def test_flipped_byte_fails_crc(tmp_path, paper_graph):
    from repro.errors import CorruptPartError

    save_cse(_explored(paper_graph), tmp_path)
    vert_file = _vert_file(tmp_path, 1)
    data = bytearray(vert_file.read_bytes())
    data[-1] ^= 0xFF
    vert_file.write_bytes(bytes(data))
    with pytest.raises(CorruptPartError):
        load_cse(tmp_path)


def _rewrite_off(tmp_path, mutate):
    """Replace level 1's off array (with a valid CRC) via ``mutate``."""
    import io
    import zlib

    manifest = _manifest(tmp_path)
    record = manifest["levels"][1]["off"]
    off = np.load(tmp_path / record[0])
    buffer = io.BytesIO()
    np.save(buffer, mutate(off), allow_pickle=False)
    payload = buffer.getvalue()
    (tmp_path / record[0]).write_bytes(payload)
    record[2], record[3] = len(payload), zlib.crc32(payload)
    (tmp_path / "cse_manifest.json").write_text(json.dumps(manifest))


def test_off_must_span_vert(tmp_path, paper_graph):
    save_cse(_explored(paper_graph), tmp_path)

    def grow_last(off):
        off = off.copy()
        off[-1] += 1
        return off

    _rewrite_off(tmp_path, grow_last)
    with pytest.raises(StorageError, match="off spans"):
        load_cse(tmp_path)


def test_off_must_be_monotone(tmp_path, paper_graph):
    save_cse(_explored(paper_graph), tmp_path)

    def swap_interior(off):
        off = off.copy()
        off[1], off[2] = off[2] + 1, off[1]
        return off

    _rewrite_off(tmp_path, swap_interior)
    with pytest.raises(StorageError, match="non-decreasing"):
        load_cse(tmp_path)


def test_off_must_start_at_zero(tmp_path, paper_graph):
    save_cse(_explored(paper_graph), tmp_path)

    def bump_first(off):
        off = off.copy()
        off[0] = 1
        return off

    _rewrite_off(tmp_path, bump_first)
    with pytest.raises(StorageError, match="starts at"):
        load_cse(tmp_path)


def test_manifest_count_mismatch(tmp_path, paper_graph):
    save_cse(_explored(paper_graph), tmp_path)
    manifest = json.loads((tmp_path / "cse_manifest.json").read_text())
    manifest["levels"][1]["count"] += 1
    (tmp_path / "cse_manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StorageError, match="manifest says"):
        load_cse(tmp_path)
