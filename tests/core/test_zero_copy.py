"""Zero-copy process execution: pool reuse, pickle size, segment hygiene."""

import pickle
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest

from repro.apps import MotifCounting
from repro.core.engine import KaleidoEngine
from repro.core.executor import ProcessExecutor, _contexts_match
from repro.core.explore import BlockTask, expand_vertex_level
from repro.core.kernels import vertex_kernel_context
from repro.core import CSE, shm


def test_contexts_match_is_content_based(paper_graph):
    a = vertex_kernel_context(paper_graph)
    b = type(a)(
        indptr=a.indptr.copy(),
        indices=a.indices.copy(),
        num_vertices=a.num_vertices,
        out_dtype=a.out_dtype,
        adjacency_keys=None if a.adjacency_keys is None else a.adjacency_keys.copy(),
    )
    assert _contexts_match(a, a)
    assert _contexts_match(a, b)
    indices = a.indices.copy()
    indices[0] += 1
    c = type(a)(
        indptr=a.indptr,
        indices=indices,
        num_vertices=a.num_vertices,
        out_dtype=a.out_dtype,
        adjacency_keys=a.adjacency_keys,
    )
    assert not _contexts_match(a, c)
    assert not _contexts_match(a, None)
    assert not _contexts_match(None, a)


def test_block_task_pickle_carries_no_arrays(paper_graph):
    """Zero-copy tasks ship bounds, not blocks or contexts."""
    cse = CSE(np.arange(paper_graph.num_vertices))
    expand_vertex_level(paper_graph, cse)
    ctx = vertex_kernel_context(paper_graph)
    share = shm.export_levels(cse)
    assert share is not None
    try:
        task = BlockTask(ctx, None, (0, cse.size()), 0, level_handle=share.handle)
        payload = pickle.dumps(task)
        assert len(payload) < 4096
        state = pickle.loads(payload)
        assert state.shared_context is None
        assert state.block is None
        assert state.bound == (0, cse.size())
    finally:
        share.close()


def test_two_runs_one_pool(paper_graph):
    """Per-run context rebuilds must not respawn the worker pool."""
    executor = ProcessExecutor(max_workers=2)
    engine = KaleidoEngine(paper_graph, workers=2, executor=executor)
    try:
        first = engine.run(MotifCounting(3))
        second = engine.run(MotifCounting(3))
        assert first.pattern_map == second.pattern_map
        assert executor.pools_created == 1
    finally:
        engine.close()
        executor.close()


def test_close_idempotent_and_segment_released(paper_graph):
    # Caller-supplied executors stay caller-owned: engine.close() leaves
    # the pool (and its segment) warm for the next run, so release is on
    # the caller — and must be idempotent.
    executor = ProcessExecutor(max_workers=2)
    engine = KaleidoEngine(paper_graph, workers=2, executor=executor)
    try:
        engine.run(MotifCounting(3))
        assert executor._shared_ctx is not None
        name = executor._shared_ctx.handle.segment
    finally:
        engine.close()
        executor.close()
    assert executor._shared_ctx is None
    executor.close()  # safe to close again
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_spill_parity_across_executors(paper_graph):
    maps = {}
    for spec in ("serial", "threads", "processes"):
        with tempfile.TemporaryDirectory() as spill_dir:
            engine = KaleidoEngine(
                paper_graph,
                workers=2,
                executor=spec,
                storage_mode="spill-last",
                spill_dir=spill_dir,
            )
            try:
                result = engine.run(MotifCounting(3))
            finally:
                engine.close()
            assert result.extra["spilled_levels"] >= 1
            maps[spec] = result.pattern_map
    assert maps["serial"] == maps["threads"] == maps["processes"]


_LEAK_PROBE = textwrap.dedent(
    """
    import tempfile
    from repro.apps import MotifCounting
    from repro.core.engine import KaleidoEngine
    from repro.graph import from_edge_list

    def main():
        graph = from_edge_list(
            [(1, 2), (1, 5), (2, 5), (2, 3), (3, 4), (3, 5), (4, 5)]
        )
        with tempfile.TemporaryDirectory() as spill_dir:
            engine = KaleidoEngine(
                graph, workers=2, executor="processes",
                storage_mode="spill-last", spill_dir=spill_dir,
            )
            try:
                engine.run(MotifCounting(3))
            finally:
                engine.close()
        print("DONE")

    if __name__ == "__main__":
        main()
    """
)


def test_no_resource_tracker_leak_warnings(tmp_path):
    """A full processes run must exit with zero shm leak complaints."""
    script = tmp_path / "leak_probe.py"
    script.write_text(_LEAK_PROBE)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=".",
    )
    assert proc.returncode == 0, proc.stderr
    assert "DONE" in proc.stdout
    assert "resource_tracker" not in proc.stderr
    assert "leaked" not in proc.stderr
