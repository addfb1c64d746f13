"""Differential test: the sequential walk (``CSE.decode_block``) against
the random-access walk (``CSE.decode_rows``) on the same ranges.

Both must return the same bytes and the same dtype for every contiguous
range, over resident and mmap-served spilled levels (parts of random
size, so ranges cross part boundaries), mixed ``int32`` / ``int64`` id
widths, and levels pruned by ``filter_top_level`` and then expanded
again, which leaves childless parents in the lower levels.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CSE, InMemoryLevel
from repro.core.explore import expand_vertex_level
from repro.graph import from_edge_list
from repro.storage import PartStore
from repro.storage.hybrid import spill_level


@st.composite
def graphs(draw, max_n=11):
    n = draw(st.integers(min_value=2, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=1,
            max_size=min(22, len(possible)),
            unique=True,
        )
    )
    return from_edge_list(edges)


def _build(graph, depth, prune_at, keep_seed):
    """``depth`` expansions; after expansion ``prune_at`` (if any) the
    top level keeps a random half, so its parents may end up childless."""
    cse = CSE(np.arange(graph.num_vertices))
    rng = np.random.default_rng(keep_seed)
    for step in range(1, depth + 1):
        expand_vertex_level(graph, cse)
        if step == prune_at and cse.size():
            cse.filter_top_level(rng.random(cse.size()) < 0.5)
    return cse


def _assert_same(cse, start, end):
    walk = cse.decode_block(start, end)
    oracle = cse.decode_rows(np.arange(start, end))
    assert walk.dtype == oracle.dtype
    assert walk.shape == oracle.shape == (end - start, cse.depth)
    assert walk.tobytes() == oracle.tobytes()


def _ranges(data, total):
    """Empty, single-row and full ranges, plus a few random ones."""
    ranges = [(0, 0), (total, total), (0, total)]
    if total:
        ranges.append((total - 1, total))
        for _ in range(4):
            start = data.draw(st.integers(min_value=0, max_value=total - 1))
            end = data.draw(st.integers(min_value=start, max_value=total))
            ranges.append((start, end))
    return ranges


@given(
    graph=graphs(),
    depth=st.integers(min_value=1, max_value=4),
    prune_at=st.integers(min_value=0, max_value=4),
    keep_seed=st.integers(min_value=0, max_value=2**16),
    widths=st.lists(st.booleans(), min_size=5, max_size=5),
    spilled=st.lists(st.booleans(), min_size=5, max_size=5),
    part_entries=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_decode_block_matches_decode_rows(
    graph, depth, prune_at, keep_seed, widths, spilled, part_entries, data
):
    cse = _build(graph, depth, prune_at, keep_seed)
    with tempfile.TemporaryDirectory() as spill_dir:
        store = PartStore(spill_dir)
        for l, level in enumerate(cse.levels):
            if widths[l]:
                level = InMemoryLevel(
                    level.vert_array(), level.off_array(), dtype=np.int64
                )
            if spilled[l]:
                level = spill_level(level, store, part_entries=part_entries)
            cse.levels[l] = level
        for start, end in _ranges(data, cse.size()):
            _assert_same(cse, start, end)
        # Lower levels decode through the same walk.
        level_idx = data.draw(st.integers(min_value=0, max_value=cse.depth - 1))
        total = cse.size(level_idx)
        start = data.draw(st.integers(min_value=0, max_value=total))
        end = data.draw(st.integers(min_value=start, max_value=total))
        np.testing.assert_array_equal(
            cse.decode_block(start, end, level_idx),
            cse.decode_rows(np.arange(start, end), level_idx),
        )
        store.close()


@given(graph=graphs(), keep_seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_pruned_then_expanded_has_childless_parents(graph, keep_seed):
    """After a prune and a re-expansion, every range still decodes the
    same — including ranges whose parent span holds weight-0 parents."""
    cse = _build(graph, 3, 2, keep_seed)
    total = cse.size()
    for start in range(total + 1):
        _assert_same(cse, start, total)
        _assert_same(cse, 0, start)
