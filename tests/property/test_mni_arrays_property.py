"""The MNI sort helpers against the numpy calls they replace.

``first_occurrences`` must equal ``np.unique(keys, return_index=True)``
and ``distinct_rows`` the ``lexsort`` + row-diff dedup it replaced, on
both sides of every packing guard: keys and rows that fit one packed
int64 sort, and huge key ranges, negative keys and wide edge-labelled
rows that must take the fallback.  ``_steps_by_cell`` must order each
cell's steps like ``lexsort((steps, cell))`` on both sides of its guard.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps import mni
from repro.apps.mni import distinct_rows, first_occurrences


def _lexsort_distinct_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lexsort version ``distinct_rows`` replaced."""
    order = np.lexsort(codes.T)
    ordered = codes[order]
    new = np.ones(order.shape[0], dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    firsts = order[new]
    rank = np.argsort(firsts)
    remap = np.empty_like(rank)
    remap[rank] = np.arange(rank.shape[0])
    inverse = np.empty_like(order)
    inverse[order] = remap[np.cumsum(new) - 1]
    return firsts[rank], inverse


def _spy(name: str):
    """Counts calls of one numpy function while it stays the real one."""
    return mock.patch.object(np, name, wraps=getattr(np, name))


def _check_first_occurrences(keys: np.ndarray) -> None:
    want_unique, want_first = np.unique(keys, return_index=True)
    unique, first = first_occurrences(keys)
    assert unique.tolist() == want_unique.tolist()
    assert first.tolist() == want_first.tolist()


def _check_distinct_rows(codes: np.ndarray) -> None:
    want_first, want_inverse = _lexsort_distinct_rows(codes)
    first, inverse = distinct_rows(codes)
    assert first.tolist() == want_first.tolist()
    assert inverse.tolist() == want_inverse.tolist()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    hnp.arrays(np.int64, st.integers(0, 300), elements=st.integers(0, 40)),
)
def test_first_occurrences_packed(keys):
    with _spy("unique") as spy:
        _check_first_occurrences(keys)
    # One np.unique call is the reference's own.
    assert spy.call_count == 1


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    hnp.arrays(np.int64, st.integers(2, 200), elements=st.integers(-(2**63), 2**63 - 1)),
    st.booleans(),
)
def test_first_occurrences_fallback(keys, negative):
    """A negative key, or a key range whose packed product reaches 2^63."""
    if negative:
        keys[0] = -1
    else:
        keys = np.abs(keys.clip(-(2**63) + 1)) // 2
        keys[0] = 2**62
    with _spy("unique") as spy:
        _check_first_occurrences(keys)
    assert spy.call_count == 2


@pytest.mark.parametrize("m", [1, 2, 3, 1000])
def test_first_occurrences_guard_edge(m):
    """The largest key that still packs, and one past it."""
    fits = (2**63 - 1) // m - 1
    for top, packed in ((fits, True), (fits + 1, False)):
        keys = np.zeros(m, dtype=np.int64)
        keys[m // 2] = top
        with _spy("unique") as spy:
            _check_first_occurrences(keys)
        assert spy.call_count == (1 if packed else 2)


def test_first_occurrences_empty():
    unique, first = first_occurrences(np.zeros(0, dtype=np.int64))
    assert unique.shape == first.shape == (0,)


@st.composite
def code_stacks(draw, wide=False):
    """Code rows drawn from a small pool (so rows repeat), each column's
    range small enough that the radix product of 12 columns still packs;
    ``wide`` adds edge-label columns whose range makes it overflow."""
    rows = draw(st.integers(2 if wide else 1, 120))
    width = draw(st.integers(1, 12))
    pool = draw(
        st.lists(
            st.lists(st.integers(-3, 12), min_size=width, max_size=width),
            min_size=1,
            max_size=8,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
    codes = np.array([pool[p] for p in picks], dtype=np.int64)
    if wide:
        huge = np.array([0, 1 << 40, -(1 << 40), 7], dtype=np.int64)
        extra = huge[np.array(picks) % 4]
        extra[0], extra[-1] = 1 << 40, -(1 << 40)
        codes = np.hstack([codes, np.stack([extra, extra[::-1], extra], axis=1)])
    return codes


@settings(max_examples=150, derandomize=True, deadline=None)
@given(code_stacks())
def test_distinct_rows_packed(codes):
    with _spy("lexsort") as spy:
        _check_distinct_rows(codes)
    assert spy.call_count == 1  # the reference's


@settings(max_examples=60, derandomize=True, deadline=None)
@given(code_stacks(wide=True))
def test_distinct_rows_fallback(codes):
    with _spy("lexsort") as spy:
        _check_distinct_rows(codes)
    assert spy.call_count == 2


def test_distinct_rows_wide_edge_labelled_rows_fall_back():
    """Eight-vertex edge-labelled codes (2 + 8 + 28 columns) whose edge
    labels span 2^20 each: the radix product is far past 2^63."""
    rng = np.random.default_rng(3)
    base = rng.integers(0, 1 << 20, size=(5, 38))
    codes = base[rng.integers(0, 5, size=64)]
    with _spy("lexsort") as spy:
        _check_distinct_rows(codes)
    assert spy.call_count == 2


def test_distinct_rows_empty():
    first, inverse = distinct_rows(np.zeros((0, 4), dtype=np.int64))
    assert first.shape == inverse.shape == (0,)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 50)), min_size=1, max_size=80),
    st.sampled_from([None, 1 << 58, 1 << 62]),
)
def test_steps_by_cell(pairs, big_step):
    cell = np.array(sorted(c for c, _ in pairs), dtype=np.int64)
    steps = np.array([s for _, s in pairs], dtype=np.int64)
    if big_step is not None:
        steps[0] = big_step
    want = steps[np.lexsort((steps, cell))]
    fallback = (int(cell[-1]) + 1) * (int(steps.max()) + 1) >= 2**63
    with _spy("lexsort") as spy:
        got = mni._steps_by_cell(cell, steps)
    assert got.tolist() == want.tolist()
    assert spy.call_count == int(fallback)
