"""The batched EigenHash against the scalar one it must equal bit for bit.

``eigen_hash_codes`` runs Algorithm 1 over stacks of code rows; every
value must be ``eigen_hash`` of the row's pattern, across vertex counts,
vertex and edge labels, and both sides of its int64 overflow guard.
``PatternHasher.hash_codes`` must be exactly a loop of ``hash_pattern``
calls over ``Pattern.from_code`` of each row on a twin hasher: values,
counters, the memo in LRU order, evictions, representatives and accounted
bytes (and ``BlissLikeHasher.hash_codes`` its own loop).  These tests take the hypothesis
profile's example budget, so the ``deep`` profile runs them longer.
"""

from __future__ import annotations

import sys
import threading
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import BlissLikeHasher
from repro.core import eigenhash
from repro.core.eigenhash import FLV_INT64_BOUND, PatternHasher, eigen_hash, eigen_hash_codes
from repro.core.pattern import MAX_EIGENHASH_VERTICES, Pattern
from repro.errors import EmbeddingSizeError


@st.composite
def patterns(draw, max_k=MAX_EIGENHASH_VERTICES, labelled=None, huge=False, top=19):
    """One pattern: up to ``top + 1`` vertex labels (or huge ones), edge
    labels on or off."""
    k = draw(st.integers(1, max_k))
    top = (1 << 40) if huge else top
    labels = tuple(draw(st.lists(st.integers(0, top), min_size=k, max_size=k)))
    bits = draw(st.integers(0, (1 << (k * (k - 1) // 2)) - 1))
    if labelled is None:
        labelled = draw(st.booleans())
    edge_labels = None
    if labelled:
        edge_labels = tuple(
            draw(st.lists(st.integers(0, 4), min_size=bits.bit_count(), max_size=bits.bit_count()))
        )
    return Pattern(labels, bits, edge_labels)


@st.composite
def code_batches(draw):
    """A stack of code rows with mixed vertex counts, all edge-labelled or
    all not, some with labels large enough to cross the overflow guard."""
    labelled = draw(st.booleans())
    huge = draw(st.booleans())
    kmax = draw(st.integers(2 if labelled else 1, MAX_EIGENHASH_VERTICES))
    batch = draw(st.lists(patterns(kmax, labelled, huge), min_size=1, max_size=24))
    return np.array([p.to_code(kmax) for p in batch], dtype=np.int64), kmax


def _scalar(codes: np.ndarray, kmax: int) -> list[int]:
    return [eigen_hash(Pattern.from_code(row, kmax)) for row in codes]


@given(code_batches())
def test_batched_equals_scalar(case):
    codes, kmax = case
    got = eigen_hash_codes(codes, kmax)
    assert got.dtype == np.uint64
    assert got.tolist() == _scalar(codes, kmax)


@given(patterns())
def test_code_round_trip(pattern):
    kmax = max(pattern.num_vertices, 2)
    assert Pattern.from_code(pattern.to_code(kmax), kmax) == pattern
    assert Pattern.from_code(np.array(pattern.to_code(kmax)), kmax) == pattern


def test_to_code_rejects_what_the_row_cannot_hold():
    with pytest.raises(ValueError):
        Pattern((0, 0, 0), 0).to_code(2)
    with pytest.raises(ValueError):
        Pattern((0,), 0, ()).to_code(1)


def test_cospectral_edge_labelled_paths():
    """The two 4-paths 0-1-0-1 whose weighted matrices are cospectral: only
    the edge-label profile term separates them, batched as in scalar."""
    a = Pattern((0, 1, 0, 1), 0b101001, (1, 0, 0))
    b = Pattern((0, 1, 0, 1), 0b101001, (0, 0, 1))
    codes = np.array([a.to_code(4), b.to_code(4)])
    got = eigen_hash_codes(codes, 4).tolist()
    assert got == [eigen_hash(a), eigen_hash(b)]
    assert got[0] != got[1]


def _edge(label: int) -> Pattern:
    return Pattern((label, label), 1)


def _largest_fast_label() -> int:
    """The largest label of a one-edge pattern whose only guard check,
    ``k·R·max|M| = 2·w²`` (``w = (l+1)(l+3)``, the edge's weight, which is
    both ``R`` and ``max|M|``), stays below the bound."""
    lo, hi = 0, 1 << 20
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        weight = (mid + 1) * (mid + 3)
        if 2 * weight**2 * (1 + 1e-9) < FLV_INT64_BOUND:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("offset, falls_back", [(0, False), (1, True)])
def test_overflow_guard_sides(monkeypatch, offset, falls_back):
    """Rows just under the bound take the int64 pass, rows over it the
    scalar fallback, and both equal the scalar hash."""
    calls = []
    scalar = eigenhash.eigen_hash
    monkeypatch.setattr(eigenhash, "eigen_hash", lambda p: calls.append(p) or scalar(p))
    pattern = _edge(_largest_fast_label() + offset)
    codes = np.array([pattern.to_code(2), _edge(3).to_code(2)])
    assert eigen_hash_codes(codes, 2).tolist() == [scalar(pattern), scalar(_edge(3))]
    assert calls == ([pattern] if falls_back else [])


@pytest.mark.parametrize("label, falls_back", [(3, False), (10, True)])
def test_guard_checks_every_step(monkeypatch, label, falls_back):
    """K7 with one vertex label ``l`` and every edge labelled 0 (every
    weight ``w = 2(l+1)(l+3) + 1``, so ``R = 6w``).  Both rows pass the
    first check, ``k·R² < 2^62``, and both fail the a-priori bound
    ``k·2^(k+1)·R^k``; at ``l = 3`` every later check passes and the row
    stays in the int64 pass, at ``l = 10`` a later one fails and the row
    falls back."""
    reach = 6 * (2 * (label + 1) * (label + 3) + 1)
    assert 7 * reach * reach < FLV_INT64_BOUND
    assert 7 * 2**8 * reach**7 >= FLV_INT64_BOUND
    calls = []
    scalar = eigenhash.eigen_hash
    monkeypatch.setattr(eigenhash, "eigen_hash", lambda p: calls.append(p) or scalar(p))
    pattern = Pattern((label,) * 7, (1 << 21) - 1, (0,) * 21)
    assert eigen_hash_codes(np.array([pattern.to_code(7)]), 7).tolist() == [scalar(pattern)]
    assert calls == ([pattern] if falls_back else [])


def test_huge_labels_force_fallback_on_seven_vertices(monkeypatch):
    calls = []
    scalar = eigenhash.eigen_hash
    monkeypatch.setattr(eigenhash, "eigen_hash", lambda p: calls.append(p) or scalar(p))
    big = Pattern(tuple(range(1 << 40, (1 << 40) + 7)), (1 << 21) - 1, tuple(range(21)))
    small = Pattern((0,) * 7, (1 << 21) - 1, (0,) * 21)
    codes = np.array([big.to_code(7), small.to_code(7)])
    assert eigen_hash_codes(codes, 7).tolist() == [scalar(big), scalar(small)]
    assert calls == [big]


def test_empty_and_oversized_batches():
    assert eigen_hash_codes(np.zeros((0, 4), dtype=np.int64), 2).shape == (0,)
    empty = Pattern((), 0)
    assert eigen_hash_codes(np.array([empty.to_code(1)]), 1).tolist() == [eigen_hash(empty)]
    with pytest.raises(EmbeddingSizeError):
        eigen_hash_codes(np.array([Pattern((0,) * 8, 0).to_code(8)]), 8)


# ----------------------------------------------------------------------
# PatternHasher.hash_codes == a loop of hash_pattern over Pattern.from_code
# ----------------------------------------------------------------------
@st.composite
def row_streams(draw):
    """Calls of code rows over a small pool of patterns and their
    automorphic relabellings, so rows repeat within and across calls (a
    repeat is a hit, or a miss again after an eviction or under
    ``cache=False``).  Each stream is
    all edge-labelled or all not (a stack of code rows is one or the
    other); calls run from empty through both sides of ``BATCH_MIN``, and
    huge labels send some rows to the overflow fallback."""
    labelled = draw(st.booleans())
    huge = draw(st.booleans())
    kmax = draw(st.integers(2 if labelled else 1, 5))
    pool = draw(st.lists(patterns(kmax, labelled, huge, top=3), min_size=1, max_size=6))
    variants = []
    for pattern in pool:
        perms = list(permutations(range(pattern.num_vertices)))[:6]
        variants.extend(pattern.permute(perm).to_code(kmax) for perm in perms)
    variants = list(dict.fromkeys(map(tuple, variants)))
    calls = st.lists(st.sampled_from(variants), max_size=2 * PatternHasher.BATCH_MIN)
    batches = draw(st.lists(calls, min_size=1, max_size=3))
    width = len(variants[0])
    return [np.array(rows, dtype=np.int64).reshape(len(rows), width) for rows in batches], kmax


def _state(hasher: PatternHasher) -> tuple:
    return (
        hasher.hits,
        hasher.misses,
        hasher.evictions,
        len(hasher),
        hasher.nbytes,
        list(hasher._memo.items()),
        list(hasher._representatives.items()),
    )


def _loop(hasher, codes: np.ndarray, kmax: int) -> list[int]:
    return [hasher.hash_pattern(Pattern.from_code(row, kmax)) for row in codes]


@given(row_streams(), st.booleans(), st.sampled_from([1, 2, 3, 5, None]))
def test_hash_codes_is_the_loop(stream, cache, max_entries):
    batches, kmax = stream
    loop = PatternHasher(cache=cache, max_entries=max_entries)
    batch = PatternHasher(cache=cache, max_entries=max_entries)
    values = set()
    for codes in batches:
        want = _loop(loop, codes, kmax)
        got = batch.hash_codes(codes, kmax)
        assert got.dtype == np.uint64
        assert got.tolist() == want
        assert _state(batch) == _state(loop)
        values.update(want)
    for value in values:
        assert batch.representative(value) == loop.representative(value)


@pytest.mark.parametrize("cache, max_entries", [(True, 1), (True, 2), (False, None)])
@pytest.mark.parametrize("size", [PatternHasher.BATCH_MIN - 3, 8 * PatternHasher.BATCH_MIN])
def test_repeats_within_one_call_are_the_loop(cache, max_entries, size):
    """A row repeated in one call counts as the loop counts it: a hit, or
    a miss again once the LRU cap evicted it or with no memo at all —
    with the call's misses hashed one by one or in one batched pass."""
    a, b, c = Pattern((0, 1), 1), Pattern((1, 1, 2), 0b011), Pattern((0, 0, 0), 0b111)
    rows = ([a, a, b, a, c, b, c, c, a] * size)[:size]
    codes = np.array([p.to_code(3) for p in rows])
    loop = PatternHasher(cache=cache, max_entries=max_entries)
    batch = PatternHasher(cache=cache, max_entries=max_entries)
    assert batch.hash_codes(codes, 3).tolist() == _loop(loop, codes, 3)
    assert _state(batch) == _state(loop)


@given(row_streams())
def test_hash_codes_computes_misses_in_the_batch(stream):
    """Calls of at least ``BATCH_MIN`` misses take every value from the
    batched pass, so ``eigen_hash`` runs only on the smaller calls' misses,
    in row order, and on the overflow fallback's rows."""
    batches, kmax = stream
    calls = []
    scalar = eigenhash.eigen_hash
    hasher = PatternHasher()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigenhash, "eigen_hash", lambda p: calls.append(p) or scalar(p))
        for codes in batches:
            rows = codes.tolist()
            fresh = [row for row in rows if Pattern.code_fields(row, kmax) not in hasher._memo]
            calls.clear()
            hasher.hash_codes(codes, kmax)
            if len(fresh) >= PatternHasher.BATCH_MIN:
                # Only huge-label rows may leave the int64 pass.
                assert all(max(p.labels) > 3 for p in calls)
                assert all(p.to_code(kmax) in fresh for p in calls)
            else:
                assert calls == [Pattern.from_code(row, kmax) for row in fresh]


def test_default_batch_threshold_keeps_small_batches_scalar(monkeypatch):
    calls = []
    scalar = eigenhash.eigen_hash
    monkeypatch.setattr(eigenhash, "eigen_hash", lambda p: calls.append(p) or scalar(p))
    hasher = PatternHasher()
    chains = [Pattern((label, 0, 0), 0b011) for label in range(PatternHasher.BATCH_MIN)]
    hasher.hash_codes(np.array([p.to_code(3) for p in chains[:-1]]), 3)
    assert len(calls) == PatternHasher.BATCH_MIN - 1
    calls.clear()
    more = [Pattern((0, label, 1), 0b111) for label in range(PatternHasher.BATCH_MIN)]
    got = hasher.hash_codes(np.array([p.to_code(3) for p in more]), 3)
    assert got.tolist() == [scalar(p) for p in more]
    assert calls == []  # the batched pass answered every miss


def test_hash_codes_raises_where_the_loop_raises():
    loop, batch = PatternHasher(), PatternHasher()
    rows = [Pattern((0, 0), 1), Pattern((0,) * 9, 0), Pattern((1, 1), 1)]
    codes = np.array([p.to_code(9) for p in rows])
    with pytest.raises(EmbeddingSizeError):
        _loop(loop, codes, 9)
    with pytest.raises(EmbeddingSizeError):
        batch.hash_codes(codes, 9)
    assert _state(batch) == _state(loop)
    assert batch.misses == 1


def test_labels_beyond_int64_hash_one_by_one():
    """Structures whose labels cannot be int64 code rows go through
    ``hash_pattern``; they share the memo with code rows, which hit
    whichever path hashed them first."""
    big = [Pattern((1 << 70, i), 1) for i in range(3)]
    small = [Pattern((0, i), 1) for i in range(3)]
    hasher = PatternHasher()
    assert [hasher.hash_pattern(p) for p in big + small] == [eigen_hash(p) for p in big + small]
    codes = np.array([p.to_code(2) for p in small])
    assert hasher.hash_codes(codes, 2).tolist() == [eigen_hash(p) for p in small]
    assert (hasher.hits, hasher.misses, len(hasher)) == (3, 6, 6)


def test_mixed_edge_labelled_and_unlabelled_batch():
    """Edge-labelled and unlabelled rows of the same labels and bits are
    different structures: their memo keys differ (``edge_labels=None``
    against a tuple), whichever path and padding hashed them."""
    plain = [Pattern((0, i, i), 0b011) for i in range(9)]
    labelled = [Pattern(p.labels, p.bits, (0, 0)) for p in plain] + [Pattern((2,), 0, ())]
    hasher = PatternHasher()
    got = hasher.hash_codes(np.array([p.to_code(3) for p in plain]), 3).tolist()
    got += hasher.hash_codes(np.array([p.to_code(4) for p in labelled]), 4).tolist()
    assert got == [eigen_hash(p) for p in plain + labelled]
    assert hasher.misses == len(hasher) == len(plain) + len(labelled)
    assert [hasher.hash_pattern(p) for p in plain + labelled] == got
    assert hasher.hits == len(plain) + len(labelled)


@given(row_streams())
def test_blisslike_hash_codes_is_its_loop(stream):
    batches, kmax = stream
    loop, batched = BlissLikeHasher(), BlissLikeHasher()
    for codes in batches:
        got = batched.hash_codes(codes, kmax)
        assert got.dtype == np.uint64
        assert got.tolist() == _loop(loop, codes, kmax)
        assert (batched.hits, batched.misses, len(batched)) == (loop.hits, loop.misses, len(loop))
    for value in loop._representatives:
        assert batched.representative(value) == loop.representative(value)


def test_concurrent_batches_share_one_hasher():
    """Threads (more than cores) hash overlapping code rows through one
    hasher: every value is ``eigen_hash``'s, no count is lost, and every
    structure misses once."""
    pool = [Pattern((a, b, c), bits) for a in range(3) for b in range(3) for c in range(2) for bits in (3, 5, 7)]
    codes = np.array([p.to_code(3) for p in pool])
    want = [eigen_hash(p) for p in pool]
    hasher = PatternHasher()
    errors: list[BaseException] = []

    def work(shift: int) -> None:
        try:
            for turn in range(20):
                at = np.roll(np.arange(len(pool)), -(shift + turn))
                assert hasher.hash_codes(codes[at], 3).tolist() == [want[i] for i in at]
        except BaseException as error:  # reported below, from the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert hasher.hits + hasher.misses == 6 * 20 * len(pool)
    assert hasher.misses == len(hasher) == len(pool)
