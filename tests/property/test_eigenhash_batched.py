"""The batched EigenHash against the scalar one it must equal bit for bit.

``eigen_hash_codes`` runs Algorithm 1 over stacks of code rows; every
value must be ``eigen_hash`` of the row's pattern, across vertex counts,
vertex and edge labels, and both sides of its int64 overflow guard.
``PatternHasher.hash_patterns`` must be exactly a loop of ``hash_pattern``
calls on a twin hasher: values, counters, caches in LRU order, evictions,
representatives and accounted bytes.  These tests take the hypothesis
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
    """K8 with one vertex label ``l`` (every weight ``w = (l+1)(l+3)``, so
    ``R = 7w``).  Both rows pass the first check, ``k·R² < 2^62``, and both
    fail the a-priori bound ``k·2^(k+1)·R^k``; at ``l = 3`` every later
    check passes and the row stays in the int64 pass, at ``l = 10`` a later
    one fails and the row falls back."""
    reach = 7 * (label + 1) * (label + 3)
    assert 8 * reach * reach < FLV_INT64_BOUND
    assert 8 * 2**9 * reach**8 >= FLV_INT64_BOUND
    calls = []
    scalar = eigenhash.eigen_hash
    monkeypatch.setattr(eigenhash, "eigen_hash", lambda p: calls.append(p) or scalar(p))
    pattern = Pattern((label,) * 8, (1 << 28) - 1)
    assert eigen_hash_codes(np.array([pattern.to_code(8)]), 8).tolist() == [scalar(pattern)]
    assert calls == ([pattern] if falls_back else [])


def test_huge_labels_force_fallback_on_eight_vertices(monkeypatch):
    calls = []
    scalar = eigenhash.eigen_hash
    monkeypatch.setattr(eigenhash, "eigen_hash", lambda p: calls.append(p) or scalar(p))
    big = Pattern(tuple(range(1 << 40, (1 << 40) + 8)), (1 << 28) - 1, tuple(range(28)))
    small = Pattern((0,) * 8, (1 << 28) - 1, (0,) * 28)
    codes = np.array([big.to_code(8), small.to_code(8)])
    assert eigen_hash_codes(codes, 8).tolist() == [scalar(big), scalar(small)]
    assert calls == [big]


def test_empty_and_oversized_batches():
    assert eigen_hash_codes(np.zeros((0, 4), dtype=np.int64), 2).shape == (0,)
    empty = Pattern((), 0)
    assert eigen_hash_codes(np.array([empty.to_code(1)]), 1).tolist() == [eigen_hash(empty)]
    with pytest.raises(EmbeddingSizeError):
        eigen_hash_codes(np.array([Pattern((0,) * 9, 0).to_code(9)]), 9)


# ----------------------------------------------------------------------
# PatternHasher.hash_patterns == a loop of hash_pattern
# ----------------------------------------------------------------------
class _Spy(PatternHasher):
    """Records every ``hash_pattern`` call; batches from the first miss."""

    BATCH_MIN = 1

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen: list[Pattern] = []

    def hash_pattern(self, pattern: Pattern) -> int:
        self.seen.append(pattern)
        return super().hash_pattern(pattern)


@st.composite
def pattern_streams(draw):
    """Batches over a small pool of patterns and their automorphic
    relabellings, so batches repeat structures within and across calls.
    Four labels keep every 5-vertex pattern under the overflow guard."""
    pool = draw(st.lists(patterns(max_k=5, top=3), min_size=1, max_size=6))
    variants = []
    for pattern in pool:
        perms = list(permutations(range(pattern.num_vertices)))[:6]
        variants.extend(pattern.permute(perm) for perm in perms)
    picks = st.lists(st.sampled_from(variants), max_size=30)
    return draw(st.lists(picks, min_size=1, max_size=3))


def _state(hasher: PatternHasher) -> tuple:
    return (
        hasher.hits,
        hasher.misses,
        hasher.evictions,
        len(hasher),
        hasher.nbytes,
        list(hasher._cache.items()),
        list(hasher._raw_cache.items()),
        list(hasher._representatives.items()),
    )


@given(
    pattern_streams(),
    st.booleans(),
    st.sampled_from([1, 2, 3, 5, None]),
)
def test_hash_patterns_is_the_loop(batches, cache, max_entries):
    loop = PatternHasher(cache=cache, max_entries=max_entries)
    spy = _Spy(cache=cache, max_entries=max_entries)
    values = set()
    for batch in batches:
        want = [loop.hash_pattern(p) for p in batch]
        assert spy.hash_patterns(batch) == want
        assert _state(spy) == _state(loop)
        values.update(want)
    assert spy.seen == [p for batch in batches for p in batch]
    for value in values:
        assert spy.representative(value) == loop.representative(value)


@given(pattern_streams())
def test_hash_patterns_computes_misses_in_the_batch(batches):
    """With room for every entry and every pattern under the overflow
    guard, no ``eigen_hash`` call is left: every miss takes its value from
    the batched pass."""
    calls = []
    scalar = eigenhash.eigen_hash
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigenhash, "eigen_hash", lambda p: calls.append(p) or scalar(p))
        spy = _Spy()
        for batch in batches:
            spy.hash_patterns(batch)
    assert calls == []


def test_default_batch_threshold_keeps_small_batches_scalar(monkeypatch):
    calls = []
    scalar = eigenhash.eigen_hash
    monkeypatch.setattr(eigenhash, "eigen_hash", lambda p: calls.append(p) or scalar(p))
    hasher = PatternHasher()
    chains = [Pattern((label, 0, 0), 0b011) for label in range(PatternHasher.BATCH_MIN)]
    hasher.hash_patterns(chains[:-1])
    assert len(calls) == PatternHasher.BATCH_MIN - 1
    calls.clear()
    more = [Pattern((0, label, 1), 0b111) for label in range(PatternHasher.BATCH_MIN)]
    assert hasher.hash_patterns(more) == [scalar(p) for p in more]
    assert calls == []  # the batched pass answered every miss


def test_hash_patterns_raises_where_the_loop_raises():
    loop, batch = PatternHasher(), _Spy()
    patterns = [Pattern((0, 0), 1), Pattern((0,) * 9, 0), Pattern((1, 1), 1)]
    with pytest.raises(EmbeddingSizeError):
        [loop.hash_pattern(p) for p in patterns]
    with pytest.raises(EmbeddingSizeError):
        batch.hash_patterns(patterns)
    assert _state(batch) == _state(loop)
    assert batch.seen == patterns[:2]
    # The batch's precomputed values do not leak into later calls.
    assert batch._batch.ahead is None


def test_labels_beyond_int64_hash_one_by_one():
    """A batch whose structures cannot be int64 code rows is hashed by
    the scalar path, with the loop's values and accounting."""
    patterns = [Pattern((1 << 70, i), 1) for i in range(3)] + [Pattern((0, i), 1) for i in range(3)]
    loop, batch = PatternHasher(), _Spy()
    assert batch.hash_patterns(patterns) == [loop.hash_pattern(p) for p in patterns]
    assert _state(batch) == _state(loop)


def test_mixed_edge_labelled_and_unlabelled_batch():
    """One batch may mix edge-labelled and unlabelled structures; they hash
    in separate passes, with the unlabelled ones as ``edge_labels=None``."""
    mixed = [Pattern((0, 1), 1), Pattern((0, 1), 1, (0,)), Pattern((2,), 0, ())]
    mixed = mixed * 3 + [Pattern((i, i), 1, (i,)) for i in range(8)]
    spy = _Spy()
    assert spy.hash_patterns(mixed) == [eigen_hash(p) for p in mixed]


@given(pattern_streams())
def test_blisslike_hash_patterns_is_its_loop(batches):
    loop, batched = BlissLikeHasher(), BlissLikeHasher()
    for batch in batches:
        assert batched.hash_patterns(batch) == [loop.hash_pattern(p) for p in batch]
        assert (batched.hits, batched.misses, len(batched)) == (loop.hits, loop.misses, len(loop))
    for value in loop._representatives:
        assert batched.representative(value) == loop.representative(value)


def test_concurrent_batches_share_one_hasher():
    """Threads (more than cores) batch overlapping patterns through one
    hasher: every value is ``eigen_hash``'s and no count is lost."""
    pool = [Pattern((a, b, c), bits) for a in range(3) for b in range(3) for c in range(2) for bits in (3, 5, 7)]
    want = [eigen_hash(p) for p in pool]
    hasher = _Spy()
    errors: list[BaseException] = []

    def work(shift: int) -> None:
        try:
            for turn in range(20):
                batch = pool[shift + turn :] + pool[: shift + turn]
                assert hasher.hash_patterns(batch) == want[shift + turn :] + want[: shift + turn]
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
    assert len(hasher.seen) == 6 * 20 * len(pool)
