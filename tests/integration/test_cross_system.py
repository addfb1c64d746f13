"""Integration: the three systems agree on every application and the
performance/memory ordering matches the paper's shape.

The two ordering tests are ``slow`` (the ``-m slow`` job): they run the
baselines' 4-motif for minutes, and one asserts on wall-clock time."""

import pytest

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
    TriangleCounting,
)
from repro.baselines import ArabesqueLikeEngine, RStreamLikeEngine
from repro.graph import datasets


@pytest.fixture(scope="module")
def tiny_citeseer():
    return datasets.load("citeseer", "tiny")


@pytest.fixture(scope="module")
def tiny_mico():
    return datasets.load("mico", "tiny")


def test_motif_agreement(tiny_citeseer, tmp_path):
    ka = KaleidoEngine(tiny_citeseer).run(MotifCounting(3))
    ar = ArabesqueLikeEngine(tiny_citeseer).run_motif(3)
    with RStreamLikeEngine(tiny_citeseer, spill_dir=str(tmp_path)) as engine:
        rs = engine.run_motif(3)
    assert sorted(ka.value.values()) == sorted(ar.value.values())
    assert sorted(ka.value.values()) == sorted(rs.value.values())


def test_triangle_agreement(tiny_mico, tmp_path):
    ka = KaleidoEngine(tiny_mico).run(TriangleCounting()).value
    ar = ArabesqueLikeEngine(tiny_mico).run_triangles().value
    with RStreamLikeEngine(tiny_mico, spill_dir=str(tmp_path)) as engine:
        rs = engine.run_triangles().value
    assert ka == ar == rs > 0


def test_clique_agreement(tiny_mico, tmp_path):
    ka = KaleidoEngine(tiny_mico).run(CliqueDiscovery(4)).value.count
    ar = ArabesqueLikeEngine(tiny_mico).run_clique(4).value
    with RStreamLikeEngine(tiny_mico, spill_dir=str(tmp_path)) as engine:
        rs = engine.run_clique(4).value
    assert ka == ar == rs


def test_fsm_agreement(tiny_citeseer, tmp_path):
    ka = KaleidoEngine(tiny_citeseer).run(
        FrequentSubgraphMining(2, 5, exact_mni=True)
    )
    ar = ArabesqueLikeEngine(tiny_citeseer).run_fsm(2, 5)
    with RStreamLikeEngine(tiny_citeseer, spill_dir=str(tmp_path)) as engine:
        rs = engine.run_fsm(2, 5)
    assert sorted(dict(ka.value).values()) == sorted(dict(ar.value).values())
    assert sorted(dict(ka.value).values()) == sorted(dict(rs.value).values())


@pytest.mark.slow
def test_kaleido_memory_beats_baselines(tiny_mico, tmp_path):
    """Figure 10's shape: Kaleido's accounted memory below both baselines."""
    ka = KaleidoEngine(tiny_mico).run(MotifCounting(4))
    ar = ArabesqueLikeEngine(tiny_mico).run_motif(4)
    with RStreamLikeEngine(tiny_mico, spill_dir=str(tmp_path)) as engine:
        rs = engine.run_motif(4)
    assert ka.peak_memory_bytes < ar.peak_memory_bytes
    assert ka.peak_memory_bytes < rs.peak_memory_bytes


@pytest.mark.slow
def test_kaleido_faster_than_rstream(tiny_mico, tmp_path):
    """Table 2's strongest ordering: Kaleido beats the relational engine."""
    ka = KaleidoEngine(tiny_mico).run(MotifCounting(4))
    with RStreamLikeEngine(tiny_mico, spill_dir=str(tmp_path)) as engine:
        rs = engine.run_motif(4)
    assert ka.wall_seconds < rs.wall_seconds
