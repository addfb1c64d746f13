"""The part-purity sanitizer: rejects raced apps, leaves pure apps alone."""

import pytest

from repro.analysis import PartPuritySanitizer
from repro.apps import FrequentSubgraphMining, MotifCounting, TriangleCounting
from repro.core.api import MiningApplication
from repro.core.engine import KaleidoEngine
from repro.errors import KaleidoError, PartPurityError


class RacyCounting(MiningApplication):
    """The PR 1 bug class: a shared instance counter updated per part."""

    def __init__(self):
        self.count = 0

    def iterations(self):
        return 1

    def map_embedding(self, ctx, embedding, pmap, part=None):
        self.count += 1  # the race: shared state mutated on pool threads
        pmap[0] = self.count

    def finalize(self, ctx, cse, pmap):
        return self.count


class PartStateCounting(MiningApplication):
    """The legal version: mutation lives in the per-part state."""

    def __init__(self):
        self.count = 0

    def iterations(self):
        return 1

    def start_part(self, ctx):
        return {"count": 0}

    def map_embedding(self, ctx, embedding, pmap, part=None):
        part["count"] += 1
        pmap[0] = pmap.get(0, 0) + 1

    def finish_part(self, ctx, part):
        self.count += part["count"]

    def finalize(self, ctx, cse, pmap):
        return self.count


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_sanitizer_rejects_raced_app(paper_graph, sanitized_engine, executor):
    engine = sanitized_engine(paper_graph, workers=4, executor=executor)
    with pytest.raises(PartPurityError, match="count"):
        engine.run(RacyCounting())


def test_raced_app_passes_unsanitized(paper_graph):
    # Without --sanitize the race goes undetected — that is the gap the
    # sanitizer exists to close.
    with KaleidoEngine(paper_graph, workers=4) as engine:
        result = engine.run(RacyCounting())
    assert result.value == 7  # 7 two-embeddings in the paper graph


def test_part_state_app_passes_sanitized(paper_graph, sanitized_engine):
    engine = sanitized_engine(paper_graph, workers=4, executor="threads")
    result = engine.run(PartStateCounting())
    assert result.value == 7
    assert result.extra["sanitize"] is True


def test_part_purity_error_is_kaleido_error():
    assert issubclass(PartPurityError, KaleidoError)


def test_error_names_attribute_and_app(paper_graph, sanitized_engine):
    engine = sanitized_engine(paper_graph, workers=2)
    with pytest.raises(PartPurityError) as excinfo:
        engine.run(RacyCounting())
    message = str(excinfo.value)
    assert "RacyCounting" in message
    assert "'count'" in message
    assert "start_part" in message


@pytest.mark.parametrize(
    "make_app",
    [
        TriangleCounting,
        lambda: MotifCounting(3),
        lambda: FrequentSubgraphMining(num_edges=2, support=2),
    ],
    ids=["tc", "motif", "fsm"],
)
@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_shipped_apps_byte_identical_under_sanitizer(
    paper_graph, sanitized_engine, make_app, executor
):
    with KaleidoEngine(paper_graph, workers=4, executor=executor) as plain_engine:
        plain = plain_engine.run(make_app())
    sanitized = sanitized_engine(
        paper_graph, workers=4, executor=executor
    ).run(make_app())
    assert sanitized.pattern_map == plain.pattern_map
    assert sanitized.level_sizes == plain.level_sizes


def test_app_class_and_name_survive_the_swap(paper_graph, sanitized_engine):
    app = PartStateCounting()
    original = type(app)
    engine = sanitized_engine(paper_graph, workers=2)
    engine.run(app)
    assert type(app) is original  # class restored after the run
    assert app.name == "PartStateCounting"


def test_sanitizer_records_cold_writes():
    class Thing:
        pass

    thing = Thing()
    sanitizer = PartPuritySanitizer(thing)
    with sanitizer:
        thing.cold = 1  # outside hot phase: allowed, recorded
        with sanitizer.hot_phase():
            with pytest.raises(PartPurityError):
                thing.hot = 2
        thing.after = 3
    assert [w.attribute for w in sanitizer.writes] == ["cold", "hot", "after"]
    assert [w.attribute for w in sanitizer.hot_writes] == ["hot"]
    # delete is policed too
    with sanitizer:
        with sanitizer.hot_phase():
            with pytest.raises(PartPurityError):
                del thing.cold
