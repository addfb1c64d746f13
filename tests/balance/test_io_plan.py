"""Spill-part sizing: plan_io math and StoragePolicy integration."""

from repro.balance.predict import IOPlan, plan_io
from repro.storage.hybrid import StoragePolicy
from repro.storage.meter import MemoryBudget, MemoryMeter
from repro.storage.spill import PartStore


# ----------------------------------------------------------------------
# plan_io: the pure sizing function
# ----------------------------------------------------------------------
def test_defaults_without_measurements():
    plan = plan_io(predicted_entries=10_000_000, bytes_per_entry=4)
    assert plan.part_entries == 1 << 16


def test_headroom_bounds_part_size():
    # A quarter of the headroom, split across two parts.
    headroom = 16 << 20
    plan = plan_io(
        predicted_entries=100_000_000, bytes_per_entry=4, headroom_bytes=headroom
    )
    assert plan.part_entries == (headroom // 4) // (2 * 4)
    # Two parts of 4-byte ids fit in a quarter of the headroom.
    assert 2 * plan.part_entries * 4 <= headroom // 4


def test_part_size_clamps():
    tight = plan_io(
        predicted_entries=100_000_000, bytes_per_entry=4, headroom_bytes=1024
    )
    assert tight.part_entries == 1 << 12  # floor
    vast = plan_io(
        predicted_entries=1 << 40, bytes_per_entry=4, headroom_bytes=1 << 40
    )
    assert vast.part_entries == 1 << 20  # ceiling


def test_part_size_never_falls_as_headroom_grows():
    # A run at or over its budget (headroom 0 or below) gets the
    # smallest part, not the no-budget default.
    headrooms = [-(1 << 20), 0, 1, 1024, 100_000, 16 << 20, 1 << 40]
    sizes = [
        plan_io(100_000_000, 4, headroom_bytes=h).part_entries for h in headrooms
    ]
    assert sizes[0] == sizes[1] == 1 << 12
    assert sizes == sorted(sizes)
    assert sizes[-1] == 1 << 20


def test_parts_never_exceed_level_size():
    plan = plan_io(predicted_entries=20_000, bytes_per_entry=4)
    assert plan.part_entries == 20_000
    small = plan_io(predicted_entries=100, bytes_per_entry=4)
    assert small.part_entries == 1 << 12  # floor still wins


def test_as_dict_roundtrip():
    plan = plan_io(predicted_entries=1_000_000, bytes_per_entry=8)
    payload = plan.as_dict()
    assert payload["part_entries"] == plan.part_entries
    assert IOPlan(**payload) == plan


# ----------------------------------------------------------------------
# StoragePolicy: the stateful planner around it
# ----------------------------------------------------------------------
def _policy(tmp_path, **kwargs):
    return StoragePolicy(
        MemoryBudget(kwargs.pop("limit", None)),
        MemoryMeter(),
        store=PartStore(str(tmp_path)),
        **kwargs,
    )


def test_policy_plans_from_headroom(tmp_path):
    policy = _policy(tmp_path, limit=16 << 20)
    policy.meter.set("other", 8 << 20)
    plan = policy.plan_io(100_000_000)
    assert policy.last_io_plan is plan
    assert plan == plan_io(100_000_000, 4, headroom_bytes=8 << 20)
    # Without a budget every spilled level is cut at the default size.
    assert _policy(tmp_path).plan_io(100_000_000).part_entries == 1 << 16


def test_engine_reports_io_plan(paper_graph, tmp_path):
    from repro.apps import MotifCounting
    from repro.core.engine import KaleidoEngine

    engine = KaleidoEngine(
        paper_graph, storage_mode="spill-last", spill_dir=str(tmp_path)
    )
    try:
        # 4-Motif stores (and spills) its 2-embeddings; the last level
        # is folded, never stored.
        result = engine.run(MotifCounting(4))
    finally:
        engine.close()
    plan = result.extra["io_plan"]
    assert plan is not None
    assert plan == {"part_entries": plan["part_entries"]}
    assert plan["part_entries"] >= 1 << 12
