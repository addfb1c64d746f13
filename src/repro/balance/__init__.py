"""Load balancing: candidate-size prediction, partitioning, scheduling."""

from .partition import PartitionQuality, balanced_parts, partition_quality
from .predict import predict_costs
from .worksteal import (
    Schedule,
    TaskInterval,
    replay,
    simulate_work_stealing,
    utilization_series,
)

__all__ = [
    "balanced_parts",
    "partition_quality",
    "PartitionQuality",
    "predict_costs",
    "replay",
    "simulate_work_stealing",
    "Schedule",
    "TaskInterval",
    "utilization_series",
]
