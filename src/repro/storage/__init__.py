"""Hybrid half-memory-half-disk storage for large intermediate data."""

from .checkpoint import RunCheckpoint, load_cse, save_cse
from .faults import FaultPlan, FaultSpec, FaultyPartStore
from .hybrid import SpillingSink, StoragePolicy, spill_level
from .meter import IOEvent, IOStats, MemoryBudget, MemoryMeter
from .queue import WritingQueue
from .retry import RetryPolicy
from .spill import PartHandle, PartStore, SpilledLevel

__all__ = [
    "MemoryMeter",
    "MemoryBudget",
    "IOStats",
    "IOEvent",
    "PartStore",
    "PartHandle",
    "SpilledLevel",
    "WritingQueue",
    "SpillingSink",
    "StoragePolicy",
    "spill_level",
    "save_cse",
    "load_cse",
    "RunCheckpoint",
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
    "FaultyPartStore",
]
