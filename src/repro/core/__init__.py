"""Kaleido core: CSE, exploration, patterns, EigenHash, engine."""

from .api import (
    BlockFilter,
    CandidateTable,
    EngineContext,
    MiningApplication,
    MiningResult,
    PatternMap,
)
from .cse import CSE, InMemoryLevel, Level
from .eigenhash import PatternHasher, eigen_hash, faddeev_leverrier, weighted_adjacency
from .engine import KaleidoEngine
from .executor import (
    ExecutionReport,
    PartExecutor,
    SerialExecutor,
    ThreadedExecutor,
    resolve_executor,
)
from .explore import (
    ExpansionStats,
    InMemorySink,
    LevelSink,
    PartExpansion,
    even_parts,
    expand_edge_level,
    expand_vertex_level,
)
from .plan import LevelPlan, Planner
from .isomorphism import canonical_key
from .pattern import MAX_EIGENHASH_VERTICES, Pattern, triangle_index
from .restrictions import (
    LevelConstraint,
    PatternGather,
    Restriction,
    RestrictionSet,
    compile_restrictions,
    pattern_gathers,
)

__all__ = [
    "CSE",
    "InMemoryLevel",
    "Level",
    "Pattern",
    "triangle_index",
    "MAX_EIGENHASH_VERTICES",
    "eigen_hash",
    "faddeev_leverrier",
    "weighted_adjacency",
    "PatternHasher",
    "canonical_key",
    "Restriction",
    "RestrictionSet",
    "LevelConstraint",
    "PatternGather",
    "compile_restrictions",
    "pattern_gathers",
    "expand_vertex_level",
    "expand_edge_level",
    "even_parts",
    "ExpansionStats",
    "PartExpansion",
    "LevelSink",
    "InMemorySink",
    "Planner",
    "LevelPlan",
    "PartExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ExecutionReport",
    "resolve_executor",
    "KaleidoEngine",
    "MiningApplication",
    "MiningResult",
    "EngineContext",
    "PatternMap",
    "BlockFilter",
    "CandidateTable",
]
