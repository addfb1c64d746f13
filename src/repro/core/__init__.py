"""Kaleido core: CSE, canonicality, exploration, patterns, EigenHash, engine."""

from .api import (
    BlockFilter,
    CandidateTable,
    EngineContext,
    MiningApplication,
    MiningResult,
    PatternMap,
)
from .canonical import (
    canonical_edge_order,
    canonical_order,
    edge_is_canonical,
    is_canonical,
)
from .cse import CSE, InMemoryLevel, Level
from .eigenhash import PatternHasher, eigen_hash, faddeev_leverrier, weighted_adjacency
from .engine import KaleidoEngine, aggregate_part
from .executor import (
    ExecutionReport,
    PartExecutor,
    SerialExecutor,
    SimulatedSchedule,
    ThreadedExecutor,
    resolve_executor,
)
from .explore import (
    ExpansionStats,
    InMemorySink,
    LevelSink,
    PartExpansion,
    canonical_extensions,
    even_parts,
    expand_edge_level,
    expand_vertex_level,
)
from .plan import AggregatePlan, LevelPlan, Planner
from .isomorphism import (
    are_isomorphic,
    automorphism_count,
    canonical_key,
    position_orbits,
)
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
    "are_isomorphic",
    "canonical_key",
    "automorphism_count",
    "position_orbits",
    "Restriction",
    "RestrictionSet",
    "LevelConstraint",
    "PatternGather",
    "compile_restrictions",
    "pattern_gathers",
    "canonical_order",
    "is_canonical",
    "canonical_edge_order",
    "edge_is_canonical",
    "expand_vertex_level",
    "expand_edge_level",
    "canonical_extensions",
    "even_parts",
    "ExpansionStats",
    "PartExpansion",
    "LevelSink",
    "InMemorySink",
    "Planner",
    "LevelPlan",
    "AggregatePlan",
    "PartExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "SimulatedSchedule",
    "ExecutionReport",
    "resolve_executor",
    "aggregate_part",
    "KaleidoEngine",
    "MiningApplication",
    "MiningResult",
    "EngineContext",
    "PatternMap",
    "BlockFilter",
    "CandidateTable",
]
