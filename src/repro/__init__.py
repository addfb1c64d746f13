"""repro — a reproduction of Kaleido (ICDE 2020).

Kaleido is a single-machine, out-of-core graph mining system built on
three ideas: the Compressed Sparse Embedding (CSE) tensor encoding of
intermediate embeddings, the EigenHash characteristic-polynomial
isomorphism fingerprint for patterns under eight vertices, and hybrid
half-memory-half-disk storage with prediction-based load balancing.

Quickstart::

    from repro import KaleidoEngine, MotifCounting, datasets

    graph = datasets.load("citeseer")
    result = KaleidoEngine(graph).run(MotifCounting(3))
    print(result.value)        # {pattern_hash: count}
    print(result.summary())

See README.md for the full tour and DESIGN.md for the architecture.
"""

from .apps import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    MotifCounting,
    TriangleCounting,
)
from .core import (
    CSE,
    KaleidoEngine,
    MiningApplication,
    MiningResult,
    PartExecutor,
    Pattern,
    PatternHasher,
    Planner,
    SerialExecutor,
    ThreadedExecutor,
    eigen_hash,
)
from .graph import Graph, GraphBuilder, datasets
from .obs import MetricsRegistry, Tracer, write_chrome_trace
from .service import MiningService, QueryBudget, QueryRequest, QueryResult, TenantQuota
from .storage import MemoryBudget, MemoryMeter

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "datasets",
    "CSE",
    "Pattern",
    "eigen_hash",
    "PatternHasher",
    "KaleidoEngine",
    "MiningApplication",
    "MiningResult",
    "Planner",
    "PartExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "MotifCounting",
    "CliqueDiscovery",
    "TriangleCounting",
    "FrequentSubgraphMining",
    "MiningService",
    "QueryRequest",
    "QueryResult",
    "QueryBudget",
    "TenantQuota",
    "MemoryMeter",
    "MemoryBudget",
    "Tracer",
    "MetricsRegistry",
    "write_chrome_trace",
    "__version__",
]
