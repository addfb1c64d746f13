"""The four evaluation applications (Section 5.1) plus references."""

from .approximate import ApproximateMotifCounting, MotifEstimate, approximate_motifs
from .matching import MatchResult, PatternMatching
from .clique import CliqueDiscovery, CliqueResult
from .fsm_vertex import VertexInducedFSM
from .fsm import FrequentSubgraphMining, FSMResult
from .mni import MNIDomains, MNIState
from .motif import MOTIF_COUNTS, MotifCounting, MotifResult
from .triangle import TriangleCounting

__all__ = [
    "FrequentSubgraphMining",
    "FSMResult",
    "MotifCounting",
    "MotifResult",
    "MOTIF_COUNTS",
    "CliqueDiscovery",
    "CliqueResult",
    "TriangleCounting",
    "MNIDomains",
    "MNIState",
    "ApproximateMotifCounting",
    "MotifEstimate",
    "approximate_motifs",
    "PatternMatching",
    "MatchResult",
    "VertexInducedFSM",
]
