"""rigicert: combinatorial rigidity of Laman graphs made executable, through
to machine-checkable non-solubility certificates for K(3,3).

Layers: `graph` (structural operations), `rigidity` (pebble game, surgery,
census), `decomposition` (blocks, QS classifier, reduction engine), `algebra`
(exact polynomial pipeline and certificates), `cli` (reports).
"""

from .graph import (
    Block,
    BlockDecomposition,
    Graph,
    canonical_form,
    contract_edge,
    format_graph,
    freedom_number,
    induced_subgraph,
    is_m_connected,
    is_planar,
    parse_graph,
    separation_pairs,
)
from .rigidity import (
    CensusResult,
    enumerate_laman,
    is_basic,
    is_contractible,
    is_independent,
    is_laman,
    maximal_mi_subgraph,
    surgery,
)
from .decomposition import (
    QSClassification,
    ReductionTrace,
    TerminalKind,
    Verdict,
    decompose_unique,
    is_doublet,
    qs_classify,
    reduce_step,
    reduce_to_terminal,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockDecomposition",
    "Graph",
    "canonical_form",
    "contract_edge",
    "format_graph",
    "freedom_number",
    "induced_subgraph",
    "is_m_connected",
    "is_planar",
    "parse_graph",
    "separation_pairs",
    "CensusResult",
    "enumerate_laman",
    "is_basic",
    "is_contractible",
    "is_independent",
    "is_laman",
    "maximal_mi_subgraph",
    "surgery",
    "QSClassification",
    "ReductionTrace",
    "TerminalKind",
    "Verdict",
    "decompose_unique",
    "is_doublet",
    "qs_classify",
    "reduce_step",
    "reduce_to_terminal",
    "__version__",
]
