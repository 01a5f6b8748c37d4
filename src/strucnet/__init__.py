"""Strong structural controllability of structured networks.

The toolkit works over pattern matrices with entries in {0, *, ?}: "0"
means exactly zero, "*" surely nonzero, "?" arbitrary. It decides whether
every numeric network consistent with the patterns is controllable, via
graph color-change certificates. The numeric sampling audit that backs
the symbolic verdicts is imported by name as `strucnet.oracle`; only it
needs numpy, and `import strucnet` does not load it. The pattern algebra
(pat_add, pat_mul, pat_shift, hstack, block_diag) and the realization
sampler are imported from `strucnet.pattern`.
"""

from .errors import AssumptionViolated, StrucnetError
from .graph import (
    ColoringResult,
    PatternGraph,
    build_graph,
    color_change,
    export_dot,
    is_full_row_rank,
    weak_color_change,
)
from .network import (
    AnalysisReport,
    NodeSystem,
    StructuredNetwork,
    SystemCheck,
    analyze,
    assemble,
    check_structured_system,
    extract_topology,
    is_network_controllable,
    load_network,
    network_from_dict,
    node_necessary_check,
    topology_necessary_check,
    validate,
)
from .pattern import (
    ANY,
    STAR,
    ZERO,
    PatternMatrix,
    load_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "ANY",
    "AnalysisReport",
    "AssumptionViolated",
    "ColoringResult",
    "NodeSystem",
    "PatternGraph",
    "PatternMatrix",
    "STAR",
    "StrucnetError",
    "StructuredNetwork",
    "SystemCheck",
    "ZERO",
    "analyze",
    "assemble",
    "build_graph",
    "check_structured_system",
    "color_change",
    "export_dot",
    "extract_topology",
    "is_full_row_rank",
    "is_network_controllable",
    "load_network",
    "load_pattern",
    "network_from_dict",
    "node_necessary_check",
    "topology_necessary_check",
    "validate",
    "weak_color_change",
]
