"""Strong structural controllability of structured networks.

The toolkit works over pattern matrices with entries in {0, *, ?}: "0"
means exactly zero, "*" surely nonzero, "?" arbitrary. It decides whether
every numeric network consistent with the patterns is controllable, via
graph color-change certificates, and backs the symbolic verdicts with a
numeric sampling oracle. Only the oracle needs numpy.
"""

from .errors import (
    AssumptionViolated,
    BadShape,
    DimensionMismatch,
    NetworkFormatError,
    NumericBreakdown,
    PatternParseError,
)
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
    Violation,
    analyze,
    assemble,
    check_structured_system,
    extract_topology,
    is_network_controllable,
    load_network,
    network_from_dict,
    network_to_dict,
    node_necessary_check,
    topology_necessary_check,
    validate,
)
from .pattern import (
    ANY,
    STAR,
    SYMBOLS,
    ZERO,
    PatternMatrix,
    PatternSymbol,
    block_diag,
    hstack,
    is_member,
    load_pattern,
    pat_add,
    pat_identity,
    pat_mul,
    pat_shift,
    sample_realization,
    sym_add,
    sym_mul,
)

__version__ = "0.1.0"

# The numeric oracle needs numpy; it is imported on first use of one of its
# names (PEP 562), so the symbolic checks never load numpy.
_ORACLE_NAMES = frozenset({
    "AuditConfig",
    "AuditOutcome",
    "audit_network",
    "audit_rank",
    "enumerate_patterns",
    "kalman_controllable",
    "shift_exclusion_exhaustive",
    "shift_exclusion_random",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ANY",
    "AnalysisReport",
    "AssumptionViolated",
    "AuditConfig",
    "AuditOutcome",
    "BadShape",
    "ColoringResult",
    "DimensionMismatch",
    "NetworkFormatError",
    "NodeSystem",
    "NumericBreakdown",
    "PatternGraph",
    "PatternMatrix",
    "PatternParseError",
    "PatternSymbol",
    "STAR",
    "SYMBOLS",
    "StructuredNetwork",
    "SystemCheck",
    "Violation",
    "ZERO",
    "analyze",
    "assemble",
    "audit_network",
    "audit_rank",
    "block_diag",
    "build_graph",
    "check_structured_system",
    "color_change",
    "enumerate_patterns",
    "export_dot",
    "extract_topology",
    "hstack",
    "is_full_row_rank",
    "is_member",
    "is_network_controllable",
    "kalman_controllable",
    "load_network",
    "load_pattern",
    "network_from_dict",
    "network_to_dict",
    "node_necessary_check",
    "pat_add",
    "pat_identity",
    "pat_mul",
    "pat_shift",
    "sample_realization",
    "shift_exclusion_exhaustive",
    "shift_exclusion_random",
    "sym_add",
    "sym_mul",
    "topology_necessary_check",
    "validate",
    "weak_color_change",
]
