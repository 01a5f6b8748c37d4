"""Structured networks of MIMO node systems and their controllability tests.

A structured network couples N node systems, each given by square state,
input, and output patterns, through an interconnection pattern W (node
outputs to node inputs) and an input pattern H (external inputs to node
inputs). The compact dynamics have state pattern A + B W C and input
pattern B H, where A, B, C are the block diagonals of the node patterns.
The network is decided by the same two-pattern test as a single pair
(A_k, B_k): both [X Y] and [X+I Y] must be colorable, with X = A+BWC and
Y = BH.

Every node input must drive exactly one state and every node output read
exactly one state (one '*' per column of each B block and per row of each
C block, no '?'). Under that restriction the symbolic products used here
are class-exact, so colorability of the two assembled patterns decides
strong structural controllability of the whole family. Two cheaper
necessary conditions are also provided: every node system must itself be
controllable (the two-pattern test on each pair (A_k, B_k)), and the
per-block topology summary of (W, H) must be weakly colorable. A failing
node's left null vector, padded with zeros, is the network's and vanishes
on forced rows, so the node screen tests only nodes the verdict left
uncolored.

A StructuredNetwork is frozen, so each view derived from it, the verdict
included, is computed once and shared by every stage; each stage first
calls validate.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate

from .errors import AssumptionViolated, StrucnetError
from .graph import ColoringResult, build_graph, is_full_row_rank, weak_color_change
from .pattern import (
    ANY,
    MAX_SPARSE_SIZE,
    STAR,
    PatternMatrix,
    Record,
    block_diag,
    hstack,
    pat_add,
    pat_mul,
    pat_shift,
    read_json,
)


class NodeSystem(Record):
    """One node: state pattern A, input pattern B, output pattern C. Reports number nodes from 1."""

    __match_args__ = ("A", "B", "C")

    def __init__(self, A: PatternMatrix, B: PatternMatrix, C: PatternMatrix):
        self.__dict__.update(A=A, B=B, C=C)


class StructuredNetwork(Record):
    """N node systems plus interconnection patterns W (r x p) and H (r x m).

    nodes may be any iterable and is kept as a tuple.
    """

    __match_args__ = ("nodes", "W", "H")

    def __init__(self, nodes: tuple[NodeSystem, ...], W: PatternMatrix, H: PatternMatrix):
        self.__dict__.update(nodes=tuple(nodes), W=W, H=H)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Located dimension and one-star messages, empty when the network is valid."""
        violations: list[str] = []
        passed = (set(), set())  # ids of the B, and the C, objects whose one-star check found nothing
        for k, node in enumerate(self.nodes, start=1):
            n, at = node.A.rows, f"node {k}, matrix"
            if node.A.rows != node.A.cols:
                violations.append(f"{at} A: must be square, got {node.A.shape}")
            if node.B.rows != n:
                violations.append(f"{at} B: has {node.B.rows} rows, expected {n} to match A")
            if node.C.cols != n:
                violations.append(f"{at} C: has {node.C.cols} columns, expected {n} to match A")
            for by_row, name, m in ((False, "B", node.B), (True, "C", node.C)):
                if id(m) not in passed[by_row]:
                    found = _check_single_star(m, f"{at} {name}", by_row)
                    violations.extend(found)
                    if not found:
                        passed[by_row].add(id(m))

        r = sum(node.B.cols for node in self.nodes)
        p = sum(node.C.rows for node in self.nodes)
        if self.W.shape != (r, p):
            violations.append(
                f"matrix W: has shape {self.W.shape}, expected ({r}, {p}) from node blocks"
            )
        if self.H.rows != r:
            violations.append(f"matrix H: has {self.H.rows} rows, expected {r} from node blocks")
        return tuple(violations)

    @cached_property
    def A_blk(self) -> PatternMatrix:
        return block_diag([node.A for node in self.nodes])

    @cached_property
    def B_blk(self) -> PatternMatrix:
        return block_diag([node.B for node in self.nodes])

    @cached_property
    def C_blk(self) -> PatternMatrix:
        return block_diag([node.C for node in self.nodes])

    @cached_property
    def topology(self) -> tuple[PatternMatrix, PatternMatrix]:
        """The block summary (W~, H~) of a valid network; see extract_topology."""
        m = self.H.cols
        # the 0-based position of the node that owns each node input (row of W) and output
        input_node = [k for k, node in enumerate(self.nodes) for _ in range(node.B.cols)]
        output_node = [k for k, node in enumerate(self.nodes) for _ in range(node.C.rows)]
        summaries = []
        blocks = ((self.W, output_node, len(self.nodes)), (self.H, range(m), m))
        for pattern, col_block, width in blocks:
            rows: list[dict[int, str]] = [{} for _ in self.nodes]
            for row_node, row in zip(input_node, pattern.row_nonzeros):
                target = rows[row_node]
                for j, symbol in row:
                    col = col_block[j]
                    if symbol is STAR or col not in target:
                        target[col] = symbol
            summaries.append(PatternMatrix._trusted(width, (tuple(sorted(row.items())) for row in rows)))
        return summaries[0], summaries[1]

    @cached_property
    def verdict(self) -> SystemCheck:
        """The two-pattern test of the compact pair; see is_network_controllable."""
        return check_structured_system(*assemble(self))


class SystemCheck(Record):
    """Verdict of the two-pattern rank test, with coloring certificates.

    plain certifies the unshifted pattern [A B]; shifted certifies
    [A+I B]; patterns holds those two patterns. Controllable means both
    graphs are colorable.
    """

    __match_args__ = ("plain", "shifted", "patterns")

    def __init__(
        self,
        plain: ColoringResult,
        shifted: ColoringResult,
        patterns: tuple[PatternMatrix, PatternMatrix],
    ):
        self.__dict__.update(plain=plain, shifted=shifted, patterns=patterns)

    @property
    def controllable(self) -> bool:
        return self.plain.colorable and self.shifted.colorable


def _check_single_star(m: PatternMatrix, where: str, by_row: bool) -> list[str]:
    """One '*' and no '?' in every column of m, or in every row when by_row.

    Each message starts with where. Reads the sparse rows; the columns are
    gathered from them in row order.
    """
    kind = "row" if by_row else "column"
    if by_row:
        lines = m.row_nonzeros
    else:
        lines = [[] for _ in range(m.cols)]
        for i, row in enumerate(m.row_nonzeros):
            for j, symbol in row:
                lines[j].append((i, symbol))
    violations = []
    for a, line in enumerate(lines, start=1):
        if len(line) == 1 and line[0][1] is STAR:
            continue
        for b, symbol in line:
            if symbol is ANY:
                i, j = (a, b + 1) if by_row else (b + 1, a)
                violations.append(f"{where}: '?' entry at row {i}, column {j} is not allowed")
        stars = sum(symbol is STAR for _, symbol in line)
        if stars != 1:
            violations.append(f"{where}: {kind} {a} has {stars} '*' entries, expected exactly one")
    return violations


def validate(network: StructuredNetwork) -> None:
    """Check dimensions and the one-star input/output restriction.

    Raises AssumptionViolated with network.violations, messages such as
    "node 2, matrix C: row 1 has 0 '*' entries, expected exactly one",
    unless each node has a square A with matching B and C, each B column
    and C row holds a single '*', and W, H agree with the block sizes the
    nodes induce. Every stage calls it first.
    """
    if network.violations:
        raise AssumptionViolated(network.violations)


def assemble(network: StructuredNetwork) -> tuple[PatternMatrix, PatternMatrix]:
    """Build the compact pair (A+BWC, BH) of the network.

    The product is associated as B (W C); each step meets a single-star
    condition (C has one '*' per row, B one per column), so the pattern
    products are class-exact and either association gives the same grid.
    """
    validate(network)
    b_blk = network.B_blk
    coupling = pat_mul(b_blk, pat_mul(network.W, network.C_blk))
    return pat_add(network.A_blk, coupling), pat_mul(b_blk, network.H)


def check_structured_system(a: PatternMatrix, b: PatternMatrix) -> SystemCheck:
    """Decide strong structural controllability of the pair (a, b).

    The pair is controllable for every realization iff both [a b] and
    [a+I b] have full row rank, which is_full_row_rank decides.
    """
    if a.rows != a.cols:
        raise StrucnetError(f"state pattern must be square, got {a.shape}")
    if b.rows != a.rows:
        raise StrucnetError(
            f"input pattern has {b.rows} rows, expected {a.rows} to match the state pattern"
        )
    plain = hstack(a, b)
    shifted = pat_shift(plain)
    return SystemCheck(is_full_row_rank(plain), is_full_row_rank(shifted), (plain, shifted))


def is_network_controllable(network: StructuredNetwork) -> SystemCheck:
    """Decide strong structural controllability of the whole network.

    The network is controllable iff its compact pair (A+BWC, BH) is. The
    network keeps the verdict, so every call returns the same object.
    """
    return network.verdict


def node_necessary_check(network: StructuredNetwork) -> list[tuple[int, bool]]:
    """Run the per-node controllability test; any failure rules the network out.

    A controllable network needs every node system (A_k, B_k) to be
    controllable on its own, so this is a cheap necessary screen. Only
    nodes owning a state that the verdict is_network_controllable(network)
    left uncolored are suspects; each suspect's pair is decided by
    check_structured_system, nodes that hold the same A and B objects are
    decided once, and the rest pass, with the answer they would get: if
    node k fails, some realization has z_k != 0 with
    z_k^T [A_k' B_k'] = 0 (or [M_k B_k'], M_k in the class of A_k+I).
    Padded with zeros, z is a left null vector of a realization of
    [A+BWC BH] (or its shift), as z_k^T B_k' = 0 cancels both BWC and BH;
    it vanishes on every forced row, so a state of node k stays uncolored
    in the verdict. Returns (node number, controllable) per node, numbered
    from 1.
    """
    validate(network)
    nodes = network.nodes
    verdict = is_network_controllable(network)
    ends = list(accumulate(node.A.rows for node in nodes))  # one past each node's last state
    suspects = {bisect_right(ends, v - 1) for v in verdict.plain.uncolored | verdict.shifted.uncolored}
    passes = [True] * len(nodes)
    decided: dict[tuple[int, int], bool] = {}  # (id(A), id(B)) -> that pair's answer
    for k in sorted(suspects):
        a, b = nodes[k].A, nodes[k].B
        if (id(a), id(b)) not in decided:
            decided[id(a), id(b)] = check_structured_system(a, b).controllable
        passes[k] = decided[id(a), id(b)]
    return list(enumerate(passes, start=1))


def extract_topology(network: StructuredNetwork) -> tuple[PatternMatrix, PatternMatrix]:
    """Summarize (W, H) block-by-block into N x N and N x m patterns.

    A block that contains a '*' maps to '*', an all-zero block to '0', and
    a block whose only nonzero entries are '?' maps to '?'. One pass over
    the nonzeros of W and H sends each to its block through the
    input->node and output->node maps; the network keeps the result.
    """
    validate(network)
    return network.topology


def topology_necessary_check(network: StructuredNetwork) -> ColoringResult:
    """Weak colorability of the summarized topology [W~ H~].

    A controllable network must have every node reachable from the
    external-input vertices along star edges of the summary graph, so a
    negative answer here certifies the network is not controllable.
    """
    return weak_color_change(build_graph(hstack(*extract_topology(network))))


class AnalysisReport(Record):
    """Everything the full pipeline produces for one valid network."""

    __match_args__ = ("network_check", "node_checks", "topology", "topology_coloring")

    def __init__(
        self,
        network_check: SystemCheck,
        node_checks: list[tuple[int, bool]],
        topology: tuple[PatternMatrix, PatternMatrix],
        topology_coloring: ColoringResult,
    ):
        self.__dict__.update(
            network_check=network_check,
            node_checks=node_checks,
            topology=topology,
            topology_coloring=topology_coloring,
        )

    @property
    def controllable(self) -> bool:
        return self.network_check.controllable

    def to_dict(self) -> dict:
        """JSON form; "valid" and "violations" stay for readers of the report layout."""
        plain, shifted = self.network_check.patterns
        return {
            "valid": True,
            "violations": [],
            "controllable": self.controllable,
            "patterns": {"assembled": plain.to_sparse(), "assembled_shifted": shifted.to_sparse()},
            "checks": {
                "assembled": self.network_check.plain.to_dict(),
                "assembled_shifted": self.network_check.shifted.to_dict(),
            },
            "node_checks": [{"node": k, "controllable": ok} for k, ok in self.node_checks],
            "topology": topology_dict(*self.topology, self.topology_coloring),
        }

    def to_text(self) -> str:
        lines = [f"controllable: {'yes' if self.controllable else 'no'}"]
        lines.append("  " + _coloring_text("[A+BWC BH]", self.network_check.plain))
        lines.append("  " + _coloring_text("[A+I+BWC BH]", self.network_check.shifted))
        node_bits = ", ".join(f"{k}: {'ok' if ok else 'FAIL'}" for k, ok in self.node_checks)
        lines.append(f"node systems: {node_bits}")
        if self.topology_coloring.colorable:
            lines.append("topology [W~ H~]: weakly colorable")
        else:
            missing = sorted(self.topology_coloring.uncolored)
            lines.append(f"topology [W~ H~]: not weakly colorable, unreached vertices {missing}")
        return "\n".join(lines) + "\n"


def topology_dict(w_tilde: PatternMatrix, h_tilde: PatternMatrix, coloring: ColoringResult) -> dict:
    """JSON form of the topology screen: the summary [W~ H~] and its certificate."""
    return {
        "W": w_tilde.to_sparse(),
        "H": h_tilde.to_sparse(),
        "weakly_colorable": coloring.colorable,
        **coloring.to_dict(),
    }


def _coloring_text(label: str, coloring: ColoringResult) -> str:
    if coloring.colorable:
        return f"{label}: colorable"
    missing = sorted(coloring.uncolored)
    return f"{label}: not colorable, uncolored vertices {missing}"


def analyze(network: StructuredNetwork) -> AnalysisReport:
    """Run the full test and the necessary screens on a valid network.

    An invalid network raises AssumptionViolated, as at every stage.
    """
    validate(network)
    return AnalysisReport(
        network_check=is_network_controllable(network),
        node_checks=node_necessary_check(network),
        topology=extract_topology(network),
        topology_coloring=topology_necessary_check(network),
    )


def network_from_dict(obj: dict) -> StructuredNetwork:
    """Build a network from the JSON object layout.

    Expected shape: {"nodes": [{"A": grid, "B": grid, "C": grid}, ...],
    "W": grid, "H": grid}, where each grid is a list of "0"/"*"/"?" token
    rows or the sparse object {"shape": [r, c], "entries": [[i, j, token],
    ...]} (see PatternMatrix.from_json). The rows, and the columns, of all
    matrices together may not pass MAX_SPARSE_SIZE; the matrix that
    crosses it is named. Shape consistency beyond that is checked by
    validate, at each stage. Node matrices given as equal token grids
    share one PatternMatrix, and each still counts toward that limit.
    """
    if not isinstance(obj, dict):
        raise StrucnetError(f"expected a JSON object, got {type(obj).__name__}")
    if "nodes" not in obj:
        raise StrucnetError("missing required key 'nodes'")
    if not isinstance(obj["nodes"], list) or not obj["nodes"]:
        raise StrucnetError("'nodes' must be a non-empty list")
    rows = cols = 0
    shared: dict[tuple, PatternMatrix] = {}  # a node matrix's token grid, as tuples -> its pattern

    def read(where: str, raw, share: bool = False) -> PatternMatrix:
        nonlocal rows, cols
        key = matrix = None
        # only list rows are keyed: tuple() of a str row would pose as a row of tokens
        if share and type(raw) is list and set(map(type, raw)) == {list}:
            key = tuple(map(tuple, raw))
            try:
                matrix = shared.get(key)
            except TypeError:  # an unhashable token, which from_json names
                key = None
        if matrix is None:
            try:
                matrix = PatternMatrix.from_json(raw)
            except StrucnetError as exc:
                raise StrucnetError(f"{where}: {exc}") from None
            if key is not None:
                shared[key] = matrix
        rows += matrix.rows
        cols += matrix.cols
        if rows > MAX_SPARSE_SIZE or cols > MAX_SPARSE_SIZE:
            total, axis = (rows, "rows") if rows > MAX_SPARSE_SIZE else (cols, "columns")
            raise StrucnetError(
                f"{where}: brings the file to {total} {axis}, "
                f"over the limit of {MAX_SPARSE_SIZE} for all matrices together"
            )
        return matrix

    nodes = []
    for k, entry in enumerate(obj["nodes"]):
        if not isinstance(entry, dict):
            raise StrucnetError(f"nodes[{k}] must be an object")
        matrices = {}
        for name in ("A", "B", "C"):
            if name not in entry:
                raise StrucnetError(f"nodes[{k}] is missing matrix '{name}'")
            matrices[name] = read(f"nodes[{k}].{name}", entry[name], share=True)
        nodes.append(NodeSystem(matrices["A"], matrices["B"], matrices["C"]))
    matrices = {}
    for name in ("W", "H"):
        if name not in obj:
            raise StrucnetError(f"missing required key '{name}'")
        matrices[name] = read(name, obj[name])
    return StructuredNetwork(tuple(nodes), matrices["W"], matrices["H"])


def load_network(path) -> StructuredNetwork:
    """Read a structured network from a JSON file."""
    return network_from_dict(read_json(path))
