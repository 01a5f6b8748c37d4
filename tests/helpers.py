"""Shared test machinery: random generators and independent reference rules.

The reference implementations here deliberately avoid the library's
worklist scheduling: they rescan the whole graph for applicable forcings
at every step and can apply them in any (possibly randomized) order, so
they double as order-invariance probes and as an oracle for the fixpoint.
The single-star product conditions live here too: they state the
class-exactness theorem that network assembly relies on, and only tests
check them. So do the dense references for the sparse library code: the
left-to-right fold over every inner index that defines the pattern
product, the entrywise grid forms of the pattern sum, the identity
shift, hstack and block_diag, the per-block slicing of W and H that
defines the topology summary, and the block-by-block assembly of the
network patterns. The random stream of a realization is fixed by the
library's strucnet.pattern.sample_realization, which audit_rank and
audit_network_reference call. The hypothesis strategies for random
patterns, random networks and damaged input files are shared here as
well.

The library keeps a pattern only as the sparse nonzeros of its rows and
reads one from outside only as a token grid or a sparse object, so the
dense views tests read and write are built here: the grid, its token
rows, slices, one-entry edits, and a pattern from a grid of symbols
(grid), from token text (parse) or from each row's (column, symbol)
pairs (from_pairs). So are the symbol tables the references fold with
(SYMBOLS, sym_add, sym_mul) and the other names only tests call: the
identity pattern, the class-membership test, the dense network writer,
the Kalman and row-rank audits, the chain network (also as a file's
JSON object of one-state nodes), the simple-graph
networks whose verdicts zero forcing publishes, and the sweeps behind
the theorem that a pattern and its identity shift never both certify full
row rank. The network audit one trial at a time is kept here as the
reference that the chunked library audit must match exactly. So is the
environment of a fresh interpreter that imports the library from src.
"""

from __future__ import annotations

import copy
import itertools
import os
from collections import deque
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from hypothesis import strategies as st

from strucnet import (
    ColoringResult,
    NodeSystem,
    PatternGraph,
    StrucnetError,
    StructuredNetwork,
    is_full_row_rank,
)
from strucnet.oracle import RANK_TOLERANCE, AuditConfig, AuditOutcome, _controllability_rank
from strucnet.pattern import (
    ANY,
    STAR,
    ZERO,
    PatternMatrix,
    pat_shift,
    sample_realization,
)

#: All three symbols, in a fixed order used by exhaustive sweeps.
SYMBOLS = (ZERO, STAR, ANY)

# The symbol arithmetic. Adding two entries that may both be nonzero gives
# '?' because cancellation cannot be ruled out; a product is zero as soon
# as one factor is zero and is only surely nonzero when both factors are.
_ADD = {
    (ZERO, ZERO): ZERO, (ZERO, STAR): STAR, (ZERO, ANY): ANY,
    (STAR, ZERO): STAR, (STAR, STAR): ANY, (STAR, ANY): ANY,
    (ANY, ZERO): ANY, (ANY, STAR): ANY, (ANY, ANY): ANY,
}
_MUL = {
    (ZERO, ZERO): ZERO, (ZERO, STAR): ZERO, (ZERO, ANY): ZERO,
    (STAR, ZERO): ZERO, (STAR, STAR): STAR, (STAR, ANY): ANY,
    (ANY, ZERO): ZERO, (ANY, STAR): ANY, (ANY, ANY): ANY,
}


def sym_add(a: str, b: str) -> str:
    """Add two pattern symbols."""
    return _ADD[(a, b)]


def sym_mul(a: str, b: str) -> str:
    """Multiply two pattern symbols."""
    return _MUL[(a, b)]


def grid(rows: Sequence[Sequence[str]]) -> PatternMatrix:
    """The pattern of a dense grid of symbols, which are its tokens."""
    return PatternMatrix.from_tokens(rows)


def from_pairs(cols: int, rows: Iterable[Iterable[tuple[int, str]]]) -> PatternMatrix:
    """The pattern whose row i holds the 0-based (column, symbol) pairs rows[i], read in sparse form."""
    rows = list(rows)
    entries = [[i, j + 1, s] for i, row in enumerate(rows, start=1) for j, s in row]
    return PatternMatrix.from_json({"shape": [len(rows), cols], "entries": entries})


def parse(text: str) -> PatternMatrix:
    """The pattern of whitespace-separated tokens, one matrix row per line."""
    return PatternMatrix.from_tokens([line.split() for line in text.strip().splitlines()])


def dense(m: PatternMatrix) -> tuple[tuple[str, ...], ...]:
    """The full grid of m: each row's listed symbols, '0' everywhere else."""
    out = []
    for row in m.row_nonzeros:
        line = [ZERO] * m.cols
        for j, symbol in row:
            line[j] = symbol
        out.append(tuple(line))
    return tuple(out)


def tokens(m: PatternMatrix) -> list[list[str]]:
    """The grid of m as rows of "0"/"*"/"?" tokens, the dense JSON form."""
    return [list(row) for row in dense(m)]


def filled(rows: int, cols: int, symbol: str) -> PatternMatrix:
    return grid(((symbol,) * cols,) * rows)


def submatrix(m: PatternMatrix, row_start: int, row_stop: int, col_start: int, col_stop: int) -> PatternMatrix:
    return grid(tuple(row[col_start:col_stop] for row in dense(m)[row_start:row_stop]))


def with_entry(m: PatternMatrix, i: int, j: int, symbol: str) -> PatternMatrix:
    """Copy of m with entry (i, j) replaced."""
    rows = [list(row) for row in dense(m)]
    rows[i][j] = symbol
    return grid(rows)


def pat_identity(n: int) -> PatternMatrix:
    """The n-by-n pattern with '*' on the diagonal and '0' elsewhere."""
    if n < 1:
        raise StrucnetError(f"identity size must be positive, got {n}")
    return from_pairs(n, (((i, STAR),) for i in range(n)))


def is_member(values: np.ndarray, m: PatternMatrix) -> bool:
    """True iff the numeric matrix lies in the pattern class of m.

    Zero entries must be exactly 0, star entries exactly nonzero; '?'
    entries are unconstrained.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != m.shape:
        raise StrucnetError(
            f"value grid has shape {values.shape}, pattern has shape {m.shape}"
        )
    for i, row in enumerate(dense(m)):
        for j, symbol in enumerate(row):
            if symbol is ZERO and values[i, j] != 0.0:
                return False
            if symbol is STAR and values[i, j] == 0.0:
                return False
    return True


def network_to_dict(network: StructuredNetwork) -> dict:
    """The network as the JSON object layout, every matrix a dense token grid."""
    return {
        "nodes": [
            {"A": tokens(node.A), "B": tokens(node.B), "C": tokens(node.C)}
            for node in network.nodes
        ],
        "W": tokens(network.W),
        "H": tokens(network.H),
    }


def kalman_controllable(a, b) -> bool:
    """Classical rank test: the pair (a, b) is controllable iff the
    controllability matrix has rank n (the audit's own rank routine)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"state matrix must be square, got shape {a.shape}")
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise ValueError(
            f"input matrix has shape {b.shape}, expected {a.shape[0]} rows"
        )
    return _controllability_rank(a, b) == a.shape[0]


def audit_rank(m: PatternMatrix, cfg: AuditConfig) -> AuditOutcome:
    """Sample realizations of m and test numeric full row rank.

    The rank counts the singular values above RANK_TOLERANCE relative to
    the largest, the audit's own threshold. When the coloring certifies
    full row rank, any failure here is an inconsistency; in the other
    direction a zero failure count proves nothing.
    """
    if m.rows > m.cols:
        raise StrucnetError(f"row-rank audit needs rows <= cols, got {m.shape}")
    failures = []
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, trial])
        values = sample_realization(m, rng)
        sigma = np.linalg.svd(values, compute_uv=False)
        rank = np.count_nonzero(sigma > RANK_TOLERANCE * sigma[..., :1])
        if rank < m.rows:
            failures.append((trial, f"numeric row rank {rank} < {m.rows}"))
    return AuditOutcome(cfg.trials, len(failures), failures[0] if failures else None)


def audit_network_reference(network: StructuredNetwork, cfg: AuditConfig) -> AuditOutcome:
    """Reference network audit: one trial at a time, five sample_realization
    calls per trial on the one generator default_rng(cfg.seed), and one
    Kalman rank per trial."""
    n = network.A_blk.rows
    failures = []
    rng = np.random.default_rng(cfg.seed)
    for trial in range(cfg.trials):
        a, b, c, w, h = (
            sample_realization(m, rng)
            for m in (network.A_blk, network.B_blk, network.C_blk, network.W, network.H)
        )
        rank = _controllability_rank(a + b @ w @ c, b @ h)
        if rank < n:
            failures.append((trial, f"controllability rank {rank} < {n}"))
    return AuditOutcome(cfg.trials, len(failures), failures[0] if failures else None)


def chain_network(nodes: int, diagonal: bool = False) -> StructuredNetwork:
    """A chain of identical 5-state nodes: each node's states form a path
    from its input to its output, node k feeds node k + 1, and the single
    external input drives node 1. With diagonal, each node's A also holds
    a '*' at every (i, i)."""
    loop = [((i, STAR),) if diagonal else () for i in range(5)]
    path = from_pairs(5, [loop[0]] + [((i, STAR),) + loop[i + 1] for i in range(4)])
    node = NodeSystem(
        A=path,
        B=from_pairs(1, [((0, STAR),)] + [()] * 4),
        C=from_pairs(5, [((4, STAR),)]),
    )
    w = from_pairs(nodes, [()] + [((k, STAR),) for k in range(nodes - 1)])
    h = from_pairs(1, [((0, STAR),)] + [()] * (nodes - 1))
    return StructuredNetwork((node,) * nodes, w, h)


def chain_object(nodes: int, node: dict | None = None) -> dict:
    """A chain of single-input, single-output nodes as a network file's JSON
    object: node k feeds node k + 1, the single external input drives node
    1, and W and H are written sparse, so the object grows with nodes, not
    nodes². Every node is the JSON object node, by default one state with
    A = [0] and B = C = [*]."""
    one = [["*"]]
    return {
        "nodes": [node or {"A": [["0"]], "B": one, "C": one}] * nodes,
        "W": {"shape": [nodes, nodes], "entries": [[k + 1, k, "*"] for k in range(1, nodes)]},
        "H": {"shape": [nodes, 1], "entries": [[1, 1, "*"]]},
    }


def fresh_process_env() -> dict[str, str]:
    """os.environ with the repository's src first on PYTHONPATH, for a child
    interpreter that must import this checkout's strucnet."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    return env


# Simple graphs on vertices 0..n-1, as (n, edges) with each edge listed once.
def path_graph(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [(v, v + 1) for v in range(n - 1)]


def cycle_graph(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [(v, (v + 1) % n) for v in range(n)]


def complete_graph(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, list(itertools.combinations(range(n), 2))


def complete_bipartite_graph(m: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    """K_{m,n}: parts 0..m-1 and m..m+n-1."""
    return m + n, [(u, v) for u in range(m) for v in range(m, m + n)]


def hypercube_graph(d: int) -> tuple[int, list[tuple[int, int]]]:
    """Q_d: vertices are d-bit words, adjacent when they differ in one bit."""
    return 2**d, [(v, v | 1 << b) for v in range(2**d) for b in range(d) if not v >> b & 1]


def petersen_graph() -> tuple[int, list[tuple[int, int]]]:
    """Outer 5-cycle 0..4, spokes i - i+5, inner pentagram on 5..9."""
    return 10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [
        (i + 5, (i + 2) % 5 + 5) for i in range(5)
    ]


def graph_network(
    graph: tuple[int, list[tuple[int, int]]],
    driven: Iterable[int],
    groups: Sequence[Sequence[int]] | None = None,
) -> StructuredNetwork:
    """The network of a simple graph that is controllable iff driven is a zero forcing set.

    By default every vertex is a one-state node with A = [?] and B = C = [*],
    W has a '*' for each edge in both directions, and H has one column per
    driven vertex, with a '*' in its row; an empty driven set gets one
    all-zero column. Then A + BWC has '?' on the diagonal and '*' on the
    edges, its identity shift is the same pattern, and the color change
    rule on [A+BWC BH] is zero forcing on the graph from the driven set.

    groups, a partition of the vertices, gives the grouped MIMO form of the
    same network: node k has the states groups[k] in that order, the edges
    inside a group in its A, B = C = I, and the edges between groups in W.
    Both forms decide the same pattern, with the states renumbered.
    """
    n, edges = graph
    groups = [[v] for v in range(n)] if groups is None else groups
    state = {v: i for i, v in enumerate(v for group in groups for v in group)}
    assert sorted(state) == list(range(n)), "groups must partition the vertices"
    group_of = {v: k for k, group in enumerate(groups) for v in group}
    inner: list[list[tuple[int, int]]] = [[] for _ in groups]
    cross: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if group_of[a] == group_of[b]:
                inner[group_of[a]].append((a, b))
            else:
                cross[state[a]].append((state[b], STAR))
    nodes = []
    for group, group_edges in zip(groups, inner):
        local = {v: i for i, v in enumerate(group)}
        rows: list[dict[int, str]] = [{i: ANY} for i in range(len(group))]
        for a, b in group_edges:
            rows[local[a]][local[b]] = STAR
        identity = from_pairs(len(group), [((i, STAR),) for i in range(len(group))])
        a_k = from_pairs(len(group), [sorted(row.items()) for row in rows])
        nodes.append(NodeSystem(a_k, identity, identity))
    columns = sorted(state[v] for v in set(driven))
    h_rows: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for c, i in enumerate(columns):
        h_rows[i].append((c, STAR))
    w = from_pairs(n, [sorted(row) for row in cross])
    h = from_pairs(max(1, len(columns)), h_rows)
    return StructuredNetwork(nodes, w, h)


def enumerate_patterns(rows: int, cols: int):
    """Yield every rows-by-cols pattern matrix, 3^(rows*cols) in total."""
    for combo in itertools.product(SYMBOLS, repeat=rows * cols):
        yield grid(tuple(combo[i * cols : (i + 1) * cols] for i in range(rows)))


def _violates_shift_exclusion(m: PatternMatrix) -> bool:
    return (
        is_full_row_rank(m).colorable
        and is_full_row_rank(pat_shift(m)).colorable
    )


def shift_exclusion_exhaustive(size: int) -> bool:
    """Check all square patterns of the given size (1 or 2): a pattern and
    its identity-shifted sum never both certify full row rank."""
    if size not in (1, 2):
        raise ValueError(f"exhaustive sweep supports sizes 1 and 2, got {size}")
    return not any(_violates_shift_exclusion(m) for m in enumerate_patterns(size, size))


def shift_exclusion_random(size: int, samples: int, seed: int = 0) -> bool:
    """Randomized extension of the exhaustive sweep to larger sizes."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        draws = rng.integers(0, 3, size=(size, size))
        m = grid(tuple(tuple(SYMBOLS[v] for v in row) for row in draws))
        if _violates_shift_exclusion(m):
            return False
    return True


def random_pattern(rng, rows, cols, weights=(0.5, 0.35, 0.15)) -> PatternMatrix:
    draws = rng.choice(3, size=(rows, cols), p=list(weights))
    return grid(tuple(tuple(SYMBOLS[v] for v in row) for row in draws))


@st.composite
def sparse_patterns(draw, rows, cols):
    """A rows x cols pattern whose nonzero share runs from none to all, with
    some rows and columns forced entirely zero."""
    tenths = draw(st.integers(0, 10))  # share of nonzero entries, in tenths
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    nonzero = st.sampled_from((STAR, ANY))

    def entry(i, j):
        if i in zero_rows or j in zero_cols or draw(st.integers(0, 9)) >= tenths:
            return ZERO
        return draw(nonzero)

    return grid(tuple(tuple(entry(i, j) for j in range(cols)) for i in range(rows)))


def single_star_cols(rng, rows, cols) -> PatternMatrix:
    """Pattern with exactly one '*' per column, as node input matrices need."""
    out = [[ZERO] * cols for _ in range(rows)]
    for j in range(cols):
        out[int(rng.integers(rows))][j] = STAR
    return grid(out)


def single_star_rows(rng, rows, cols) -> PatternMatrix:
    """Pattern with exactly one '*' per row, as node output matrices need."""
    out = [[ZERO] * cols for _ in range(rows)]
    for i in range(rows):
        out[i][int(rng.integers(cols))] = STAR
    return grid(out)


def _random_node_state(rng, n_k) -> PatternMatrix:
    # a chain-like structure about 40% of the time keeps a useful share of
    # the generated networks controllable
    if rng.random() < 0.4:
        a = random_pattern(rng, n_k, n_k, (0.75, 0.15, 0.10))
        for i in range(1, n_k):
            a = with_entry(a, i, i - 1, STAR)
        return a
    return random_pattern(rng, n_k, n_k)


def random_network(rng) -> StructuredNetwork:
    """A random valid network: N <= 4 nodes, n_k <= 3, r_k = p_k <= 2."""
    num_nodes = int(rng.integers(1, 5))
    nodes = []
    for _ in range(num_nodes):
        n_k = int(rng.integers(1, 4))
        io = int(rng.integers(1, 3))
        nodes.append(
            NodeSystem(
                A=_random_node_state(rng, n_k),
                B=single_star_cols(rng, n_k, io),
                C=single_star_rows(rng, io, n_k),
            )
        )
    r = sum(node.B.cols for node in nodes)
    p = sum(node.C.rows for node in nodes)
    m = int(rng.integers(1, 3))
    w = random_pattern(rng, r, p, (0.6, 0.3, 0.1))
    if rng.random() < 0.5:
        h = single_star_cols(rng, r, m)
    else:
        h = random_pattern(rng, r, m, (0.5, 0.4, 0.1))
    return StructuredNetwork(tuple(nodes), w, h)


@st.composite
def networks(draw, repeat_nodes: bool = False):
    """A random_network from a drawn seed. With repeat_nodes, 2-6 nodes are
    drawn from it with repetition and get a fresh W and a one-star H."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_network(rng)
    if not repeat_nodes:
        return net
    nodes = tuple(draw(st.lists(st.sampled_from(net.nodes), min_size=2, max_size=6)))
    r = sum(node.B.cols for node in nodes)
    p = sum(node.C.rows for node in nodes)
    return StructuredNetwork(nodes, random_pattern(rng, r, p, (0.6, 0.3, 0.1)), single_star_cols(rng, r, 1))


#: Values a mutated input file carries where a token, a grid, a sparse
#: object, a list or a number belongs: non-tokens, empty and ragged grids,
#: and sparse objects with a missing key, a zero, boolean or too large
#: shape, an out-of-range entry or a four-item entry.
BAD_JSON_VALUES = (
    True, None, 2.5, float("nan"), 2**70, "", "x",
    [], [[]], [["*", "0"], ["*"]], [["*"], []],
    {"entries": []}, {"shape": [1, 1]},
    {"shape": [0, 1], "entries": []}, {"shape": [True, 1], "entries": []},
    {"shape": [1, 1], "entries": [[2, 1, "*"]]}, {"shape": [1, 1], "entries": [[1, 1, "*", "*"]]},
    {"shape": [10**7, 1], "entries": []},
)


def _json_slots(value):
    """Yield (container, key) for every value nested in value, depth first."""
    if isinstance(value, (dict, list)):
        for key in list(value) if isinstance(value, dict) else range(len(value)):
            yield value, key
            yield from _json_slots(value[key])


@st.composite
def mutated_json(draw, objects: Sequence):
    """A copy of one of the JSON values (network objects or pattern files)
    with one to three nested values replaced by one of BAD_JSON_VALUES,
    deleted, or duplicated in place (a list item; a dict value drawn for
    duplication is replaced)."""
    obj = copy.deepcopy(draw(st.sampled_from(objects)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_json_slots(obj))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if action == "delete":
            del container[key]
        elif action == "duplicate" and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(BAD_JSON_VALUES)))
    return obj


def pat_mul_fold(m: PatternMatrix, n: PatternMatrix) -> PatternMatrix:
    """Reference pattern product: entry (i, j) folds sym_mul(m[i, k], n[k, j])
    with sym_add over every inner index k, left to right."""
    if m.cols != n.rows:
        raise StrucnetError(
            f"cannot multiply patterns of shapes {m.shape} and {n.shape}"
        )
    n_cols = list(zip(*dense(n)))
    out = []
    for mrow in dense(m):
        out_row = []
        for ncol in n_cols:
            acc = ZERO
            for a, b in zip(mrow, ncol):
                acc = sym_add(acc, sym_mul(a, b))
            out_row.append(acc)
        out.append(tuple(out_row))
    return grid(out)


def pat_add_dense(m: PatternMatrix, n: PatternMatrix) -> PatternMatrix:
    """Reference pattern sum: sym_add of every pair of grid entries."""
    if m.shape != n.shape:
        raise StrucnetError(f"cannot add patterns of shapes {m.shape} and {n.shape}")
    return grid(
        tuple(
            tuple(sym_add(a, b) for a, b in zip(mrow, nrow))
            for mrow, nrow in zip(dense(m), dense(n))
        )
    )


def pat_shift_dense(m: PatternMatrix) -> PatternMatrix:
    """Reference m + [I 0]: sym_add of '*' to each diagonal grid entry."""
    if m.rows > m.cols:
        raise StrucnetError(f"cannot shift a pattern with more rows than columns, got {m.shape}")
    return grid(
        tuple(
            row[:i] + (sym_add(row[i], STAR),) + row[i + 1 :]
            for i, row in enumerate(dense(m))
        )
    )


def hstack_dense(m: PatternMatrix, n: PatternMatrix) -> PatternMatrix:
    """Reference [m n]: each grid row of m followed by that of n."""
    if m.rows != n.rows:
        raise StrucnetError(f"cannot hstack patterns with {m.rows} and {n.rows} rows")
    return grid(tuple(mrow + nrow for mrow, nrow in zip(dense(m), dense(n))))


def block_diag_dense(blocks: Sequence[PatternMatrix]) -> PatternMatrix:
    """Reference block diagonal: every block copied into a zero grid."""
    blocks = list(blocks)
    if not blocks:
        raise StrucnetError("block_diag needs at least one block")
    total_rows = sum(b.rows for b in blocks)
    total_cols = sum(b.cols for b in blocks)
    cells = [[ZERO] * total_cols for _ in range(total_rows)]
    row_off = col_off = 0
    for block in blocks:
        for i, row in enumerate(dense(block)):
            for j, symbol in enumerate(row):
                cells[row_off + i][col_off + j] = symbol
        row_off += block.rows
        col_off += block.cols
    return grid(cells)


def _offsets(sizes: Iterable[int]) -> list[int]:
    """Start of each block along one axis, then the total."""
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    return offsets


def interconnection_block(network: StructuredNetwork, i: int, j: int) -> PatternMatrix:
    """Block W^(ij): rows of node i's inputs, columns of node j's outputs (1-based)."""
    rows = _offsets(node.B.cols for node in network.nodes)
    cols = _offsets(node.C.rows for node in network.nodes)
    return submatrix(network.W, rows[i - 1], rows[i], cols[j - 1], cols[j])


def input_block(network: StructuredNetwork, i: int, j: int) -> PatternMatrix:
    """Block H^(ij): rows of node i's inputs, the single column of input j."""
    rows = _offsets(node.B.cols for node in network.nodes)
    return submatrix(network.H, rows[i - 1], rows[i], j - 1, j)


def topology_per_block(network: StructuredNetwork) -> tuple[PatternMatrix, PatternMatrix]:
    """Reference (W~, H~): each block of W and H sliced out and summarized,
    '*' if it holds a '*', else '?' if it holds a '?', else '0'."""

    def summary(block: PatternMatrix) -> str:
        symbols = {symbol for row in dense(block) for symbol in row}
        return STAR if STAR in symbols else ANY if ANY in symbols else ZERO

    n = len(network.nodes)
    w_tilde = [[summary(interconnection_block(network, i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    h_tilde = [
        [summary(input_block(network, i, j)) for j in range(1, network.H.cols + 1)]
        for i in range(1, n + 1)
    ]
    return grid(w_tilde), grid(h_tilde)


def assembled_per_block(network: StructuredNetwork) -> tuple[PatternMatrix, PatternMatrix]:
    """Reference [A+BWC BH] and [A+I+BWC BH], one block at a time.

    Block (i, j) of A+BWC is B_i W^(ij) C_j, plus A_i when i = j; block
    (i, k) of BH is B_i H^(ik). Products are the reference fold, sums the
    entrywise sym_add, and the shift adds '*' to each diagonal entry.
    """
    nodes = network.nodes
    plain_rows: list[tuple[str, ...]] = []
    for i, node in enumerate(nodes, start=1):
        blocks = [
            pat_mul_fold(pat_mul_fold(node.B, interconnection_block(network, i, j)), other.C)
            for j, other in enumerate(nodes, start=1)
        ]
        blocks[i - 1] = grid(
            tuple(
                tuple(sym_add(a, b) for a, b in zip(a_row, bwc_row))
                for a_row, bwc_row in zip(dense(node.A), dense(blocks[i - 1]))
            )
        )
        blocks += [
            pat_mul_fold(node.B, input_block(network, i, k))
            for k in range(1, network.H.cols + 1)
        ]
        for r in range(node.A.rows):
            plain_rows.append(tuple(symbol for block in blocks for symbol in dense(block)[r]))
    plain = grid(tuple(plain_rows))
    shifted = plain
    for v in range(plain.rows):
        shifted = with_entry(shifted, v, v, sym_add(plain_rows[v][v], STAR))
    return plain, shifted


class ProductExactness(Enum):
    """Which structural condition makes a pattern product class-exact.

    The class of the pattern product always contains every product of
    realizations; it equals the set of such products when each row of the
    right factor, or each column of the left factor, selects a single '*'
    entry with all remaining entries zero. Network assembly relies on this:
    node output patterns meet the row condition, input patterns the column
    condition.
    """

    ROW_CONDITION = "row"
    COLUMN_CONDITION = "column"
    BOTH = "both"
    NEITHER = "neither"


def _single_star_lines(lines: Iterable[tuple[str, ...]]) -> bool:
    return all(line.count(STAR) == 1 and line.count(ANY) == 0 for line in lines)


def exact_product_condition(m: PatternMatrix, n: PatternMatrix) -> ProductExactness:
    """Check the single-star row/column conditions for a product m @ n."""
    if m.cols != n.rows:
        raise StrucnetError(
            f"cannot multiply patterns of shapes {m.shape} and {n.shape}"
        )
    row_ok = _single_star_lines(dense(n))
    col_ok = _single_star_lines(zip(*dense(m)))
    if row_ok and col_ok:
        return ProductExactness.BOTH
    if row_ok:
        return ProductExactness.ROW_CONDITION
    if col_ok:
        return ProductExactness.COLUMN_CONDITION
    return ProductExactness.NEITHER


def _out_neighbors(graph: PatternGraph) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {v: set() for v in range(1, graph.num_vertices + 1)}
    for src, dst in graph.edges_star | graph.edges_any:
        out[src].add(dst)
    return out


def applicable_standard_forces(graph: PatternGraph, white: set[int]) -> list[tuple[int, int]]:
    """All (forcer, forced) pairs legal under the standard rule right now."""
    out = _out_neighbors(graph)
    forces = []
    for v in range(1, graph.num_vertices + 1):
        white_out = sorted(out[v] & white)
        if len(white_out) == 1 and (v, white_out[0]) in graph.edges_star:
            forces.append((v, white_out[0]))
    return forces


def standard_forced_set(graph: PatternGraph, rng=None) -> set[int]:
    """Reference fixpoint of the standard rule, applying forces one at a
    time in a (optionally randomized) order."""
    white = set(range(1, graph.num_vertices + 1))
    black: set[int] = set()
    while True:
        forces = applicable_standard_forces(graph, white)
        if not forces:
            return black
        if rng is None:
            _, target = forces[0]
        else:
            _, target = forces[int(rng.integers(len(forces)))]
        black.add(target)
        white.discard(target)


def applicable_weak_forces(graph: PatternGraph, black: set[int]) -> list[tuple[int, int]]:
    return sorted(
        (src, dst)
        for src, dst in graph.edges_star
        if src in black and dst not in black
    )


def weak_forced_set(graph: PatternGraph, rng=None) -> set[int]:
    """Reference fixpoint of the weak rule via one-at-a-time forcing."""
    black = set(range(graph.pattern.rows + 1, graph.num_vertices + 1))
    while True:
        forces = applicable_weak_forces(graph, black)
        if not forces:
            return black
        if rng is None:
            _, target = forces[0]
        else:
            _, target = forces[int(rng.integers(len(forces)))]
        black.add(target)


def star_reachable(graph: PatternGraph) -> set[int]:
    """BFS reachability from the seed vertices along star edges only."""
    seeds = set(range(graph.pattern.rows + 1, graph.num_vertices + 1))
    reached = set(seeds)
    frontier = list(seeds)
    star_out: dict[int, set[int]] = {v: set() for v in range(1, graph.num_vertices + 1)}
    for src, dst in graph.edges_star:
        star_out[src].add(dst)
    while frontier:
        v = frontier.pop()
        for dst in star_out[v]:
            if dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    return reached


def replay_standard(graph: PatternGraph, result) -> set[int]:
    """Replay a standard-rule certificate, checking each step is legal."""
    out = _out_neighbors(graph)
    white = set(range(1, graph.num_vertices + 1))
    black: set[int] = set()
    for forcer, forced in result.forcing_sequence:
        white_out = out[forcer] & white
        assert white_out == {forced}, f"step ({forcer}, {forced}) is not legal"
        assert (forcer, forced) in graph.edges_star
        black.add(forced)
        white.discard(forced)
    return black


def replay_weak(graph: PatternGraph, result) -> set[int]:
    """Replay a weak-rule certificate, checking each step is legal."""
    black = set(result.seeds)
    for forcer, forced in result.forcing_sequence:
        assert forcer in black, f"forcer {forcer} was not black yet"
        assert forced not in black, f"{forced} forced twice"
        assert (forcer, forced) in graph.edges_star
        black.add(forced)
    return black


def color_change_reference(graph: PatternGraph) -> ColoringResult:
    """The standard rule on the graph's edge sets, scheduled as the library does.

    Per-vertex out- and source lists come from the sorted union of both
    edge sets, and a worklist keyed on white out-neighbor counts applies
    the forcings, so the certificate is the library's exactly.
    """
    out: dict[int, list[int]] = {v: [] for v in range(1, graph.num_vertices + 1)}
    sources_of: dict[int, list[int]] = {v: [] for v in range(1, graph.num_vertices + 1)}
    for src, dst in sorted(graph.edges_star | graph.edges_any):
        out[src].append(dst)
        sources_of[dst].append(src)

    white = set(range(1, graph.num_vertices + 1))
    white_count = {v: len(out[v]) for v in out}
    queue = deque(v for v in sorted(out) if white_count[v] == 1)
    black: set[int] = set()
    forced: list[tuple[int, int]] = []

    while queue:
        v = queue.popleft()
        if white_count[v] != 1:
            continue
        target = next(t for t in out[v] if t in white)
        if (v, target) not in graph.edges_star:
            continue
        black.add(target)
        white.discard(target)
        forced.append((v, target))
        for u in sources_of[target]:
            white_count[u] -= 1
            if white_count[u] == 1:
                queue.append(u)

    return ColoringResult(
        forcing_sequence=tuple(forced),
        uncolored=frozenset(range(1, graph.pattern.rows + 1)) - black,
    )


def weak_color_change_reference(graph: PatternGraph) -> ColoringResult:
    """The weak rule on the graph's star edge set, in the library's order."""
    seeds = frozenset(range(graph.pattern.rows + 1, graph.num_vertices + 1))
    star_out: dict[int, list[int]] = {v: [] for v in range(1, graph.num_vertices + 1)}
    for src, dst in sorted(graph.edges_star):
        star_out[src].append(dst)

    black = set(seeds)
    forced: list[tuple[int, int]] = []
    queue = deque(sorted(seeds))
    while queue:
        v = queue.popleft()
        for target in sorted(star_out[v]):
            if target not in black:
                black.add(target)
                forced.append((v, target))
                queue.append(target)

    return ColoringResult(
        forcing_sequence=tuple(forced),
        uncolored=frozenset(range(1, graph.num_vertices + 1)) - black,
        seeds=seeds,
    )
