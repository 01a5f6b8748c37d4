"""Directed graphs of pattern matrices and the color change rules.

A p-by-q pattern with p <= q induces a digraph on vertices 1..q with an
edge (j, i), star or '?', whenever entry (i, j) is nonzero. The graph is
a view of the pattern: row i lists the in-edges of vertex i, so only the
row vertices 1..p can be colored. Edge sets are built only when read.

Two forcing rules run on per-vertex integer lists filled in one pass
over the rows. The standard rule starts all white and lets any vertex
with exactly one white out-neighbor force that neighbor, provided the
edge to it is a star edge; the pattern has full row rank for every
realization exactly when all row vertices end black. The weak rule
seeds the non-row vertices black and propagates along star edges
without the exactly-one restriction; it is plain reachability.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import cached_property

from .errors import DimensionMismatch
from .pattern import STAR, PatternMatrix, Record


class PatternGraph(Record):
    """Digraph of a validated pattern; row i's nonzeros are vertex i's in-edges."""

    __match_args__ = ("pattern",)

    def __init__(self, pattern: PatternMatrix):
        self.__dict__.update(pattern=pattern)

    @property
    def num_vertices(self) -> int:
        return self.pattern.cols

    @cached_property
    def edges_star(self) -> frozenset[tuple[int, int]]:
        return frozenset((j + 1, i + 1) for i, j, symbol in self.pattern.nonzeros if symbol is STAR)

    @cached_property
    def edges_any(self) -> frozenset[tuple[int, int]]:
        return frozenset((j + 1, i + 1) for i, j, symbol in self.pattern.nonzeros if symbol is not STAR)


class ColoringResult(Record):
    """Outcome of a forcing run: a replayable certificate and what it left white.

    forcing_sequence lists (forcer, forced) pairs in the order they were
    applied; each forced vertex appears exactly once. uncolored holds the
    vertices the rule had to reach but left white: the row vertices 1..p
    for the standard rule, every vertex 1..q for the weak rule.
    """

    __match_args__ = ("forcing_sequence", "uncolored", "seeds")

    def __init__(
        self,
        forcing_sequence: tuple[tuple[int, int], ...],
        uncolored: frozenset[int],
        seeds: frozenset[int] = frozenset(),
    ):
        self.__dict__.update(forcing_sequence=forcing_sequence, uncolored=uncolored, seeds=seeds)

    @property
    def derived_set(self) -> frozenset[int]:
        """The black set: the seeds plus the forced vertices."""
        return self.seeds | {target for _, target in self.forcing_sequence}

    @property
    def colorable(self) -> bool:
        return not self.uncolored

    def to_dict(self) -> dict:
        """JSON form of the certificate; json encodes the forcing pairs as arrays."""
        return {
            "colorable": self.colorable,
            "derived_set": sorted(self.derived_set),
            "forcing_sequence": self.forcing_sequence,
            "uncolored": sorted(self.uncolored),
        }


def build_graph(m: PatternMatrix) -> PatternGraph:
    """Digraph of a p-by-q pattern, defined for p <= q."""
    if m.rows > m.cols:
        raise DimensionMismatch(f"graph is defined for patterns with rows <= cols, got {m.shape}")
    return PatternGraph(m)


def color_change(graph: PatternGraph) -> ColoringResult:
    """Run the standard color change rule to its fixpoint.

    All vertices start white. Any vertex (black or white) with exactly one
    white out-neighbor forces it black when the edge to it is a star edge.
    The derived set does not depend on the order in which forcings are
    applied, so a worklist keyed on white-neighbor counts is just a
    scheduling choice.
    """
    rows = graph.pattern.row_nonzeros
    # per vertex (0-based): its white out-neighbors and their index sum,
    # which names the last one left
    count = [0] * graph.num_vertices
    total = [0] * graph.num_vertices
    for t, row in enumerate(rows, start=1):
        for j, _ in row:
            count[j] += 1
            total[j] += t

    queue = deque(j for j, c in enumerate(count) if c == 1)
    forced: list[tuple[int, int]] = []
    while queue:
        j = queue.popleft()
        if count[j] != 1:
            continue
        target = total[j]
        row = rows[target - 1]
        if row[bisect_left(row, (j,))][1] is not STAR:  # the edge j -> target is '?'
            continue
        forced.append((j + 1, target))
        for u, _ in row:
            count[u] -= 1
            total[u] -= target
            if count[u] == 1:
                queue.append(u)

    return ColoringResult(
        forcing_sequence=tuple(forced),
        uncolored=frozenset(range(1, graph.pattern.rows + 1)).difference(t for _, t in forced),
    )


def weak_color_change(graph: PatternGraph) -> ColoringResult:
    """Run the weak color change rule to its fixpoint.

    Vertices p+1..q start black and a black vertex forces every white
    out-neighbor reached by a star edge, so the derived set is the seed
    set plus everything star-reachable from it. Weakly colorable means
    every vertex of 1..q ends black; with p = q the seed set is empty and
    a nonempty graph is never weakly colorable.
    """
    seeds = frozenset(range(graph.pattern.rows + 1, graph.num_vertices + 1))
    # star out-neighbors of vertices 1..q, ascending since rows are read in order
    star_out: list[list[int]] = [[] for _ in range(graph.num_vertices + 1)]
    for t, row in enumerate(graph.pattern.row_nonzeros, start=1):
        for j, symbol in row:
            if symbol is STAR:
                star_out[j + 1].append(t)

    black = set(seeds)
    forced: list[tuple[int, int]] = []
    queue = deque(range(graph.pattern.rows + 1, graph.num_vertices + 1))
    while queue:
        v = queue.popleft()
        for target in star_out[v]:
            if target not in black:
                black.add(target)
                forced.append((v, target))
                queue.append(target)

    return ColoringResult(
        forcing_sequence=tuple(forced),
        uncolored=frozenset(range(1, graph.num_vertices + 1)) - black,
        seeds=seeds,
    )


def is_full_row_rank(m: PatternMatrix) -> ColoringResult:
    """Decide whether every realization of m has full row rank.

    The pattern has full row rank for all realizations iff its graph is
    colorable, so the coloring certificate carries the verdict.
    """
    return color_change(build_graph(m))


def export_dot(graph: PatternGraph, coloring: ColoringResult | None = None) -> str:
    """Render the graph as DOT text.

    Star edges are solid, '?' edges dashed; when a coloring is given its
    derived set is drawn filled black.
    """
    black = coloring.derived_set if coloring is not None else frozenset()
    lines = ["digraph pattern {", "  rankdir=LR;"]
    for v in range(1, graph.num_vertices + 1):
        if v in black:
            lines.append(f"  {v} [style=filled, fillcolor=black, fontcolor=white];")
        else:
            lines.append(f"  {v};")
    for src, dst in sorted(graph.edges_star):
        lines.append(f"  {src} -> {dst} [style=solid];")
    for src, dst in sorted(graph.edges_any):
        lines.append(f"  {src} -> {dst} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
