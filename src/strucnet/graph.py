"""Directed graphs of pattern matrices and the color change rules.

A p-by-q pattern with p <= q induces a digraph on vertices 1..q with an
edge (j, i) whenever entry (i, j) is nonzero; star and '?' entries are
kept in separate edge sets. Since edge targets are row indices, only the
vertices 1..p can ever be colored.

Two forcing rules run on this graph. The standard rule starts all white
and lets any vertex with exactly one white out-neighbor force that
neighbor, provided the edge to it is a star edge; the pattern has full
row rank for every realization exactly when all row vertices end black.
The weak rule seeds the non-row vertices black and propagates along star
edges without the exactly-one restriction; it is plain reachability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import BadShape
from .pattern import STAR, PatternMatrix


@dataclass(frozen=True)
class PatternGraph:
    """Digraph of a pattern matrix, with star and '?' edges kept apart."""

    num_vertices: int
    row_count: int
    edges_star: frozenset[tuple[int, int]]
    edges_any: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges_star", frozenset(self.edges_star))
        object.__setattr__(self, "edges_any", frozenset(self.edges_any))
        overlap = self.edges_star & self.edges_any
        if overlap:
            raise ValueError(f"edges in both sets: {sorted(overlap)}")
        for src, dst in self.edges_star | self.edges_any:
            if not (1 <= src <= self.num_vertices and 1 <= dst <= self.row_count):
                raise ValueError(
                    f"edge ({src}, {dst}) leaves the vertex range "
                    f"(sources 1..{self.num_vertices}, targets 1..{self.row_count})"
                )


@dataclass(frozen=True)
class ColoringResult:
    """Outcome of a forcing run: the black set plus a replayable certificate.

    forcing_sequence lists (forcer, forced) pairs in the order they were
    applied; each forced vertex appears exactly once and derived_set is
    the seeds plus the forced vertices. uncolored holds the vertices the
    rule had to reach but left white: the row vertices 1..p for the
    standard rule, every vertex 1..q for the weak rule.
    """

    derived_set: frozenset[int]
    forcing_sequence: tuple[tuple[int, int], ...]
    uncolored: frozenset[int]
    seeds: frozenset[int] = field(default_factory=frozenset)

    @property
    def colorable(self) -> bool:
        return not self.uncolored

    def to_dict(self) -> dict:
        """JSON form of the certificate."""
        return {
            "colorable": self.colorable,
            "derived_set": sorted(self.derived_set),
            "forcing_sequence": [list(step) for step in self.forcing_sequence],
            "uncolored": sorted(self.uncolored),
        }


def build_graph(m: PatternMatrix) -> PatternGraph:
    """Digraph of a p-by-q pattern, defined for p <= q."""
    if m.rows > m.cols:
        raise BadShape(
            f"graph is defined for patterns with rows <= cols, got {m.shape}"
        )
    edges_star = set()
    edges_any = set()
    for i, row in enumerate(m.row_nonzeros, start=1):
        for j, symbol in row:
            (edges_star if symbol is STAR else edges_any).add((j + 1, i))
    return PatternGraph(
        num_vertices=m.cols,
        row_count=m.rows,
        edges_star=frozenset(edges_star),
        edges_any=frozenset(edges_any),
    )


def color_change(graph: PatternGraph) -> ColoringResult:
    """Run the standard color change rule to its fixpoint.

    All vertices start white. Any vertex (black or white) with exactly one
    white out-neighbor forces it black when the edge to it is a star edge.
    The derived set does not depend on the order in which forcings are
    applied, so a worklist keyed on white-neighbor counts is just a
    scheduling choice.
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
        derived_set=frozenset(black),
        forcing_sequence=tuple(forced),
        uncolored=frozenset(range(1, graph.row_count + 1)) - black,
    )


def weak_color_change(graph: PatternGraph) -> ColoringResult:
    """Run the weak color change rule to its fixpoint.

    Vertices p+1..q start black and a black vertex forces every white
    out-neighbor reached by a star edge, so the derived set is the seed
    set plus everything star-reachable from it. Weakly colorable means
    every vertex of 1..q ends black; with p = q the seed set is empty and
    a nonempty graph is never weakly colorable.
    """
    seeds = frozenset(range(graph.row_count + 1, graph.num_vertices + 1))
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
        derived_set=frozenset(black),
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
