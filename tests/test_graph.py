"""Graph construction, both color change rules, certificates, DOT export."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strucnet import (
    ANY,
    STAR,
    ZERO,
    ColoringResult,
    PatternGraph,
    PatternMatrix,
    StrucnetError,
    build_graph,
    color_change,
    export_dot,
    is_full_row_rank,
    weak_color_change,
)
from strucnet.pattern import hstack, pat_shift
from conftest import H_PATTERN, W_PATTERN

from helpers import (
    color_change_reference,
    dense,
    grid,
    parse,
    pat_identity,
    random_pattern,
    replay_standard,
    replay_weak,
    sparse_patterns,
    standard_forced_set,
    star_reachable,
    weak_color_change_reference,
    weak_forced_set,
    with_entry,
)

INTERCONNECTION = hstack(W_PATTERN, H_PATTERN)


def test_build_graph_single_star():
    graph = build_graph(parse("* 0"))
    assert graph.num_vertices == 2
    assert graph.pattern.rows == 1
    assert graph.edges_star == {(1, 1)}
    assert graph.edges_any == frozenset()


def test_build_graph_orientation():
    # entry (i, j) nonzero means an edge from column vertex j to row vertex i
    graph = build_graph(parse("0 * 0\n? 0 0"))
    assert graph.edges_star == {(2, 1)}
    assert graph.edges_any == {(1, 2)}


def test_build_graph_interconnection_edges():
    graph = build_graph(INTERCONNECTION)
    assert graph.num_vertices == 8
    assert (4, 6) in graph.edges_any
    assert all(dst != 6 for _, dst in graph.edges_star)


def test_build_graph_no_edges():
    graph = build_graph(PatternMatrix.zeros(1, 2))
    assert graph.edges_star == frozenset() and graph.edges_any == frozenset()


def test_build_graph_rejects_tall_patterns():
    with pytest.raises(StrucnetError):
        build_graph(PatternMatrix.zeros(2, 1))


def test_color_change_single_star():
    result = color_change(build_graph(parse("* 0")))
    assert result.derived_set == {1}
    assert result.colorable


def test_color_change_interconnection_misses_vertex_six():
    result = color_change(build_graph(INTERCONNECTION))
    assert 6 not in result.derived_set
    assert not result.colorable
    assert result.uncolored == {6}


def test_color_change_only_row_vertices_turn_black():
    rng = np.random.default_rng(10)
    for _ in range(50):
        rows = int(rng.integers(1, 5))
        cols = rows + int(rng.integers(0, 4))
        graph = build_graph(random_pattern(rng, rows, cols))
        result = color_change(graph)
        assert result.derived_set <= set(range(1, rows + 1))


@st.composite
def graph_patterns(draw):
    """A p x q pattern with p <= q, square ones included, up to 6 x 9."""
    p = draw(st.integers(1, 6))
    q = draw(st.integers(p, p + 3))
    return draw(sparse_patterns(p, q))


@settings(max_examples=300, deadline=None)
@given(graph_patterns())
@example(PatternMatrix.zeros(3, 3))
@example(PatternMatrix.zeros(2, 4))
@example(pat_identity(3))
def test_uncolored_is_what_each_rule_had_to_reach(pattern):
    # the standard rule must reach the row vertices 1..p, the weak rule
    # every vertex 1..q
    graph = build_graph(pattern)
    p, q = pattern.shape
    for result, must_reach in (
        (color_change(graph), range(1, p + 1)),
        (weak_color_change(graph), range(1, q + 1)),
    ):
        assert result.uncolored == set(must_reach) - result.derived_set
        assert result.colorable == (not result.uncolored)


def test_is_full_row_rank_identity():
    cert = is_full_row_rank(pat_identity(4))
    assert cert.colorable and cert.derived_set == {1, 2, 3, 4}


def test_is_full_row_rank_zero():
    assert not is_full_row_rank(PatternMatrix.zeros(1, 1)).colorable


def test_is_full_row_rank_lone_any():
    # the only edge is a '?' edge, so nothing forces; the zero realization
    # confirms the verdict numerically
    cert = is_full_row_rank(grid([[ANY]]))
    assert not cert.colorable
    assert cert.derived_set == frozenset()
    assert np.linalg.matrix_rank(np.zeros((1, 1))) == 0


def test_any_edge_counts_as_neighbor_but_cannot_force():
    # with a '?' at (2,1) vertex 1 ends with a single white out-neighbor it
    # cannot force; upgrading that entry to '*' makes the pattern colorable
    assert not is_full_row_rank(parse("* *\n? 0")).colorable
    assert is_full_row_rank(parse("* *\n* 0")).colorable


def test_weak_color_change_topology_example():
    topo = parse("0 0 0 * *\n* 0 0 0 0\n0 * 0 0 0")
    result = weak_color_change(build_graph(topo))
    assert result.seeds == {4, 5}
    assert result.derived_set == {1, 2, 3, 4, 5}
    assert result.colorable


def test_weak_color_change_without_star_edges():
    graph = build_graph(parse("0 ?\n? 0"))
    result = weak_color_change(graph)
    assert not result.colorable
    assert result.derived_set == frozenset()


def test_weak_color_change_square_pattern_has_no_seeds():
    result = weak_color_change(build_graph(PatternMatrix.zeros(1, 1)))
    assert result.seeds == frozenset()
    assert not result.colorable


def test_standard_rule_matches_reference_fixpoint():
    rng = np.random.default_rng(11)
    for _ in range(60):
        rows = int(rng.integers(1, 6))
        cols = rows + int(rng.integers(0, 4))
        graph = build_graph(random_pattern(rng, rows, cols, (0.45, 0.4, 0.15)))
        assert color_change(graph).derived_set == standard_forced_set(graph)


def test_weak_rule_matches_star_reachability():
    rng = np.random.default_rng(12)
    for _ in range(60):
        rows = int(rng.integers(1, 6))
        cols = rows + int(rng.integers(1, 4))
        graph = build_graph(random_pattern(rng, rows, cols, (0.45, 0.4, 0.15)))
        result = weak_color_change(graph)
        assert result.derived_set == star_reachable(graph)
        assert result.derived_set == weak_forced_set(graph)


def test_forcing_order_does_not_change_derived_sets():
    rng = np.random.default_rng(13)
    for _ in range(50):
        rows = int(rng.integers(1, 6))
        cols = rows + int(rng.integers(0, 4))
        graph = build_graph(random_pattern(rng, rows, cols, (0.45, 0.4, 0.15)))
        standard = color_change(graph).derived_set
        weak = weak_color_change(graph).derived_set
        for _ in range(20):
            assert standard_forced_set(graph, rng) == standard
            assert weak_forced_set(graph, rng) == weak


def test_upgrading_any_to_star_never_shrinks_derived_sets():
    # refining a '?' edge into a '*' edge keeps every neighbor count and can
    # only enable forcings (a new star where a zero was can break them)
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 50:
        rows = int(rng.integers(1, 6))
        cols = rows + int(rng.integers(0, 4))
        m = random_pattern(rng, rows, cols, (0.4, 0.3, 0.3))
        spots = [(i, j) for i, row in enumerate(dense(m)) for j, symbol in enumerate(row) if symbol is ANY]
        if not spots:
            continue
        i, j = spots[int(rng.integers(len(spots)))]
        upgraded = with_entry(m, i, j, STAR)
        assert color_change(build_graph(m)).derived_set <= color_change(build_graph(upgraded)).derived_set
        assert weak_color_change(build_graph(m)).derived_set <= weak_color_change(build_graph(upgraded)).derived_set
        checked += 1


def test_new_star_edge_can_break_forcing():
    # documents why the refinement above is the right monotone move: adding
    # a star on top of a zero adds an out-neighbor and kills the unique
    # white neighbor below
    before = parse("* 0\n0 0")
    after = with_entry(before, 1, 0, STAR)
    assert color_change(build_graph(before)).derived_set == {1}
    assert color_change(build_graph(after)).derived_set == frozenset()


def test_certificates_replay_exactly():
    rng = np.random.default_rng(15)
    for _ in range(50):
        rows = int(rng.integers(1, 6))
        cols = rows + int(rng.integers(0, 4))
        graph = build_graph(random_pattern(rng, rows, cols, (0.45, 0.4, 0.15)))
        standard = color_change(graph)
        assert replay_standard(graph, standard) == set(standard.derived_set)
        assert len({forced for _, forced in standard.forcing_sequence}) == len(standard.forcing_sequence)
        weak = weak_color_change(graph)
        assert replay_weak(graph, weak) == set(weak.derived_set)
        assert len({forced for _, forced in weak.forcing_sequence}) == len(weak.forcing_sequence)


def test_export_dot_styles():
    dot = export_dot(build_graph(parse("* 0")))
    assert dot.startswith("digraph")
    assert "1 -> 1 [style=solid];" in dot


def test_export_dot_interconnection():
    dot = export_dot(build_graph(INTERCONNECTION))
    assert all(f"  {v};" in dot or f"  {v} [" in dot for v in range(1, 9))
    assert "4 -> 6 [style=dashed];" in dot


def test_export_dot_isolated_vertices():
    dot = export_dot(build_graph(PatternMatrix.zeros(2, 3)))
    assert dot.count(";") == 1 + 3  # rankdir plus one line per vertex
    assert dot.rstrip().endswith("}")


def test_export_dot_marks_derived_set():
    graph = build_graph(parse("* 0"))
    dot = export_dot(graph, color_change(graph))
    assert "1 [style=filled, fillcolor=black, fontcolor=white];" in dot


def test_pattern_graph_edge_sets_are_disjoint():
    rng = np.random.default_rng(16)
    for _ in range(30):
        graph = build_graph(random_pattern(rng, 3, 5))
        assert not (graph.edges_star & graph.edges_any)
        assert all(1 <= dst <= graph.pattern.rows for _, dst in graph.edges_star | graph.edges_any)


def test_hand_built_graph_accepts_explicit_edges():
    graph = PatternGraph(parse("0 0 *\n* 0 0"))
    result = color_change(graph)
    assert result.colorable
    assert graph.edges_star == {(3, 1), (1, 2)}


@st.composite
def wide_patterns(draw):
    """A p x q pattern with p <= q, square ones included, up to 8 x 12."""
    p = draw(st.integers(1, 8))
    return draw(sparse_patterns(p, draw(st.integers(p, 12))))


@settings(max_examples=300, deadline=None)
@given(wide_patterns())
@example(grid(tuple(tuple(ANY if i == j else ZERO for j in range(5)) for i in range(4))))
@example(parse("* 0 ?\n? 0 *"))
@example(parse("* ? 0\n0 * ?\n? 0 *"))
@example(PatternMatrix.zeros(1, 1))
def test_colorings_match_the_edge_set_reference(pattern):
    # the whole certificate, forcing order included, not just the derived set
    for graph in (build_graph(pattern), build_graph(pat_shift(pattern))):
        assert color_change(graph) == color_change_reference(graph)
        assert weak_color_change(graph) == weak_color_change_reference(graph)


@settings(max_examples=200, deadline=None)
@given(wide_patterns())
def test_coloring_keeps_the_certificate_and_derives_the_black_set(pattern):
    assert ColoringResult.__match_args__ == ("forcing_sequence", "uncolored", "seeds")
    graph = build_graph(pattern)
    for result in (color_change(graph), weak_color_change(graph)):
        assert result.derived_set == result.seeds | {t for _, t in result.forcing_sequence}
