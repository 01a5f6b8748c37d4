"""Known answers from zero forcing: graph networks with published verdicts.

graph_network(G, S) is controllable iff S is a zero forcing set of the
simple graph G (see tests/helpers.py), so the least controlling input set
has the zero forcing number Z(G). The values below are published, not
computed here: Z(P_n) = 1, Z(C_n) = 2, Z(K_n) = n - 1, Z(K_{m,n}) = m + n - 2,
Z(Q_d) = 2^(d-1) and Z(Petersen) = 5 (AIM Minimum Rank-Special Graphs Work
Group, "Zero forcing sets and the minimum rank of graphs", Linear Algebra
Appl. 428 (2008) 1628-1648). They check the assembly and the color change
against answers from outside this repository.
"""

import itertools

import pytest

from strucnet import build_graph, is_network_controllable

from helpers import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph_network,
    hypercube_graph,
    path_graph,
    petersen_graph,
    replay_standard,
)

# name: (graph, Z, a forcing set of size Z)
FAMILIES = {
    "P6": (path_graph(6), 1, {0}),  # an end vertex
    "C7": (cycle_graph(7), 2, {0, 1}),  # two adjacent vertices
    "K5": (complete_graph(5), 4, {0, 1, 2, 3}),
    "K3,4": (complete_bipartite_graph(3, 4), 5, {0, 1, 3, 4, 5}),  # all but one of each part
    "Q3": (hypercube_graph(3), 4, {0, 2, 4, 6}),  # a facet: each vertex has one neighbor off it
    "Petersen": (petersen_graph(), 5, {0, 1, 2, 3, 4}),  # the outer cycle
}


def assert_certified(network) -> None:
    """The network is controllable, and both coloring certificates replay to every state."""
    check = is_network_controllable(network)
    assert check.controllable
    states = set(range(1, network.A_blk.rows + 1))
    for pattern, coloring in zip(check.patterns, (check.plain, check.shifted)):
        assert replay_standard(build_graph(pattern), coloring) == states


@pytest.mark.parametrize("name", FAMILIES)
def test_a_published_size_forcing_set_controls(name):
    graph, z, forcing_set = FAMILIES[name]
    assert len(forcing_set) == z
    assert_certified(graph_network(graph, forcing_set))


@pytest.mark.parametrize("name", FAMILIES)  # 319 networks over the six families
def test_no_set_below_the_zero_forcing_number_controls(name):
    (n, edges), z, _ = FAMILIES[name]
    for driven in itertools.combinations(range(n), z - 1):
        assert not is_network_controllable(graph_network((n, edges), driven)).controllable, driven


def test_q3_as_two_four_state_nodes_agrees_with_eight_nodes():
    graph = hypercube_graph(3)
    groups = [[0, 1, 2, 3], [4, 5, 6, 7]]  # bit 2 splits the cube into two squares
    controllable = 0
    for size in range(1, 9):
        for driven in itertools.combinations(range(8), size):
            single = is_network_controllable(graph_network(graph, driven)).controllable
            grouped = graph_network(graph, driven, groups)
            assert len(grouped.nodes) == 2
            assert is_network_controllable(grouped).controllable is single, driven
            if single:
                assert_certified(grouped)
                controllable += 1
    assert controllable == 115
