"""Fixtures: the shipped three-node demo network and its building blocks."""

from pathlib import Path

import pytest

from strucnet import load_network

from helpers import parse

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"

NETWORK_FILE = FIXTURES / "three_node_network.json"
NO_INPUT_NETWORK_FILE = FIXTURES / "three_node_network_no_input.json"
# the demo with node 3's inputs moved to states 3 and 4: node 3 alone fails
NODE_FAIL_NETWORK_FILE = FIXTURES / "three_node_network_node_fail.json"
SPARSE_NETWORK_FILE = FIXTURES / "three_node_network_sparse.json"
INTERCONNECTION_FILE = FIXTURES / "interconnection_pattern.json"

# The demo network's blocks, kept here as an independent transcription so a
# test can cross-check the shipped JSON files against them.
A1 = parse("""
    * 0 0 0
    0 ? 0 0
    ? * * 0
    * 0 0 ?
""")
A2 = parse("""
    ? 0 * 0
    0 * 0 *
    0 * * 0
    * 0 0 ?
""")
A3 = parse("""
    * 0 0 0
    0 0 * 0
    0 0 ? *
    * 0 * *
""")
B_NODE = parse("""
    * 0
    0 *
    0 0
    0 0
""")
C_NODE = parse("""
    0 0 * 0
    0 0 0 *
""")
W_PATTERN = parse("""
    0 0 0 0 0 0
    0 0 0 0 0 0
    * 0 0 0 0 0
    ? * 0 0 0 0
    0 0 * 0 0 0
    0 0 0 ? 0 0
""")
H_PATTERN = parse("""
    * 0
    0 *
    0 0
    0 0
    0 0
    0 0
""")


@pytest.fixture(scope="session")
def demo_network():
    return load_network(NETWORK_FILE)


@pytest.fixture(scope="session")
def no_input_network():
    return load_network(NO_INPUT_NETWORK_FILE)
