"""Network validation, assembly, controllability tests, topology, JSON IO."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucnet import (
    ANY,
    STAR,
    ZERO,
    AssumptionViolated,
    DimensionMismatch,
    NetworkFormatError,
    NodeSystem,
    PatternMatrix,
    StructuredNetwork,
    analyze,
    assemble,
    build_graph,
    check_structured_system,
    extract_topology,
    is_network_controllable,
    load_network,
    network_from_dict,
    node_necessary_check,
    topology_necessary_check,
    validate,
)
from strucnet import network as network_module
from strucnet.oracle import AuditConfig, audit_network
from strucnet.pattern import Record, block_diag, hstack, pat_add, pat_mul
from conftest import (
    A1,
    A2,
    A3,
    B_NODE,
    C_NODE,
    H_PATTERN,
    NETWORK_FILE,
    NO_INPUT_NETWORK_FILE,
    W_PATTERN,
)

from helpers import (
    assembled_per_block,
    block_diag_dense,
    chain_network,
    filled,
    from_pairs,
    grid,
    input_block,
    interconnection_block,
    network_to_dict,
    networks,
    parse,
    pat_identity,
    random_network,
    random_pattern,
    standard_forced_set,
    submatrix,
    topology_per_block,
    with_entry,
)


def build_demo_network() -> StructuredNetwork:
    nodes = tuple(NodeSystem(a, B_NODE, C_NODE) for a in (A1, A2, A3))
    return StructuredNetwork(nodes, W_PATTERN, H_PATTERN)


def test_fixture_file_matches_transcription(demo_network):
    assert demo_network == build_demo_network()


def rejected(net: StructuredNetwork) -> list[str]:
    """The violations of the AssumptionViolated that validate(net) raises."""
    with pytest.raises(AssumptionViolated) as excinfo:
        validate(net)
    return excinfo.value.violations


def test_validate_demo_network(demo_network):
    assert validate(demo_network) is None
    assert demo_network.violations == ()


def test_validate_flags_double_star_column():
    bad_b = parse("* 0\n* *\n0 0\n0 0")
    net = StructuredNetwork(
        (NodeSystem(A1, bad_b, C_NODE),), PatternMatrix.zeros(2, 2), pat_identity(2)
    )
    violations = rejected(net)
    assert len(violations) == 1
    assert violations[0].startswith("node 1, matrix B: column 1 ")


def test_validate_flags_any_in_output_pattern():
    bad_c = parse("0 0 ? 0\n0 0 0 *")
    net = StructuredNetwork(
        (NodeSystem(A1, B_NODE, bad_c),), PatternMatrix.zeros(2, 2), pat_identity(2)
    )
    violations = rejected(net)
    assert any(v.startswith("node 1, matrix C: '?'") for v in violations)
    # the '?' also leaves row 1 without its single star
    assert any(v.startswith("node 1, matrix C: row 1 ") for v in violations)


@pytest.mark.parametrize(
    "b, c, expected",
    [
        (
            with_entry(B_NODE, 2, 0, ANY),
            C_NODE,
            ["node 1, matrix B: '?' entry at row 3, column 1 is not allowed"],
        ),
        (
            B_NODE,
            with_entry(C_NODE, 0, 2, ANY),
            [
                "node 1, matrix C: '?' entry at row 1, column 3 is not allowed",
                "node 1, matrix C: row 1 has 0 '*' entries, expected exactly one",
            ],
        ),
        (
            with_entry(B_NODE, 3, 1, STAR),
            C_NODE,
            ["node 1, matrix B: column 2 has 2 '*' entries, expected exactly one"],
        ),
        (
            B_NODE,
            with_entry(C_NODE, 1, 0, STAR),
            ["node 1, matrix C: row 2 has 2 '*' entries, expected exactly one"],
        ),
    ],
    ids=["B-any", "C-any", "B-stars", "C-stars"],
)
def test_validate_one_star_messages_are_exact(b, c, expected):
    net = StructuredNetwork(
        (NodeSystem(A1, b, c),), PatternMatrix.zeros(2, 2), pat_identity(2)
    )
    assert rejected(net) == expected


def test_validate_flags_dimension_problems():
    rect_a = PatternMatrix.zeros(2, 3)
    net = StructuredNetwork(
        (NodeSystem(rect_a, parse("*\n0\n0"), parse("0 * 0")),),
        PatternMatrix.zeros(5, 5),
        PatternMatrix.zeros(3, 1),
    )
    assert rejected(net) == [
        "node 1, matrix A: must be square, got (2, 3)",
        "node 1, matrix B: has 3 rows, expected 2 to match A",
        "node 1, matrix C: has 3 columns, expected 2 to match A",
        "matrix W: has shape (5, 5), expected (1, 1) from node blocks",
        "matrix H: has 3 rows, expected 1 from node blocks",
    ]


def test_assemble_shapes_and_coupling_block(demo_network):
    plain, shifted = is_network_controllable(demo_network).patterns
    assert plain.shape == (12, 14)
    assert shifted.shape == (12, 14)
    # coupling block feeding node 2 from node 1's outputs
    expected = parse("0 0 * 0\n0 0 ? *\n0 0 0 0\n0 0 0 0")
    assert submatrix(plain, 4, 8, 0, 4) == expected
    # the shifted pattern is exactly the plain one plus [I 0]
    identity_part = hstack(pat_identity(12), PatternMatrix.zeros(12, 2))
    assert shifted == pat_add(plain, identity_part)
    # input columns: only the states driven by node 1's inputs see them
    assert submatrix(plain, 0, 4, 12, 14) == parse("* 0\n0 *\n0 0\n0 0")
    assert submatrix(plain, 4, 12, 12, 14) == PatternMatrix.zeros(8, 2)


def test_assemble_single_node_without_coupling():
    net = StructuredNetwork(
        (NodeSystem(A1, B_NODE, C_NODE),),
        PatternMatrix.zeros(2, 2),
        pat_identity(2),
    )
    plain, _ = is_network_controllable(net).patterns
    assert plain == hstack(A1, pat_mul(B_NODE, pat_identity(2)))


def test_assemble_association_order_is_immaterial(demo_network):
    rng = np.random.default_rng(20)
    networks = [demo_network] + [random_network(rng) for _ in range(30)]
    for net in networks:
        b = block_diag([node.B for node in net.nodes])
        c = block_diag([node.C for node in net.nodes])
        assert pat_mul(b, pat_mul(net.W, c)) == pat_mul(pat_mul(b, net.W), c)


def test_network_check_certifies_the_assembled_pair(demo_network):
    # assemble returns the compact pair (X, Y) = (A+BWC, BH); the network
    # check forms and certifies [X Y] and [X+I Y], which the per-block
    # reference rebuilds from the node blocks and the blocks of W and H
    rng = np.random.default_rng(25)
    for net in [demo_network] + [random_network(rng) for _ in range(40)]:
        x, y = assemble(net)
        patterns = is_network_controllable(net).patterns
        assert patterns == (hstack(x, y), hstack(pat_add(x, pat_identity(x.rows)), y))
        assert patterns == assembled_per_block(net)


def test_assemble_rejects_invalid_network():
    bad_b = parse("* 0\n* *\n0 0\n0 0")
    net = StructuredNetwork(
        (NodeSystem(A1, bad_b, C_NODE),), PatternMatrix.zeros(2, 2), pat_identity(2)
    )
    with pytest.raises(AssumptionViolated) as excinfo:
        assemble(net)
    assert excinfo.value.violations


def test_check_structured_system_first_node():
    check = check_structured_system(A1, B_NODE)
    assert check.controllable
    assert check.plain.colorable and check.shifted.colorable


def test_check_structured_system_scalar_cases():
    zero = PatternMatrix.zeros(1, 1)
    assert not check_structured_system(zero, zero).controllable
    star = grid([[STAR]])
    assert check_structured_system(star, star).controllable


def test_check_structured_system_zero_input_pattern():
    # no realization is controllable with a zero input matrix; at most one
    # of A and A+I can have full row rank, so the verdict is always false
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        a = random_pattern(rng, n, n)
        assert not check_structured_system(a, PatternMatrix.zeros(n, 2)).controllable


def test_check_structured_system_shape_errors():
    with pytest.raises(DimensionMismatch):
        check_structured_system(PatternMatrix.zeros(2, 3), PatternMatrix.zeros(2, 1))
    with pytest.raises(DimensionMismatch):
        check_structured_system(pat_identity(2), PatternMatrix.zeros(3, 1))


@st.composite
def system_pairs(draw):
    """A random n x n state pattern and n x m input pattern, n <= 4, m <= 3."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    symbols = st.sampled_from([ZERO, STAR, ANY])

    def drawn(rows, cols):
        return grid(tuple(tuple(draw(symbols) for _ in range(cols)) for _ in range(rows)))

    return drawn(n, n), drawn(n, m)


def _reference_full_row_rank(pattern):
    return standard_forced_set(build_graph(pattern)) >= set(range(1, pattern.rows + 1))


@settings(max_examples=300, deadline=None)
@given(system_pairs())
def test_system_check_matches_reference_forcing(pair):
    a, b = pair
    expected = _reference_full_row_rank(hstack(a, b)) and _reference_full_row_rank(
        hstack(pat_add(a, pat_identity(a.rows)), b)
    )
    assert check_structured_system(a, b).controllable is expected


def test_network_controllable_demo(demo_network):
    check = is_network_controllable(demo_network)
    assert check.controllable
    assert check.plain.derived_set == set(range(1, 13))
    assert check.shifted.derived_set == set(range(1, 13))


def test_network_not_controllable_without_inputs(no_input_network):
    assert not is_network_controllable(no_input_network).controllable


def test_single_node_network_reduces_to_system_check():
    net = StructuredNetwork(
        (NodeSystem(A1, B_NODE, C_NODE),),
        PatternMatrix.zeros(2, 2),
        pat_identity(2),
    )
    reduced = check_structured_system(A1, pat_mul(B_NODE, pat_identity(2)))
    assert is_network_controllable(net).controllable == reduced.controllable


def test_node_necessary_check_demo(demo_network):
    assert node_necessary_check(demo_network) == [(1, True), (2, True), (3, True)]


def test_node_necessary_check_requires_valid_network():
    bad_b = PatternMatrix.zeros(4, 2)
    net = StructuredNetwork(
        (NodeSystem(A1, bad_b, C_NODE),), PatternMatrix.zeros(2, 2), pat_identity(2)
    )
    with pytest.raises(AssumptionViolated):
        node_necessary_check(net)


# nodes 1 and 3 repeat a controllable pair, node 4 drives only its last
# two states and fails
REPEATED_PAIRS = ((A1, B_NODE), (A2, B_NODE), (A1, B_NODE), (A1, parse("0 0\n0 0\n* 0\n0 *")))


def test_node_necessary_check_decides_repeated_nodes_one_by_one():
    # a node repeating an earlier pair gets that pair's own answer
    pairs = REPEATED_PAIRS
    nodes = tuple(NodeSystem(a, b, C_NODE) for a, b in pairs)
    net = StructuredNetwork(nodes, PatternMatrix.zeros(8, 8), filled(8, 1, STAR))
    expected = [(k + 1, check_structured_system(a, b).controllable) for k, (a, b) in enumerate(pairs)]
    assert expected == [(1, True), (2, True), (3, True), (4, False)]
    assert node_necessary_check(net) == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(networks(), networks(repeat_nodes=True)))
def test_node_screen_equals_the_per_node_test(net):
    # every node gets the answer of its own pair, repeated objects or not
    assert node_necessary_check(net) == [
        (k, check_structured_system(node.A, node.B).controllable)
        for k, node in enumerate(net.nodes, start=1)
    ]


@settings(max_examples=200, deadline=None)
@given(st.one_of(networks(), networks(repeat_nodes=True)))
def test_node_screen_given_the_verdict_equals_the_full_screen(net):
    # only nodes that own a state the verdict left uncolored can fail, so
    # screening the suspects of the kept verdict gives every node's own answer
    full = [
        (k, check_structured_system(node.A, node.B).controllable)
        for k, node in enumerate(net.nodes, start=1)
    ]
    verdict = is_network_controllable(net)
    assert node_necessary_check(net) == full
    assert net.verdict is verdict
    assert analyze(net).node_checks == full


def _spy(monkeypatch, name: str) -> list:
    """The argument tuples of every later call of the network module's function name."""
    calls = []
    original = getattr(network_module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(network_module, name, spy)
    return calls


def test_node_screen_given_the_verdict_colors_only_the_suspect_nodes(monkeypatch, demo_network):
    # every node input gets its own external input, so the network coloring
    # leaves only node 4's states uncolored
    nodes = tuple(NodeSystem(a, b, C_NODE) for a, b in REPEATED_PAIRS)
    net = StructuredNetwork(nodes, PatternMatrix.zeros(8, 8), pat_identity(8))
    positive, negative = is_network_controllable(demo_network), is_network_controllable(net)
    assert positive.controllable and not negative.controllable
    calls = _spy(monkeypatch, "check_structured_system")
    assert node_necessary_check(demo_network) == [(1, True), (2, True), (3, True)]
    assert calls == []
    assert node_necessary_check(net) == [(1, True), (2, True), (3, True), (4, False)]
    assert calls == [REPEATED_PAIRS[3]]


def test_node_screen_decides_each_distinct_suspect_pair_once(monkeypatch):
    # only node 1 gets external inputs, so the verdict colors it and leaves
    # nodes 2-4 uncolored: two suspects share (A2, B_NODE), node 4 fails
    pairs = ((A1, B_NODE), (A2, B_NODE), (A2, B_NODE), REPEATED_PAIRS[3])
    nodes = tuple(NodeSystem(a, b, C_NODE) for a, b in pairs)
    net = StructuredNetwork(nodes, PatternMatrix.zeros(8, 8), parse("* 0\n0 *" + "\n0 0" * 6))
    is_network_controllable(net)  # the network keeps it, so the spy sees only the screen's pairs
    calls = _spy(monkeypatch, "check_structured_system")
    assert node_necessary_check(net) == [(1, True), (2, True), (3, True), (4, False)]
    assert len(calls) == 2
    for (a, b), (want_a, want_b) in zip(calls, (pairs[1], pairs[3])):
        assert a is want_a and b is want_b


def test_node_screen_colors_a_repeated_node_once(monkeypatch):
    # with no external input every state is left uncolored, so all three
    # nodes are suspects; they hold one (A, B) pair, decided once
    a, b = REPEATED_PAIRS[3]
    net = StructuredNetwork(
        (NodeSystem(a, b, C_NODE),) * 3, PatternMatrix.zeros(6, 6), PatternMatrix.zeros(6, 1)
    )
    is_network_controllable(net)
    calls = _spy(monkeypatch, "check_structured_system")
    assert node_necessary_check(net) == [(1, False), (2, False), (3, False)]
    assert calls == [(a, b)]


def _copy(m: PatternMatrix) -> PatternMatrix:
    return from_pairs(m.cols, m.row_nonzeros)


@settings(max_examples=100, deadline=None)
@given(networks(repeat_nodes=True))
def test_shared_node_objects_give_the_answers_of_equal_copies(net):
    # the screen and the one-star memo key on objects; equal copies must not
    # change an answer
    copies = StructuredNetwork(
        [NodeSystem(_copy(node.A), _copy(node.B), _copy(node.C)) for node in net.nodes],
        net.W,
        net.H,
    )
    assert copies == net
    assert node_necessary_check(copies) == node_necessary_check(net)
    assert analyze(copies).to_dict() == analyze(net).to_dict()


def test_a_shared_failing_block_is_reported_at_every_node_that_has_it():
    # the B of nodes 1 and 3 has two stars in its column and the C of nodes 2
    # and 3 a '?'; only blocks that passed are checked once
    a, good_b, good_c = PatternMatrix.zeros(2, 2), parse("*\n0"), parse("* 0")
    bad_b, bad_c = parse("*\n*"), parse("? 0")
    pairs = ((bad_b, good_c), (good_b, bad_c), (bad_b, bad_c), (good_b, good_c))

    def network(share: bool) -> StructuredNetwork:
        nodes = [NodeSystem(a, b if share else _copy(b), c if share else _copy(c)) for b, c in pairs]
        return StructuredNetwork(nodes, PatternMatrix.zeros(4, 4), pat_identity(4))

    two_stars = "column 1 has 2 '*' entries, expected exactly one"
    any_entry = "'?' entry at row 1, column 1 is not allowed"
    no_star = "row 1 has 0 '*' entries, expected exactly one"
    expected = (
        f"node 1, matrix B: {two_stars}",
        f"node 2, matrix C: {any_entry}",
        f"node 2, matrix C: {no_star}",
        f"node 3, matrix B: {two_stars}",
        f"node 3, matrix C: {any_entry}",
        f"node 3, matrix C: {no_star}",
    )
    assert network(share=True).violations == network(share=False).violations == expected


def test_a_block_that_passes_as_b_is_checked_again_as_c():
    # the two equal grids parse to one object, which has one '*' per column
    # but two in its row
    wide = [["*", "*"]]
    obj = {
        "nodes": [
            {"A": [["0"]], "B": wide, "C": [["*"]]},
            {"A": [["0", "0"], ["0", "0"]], "B": [["*"], ["0"]], "C": wide},
        ],
        "W": [["0", "0"]] * 3,
        "H": [["*"]] * 3,
    }
    net = network_from_dict(obj)
    assert net.nodes[0].B is net.nodes[1].C
    assert net.violations == ("node 2, matrix C: row 1 has 2 '*' entries, expected exactly one",)


@settings(max_examples=100, deadline=None)
@given(networks(), st.booleans())
def test_cached_views_equal_a_fresh_computation(net, broken):
    # a broken network's node 1 has input columns without a '*', which
    # violations lists; the network keeps its views either way
    if broken:
        first = net.nodes[0]
        bad = NodeSystem(first.A, PatternMatrix.zeros(*first.B.shape), first.C)
        net = StructuredNetwork((bad, *net.nodes[1:]), net.W, net.H)
    violations = net.violations
    assert violations == StructuredNetwork(net.nodes, net.W, net.H).violations
    assert bool(violations) == broken
    assert net.violations is violations
    for name in ("A", "B", "C"):
        view = getattr(net, f"{name}_blk")
        assert view == block_diag_dense([getattr(node, name) for node in net.nodes])
        assert getattr(net, f"{name}_blk") is view
    if broken:
        with pytest.raises(AssumptionViolated):
            extract_topology(net)
    else:
        assert extract_topology(net) == topology_per_block(net)
        assert extract_topology(net) is net.topology
        verdict = is_network_controllable(net)
        fresh = StructuredNetwork(net.nodes, net.W, net.H)
        assert verdict == check_structured_system(*assemble(fresh))
        assert verdict.patterns == assembled_per_block(net)
        assert is_network_controllable(net) is verdict is net.verdict


def test_every_stage_reads_the_one_verdict(monkeypatch):
    calls = _spy(monkeypatch, "assemble")
    net = load_network(NETWORK_FILE)
    verdict = is_network_controllable(net)
    assert is_network_controllable(net) is verdict
    assert analyze(net).network_check is verdict
    assert node_necessary_check(net) == [(1, True), (2, True), (3, True)]
    assert calls == [(net,)]


def _patterns_in(obj, found: list) -> list:
    """Every PatternMatrix reachable from obj through record fields, tuples and lists."""
    if isinstance(obj, PatternMatrix):
        found.append(obj)
    elif isinstance(obj, Record):
        for name in obj.__match_args__:
            _patterns_in(getattr(obj, name), found)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _patterns_in(item, found)
    return found


def test_report_patterns_hold_only_sparse_rows():
    report = analyze(chain_network(20))
    report.to_dict()
    report.to_text()
    plain, shifted = report.network_check.patterns
    assert plain.shape == (100, 101) and report.controllable
    found = _patterns_in(report, [])
    assert len(found) == 2 + 2  # assembled pair, topology pair; node checks hold verdicts only
    for m in (plain, shifted, *report.topology):
        assert any(m is other for other in found)
    for m in found:
        assert set(vars(m)) <= {"cols", "row_nonzeros", "nonzeros"}


def test_extract_topology_demo(demo_network):
    w_tilde, h_tilde = extract_topology(demo_network)
    assert w_tilde == parse("0 0 0\n* 0 0\n0 * 0")
    assert h_tilde == parse("* *\n0 0\n0 0")


def test_extract_topology_block_with_star_and_any():
    w = parse("* ?\n? ?")
    net = StructuredNetwork(
        (
            NodeSystem(pat_identity(1), pat_identity(1), pat_identity(1)),
            NodeSystem(pat_identity(1), pat_identity(1), pat_identity(1)),
        ),
        w,
        parse("*\n0"),
    )
    w_tilde, h_tilde = extract_topology(net)
    assert w_tilde == parse("* ?\n? ?")
    net_zero = StructuredNetwork(net.nodes, PatternMatrix.zeros(2, 2), net.H)
    assert extract_topology(net_zero)[0] == PatternMatrix.zeros(2, 2)
    assert h_tilde == parse("*\n0")


def test_extract_topology_matches_per_block_scan():
    rng = np.random.default_rng(22)
    for _ in range(50):
        net = random_network(rng)
        assert extract_topology(net) == topology_per_block(net)


def test_extract_topology_stable_under_noop_refinement(demo_network):
    # rewriting zero entries with zeros is the identity, and dropping a '?'
    # from a block that also holds a '*' keeps the summary unchanged
    w_tilde, _ = extract_topology(demo_network)
    refined = with_entry(demo_network.W, 3, 0, ANY)  # (4,1) already '?'
    same = StructuredNetwork(demo_network.nodes, refined, demo_network.H)
    assert extract_topology(same)[0] == w_tilde
    dropped = with_entry(demo_network.W, 3, 0, ZERO)
    block_has_star = StructuredNetwork(demo_network.nodes, dropped, demo_network.H)
    assert extract_topology(block_has_star)[0] == w_tilde


def test_topology_block_rebuilds_the_summary(demo_network):
    # the report's sparse W~ and H~ read back to exactly extract_topology
    rng = np.random.default_rng(26)
    networks = [demo_network, load_network(NO_INPUT_NETWORK_FILE)]
    networks += [random_network(rng) for _ in range(40)]
    for net in networks:
        block = analyze(net).to_dict()["topology"]
        summary = (PatternMatrix.from_json(block["W"]), PatternMatrix.from_json(block["H"]))
        assert summary == extract_topology(net)


def test_topology_necessary_check_demo(demo_network):
    coloring = topology_necessary_check(demo_network)
    assert coloring.colorable
    assert coloring.derived_set == {1, 2, 3, 4, 5}
    assert coloring.seeds == {4, 5}


def test_topology_necessary_check_no_inputs(no_input_network):
    coloring = topology_necessary_check(no_input_network)
    assert not coloring.colorable
    assert coloring.uncolored == {1, 2, 3}


def test_topology_necessary_check_single_node():
    net = StructuredNetwork(
        (NodeSystem(pat_identity(1), pat_identity(1), pat_identity(1)),),
        PatternMatrix.zeros(1, 1),
        parse("*"),
    )
    assert topology_necessary_check(net).colorable


def test_necessary_conditions_follow_from_controllability():
    rng = np.random.default_rng(23)
    controllable_seen = 0
    for _ in range(200):
        net = random_network(rng)
        assert net.violations == ()
        if is_network_controllable(net).controllable:
            controllable_seen += 1
            assert all(ok for _, ok in node_necessary_check(net))
            assert topology_necessary_check(net).colorable
    assert controllable_seen >= 10


def test_analyze_demo(demo_network):
    report = analyze(demo_network)
    assert report.controllable
    assert all(ok for _, ok in report.node_checks)
    assert report.topology_coloring.colorable
    payload = report.to_dict()
    assert payload["controllable"] is True
    assert payload["checks"]["assembled"]["colorable"] is True
    assert payload["node_checks"] == [
        {"node": 1, "controllable": True},
        {"node": 2, "controllable": True},
        {"node": 3, "controllable": True},
    ]
    assert payload["topology"]["weakly_colorable"] is True
    text = report.to_text()
    assert "controllable: yes" in text


def test_analyze_invalid_network_reports_only_violations():
    """analyze raises, like every stage, with exactly the network's violations."""
    bad_b = PatternMatrix.zeros(4, 2)
    net = StructuredNetwork(
        (NodeSystem(A1, bad_b, C_NODE),), PatternMatrix.zeros(2, 2), pat_identity(2)
    )
    with pytest.raises(AssumptionViolated) as excinfo:
        analyze(net)
    assert excinfo.value.violations == list(net.violations) != []


@pytest.mark.parametrize(
    "stage",
    [
        validate,
        analyze,
        assemble,
        is_network_controllable,
        node_necessary_check,
        extract_topology,
        topology_necessary_check,
        lambda net: audit_network(net, AuditConfig(trials=1)),
    ],
    ids=[
        "validate",
        "analyze",
        "assemble",
        "is_network_controllable",
        "node_necessary_check",
        "extract_topology",
        "topology_necessary_check",
        "audit_network",
    ],
)
def test_every_stage_raises_the_network_violations_in_order(stage, demo_network):
    # node 2's B has two stars in column 2, and W is one column short
    nodes = (NodeSystem(A1, B_NODE, C_NODE), NodeSystem(A2, with_entry(B_NODE, 3, 1, STAR), C_NODE))
    net = StructuredNetwork(nodes, PatternMatrix.zeros(4, 3), PatternMatrix.zeros(4, 1))
    assert net.violations == (
        "node 2, matrix B: column 2 has 2 '*' entries, expected exactly one",
        "matrix W: has shape (4, 3), expected (4, 4) from node blocks",
    )
    with pytest.raises(AssumptionViolated) as excinfo:
        stage(net)
    assert excinfo.value.violations == list(net.violations)
    assert validate(demo_network) is None


def test_pattern_rows_leave_the_collector():
    """Rows hold only ints and strs, so full collections untrack every level of them."""
    network = load_network(NETWORK_FILE)
    verdict = is_network_controllable(network)
    patterns = [m for node in network.nodes for m in (node.A, node.B, node.C)]
    patterns += [network.W, network.H, network.A_blk, network.B_blk]
    patterns += [*network.topology, *verdict.patterns]
    # a collection untracks a tuple once its items are untracked: pairs, rows, row_nonzeros
    for _ in range(3):
        gc.collect()
    tracked = [
        t for m in patterns for row in m.row_nonzeros for t in (*row, row) if gc.is_tracked(t)
    ]
    tracked += [m.row_nonzeros for m in patterns if gc.is_tracked(m.row_nonzeros)]
    assert tracked == []


def test_analyze_no_input_variant(no_input_network):
    report = analyze(no_input_network)
    assert report.controllable is False
    payload = report.to_dict()
    assert payload["topology"]["weakly_colorable"] is False
    assert payload["topology"]["uncolored"] == [1, 2, 3]
    # the witness names state vertices only, never the input columns 13, 14
    assert payload["checks"]["assembled"]["uncolored"]
    assert set(payload["checks"]["assembled"]["uncolored"]) <= set(range(1, 13))
    assert "not colorable" in report.to_text()


def test_network_json_round_trip(demo_network):
    assert network_from_dict(network_to_dict(demo_network)) == demo_network


def test_load_network_reads_fixture(demo_network):
    assert load_network(NETWORK_FILE) == demo_network


def test_network_from_dict_errors():
    with pytest.raises(NetworkFormatError, match="nodes"):
        network_from_dict({"W": [], "H": []})
    with pytest.raises(NetworkFormatError, match=r"nodes\[0\]"):
        network_from_dict({"nodes": [{"A": [["0"]], "B": [["*"]]}], "W": [["0"]], "H": [["*"]]})
    with pytest.raises(NetworkFormatError, match="row 1, column 2"):
        network_from_dict(
            {
                "nodes": [{"A": [["0", "x"]], "B": [["*"]], "C": [["*"]]}],
                "W": [["0"]],
                "H": [["*"]],
            }
        )
    with pytest.raises(NetworkFormatError, match="'W'"):
        network_from_dict({"nodes": [{"A": [["0"]], "B": [["*"]], "C": [["*"]]}], "H": [["*"]]})


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "expected a JSON object, got list"),
        ({"nodes": [], "W": [["0"]], "H": [["*"]]}, "'nodes' must be a non-empty list"),
        ({"nodes": {}, "W": [["0"]], "H": [["*"]]}, "'nodes' must be a non-empty list"),
        ({"nodes": [["0"]], "W": [["0"]], "H": [["*"]]}, "nodes[0] must be an object"),
        (
            {"nodes": [{"A": "0", "B": [["*"]], "C": [["*"]]}], "W": [["0"]], "H": [["*"]]},
            "nodes[0].A: expected a list of rows, got str",
        ),
        (
            {"nodes": [{"A": ["0"], "B": [["*"]], "C": [["*"]]}], "W": [["0"]], "H": [["*"]]},
            "nodes[0].A: row 1: expected a list of tokens",
        ),
    ],
    ids=["top-level-list", "empty-nodes", "non-list-nodes", "non-object-node", "non-list-grid", "non-list-row"],
)
def test_network_from_dict_layout_messages_are_exact(obj, message):
    with pytest.raises(NetworkFormatError) as excinfo:
        network_from_dict(obj)
    assert str(excinfo.value) == message


def test_equal_dense_node_grids_share_one_pattern():
    # equal grids, even as separate lists, give the node matrices one object;
    # W, H and sparse node matrices are parsed one by one
    dense_grid = [["0", "*"], ["*", "0"]]
    sparse = {"shape": [2, 2], "entries": [[1, 2, "*"], [2, 1, "*"]]}
    obj = {
        "nodes": [
            {"A": dense_grid, "B": dense_grid, "C": dense_grid},
            {"A": sparse, "B": sparse, "C": sparse},
            {"A": [list(row) for row in dense_grid], "B": dense_grid, "C": dense_grid},
        ],
        "W": dense_grid,
        "H": dense_grid,
    }
    net = network_from_dict(obj)
    first, second, third = net.nodes
    assert first.A is first.B is first.C is third.A is third.C
    assert second.A == second.B == first.A
    assert second.A is not second.B and second.A is not first.A
    assert net.W == net.H == first.A
    assert net.W is not first.A and net.H is not first.A and net.W is not net.H


@pytest.mark.parametrize("sparse", [False, True])
def test_identical_nodes_each_count_toward_the_file_limit(sparse):
    # four nodes of three 100,000-row matrices each: the fourth node's B
    # crosses the limit, whether its grid is shared or each matrix is sparse
    tall = {"shape": [100_000, 1], "entries": []} if sparse else [["0"]] * 100_000
    obj = {"nodes": [{"A": tall, "B": tall, "C": tall}] * 4, "W": [["*"]], "H": [["*"]]}
    with pytest.raises(NetworkFormatError) as excinfo:
        network_from_dict(obj)
    assert str(excinfo.value) == (
        "nodes[3].B: brings the file to 1100000 rows, "
        "over the limit of 1000000 for all matrices together"
    )


@pytest.mark.parametrize("token", ["x", ["*"], {"*": 1}, None], ids=["str", "list", "object", "null"])
def test_a_repeated_bad_grid_is_reported_at_its_first_position(token):
    good = {"A": [["0"]], "B": [["*"]], "C": [["*"]]}
    bad = {"A": [["0"]], "B": [["*"]], "C": [["*", token]]}
    obj = {"nodes": [good, bad, bad, {**bad, "C": [["*", token]]}], "W": [["0"] * 4] * 4, "H": [["*"]] * 4}
    with pytest.raises(NetworkFormatError) as excinfo:
        network_from_dict(obj)
    assert str(excinfo.value) == (
        f"nodes[1].C: row 1, column 2: invalid pattern token {token!r}, "
        "expected one of '0', '*', '?'"
    )


def test_a_grid_of_string_rows_is_not_taken_for_an_equal_list_grid():
    # tuple("0*") equals tuple(["0", "*"]), but only list rows are tokens
    node = {"A": [["0"]], "B": [["*"]], "C": [["0", "*"]]}
    obj = {"nodes": [node, {**node, "C": ["0*"]}], "W": [["0"] * 2] * 2, "H": [["*"]] * 2}
    with pytest.raises(NetworkFormatError) as excinfo:
        network_from_dict(obj)
    assert str(excinfo.value) == "nodes[1].C: row 1: expected a list of tokens"


def test_block_accessors(demo_network):
    assert interconnection_block(demo_network, 2, 1) == parse("* 0\n? *")
    assert interconnection_block(demo_network, 1, 3) == PatternMatrix.zeros(2, 2)
    assert input_block(demo_network, 1, 2) == parse("0\n*")
