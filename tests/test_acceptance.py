"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Budgets and tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from strucnet import (
    PatternMatrix,
    build_graph,
    color_change,
    extract_topology,
    is_full_row_rank,
    is_network_controllable,
    load_network,
    load_pattern,
    node_necessary_check,
    topology_necessary_check,
    weak_color_change,
)
from conftest import INTERCONNECTION_FILE, NETWORK_FILE

from strucnet.oracle import AuditConfig, audit_network
from strucnet.pattern import pat_add, pat_mul

from helpers import (
    parse,
    random_network,
    random_pattern,
    shift_exclusion_exhaustive,
    shift_exclusion_random,
    standard_forced_set,
    tokens,
    weak_forced_set,
)

RANDOM_NETWORK_COUNT = 220


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({elapsed:.3f}s, budget {budget:g}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert in_budget, f"criterion {num} exceeded budget: {elapsed:.3f}s >= {budget:g}s"


@pytest.fixture(scope="module")
def random_suite():
    """The shared pool of random valid networks for criteria 6 and 7."""
    rng = np.random.default_rng(20240817)
    networks = [random_network(rng) for _ in range(RANDOM_NETWORK_COUNT)]
    verdicts = [is_network_controllable(net).controllable for net in networks]
    return networks, verdicts


def test_criterion_1_symbol_tables():
    expected_add = {
        ("0", "0"): "0", ("0", "*"): "*", ("0", "?"): "?",
        ("*", "0"): "*", ("*", "*"): "?", ("*", "?"): "?",
        ("?", "0"): "?", ("?", "*"): "?", ("?", "?"): "?",
    }
    expected_mul = {
        ("0", "0"): "0", ("0", "*"): "0", ("0", "?"): "0",
        ("*", "0"): "0", ("*", "*"): "*", ("*", "?"): "?",
        ("?", "0"): "0", ("?", "*"): "?", ("?", "?"): "?",
    }
    # the library's rules, read off 1 x 1 sums and products
    by_token = {t: PatternMatrix.from_tokens([[t]]) for t in ("0", "*", "?")}
    start = time.perf_counter()
    ok = all(
        tokens(pat_add(by_token[a], by_token[b])) == [[out]]
        for (a, b), out in expected_add.items()
    ) and all(
        tokens(pat_mul(by_token[a], by_token[b])) == [[out]]
        for (a, b), out in expected_mul.items()
    )
    elapsed = time.perf_counter() - start
    _report(1, ok, "all 18 symbol table entries exact", elapsed, budget=0.001)


def test_criterion_2_demo_network_end_to_end():
    start = time.perf_counter()
    network = load_network(NETWORK_FILE)
    check = is_network_controllable(network)
    elapsed = time.perf_counter() - start
    ok = (
        check.controllable
        and check.plain.colorable
        and check.shifted.colorable
        and check.plain.derived_set == set(range(1, 13))
        and check.shifted.derived_set == set(range(1, 13))
    )
    _report(2, ok, "shipped network certified controllable by both colorings", elapsed, budget=1.0)


def test_criterion_3_interconnection_not_full_rank():
    start = time.perf_counter()
    pattern = load_pattern(INTERCONNECTION_FILE)
    cert = is_full_row_rank(pattern)
    elapsed = time.perf_counter() - start
    ok = (not cert.colorable) and 6 in cert.uncolored
    _report(3, ok, "interconnection [W H] not full row rank, vertex 6 uncolored", elapsed, budget=1.0)


def test_criterion_4_topology_extraction():
    start = time.perf_counter()
    network = load_network(NETWORK_FILE)
    w_tilde, h_tilde = extract_topology(network)
    weakly = topology_necessary_check(network).colorable
    elapsed = time.perf_counter() - start
    ok = (
        w_tilde == parse("0 0 0\n* 0 0\n0 * 0")
        and h_tilde == parse("* *\n0 0\n0 0")
        and weakly
    )
    _report(4, ok, "topology summary exact and weakly colorable", elapsed, budget=1.0)


def test_criterion_5_shift_exclusion_sweeps():
    start = time.perf_counter()
    ok = (
        shift_exclusion_exhaustive(1)
        and shift_exclusion_exhaustive(2)
        and shift_exclusion_random(3, 10_000, seed=101)
        and shift_exclusion_random(4, 10_000, seed=102)
    )
    elapsed = time.perf_counter() - start
    _report(
        5,
        ok,
        "M and M+I never both full row rank (3 + 81 exhaustive, 2x10^4 random)",
        elapsed,
        budget=10.0,
    )


def test_criterion_6_necessary_condition_implications(random_suite):
    networks, verdicts = random_suite
    start = time.perf_counter()
    counterexamples = 0
    controllable = 0
    for network, verdict in zip(networks, verdicts):
        assert network.violations == ()
        if not verdict:
            continue
        controllable += 1
        if not all(ok for _, ok in node_necessary_check(network)):
            counterexamples += 1
        if not topology_necessary_check(network).colorable:
            counterexamples += 1
    elapsed = time.perf_counter() - start
    ok = counterexamples == 0 and len(networks) >= 200
    _report(
        6,
        ok,
        f"{len(networks)} random networks, {controllable} controllable, "
        f"{counterexamples} implication counterexamples",
        elapsed,
        budget=30.0,
    )


def test_criterion_7_oracle_consistency(random_suite):
    networks, verdicts = random_suite
    start = time.perf_counter()
    failures = 0
    audited = 0
    demo = load_network(NETWORK_FILE)
    targets = [demo] + [net for net, verdict in zip(networks, verdicts) if verdict]
    for idx, network in enumerate(targets):
        cfg = AuditConfig(trials=100, seed=7000 + idx)
        outcome = audit_network(network, cfg)
        failures += outcome.failures
        audited += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and audited >= 2
    _report(
        7,
        ok,
        f"{audited} certified networks x 100 realizations, {failures} failures",
        elapsed,
        budget=60.0,
    )


def test_criterion_8_forcing_order_invariance():
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(50):
        rows = int(rng.integers(1, 6))
        cols = rows + int(rng.integers(0, 4))
        graph = build_graph(random_pattern(rng, rows, cols, (0.45, 0.4, 0.15)))
        standard = color_change(graph).derived_set
        weak = weak_color_change(graph).derived_set
        for _ in range(20):
            if standard_forced_set(graph, rng) != standard:
                mismatches += 1
            if weak_forced_set(graph, rng) != weak:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        8,
        mismatches == 0,
        f"50 patterns x 20 randomized orders per rule, {mismatches} mismatches",
        elapsed,
        budget=5.0,
    )


def test_criterion_9_property_suite_stands_in_for_benchmarks():
    # there are no quantitative result tables to reproduce; criteria 5-8 are
    # the property-based substitute, so this line just records that fact
    print("[PASS] criterion 9: property-based criteria 5-8 substitute for benchmark tables")
