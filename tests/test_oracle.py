"""Numeric rank oracle, sampling audits, and exhaustive sweeps (the last in helpers)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucnet import (
    ANY,
    STAR,
    AssumptionViolated,
    NodeSystem,
    NumericBreakdown,
    PatternMatrix,
    StructuredNetwork,
    is_full_row_rank,
    is_network_controllable,
)
from strucnet import oracle
from strucnet.oracle import AuditConfig, AuditOutcome, audit_network
from strucnet.pattern import pat_add, sample_realization
from conftest import A1, C_NODE

from helpers import (
    audit_network_reference,
    audit_rank,
    chain_network,
    dense,
    enumerate_patterns,
    grid,
    is_member,
    kalman_controllable,
    networks,
    pat_identity,
    random_pattern,
    shift_exclusion_exhaustive,
    shift_exclusion_random,
)


def test_audit_config_validation():
    assert AuditConfig.__match_args__ == ("trials", "seed")
    AuditConfig(trials=1, seed=0)
    with pytest.raises(ValueError):
        AuditConfig(trials=0)
    with pytest.raises(ValueError):
        AuditConfig(seed=-1)


@pytest.mark.parametrize(
    "kwargs", [{"trials": 2.5}, {"trials": True}, {"trials": "3"}, {"seed": 1.5}, {"seed": False}]
)
def test_audit_config_rejects_non_int(kwargs):
    # range() would raise a TypeError for these only once the audit runs
    name, value = next(iter(kwargs.items()))
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
        AuditConfig(**kwargs)


def test_kalman_scalar_integrator():
    assert kalman_controllable(np.array([[0.0]]), np.array([[1.0]]))


def test_kalman_double_integrator():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    assert kalman_controllable(a, b)


def test_kalman_unreachable_state():
    assert not kalman_controllable(np.eye(2), np.array([[1.0], [0.0]]))


def test_kalman_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kalman_controllable(np.zeros((2, 3)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        kalman_controllable(np.zeros((2, 2)), np.zeros((3, 1)))


def test_kalman_invariant_under_state_permutation():
    rng = np.random.default_rng(30)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, int(rng.integers(1, 3))))
        if rng.random() < 0.3:
            b[:] = 0.0  # force some uncontrollable cases
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        assert kalman_controllable(a, b) == kalman_controllable(p @ a @ p.T, p @ b)


def test_audit_rank_identity():
    outcome = audit_rank(pat_identity(3), AuditConfig(trials=50, seed=1))
    assert outcome.trials_run == 50
    assert outcome.failures == 0
    assert outcome.first_failure is None


def test_audit_rank_lone_any_fails_sometimes():
    outcome = audit_rank(grid([[ANY]]), AuditConfig(trials=50, seed=2))
    assert outcome.failures >= 1
    assert outcome.first_failure is not None
    trial, detail = outcome.first_failure
    assert 0 <= trial < 50 and "rank" in detail


def test_audit_rank_assembled_demo(demo_network):
    plain, shifted = is_network_controllable(demo_network).patterns
    assert audit_rank(plain, AuditConfig(trials=50, seed=3)).failures == 0
    assert audit_rank(shifted, AuditConfig(trials=50, seed=4)).failures == 0


def test_audit_rank_rejects_tall_patterns():
    from strucnet import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        audit_rank(PatternMatrix.zeros(2, 1), AuditConfig(trials=1))


def test_colorable_patterns_never_fail_numeric_rank():
    rng = np.random.default_rng(31)
    certified = 0
    while certified < 25:
        rows = int(rng.integers(1, 5))
        cols = rows + int(rng.integers(0, 4))
        m = random_pattern(rng, rows, cols, (0.45, 0.4, 0.15))
        if not is_full_row_rank(m).colorable:
            continue
        certified += 1
        outcome = audit_rank(m, AuditConfig(trials=40, seed=int(rng.integers(10_000))))
        assert outcome.failures == 0, f"certified pattern failed numerically:\n{m}"


def test_audit_network_demo(demo_network):
    outcome = audit_network(demo_network, AuditConfig(trials=100, seed=7))
    assert outcome.trials_run == 100
    assert outcome.failures == 0


def test_audit_network_without_inputs(no_input_network):
    outcome = audit_network(no_input_network, AuditConfig(trials=10, seed=5))
    assert outcome.failures == 10
    assert outcome.first_failure[0] == 0


def test_audit_network_is_deterministic(demo_network):
    cfg = AuditConfig(trials=20, seed=11)
    assert audit_network(demo_network, cfg) == audit_network(demo_network, cfg)
    different = audit_network(demo_network, AuditConfig(trials=20, seed=12))
    assert isinstance(different, AuditOutcome)


def test_audit_network_rejects_invalid_network():
    net = StructuredNetwork(
        (NodeSystem(A1, PatternMatrix.zeros(4, 2), C_NODE),),
        PatternMatrix.zeros(2, 2),
        pat_identity(2),
    )
    with pytest.raises(AssumptionViolated):
        audit_network(net, AuditConfig(trials=1))


@settings(max_examples=100, deadline=None)
@given(
    networks(),
    st.integers(1, 45),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 16384, oracle._CHUNK_BYTES]),
)
def test_audit_network_equals_one_trial_at_a_time(net, trials, seed, chunk_bytes):
    # a 1-byte budget runs one trial per chunk; 16 KiB splits most runs
    # into several chunks, with a partial one at the end
    cfg = AuditConfig(trials=trials, seed=seed)
    with mock.patch.object(oracle, "_CHUNK_BYTES", chunk_bytes):
        assert audit_network(net, cfg) == audit_network_reference(net, cfg)


@pytest.mark.parametrize(
    "nodes, chunks, trials_past_chunks",
    [
        (20, 1, 2),  # 100 states: one trial per chunk
        (6, 2, 3),  # 30 states: two full chunks and a partial one
    ],
)
def test_audit_network_equals_one_trial_at_a_time_across_chunks(nodes, chunks, trials_past_chunks):
    net = chain_network(nodes)
    per_chunk = oracle._ChunkSampler(net).per_chunk
    assert (per_chunk == 1) == (nodes == 20)
    for seed in (0, 9):
        cfg = AuditConfig(trials=chunks * per_chunk + trials_past_chunks, seed=seed)
        assert audit_network(net, cfg) == audit_network_reference(net, cfg)


def test_audit_out_of_memory_names_the_first_trial_of_its_chunk(demo_network):
    per_chunk = oracle._ChunkSampler(demo_network).per_chunk
    real_sample = oracle._ChunkSampler.sample

    def sample(self, seed, trials):
        if trials[0] > 0:  # the second chunk cannot be allocated
            raise MemoryError
        return real_sample(self, seed, trials)

    with mock.patch.object(oracle._ChunkSampler, "sample", sample):
        with pytest.raises(NumericBreakdown) as excinfo:
            audit_network(demo_network, AuditConfig(trials=per_chunk + 5, seed=1))
    assert str(excinfo.value) == f"out of memory in trial {per_chunk} (seed 1) for 12 x 12 realizations"


def trial_bytes(net: StructuredNetwork) -> int:
    """The bytes of one trial's arrays: the five realizations, twice the Kalman matrix and A."""
    n, m = net.A_blk.rows, net.H.cols
    sampled = sum(p.rows * p.cols for p in (net.A_blk, net.B_blk, net.C_blk, net.W, net.H))
    return 8 * (sampled + 2 * n * n * (m + 1))


def test_audit_refuses_a_chain_too_large_for_one_trial_before_allocating_it():
    net = chain_network(4000)  # 20,000 states
    is_network_controllable(net)  # the block patterns exist already, as in `strucnet audit`
    tracemalloc.start()
    try:
        with pytest.raises(NumericBreakdown) as excinfo:
            audit_network(net, AuditConfig(trials=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # numpy reports its buffers to tracemalloc too
    need = trial_bytes(net)
    assert need > 16 * 10**9
    assert str(excinfo.value) == (
        f"audit refused: one trial of 20000 states needs {need} bytes, "
        f"above the limit of {oracle.MAX_TRIAL_BYTES}"
    )


def test_audit_limit_admits_a_trial_of_exactly_its_size(demo_network):
    need = trial_bytes(demo_network)
    with mock.patch.object(oracle, "MAX_TRIAL_BYTES", need):
        assert audit_network(demo_network, AuditConfig(trials=2)).trials_run == 2
    with mock.patch.object(oracle, "MAX_TRIAL_BYTES", need - 1):
        with pytest.raises(NumericBreakdown, match=f"^audit refused: one trial of 12 states needs {need} bytes"):
            audit_network(demo_network, AuditConfig(trials=2))


@settings(max_examples=50, deadline=None)
@given(networks(), st.integers(0, 2**32 - 1), st.integers(0, 1000))
def test_chunk_sampler_draws_the_stream_of_five_sample_realization_calls(net, seed, first):
    # one random(2 K) call per trial, split over A, B, C, W and H in that
    # order, gives exactly what five sample_realization calls give
    patterns = (net.A_blk, net.B_blk, net.C_blk, net.W, net.H)
    trials = range(first, first + 3)
    stacked = oracle._ChunkSampler(net).sample(seed, trials)
    for k, trial in enumerate(trials):
        rng = np.random.default_rng([seed, trial])
        for m, values in zip(patterns, stacked):
            assert np.array_equal(values[k], sample_realization(m, rng))


def test_controllability_rank_of_a_stack_is_the_rank_of_each_slice():
    rng = np.random.default_rng(32)
    a = rng.normal(size=(6, 4, 4))
    b = rng.normal(size=(6, 4, 2))
    b[1] = 0.0
    a[2] = np.eye(4)
    ranks = oracle._controllability_rank(a, b)
    assert ranks.tolist() == [oracle._controllability_rank(x, y) for x, y in zip(a, b)]
    assert ranks[1] == 0 and ranks[2] == 2


def test_audit_samples_are_class_members(demo_network):
    # the network audit draws from the same sampler contract as
    # sample_realization; spot-check the pattern-level membership here
    plain, _ = is_network_controllable(demo_network).patterns
    for seed in range(100):
        assert is_member(sample_realization(plain, seed), plain)


def _entry_grid(symbol):
    if symbol is STAR:
        return (-1.0, 1.0, 2.0)
    if symbol is ANY:
        return (-1.0, 0.0, 1.0)
    return (0.0,)


def _has_rank_deficient_grid_realization(m):
    import itertools

    grids = [_entry_grid(symbol) for row in dense(m) for symbol in row]
    for combo in itertools.product(*grids):
        x = np.array(combo).reshape(m.rows, m.cols)
        s = np.linalg.svd(x, compute_uv=False)
        if int(np.sum(s > 1e-9 * max(s[0], 1.0))) < m.rows:
            return True
    return False


def test_colorability_matches_brute_force_on_small_patterns():
    # exhaustive equivalence on every pattern up to 2x3: the coloring
    # certifies full row rank iff no realization drawn from a small value
    # grid drops rank (the grid turns out to witness every deficient case)
    for shape in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        for m in enumerate_patterns(*shape):
            certified = is_full_row_rank(m).colorable
            assert certified == (not _has_rank_deficient_grid_realization(m)), f"\n{m}"


def test_shift_exclusion_exhaustive_small():
    assert shift_exclusion_exhaustive(1)
    assert shift_exclusion_exhaustive(2)
    with pytest.raises(ValueError):
        shift_exclusion_exhaustive(3)


def test_shift_exclusion_randomized():
    assert shift_exclusion_random(3, 2000, seed=6)
    assert shift_exclusion_random(4, 2000, seed=7)


def test_shift_exclusion_scalar_instances():
    star = grid([[STAR]])
    assert is_full_row_rank(star).colorable
    shifted_ok = is_full_row_rank(pat_add(star, pat_identity(1))).colorable
    assert not shifted_ok  # '*' + '*' is '?', which the zero matrix realizes


def test_enumerate_patterns_counts():
    assert len(list(enumerate_patterns(1, 1))) == 3
    assert len(list(enumerate_patterns(2, 2))) == 81
    assert len(set(enumerate_patterns(2, 2))) == 81
