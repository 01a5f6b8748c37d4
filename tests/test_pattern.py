"""Symbol algebra, pattern matrix operations, sampling, and block assembly."""

import itertools
import json
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strucnet
from strucnet import (
    ANY,
    STAR,
    ZERO,
    PatternMatrix,
    StrucnetError,
    load_pattern,
)
from strucnet.network import analyze, is_network_controllable
from strucnet.oracle import AuditConfig, AuditOutcome
from strucnet.pattern import (
    Record,
    block_diag,
    hstack,
    pat_add,
    pat_mul,
    pat_shift,
    sample_realization,
)
from conftest import A1, C_NODE, NETWORK_FILE

from helpers import (
    SYMBOLS,
    ProductExactness,
    block_diag_dense,
    dense,
    enumerate_patterns,
    exact_product_condition,
    filled,
    fresh_process_env,
    grid,
    hstack_dense,
    is_member,
    networks,
    pat_add_dense,
    pat_identity,
    pat_mul_fold,
    parse,
    pat_shift_dense,
    random_pattern,
    sparse_patterns,
    submatrix,
    sym_add,
    sym_mul,
    tokens,
)

# The full symbol tables, transcribed independently of the implementation.
ADD_TABLE = {
    (ZERO, ZERO): ZERO, (ZERO, STAR): STAR, (ZERO, ANY): ANY,
    (STAR, ZERO): STAR, (STAR, STAR): ANY, (STAR, ANY): ANY,
    (ANY, ZERO): ANY, (ANY, STAR): ANY, (ANY, ANY): ANY,
}
MUL_TABLE = {
    (ZERO, ZERO): ZERO, (ZERO, STAR): ZERO, (ZERO, ANY): ZERO,
    (STAR, ZERO): ZERO, (STAR, STAR): STAR, (STAR, ANY): ANY,
    (ANY, ZERO): ZERO, (ANY, STAR): ANY, (ANY, ANY): ANY,
}


def test_symbol_addition_table():
    for pair, expected in ADD_TABLE.items():
        assert sym_add(*pair) is expected


def test_symbol_multiplication_table():
    for pair, expected in MUL_TABLE.items():
        assert sym_mul(*pair) is expected


def test_symbol_tokens_round_trip():
    assert (ZERO, STAR, ANY) == ("0", "*", "?")
    for token in ("0", "*", "?"):
        assert tokens(PatternMatrix.from_tokens([[token]])) == [[token]]


def test_invalid_token_rejected():
    with pytest.raises(StrucnetError, match="row 2, column 1"):
        PatternMatrix.from_tokens([["0", "*"], ["x", "?"]])


def test_symbol_laws_exhaustive():
    for a, b in itertools.product(SYMBOLS, repeat=2):
        assert sym_add(a, b) is sym_add(b, a)
        assert sym_mul(a, b) is sym_mul(b, a)
    for a, b, c in itertools.product(SYMBOLS, repeat=3):
        assert sym_add(sym_add(a, b), c) is sym_add(a, sym_add(b, c))
        assert sym_mul(sym_mul(a, b), c) is sym_mul(a, sym_mul(b, c))
        assert sym_mul(a, sym_add(b, c)) is sym_add(sym_mul(a, b), sym_mul(a, c))


def test_pat_add_star_star_gives_any():
    assert pat_add(grid([[STAR]]), grid([[STAR]])) == grid([[ANY]])


def test_pat_add_zero_is_identity():
    m = random_pattern(np.random.default_rng(0), 3, 4)
    assert pat_add(m, PatternMatrix.zeros(3, 4)) == m


def test_pat_add_node_state_plus_identity():
    shifted, a1 = dense(pat_add(A1, pat_identity(4))), dense(A1)
    for i in range(4):
        for j in range(4):
            if i == j:
                assert shifted[i][j] is ANY
            else:
                assert shifted[i][j] is a1[i][j]


def test_pat_add_shape_mismatch():
    with pytest.raises(StrucnetError):
        pat_add(PatternMatrix.zeros(2, 2), PatternMatrix.zeros(2, 3))


def test_pat_mul_identity_preserves_pattern():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = random_pattern(rng, 3, 4)
        assert pat_mul(pat_identity(3), n) == n


def test_pat_mul_coupling_block():
    # W block (2,1) of the demo network times the node output pattern
    w21 = parse("* 0\n? *")
    assert pat_mul(w21, C_NODE) == parse("0 0 * 0\n0 0 ? *")


def test_pat_mul_inner_sum_cancels_to_any():
    row = grid([[STAR, STAR]])
    col = grid([[STAR], [STAR]])
    assert pat_mul(row, col) == grid([[ANY]])


def test_pat_mul_shape_mismatch():
    with pytest.raises(StrucnetError):
        pat_mul(PatternMatrix.zeros(2, 3), PatternMatrix.zeros(2, 3))


def test_pat_mul_associative_exhaustive_2x2():
    # all 81^3 chains of square 2x2 patterns, via one memoized product table
    patterns = list(enumerate_patterns(2, 2))
    index = {m: i for i, m in enumerate(patterns)}
    table = np.empty((81, 81), dtype=np.intp)
    for i, m in enumerate(patterns):
        for j, n in enumerate(patterns):
            table[i, j] = index[pat_mul(m, n)]
    assert np.array_equal(table[table], table[:, table])


def test_pat_mul_associative_small_chains():
    # exhaustive over all conformable chains with at most two entries per factor
    shapes = [(a, b, c, d) for a in (1, 2) for b in (1, 2) for c in (1, 2) for d in (1, 2)
              if a * b <= 2 and b * c <= 2 and c * d <= 2]
    for a, b, c, d in shapes:
        for m in enumerate_patterns(a, b):
            for n in enumerate_patterns(b, c):
                for p in enumerate_patterns(c, d):
                    assert pat_mul(pat_mul(m, n), p) == pat_mul(m, pat_mul(n, p))


def test_pat_mul_associative_random_shapes():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a, b, c, d = rng.integers(1, 5, size=4)
        m = random_pattern(rng, a, b)
        n = random_pattern(rng, b, c)
        p = random_pattern(rng, c, d)
        assert pat_mul(pat_mul(m, n), p) == pat_mul(m, pat_mul(n, p))


# Row 2 and column 3 are all zero: a sparse row that lists nothing, and a
# column that no row lists.
ZERO_ROW_AND_COLUMN = parse("0 * 0 0\n0 0 0 0\n? 0 0 *")


@st.composite
def product_operands(draw):
    """Conformable factors m (r x k) and n (k x c), every size up to 8."""
    r, k, c = (draw(st.integers(1, 8)) for _ in range(3))
    return draw(sparse_patterns(r, k)), draw(sparse_patterns(k, c))


@settings(max_examples=400, deadline=None)
@given(product_operands())
@example((ZERO_ROW_AND_COLUMN, parse("0 *\n0 0\n* 0\n* ?")))
@example((PatternMatrix.zeros(2, 3), ZERO_ROW_AND_COLUMN))
def test_pat_mul_matches_reference_fold(operands):
    m, n = operands
    assert pat_mul(m, n) == pat_mul_fold(m, n)


@st.composite
def sum_operands(draw):
    """Two patterns of one shape, every size up to 8 x 8."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return draw(sparse_patterns(r, c)), draw(sparse_patterns(r, c))


@settings(max_examples=200, deadline=None)
@given(sum_operands())
@example((ZERO_ROW_AND_COLUMN, PatternMatrix.zeros(3, 4)))
@example((ZERO_ROW_AND_COLUMN, ZERO_ROW_AND_COLUMN))
def test_pat_add_matches_entrywise_sym_add(operands):
    m, n = operands
    total = pat_add(m, n)
    assert total == pat_add_dense(m, n)
    cells, m_cells, n_cells = dense(total), dense(m), dense(n)
    for i in range(m.rows):
        for j in range(m.cols):
            assert cells[i][j] is sym_add(m_cells[i][j], n_cells[i][j])


@st.composite
def shift_operands(draw):
    """A square a (n x n) and a b (n x m), n up to 8 and m up to 4."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    return draw(sparse_patterns(n, n)), draw(sparse_patterns(n, m))


@settings(max_examples=300, deadline=None)
@given(shift_operands())
@example((PatternMatrix.zeros(3, 3), filled(3, 2, STAR)))
@example((filled(3, 3, ANY), PatternMatrix.zeros(3, 1)))
@example((submatrix(ZERO_ROW_AND_COLUMN, 0, 3, 0, 3), ZERO_ROW_AND_COLUMN))
def test_pat_shift_adds_the_identity_to_the_leading_block(operands):
    a, b = operands
    assert hstack(a, b) == hstack_dense(a, b)
    assert pat_shift(hstack(a, b)) == pat_shift_dense(hstack_dense(a, b))
    expected = hstack(pat_add(a, pat_identity(a.rows)), b)
    assert pat_shift(hstack(a, b)) == expected
    assert pat_shift(a) == pat_add(a, pat_identity(a.rows))


def test_pat_shift_diagonal_rule():
    assert pat_shift(parse("0 * ? 0\n* * ? ?\n? 0 ? *")) == parse(
        "* * ? 0\n* ? ? ?\n? 0 ? *"
    )
    with pytest.raises(StrucnetError):
        pat_shift(PatternMatrix.zeros(2, 1))


def test_pat_identity_layout():
    assert pat_identity(1) == grid([[STAR]])
    assert pat_identity(2) == parse("* 0\n0 *")
    assert pat_add(pat_identity(2), PatternMatrix.zeros(2, 2)) == pat_identity(2)


def test_exact_product_condition_row():
    # node input patterns transposed have one '*' per row
    b_t = parse("* 0 0 0\n0 * 0 0")
    assert exact_product_condition(filled(3, 2, ANY), b_t) is ProductExactness.ROW_CONDITION


def test_exact_product_condition_both():
    assert exact_product_condition(pat_identity(2), pat_identity(2)) is ProductExactness.BOTH


def test_exact_product_condition_column():
    n = parse("? 0\n0 ?\n? 0")
    assert exact_product_condition(pat_identity(3), n) is ProductExactness.COLUMN_CONDITION


def test_exact_product_condition_neither():
    m = filled(2, 2, ANY)
    assert exact_product_condition(m, m) is ProductExactness.NEITHER


def test_exact_product_condition_shape_mismatch():
    with pytest.raises(StrucnetError):
        exact_product_condition(PatternMatrix.zeros(2, 3), PatternMatrix.zeros(2, 2))


def test_is_member_basics():
    assert is_member(np.array([[1.5]]), grid([[STAR]]))
    assert not is_member(np.array([[0.0]]), grid([[STAR]]))
    assert is_member(np.array([[0.0]]), grid([[ANY]]))
    assert is_member(np.array([[0.0]]), grid([[ZERO]]))
    assert not is_member(np.array([[0.25]]), grid([[ZERO]]))
    with pytest.raises(StrucnetError):
        is_member(np.zeros((1, 2)), grid([[ZERO]]))


def test_sum_of_realizations_lands_in_sum_pattern():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rows, cols = rng.integers(1, 5, size=2)
        m = random_pattern(rng, rows, cols)
        n = random_pattern(rng, rows, cols)
        a = sample_realization(m, rng)
        b = sample_realization(n, rng)
        assert is_member(a + b, pat_add(m, n))


def test_product_of_realizations_lands_in_product_pattern():
    # holds for arbitrary factors; checked extra on pairs meeting the
    # single-star conditions, where the product class is exact
    rng = np.random.default_rng(6)
    conditioned = 0
    for _ in range(150):
        a, b, c = rng.integers(1, 5, size=3)
        m = random_pattern(rng, a, b)
        n = random_pattern(rng, b, c)
        if exact_product_condition(m, n) is not ProductExactness.NEITHER:
            conditioned += 1
        x = sample_realization(m, rng)
        y = sample_realization(n, rng)
        assert is_member(x @ y, pat_mul(m, n))
    # node-style factors guarantee the conditioned branch is exercised
    for _ in range(50):
        m = random_pattern(rng, 3, 2)
        n = parse("0 * 0\n0 0 *")
        assert exact_product_condition(m, n) is not ProductExactness.NEITHER
        x = sample_realization(m, rng)
        y = sample_realization(n, rng)
        assert is_member(x @ y, pat_mul(m, n))
        conditioned += 1
    assert conditioned >= 50


_VALUE_GRID = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def _allowed(symbol):
    if symbol is ZERO:
        return (0.0,)
    if symbol is STAR:
        return _VALUE_GRID
    return _VALUE_GRID + (0.0,)


def _targets(symbol):
    if symbol is ZERO:
        return (0.0,)
    if symbol is STAR:
        return (-1.0, 1.0)
    return (-1.0, 0.0, 1.0)


def test_every_member_of_sum_pattern_splits():
    # entrywise brute force: every target value of the sum symbol is hit by
    # some pair of addends drawn from the per-symbol value grid
    for a_sym, b_sym in itertools.product(SYMBOLS, repeat=2):
        c_sym = sym_add(a_sym, b_sym)
        for x in _targets(c_sym):
            assert any(
                a + b == x for a in _allowed(a_sym) for b in _allowed(b_sym)
            ), f"{a_sym} + {b_sym}: no split for {x}"


def test_every_member_of_sum_pattern_splits_matrix_level():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_pattern(rng, 2, 2)
        n = random_pattern(rng, 2, 2)
        total = pat_add(m, n)
        cells, m_cells, n_cells = dense(total), dense(m), dense(n)
        x = np.array([[rng.choice(_targets(cells[i][j])) for j in range(2)] for i in range(2)])
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                a[i, j], b[i, j] = next(
                    (u, v)
                    for u in _allowed(m_cells[i][j])
                    for v in _allowed(n_cells[i][j])
                    if u + v == x[i, j]
                )
        assert is_member(a, m) and is_member(b, n)
        assert np.array_equal(a + b, x)
        assert is_member(x, total)


def test_product_pattern_class_is_strictly_larger_somewhere():
    # Enumerate pattern pairs with inner dimension 1: every numeric product
    # then has rank <= 1, so finding a full-rank 2x2 member of the product
    # pattern's class certifies the class inclusion is strict.
    found = []
    for m in enumerate_patterns(2, 1):
        for n in enumerate_patterns(1, 2):
            product = pat_mul(m, n)
            for values in itertools.product(*(_targets(s) for row in dense(product) for s in row)):
                x = np.array(values).reshape(2, 2)
                if is_member(x, product) and abs(np.linalg.det(x)) > 1e-12:
                    found.append((m, n, x))
                    break
    assert found, "no strictness witness found by enumeration"


def test_sample_realization_is_deterministic():
    m = random_pattern(np.random.default_rng(8), 4, 3)
    assert np.array_equal(sample_realization(m, 123), sample_realization(m, 123))
    assert not np.array_equal(sample_realization(m, 123), sample_realization(m, 124))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda r: st.integers(1, 10).flatmap(lambda c: sparse_patterns(r, c))),
    st.integers(0, 2**32 - 1),
)
@example(PatternMatrix.zeros(3, 4), 0)
def test_sample_realization_draws_two_doubles_per_nonzero(m, seed):
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    sample_realization(m, ours)
    reference.random(2 * len(m.nonzeros))
    assert ours.bit_generator.state == reference.bit_generator.state


def test_sample_realization_by_hand():
    # seed 17 draws d[0..7]; the nonzeros take (d[0], d[1]), ..., (d[6], d[7])
    d = np.random.default_rng(17).random(8)
    assert d[1] < 0.5 and d[2] >= 0.25 and d[4] < 0.25 and d[7] >= 0.5
    expected = [
        [0.5 + 1.5 * d[0], -2.0 + 4.0 * d[3]],  # '*' positive; '?' from its second double
        [0.0, -(0.5 + 1.5 * d[6])],  # '?' zero; '*' negative
    ]
    assert sample_realization(parse("* ?\n? *"), 17).tolist() == expected


def test_sample_realization_zero_pattern():
    values = sample_realization(PatternMatrix.zeros(3, 2), 0)
    assert np.array_equal(values, np.zeros((3, 2)))


def test_sample_realization_star_magnitude():
    m = grid([[STAR]])
    for seed in range(50):
        value = sample_realization(m, seed)[0, 0]
        assert 0.5 <= abs(value) <= 2.0


def test_sample_realization_any_hits_zero_and_nonzero():
    m = grid([[ANY]])
    draws = [sample_realization(m, seed)[0, 0] for seed in range(200)]
    zero_share = sum(1 for v in draws if v == 0.0) / len(draws)
    assert 0.1 < zero_share < 0.45
    assert all(-2.0 <= v <= 2.0 for v in draws)


def test_sample_realization_membership():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = random_pattern(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        assert is_member(sample_realization(m, rng), m)


def test_hstack_shapes():
    stacked = hstack(pat_identity(2), PatternMatrix.zeros(2, 1))
    assert stacked.shape == (2, 3)
    assert stacked == parse("* 0 0\n0 * 0")
    with pytest.raises(StrucnetError):
        hstack(pat_identity(2), PatternMatrix.zeros(3, 1))


def test_block_diag_of_node_states(demo_network):
    full = block_diag([node.A for node in demo_network.nodes])
    assert full.shape == (12, 12)
    assert submatrix(full, 0, 4, 0, 4) == A1
    assert submatrix(full, 0, 4, 4, 8) == PatternMatrix.zeros(4, 4)
    assert submatrix(full, 8, 12, 4, 8) == PatternMatrix.zeros(4, 4)


def test_block_diag_rejects_empty_block_list():
    with pytest.raises(StrucnetError):
        block_diag([])


@st.composite
def diagonal_blocks(draw):
    """One to four blocks, each up to 4 x 4."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4))
    return [draw(sparse_patterns(r, c)) for r, c in shapes]


@settings(max_examples=200, deadline=None)
@given(diagonal_blocks())
@example([ZERO_ROW_AND_COLUMN, PatternMatrix.zeros(1, 1), ZERO_ROW_AND_COLUMN])
@example([PatternMatrix.zeros(2, 3)])
def test_block_diag_matches_dense_reference(blocks):
    assert block_diag(blocks) == block_diag_dense(blocks)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda r: st.integers(1, 8).flatmap(lambda c: sparse_patterns(r, c))))
@example(ZERO_ROW_AND_COLUMN)
@example(PatternMatrix.zeros(2, 3))
def test_sparse_and_dense_forms_agree(m):
    sparse = PatternMatrix.from_json(m.to_sparse())
    assert set(vars(sparse)) == {"cols", "row_nonzeros"}  # no dense grid is kept
    cells = dense(sparse)
    from_grid = grid(cells)
    assert from_grid == sparse == m and hash(from_grid) == hash(sparse) == hash(m)
    assert sparse.nonzeros == tuple(
        (i, j, cells[i][j]) for i in range(m.rows) for j in range(m.cols) if cells[i][j] is not ZERO
    )
    assert PatternMatrix.from_tokens(tokens(m)) == m


def assert_rows_pass_the_check(m):
    """m's rows hold the row invariant: tuples of (column, symbol) pairs whose
    int columns strictly increase within 0..cols-1, each symbol STAR or ANY itself."""
    assert m.rows >= 1 and m.cols >= 1
    assert type(m.row_nonzeros) is tuple
    for row in m.row_nonzeros:
        assert type(row) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 for pair in row)
        columns = [j for j, _ in row]
        assert all(type(j) is int for j in columns)
        assert columns == sorted(set(columns)) and all(0 <= j < m.cols for j in columns)
        assert all(symbol is STAR or symbol is ANY for _, symbol in row)
    assert PatternMatrix.from_json(m.to_sparse()) == m


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda r: st.integers(1, 5).flatmap(
            lambda c: st.tuples(
                sparse_patterns(r, c),
                sparse_patterns(r, c),
                st.integers(1, 5).flatmap(lambda q: sparse_patterns(c, q)),
                st.lists(st.lists(st.sampled_from("0*?"), min_size=c, max_size=c), min_size=r, max_size=r),
            )
        )
    )
)
@example((ZERO_ROW_AND_COLUMN, ZERO_ROW_AND_COLUMN, PatternMatrix.zeros(4, 1), [["0"] * 4] * 3))
def test_unchecked_builders_give_rows_that_pass_the_check(operands):
    # the builders wrap their rows unchecked; each result must hold the row invariant
    m, n, k, token_grid = operands
    r, c = m.shape
    for built in (
        PatternMatrix.from_tokens(token_grid),
        pat_add(m, n),
        pat_mul(m, k),
        pat_shift(hstack(m, PatternMatrix.zeros(r, r))),
        hstack(m, n),
        block_diag([m, k, n]),
        PatternMatrix.zeros(r, c),
    ):
        assert_rows_pass_the_check(built)
    if r <= c:
        assert_rows_pass_the_check(pat_shift(m))


@settings(max_examples=100, deadline=None)
@given(st.one_of(networks(), networks(repeat_nodes=True)))
def test_network_views_give_rows_that_pass_the_check(network):
    check = is_network_controllable(network)
    for built in (network.A_blk, network.B_blk, network.C_blk, *network.topology, *check.patterns):
        assert_rows_pass_the_check(built)


class MarkedRow(tuple):
    """A row whose copy would be a plain tuple, so a shared row shows by identity.

    Plain rows cannot show it: tuple() of a tuple and every empty tuple are
    the same object whether or not a builder copies them.
    """


def marked(cols: int, rows) -> PatternMatrix:
    """A pattern of MarkedRow rows, built without _trusted, which is tested on its own."""
    matrix = object.__new__(PatternMatrix)
    matrix.__dict__.update(cols=cols, row_nonzeros=tuple(map(MarkedRow, rows)))
    return matrix


def test_trusted_keeps_the_tuple_rows_it_is_given():
    rows = [MarkedRow(((0, STAR), (2, ANY))), MarkedRow()]
    built = PatternMatrix._trusted(3, rows)
    assert type(built.row_nonzeros) is tuple
    assert all(kept is row for kept, row in zip(built.row_nonzeros, rows, strict=True))


def test_block_diag_shares_the_first_blocks_rows_and_every_empty_row():
    m = marked(2, [((0, STAR),), (), ((0, ANY), (1, STAR))])
    k = marked(3, [(), ((2, STAR),)])
    built = block_diag([m, k])
    assert all(kept is row for kept, row in zip(built.row_nonzeros, m.row_nonzeros))
    assert built.row_nonzeros[3] is k.row_nonzeros[0]
    assert built.row_nonzeros[4] == ((4, STAR),)
    assert dense(built) == dense(block_diag_dense([m, k]))


def test_pat_mul_passes_empty_rows_through_and_shares_single_star_rows():
    m = marked(2, [(), ((1, STAR),), ((1, ANY),), ((0, STAR), (1, STAR))])
    n = marked(3, [((0, STAR), (2, ANY)), ((1, STAR),)])
    built = pat_mul(m, n)
    assert built.row_nonzeros[0] is m.row_nonzeros[0] and built.row_nonzeros[0] == ()
    assert built.row_nonzeros[1] is n.row_nonzeros[1]
    assert built.row_nonzeros[2:] == (((1, ANY),), ((0, STAR), (1, STAR), (2, ANY)))
    assert dense(built) == dense(pat_mul_fold(m, n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda r: st.integers(1, 8).flatmap(lambda c: sparse_patterns(r, c))))
@example(PatternMatrix.zeros(2, 3))
def test_sparse_form_round_trips_with_tuple_entries(m):
    sparse = m.to_sparse()
    assert all(type(entry) is tuple for entry in sparse["entries"])
    assert PatternMatrix.from_json(sparse) == m
    written = json.loads(json.dumps(sparse))
    assert written["entries"] == [list(entry) for entry in sparse["entries"]]
    assert PatternMatrix.from_json(written) == m


@pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0), (2, True), (-1, 1), (True, 2), (2.0, 2)])
def test_zeros_rejects_an_empty_shape(rows, cols):
    with pytest.raises(StrucnetError, match="^a pattern matrix needs at least one row and one column$"):
        PatternMatrix.zeros(rows, cols)


def test_from_json_names_a_short_tuple_entry():
    with pytest.raises(StrucnetError) as excinfo:
        PatternMatrix.from_json({"shape": [2, 2], "entries": [(1, 1, "*"), (2, 2)]})
    assert str(excinfo.value) == "entries[1]: expected [row, column, token], got (2, 2)"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda r: st.integers(1, 6).flatmap(lambda c: sparse_patterns(r, c))),
    st.data(),
)
def test_sparse_reader_ignores_entry_order_and_names_a_repeated_entry(m, data):
    shape = [m.rows, m.cols]
    entries = data.draw(st.permutations([list(entry) for entry in m.to_sparse()["entries"]]))
    assert PatternMatrix.from_json({"shape": shape, "entries": entries}) == m
    if entries:  # one copy of an entry, with either token, is named by its position
        i, j, _ = data.draw(st.sampled_from(entries))
        token = data.draw(st.sampled_from("*?"))
        with pytest.raises(StrucnetError) as excinfo:
            PatternMatrix.from_json({"shape": shape, "entries": [*entries, [i, j, token]]})
        assert str(excinfo.value) == f"row {i}, column {j} appears twice"


def test_pattern_text_form_round_trip(tmp_path):
    m = PatternMatrix.from_tokens([["*", "0"], ["?", "*"]])
    assert tokens(m) == [["*", "0"], ["?", "*"]]
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(tokens(m)))
    assert load_pattern(path) == m


def test_pattern_grid_must_be_rectangular():
    with pytest.raises(StrucnetError):
        PatternMatrix.from_tokens([["0", "*"], ["0"]])
    with pytest.raises(StrucnetError):
        PatternMatrix.from_tokens([])
    with pytest.raises(StrucnetError, match="^row 3 has 1 entries, expected 2$"):
        PatternMatrix.from_tokens([["*", "0"], ["?", "*"], ["0"]])
    with pytest.raises(StrucnetError):
        PatternMatrix.from_tokens([[]])


def test_from_tokens_matches_per_token_parse():
    rng = np.random.default_rng(12)
    tokens = ["0", "*", "?"]
    for _ in range(50):
        rows, cols = rng.integers(1, 6, size=2)
        rows_of_tokens = [[tokens[v] for v in rng.integers(0, 3, size=cols)] for _ in range(rows)]
        expected = tuple(map(tuple, rows_of_tokens))
        assert dense(PatternMatrix.from_tokens(rows_of_tokens)) == expected
    # a row of "0" tokens and one "*" takes a shortcut; a bad token never does
    for bad, first in itertools.product((["x"], 0, None, " *", "**", True, 1.0), "?*0"):
        with pytest.raises(StrucnetError) as excinfo:
            PatternMatrix.from_tokens([["0", "*"], [first, bad]])
        assert str(excinfo.value) == (
            f"row 2, column 2: invalid pattern token {bad!r}, expected one of '0', '*', '?'"
        )


def test_outside_tokens_are_stored_as_the_shared_symbols():
    class Token(str):
        pass

    star, any_ = Token("*"), Token("?")
    from_tokens = PatternMatrix.from_tokens([[star, "0", any_], [Token("0"), star, "0"]])
    from_json = PatternMatrix.from_json(
        {"shape": [2, 3], "entries": [[1, 1, star], [1, 3, any_], [2, 2, star]]}
    )
    for m in (from_tokens, from_json):
        symbols = [symbol for _, _, symbol in m.nonzeros]
        assert len(symbols) == 3
        assert all(s is shared for s, shared in zip(symbols, (STAR, ANY, STAR)))


def test_load_pattern_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[[\"0\",")
    with pytest.raises(StrucnetError):
        load_pattern(path)


# Run with the demo network on stdin: reading fd 0 would parse it.
_FD_PROBE = """
import sys
from strucnet import load_network, load_pattern
for load in (load_pattern, load_network):
    try:
        load(0)
    except TypeError:
        print(load.__name__, "TypeError")
sys.stdout.write(sys.stdin.read())
"""


def test_loaders_reject_an_int_path_without_reading_stdin():
    text = NETWORK_FILE.read_text()
    proc = subprocess.run(
        [sys.executable, "-c", _FD_PROBE], input=text, capture_output=True, text=True,
        env=fresh_process_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "load_pattern TypeError\nload_network TypeError\n" + text


def _records() -> dict:
    """One instance of every record type, each built afresh from the demo network."""
    network = strucnet.load_network(NETWORK_FILE)
    report = analyze(network)
    check = report.network_check
    return {
        PatternMatrix: network.W,
        strucnet.PatternGraph: strucnet.build_graph(check.patterns[0]),
        strucnet.ColoringResult: check.plain,
        strucnet.NodeSystem: network.nodes[0],
        strucnet.StructuredNetwork: network,
        strucnet.SystemCheck: check,
        strucnet.AnalysisReport: report,
        AuditConfig: AuditConfig(trials=3, seed=1),
        AuditOutcome: AuditOutcome(trials_run=3, failures=1, first_failure=(2, "rank 7 < 12")),
    }


RECORD_TYPES = list(_records())


@pytest.mark.parametrize("kind", RECORD_TYPES, ids=lambda kind: kind.__name__)
def test_records_compare_hash_and_print_by_field(kind):
    first, second = _records()[kind], _records()[kind]
    assert isinstance(first, Record) and first is not second
    assert first == second and not first != second
    values = tuple(getattr(first, name) for name in kind.__match_args__)
    assert first != values and first != list(values)
    for other in _records().values():
        if type(other) is not kind:
            assert first != other and not first == other
    if kind is strucnet.AnalysisReport:  # node_checks is a list
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == hash(values)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(kind.__match_args__, values))
    assert repr(first) == f"{kind.__name__}({fields})"


@pytest.mark.parametrize("kind", RECORD_TYPES, ids=lambda kind: kind.__name__)
def test_frozen_records_refuse_assignment_and_deletion(kind):
    record = _records()[kind]
    before = {name: getattr(record, name) for name in kind.__match_args__}
    for name in (*kind.__match_args__, "not_a_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}$"):
            delattr(record, name)
    assert {name: getattr(record, name) for name in kind.__match_args__} == before


def test_record_constructors_keep_their_forms():
    assert repr(AuditConfig()) == "AuditConfig(trials=100, seed=0)"
    assert AuditOutcome() == AuditOutcome(0, 0, None)
    assert AuditOutcome(1, 1, (4, "rank 1 < 2")) == AuditOutcome(
        trials_run=1, failures=1, first_failure=(4, "rank 1 < 2")
    )
    coloring = strucnet.ColoringResult(forcing_sequence=((2, 1),), uncolored=frozenset())
    assert coloring.seeds == frozenset() and coloring.colorable
    assert repr(PatternMatrix.from_json({"shape": [1, 2], "entries": [[1, 2, "*"]]})) == (
        "PatternMatrix(cols=2, row_nonzeros=(((1, '*'),),))"
    )
    network = strucnet.load_network(NETWORK_FILE)
    rebuilt = strucnet.StructuredNetwork(nodes=list(network.nodes), W=network.W, H=network.H)
    assert type(rebuilt.nodes) is tuple and rebuilt == network
    assert weakref.ref(rebuilt)() is rebuilt
    # cached views land in the instance dict next to the fields
    matrix = network.W
    assert list(vars(matrix)) == ["cols", "row_nonzeros"]
    matrix.nonzeros
    assert list(vars(matrix)) == ["cols", "row_nonzeros", "nonzeros"]
    assert "to_dict" in vars(strucnet.AnalysisReport)
    assert "from_tokens" in vars(PatternMatrix)


def test_public_surface_is_pinned():
    assert sorted(strucnet.__all__) == [
        "ANY", "AnalysisReport", "AssumptionViolated", "ColoringResult", "NodeSystem",
        "PatternGraph", "PatternMatrix", "STAR", "StrucnetError",
        "StructuredNetwork", "SystemCheck", "ZERO", "analyze", "assemble",
        "build_graph", "check_structured_system", "color_change", "export_dot",
        "extract_topology", "is_full_row_rank", "is_network_controllable", "load_network",
        "load_pattern", "network_from_dict", "node_necessary_check",
        "topology_necessary_check", "validate", "weak_color_change",
    ]
    for name in strucnet.__all__:
        getattr(strucnet, name)
    for module in (strucnet, strucnet.pattern):
        assert not {"sym_add", "sym_mul", "SYMBOLS"} & set(vars(module)), module.__name__
    assert not hasattr(PatternMatrix, "from_text")
    with pytest.raises(TypeError):
        PatternMatrix([[STAR]])
    assert strucnet.NodeSystem.__match_args__ == ("A", "B", "C")
    assert not hasattr(strucnet.StructuredNetwork, "total_states")
