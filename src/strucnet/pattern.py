"""Pattern matrices over the symbol set {0, *, ?} and their algebra.

A pattern matrix fixes, for every entry, whether the corresponding real
entry is exactly zero ("0"), surely nonzero ("*"), or unconstrained ("?").
The set of real matrices consistent with a pattern is its pattern class.
Sums and products of pattern matrices are computed entrywise from the
three-symbol addition and multiplication tables so that the result is a
sound over-approximation of the sums/products of the underlying classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from operator import is_not
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionMismatch, PatternParseError

if TYPE_CHECKING:  # numpy is imported where it is used, so the symbolic path never loads it
    import numpy as np


class PatternSymbol(Enum):
    """One pattern entry: exactly zero, surely nonzero, or arbitrary."""

    ZERO = "0"
    STAR = "*"
    ANY = "?"

    @classmethod
    def from_token(cls, token: str) -> "PatternSymbol":
        try:
            return cls(token)
        except ValueError:
            raise PatternParseError(
                f"invalid pattern token {token!r}, expected one of '0', '*', '?'"
            ) from None

    @property
    def token(self) -> str:
        return self.value

    def __repr__(self) -> str:  # keeps printed grids readable in test output
        return f"<{self.value}>"


ZERO = PatternSymbol.ZERO
STAR = PatternSymbol.STAR
ANY = PatternSymbol.ANY

#: All three symbols, in a fixed order used by exhaustive sweeps.
SYMBOLS = (ZERO, STAR, ANY)

_SYMBOL_OF_TOKEN = {symbol.value: symbol for symbol in SYMBOLS}

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


def sym_add(a: PatternSymbol, b: PatternSymbol) -> PatternSymbol:
    """Add two pattern symbols."""
    return _ADD[(a, b)]


def sym_mul(a: PatternSymbol, b: PatternSymbol) -> PatternSymbol:
    """Multiply two pattern symbols."""
    return _MUL[(a, b)]


@dataclass(frozen=True)
class PatternMatrix:
    """Dense, immutable grid of pattern symbols."""

    entries: tuple[tuple[PatternSymbol, ...], ...]

    def __post_init__(self):
        grid = tuple(map(tuple, self.entries))
        if not grid or not grid[0]:
            raise DimensionMismatch("a pattern matrix needs at least one row and one column")
        width = len(grid[0])
        # each row's width and symbols are checked by C-level map/all; only
        # a failing row is scanned again to name the offending column
        for i, row in enumerate(grid):
            if len(row) != width:
                raise DimensionMismatch(
                    f"row {i + 1} has {len(row)} entries, expected {width}"
                )
            if not all(map(isinstance, row, repeat(PatternSymbol))):
                for j, entry in enumerate(row):
                    if not isinstance(entry, PatternSymbol):
                        raise PatternParseError(
                            f"row {i + 1}, column {j + 1}: {entry!r} is not a pattern symbol"
                        )
        object.__setattr__(self, "entries", grid)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @classmethod
    def from_tokens(cls, grid: Sequence[Sequence[str]]) -> "PatternMatrix":
        """Build from a grid of "0"/"*"/"?" tokens, as read from JSON.

        Rejects any other token with an error naming the 1-based position.
        """
        if not isinstance(grid, (list, tuple)):
            raise PatternParseError(f"expected a list of rows, got {type(grid).__name__}")
        rows = []
        for i, raw_row in enumerate(grid):
            if not isinstance(raw_row, (list, tuple)):
                raise PatternParseError(f"row {i + 1}: expected a list of tokens")
            try:
                rows.append(tuple(map(_SYMBOL_OF_TOKEN.__getitem__, raw_row)))
            except (KeyError, TypeError):  # an unknown or unhashable token
                row = []
                for j, token in enumerate(raw_row):
                    try:
                        row.append(PatternSymbol.from_token(token))
                    except PatternParseError as exc:
                        raise PatternParseError(f"row {i + 1}, column {j + 1}: {exc}") from None
                rows.append(tuple(row))
        return cls(tuple(rows))

    @classmethod
    def from_text(cls, text: str) -> "PatternMatrix":
        """Build from whitespace-separated tokens, one matrix row per line."""
        grid = [line.split() for line in text.strip().splitlines() if line.strip()]
        return cls.from_tokens(grid)

    @classmethod
    def filled(cls, rows: int, cols: int, symbol: PatternSymbol) -> "PatternMatrix":
        return cls(tuple(tuple(symbol for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PatternMatrix":
        return cls.filled(rows, cols, ZERO)

    def to_tokens(self) -> list[list[str]]:
        return [[entry.token for entry in row] for row in self.entries]

    @cached_property
    def nonzeros(self) -> tuple[tuple[int, int, PatternSymbol], ...]:
        """(i, j, symbol) of every nonzero entry, 0-based and row-major.

        Listed on first use and kept, since the matrix is immutable; all-zero
        rows are skipped by a C-level count.
        """
        width = self.cols
        return tuple(
            (i, j, symbol)
            for i, row in enumerate(self.entries)
            if row.count(ZERO) != width
            for j, symbol in compress(enumerate(row), map(is_not, row, repeat(ZERO)))
        )

    def to_sparse(self) -> dict:
        """Shape plus the nonzeros as 1-based [row, column, token], row-major."""
        return {
            "shape": [self.rows, self.cols],
            "entries": [[i + 1, j + 1, symbol.value] for i, j, symbol in self.nonzeros],
        }

    def __getitem__(self, key: tuple[int, int]) -> PatternSymbol:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[PatternSymbol, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[PatternSymbol, ...]:
        return tuple(row[j] for row in self.entries)

    def submatrix(self, row_start: int, row_stop: int, col_start: int, col_stop: int) -> "PatternMatrix":
        return PatternMatrix(
            tuple(row[col_start:col_stop] for row in self.entries[row_start:row_stop])
        )

    def with_entry(self, i: int, j: int, symbol: PatternSymbol) -> "PatternMatrix":
        """Copy with entry (i, j) replaced."""
        rows = [list(row) for row in self.entries]
        rows[i][j] = symbol
        return PatternMatrix(tuple(tuple(row) for row in rows))

    def count(self, symbol: PatternSymbol) -> int:
        return sum(row.count(symbol) for row in self.entries)

    def __add__(self, other: "PatternMatrix") -> "PatternMatrix":
        return pat_add(self, other)

    def __matmul__(self, other: "PatternMatrix") -> "PatternMatrix":
        return pat_mul(self, other)

    def __str__(self) -> str:
        return "\n".join(" ".join(entry.token for entry in row) for row in self.entries)


def pat_add(m: PatternMatrix, n: PatternMatrix) -> PatternMatrix:
    """Entrywise sum of two equally sized pattern matrices."""
    if m.shape != n.shape:
        raise DimensionMismatch(f"cannot add patterns of shapes {m.shape} and {n.shape}")
    # the rule of sym_add: '0' is the identity, two nonzero terms give '?'
    return PatternMatrix(
        tuple(
            tuple(a if b is ZERO else b if a is ZERO else ANY for a, b in zip(mrow, nrow))
            for mrow, nrow in zip(m.entries, n.entries)
        )
    )


def pat_mul(m: PatternMatrix, n: PatternMatrix) -> PatternMatrix:
    """Pattern product: entry (i, j) is the sym_add fold of m[i, k] * n[k, j].

    Only nonzero terms are folded, since '0' is the additive identity: each
    nonzero m[i, k] meets the nonzeros of row k of n, listed once. The
    first nonzero term of an entry is its sym_mul product and a second one
    makes it '?', because any sum of two nonzero symbols is '?'. The cost
    is one scan of m and of n, the nonzero products, and the output size.
    """
    if m.cols != n.rows:
        raise DimensionMismatch(
            f"cannot multiply patterns of shapes {m.shape} and {n.shape}"
        )
    n_nonzeros = [
        [(j, b) for j, b in enumerate(nrow) if b is not ZERO] for nrow in n.entries
    ]
    out = []
    for mrow in m.entries:
        acc = [ZERO] * n.cols
        for a, nonzeros in zip(mrow, n_nonzeros):
            if a is ZERO:
                continue
            for j, b in nonzeros:
                acc[j] = sym_mul(a, b) if acc[j] is ZERO else ANY
        out.append(tuple(acc))
    return PatternMatrix(tuple(out))


def pat_identity(n: int) -> PatternMatrix:
    """The n-by-n pattern with '*' on the diagonal and '0' elsewhere."""
    if n < 1:
        raise DimensionMismatch(f"identity size must be positive, got {n}")
    return PatternMatrix(
        tuple(tuple(STAR if i == j else ZERO for j in range(n)) for i in range(n))
    )


def pat_shift(m: PatternMatrix) -> PatternMatrix:
    """m + [I 0]: the identity added to the leading square block of m.

    Only the diagonal changes, by the rule of sym_add with '*': '0' becomes
    '*' and a nonzero entry becomes '?'. Defined for m.rows <= m.cols, so
    the shift of [a b] with square a is [a+I b].
    """
    if m.rows > m.cols:
        raise DimensionMismatch(f"cannot shift a pattern with more rows than columns, got {m.shape}")
    return PatternMatrix(
        tuple(
            row[:i] + (STAR if row[i] is ZERO else ANY,) + row[i + 1 :]
            for i, row in enumerate(m.entries)
        )
    )


def is_member(values: np.ndarray, m: PatternMatrix) -> bool:
    """True iff the numeric matrix lies in the pattern class of m.

    Zero entries must be exactly 0, star entries exactly nonzero; '?'
    entries are unconstrained.
    """
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.shape != m.shape:
        raise DimensionMismatch(
            f"value grid has shape {values.shape}, pattern has shape {m.shape}"
        )
    for i in range(m.rows):
        for j in range(m.cols):
            symbol = m.entries[i][j]
            if symbol is ZERO and values[i, j] != 0.0:
                return False
            if symbol is STAR and values[i, j] == 0.0:
                return False
    return True


# Sampler constants. Star entries are kept away from zero so that numeric
# rank checks on sampled realizations do not wobble; '?' entries hit exact
# zero with positive probability so that both sides of the class are seen.
_STAR_MAG_LOW = 0.5
_STAR_MAG_HIGH = 2.0
_ANY_LOW = -2.0
_ANY_HIGH = 2.0
_ANY_ZERO_PROB = 0.25


def sample_realization(m: PatternMatrix, seed) -> np.ndarray:
    """Draw one numeric matrix from the pattern class of m.

    Deterministic for a fixed integer seed; also accepts a numpy Generator
    so callers can thread their own stream. Star entries get magnitude in
    [0.5, 2.0] with a random sign; '?' entries are 0 with probability 0.25
    and otherwise uniform on [-2, 2].

    The nonzeros are visited row-major and each takes the next doubles of
    the stream: a star its magnitude then its sign, a '?' its zero test
    then, unless that sets it to 0, its value. The doubles are drawn in
    bulk, never more than the entries still to come take at least, so the
    matrix and the Generator's end state equal those of one scalar draw
    per double (uniform(low, high) is low + (high - low) * random()).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    values = np.zeros(m.shape)
    nonzeros = m.nonzeros
    if not nonzeros:
        return values
    # doubles still to draw at least: two per star, one per '?'
    owed = len(nonzeros) + sum(symbol is STAR for _, _, symbol in nonzeros)
    draws = rng.random(owed).tolist()
    pos = 0
    out = []
    for _, _, symbol in nonzeros:
        need = 2 if symbol is STAR else 1
        if pos + need > len(draws):  # earlier '?' entries took a second double
            draws += rng.random(owed - (len(draws) - pos)).tolist()
        first = draws[pos]
        pos += need
        owed -= need
        if symbol is STAR:
            magnitude = _STAR_MAG_LOW + (_STAR_MAG_HIGH - _STAR_MAG_LOW) * first
            out.append(magnitude if draws[pos - 1] < 0.5 else -magnitude)
        elif first < _ANY_ZERO_PROB:
            out.append(0.0)
        else:
            if pos == len(draws):
                draws += rng.random(owed + 1).tolist()
            out.append(_ANY_LOW + (_ANY_HIGH - _ANY_LOW) * draws[pos])
            pos += 1
    rows, cols, _ = zip(*nonzeros)
    values[rows, cols] = out
    return values


def hstack(m: PatternMatrix, n: PatternMatrix) -> PatternMatrix:
    """Place two patterns side by side."""
    if m.rows != n.rows:
        raise DimensionMismatch(
            f"cannot hstack patterns with {m.rows} and {n.rows} rows"
        )
    return PatternMatrix(tuple(mrow + nrow for mrow, nrow in zip(m.entries, n.entries)))


def block_diag(blocks: Sequence[PatternMatrix]) -> PatternMatrix:
    """Block-diagonal pattern with zero off-diagonal blocks."""
    blocks = list(blocks)
    if not blocks:
        raise DimensionMismatch("block_diag needs at least one block")
    total_rows = sum(b.rows for b in blocks)
    total_cols = sum(b.cols for b in blocks)
    grid = [[ZERO] * total_cols for _ in range(total_rows)]
    row_off = col_off = 0
    for block in blocks:
        for i in range(block.rows):
            for j in range(block.cols):
                grid[row_off + i][col_off + j] = block.entries[i][j]
        row_off += block.rows
        col_off += block.cols
    return PatternMatrix(tuple(tuple(row) for row in grid))


def read_json(path, error: type[ValueError]):
    """Parse a UTF-8 JSON file; undecodable or over-nested text raises error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None


def load_pattern(path) -> PatternMatrix:
    """Read a pattern matrix from a JSON file of token grids."""
    return PatternMatrix.from_tokens(read_json(path, PatternParseError))
