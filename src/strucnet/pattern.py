"""Pattern matrices over the symbol set {0, *, ?} and their algebra.

A pattern matrix fixes, for every entry, whether the corresponding real
entry is exactly zero ("0"), surely nonzero ("*"), or unconstrained ("?").
The set of real matrices consistent with a pattern is its pattern class.
Sums and products of pattern matrices follow the three-symbol addition
and multiplication rules entrywise, so that the result is a sound
over-approximation of the sums/products of the underlying classes. A
pattern is stored as the nonzeros of each row, and the algebra touches
only those.

An entry is its token: ZERO, STAR and ANY are the strings "0", "*" and
"?". Every stored symbol is STAR or ANY itself, so the algebra compares
them by identity, and a row holds only ints and strings, which the
cyclic collector stops tracking.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import repeat
from operator import itemgetter

from .errors import StrucnetError

# numpy is imported inside the functions that use it, so the symbolic path
# never loads it; the np.ndarray annotations stay unevaluated strings.

ZERO = "0"
STAR = "*"
ANY = "?"

# maps a nonzero token from outside, or any str equal to it, onto the shared symbol
_SYMBOL_OF_TOKEN = {"*": STAR, "?": ANY}


class Record:
    """An immutable record of the fields that __match_args__ names, in that order.

    Records compare equal when they are of the same class and their fields
    are equal, hash by their fields, and their repr lists the fields. A
    field cannot be assigned or deleted: __init__ fills the instance
    __dict__ directly, and functools.cached_property stores its values
    there too, so cached views still work.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PatternMatrix(Record):
    """Immutable pattern matrix, stored as the sorted nonzeros of each row.

    cols is the column count; row_nonzeros holds, for each row, the
    (column, symbol) pairs of its nonzero entries, with 0-based columns in
    strictly increasing order and symbols STAR or ANY themselves, not
    merely equal strings. Every entry not listed is '0'. Equality and
    hashing use this form, and the algebra below works on it in time
    linear in the nonzeros; no dense grid is kept.

    Outside input comes in through one checked reader per JSON form:
    from_tokens reads a token grid and from_json the sparse object (it
    hands a grid to from_tokens). Both readers, zeros and the algebra
    build their rows in order and in range, as tuples, and wrap them
    unchecked through _trusted, which keeps the row objects. There is no
    public __init__: calling PatternMatrix(...) raises TypeError.
    """

    __match_args__ = ("cols", "row_nonzeros")
    cols: int
    row_nonzeros: tuple[tuple[tuple[int, str], ...], ...]

    @classmethod
    def _trusted(cls, cols: int, rows: Iterable[tuple]) -> "PatternMatrix":
        """Wrap tuple rows the library built, valid by construction, as given and unchecked."""
        matrix = object.__new__(cls)
        matrix.__dict__.update(cols=cols, row_nonzeros=tuple(rows))
        return matrix

    @property
    def rows(self) -> int:
        return len(self.row_nonzeros)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @classmethod
    def from_tokens(cls, grid: Sequence[Sequence[str]]) -> "PatternMatrix":
        """Build from a grid of "0"/"*"/"?" tokens, as read from JSON.

        Rejects any other token with an error naming the 1-based position.
        One pass over the tokens lists each row's nonzeros.
        """
        if not isinstance(grid, (list, tuple)):
            raise StrucnetError(f"expected a list of rows, got {type(grid).__name__}")
        rows = []
        widths = []
        for i, raw_row in enumerate(grid):
            if not isinstance(raw_row, (list, tuple)):
                raise StrucnetError(f"row {i + 1}: expected a list of tokens")
            widths.append(len(raw_row))
            zeros = raw_row.count("0")
            if zeros == len(raw_row):
                rows.append(())
                continue
            if zeros == len(raw_row) - 1 and "*" in raw_row:  # one '*', found in C
                rows.append(((raw_row.index("*"), STAR),))
                continue
            # only the tokens other than "0" are looked up; a failing row is
            # scanned again to name its column
            try:
                rows.append(
                    tuple([(j, _SYMBOL_OF_TOKEN[t]) for j, t in enumerate(raw_row) if t != "0"])
                )
            except (KeyError, TypeError):  # an unknown or unhashable token
                for j, token in enumerate(raw_row):
                    if token != "0" and not (isinstance(token, str) and token in _SYMBOL_OF_TOKEN):
                        raise StrucnetError(
                            f"row {i + 1}, column {j + 1}: invalid pattern token {token!r}, "
                            "expected one of '0', '*', '?'"
                        ) from None
                raise
        if not widths or not widths[0]:
            raise StrucnetError("a pattern matrix needs at least one row and one column")
        for i, width in enumerate(widths):
            if width != widths[0]:
                raise StrucnetError(f"row {i + 1} has {width} entries, expected {widths[0]}")
        return cls._trusted(widths[0], rows)

    @classmethod
    def from_json(cls, obj) -> "PatternMatrix":
        """Build from either JSON form of a pattern.

        A list is a grid of token rows (from_tokens). An object is the
        sparse form that `check --json` writes,
        {"shape": [r, c], "entries": [[i, j, token], ...]}: 1-based
        positions in any order, each at most once, tokens '*' or '?', every
        position not listed '0'. An entry may also be a tuple, as to_sparse
        gives it.

        Each entry is checked once, in list order, for its form, range and
        token, and the first bad one is named by its index. Then each row
        is sorted, and the first position listed twice, in row-major
        order, is named by its 1-based row and column.
        """
        if not isinstance(obj, dict):
            return cls.from_tokens(obj)
        for key in ("shape", "entries"):
            if key not in obj:
                raise StrucnetError(f"sparse pattern is missing key {key!r}")
        shape, entries = obj["shape"], obj["entries"]
        if not (
            isinstance(shape, list)
            and len(shape) == 2
            and all(type(size) is int and size > 0 for size in shape)
        ):
            raise StrucnetError(f"'shape' must be two positive integers, got {shape!r}")
        num_rows, cols = shape
        if max(shape) > MAX_SPARSE_SIZE:
            raise StrucnetError(
                f"'shape' {shape} exceeds the limit of {MAX_SPARSE_SIZE} rows or columns"
            )
        if not isinstance(entries, list):
            raise StrucnetError(f"'entries' must be a list, got {type(entries).__name__}")
        by_row: dict[int, list[tuple[int, str]]] = {}
        for k, entry in enumerate(entries):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise StrucnetError(
                    f"entries[{k}]: expected [row, column, token], got {entry!r}"
                )
            i, j, token = entry
            if type(i) is not int or type(j) is not int:
                raise StrucnetError(
                    f"entries[{k}]: row and column must be integers, got {entry!r}"
                )
            if not (1 <= i <= num_rows and 1 <= j <= cols):
                raise StrucnetError(
                    f"entries[{k}]: position ({i}, {j}) is outside the shape {shape}"
                )
            symbol = _SYMBOL_OF_TOKEN.get(token) if isinstance(token, str) else None
            if symbol is None:
                raise StrucnetError(
                    f"entries[{k}]: invalid pattern token {token!r}, expected '*' or '?'"
                )
            by_row.setdefault(i - 1, []).append((j - 1, symbol))
        rows: list = [()] * num_rows  # rows without an entry share the empty tuple
        for i in sorted(by_row):  # row-major, so the first repeated position is named
            row = rows[i] = tuple(sorted(by_row[i], key=itemgetter(0)))
            if len(dict(row)) < len(row):
                j = next(a for (a, _), (b, _) in zip(row, row[1:]) if a == b)
                raise StrucnetError(f"row {i + 1}, column {j + 1} appears twice")
        return cls._trusted(cols, rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PatternMatrix":
        if type(rows) is not int or rows < 1 or type(cols) is not int or cols < 1:
            raise StrucnetError("a pattern matrix needs at least one row and one column")
        return cls._trusted(cols, repeat((), rows))

    @cached_property
    def nonzeros(self) -> tuple[tuple[int, int, str], ...]:
        """(i, j, symbol) of every nonzero entry, 0-based and row-major."""
        return tuple(
            (i, j, symbol) for i, row in enumerate(self.row_nonzeros) for j, symbol in row
        )

    def to_sparse(self) -> dict:
        """Shape plus the nonzeros as 1-based (row, column, token) tuples, row-major.

        json writes the tuples as arrays, and from_json reads either.
        """
        return {
            "shape": [self.rows, self.cols],
            "entries": [
                (i, j + 1, s) for i, row in enumerate(self.row_nonzeros, start=1) for j, s in row
            ],
        }


#: Largest row or column count a sparse pattern object may declare, and
#: the most rows, and columns, that the matrices of one network file may
#: have together. Sparse rows are stored one by one, so the declared
#: shapes, not the file size, set the memory a sparse file takes.
MAX_SPARSE_SIZE = 10**6


def pat_add(m: PatternMatrix, n: PatternMatrix) -> PatternMatrix:
    """Entrywise sum of two equally sized pattern matrices.

    Row by row, the nonzeros of both are merged: a column in one row keeps
    its symbol and a column in both rows becomes '?', since two nonzero
    terms may cancel.
    """
    if m.shape != n.shape:
        raise StrucnetError(f"cannot add patterns of shapes {m.shape} and {n.shape}")
    rows = []
    for mrow, nrow in zip(m.row_nonzeros, n.row_nonzeros):
        if not nrow or not mrow:
            rows.append(mrow or nrow)
            continue
        merged = dict(mrow)
        for j, symbol in nrow:
            merged[j] = ANY if j in merged else symbol
        rows.append(tuple(sorted(merged.items())))
    return PatternMatrix._trusted(m.cols, rows)


def pat_mul(m: PatternMatrix, n: PatternMatrix) -> PatternMatrix:
    """Pattern product: entry (i, j) sums the terms m[i, k] * n[k, j].

    Only nonzero terms count, since '0' is the additive identity: each
    nonzero (k, a) of row i of m meets the nonzeros of row k of n. A term
    is '*' when both factors are '*' and '?' otherwise; the first nonzero
    term of an entry is its value and a second one makes it '?', because
    two nonzero terms may cancel. The cost is the nonzero products plus
    one step per row.
    """
    if m.cols != n.rows:
        raise StrucnetError(
            f"cannot multiply patterns of shapes {m.shape} and {n.shape}"
        )
    right = n.row_nonzeros
    rows = []
    for row in m.row_nonzeros:
        if not row:  # no term: the empty row itself
            rows.append(row)
            continue
        if len(row) == 1:  # one term: row k of n, scaled by a
            k, a = row[0]
            rows.append(right[k] if a is STAR else tuple((j, ANY) for j, _ in right[k]))
            continue
        acc: dict[int, str] = {}
        for k, a in row:
            for j, b in right[k]:
                acc[j] = ANY if j in acc or a is ANY else b
        rows.append(tuple(sorted(acc.items())))
    return PatternMatrix._trusted(n.cols, rows)


def pat_shift(m: PatternMatrix) -> PatternMatrix:
    """m + [I 0]: the identity added to the leading square block of m.

    Only the diagonal changes, as the sum rule gives for an added '*': '0'
    becomes '*' and a nonzero entry becomes '?'. Each row rewrites or
    inserts its one diagonal pair. Defined for m.rows <= m.cols, so the
    shift of [a b] with square a is [a+I b].
    """
    if m.rows > m.cols:
        raise StrucnetError(f"cannot shift a pattern with more rows than columns, got {m.shape}")
    rows = []
    for i, row in enumerate(m.row_nonzeros):
        k = bisect_left(row, (i,))  # (i,) sorts before (i, symbol): no symbols are compared
        shifted = list(row)
        if k < len(row) and row[k][0] == i:
            shifted[k] = (i, ANY)
        else:
            shifted.insert(k, (i, STAR))
        rows.append(tuple(shifted))
    return PatternMatrix._trusted(m.cols, rows)


# Sampler constants. Star entries are kept away from zero so that numeric
# rank checks on sampled realizations do not wobble; '?' entries hit exact
# zero with positive probability so that both sides of the class are seen.
_STAR_MAG_LOW = 0.5
_STAR_MAG_HIGH = 2.0
_ANY_LOW = -2.0
_ANY_HIGH = 2.0
_ANY_ZERO_PROB = 0.25


def _realization_values(star, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The values that nonzeros take from their two doubles, elementwise.

    star marks the '*' nonzeros (the rest are '?'); first and second hold
    each nonzero's two doubles and may carry leading axes, over which star
    broadcasts. This is the one value rule of every sampler.
    """
    import numpy as np

    magnitude = _STAR_MAG_LOW + (_STAR_MAG_HIGH - _STAR_MAG_LOW) * first
    star_values = np.where(second < 0.5, magnitude, -magnitude)
    any_values = np.where(first < _ANY_ZERO_PROB, 0.0, _ANY_LOW + (_ANY_HIGH - _ANY_LOW) * second)
    return np.where(star, star_values, any_values)


def sample_realization(m: PatternMatrix, seed) -> np.ndarray:
    """Draw one numeric matrix from the pattern class of m.

    Deterministic for a fixed integer seed; also accepts a numpy Generator
    so callers can thread their own stream. Star entries get magnitude in
    [0.5, 2.0] with a random sign; '?' entries are 0 with probability 0.25
    and otherwise uniform on [-2, 2].

    One call draws two doubles per nonzero, and the nonzeros take them in
    row-major order. A star's first double sets its magnitude and its
    second its sign (negative from 0.5 up); a '?' is 0 when its first
    double is below 0.25 and otherwise takes its value from the second.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    values = np.zeros(m.shape)
    nonzeros = m.nonzeros
    if not nonzeros:
        return values
    rows, cols, symbols = zip(*nonzeros)
    draws = rng.random(2 * len(nonzeros))
    values[rows, cols] = _realization_values([s is STAR for s in symbols], draws[0::2], draws[1::2])
    return values


def hstack(m: PatternMatrix, n: PatternMatrix) -> PatternMatrix:
    """Place two patterns side by side."""
    if m.rows != n.rows:
        raise StrucnetError(
            f"cannot hstack patterns with {m.rows} and {n.rows} rows"
        )
    by = m.cols
    return PatternMatrix._trusted(
        by + n.cols,
        (
            mrow + tuple([(j + by, symbol) for j, symbol in nrow]) if nrow else mrow
            for mrow, nrow in zip(m.row_nonzeros, n.row_nonzeros)
        ),
    )


def block_diag(blocks: Sequence[PatternMatrix]) -> PatternMatrix:
    """Block-diagonal pattern; the first block's rows and empty rows are shared, not copied."""
    blocks = list(blocks)
    if not blocks:
        raise StrucnetError("block_diag needs at least one block")
    rows = list(blocks[0].row_nonzeros)
    col_off = blocks[0].cols
    for block in blocks[1:]:
        rows.extend(
            [tuple([(j + col_off, s) for j, s in row]) if row else row for row in block.row_nonzeros]
        )
        col_off += block.cols
    return PatternMatrix._trusted(col_off, rows)


def read_json(path):
    """Parse a UTF-8 JSON file; bad text, an over-long integer or deep nesting raises StrucnetError.

    path is opened as given. An int raises TypeError: it is never read as
    a file descriptor.
    """
    try:
        with open(os.fspath(path), encoding="utf-8") as fh:
            return json.loads(fh.read())
    except (ValueError, RecursionError) as exc:
        raise StrucnetError(f"{path}: not valid JSON: {exc}") from None


def load_pattern(path) -> PatternMatrix:
    """Read a pattern matrix from a JSON file, as a token grid or in sparse form."""
    return PatternMatrix.from_json(read_json(path))
