"""Machine-speed probe: a fixed pure-Python computation timed next to each verdict.

On a shared virtual machine the same interpreter-bound code runs at
speeds that differ by up to about 1.9x for seconds to tens of seconds at
a time (another tenant's load on the same physical core). Both strucnet
and this probe slow down by nearly the same factor, so the benchmark
scales every measured time by REF_NS / (probe time around it): the result
is the time the work would take at the speed where the probe takes
REF_NS. The probe is a small product over a three-member Enum, the
idiom of the interpreter-bound code it gauges (dict lookups keyed on
tuples of Enum members, tuple building); it never touches strucnet, so a
change to strucnet cannot change it.
"""

from __future__ import annotations

import enum
import time

REF_NS = 1_500_000  # probe time in the fast phase of a 2-vCPU x86-64 VM at 2.1 GHz


class _Sym(enum.Enum):
    ZERO = "0"
    STAR = "*"
    ANY = "?"


_SYMS = tuple(_Sym)
_Z, _S, _A = _SYMS
_ADD = {(a, b): (b if a is _Z else a if b is _Z else _A) for a in _SYMS for b in _SYMS}
_MUL = {(a, b): (_Z if _Z in (a, b) else _S if a is b is _S else _A) for a in _SYMS for b in _SYMS}
_SIZE = 14
_LEFT = tuple(tuple(_SYMS[(3 * i + 5 * j) % 7 % 3] for j in range(_SIZE)) for i in range(_SIZE))
_RIGHT_COLS = tuple(tuple(_SYMS[(2 * i + j) % 5 % 3] for i in range(_SIZE)) for j in range(_SIZE))


def _work() -> list:
    out = []
    for row in _LEFT:
        acc_row = []
        for col in _RIGHT_COLS:
            acc = _Z
            for a, b in zip(row, col):
                acc = _ADD[(acc, _MUL[(a, b)])]
            acc_row.append(acc)
        out.append(tuple(acc_row))
    return out


def measure() -> int:
    """Nanoseconds for one run of the fixed computation."""
    start = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - start
