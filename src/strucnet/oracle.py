"""Numeric sampling audit of the symbolic network verdict.

Sampling one realization at a time can never certify a strong structural
property, so the audit is a consistency check, not a proof: when a
network is certified controllable, every sampled realization must pass
the Kalman rank test. A failure is a defect (or the fixed rank threshold
misjudging one realization), never new information about the pattern
class. This module imports numpy; `import strucnet` does not load it.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import NumericBreakdown, StrucnetError
from .network import StructuredNetwork, validate
from .pattern import STAR, Record, _realization_values


#: A singular value counts toward the numeric rank when it exceeds this
#: share of the largest one.
RANK_TOLERANCE = 1e-8

#: Trials run in chunks whose stacked arrays take about this many bytes
#: (see _ChunkSampler); a chunk holds at least one trial, so a network
#: too large for two gets one trial per chunk, as without chunks.
_CHUNK_BYTES = 1 << 19

#: The most bytes one trial's arrays (see _ChunkSampler) may take. A larger
#: network is refused before anything of that size is allocated: an
#: allocation the system grants but cannot back may end in an out-of-memory
#: kill rather than a MemoryError. 1 GiB admits up to 4,095 states of
#: one-state nodes with one external input.
MAX_TRIAL_BYTES = 1 << 30


class AuditConfig(Record):
    """Trial count and base seed of an audit run."""

    __match_args__ = ("trials", "seed")

    def __init__(self, trials: int = 100, seed: int = 0):
        for name, value in (("trials", trials), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise StrucnetError(f"{name} must be an int, got {value!r}")
        if trials < 1:
            raise StrucnetError(f"trials must be >= 1, got {trials}")
        if seed < 0:
            raise StrucnetError(f"seed must be non-negative, got {seed}")
        self.__dict__.update(trials=trials, seed=seed)


class AuditOutcome(Record):
    """Counters from an audit run; first_failure keeps the earliest witness."""

    __match_args__ = ("trials_run", "failures", "first_failure")

    def __init__(
        self, trials_run: int = 0, failures: int = 0, first_failure: tuple[int, str] | None = None
    ):
        self.__dict__.update(trials_run=trials_run, failures=failures, first_failure=first_failure)

    def to_dict(self) -> dict:
        return {
            "trials_run": self.trials_run,
            "failures": self.failures,
            "first_failure": (
                None
                if self.first_failure is None
                else {"trial": self.first_failure[0], "detail": self.first_failure[1]}
            ),
        }


def _controllability_rank(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Numeric rank of [B, AB, ..., A^(n-1) B] with per-column normalization.

    Normalizing the columns keeps the powers of A from drowning the early
    blocks, which matters once n grows past a handful of states. The rank
    is the number of singular values above RANK_TOLERANCE relative to the
    largest. a and b may be stacks (..., n, n) and (..., n, m) of pairs;
    the result holds one rank per pair, and a single pair gives one integer.
    """
    n = a.shape[-1]
    blocks = [b]
    current = b
    for _ in range(n - 1):
        current = a @ current
        blocks.append(current)
    ctrb = np.concatenate(blocks, axis=-1)
    norms = np.linalg.norm(ctrb, axis=-2, keepdims=True)
    np.divide(ctrb, norms, out=ctrb, where=norms > 0.0)
    sigma = np.linalg.svd(ctrb, compute_uv=False)
    return np.count_nonzero(sigma > RANK_TOLERANCE * sigma[..., :1], axis=-1)


class _ChunkSampler:
    """Draws the realizations of a network's A_blk, B_blk, C_blk, W and H for a run of trials.

    All trials share one stream, default_rng(seed), and each takes a fixed
    segment of it: with K the nonzeros of the five patterns together, trial
    t takes doubles t * 2K to (t + 1) * 2K - 1, two per nonzero. A chunk
    jumps to its first trial's segment with bit_generator.advance (each
    double is one PCG64 step) and draws its trials' segments in one call,
    so a trial's values do not depend on the chunks or on the trial count.
    The nonzeros take them pattern by pattern and row-major within each,
    the stream of five sample_realization calls on that generator. The
    values of all trials are then mapped and scattered at once into one
    zero buffer, of which each pattern's stack of matrices is a view.

    per_chunk is how many trials one chunk evaluates: as many as
    _CHUNK_BYTES holds, at least one. A trial's share is its sampled
    patterns plus twice the n x nm Kalman matrix and the n x n state
    matrix (the Krylov blocks and their concatenation); numpy's and
    LAPACK's scratch space comes on top. A network whose share exceeds
    MAX_TRIAL_BYTES raises NumericBreakdown before its nonzeros are read.
    """

    def __init__(self, network: StructuredNetwork):
        patterns = (network.A_blk, network.B_blk, network.C_blk, network.W, network.H)
        self.shapes = [p.shape for p in patterns]
        self.offsets = list(accumulate((rows * cols for rows, cols in self.shapes), initial=0))
        n, m = network.A_blk.rows, network.H.cols
        trial_bytes = 8 * (self.offsets[-1] + 2 * n * n * (m + 1))
        if trial_bytes > MAX_TRIAL_BYTES:
            raise NumericBreakdown(
                f"audit refused: one trial of {n} states needs {trial_bytes} bytes, "
                f"above the limit of {MAX_TRIAL_BYTES}"
            )
        self.per_chunk = max(1, _CHUNK_BYTES // trial_bytes)
        flat, star = [], []
        for p, base in zip(patterns, self.offsets):
            for i, j, symbol in p.nonzeros:
                flat.append(base + i * p.cols + j)
                star.append(symbol is STAR)
        self.flat = np.array(flat, dtype=np.intp)
        self.star = np.array(star, dtype=bool)

    def sample(self, seed: int, trials: range) -> list[np.ndarray]:
        """The stacked realizations, one (len(trials), rows, cols) array per pattern."""
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(trials.start * 2 * len(self.flat))
        draws = rng.random((len(trials), 2 * len(self.flat)))
        buffer = np.zeros((len(trials), self.offsets[-1]))
        buffer[:, self.flat] = _realization_values(self.star, draws[:, 0::2], draws[:, 1::2])
        return [
            buffer[:, start:stop].reshape(len(trials), *shape)
            for start, stop, shape in zip(self.offsets, self.offsets[1:], self.shapes)
        ]


def _ranks(sampler: _ChunkSampler, cfg: AuditConfig, trials: range, n: int) -> list[int]:
    """Controllability rank of each trial's A + B W C and B H in one chunk. A numeric
    breakdown reruns the chunk trial by trial, so the error names the trial that breaks down."""
    try:
        a, b, c, w, h = sampler.sample(cfg.seed, trials)
        return _controllability_rank(a + b @ w @ c, b @ h).tolist()
    except np.linalg.LinAlgError as exc:
        if len(trials) == 1:
            raise NumericBreakdown(
                f"numeric breakdown in trial {trials[0]} (seed {cfg.seed}): {exc}"
            ) from None
    except MemoryError:
        raise NumericBreakdown(
            f"out of memory in trial {trials[0]} (seed {cfg.seed}) for {n} x {n} realizations"
        ) from None
    return [rank for trial in trials for rank in _ranks(sampler, cfg, range(trial, trial + 1), n)]


def audit_network(network: StructuredNetwork, cfg: AuditConfig) -> AuditOutcome:
    """Sample full network realizations and run the Kalman test on each.

    Each trial draws A, B, C, W, H from their pattern classes, taking its
    own fixed segment of the one stream default_rng(cfg.seed) (see
    _ChunkSampler), forms A + B W C and B H numerically, and tests
    controllability. The block patterns are the ones the network
    keeps for the symbolic verdict. Trials are independent, so the outcome
    does not depend on execution order: they run in chunks of stacked
    arrays (see _CHUNK_BYTES) and give the outcome of one trial at a time.
    A trial whose rank computation fails raises NumericBreakdown naming
    that trial; arrays that cannot be allocated raise it naming the first
    trial of their chunk, and a network whose trial would take more than
    MAX_TRIAL_BYTES raises it naming the states and bytes, before sampling.
    """
    validate(network)
    n = network.A_blk.rows
    sampler = _ChunkSampler(network)
    failed: list[tuple[int, int]] = []  # (trial, rank) of each trial below full rank
    for start in range(0, cfg.trials, sampler.per_chunk):
        trials = range(start, min(start + sampler.per_chunk, cfg.trials))
        ranks = _ranks(sampler, cfg, trials, n)
        failed += [(trial, rank) for trial, rank in zip(trials, ranks) if rank < n]
    if not failed:
        return AuditOutcome(cfg.trials)
    trial, rank = failed[0]
    return AuditOutcome(cfg.trials, len(failed), (trial, f"controllability rank {rank} < {n}"))
