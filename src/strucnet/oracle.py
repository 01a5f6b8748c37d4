"""Numeric sampling audit of the symbolic network verdict.

Sampling one realization at a time can never certify a strong structural
property, so the audit is a consistency check, not a proof: when a
network is certified controllable, every sampled realization must pass
the Kalman rank test. A failure is a defect (or the fixed rank threshold
misjudging one realization), never new information about the pattern
class. This module imports numpy; `import strucnet` does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericBreakdown
from .network import StructuredNetwork, require_valid
from .pattern import sample_realization


#: A singular value counts toward the numeric rank when it exceeds this
#: share of the largest one.
RANK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class AuditConfig:
    """Trial count and base seed of an audit run."""

    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class AuditOutcome:
    """Counters from an audit run; first_failure keeps the earliest witness."""

    trials_run: int = 0
    failures: int = 0
    first_failure: tuple[int, str] | None = None

    def record(self, trial: int, failure: str | None):
        self.trials_run += 1
        if failure is not None:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = (trial, failure)

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


def _numeric_rank(matrix: np.ndarray) -> int:
    """Rank as the number of singular values above RANK_TOLERANCE relative to the largest."""
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > RANK_TOLERANCE * sigma[0]))


def _controllability_rank(a: np.ndarray, b: np.ndarray) -> int:
    """Numeric rank of [B, AB, ..., A^(n-1) B] with per-column normalization.

    Normalizing the columns keeps the powers of A from drowning the early
    blocks, which matters once n grows past a handful of states.
    """
    n = a.shape[0]
    blocks = [b]
    current = b
    for _ in range(n - 1):
        current = a @ current
        blocks.append(current)
    ctrb = np.hstack(blocks)
    norms = np.linalg.norm(ctrb, axis=0)
    nonzero = norms > 0.0
    ctrb[:, nonzero] /= norms[nonzero]
    return _numeric_rank(ctrb)


def audit_network(network: StructuredNetwork, cfg: AuditConfig) -> AuditOutcome:
    """Sample full network realizations and run the Kalman test on each.

    Each trial draws A, B, C, W, H from their pattern classes with a seed
    derived from (cfg.seed, trial), forms A + B W C and B H numerically,
    and tests controllability. The block patterns are the ones the network
    keeps for the symbolic verdict. Trials are independent, so the outcome
    does not depend on execution order. A trial whose arrays cannot be
    allocated or whose rank computation fails raises NumericBreakdown
    naming that trial.
    """
    require_valid(network)
    a_pat, b_pat, c_pat = network.A_blk, network.B_blk, network.C_blk
    n = a_pat.rows
    outcome = AuditOutcome()
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, trial])
        try:
            a = sample_realization(a_pat, rng)
            b = sample_realization(b_pat, rng)
            c = sample_realization(c_pat, rng)
            w = sample_realization(network.W, rng)
            h = sample_realization(network.H, rng)
            rank = _controllability_rank(a + b @ w @ c, b @ h)
        except np.linalg.LinAlgError as exc:
            raise NumericBreakdown(
                f"numeric breakdown in trial {trial} (seed {cfg.seed}): {exc}"
            ) from None
        except MemoryError:
            raise NumericBreakdown(
                f"out of memory in trial {trial} (seed {cfg.seed}) for {n} x {n} realizations"
            ) from None
        failure = None
        if rank < n:
            failure = f"controllability rank {rank} < {n}"
        outcome.record(trial, failure)
    return outcome
