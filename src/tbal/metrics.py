"""Auto-labeling error and coverage, audited against the pool's hidden
ground truth, plus per-round diagnostics and multi-trial aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Pool, partition_counts


class IntegrityError(RuntimeError):
    pass


@dataclass
class MetricReport:
    err_hat: float  # nan when undefined (no auto-labels)
    err_defined: bool
    cov_hat: float
    per_round: list  # (round, n_a, m_a, est_val_error)
    human_labels_used: int
    val_labels_used: int
    n_auto: int
    n_human: int
    n_unlabeled: int


def evaluate(result, pool: Pool) -> MetricReport:
    """Exact counts of auto-label mistakes and coverage.

    `pool` must be the original pool the run was built from (the result's
    own pool carries the same truth); a size mismatch is an integrity error.
    """
    rpool = result.pool
    if len(rpool) != len(pool) or rpool.num_classes != pool.num_classes:
        raise IntegrityError("result does not match the given pool")
    truth = pool._truth
    mistakes = 0
    per_round = []
    n_a_total = 0
    for rec in result.rounds:
        m = int(np.sum(truth[rec.auto_ids] != rec.auto_labels)) if rec.n_a else 0
        rec.m_a = m
        mistakes += m
        n_a_total += rec.n_a
        est = 0.0
        if rec.decision is not None and rec.decision.est_error:
            est = max(rec.decision.est_error.values())
        per_round.append((rec.index, rec.n_a, m, est))
    if n_a_total != result.N_a:
        raise IntegrityError("per-round auto counts disagree with the total")
    n_auto, n_human, n_unl = partition_counts(rpool)
    if n_auto != n_a_total:
        raise IntegrityError("pool auto count disagrees with round records")
    defined = n_a_total > 0
    err = mistakes / n_a_total if defined else math.nan
    cov = n_a_total / len(pool)
    return MetricReport(err_hat=err, err_defined=defined, cov_hat=cov,
                        per_round=per_round,
                        human_labels_used=result.human_labels_used,
                        val_labels_used=result.val_labels_used,
                        n_auto=n_auto, n_human=n_human, n_unlabeled=n_unl)


def summarize_trials(values: list[float]) -> tuple[float, float]:
    """Sample mean and (n-1)-denominator standard deviation; a single trial
    has std 0."""
    if not values:
        raise ValueError("need at least one value")
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return mean, std
