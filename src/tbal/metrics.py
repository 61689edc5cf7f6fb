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
    cov_hat: float


def evaluate(result, pool: Pool) -> MetricReport:
    """Exact counts of auto-label mistakes and coverage.

    `pool` must be the original pool the run was built from (the result's
    own pool carries the same truth); a size mismatch is an integrity error,
    and so is a pool whose auto-labeled count differs from the rounds'.
    """
    rpool = result.pool
    if len(rpool) != len(pool) or rpool.num_classes != pool.num_classes:
        raise IntegrityError("result does not match the given pool")
    truth = pool._truth
    mistakes = 0
    for rec in result.rounds:
        m = int(np.sum(truth[rec.auto_ids] != rec.auto_labels)) if rec.n_a else 0
        rec.m_a = m
        mistakes += m
    n_a = result.N_a
    if partition_counts(rpool)[0] != n_a:
        raise IntegrityError("pool auto count disagrees with round records")
    err = mistakes / n_a if n_a else math.nan
    return MetricReport(err_hat=err, cov_hat=n_a / len(pool))


def summarize_trials(values: list[float]) -> tuple[float, float]:
    """Sample mean and (n-1)-denominator standard deviation; a single trial
    has std 0."""
    if not values:
        raise ValueError("need at least one value")
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return mean, std


def clopper_pearson_upper(k: int, n: int) -> float:
    """One-sided 95% Clopper-Pearson upper bound on a rate observed as ``k``
    events in ``n`` trials: the p at which P(Binomial(n, p) <= k) falls to
    0.05, found by bisection (1.0 when k = n). Pure Python, so a sweep's
    summary imports no scipy.stats."""
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n and n >= 1, got k={k}, n={n}")
    if k == n:
        return 1.0

    def cdf(p):  # the binomial tail P(X <= k), in logs so large n stays finite
        return sum(math.exp(math.log(math.comb(n, i)) + i * math.log(p)
                            + (n - i) * math.log1p(-p)) for i in range(k + 1))

    lo, hi = 0.0, 1.0
    for _ in range(60):  # the tail falls as p rises
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if cdf(mid) > 0.05 else (lo, mid)
    return hi
