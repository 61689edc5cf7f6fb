"""Auto-labeling threshold estimation from validation data.

Candidates are the distinct confidence scores observed on the unlabeled pool,
filtered to those with enough validation support; the chosen threshold is the
smallest candidate whose estimated validation error plus an upper-confidence
inflation stays under the target. Candidates with the same validation support
share one estimate, so the scan evaluates one candidate per support level.
When no candidate qualifies the threshold is +inf (abstain everywhere). Runs
either as a single global threshold or independently per predicted class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STDERR = "stderr"
HOEFFDING = "hoeffding"
SIGMA_KINDS = (STDERR, HOEFFDING)  # the inflations a config may choose
ZERO = "zero"  # test-only: isolates the candidate scan from the inflation term


@dataclass
class ThresholdConfig:
    epsilon_a: float = 0.01
    n0: int = 25
    sigma_kind: str = STDERR
    delta: float = 0.05  # used by the hoeffding inflation only
    per_class: bool = True

    def __post_init__(self):
        if not 0 < self.epsilon_a < 1:
            raise ValueError("epsilon_a must be in (0, 1)")
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.sigma_kind not in SIGMA_KINDS + (ZERO,):
            raise ValueError(f"unknown sigma kind {self.sigma_kind!r}")


@dataclass
class ThresholdDecision:
    """Per-class arrays of length K; with ``per_class`` off every class holds
    the one global scan's result."""
    thresholds: np.ndarray  # t_hat (math.inf when nothing qualifies)
    support: np.ndarray  # validation count at the chosen threshold
    est_error: np.ndarray  # empirical validation error at the threshold
    chosen_sigma: np.ndarray  # inflation applied at the threshold

    def threshold_for(self, c: int) -> float:
        return float(self.thresholds[c]) if 0 <= c < len(self.thresholds) else math.inf


def sigma(est_error, n_t, kind: str, delta: float = 0.05):
    """Upper-confidence inflation added to the estimated error; inf at zero
    support. Takes scalars (returns a float) or aligned arrays."""
    e = np.asarray(est_error, dtype=np.float64)
    n = np.asarray(n_t, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == STDERR:
            s = np.sqrt(e * (1.0 - e) / n)
        elif kind == HOEFFDING:
            s = np.sqrt(math.log(2.0 / delta) / (2.0 * n))
        elif kind == ZERO:
            s = np.zeros(np.broadcast(e, n).shape)
        else:
            raise ValueError(f"unknown sigma kind {kind!r}")
    s = np.where(n == 0, math.inf, s)
    return float(s) if s.ndim == 0 else s


_ABSTAIN = (math.inf, 0, 0.0, 0.0)


def _estimate_single(unlabeled_scores: np.ndarray,
                     val_scores: np.ndarray,
                     val_correct: np.ndarray,
                     cfg: ThresholdConfig) -> tuple[float, int, float, float]:
    """One candidate scan. Returns (t_hat, support, est_error, sigma_hat);
    t_hat is inf when no candidate qualifies.

    With the validation scores sorted, ``vs``, bucket j holds the candidates
    x with vs[j-1] < x <= vs[j]. Each of them sees the validation points
    vs[j:], so all have support n_v - j and the same estimate: only the
    smallest candidate of a non-empty bucket can be chosen, and the scan
    evaluates one candidate per bucket instead of one per distinct pool
    score. Tied validation scores leave the buckets between them empty.

    A bucket's estimate reads validation data only, so the scan first finds
    the support levels q that pass, then sorts only the pool scores above
    vs[q[0]-1], the only ones a passing bucket holds, and returns the first
    passing bucket that is non-empty."""
    order = np.argsort(val_scores)
    vs = val_scores[order]
    n_v = len(vs)
    m = n_v - cfg.n0 + 1  # buckets 0..m-1 have support at least n0
    if m <= 0:
        return _ABSTAIN
    wrong_below = np.concatenate(([0], np.cumsum(~val_correct[order])))
    n_ok = np.arange(n_v, n_v - m, -1)  # n_v - j
    e_hat = (wrong_below[-1] - wrong_below[:m]) / n_ok
    s_hat = sigma(e_hat, n_ok, cfg.sigma_kind, cfg.delta)
    q = np.flatnonzero(e_hat + s_hat <= cfg.epsilon_a)
    if len(q) == 0:
        return _ABSTAIN
    u = unlabeled_scores
    if q[0]:
        u = u[u > vs[q[0] - 1]]
    us = np.sort(u)
    # passing bucket q[i] holds us[starts[i]:ends[i]]; every score kept is
    # above vs[q[0]-1], so the first starts at 0
    ends = np.searchsorted(us, vs[q], "right")
    starts = np.concatenate(([0], np.searchsorted(us, vs[q[1:] - 1], "right")))
    hit = np.flatnonzero(ends > starts)
    if len(hit) == 0:
        return _ABSTAIN
    i = hit[0]  # buckets ascend: the first non-empty holds the smallest t
    j = q[i]
    return (float(us[starts[i]]), int(n_ok[j]), float(e_hat[j]), float(s_hat[j]))


def estimate_threshold(unlabeled_scores: np.ndarray,
                       unlabeled_preds: np.ndarray,
                       val_scores: np.ndarray,
                       val_preds: np.ndarray,
                       val_correct: np.ndarray,
                       cfg: ThresholdConfig,
                       num_classes: int = 2) -> ThresholdDecision:
    """Estimate the threshold(s) for the current model.

    `val_correct[i]` is whether the model's prediction matches the i-th
    validation label. With per_class set, each predicted class gets its own
    scan over class-partitioned scores.
    """
    unlabeled_scores = np.asarray(unlabeled_scores, dtype=np.float64)
    unlabeled_preds = np.asarray(unlabeled_preds, dtype=np.int64)
    val_scores = np.asarray(val_scores, dtype=np.float64)
    val_preds = np.asarray(val_preds, dtype=np.int64)
    val_correct = np.asarray(val_correct, dtype=bool)
    if not np.all(np.isfinite(unlabeled_scores)):
        raise ValueError("unlabeled scores must be finite")

    thresholds = np.full(num_classes, math.inf)
    support = np.zeros(num_classes, dtype=np.int64)
    est_error = np.zeros(num_classes)
    chosen_sigma = np.zeros(num_classes)
    if cfg.per_class:
        scans = []
        for c in range(num_classes):
            u_ids, v_ids = np.flatnonzero(unlabeled_preds == c), np.flatnonzero(val_preds == c)
            scans.append((c, unlabeled_scores.take(u_ids), val_scores.take(v_ids),
                          val_correct.take(v_ids)))
    else:  # one global scan whose result every class takes
        scans = [(slice(None), unlabeled_scores, val_scores, val_correct)]
    for c, u, v, correct in scans:
        if len(u) and len(v):  # else abstain: the arrays start at (inf, 0, 0.0, 0.0)
            thresholds[c], support[c], est_error[c], chosen_sigma[c] = _estimate_single(
                u, v, correct, cfg)
    return ThresholdDecision(thresholds, support, est_error, chosen_sigma)
