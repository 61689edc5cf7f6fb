"""Auto-labeling threshold estimation from validation data.

Candidates are the distinct confidence scores observed on the unlabeled pool,
filtered to those with enough validation support; the chosen threshold is the
smallest candidate whose estimated validation error plus an upper-confidence
inflation stays under the target. When no candidate qualifies the threshold
is +inf (abstain everywhere). Runs either as a single global threshold or
independently per predicted class.
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


@dataclass
class ThresholdDecision:
    """Per-class arrays of length K; with ``per_class`` off every class holds
    the one global scan's result."""
    thresholds: np.ndarray  # t_hat (math.inf when nothing qualifies)
    support: np.ndarray  # validation count at the chosen threshold
    est_error: np.ndarray  # empirical validation error at the threshold
    chosen_sigma: np.ndarray  # inflation applied at the threshold
    empty_validation: bool = False

    @property
    def infinite(self) -> np.ndarray:
        return ~np.isfinite(self.thresholds)

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
    t_hat is inf when no candidate qualifies."""
    candidates = np.unique(unlabeled_scores)  # ascending
    order = np.argsort(-val_scores, kind="stable")
    wrong_cum = np.cumsum(~val_correct[order].astype(bool))
    # support: validation points with score >= each candidate
    n_t = len(val_scores) - np.searchsorted(val_scores[order][::-1], candidates, "left")
    ok = np.flatnonzero(n_t >= cfg.n0)
    if len(ok) == 0:  # nothing to inflate: an unknown sigma kind stays unnoticed
        return _ABSTAIN
    n_ok = n_t[ok]
    e_hat = wrong_cum[n_ok - 1] / n_ok
    s_hat = sigma(e_hat, n_ok, cfg.sigma_kind, cfg.delta)
    hit = np.flatnonzero(e_hat + s_hat <= cfg.epsilon_a)
    if len(hit) == 0:
        return _ABSTAIN
    i = hit[0]  # candidates ascend: the first qualifying is the smallest t
    return (float(candidates[ok[i]]), int(n_ok[i]), float(e_hat[i]), float(s_hat[i]))


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
    empty_val = len(val_scores) == 0
    if cfg.per_class:
        groups = [(c, unlabeled_preds == c, val_preds == c) for c in range(num_classes)]
    else:  # one global scan whose result every class takes
        groups = [(slice(None), np.ones(len(unlabeled_scores), dtype=bool),
                   np.ones(len(val_scores), dtype=bool))]
    for c, u_mask, v_mask in groups:
        if empty_val or not u_mask.any():
            continue  # abstain: the arrays start at (inf, 0, 0.0, 0.0)
        thresholds[c], support[c], est_error[c], chosen_sigma[c] = _estimate_single(
            unlabeled_scores[u_mask], val_scores[v_mask], val_correct[v_mask], cfg)
    return ThresholdDecision(thresholds, support, est_error, chosen_sigma,
                             empty_validation=empty_val)
