"""The auto-labeling main loop and the four baselines built from the same
parts.

TBAL iterates train -> estimate thresholds on validation -> auto-label the
confident region -> deactivate covered validation points -> actively query
the next human batch, until the pool drains or the training budget runs out
(one final train/threshold/auto-label pass runs after the budget is spent).
The baselines reuse the same trainer, querier and threshold estimator:

  pl    random-query the budget, train once, predict everything left
  al    margin-random batches, train, predict everything left
  plsc  pl training + one threshold pass on the final model
  alsc  al training + one threshold pass on the final model
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import confidence as conf
from . import model as linmod
from . import query as qry
from .core import Oracle, Pool, UNLABELED, ValidationSet, check_partition, rng_from
from .threshold import ThresholdConfig, ThresholdDecision, estimate_threshold

TBAL = "tbal"
PL = "pl"
AL = "al"
PLSC = "plsc"
ALSC = "alsc"
METHODS = (TBAL, PL, AL, PLSC, ALSC)


@dataclass
class RunConfig:
    method: str = TBAL
    epsilon_a: float = 0.01
    n_s: int = 100  # seed query size
    n_b: int = 25  # active batch size
    N_q: int = 500  # max human-labeled training points
    threshold: ThresholdConfig | None = None
    query: qry.QueryConfig | None = None
    train: linmod.TrainConfig | None = None
    confidence: object = field(default_factory=conf.AbsMargin)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.n_s > self.N_q:
            raise ValueError("seed size n_s must not exceed the budget N_q")
        if self.n_s < 1:
            raise ValueError("n_s must be >= 1")
        if self.n_b < 1:
            raise ValueError("n_b must be >= 1")
        if self.threshold is None:
            self.threshold = ThresholdConfig(epsilon_a=self.epsilon_a)
        if self.query is None:
            self.query = qry.QueryConfig(batch=self.n_b)
        else:  # a copy: the caller's QueryConfig may be shared
            self.query = replace(self.query, batch=self.n_b)
        if self.train is None:
            self.train = linmod.TrainConfig()


@dataclass
class RoundRecord:
    index: int
    queried_ids: np.ndarray  # human batch consumed at the start of this round
    train_loss: float
    decision: ThresholdDecision | None
    auto_ids: np.ndarray
    auto_labels: np.ndarray
    val_deactivated: np.ndarray
    n_a: int
    n_v: int  # active validation size when thresholds were estimated
    m_a: int = -1  # auto-label mistakes; filled by metrics.evaluate


@dataclass
class RunResult:
    method: str
    seed: int
    pool: Pool
    validation: ValidationSet
    rounds: list
    N_a: int
    k: int
    human_labels_used: int
    val_labels_used: int


def _round_seed(seed: int, *stream) -> int:
    return int(rng_from(seed, *stream).integers(0, 2**63 - 1))


def _scores(cfg: RunConfig, model, pool_X, val_X):
    pred_u, conf_u = conf.score(cfg.confidence, model, pool_X)
    if len(val_X):
        pred_v, conf_v = conf.score(cfg.confidence, model, val_X)
    else:
        pred_v, conf_v = np.empty(0, dtype=np.int64), np.empty(0)
    conf_u, conf_v = conf.shift_nonnegative(conf_u, conf_v)
    return pred_u, conf_u, pred_v, conf_v


def _auto_label_pass(cfg, model, pool, val, rnd):
    """One threshold estimate + auto-label + validation filter. Returns the
    pieces a RoundRecord needs."""
    unlabeled = pool.ids_with(UNLABELED)
    act = val.active_indices()
    n_v = len(act)
    if len(unlabeled) == 0:
        return None, unlabeled, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), \
            np.empty(0, dtype=np.int64), n_v
    pred_u, conf_u, pred_v, conf_v = _scores(
        cfg, model, pool.features[unlabeled], val.features[act])
    correct_v = pred_v == val.labels[act]
    decision = estimate_threshold(conf_u, pred_u, conf_v, pred_v, correct_v,
                                  cfg.threshold, num_classes=pool.num_classes)
    t_class = np.array([decision.threshold_for(c) for c in range(pool.num_classes)])
    t_u = t_class[pred_u]
    take = conf_u >= t_u
    auto_ids = unlabeled[take]
    auto_labels = pred_u[take]
    pool.mark_auto(auto_ids, auto_labels, rnd)
    if n_v:
        drop = act[conf_v >= t_class[pred_v]]
        val.deactivate(drop)
    else:
        drop = np.empty(0, dtype=np.int64)
    # soundness: every auto-labeled score met its class threshold
    assert np.all(conf_u[take] >= t_u[take])
    check_partition(pool)
    return decision, unlabeled, auto_ids, auto_labels, drop, n_v


def _fit_round(cfg, pool, train_X, train_y, seed, rnd):
    return linmod.fit(np.asarray(train_X), np.asarray(train_y), cfg.train,
                      _round_seed(seed, "train", rnd), num_classes=pool.num_classes)


def _query_human(pool, oracle, ids, train_X, train_y):
    labels = [oracle.label(int(i)) for i in ids]
    pool.mark_human(ids, labels)
    train_y.extend(labels)
    train_X.extend(pool.features[ids])


def run_tbal(pool: Pool, val: ValidationSet, cfg: RunConfig, seed: int) -> RunResult:
    """Execute the full iterative auto-labeling loop on copies of the inputs."""
    pool = pool.copy()
    val = val.copy()
    oracle = Oracle(pool)
    train_X: list = []
    train_y: list = []

    seed_ids, _ = qry.query_random(pool.ids_with(UNLABELED), cfg.n_s,
                                   rng_from(seed, "seed_query"))
    _query_human(pool, oracle, seed_ids, train_X, train_y)

    rounds: list[RoundRecord] = []
    queried = seed_ids
    rnd = 0
    while True:
        rnd += 1
        model = _fit_round(cfg, pool, train_X, train_y, seed, rnd)
        decision, unlabeled, auto_ids, auto_labels, dropped, n_v = _auto_label_pass(
            cfg, model, pool, val, rnd)
        rounds.append(RoundRecord(
            index=rnd, queried_ids=queried,
            train_loss=model.loss_trace[-1] if model.loss_trace else float("nan"),
            decision=decision, auto_ids=auto_ids, auto_labels=auto_labels,
            val_deactivated=dropped, n_a=len(auto_ids), n_v=n_v))
        remaining = pool.ids_with(UNLABELED)
        budget_left = cfg.N_q - len(train_y)
        if len(remaining) == 0 or budget_left <= 0:
            break
        n_next = min(cfg.n_b, budget_left, len(remaining))
        if cfg.query.strategy == qry.MARGIN_RANDOM:
            qcfg = replace(cfg.query, batch=n_next)
            queried, _ = qry.query_margin_random(
                model, cfg.confidence, remaining, pool.features, qcfg,
                rng_from(seed, "query", rnd))
        else:
            queried, _ = qry.query_random(remaining, n_next,
                                          rng_from(seed, "query", rnd))
        _query_human(pool, oracle, queried, train_X, train_y)

    N_a = sum(r.n_a for r in rounds)
    return RunResult(method=TBAL, seed=seed, pool=pool, validation=val,
                     rounds=rounds, N_a=N_a, k=len(rounds),
                     human_labels_used=len(train_y), val_labels_used=len(val))


def run_baseline(pool: Pool, val: ValidationSet, cfg: RunConfig, seed: int) -> RunResult:
    """PL / AL querying and training, then either blanket prediction or a
    single selective-classification threshold pass."""
    if cfg.method not in (PL, AL, PLSC, ALSC):
        raise ValueError(f"run_baseline got method {cfg.method!r}")
    active = cfg.method in (AL, ALSC)
    selective = cfg.method in (PLSC, ALSC)
    pool = pool.copy()
    val = val.copy()
    oracle = Oracle(pool)
    train_X: list = []
    train_y: list = []

    # identical seed stream as TBAL so comparative sweeps share a start
    seed_ids, _ = qry.query_random(pool.ids_with(UNLABELED), cfg.n_s,
                                   rng_from(seed, "seed_query"))
    _query_human(pool, oracle, seed_ids, train_X, train_y)

    # random queries never read the model, so pl/plsc fit once, after the
    # budget is spent, with the seed of the last round
    rnd = 1
    if active:
        model = _fit_round(cfg, pool, train_X, train_y, seed, rnd)
    while len(train_y) < cfg.N_q:
        remaining = pool.ids_with(UNLABELED)
        if len(remaining) == 0:
            break
        n_next = min(cfg.n_b, cfg.N_q - len(train_y), len(remaining))
        if active:
            qcfg = replace(cfg.query, batch=n_next)
            ids, _ = qry.query_margin_random(model, cfg.confidence, remaining,
                                             pool.features, qcfg,
                                             rng_from(seed, "query", rnd))
        else:
            ids, _ = qry.query_random(remaining, n_next, rng_from(seed, "query", rnd))
        _query_human(pool, oracle, ids, train_X, train_y)
        rnd += 1
        if active:
            model = _fit_round(cfg, pool, train_X, train_y, seed, rnd)
    if not active:
        model = _fit_round(cfg, pool, train_X, train_y, seed, rnd)

    remaining = pool.ids_with(UNLABELED)
    rounds: list[RoundRecord] = []
    if selective:
        decision, unlabeled, auto_ids, auto_labels, dropped, n_v = _auto_label_pass(
            cfg, model, pool, val, 1)
        rounds.append(RoundRecord(
            index=1, queried_ids=np.array([], dtype=np.int64),
            train_loss=model.loss_trace[-1] if model.loss_trace else float("nan"),
            decision=decision, auto_ids=auto_ids, auto_labels=auto_labels,
            val_deactivated=dropped, n_a=len(auto_ids), n_v=n_v))
    elif len(remaining):
        preds = linmod.predict(model, pool.features[remaining])
        pool.mark_auto(remaining, preds, 1)
        rounds.append(RoundRecord(
            index=1, queried_ids=np.array([], dtype=np.int64),
            train_loss=model.loss_trace[-1] if model.loss_trace else float("nan"),
            decision=None, auto_ids=remaining, auto_labels=np.asarray(preds),
            val_deactivated=np.empty(0, dtype=np.int64),
            n_a=len(remaining), n_v=val.n_active))
    check_partition(pool)
    N_a = sum(r.n_a for r in rounds)
    return RunResult(method=cfg.method, seed=seed, pool=pool, validation=val,
                     rounds=rounds, N_a=N_a, k=len(rounds),
                     human_labels_used=len(train_y), val_labels_used=len(val))


def run(pool: Pool, val: ValidationSet, cfg: RunConfig, seed: int) -> RunResult:
    if cfg.method == TBAL:
        return run_tbal(pool, val, cfg, seed)
    return run_baseline(pool, val, cfg, seed)
