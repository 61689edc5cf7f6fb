"""The auto-labeling loop: TBAL and its four baselines, one loop for all.

Every method takes the same random seed batch and then repeats one round:
train -> (TBAL) estimate thresholds on validation, auto-label the confident
region and deactivate the covered validation points -> stop once the pool is
drained or the training budget spent -> query the next human batch. Three
choices, each fixed by the method, set the methods apart:

  method  query             auto-label         at the end
  tbal    cfg.query         every round        -
  pl      random            once, after loop   predict everything left
  al      margin-random     once, after loop   predict everything left
  plsc    random            once, after loop   one threshold pass
  alsc    margin-random     once, after loop   one threshold pass

A round trains only when something reads the model: TBAL's pass, the
margin-random query or the labeling after the last round. So pl/plsc train
once, on the full budget, with the seed of their last round.
"""

from __future__ import annotations

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


def _auto_label_pass(cfg, model, pool, val, unlabeled, rnd, queried):
    """One threshold estimate + auto-label + validation filter over the
    ``unlabeled`` ids, recorded as round ``rnd``. Also returns the ids the
    pass leaves unlabeled and their unshifted confidence, in id order: the
    margin-random query reads them."""
    act = val.active_indices()
    n_v = len(act)
    decision = None
    auto_ids = auto_labels = drop = np.empty(0, dtype=np.int64)
    take, raw_u = np.zeros(0, dtype=bool), np.empty(0)
    if len(unlabeled):
        pred_u, raw_u = conf.score(cfg.confidence, model, pool.features[unlabeled])
        if n_v:
            pred_v, conf_v = conf.score(cfg.confidence, model, val.features[act])
        else:
            pred_v, conf_v = np.empty(0, dtype=np.int64), np.empty(0)
        conf_u, conf_v = conf.shift_nonnegative(raw_u, conf_v)
        correct_v = pred_v == val.labels[act]
        decision = estimate_threshold(conf_u, pred_u, conf_v, pred_v, correct_v,
                                      cfg.threshold, num_classes=pool.num_classes)
        t_class = decision.thresholds
        t_u = t_class[pred_u]
        take = conf_u >= t_u
        auto_ids = unlabeled[take]
        auto_labels = pred_u[take]
        pool.mark_auto(auto_ids, auto_labels, rnd)
        if n_v:
            drop = act[conf_v >= t_class[pred_v]]
            val.deactivate(drop)
        # soundness: every auto-labeled score met its class threshold
        assert np.all(conf_u[take] >= t_u[take])
        check_partition(pool)
    record = RoundRecord(
        index=rnd, queried_ids=queried,
        train_loss=model.loss_trace[-1] if model.loss_trace else float("nan"),
        decision=decision, auto_ids=auto_ids, auto_labels=auto_labels,
        val_deactivated=drop, n_a=len(auto_ids), n_v=n_v)
    return record, unlabeled[~take], raw_u[~take]


def _margin_scores(cfg, model, X):
    """The margin-random query's score of each row of X under ``model``."""
    if cfg.query.use_gap:
        return qry.logit_gap(linmod.logits(model, X))
    return conf.score(cfg.confidence, model, X)[1]


def _query_human(pool, oracle, ids, train_X, train_y):
    labels = [oracle.label(int(i)) for i in ids]
    pool.mark_human(ids, labels)
    train_y.extend(labels)
    train_X.extend(pool.features[ids])


def _choices(cfg: RunConfig) -> tuple[str, bool, bool]:
    """The three per-method choices: the query strategy, whether to
    auto-label every round (else once, after the loop) and, for that last
    labeling, a threshold pass (selective) or blanket prediction."""
    if cfg.method == TBAL:
        return cfg.query.strategy, True, True
    strategy = qry.MARGIN_RANDOM if cfg.method in (AL, ALSC) else qry.RANDOM
    return strategy, False, cfg.method in (PLSC, ALSC)


def run(pool: Pool, val: ValidationSet, cfg: RunConfig, seed: int) -> RunResult:
    """Run ``cfg.method`` on copies of the inputs."""
    strategy, every_round, selective = _choices(cfg)
    pool = pool.copy()
    val = val.copy()
    oracle = Oracle(pool)
    train_X: list = []
    train_y: list = []

    # one seed stream for every method, so comparative sweeps share a start
    queried, _ = qry.query_random(pool.ids_with(UNLABELED), cfg.n_s,
                                  rng_from(seed, "seed_query"))
    _query_human(pool, oracle, queried, train_X, train_y)

    rounds: list[RoundRecord] = []
    rnd = 0
    while True:
        rnd += 1
        remaining = pool.ids_with(UNLABELED)
        spent = len(train_y) >= cfg.N_q
        if every_round or strategy == qry.MARGIN_RANDOM or spent or not len(remaining):
            model = linmod.fit(np.asarray(train_X), np.asarray(train_y), cfg.train,
                               _round_seed(seed, "train", rnd),
                               num_classes=pool.num_classes)
        left_scores = None
        if every_round:
            record, remaining, left_scores = _auto_label_pass(
                cfg, model, pool, val, remaining, rnd, queried)
            rounds.append(record)
        if spent or not len(remaining):
            break
        n_next = min(cfg.n_b, cfg.N_q - len(train_y), len(remaining))
        rng = rng_from(seed, "query", rnd)
        if strategy == qry.MARGIN_RANDOM:
            # TBAL's pass has just scored exactly these points with this model
            scores = left_scores
            if scores is None or cfg.query.use_gap:
                scores = _margin_scores(cfg, model, pool.features[remaining])
            queried, _ = qry.query_margin_random(
                remaining, scores, replace(cfg.query, batch=n_next), rng)
        else:
            queried, _ = qry.query_random(remaining, n_next, rng)
        _query_human(pool, oracle, queried, train_X, train_y)

    no_ids = np.empty(0, dtype=np.int64)
    if not every_round:
        if selective:
            record, _, _ = _auto_label_pass(cfg, model, pool, val, remaining, 1, no_ids)
            rounds.append(record)
        elif len(remaining):
            preds = linmod.predict(model, pool.features[remaining])
            pool.mark_auto(remaining, preds, 1)
            rounds.append(RoundRecord(
                index=1, queried_ids=no_ids,
                train_loss=model.loss_trace[-1] if model.loss_trace else float("nan"),
                decision=None, auto_ids=remaining, auto_labels=np.asarray(preds),
                val_deactivated=no_ids, n_a=len(remaining), n_v=val.n_active))
    check_partition(pool)
    return RunResult(method=cfg.method, seed=seed, pool=pool, validation=val,
                     rounds=rounds, N_a=sum(r.n_a for r in rounds), k=len(rounds),
                     human_labels_used=len(train_y), val_labels_used=len(val))
