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

A run is its trajectory (the seed query and the round loop) followed by
``finish`` (the labeling at the end). The first two choices shape the
trajectory, so al/alsc, and pl/plsc, make the same queries and fits and
differ only in ``finish``: ``run_many`` runs one trajectory for such a pair.
It also advances the trajectories of many points (a grid point's trials),
every key's together, and serves their fits of equal size in one
``model.fit_many`` call. Both steps return a ``RunResult``, the one record
of a run.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import confidence as conf
from . import model as linmod
from . import query as qry
from .core import (Oracle, Pool, UNLABELED, ValidationSet, check_partition,
                   partition_counts, rng_from)
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
    # mirrors threshold.epsilon_a once built; None takes the threshold's
    epsilon_a: float | None = None
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
            self.threshold = (ThresholdConfig() if self.epsilon_a is None
                              else ThresholdConfig(epsilon_a=self.epsilon_a))
        elif self.epsilon_a not in (None, self.threshold.epsilon_a):
            raise ValueError(f"epsilon_a {self.epsilon_a} differs from "
                             f"threshold.epsilon_a {self.threshold.epsilon_a}")
        self.epsilon_a = self.threshold.epsilon_a
        if self.query is None:
            self.query = qry.QueryConfig()
        if self.train is None:
            self.train = linmod.TrainConfig()


@dataclass
class RoundRecord:
    index: int
    queried_ids: np.ndarray  # human batch consumed at the start of this round
    train_loss: float  # the model's last loss_trace entry (see tbal.model)
    decision: ThresholdDecision | None
    auto_ids: np.ndarray
    auto_labels: np.ndarray
    val_deactivated: np.ndarray
    n_v: int  # active validation size when thresholds were estimated
    m_a: int = -1  # auto-label mistakes; filled by metrics.evaluate

    @property
    def n_a(self) -> int:
        return len(self.auto_ids)


@dataclass
class RunResult:
    """A run's state and records; its counts are read from them."""
    method: str
    seed: int
    pool: Pool
    validation: ValidationSet
    rounds: list
    model: linmod.LinearModel  # the last model fitted; it labeled the last round

    @property
    def N_a(self) -> int:
        return sum(r.n_a for r in self.rounds)

    @property
    def k(self) -> int:
        return len(self.rounds)

    @property
    def human_labels_used(self) -> int:
        return partition_counts(self.pool)[1]

    @property
    def val_labels_used(self) -> int:
        return len(self.validation)


def _round_seed(seed: int, *stream) -> int:
    return int(rng_from(seed, *stream).integers(0, 2**63 - 1))


def _score_rows(kind, model, points, ids, raw=None) -> tuple[np.ndarray, np.ndarray]:
    """``conf.score`` of the raw scores of points ``ids`` (``points`` a pool
    or validation set), taken from ``raw``, those of every row of
    ``points.matrix`` (``linmod.raw_scores`` of it when None): no feature row
    is copied. ``raw`` takes N * K floats (4.8 MB for 60000 rows at K = 10);
    the confidence's temporaries scale with the pass (a few n * K floats)."""
    if raw is None:
        raw = linmod.raw_scores(model, points.matrix)
    return conf.score(kind, model, raw.take(points.rows.take(ids), axis=0))


def _auto_label_pass(cfg, model, pool, val, unlabeled, rnd, queried):
    """One threshold estimate + auto-label + validation filter over the
    ``unlabeled`` ids, recorded as round ``rnd``. Also returns the ids the
    pass leaves unlabeled and their unshifted confidence, in id order: the
    margin-random query reads them."""
    act = val.active_indices()
    n_v = len(act)
    decision = None
    auto_ids = auto_labels = drop = np.empty(0, dtype=np.int64)
    keep, unshifted_u = np.empty(0, dtype=np.int64), np.empty(0)
    if len(unlabeled):
        # one product serves both sets when they share a matrix, as a split does
        raw = linmod.raw_scores(model, pool.matrix)
        pred_u, unshifted_u = _score_rows(cfg.confidence, model, pool, unlabeled, raw)
        if n_v:
            pred_v, conf_v = _score_rows(cfg.confidence, model, val, act,
                                         raw if val.matrix is pool.matrix else None)
        else:
            pred_v, conf_v = np.empty(0, dtype=np.int64), np.empty(0)
        conf_u, conf_v = conf.shift_nonnegative(unshifted_u, conf_v)
        correct_v = pred_v == val.labels[act]
        decision = estimate_threshold(conf_u, pred_u, conf_v, pred_v, correct_v,
                                      cfg.threshold, num_classes=pool.num_classes)
        t_class = decision.thresholds
        t_u = t_class[pred_u]
        met = conf_u >= t_u
        take, keep = np.flatnonzero(met), np.flatnonzero(~met)
        auto_ids = unlabeled.take(take)
        auto_labels = pred_u.take(take)
        pool.mark_auto(auto_ids, auto_labels, rnd)
        if n_v:
            drop = act[conf_v >= t_class[pred_v]]
            val.deactivate(drop)
        # soundness: every auto-labeled score met its class threshold
        assert np.all(conf_u.take(take) >= t_u.take(take))
        check_partition(pool)
    record = RoundRecord(
        index=rnd, queried_ids=queried,
        train_loss=model.loss_trace[-1] if model.loss_trace else float("nan"),
        decision=decision, auto_ids=auto_ids, auto_labels=auto_labels,
        val_deactivated=drop, n_v=n_v)
    return record, unlabeled.take(keep), unshifted_u.take(keep)


def _query_human(pool, oracle, ids, human):
    """Label ``ids`` by the oracle; ``human`` with them appended."""
    pool.mark_human(ids, oracle.label(ids))
    return np.concatenate([human, ids])


def _choices(method: str, strategy: str) -> tuple[str, bool, bool]:
    """The three per-method choices: the query strategy, whether to
    auto-label every round (else once, after the loop) and, for that last
    labeling, a threshold pass (selective) or blanket prediction.
    ``strategy`` is the configured one, which TBAL follows."""
    if method == TBAL:
        return strategy, True, True
    strategy = qry.MARGIN_RANDOM if method in (AL, ALSC) else qry.RANDOM
    return strategy, False, method in (PLSC, ALSC)


def trajectory(pool: Pool, val: ValidationSet, cfg: RunConfig, seed: int):
    """The seed query and the round loop of ``cfg.method``, on copies of the
    inputs, as a generator: each round that trains yields its fit request,
    the arguments of ``linmod.fit`` (rows, labels, train config, seed, K),
    and is sent the fitted model. It returns the ``RunResult``. ``finish``
    writes none of the result, so every run of a pair finishes from the same
    state."""
    strategy, every_round, _ = _choices(cfg.method, cfg.query.strategy)
    pool = pool.copy()
    val = val.copy()
    oracle = Oracle(pool)

    # one seed stream for every method, so comparative sweeps share a start
    queried, _ = qry.query_random(pool.ids_with(UNLABELED), cfg.n_s,
                                  rng_from(seed, "seed_query"))
    # the human-labeled training set: the queried ids in query order
    human = _query_human(pool, oracle, queried, np.empty(0, dtype=np.int64))

    rounds: list[RoundRecord] = []
    rnd = 0
    while True:
        rnd += 1
        remaining = pool.ids_with(UNLABELED)
        spent = len(human) >= cfg.N_q
        if every_round or strategy == qry.MARGIN_RANDOM or spent or not len(remaining):
            model = yield (pool.gather(human), pool.label[human], cfg.train,
                           _round_seed(seed, "train", rnd), pool.num_classes)
        left_scores = None
        if every_round:
            record, remaining, left_scores = _auto_label_pass(
                cfg, model, pool, val, remaining, rnd, queried)
            rounds.append(record)
        if spent or not len(remaining):
            break
        n_next = min(cfg.n_b, cfg.N_q - len(human), len(remaining))
        rng = rng_from(seed, "query", rnd)
        if strategy == qry.MARGIN_RANDOM:
            # TBAL's pass has just scored exactly these points with this model
            scores = left_scores
            if scores is None:
                scores = _score_rows(cfg.confidence, model, pool, remaining)[1]
            queried, _ = qry.query_margin_random(remaining, scores, n_next,
                                                 cfg.query.C, rng)
        else:
            queried, _ = qry.query_random(remaining, n_next, rng)
        human = _query_human(pool, oracle, queried, human)
    return RunResult(method=cfg.method, seed=seed, pool=pool, validation=val,
                     rounds=rounds, model=model)


def finish(traj: RunResult, cfg: RunConfig) -> RunResult:
    """``cfg.method``'s labeling after the loop of ``traj``, on a copy of its
    state; a method that labels nothing more (TBAL) copies nothing."""
    _, every_round, selective = _choices(cfg.method, cfg.query.strategy)
    pool, val, rounds, model = traj.pool, traj.validation, list(traj.rounds), traj.model
    no_ids = np.empty(0, dtype=np.int64)
    if not every_round:
        remaining = pool.ids_with(UNLABELED)
        if selective:
            pool, val = pool.copy(), val.copy()
            record, _, _ = _auto_label_pass(cfg, model, pool, val, remaining, 1, no_ids)
            rounds.append(record)
        elif len(remaining):
            pool = pool.copy()
            preds = _score_rows(cfg.confidence, model, pool, remaining)[0]
            pool.mark_auto(remaining, preds, 1)
            rounds.append(RoundRecord(
                index=1, queried_ids=no_ids,
                train_loss=model.loss_trace[-1] if model.loss_trace else float("nan"),
                decision=None, auto_ids=remaining, auto_labels=preds,
                val_deactivated=no_ids, n_v=val.n_active))
    check_partition(pool)
    return RunResult(method=cfg.method, seed=traj.seed, pool=pool, validation=val,
                     rounds=rounds, model=model)


def run_many(points: list, cfgs: list) -> Iterator[tuple]:
    """Run each config of ``cfgs``, which differ in their method only, from
    each point (pool, validation set, seed) of ``points``, on copies of the
    inputs. Yields (point index, method, outcome) for every run as soon as
    its trajectory ends; the outcome is its ``RunResult`` or the exception
    the run raised, so one point's failure leaves the others' runs.

    The methods of a trajectory key (tbal; al and alsc; pl and plsc) share
    one trajectory per point, and every key's trajectories advance together:
    each turn fits the pending requests that share the smallest row count,
    whatever their key, in one ``linmod.fit_many`` call, so trajectories at
    equal rounds fit together. A trajectory is dropped once its runs are
    yielded."""
    if any(replace(c, method=cfgs[0].method) != cfgs[0] for c in cfgs):
        raise ValueError("run_many's configs must differ in their method only")
    keys: dict = {}
    for cfg in cfgs:
        keys.setdefault(_choices(cfg.method, cfg.query.strategy)[:2], []).append(cfg)
    # trajectory index -> (point index, its key's configs, the trajectory)
    trajs = dict(enumerate((i, key_cfgs, trajectory(pool, val, key_cfgs[0], seed))
                           for key_cfgs in keys.values()
                           for i, (pool, val, seed) in enumerate(points)))
    pending: dict = {}  # trajectory index -> its fit request

    def resume(j, model=None, error=None):
        """Send trajectory j its model, or raise ``error`` in it; yield its
        runs' outcomes if it ends."""
        i, key_cfgs, traj = trajs[j]
        try:
            pending[j] = traj.send(model) if error is None else traj.throw(error)
            return
        except StopIteration as end:
            result, error = end.value, None
        except Exception as e:
            result, error = None, e
        del trajs[j]
        for cfg in key_cfgs:
            try:
                outcome = finish(result, cfg) if error is None else error
            except Exception as e:
                outcome = e
            yield i, cfg.method, outcome

    for j in list(trajs):
        yield from resume(j)
    while pending:
        n = min(len(req[0]) for req in pending.values())
        batch = [j for j, req in pending.items() if len(req[0]) == n]
        requests = [pending.pop(j) for j in batch]
        # the trainer's errors depend on the config and K, which the
        # requests share: a failed call fails every trajectory in it
        try:
            models, error = linmod.fit_many(requests), None
        except Exception as e:
            models, error = [None] * len(batch), e
        for j, model in zip(batch, models):
            yield from resume(j, model, error)


def run(pool: Pool, val: ValidationSet, cfg: RunConfig, seed: int) -> RunResult:
    """Run ``cfg.method`` on copies of the inputs: ``run_many`` of one point."""
    ((_, _, outcome),) = run_many([(pool, val, seed)], [cfg])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
