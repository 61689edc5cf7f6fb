"""The two engine loops as they stood before ``engine.run`` merged them:
``run_tbal`` and ``run_baseline`` with the helpers they read, copied
unchanged apart from the margin-random query's arguments (the batch size
and ``C``, once a copy of the ``QueryConfig``), the branches of the removed
``use_gap`` option, the way they pack their ``RunResult``, which now holds
the last model fitted and reads its counts from its state, and the raw
scores (``model.raw_scores``) that ``confidence.score`` now reads in place
of the rows.
``tests/test_engine.py`` checks that the single loop reproduces them record
for record.

``estimate_single`` is ``threshold._estimate_single`` as it stood before the
scan evaluated one candidate per support level: every distinct pool score is
a candidate. ``tests/test_threshold.py`` checks that the scan returns the same
tuple on instances of a real round's size."""

from __future__ import annotations

import math

import numpy as np

from tbal import confidence as conf
from tbal import model as linmod
from tbal import query as qry
from tbal.core import Oracle, Pool, UNLABELED, ValidationSet, check_partition, rng_from
from tbal.engine import AL, ALSC, PL, PLSC, TBAL, RoundRecord, RunConfig, RunResult
from tbal.threshold import estimate_threshold, sigma


def _round_seed(seed: int, *stream) -> int:
    return int(rng_from(seed, *stream).integers(0, 2**63 - 1))


def _auto_label_pass(cfg, model, pool, val, rnd, queried):
    """One threshold estimate + auto-label + validation filter, recorded as
    round ``rnd``. Also returns the unshifted confidence of the points the
    pass leaves unlabeled, in id order: the margin-random query reads them."""
    unlabeled = pool.ids_with(UNLABELED)
    act = val.active_indices()
    n_v = len(act)
    decision = None
    auto_ids = auto_labels = drop = np.empty(0, dtype=np.int64)
    left = np.empty(0)
    if len(unlabeled):
        pred_u, raw_u = conf.score(cfg.confidence, model,
                                    linmod.raw_scores(model, pool.gather(unlabeled)))
        if n_v:
            pred_v, conf_v = conf.score(cfg.confidence, model,
                                        linmod.raw_scores(model, val.gather(act)))
        else:
            pred_v, conf_v = np.empty(0, dtype=np.int64), np.empty(0)
        conf_u, conf_v = conf.shift_nonnegative(raw_u, conf_v)
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
        # soundness: every auto-labeled score met its class threshold
        assert np.all(conf_u[take] >= t_u[take])
        check_partition(pool)
        left = raw_u[~take]
    record = RoundRecord(
        index=rnd, queried_ids=queried,
        train_loss=model.loss_trace[-1] if model.loss_trace else float("nan"),
        decision=decision, auto_ids=auto_ids, auto_labels=auto_labels,
        val_deactivated=drop, n_v=n_v)
    return record, left


def _margin_scores(cfg, model, X):
    """The margin-random query's score of each row of X under ``model``."""
    return conf.score(cfg.confidence, model, linmod.raw_scores(model, X))[1]


def _fit_round(cfg, pool, train_X, train_y, seed, rnd):
    return linmod.fit(np.asarray(train_X), np.asarray(train_y), cfg.train,
                      _round_seed(seed, "train", rnd), num_classes=pool.num_classes)


def _query_human(pool, oracle, ids, train_X, train_y):
    labels = [oracle.label(int(i)) for i in ids]
    pool.mark_human(ids, labels)
    train_y.extend(labels)
    train_X.extend(pool.gather(ids))


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
        record, left_scores = _auto_label_pass(cfg, model, pool, val, rnd, queried)
        rounds.append(record)
        remaining = pool.ids_with(UNLABELED)
        budget_left = cfg.N_q - len(train_y)
        if len(remaining) == 0 or budget_left <= 0:
            break
        n_next = min(cfg.n_b, budget_left, len(remaining))
        if cfg.query.strategy == qry.MARGIN_RANDOM:
            # the pass has just scored exactly these points with this model
            queried, _ = qry.query_margin_random(remaining, left_scores, n_next,
                                                 cfg.query.C, rng_from(seed, "query", rnd))
        else:
            queried, _ = qry.query_random(remaining, n_next,
                                          rng_from(seed, "query", rnd))
        _query_human(pool, oracle, queried, train_X, train_y)

    return RunResult(method=TBAL, seed=seed, pool=pool, validation=val,
                     rounds=rounds, model=model)


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
            scores = _margin_scores(cfg, model, pool.gather(remaining))
            ids, _ = qry.query_margin_random(remaining, scores, n_next, cfg.query.C,
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
        record, _ = _auto_label_pass(cfg, model, pool, val, 1,
                                     np.array([], dtype=np.int64))
        rounds.append(record)
    elif len(remaining):
        preds = linmod.predict(model, pool.gather(remaining))
        pool.mark_auto(remaining, preds, 1)
        rounds.append(RoundRecord(
            index=1, queried_ids=np.array([], dtype=np.int64),
            train_loss=model.loss_trace[-1] if model.loss_trace else float("nan"),
            decision=None, auto_ids=remaining, auto_labels=np.asarray(preds),
            val_deactivated=np.empty(0, dtype=np.int64), n_v=val.n_active))
    check_partition(pool)
    return RunResult(method=cfg.method, seed=seed, pool=pool, validation=val,
                     rounds=rounds, model=model)


_ABSTAIN = (math.inf, 0, 0.0, 0.0)


def estimate_single(unlabeled_scores, val_scores, val_correct, cfg):
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
