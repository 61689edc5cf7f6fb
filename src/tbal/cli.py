"""Experiment harness and command-line entry point.

Subcommands:
  run     execute a sweep from a YAML config, write per-run + summary CSVs
  bounds  evaluate the theory bounds with named flags
  export  run a config's first grid point and export the labeled dataset

Config files are strict: unknown keys, and values a run would fail on or
ignore, are rejected at load time (exit code 2) so typos cannot silently
corrupt a sweep.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import yaml

from . import confidence as conf
from . import engine
from . import metrics
from . import theory
from .core import AUTO, KINDS, UNLABELED, ValidationSet, rng_from
from .data import MNIST_LINEAR, XOR, DatasetSpec, make_dataset
from .model import LOGISTIC, TrainConfig
from .query import QueryConfig
from .threshold import SIGMA_KINDS, ThresholdConfig

RUN_HEADER = ["method", "axis_value", "seed", "err_hat", "cov_hat",
              "human_labels", "val_labels", "rounds"]
SUMMARY_HEADER = ["method", "axis_value", "err_hat_mean", "err_hat_std",
                  "cov_hat_mean", "cov_hat_std", "err_over_eps_frac",
                  "err_hat_trials", "err_over_eps_upper95"]

TRAIN_BUDGET = "train_budget"
VALIDATION_SIZE = "validation_size"


class ConfigFileError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    methods: list
    axis: str
    grid: list
    N_q: int | None  # fixed budget when sweeping validation size
    trials: int
    seed_base: int
    out: str
    workers: int = 1
    n_s: int | None = None  # default: 20% of N_q
    n_b: int | None = None  # default: 5% of N_q
    train: TrainConfig = field(default_factory=TrainConfig)
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)
    query: QueryConfig = field(default_factory=QueryConfig)
    confidence: object = field(default_factory=conf.AbsMargin)

    @property
    def epsilon_a(self) -> float:
        return self.threshold.epsilon_a


_TOP_KEYS = {"dataset", "methods", "epsilon_a", "sweep", "trials", "seed_base",
             "out", "workers", "confidence", "energy_temperature", "n_s", "n_b",
             "train", "threshold", "query"}
_SWEEP_KEYS = {"axis", "grid", "N_q"}


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigFileError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _number(name: str, value, kind):
    """``value`` of the config key ``name`` read as ``kind``, ``int`` or
    ``float``: a finite number, integral for ``int``. PyYAML follows YAML
    1.1, which reads ``1e-4`` (no dot) as a string."""
    try:
        if isinstance(value, bool):
            raise ValueError
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigFileError(f"{name} must be a number, not {value!r}") from None
    if not math.isfinite(number):
        raise ConfigFileError(f"{name} must be finite, not {value!r}")
    if kind is float:
        return number
    if number.is_integer():
        return value if isinstance(value, int) else int(number)
    raise ConfigFileError(f"{name} must be an integer, not {value!r}")


def _at_least_one(name: str, value) -> int:
    value = _number(name, value, int)
    if value < 1:
        raise ConfigFileError(f"{name} must be >= 1, not {value}")
    return value


def _check_distinct(name: str, values: list) -> None:
    """Reject a repeat in ``values``, the list of the config key ``name``: its
    runs would be written twice and averaged as separate trials."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigFileError(f"{name}[{i}] repeats {v!r}")


def _block(raw: dict, where: str, cls) -> dict:
    """The ``where`` block of ``raw``, its keys checked against the fields of
    ``cls`` (bar ``epsilon_a``, a top-level key) and each value of an ``int``
    or ``float`` field read as that type."""
    block = dict(raw.get(where, {}))
    _check_keys(block, {f.name for f in fields(cls)} - {"epsilon_a"}, where)
    types = get_type_hints(cls)
    for key, value in block.items():
        if types[key] in (int, float):
            block[key] = _number(f"{where}.{key}", value, types[key])
    return block


def load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        raw = yaml.safe_load(f)
    if not isinstance(raw, dict):
        raise ConfigFileError(f"{path}: top level must be a mapping")
    _check_keys(raw, _TOP_KEYS, "top level")
    for key in ("dataset", "methods", "sweep"):
        if key not in raw:
            raise ConfigFileError(f"{path}: missing required key {key!r}")
    ds = _block(raw, "dataset", DatasetSpec)
    dataset = DatasetSpec(**ds)
    if dataset.kind == XOR and ds.get("d", 2) != 2:
        raise ConfigFileError(f"dataset.d must be 2 on kind xor, not {ds['d']}")
    if dataset.kind == MNIST_LINEAR and "d" in ds:
        raise ConfigFileError("dataset.d is not read by kind mnist_linear: "
                              "its images set the dimension")
    for key, kind in (("xor_radius", XOR), ("images_path", MNIST_LINEAR),
                      ("labels_path", MNIST_LINEAR)):
        if key in ds and dataset.kind != kind:
            raise ConfigFileError(f"dataset.{key} is read by kind {kind} only")
    sweep = dict(raw["sweep"])
    _check_keys(sweep, _SWEEP_KEYS, "sweep")
    axis = sweep.get("axis", TRAIN_BUDGET)
    if axis not in (TRAIN_BUDGET, VALIDATION_SIZE):
        raise ConfigFileError(f"sweep.axis must be {TRAIN_BUDGET} or {VALIDATION_SIZE}")
    grid = sweep.get("grid", [])
    if not isinstance(grid, list) or not grid:
        raise ConfigFileError(f"sweep.grid must be a nonempty list, not {grid!r}")
    if axis == TRAIN_BUDGET:
        if "N_q" in sweep:
            raise ConfigFileError("sweep.N_q is not read on a train_budget sweep: "
                                  "its grid values are the budgets")
        N_q = None
        grid = [_at_least_one(f"sweep.grid[{i}]", v) for i, v in enumerate(grid)]
        budget = min(grid)
    else:
        if "N_q" not in sweep:
            raise ConfigFileError("sweep.N_q is required when sweeping validation_size")
        N_q = budget = _at_least_one("sweep.N_q", sweep["N_q"])
        grid = [_number(f"sweep.grid[{i}]", v, int) for i, v in enumerate(grid)]
        for i, v in enumerate(grid):  # 0 is a point without validation data
            if v < 0:
                raise ConfigFileError(f"sweep.grid[{i}] must be >= 0, not {v}")
    _check_distinct("sweep.grid", grid)
    n_s, n_b = (_at_least_one(k, raw[k]) if raw.get(k) is not None else None
                for k in ("n_s", "n_b"))
    if n_s is not None and n_s > budget:
        raise ConfigFileError(f"n_s must not exceed the smallest budget {budget}, not {n_s}")
    tr = _block(raw, "train", TrainConfig)
    train = TrainConfig(**tr)
    if "normalized" in tr and train.loss == LOGISTIC:
        raise ConfigFileError("train.normalized is read by train.loss: hinge only")
    if "init_scale" in tr and (train.loss == LOGISTIC or train.normalized):
        raise ConfigFileError("train.init_scale is read by train.loss: hinge "
                              "with normalized: false only")
    thr = _block(raw, "threshold", ThresholdConfig)
    if thr.get("sigma_kind", SIGMA_KINDS[0]) not in SIGMA_KINDS:
        raise ConfigFileError(f"threshold.sigma_kind must be one of {list(SIGMA_KINDS)}, "
                              f"not {thr['sigma_kind']!r}")
    q = _block(raw, "query", QueryConfig)
    methods = raw["methods"]
    if not isinstance(methods, list) or not methods:
        raise ConfigFileError(f"methods must be a nonempty list, not {methods!r}")
    for m in methods:
        if m not in engine.METHODS:
            raise ConfigFileError(f"unknown method {m!r}")
    _check_distinct("methods", methods)
    confidence = str(raw.get("confidence", "abs_margin"))
    if confidence == "abs_margin" and train.loss == LOGISTIC:
        raise ConfigFileError("confidence: abs_margin is defined for binary models only, "
                              "and train.loss: logistic fits a weight row per class")
    params = {}
    if "energy_temperature" in raw:
        if confidence != "energy":
            raise ConfigFileError("energy_temperature is read by confidence: energy only")
        params["temperature"] = _number("energy_temperature",
                                        raw["energy_temperature"], float)
    return ExperimentConfig(
        dataset=dataset,
        methods=methods,
        axis=axis,
        grid=grid,
        N_q=N_q,
        trials=_at_least_one("trials", raw.get("trials", 1)),
        seed_base=_number("seed_base", raw.get("seed_base", 0), int),
        out=str(raw.get("out", "results")),
        workers=_at_least_one("workers", raw.get("workers", 1)),
        n_s=n_s,
        n_b=n_b,
        train=train,
        threshold=ThresholdConfig(
            epsilon_a=_number("epsilon_a", raw.get("epsilon_a", 0.01), float), **thr),
        query=QueryConfig(**q),
        confidence=conf.make_kind(confidence, **params),
    )


def build_run_config(exp: ExperimentConfig, method: str, N_q: int) -> engine.RunConfig:
    n_s = exp.n_s if exp.n_s is not None else max(1, round(0.2 * N_q))
    n_b = exp.n_b if exp.n_b is not None else max(1, round(0.05 * N_q))
    return engine.RunConfig(
        method=method, n_s=n_s, n_b=n_b, N_q=N_q,
        threshold=exp.threshold, query=exp.query, train=exp.train,
        confidence=exp.confidence)


def _subsample_validation(val: ValidationSet, n: int, seed: int) -> ValidationSet:
    if n >= len(val):
        return val
    idx = rng_from(seed, "val_subsample").choice(len(val), size=n, replace=False)
    return ValidationSet(val.matrix, val.labels[idx], rows=val.rows[idx])


def _point_inputs(exp: ExperimentConfig, axis_value: int, trial: int):
    """(pool, validation set, N_q, seed) of one grid value and trial."""
    seed = exp.seed_base + trial
    pool, val = make_dataset(exp.dataset, seed)
    if exp.axis == VALIDATION_SIZE:
        return pool, _subsample_validation(val, axis_value, seed), exp.N_q, seed
    return pool, val, axis_value, seed


def _trial_chunks(exp: ExperimentConfig) -> list:
    """The sweep's trials in contiguous chunks, one per worker; a grid value
    and a chunk make a group (see ``run_single``). A logistic sweep runs one
    trial per group: its fits do not stack (see ``model.fit_many``), and a
    group holds the datasets of all its trials at once."""
    if exp.train.loss == LOGISTIC:
        return [[t] for t in range(exp.trials)]
    n = min(exp.workers, exp.trials)
    q, r = divmod(exp.trials, n)
    starts = [i * q + min(i, r) for i in range(n + 1)]
    return [list(range(a, b)) for a, b in zip(starts, starts[1:])]


def _row(method: str, axis_value: int, result: engine.RunResult) -> dict:
    """The ``runs.csv`` row of a finished run."""
    report = metrics.evaluate(result, result.pool)
    return {
        "method": method, "axis_value": axis_value, "seed": result.seed,
        "err_hat": report.err_hat, "cov_hat": report.cov_hat,
        "human_labels": result.human_labels_used,
        "val_labels": result.val_labels_used, "rounds": result.k,
    }


def _group_outcomes(exp: ExperimentConfig, methods: list, axis_value: int,
                    trials: list) -> dict:
    """{(method, trial): row or exception} of the runs of ``methods`` at one
    grid value and ``trials``: the trials' datasets are built, the runs go
    through ``engine.run_many`` in lockstep, and each run becomes its row as
    it ends, so only the row outlives it."""
    inputs = [_point_inputs(exp, axis_value, t) for t in trials]
    cfgs = [build_run_config(exp, m, inputs[0][2]) for m in methods]
    outcomes = {}
    runs = engine.run_many([(pool, val, seed) for pool, val, _, seed in inputs], cfgs)
    for i, method, outcome in runs:
        if not isinstance(outcome, Exception):
            try:
                outcome = _row(method, axis_value, outcome)
            except Exception as e:
                outcome = e
        outcomes[method, trials[i]] = outcome
    return outcomes


def run_single(exp: ExperimentConfig, method: str, axis_value: int, trial: int,
               group: dict | None = None):
    """The ``runs.csv`` row of the run (method, grid value, trial).

    ``group``, a dict kept across the runs of one grid value and chunk of
    trials, names its "methods" and "trials". The group's first call runs
    all of them (``_group_outcomes``) and keeps each run's row or error in
    it; every call returns its own row or raises its own error. None is a
    group of this run alone."""
    if group is None:
        group = {"methods": [method], "trials": [trial]}
    if "outcomes" not in group:
        group["outcomes"] = _group_outcomes(exp, group["methods"], axis_value,
                                            group["trials"])
    outcome = group["outcomes"].pop((method, trial))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _group_runs(exp: ExperimentConfig, axis_value: int, trials: list):
    """Yield ((method, grid value, trial), row, error) for each run of one
    group, ``trials`` at one grid value: one ``run_single`` call per run,
    trial by trial, sharing the group. A failure comes back as its message,
    so a sweep keeps the other runs' results."""
    group = {"methods": exp.methods, "trials": trials}
    for trial in trials:
        for method in exp.methods:
            try:
                outcome = run_single(exp, method, axis_value, trial, group), None
            except Exception as e:
                outcome = None, str(e)
            yield (method, axis_value, trial), *outcome


def _run_group(group):
    """All of ``_group_runs`` for one (exp, grid value, trials), in one worker."""
    return list(_group_runs(*group))


def _fmt(v) -> str:
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.6f}"
    return str(v)


def run_experiment(exp: ExperimentConfig) -> int:
    """Execute the full sweep; returns 0 when every run completed."""
    groups = [(exp, g, trials) for g in exp.grid for trials in _trial_chunks(exp)]
    if exp.workers > 1:
        # imported here: it adds to every start-up, and a serial sweep
        # never reads it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=exp.workers) as ex:
            outcomes = [o for runs in ex.map(_run_group, groups) for o in runs]
    else:  # lazy: failures print as they happen
        outcomes = (o for group in groups for o in _group_runs(*group))
    rows, failed = [], 0
    for task, row, error in outcomes:
        if error is None:
            rows.append(row)
        else:  # keep partial results on mid-sweep failure
            print(f"run failed for {task}: {error}", file=sys.stderr)
            failed += 1
    rows.sort(key=lambda r: (r["method"], r["axis_value"], r["seed"]))
    os.makedirs(exp.out, exist_ok=True)
    runs_path = os.path.join(exp.out, "runs.csv")
    with open(runs_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RUN_HEADER)
        for r in rows:
            w.writerow([_fmt(r[k]) for k in RUN_HEADER])
    summary_path = os.path.join(exp.out, "summary.csv")
    with open(summary_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SUMMARY_HEADER)
        for m in sorted(exp.methods):
            for g in sorted(set(exp.grid)):
                sub = [r for r in rows if r["method"] == m and r["axis_value"] == g]
                if not sub:
                    continue
                errs = [r["err_hat"] for r in sub]
                # the error is undefined (nan) in a trial that labeled nothing
                defined = [e for e in errs if not math.isnan(e)]
                em, es = metrics.summarize_trials(defined) if defined else (math.nan,) * 2
                cm, cs = metrics.summarize_trials([r["cov_hat"] for r in sub])
                # the trials over epsilon_a; a nan err_hat is not over
                over = sum(e > exp.epsilon_a for e in errs)
                w.writerow([m, g, _fmt(em), _fmt(es), _fmt(cm), _fmt(cs),
                            _fmt(over / len(errs)), len(defined),
                            _fmt(metrics.clopper_pearson_upper(over, len(errs)))])
    print(f"wrote {runs_path} and {summary_path}")
    return 0 if failed == 0 else 1


def print_summary(out_dir: str) -> None:
    """Print the method summary table of the summary.csv in ``out_dir``."""
    with open(os.path.join(out_dir, "summary.csv")) as fh:
        rows = list(csv.DictReader(fh))
    print(f"\n{'method':>6} {'axis':>6} {'err_mean':>9} {'err_std':>8} "
          f"{'cov_mean':>9} {'cov_std':>8}")
    for r in rows:
        print(f"{r['method']:>6} {r['axis_value']:>6} "
              f"{float(r['err_hat_mean']):>9.4f} {float(r['err_hat_std']):>8.4f} "
              f"{float(r['cov_hat_mean']):>9.4f} {float(r['cov_hat_std']):>8.4f}")


def export_dataset(result, path: str, include_features: bool = False) -> None:
    """Write the labeled output: one row per pool point with provenance."""
    pool = result.pool
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["id", "label", "provenance", "round"]
        if include_features:
            header += [f"x{j}" for j in range(pool.dimension)]
        w.writerow(header)
        states = zip(pool.kind.tolist(), pool.label.tolist(), pool.round.tolist())
        for i, (code, label, rnd) in enumerate(states):
            kind = KINDS[code]  # the provenance column is the kind's name
            row = [i, "" if kind == UNLABELED else label, kind, rnd if kind == AUTO else ""]
            if include_features:
                row += [f"{v:.8g}" for v in pool.gather(i)]
            w.writerow(row)


def _load(args) -> ExperimentConfig | None:
    """The config of ``args.config`` with ``--seed`` and ``--workers``
    applied; None, after printing the reason, when the config is invalid."""
    try:
        exp = load_config(args.config)
        if getattr(args, "workers", None) is not None:
            exp.workers = _at_least_one("--workers", args.workers)
    except (ConfigFileError, TypeError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return None
    if args.seed is not None:
        exp.seed_base = args.seed
    return exp


def _cmd_run(args) -> int:
    exp = _load(args)
    if exp is None:
        return 2
    if args.out is not None:
        exp.out = args.out
    status = run_experiment(exp)
    print_summary(exp.out)
    return status


def _cmd_bounds(args) -> int:
    try:
        if args.evaluator == "rademacher":
            v = theory.rademacher_vc(args.n, args.d)
        elif args.evaluator == "coverage":
            v = theory.coverage_bound_linear(args.t_hat_min, args.d, args.k,
                                             args.N, args.delta)
        elif args.evaluator == "band":
            v = theory.band_probability_bound(args.gamma1, args.gamma2, args.d)
        elif args.evaluator == "min-validation":
            v = theory.min_validation_size(args.sigma, args.epsilon, args.c2)
        else:  # error bound
            k = args.k
            inputs = theory.BoundInputs(
                d=args.d, k=k, delta=args.delta, p0=args.p0,
                n_v=[args.n_v] * k, n_a=[args.N_a // k] * k,
                e_val=[args.e_val] * k, N_a=args.N_a)
            v = theory.error_bound_vc(inputs)
    except theory.DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 2
    print(v)
    return 0


def _cmd_export(args) -> int:
    exp = _load(args)
    if exp is None:
        return 2
    pool, val, N_q, seed = _point_inputs(exp, exp.grid[0], trial=0)
    result = engine.run(pool, val, build_run_config(exp, args.method, N_q), seed)
    export_dataset(result, args.out, include_features=args.features)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tbal",
                                description="threshold-based auto-labeling harness")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="execute a sweep from a config file")
    pr.add_argument("--config", required=True)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--workers", type=int, default=None)
    pr.add_argument("--out", default=None)
    pr.set_defaults(fn=_cmd_run)

    pb = sub.add_parser("bounds", help="evaluate theory bounds")
    bsub = pb.add_subparsers(dest="evaluator", required=True)
    b1 = bsub.add_parser("rademacher")
    b1.add_argument("--n", type=int, required=True)
    b1.add_argument("--d", type=int, required=True)
    b2 = bsub.add_parser("error")
    b2.add_argument("--d", type=int, required=True)
    b2.add_argument("--k", type=int, default=1)
    b2.add_argument("--delta", type=float, default=0.05)
    b2.add_argument("--p0", type=float, default=0.5)
    b2.add_argument("--n-v", dest="n_v", type=int, required=True)
    b2.add_argument("--N-a", dest="N_a", type=int, required=True)
    b2.add_argument("--e-val", dest="e_val", type=float, default=0.0)
    b3 = bsub.add_parser("coverage")
    b3.add_argument("--t-hat-min", dest="t_hat_min", type=float, required=True)
    b3.add_argument("--d", type=int, required=True)
    b3.add_argument("--k", type=int, default=1)
    b3.add_argument("--N", type=int, required=True)
    b3.add_argument("--delta", type=float, default=0.05)
    b4 = bsub.add_parser("band")
    b4.add_argument("--gamma1", type=float, required=True)
    b4.add_argument("--gamma2", type=float, required=True)
    b4.add_argument("--d", type=int, required=True)
    b5 = bsub.add_parser("min-validation")
    b5.add_argument("--sigma", type=float, required=True)
    b5.add_argument("--epsilon", type=float, required=True)
    b5.add_argument("--c2", type=float, default=math.e / 4)
    pb.set_defaults(fn=_cmd_bounds)

    pe = sub.add_parser("export", help="run a config's first grid point, export labels")
    pe.add_argument("--config", required=True)
    pe.add_argument("--method", choices=engine.METHODS, default="tbal")
    pe.add_argument("--seed", type=int, default=None)
    pe.add_argument("--features", action="store_true")
    pe.add_argument("--out", required=True)
    pe.set_defaults(fn=_cmd_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
