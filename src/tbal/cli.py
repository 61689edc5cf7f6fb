"""Experiment harness and command-line entry point.

Subcommands:
  run     execute a sweep from a YAML config, write per-run + summary CSVs
  bounds  evaluate the theory bounds with named flags
  gen     generate a synthetic dataset and write it to CSV
  export  run one configuration and export the labeled output dataset

Config files are strict: unknown keys are rejected (exit code 2) so typos
cannot silently corrupt a sweep.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import confidence as conf
from . import engine
from . import metrics
from . import theory
from .core import AUTO, KINDS, UNLABELED, ValidationSet, rng_from
from .data import DatasetSpec, gen_unit_ball, gen_xor, make_dataset
from .model import TrainConfig
from .query import QueryConfig
from .threshold import ThresholdConfig

RUN_HEADER = ["method", "axis_value", "seed", "err_hat", "cov_hat",
              "human_labels", "val_labels", "rounds"]
SUMMARY_HEADER = ["method", "axis_value", "err_hat_mean", "err_hat_std",
                  "cov_hat_mean", "cov_hat_std"]

TRAIN_BUDGET = "train_budget"
VALIDATION_SIZE = "validation_size"


class ConfigFileError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    methods: list
    epsilon_a: float
    axis: str
    grid: list
    N_q: int | None  # fixed budget when sweeping validation size
    trials: int
    seed_base: int
    out: str
    workers: int = 1
    confidence: str = "abs_margin"
    energy_temperature: float = 1.0
    n_s: int | None = None  # default: 20% of N_q
    n_b: int | None = None  # default: 5% of N_q
    train: TrainConfig = field(default_factory=TrainConfig)
    threshold_n0: int = 25
    threshold_sigma: str = "stderr"
    threshold_delta: float = 0.05
    per_class: bool = True
    query_strategy: str = "margin_random"
    query_C: float = 2.0


_TOP_KEYS = {"dataset", "methods", "epsilon_a", "sweep", "trials", "seed_base",
             "out", "workers", "confidence", "energy_temperature", "n_s", "n_b",
             "train", "threshold", "query"}
_DATASET_KEYS = {"kind", "d", "n_total", "pool_size", "val_size", "xor_radius",
                 "images_path", "labels_path"}
_SWEEP_KEYS = {"axis", "grid", "N_q"}
_TRAIN_KEYS = {"loss", "epochs", "learning_rate", "l2", "batch_size",
               "tolerance", "init_scale", "normalized"}
_THRESHOLD_KEYS = {"n0", "sigma_kind", "delta", "per_class"}
_QUERY_KEYS = {"strategy", "C"}


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigFileError(f"unknown key(s) in {where}: {sorted(unknown)}")


def load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        raw = yaml.safe_load(f)
    if not isinstance(raw, dict):
        raise ConfigFileError(f"{path}: top level must be a mapping")
    _check_keys(raw, _TOP_KEYS, "top level")
    for key in ("dataset", "methods", "sweep"):
        if key not in raw:
            raise ConfigFileError(f"{path}: missing required key {key!r}")
    ds = dict(raw["dataset"])
    _check_keys(ds, _DATASET_KEYS, "dataset")
    sweep = dict(raw["sweep"])
    _check_keys(sweep, _SWEEP_KEYS, "sweep")
    axis = sweep.get("axis", TRAIN_BUDGET)
    if axis not in (TRAIN_BUDGET, VALIDATION_SIZE):
        raise ConfigFileError(f"sweep.axis must be {TRAIN_BUDGET} or {VALIDATION_SIZE}")
    grid = sweep.get("grid", [])
    if not grid:
        raise ConfigFileError("sweep.grid must be nonempty")
    if axis == VALIDATION_SIZE and "N_q" not in sweep:
        raise ConfigFileError("sweep.N_q is required when sweeping validation_size")
    train_block = dict(raw.get("train", {}))
    _check_keys(train_block, _TRAIN_KEYS, "train")
    thr = dict(raw.get("threshold", {}))
    _check_keys(thr, _THRESHOLD_KEYS, "threshold")
    q = dict(raw.get("query", {}))
    _check_keys(q, _QUERY_KEYS, "query")
    methods = list(raw["methods"])
    for m in methods:
        if m not in engine.METHODS:
            raise ConfigFileError(f"unknown method {m!r}")
    return ExperimentConfig(
        dataset=DatasetSpec(**ds),
        methods=methods,
        epsilon_a=float(raw.get("epsilon_a", 0.01)),
        axis=axis,
        grid=[int(v) for v in grid],
        N_q=int(sweep["N_q"]) if "N_q" in sweep else None,
        trials=int(raw.get("trials", 1)),
        seed_base=int(raw.get("seed_base", 0)),
        out=str(raw.get("out", "results")),
        workers=int(raw.get("workers", 1)),
        confidence=str(raw.get("confidence", "abs_margin")),
        energy_temperature=float(raw.get("energy_temperature", 1.0)),
        n_s=int(raw["n_s"]) if "n_s" in raw else None,
        n_b=int(raw["n_b"]) if "n_b" in raw else None,
        train=TrainConfig(**train_block),
        threshold_n0=int(thr.get("n0", 25)),
        threshold_sigma=str(thr.get("sigma_kind", "stderr")),
        threshold_delta=float(thr.get("delta", 0.05)),
        per_class=bool(thr.get("per_class", True)),
        query_strategy=str(q.get("strategy", "margin_random")),
        query_C=float(q.get("C", 2.0)),
    )


def _confidence_kind(exp: ExperimentConfig):
    if exp.confidence == "energy":
        return conf.Energy(temperature=exp.energy_temperature)
    return conf.make_kind(exp.confidence)


def build_run_config(exp: ExperimentConfig, method: str, N_q: int) -> engine.RunConfig:
    n_s = exp.n_s if exp.n_s is not None else max(1, round(0.2 * N_q))
    n_b = exp.n_b if exp.n_b is not None else max(1, round(0.05 * N_q))
    return engine.RunConfig(
        method=method, epsilon_a=exp.epsilon_a, n_s=n_s, n_b=n_b, N_q=N_q,
        threshold=ThresholdConfig(epsilon_a=exp.epsilon_a, n0=exp.threshold_n0,
                                  sigma_kind=exp.threshold_sigma,
                                  delta=exp.threshold_delta,
                                  per_class=exp.per_class),
        query=QueryConfig(strategy=exp.query_strategy, batch=n_b, C=exp.query_C),
        train=exp.train,
        confidence=_confidence_kind(exp),
    )


def _subsample_validation(val: ValidationSet, n: int, seed: int) -> ValidationSet:
    if n >= len(val):
        return val
    idx = rng_from(seed, "val_subsample").choice(len(val), size=n, replace=False)
    return ValidationSet(val.features[idx], val.labels[idx])


def run_single(exp: ExperimentConfig, method: str, axis_value: int, trial: int):
    seed = exp.seed_base + trial
    pool, val = make_dataset(exp.dataset, seed)
    if exp.axis == VALIDATION_SIZE:
        N_q = exp.N_q
        val = _subsample_validation(val, axis_value, seed)
    else:
        N_q = axis_value
    cfg = build_run_config(exp, method, N_q)
    result = engine.run(pool, val, cfg, seed)
    report = metrics.evaluate(result, result.pool)
    return {
        "method": method, "axis_value": axis_value, "seed": seed,
        "err_hat": report.err_hat, "cov_hat": report.cov_hat,
        "human_labels": report.human_labels_used,
        "val_labels": report.val_labels_used, "rounds": result.k,
    }


def _run_task(task):
    """run_single on one task; a failure comes back as its message, so a
    parallel sweep keeps the other runs' results just as a serial one does."""
    try:
        return run_single(*task), None
    except Exception as e:
        return None, str(e)


def _fmt(v) -> str:
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.6f}"
    return str(v)


def run_experiment(exp: ExperimentConfig) -> int:
    """Execute the full sweep; returns 0 when every run completed."""
    tasks = [(exp, m, g, t)
             for m in exp.methods for g in exp.grid for t in range(exp.trials)]
    if exp.workers > 1:
        with ProcessPoolExecutor(max_workers=exp.workers) as ex:
            outcomes = list(ex.map(_run_task, tasks))
    else:
        outcomes = map(_run_task, tasks)  # lazy: failures print as they happen
    rows, failed = [], 0
    for task, (row, error) in zip(tasks, outcomes):
        if error is None:
            rows.append(row)
        else:  # keep partial results on mid-sweep failure
            print(f"run failed for {task[1:]}: {error}", file=sys.stderr)
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
                covs = [r["cov_hat"] for r in sub]
                em, es = metrics.summarize_trials(errs)
                cm, cs = metrics.summarize_trials(covs)
                w.writerow([m, g, _fmt(em), _fmt(es), _fmt(cm), _fmt(cs)])
    print(f"wrote {runs_path} and {summary_path}")
    return 0 if failed == 0 else 1


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
                row += [f"{v:.8g}" for v in pool.features[i]]
            w.writerow(row)


def _cmd_run(args) -> int:
    try:
        exp = load_config(args.config)
    except (ConfigFileError, TypeError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.seed is not None:
        exp.seed_base = args.seed
    if args.out is not None:
        exp.out = args.out
    if args.workers is not None:
        exp.workers = args.workers
    return run_experiment(exp)


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


def _cmd_gen(args) -> int:
    if args.kind == "unit_ball":
        x, y = gen_unit_ball(args.d, args.n, args.seed)
    elif args.kind == "xor":
        x, y = gen_xor(args.n, args.radius, args.seed)
    else:
        print(f"unknown kind {args.kind!r}", file=sys.stderr)
        return 2
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"x{j}" for j in range(x.shape[1])] + ["label"])
        for row, lab in zip(x, y):
            w.writerow([f"{v:.8g}" for v in row] + [int(lab)])
    print(f"wrote {args.out}")
    return 0


def _cmd_export(args) -> int:
    try:
        exp = load_config(args.config)
    except (ConfigFileError, TypeError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else exp.seed_base
    pool, val = make_dataset(exp.dataset, seed)
    N_q = exp.N_q if exp.N_q is not None else exp.grid[0]
    cfg = build_run_config(exp, args.method, N_q)
    result = engine.run(pool, val, cfg, seed)
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

    pg = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    pg.add_argument("--kind", choices=["unit_ball", "xor"], required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--d", type=int, default=30)
    pg.add_argument("--radius", type=float, default=1.0)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", required=True)
    pg.set_defaults(fn=_cmd_gen)

    pe = sub.add_parser("export", help="run one config and export the labeled dataset")
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
