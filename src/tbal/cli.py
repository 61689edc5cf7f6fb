"""Experiment harness and command-line entry point.

Subcommands:
  run     execute a sweep from a YAML config, write per-run + summary CSVs
  bounds  evaluate the theory bounds with named flags
  gen     generate a synthetic dataset and write it to CSV
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import yaml

from . import confidence as conf
from . import engine
from . import metrics
from . import theory
from .core import AUTO, KINDS, UNLABELED, ValidationSet, rng_from
from .data import DatasetSpec, gen_unit_ball, gen_xor, make_dataset
from .model import TrainConfig
from .query import QueryConfig
from .threshold import SIGMA_KINDS, ThresholdConfig

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
    query: QueryConfig = field(default_factory=QueryConfig)  # batch set per run
    confidence: object = field(default_factory=conf.AbsMargin)

    @property
    def epsilon_a(self) -> float:
        return self.threshold.epsilon_a


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


def _at_least_one(name: str, value) -> int:
    value = int(value)
    if value < 1:
        raise ConfigFileError(f"{name} must be >= 1, not {value}")
    return value


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
    if axis == TRAIN_BUDGET and "N_q" in sweep:
        raise ConfigFileError("sweep.N_q is not read on a train_budget sweep: "
                              "its grid values are the budgets")
    train_block = dict(raw.get("train", {}))
    _check_keys(train_block, _TRAIN_KEYS, "train")
    thr = dict(raw.get("threshold", {}))
    _check_keys(thr, _THRESHOLD_KEYS, "threshold")
    if thr.get("sigma_kind", SIGMA_KINDS[0]) not in SIGMA_KINDS:
        raise ConfigFileError(f"threshold.sigma_kind must be one of {list(SIGMA_KINDS)}, "
                              f"not {thr['sigma_kind']!r}")
    q = dict(raw.get("query", {}))
    _check_keys(q, _QUERY_KEYS, "query")
    methods = list(raw["methods"])
    for m in methods:
        if m not in engine.METHODS:
            raise ConfigFileError(f"unknown method {m!r}")
    confidence = str(raw.get("confidence", "abs_margin"))
    if confidence not in conf.KINDS:
        raise ConfigFileError(f"unknown confidence kind {confidence!r}")
    params = {}
    if "energy_temperature" in raw:
        if confidence != "energy":
            raise ConfigFileError("energy_temperature is read by confidence: energy only")
        params["temperature"] = float(raw["energy_temperature"])
    return ExperimentConfig(
        dataset=DatasetSpec(**ds),
        methods=methods,
        axis=axis,
        grid=[int(v) for v in grid],
        N_q=int(sweep["N_q"]) if "N_q" in sweep else None,
        trials=_at_least_one("trials", raw.get("trials", 1)),
        seed_base=int(raw.get("seed_base", 0)),
        out=str(raw.get("out", "results")),
        workers=_at_least_one("workers", raw.get("workers", 1)),
        n_s=int(raw["n_s"]) if "n_s" in raw else None,
        n_b=int(raw["n_b"]) if "n_b" in raw else None,
        train=TrainConfig(**train_block),
        threshold=ThresholdConfig(epsilon_a=float(raw.get("epsilon_a", 0.01)), **thr),
        query=QueryConfig(**q),
        confidence=conf.make_kind(confidence, **params),
    )


def build_run_config(exp: ExperimentConfig, method: str, N_q: int) -> engine.RunConfig:
    n_s = exp.n_s if exp.n_s is not None else max(1, round(0.2 * N_q))
    n_b = exp.n_b if exp.n_b is not None else max(1, round(0.05 * N_q))
    return engine.RunConfig(
        method=method, epsilon_a=exp.epsilon_a, n_s=n_s, n_b=n_b, N_q=N_q,
        threshold=exp.threshold, query=exp.query, train=exp.train,
        confidence=exp.confidence)


def _subsample_validation(val: ValidationSet, n: int, seed: int) -> ValidationSet:
    if n >= len(val):
        return val
    idx = rng_from(seed, "val_subsample").choice(len(val), size=n, replace=False)
    return ValidationSet(val.features[idx], val.labels[idx])


def _point_inputs(exp: ExperimentConfig, axis_value: int, trial: int):
    """(pool, validation set, N_q, seed) of one grid value and trial."""
    seed = exp.seed_base + trial
    pool, val = make_dataset(exp.dataset, seed)
    if exp.axis == VALIDATION_SIZE:
        return pool, _subsample_validation(val, axis_value, seed), exp.N_q, seed
    return pool, val, axis_value, seed


def _run_point(exp: ExperimentConfig, method: str, axis_value: int, trial: int,
               shared: dict | None = None) -> engine.RunResult:
    """The engine run of one sweep point: (method, grid value, trial).

    ``shared``, a dict kept across the methods of one grid value and trial,
    holds the point's dataset, built by the first run that needs it, and the
    engine's memo of trajectories (see ``engine.run``)."""
    if shared is None:
        shared = {}
    if "inputs" not in shared:
        shared["inputs"] = _point_inputs(exp, axis_value, trial)
    pool, val, N_q, seed = shared["inputs"]
    return engine.run(pool, val, build_run_config(exp, method, N_q), seed,
                      memo=shared.setdefault("trajectories", {}))


def run_single(exp: ExperimentConfig, method: str, axis_value: int, trial: int,
               shared: dict | None = None):
    result = _run_point(exp, method, axis_value, trial, shared)
    report = metrics.evaluate(result, result.pool)
    return {
        "method": method, "axis_value": axis_value, "seed": result.seed,
        "err_hat": report.err_hat, "cov_hat": report.cov_hat,
        "human_labels": report.human_labels_used,
        "val_labels": report.val_labels_used, "rounds": result.k,
    }


def _group_runs(exp: ExperimentConfig, axis_value: int, trial: int):
    """Yield ((method, grid value, trial), row, error) for each method at one
    grid value and trial, one ``run_single`` call each. The calls share the
    dataset and the trajectories (al/alsc, pl/plsc); a trajectory is dropped
    after the last run that reads it. A failure comes back as its message,
    so a sweep keeps the other runs' results."""
    keys = [engine.trajectory_key(m, exp.query.strategy) for m in exp.methods]
    shared: dict = {}
    for i, method in enumerate(exp.methods):
        try:
            outcome = run_single(exp, method, axis_value, trial, shared), None
        except Exception as e:
            outcome = None, str(e)
        if keys[i] not in keys[i + 1:]:
            shared.get("trajectories", {}).pop(keys[i], None)
        yield (method, axis_value, trial), *outcome


def _run_group(group):
    """All of ``_group_runs`` for one (exp, grid value, trial), in one worker."""
    return list(_group_runs(*group))


def _fmt(v) -> str:
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.6f}"
    return str(v)


def run_experiment(exp: ExperimentConfig) -> int:
    """Execute the full sweep; returns 0 when every run completed."""
    groups = [(exp, g, t) for g in exp.grid for t in range(exp.trials)]
    if exp.workers > 1:
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
                covs = [r["cov_hat"] for r in sub]
                em, es = metrics.summarize_trials(errs)
                cm, cs = metrics.summarize_trials(covs)
                w.writerow([m, g, _fmt(em), _fmt(es), _fmt(cm), _fmt(cs)])
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
                row += [f"{v:.8g}" for v in pool.features[i]]
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
    exp = _load(args)
    if exp is None:
        return 2
    result = _run_point(exp, args.method, exp.grid[0], trial=0)
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
