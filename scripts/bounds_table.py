#!/usr/bin/env python
"""Evaluate the theory bounds on a small unit-ball run and print a table.

Runs iterative auto-labeling once, builds plug-in bound inputs from the run
record, and reports the error bound alongside the observed error, plus the
coverage lower bound and the minimum-validation-size rule for a few settings.
"""
import argparse

import numpy as np

from tbal import engine, metrics, theory
from tbal.data import DatasetSpec, make_dataset
from tbal.model import TrainConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=5)
    ap.add_argument("--n-total", type=int, default=4000)
    ap.add_argument("--budget", type=int, default=150)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = DatasetSpec(kind="unit_ball", d=args.d, n_total=args.n_total,
                       pool_size=args.n_total // 2, val_size=args.n_total // 2)
    pool, val = make_dataset(spec, args.seed)
    cfg = engine.RunConfig(
        method="tbal", epsilon_a=0.05,
        n_s=max(1, args.budget // 5), n_b=max(1, args.budget // 20),
        N_q=args.budget,
        train=TrainConfig(loss="hinge", learning_rate=3.0, normalized=True),
    )
    result = engine.run(pool, val, cfg, args.seed)
    report = metrics.evaluate(result, result.pool)
    print(f"run: d={args.d} N_q={args.budget} rounds={result.k} "
          f"N_a={result.N_a} err={report.err_hat:.4f} cov={report.cov_hat:.4f}")

    inputs = theory.inputs_from_run(result, d=args.d)
    if inputs is None:
        print("no auto-labeled points; error bound not evaluable")
    else:
        bound = theory.error_bound_vc(inputs)
        tag = "vacuous" if bound >= 1.0 else "binding"
        print(f"error bound: {bound:.4f} ({tag}), observed {report.err_hat:.4f}")

    finite_ts = [float(t) for r in result.rounds if r.decision is not None
                 for t in r.decision.thresholds if np.isfinite(t)]
    t_min = min(finite_ts, default=None)
    if t_min is not None and 0.0 <= t_min <= 1.0:
        cov_lb = theory.coverage_bound_linear(
            t_min, d=args.d, k=result.k, N=len(result.pool), delta=0.05)
        # coverage is at least 0, so a bound at or below it says nothing
        tag = "vacuous" if cov_lb <= 0.0 else "binding"
        print(f"coverage lower bound at t_min={t_min:.3f}: {cov_lb:.4f} ({tag}), "
              f"observed {report.cov_hat:.4f}")

    print("\nminimum validation size (sigma, epsilon) -> n_v")
    for sigma, eps in [(1.0, 0.1), (1.0, 0.05), (0.5, 0.05)]:
        print(f"  ({sigma}, {eps}) -> {theory.min_validation_size(sigma, eps)}")


if __name__ == "__main__":
    main()
