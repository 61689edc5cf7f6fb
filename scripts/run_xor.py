#!/usr/bin/env python
"""Run the XOR disks comparison and print the method summary table.

Equivalent to `tbal run --config configs/xor.yaml` followed by a quick
look at summary.csv.
"""
import argparse
import sys
from pathlib import Path

from tbal.cli import load_config, print_summary, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(ROOT / "configs" / "xor.yaml"))
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    exp = load_config(args.config)
    if args.trials is not None:
        exp.trials = args.trials
    if args.workers is not None:
        exp.workers = args.workers
    status = run_experiment(exp)
    print_summary(exp.out)
    sys.exit(status)


if __name__ == "__main__":
    main()
