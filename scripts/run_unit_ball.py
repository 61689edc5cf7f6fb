#!/usr/bin/env python
"""Run the unit-ball sweeps: budget sweep and validation-size sweep.

Each sweep reads its config from configs/ and writes runs.csv / summary.csv
under the config's `out` directory.
"""
import argparse
import sys
from pathlib import Path

from tbal.cli import load_config, print_summary, run_experiment

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {
    "budget": ROOT / "configs" / "unit_ball_budget.yaml",
    "validation": ROOT / "configs" / "unit_ball_validation.yaml",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sweep", choices=[*CONFIGS, "all"], default="all")
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    names = list(CONFIGS) if args.sweep == "all" else [args.sweep]
    status = 0
    for name in names:
        print(f"=== unit-ball {name} sweep ===")
        exp = load_config(str(CONFIGS[name]))
        if args.trials is not None:
            exp.trials = args.trials
        if args.workers is not None:
            exp.workers = args.workers
        status |= run_experiment(exp)
        print_summary(exp.out)
    sys.exit(status)


if __name__ == "__main__":
    main()
