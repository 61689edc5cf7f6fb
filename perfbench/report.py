"""Run every workload untraced and traced, print the end-to-end and per-layer
tables, and check what each workload was chosen to show.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--baseline FILE]

Each of the six runs is a separate ``run.py`` process, run one after another.
With ``--baseline`` the results and the environment are also written to FILE
as JSON (``perfbench/baseline.json`` holds the recorded baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("xor_sweep", "unit_ball_wide_pool", "gauss_k10")
CORE_S = ("core.ids_with.s", "core.mark.s", "core.check_partition.s", "core.copy.s")
LAYER_S = ("threshold.estimate.s", "engine.self_s", "query.s", "confidence.score.s",
           "data.make_dataset.s", "metrics.evaluate.s", "cli.write_s")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return env, json.loads(lines[-1])


def claims(layers):
    """What the trace should confirm, as (claim, holds) pairs."""
    out = []
    for w in ("xor_sweep", "gauss_k10"):
        m = layers[w]
        core = sum(m[n] for n in CORE_S)
        others = max([core] + [m[n] for n in LAYER_S])
        out.append((f"{w}: model.fit has the largest time of any layer",
                    m["model.fit.s"] > others))
    m = layers["unit_ball_wide_pool"]
    bookkeeping = m["threshold.estimate.s"] + sum(m[n] for n in CORE_S) + m["engine.self_s"]
    out.append(("unit_ball_wide_pool: threshold + core + engine.self_s exceed model.fit",
                bookkeeping > m["model.fit.s"]))
    out.append(("xor_sweep: model.fit.useful_frac < 1",
                layers["xor_sweep"]["model.fit.useful_frac"] < 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--baseline", default=None, help="write the results to this JSON file")
    args = ap.parse_args(argv)

    results, env = {}, None
    for w in WORKLOADS:
        for trace in (0, 1):
            env, results[w, trace] = run(w, args.seed, args.seconds, trace)
            print()

    print(f"seed {args.seed}, {args.seconds:g} s per run; env {json.dumps(env, sort_keys=True)}")
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per layer (traced)")):
        print(f"\n{title}")
        print(f"  {'metric':32s}" + "".join(f"{w:>22s}" for w in WORKLOADS) + "  unit")
        names = results[WORKLOADS[0], trace]["metrics"]
        for n in names:
            vals = "".join(f"{results[w, trace]['metrics'][n]['value']:22.6g}" for w in WORKLOADS)
            print(f"  {n:32s}{vals}  {names[n]['unit']}")
        print(f"  {'correct / attempted / failed':32s}" + "".join(
            f"{str(r['correct']) + ' / ' + str(r['attempted']) + ' / ' + str(r['failed']):>22s}"
            for r in (results[w, trace] for w in WORKLOADS)))

    layers = {w: {n: v["value"] for n, v in results[w, 1]["metrics"].items()} for w in WORKLOADS}
    print("\nworkload claims")
    checks = claims(layers)
    for text, holds in checks:
        print(f"  [{'ok' if holds else 'NOT MET'}] {text}")

    if args.baseline:
        doc = {"seed": args.seed, "seconds": args.seconds, "env": env,
               "workloads": {w: {"untraced": results[w, 0], "traced": results[w, 1]}
                             for w in WORKLOADS},
               "claims": {text: holds for text, holds in checks}}
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"wrote {args.baseline}")
    ok = all(r["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
