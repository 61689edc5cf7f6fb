"""Benchmark for the ``tbal`` package: one workload and one seed per call.

    python3 perfbench/run.py --workload xor_sweep --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory. BLAS and OpenMP are pinned to one thread before NumPy is
imported, so timings do not depend on the core count and results reproduce.

With ``--trace 0`` the benchmark times set-up in three fresh processes, then
repeats iterations of the workload (see ``workloads.py``) on fresh inputs,
wrapping nothing but a timer around each run, and stops at the iteration
boundary nearest to ``--seconds``; it reports the end-to-end metrics. Run
times are reported in units of a fixed reference kernel timed next to each
run (``workloads.reference_seconds``): on a shared 2-core host the wall time
of the same run drifts by up to 1.8x within a minute, and the ratio cancels
most of that drift. Raw seconds and runs per second are printed as well. With
``--trace 1`` it repeats pairs of iterations on the inputs of iteration 0,
one untraced and one with every layer wrapped (see ``tracer.py``), checks
that both give the same output digest, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports NumPy; children inherit it
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 3  # set-up runs in this many fresh processes; the median is reported


def declared_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the order
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def tail(values):
    """(percentile, value) for the highest of p99.9/p99/p95/p90/p75/p50 with
    at least ten samples beyond it, or None when there are too few."""
    xs = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        k = math.ceil(len(xs) * p / 100)
        if len(xs) - k >= 10:
            return p, xs[k - 1]
    return None


def quality(iterations, epsilon_a):
    """(selective runs, share with a defined err_hat above epsilon_a, mean cov_hat)."""
    sel = [s for it in iterations for s in it.selective]
    over = sum(1 for err, _ in sel if not math.isnan(err) and err > epsilon_a)
    cov = statistics.fmean(c for _, c in sel) if sel else math.nan
    return len(sel), over / len(sel) if sel else math.nan, cov


def check_reference(workload, seed, iterations):
    """Digest mismatches against the stored default-seed reference; each
    mismatching iteration counts all its runs as failed."""
    if seed != DEFAULT_SEED:
        return 0
    with open(REFERENCE) as f:
        ref = json.load(f).get(workload, [])
    bad = 0
    for i, it in enumerate(iterations):
        if i >= len(ref):
            print(f"  iteration {i}: no stored reference")
        elif it.digest != ref[i]:
            print(f"  iteration {i}: digest {it.digest[:16]} != reference {ref[i][:16]}")
            bad += it.attempted - it.failed
        else:
            print(f"  iteration {i}: digest matches the reference")
    return bad


def done(t0, steps, seconds):
    """Stop at the step boundary nearest to ``seconds`` after the start."""
    elapsed = perf_counter() - t0
    return elapsed + elapsed / steps / 2 >= seconds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds):
    """Untraced iterations on fresh inputs, and the peak RSS after the first:
    later iterations only add allocator noise to the peak."""
    iterations = []
    t0 = perf_counter()
    while True:
        it = wl.iteration(len(iterations))
        iterations.append(it)
        if len(iterations) == 1:
            rss = peak_rss_mb()
        print(f"  iteration {len(iterations) - 1}: {len(it.run_s)} runs in "
              f"{it.wall_s:.3f} s, {it.failed} failed, digest {it.digest[:16]}")
        if done(t0, len(iterations), seconds):
            return iterations, rss


def measure_traced(wl, seconds):
    from tracer import Tracer

    untraced, traced, layers, records = [], [], [], []
    t0 = perf_counter()
    while True:
        u = wl.iteration(0)
        tracer = Tracer()
        tracer.install()
        try:
            t = wl.iteration(0)
        finally:
            tracer.uninstall()
        untraced.append(u)
        traced.append(t)
        layers.append(tracer.layer_metrics())
        records.append(tracer.record())
        print(f"  pair {len(traced) - 1}: untraced {u.wall_s:.3f} s, traced {t.wall_s:.3f} s,"
              f" digests {u.digest[:16]} / {t.digest[:16]}")
        if done(t0, len(traced), seconds):
            return untraced, traced, layers, records


def setup_seconds(args):
    """Median wall time of fresh processes that only set up: start the
    interpreter, import, load the config and generate the data."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t)
    print("setup: " + ", ".join(f"{t:.3f}" for t in times) + " s in fresh processes")
    return statistics.median(times)


def untraced_metrics(args, wl, setup_s):
    iterations, rss = measure(wl, args.seconds)
    failed = sum(it.failed for it in iterations)
    failed += check_reference(args.workload, args.seed, iterations)
    runs = [t for it in iterations for t in it.run_s]
    refs = [r for it in iterations for r in it.ref_s]
    costs = [t / r for t, r in zip(runs, refs)]
    n_sel, over_frac, cov_mean = quality(iterations, wl.epsilon_a)
    tl = tail(runs)
    print(f"runs: {len(runs)} completed in {len(iterations)} iterations"
          + (f", {len(runs) / sum(runs):.4f} runs/s, run_s_p50 {statistics.median(runs):.4f} s, "
             f"reference kernel median {statistics.median(refs) * 1e3:.3f} ms" if runs else "")
          + (f"; run_s_p{tl[0]:g} {tl[1]:.4f} s" if tl else "; too few runs for a tail"))
    print(f"selective runs: {n_sel}; err_over_eps_frac {over_frac:.4f} "
          f"(epsilon_a {wl.epsilon_a:g}), cov_hat_mean {cov_mean:.4f}")
    if args.record_reference:
        with open(REFERENCE) as f:
            ref = json.load(f)
        ref[args.workload] = [it.digest for it in iterations]
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"recorded {len(iterations)} reference digests in {REFERENCE}")
    metrics = {
        "setup_s": setup_s,
        "runs_per_kref": 1000 * len(costs) / sum(costs) if costs else math.nan,
        "run_ref_p50": statistics.median(costs) if costs else math.nan,
        "peak_rss_mb": rss,
    }
    return iterations, failed, metrics


def traced_metrics(args, wl, out_dir, env, units):
    untraced, traced, layers, records = measure_traced(wl, args.seconds)
    failed = sum(it.failed for it in untraced + traced)
    for u, t in zip(untraced, traced):
        if t.digest != u.digest:
            print(f"  traced digest {t.digest[:16]} != untraced {u.digest[:16]}")
            failed += t.attempted - t.failed
    failed += check_reference(args.workload, args.seed, untraced[:1])
    metrics = {}
    for name in layers[0]:
        vals = [lay[name] for lay in layers]
        if units[name] == "s":
            metrics[name] = statistics.median(vals)
        else:  # counts repeat exactly on the same inputs
            if any(v != vals[0] for v in vals):
                print(f"  {name} differs between traced iterations: {vals}")
                failed += 1
            metrics[name] = vals[0]
    _, metrics["quality.err_over_eps_frac"], metrics["quality.cov_hat_mean"] = quality(
        untraced[:1], wl.epsilon_a)
    metrics["trace.overhead_frac"] = (statistics.median(t.wall_s for t in traced)
                                      / statistics.median(u.wall_s for u in untraced) - 1.0)
    with open(os.path.join(out_dir, "trace.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "iterations": records}, f, indent=1)
    report_layers(records[-1], traced[-1].wall_s)
    return untraced + traced, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's digests as the default-seed reference")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit; used to time set-up in fresh processes")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tbal", "__init__.py")):
        print(f"perfbench: no tbal package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import tbal
    import workloads

    if os.path.dirname(os.path.abspath(tbal.__file__)) != os.path.join(src, "tbal"):
        print(f"perfbench: imported tbal from {tbal.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        print("perfbench: --record-reference needs the default seed and --trace 0",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT, args.workload)
    wl = workloads.make(args.workload)
    if args.setup_only:
        wl.prepare(ROOT, out_dir, args.seed)
        return 0

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    setup_s = None if args.trace else setup_seconds(args)
    workloads.clean(out_dir)
    wl.prepare(ROOT, out_dir, args.seed)
    if args.trace:
        units = declared_units("per_layer")
        iterations, failed, metrics = traced_metrics(args, wl, out_dir, env, units)
    else:
        units = declared_units("end_to_end")
        iterations, failed, metrics = untraced_metrics(args, wl, setup_s)

    attempted = sum(it.attempted for it in iterations)
    print(f"attempted {attempted} runs, failed {failed} "
          f"(failed_frac {failed / attempted:.4f})")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


def report_layers(record, traced_wall):
    """Print one traced iteration's spans, largest self time first."""
    print(f"traced iteration: {traced_wall:.3f} s; spans by self time")
    print(f"  {'span':24s} {'calls':>9s} {'total s':>9s} {'self s':>9s} {'self %':>7s}")
    spans = sorted(record["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, s in spans:
        if s["calls"]:
            print(f"  {name:24s} {s['calls']:9d} {s['total_s']:9.3f} {s['self_s']:9.3f} "
                  f"{100 * s['self_s'] / traced_wall:6.1f}%")


if __name__ == "__main__":
    sys.exit(main())
