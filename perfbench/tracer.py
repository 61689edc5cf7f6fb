"""Layer tracing from outside the package.

A traced iteration replaces the public functions of each ``tbal`` module with
timing wrappers. A function is patched on its defining module and on every
module that imported it by name (``tbal.engine`` and ``tbal.cli`` hold their
own references to ``estimate_threshold``, ``check_partition`` and
``make_dataset``); patching only the defining module would let the engine's
calls bypass the wrapper. Spans and counts stay in memory and are written out
once, when the benchmark ends.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

import workloads
from tbal import cli, confidence, core, data, engine, metrics, model, query, threshold


class Tracer:
    """Per-span call counts, inclusive and self time, plus the work counts
    each layer reports. A span's self time is its duration minus the time of
    the wrapped calls it made, including the tracer's own counting."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []  # per open span: time spent in wrapped children
        self._models: dict[int, list] = {}  # id(model) -> [model, used]
        self._saved: list = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack, spans = self._stack, self.spans
        spans.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                rec = spans[name]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - child
            if after is not None:
                after(args, kwargs, result)
            if stack:
                stack[-1] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owners, attr, name, after=None):
        # a refactor may drop a name from a module: trace what is there
        owners = [o for o in owners if hasattr(o, attr)]
        if not owners:
            return
        wrapper = self._wrap(name, getattr(owners[0], attr), after)
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self):
        """Patch every traced function; undo with :meth:`uninstall`."""
        self._patch([model], "fit", "model.fit", self._after_fit)
        self._patch([model], "predict", "model.predict", self._after_predict)
        self._patch([confidence], "score", "confidence.score", self._after_score)
        self._patch([query], "query_random", "query", self._after_query)
        self._patch([query], "query_margin_random", "query", self._after_margin_query)
        self._patch([threshold, engine], "estimate_threshold", "threshold.estimate",
                    self._after_threshold)
        self._patch([core.Pool], "ids_with", "core.ids_with")
        self._patch([core.Pool], "mark_auto", "core.mark")
        self._patch([core.Pool], "mark_human", "core.mark")
        self._patch([core.Pool], "copy", "core.copy")
        self._patch([core.ValidationSet], "copy", "core.copy")
        self._patch([core, engine], "check_partition", "core.check_partition")
        self._patch([engine], "run", "engine.run", self._after_engine_run)
        self._patch([data, cli], "make_dataset", "data.make_dataset")
        self._patch([data], "split_pool_val", "data.split_pool_val")
        self._patch([metrics], "evaluate", "metrics.evaluate")
        self._patch([cli], "run_single", "cli.run_single")
        self._patch([cli], "run_experiment", "cli.run_experiment")
        # the benchmark's own kernel between runs, kept out of every layer
        self._patch([workloads], "reference_seconds", "perfbench.reference")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- counts from arguments and return values -------------------------

    def _add(self, key, v):
        self.counts[key] = self.counts.get(key, 0) + v

    def _use(self, m):
        if id(m) in self._models:
            self._models[id(m)][1] = True

    def _after_predict(self, args, kwargs, result):
        self._use(args[0])

    def _after_fit(self, args, kwargs, m):
        epochs = len(m.loss_trace)
        self._add("model.fit.epochs", epochs)
        self._add("model.fit.rows", len(args[0]) * epochs)
        self._models[id(m)] = [m, False]  # strong ref: ids stay unique

    def _after_score(self, args, kwargs, result):
        self._use(args[1])
        self._add("confidence.score.points", len(result[0]) if np.ndim(result[0]) else 1)

    def _after_query(self, args, kwargs, result):
        self._add("query.points", len(result[0]))

    def _after_margin_query(self, args, kwargs, result):
        self._use(args[0])
        self._add("query.points", len(result[0]))

    def _after_threshold(self, args, kwargs, decision):
        scores, preds, val_scores, cfg = args[0], args[1], args[2], args[5]
        k = kwargs.get("num_classes", args[6] if len(args) > 6 else 2)
        scores, preds = np.asarray(scores), np.asarray(preds)
        if len(val_scores):
            if cfg.per_class:
                n = sum(len(np.unique(scores[preds == c])) for c in range(k))
            else:
                n = len(np.unique(scores))
            self._add("threshold.estimate.candidates", n)
        self._add("threshold.class_rounds", k)
        self._add("threshold.infinite", sum(not math.isfinite(decision.threshold_for(c))
                                            for c in range(k)))

    def _after_engine_run(self, args, kwargs, result):
        self._add("engine.rounds", result.k)

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced iteration, by name."""
        def calls(n):
            return self.spans.get(n, (0, 0.0, 0.0))[0]

        def total(n):
            return self.spans.get(n, (0, 0.0, 0.0))[1]

        def own(n):
            return self.spans.get(n, (0, 0.0, 0.0))[2]

        c = self.counts.get
        fits = calls("model.fit")
        used = sum(1 for _, u in self._models.values() if u)
        class_rounds = c("threshold.class_rounds", 0)
        return {
            "model.fit.calls": fits,
            "model.fit.s": total("model.fit"),
            "model.fit.epochs": c("model.fit.epochs", 0),
            "model.fit.rows": c("model.fit.rows", 0),
            "model.fit.useful_frac": used / fits if fits else 0.0,
            "threshold.estimate.calls": calls("threshold.estimate"),
            "threshold.estimate.s": total("threshold.estimate"),
            "threshold.estimate.candidates": c("threshold.estimate.candidates", 0),
            "threshold.infinite_frac":
                c("threshold.infinite", 0) / class_rounds if class_rounds else 0.0,
            "core.ids_with.calls": calls("core.ids_with"),
            "core.ids_with.s": total("core.ids_with"),
            "core.mark.calls": calls("core.mark"),
            "core.mark.s": total("core.mark"),
            "core.check_partition.s": total("core.check_partition"),
            "core.copy.s": total("core.copy"),
            "engine.run.s": total("engine.run"),
            "engine.rounds": c("engine.rounds", 0),
            "engine.self_s": own("engine.run"),
            "query.calls": calls("query"),
            "query.s": total("query"),
            "query.points": c("query.points", 0),
            "confidence.score.calls": calls("confidence.score"),
            "confidence.score.s": total("confidence.score"),
            "confidence.score.points": c("confidence.score.points", 0),
            "data.make_dataset.calls": calls("data.make_dataset"),
            "data.make_dataset.s": total("data.make_dataset"),
            "metrics.evaluate.s": total("metrics.evaluate"),
            "cli.run_single.s": total("cli.run_single"),
            "cli.write_s": own("cli.run_experiment"),  # CSV writing: outside run_single
        }

    def record(self) -> dict:
        """Everything the tracer holds, for writing out at the end."""
        return {
            "spans": {n: {"calls": r[0], "total_s": r[1], "self_s": r[2]}
                      for n, r in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
        }
