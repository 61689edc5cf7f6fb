import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tbal

from tbal.core import rng_from
from tbal.model import (LinearModel, TrainConfig, TrainingError, _hinge_loss, fit,
                        fit_many, logits, predict)

import reference_trainer


def central_diff(f, x0, h=1e-6):
    """Finite-difference gradient oracle, one coordinate at a time."""
    g = np.zeros_like(x0, dtype=np.float64)
    for i in range(x0.size):
        xp = x0.copy().ravel(); xp[i] += h
        xm = x0.copy().ravel(); xm[i] -= h
        g.ravel()[i] = (f(xp.reshape(x0.shape)) - f(xm.reshape(x0.shape))) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom


class TestGradients:
    def test_hinge_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 10:
            n, d = 8, 4
            X = rng.standard_normal((n, d))
            ypm = rng.choice([-1.0, 1.0], size=n)
            w = rng.standard_normal(d)
            b = float(rng.standard_normal())
            margins = ypm * (X @ w + b)
            if np.min(np.abs(margins - 1.0)) < 1e-3:
                continue  # too close to the hinge kink for finite differences
            l2 = 1e-3
            # the subgradient of the frozen trainer against the loss fit reports
            gw, gb = reference_trainer._hinge_grad(w, b, X, ypm, l2)
            fw = lambda wv: _hinge_loss(wv, b, X, ypm, l2)
            fb = lambda bv: _hinge_loss(w, float(bv[0]), X, ypm, l2)
            assert rel_err(gw, central_diff(fw, w)) <= 1e-4
            assert rel_err([gb], central_diff(fb, np.array([b]))) <= 1e-4
            checked += 1

    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, d, K = 9, 3, 4
            X = rng.standard_normal((n, d))
            y = rng.integers(0, K, size=n)
            W = rng.standard_normal((K, d))
            b = rng.standard_normal(K)
            l2 = 1e-3
            # the gradient the logistic steps compute, frozen with its loss
            gW, gb = reference_trainer._logistic_grad(W, b, X, y, l2)
            fW = lambda Wv: reference_trainer._logistic_loss(Wv, b, X, y, l2)
            fb = lambda bv: reference_trainer._logistic_loss(W, bv, X, y, l2)
            assert rel_err(gW, central_diff(fW, W)) <= 1e-4
            assert rel_err(gb, central_diff(fb, b)) <= 1e-4


def bitwise_equal(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def reference_hinge_value_grad(w, b, X, ypm, l2):
    """Loss and subgradient in one pass, as the trainer computed them before
    its steps skipped the loss."""
    margins = ypm * (X @ w + b)
    active = margins < 1.0
    loss = float(np.maximum(0.0, 1.0 - margins).mean() + 0.5 * l2 * w @ w)
    coef = np.where(active, -ypm, 0.0) / len(X)
    return loss, X.T @ coef + l2 * w, float(coef.sum())


def reference_logistic_value_grad(W, b, X, y, l2):
    z = X @ W.T + b
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = len(X)
    loss = float(-logp[np.arange(n), y].mean() + 0.5 * l2 * (W * W).sum())
    p = np.exp(logp)
    p[np.arange(n), y] -= 1.0
    return loss, p.T @ X / n + l2 * W, p.mean(axis=0)


class TestGradientOnlyHelpers:
    """The loss-only and gradient-only helpers, ``model._hinge_loss`` and the
    frozen logistic pair in ``tests/reference_trainer.py``, match the
    one-pass reference bit for bit."""

    SHAPES = [(1, 1), (7, 2), (32, 2), (32, 30), (500, 3)]

    def test_hinge_helpers_match_value_grad(self):
        rng = np.random.default_rng(2)
        for n, d in self.SHAPES:
            X = rng.standard_normal((n, d))
            ypm = rng.choice([-1.0, 1.0], size=n)
            w = rng.standard_normal(d) * rng.uniform(0.1, 5.0)
            b = float(rng.standard_normal())
            l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
            loss, _, _ = reference_hinge_value_grad(w, b, X, ypm, l2)
            assert bitwise_equal(_hinge_loss(w, b, X, ypm, l2), loss)

    def test_logistic_helpers_match_value_grad(self):
        rng = np.random.default_rng(3)
        for n, d in self.SHAPES:
            for K in (2, 10):
                X = rng.standard_normal((n, d))
                y = rng.integers(0, K, size=n)
                W = rng.standard_normal((K, d))
                b = rng.standard_normal(K)
                l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
                loss, gW, gb = reference_logistic_value_grad(W, b, X, y, l2)
                assert all(map(bitwise_equal,
                               reference_trainer._logistic_grad(W, b, X, y, l2),
                               (gW, gb)))
                assert bitwise_equal(reference_trainer._logistic_loss(W, b, X, y, l2),
                                     loss)


class TestLogitsPredict:
    def test_binary_logits_are_symmetric(self):
        m = LinearModel(np.array([1.0, -2.0]), np.asarray(0.5), num_classes=2)
        z = logits(m, np.array([[1.0, 1.0], [0.0, 0.0]]))
        s = np.array([1.0 * 1 - 2.0 * 1 + 0.5, 0.5])
        assert np.allclose(z, np.column_stack([-s, s]))
        # positive margin -> class 1
        assert list(predict(m, np.array([[3.0, 0.0], [-3.0, 0.0]]))) == [1, 0]

    def test_tie_goes_to_class_zero(self):
        m = LinearModel(np.array([1.0, 0.0]), np.asarray(0.0), num_classes=2)
        assert predict(m, np.array([[0.0, 5.0]]))[0] == 0

    def test_dimension_mismatch(self):
        m = LinearModel(np.zeros(3), np.asarray(0.0), num_classes=2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            logits(m, np.zeros((2, 4)))
        for f in (logits, predict):  # a single row is a matrix of one row
            with pytest.raises(ValueError, match="2-D"):
                f(m, np.zeros(3))

    def test_multiclass_logits(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        b = np.array([0.0, 0.1, 0.0])
        m = LinearModel(W, b, num_classes=3)
        x = np.array([[2.0, 0.0]])
        assert np.allclose(logits(m, x), [[2.0, 0.1, -2.0]])
        assert predict(m, x)[0] == 0

    def test_predict_rejects_nonfinite_logits(self):
        m = LinearModel(np.array([np.inf, 0.0]), np.asarray(0.0), num_classes=2)
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            predict(m, np.ones((3, 2)))
        m = LinearModel(np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]]), np.zeros(3),
                        num_classes=3)
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            predict(m, np.ones((1, 2)))


class TestHingeTrainerMatchesReference:
    """``fit`` reproduces the hinge trainer frozen in
    ``tests/reference_trainer.py`` byte for byte: its in-place step loop
    keeps every float operation of the original in the same order, and a
    unit-norm fit's label-signed rows change none of them. It records the
    losses its stop test reads, from epoch ``avg_start - 1`` on, and the
    averaged model's."""

    @pytest.mark.parametrize("d", [2, 30])
    @pytest.mark.parametrize("n", [2, 31, 32, 33, 137, 500])
    def test_weights_bias_and_trace_are_byte_equal(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        X = rng.standard_normal((n, d))
        y = (X[:, 0] * X[:, 1] > 0).astype(np.int64)
        y[:2] = (0, 1)
        # l2 = 0 leaves an exact-zero gradient entry's sign to the rows
        for normalized, tolerance, l2 in itertools.product(
                (False, True), (1e-5, 1.0), (1e-4, 0.0)):  # tolerance 1.0 stops early
            cfg = TrainConfig(normalized=normalized, tolerance=tolerance, l2=l2,
                              learning_rate=3.0 if normalized else 0.1)
            got = fit(X, y, cfg, seed=n)
            want = reference_trainer._fit_hinge(X, y, cfg, rng_from(n, "fit"))
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()
            read_from = int(cfg.epochs * 0.75) - 1
            assert np.array(got.loss_trace).tobytes() \
                == np.array(want.loss_trace[read_from:]).tobytes()
            # the reference records every epoch's loss, then the average's
            assert got.epochs == len(want.loss_trace) - 1
            if tolerance == 1.0:
                assert got.epochs < cfg.epochs

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_short_fits_read_the_loss_from_the_first_epoch(self, epochs):
        # avg_start - 1 is -1 or 0 here, so every epoch's loss is recorded
        X, y = TestFit().separable(n=70, d=2, seed=4)
        cfg = TrainConfig(epochs=epochs)
        got = fit(X, y, cfg, seed=1)
        want = reference_trainer._fit_hinge(X, y, cfg, rng_from(1, "fit"))
        assert got.weights.tobytes() == want.weights.tobytes()
        assert np.array(got.loss_trace).tobytes() == np.array(want.loss_trace).tobytes()
        assert got.epochs == epochs


def hinge_stack(T, n, d, cfg):
    """T binary fit requests of n rows of dimension d, each with both
    classes and its own rows and seed."""
    requests = []
    for j in range(T):
        rng = np.random.default_rng([n, d, j])
        X = rng.standard_normal((n, d))
        y = (X[:, 0] * X[:, 1] > 0).astype(np.int64)
        y[:2] = (0, 1)
        requests.append((X, y, cfg, 10 * n + j, None))
    return requests


# seed patterns of stacks whose fits share streams: a twin, two pairs, and a
# triple beside a fit of another seed. In the n = 2, d = 30 stack at
# tolerance 0.02 the twin's first fit stops at epoch 61 while the second runs
# all 80, and in the triple the third slot leaves first, alone
SHARED_SEEDS = {"twin": (3, 3), "pairs": (3, 3, 1, 1), "triple": (1, 3, 3, 3)}


def check_against_reference(requests, got, read_from):
    """[(seed, message)] of every fit of ``got`` whose weights, bias, epochs
    or loss trace differ from the frozen ``_fit_hinge``'s on its request."""
    bad = []
    for (X, y, cfg, seed, _), model in zip(requests, got):
        want = reference_trainer._fit_hinge(X, y, cfg, rng_from(seed, "fit"))
        if model.weights.tobytes() != want.weights.tobytes():
            bad.append((seed, "weights"))
        if model.bias.tobytes() != want.bias.tobytes():
            bad.append((seed, "bias"))
        if model.epochs != len(want.loss_trace) - 1:
            bad.append((seed, "epochs"))
        if np.array(model.loss_trace).tobytes() != \
                np.array(want.loss_trace[read_from:]).tobytes():
            bad.append((seed, "loss_trace"))
    return bad


def fit_many_matches_reference():
    """[(case, message)] of every stacked fit whose weights, bias, epochs or
    loss trace differ from the frozen ``_fit_hinge``'s; also, for every stack
    at tolerance 0.02, where some fits stop early and others run all epochs,
    its case and the (seed, epochs) of each slot. Stacks of T fits of T seeds
    come first, then stacks whose fits repeat seeds (``SHARED_SEEDS``)."""
    bad, mixed = [], []
    # the default l2 and tolerance, then l2 = 0 (which leaves an exact-zero
    # gradient entry's sign to the rows) with a tolerance that stops some fits
    stacks = itertools.product((2, 3, 10, *SHARED_SEEDS), (2, 31, 32, 33, 137, 500),
                               (2, 30), (False, True), ((1e-4, 1e-5), (0.0, 0.02)))
    for T, n, d, normalized, (l2, tolerance) in stacks:
        cfg = TrainConfig(normalized=normalized, tolerance=tolerance, l2=l2,
                          learning_rate=3.0 if normalized else 0.1)
        if T in SHARED_SEEDS:
            requests = [(X, y, cfg, 10 * n + k, None) for (X, y, *_), k in zip(
                hinge_stack(len(SHARED_SEEDS[T]), n, d, cfg), SHARED_SEEDS[T])]
        else:
            requests = hinge_stack(T, n, d, cfg)
        got = fit_many(requests)
        case = (T, n, d, normalized, l2, tolerance)
        bad += [(case, *b) for b in check_against_reference(
            requests, got, int(cfg.epochs * 0.75) - 1)]
        if tolerance == 0.02:
            mixed.append((case, [(r[3], m.epochs) for r, m in zip(requests, got)]))
    return bad, mixed


class TestFitMany:
    """``fit_many`` steps equal binary hinge fits in lockstep, and each keeps
    the bits of the frozen ``_fit_hinge``; every other request is ``fit``."""

    def test_stacked_fits_match_the_reference_at_1_and_2_blas_threads(self):
        code = ("import sys, json\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import test_model\n"
                "bad, mixed = test_model.fit_many_matches_reference()\n"
                "print(json.dumps({'bad': bad, 'mixed': mixed}))\n")
        src = os.path.dirname(os.path.dirname(tbal.__file__))
        procs = {}
        for threads in ("1", "2"):  # read by OpenBLAS when NumPy is imported
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            procs[threads] = subprocess.Popen(
                [sys.executable, "-c", code, os.path.dirname(__file__)], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for threads, proc in procs.items():
            out, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err
            result = json.loads(out.splitlines()[-1])
            assert result["bad"] == [], (threads, result["bad"][:10])
            epochs = [[e for _, e in slots] for _, slots in result["mixed"]]
            # some stacks hold fits that stop early next to fits that run
            # every epoch, so fits leave a stack while others step on
            assert any(len(set(e)) > 1 and 80 in e for e in epochs)
            # a fit leaves while its twin, drawing from the same stream,
            # runs all 80 epochs
            assert any(len({e for s, e in slots if s == seed}) > 1
                       and (seed, 80) in map(tuple, slots)
                       for _, slots in result["mixed"] for seed, _ in slots)
            # a middle slot leaves first, alone
            assert any(e.count(min(e)) == 1 and min(e) not in (e[0], e[-1])
                       for e in epochs)

    def test_a_stack_draws_one_stream_per_seed(self, monkeypatch):
        streams, drawn = [], {}

        class Spy:
            """A fit stream that counts its permutations."""

            def __init__(self, seed, rng):
                self.seed, self.rng = seed, rng

            def permutation(self, n):
                drawn.setdefault(self.seed, []).append(n)
                return self.rng.permutation(n)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        def spy(seed, *stream):
            streams.append((seed, *stream))
            return Spy(seed, rng_from(seed, *stream))

        monkeypatch.setattr("tbal.model.rng_from", spy)
        n, seeds = 2, SHARED_SEEDS["triple"]
        cfg = TrainConfig(tolerance=0.02, l2=0.0)
        requests = [(X, y, cfg, 10 * n + k, None)
                    for (X, y, *_), k in zip(hinge_stack(len(seeds), n, 30, cfg), seeds)]
        got = fit_many(requests)
        assert check_against_reference(requests, got, int(cfg.epochs * 0.75) - 1) == []
        assert sorted(streams) == [(21, "fit"), (23, "fit")]
        epochs = {}
        for (*_, seed, _), model in zip(requests, got):
            epochs.setdefault(seed, []).append(model.epochs)
        assert epochs == {21: [67], 23: [80, 61, 80]}
        # one permutation of n rows an epoch, while any fit of the seed is live
        assert drawn == {seed: [n] * max(e) for seed, e in epochs.items()}

    def test_a_mixed_request_list_comes_back_in_order(self):
        hinge = TrainConfig(epochs=20)
        pair = hinge_stack(2, 40, 3, hinge)
        other_n = hinge_stack(2, 41, 3, hinge)
        X, y, _, _, _ = pair[0]
        X3, y3 = TestFit().separable(n=60, d=3, seed=1)[0], np.arange(60) % 3
        requests = [
            pair[0],
            (X, y, TrainConfig(loss="logistic", epochs=5), 7, None),  # logistic
            other_n[0],  # another n: a stack of its own with other_n[1]
            (X, np.ones(40, dtype=np.int64), hinge, 8, 2),  # one class
            pair[1],
            (X3, y3, TrainConfig(loss="logistic", epochs=5), 9, 3),  # K = 3
            (X, y, TrainConfig(epochs=20, l2=0.0), 10, None),  # a lone config
            other_n[1],
        ]
        got = fit_many(requests)
        assert len(got) == len(requests)
        for request, model in zip(requests, got):
            want = fit(*request)
            assert model.weights.tobytes() == want.weights.tobytes()
            assert model.bias.tobytes() == want.bias.tobytes()
            assert (model.epochs, model.num_classes) == (want.epochs, want.num_classes)
            assert np.array(model.loss_trace).tobytes() == np.array(want.loss_trace).tobytes()

    def test_only_a_stack_bypasses_fit(self, monkeypatch):
        import tbal.model as linmod

        seen = []
        real = linmod.fit

        def counting(X, y, cfg, seed, num_classes=None):
            seen.append(seed)
            return real(X, y, cfg, seed, num_classes)

        monkeypatch.setattr(linmod, "fit", counting)
        stack = hinge_stack(3, 40, 2, TrainConfig(epochs=5))
        lone = hinge_stack(1, 50, 2, TrainConfig(epochs=5))
        fit_many(stack + lone)
        assert seen == [lone[0][3]]


def batch_seen_replay(X, y, K, cfg, rng):
    """The logistic trainer rebuilt from the frozen helpers: the frozen steps,
    and as each epoch's statistic the summed log loss of every batch at the
    weights it stepped from, over n, plus 0.5 * l2 * ||W||^2 at the epoch's
    end. Returns (W, b, trace)."""
    n, d = X.shape
    W, b = np.zeros((K, d)), np.zeros(K)
    trace, prev = [], np.inf
    for epoch in range(cfg.epochs):
        eta = cfg.learning_rate / (1.0 + 0.1 * epoch)
        order = rng.permutation(n)
        seen = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            seen += len(idx) * reference_trainer._logistic_loss(W, b, X[idx], y[idx], 0.0)
            gW, gb = reference_trainer._logistic_grad(W, b, X[idx], y[idx], cfg.l2)
            W -= eta * gW
            b -= eta * gb
        trace.append(seen / n + 0.5 * cfg.l2 * (W * W).sum())
        if abs(prev - trace[-1]) < cfg.tolerance:
            break
        prev = trace[-1]
    return W, b, trace


def multiclass_problem(n, K, d, seed):
    """Gaussian clusters, one per class; every class is present once n >= K,
    and at least two are."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, K, size=n)
    y[:min(n, K)] = np.arange(min(n, K))
    X = rng.standard_normal((K, d))[y] * 1.5 + rng.standard_normal((n, d))
    return X, y


class TestLogisticTrainerMatchesReference:
    """The logistic trainer keeps the frozen trainer's steps bit for bit; only
    its stop test reads a different loss: the one its batches saw."""

    @pytest.mark.parametrize("d", [2, 784])
    @pytest.mark.parametrize("K", [2, 3, 10])
    @pytest.mark.parametrize("n", [2, 31, 32, 33, 137, 600])
    def test_weights_and_bias_are_byte_equal_when_no_stop_fires(self, n, K, d):
        X, y = multiclass_problem(n, K, d, seed=n * 1000 + K * 10 + d)
        cfg = TrainConfig(loss="logistic", tolerance=0.0)  # the test never fires
        got = fit(X, y, cfg, seed=n, num_classes=K)
        want = reference_trainer._fit_logistic(X, y, K, cfg, rng_from(n, "fit"))
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
        assert len(got.loss_trace) == got.epochs == cfg.epochs

    @pytest.mark.parametrize("tolerance", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("n, K, d", [(33, 3, 2), (137, 10, 784), (300, 4, 5)])
    def test_loss_trace_is_the_loss_the_batches_saw(self, n, K, d, tolerance):
        X, y = multiclass_problem(n, K, d, seed=n + K + d)
        cfg = TrainConfig(loss="logistic", tolerance=tolerance)
        got = fit(X, y, cfg, seed=3, num_classes=K)
        W, b, trace = batch_seen_replay(X, y, K, cfg, rng_from(3, "fit"))
        assert np.allclose(got.loss_trace, trace, rtol=1e-12, atol=0.0)
        assert got.epochs == len(trace)
        assert got.weights.tobytes() == W.tobytes()
        assert got.bias.tobytes() == b.tobytes()
        if tolerance > 0:
            # it stops at the first epoch whose statistic moved by less than
            # the tolerance, long before the last one
            full = batch_seen_replay(X, y, K, TrainConfig(loss="logistic", tolerance=0.0),
                                     rng_from(3, "fit"))[2]
            moved = np.abs(np.diff(full))
            assert len(got.loss_trace) == int(np.argmax(moved < tolerance)) + 2
            assert got.epochs < cfg.epochs // 2


class TestFit:
    def separable(self, n=1000, d=2, seed=0, margin=0.8):
        # separable with a real margin; points hugging the boundary are not
        # a fair ask for a stochastic subgradient trainer
        rng = np.random.default_rng(seed)
        X = rng.uniform(-4, 4, size=(3 * n, d))
        w = np.ones(d)
        X = X[np.abs(X @ w) > margin][:n]
        y = (X @ w > 0).astype(np.int64)
        return X, y

    def test_hinge_learns_separable_within_one_percent(self):
        X, y = self.separable(n=1000, d=2)
        for s in range(3):
            m = fit(X, y, TrainConfig(loss="hinge"), seed=s)
            train_err = 1.0 - np.mean(predict(m, X) == y)
            assert train_err <= 0.01

    def test_normalized_hinge_is_unit_norm_no_bias(self):
        from tbal.data import gen_unit_ball
        X, y = gen_unit_ball(10, 800, seed=1)
        m = fit(X, y, TrainConfig(loss="hinge", learning_rate=10.0,
                                  normalized=True), seed=0)
        assert np.isclose(np.linalg.norm(m.weights), 1.0)
        assert float(m.bias) == 0.0
        assert np.mean(predict(m, X) == y) >= 0.95

    def test_unit_ball_generalization(self):
        # realizable setting: 500 training points in d=30 should generalize
        from tbal.data import gen_unit_ball
        X_test, y_test = gen_unit_ball(30, 4000, seed=99)
        errs = []
        for s in range(5):
            X, y = gen_unit_ball(30, 500, seed=s)
            m = fit(X, y, TrainConfig(loss="hinge", learning_rate=10.0,
                                      normalized=True), seed=s)
            errs.append(1.0 - np.mean(predict(m, X_test) == y_test))
        assert np.mean(errs) <= 0.05
        assert max(errs) <= 0.06

    def test_loss_trace_trends_down(self):
        X, y = self.separable(n=600, d=2, seed=2)
        m = fit(X, y, TrainConfig(loss="hinge"), seed=0)
        tr = np.array(m.loss_trace)
        assert len(tr) >= 2
        assert np.mean(tr[-3:]) <= np.mean(tr[:3])
        assert tr[-1] <= tr[0]

    def test_logistic_learns_multiclass(self):
        rng = np.random.default_rng(2)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        y = rng.integers(0, 3, size=300)
        X = centers[y] + rng.standard_normal((300, 2)) * 0.5
        m = fit(X, y, TrainConfig(loss="logistic"), seed=0)
        assert np.mean(predict(m, X) == y) >= 0.95

    def test_empty_training_set(self):
        with pytest.raises(TrainingError, match="empty"):
            fit(np.empty((0, 2)), np.empty(0, dtype=np.int64), TrainConfig(), seed=0)

    @pytest.mark.parametrize("K, cls", [(2, 0), (2, 1), (10, 0), (10, 7)])
    def test_one_class_fit_is_a_linear_model_of_constant_logits(self, K, cls):
        # zero weights: the bias alone sets every row's logits, exactly 1 for
        # the class seen and -1 for the others
        X = 100.0 * np.random.default_rng(cls).standard_normal((50, 3))
        want = np.full((50, K), -1.0)
        want[:, cls] = 1.0
        for loss in ("hinge", "logistic") if K == 2 else ("logistic",):
            m = fit(X, np.full(50, cls), TrainConfig(loss=loss), seed=0, num_classes=K)
            assert m.binary == (K == 2) and not np.any(m.weights)
            assert m.epochs == 0
            assert np.array_equal(logits(m, X), want)
            assert np.all(predict(m, X) == cls)

    def test_a_fit_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on NumPy 2.4, which costs every process
        # its import time and memory at its first fit
        code = ("import sys, numpy as np, tbal\n"
                "from tbal.model import TrainConfig, fit\n"
                "X = np.random.default_rng(0).standard_normal((40, 2))\n"
                "fit(X, (X[:, 0] > 0).astype(np.int64), TrainConfig(epochs=2), seed=0)\n"
                "fit(X, np.zeros(40, dtype=np.int64), TrainConfig(), seed=0)\n"
                "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(tbal.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120, env=env)
        assert out.stdout.strip() == "False"

    def test_hinge_rejects_multiclass(self):
        X = np.zeros((6, 2))
        y = np.array([0, 1, 2, 0, 1, 2])
        with pytest.raises(TrainingError, match="binary only"):
            fit(X, y, TrainConfig(loss="hinge"), seed=0, num_classes=3)

    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="unknown loss"):
            TrainConfig(loss="perceptron")
        X, y = self.separable(n=20)
        cfg = TrainConfig()
        cfg.loss = "perceptron"  # set after the check
        with pytest.raises(TrainingError, match="unknown loss"):
            fit(X, y, cfg, seed=0)

    def test_same_seed_same_model(self):
        X, y = self.separable(seed=3)
        cfg = TrainConfig(loss="hinge")
        m1 = fit(X, y, cfg, seed=5)
        m2 = fit(X, y, cfg, seed=5)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_different_seed_different_model(self):
        X, y = self.separable(seed=3)
        cfg = TrainConfig(loss="hinge")
        m1 = fit(X, y, cfg, seed=5)
        m2 = fit(X, y, cfg, seed=6)
        assert not np.array_equal(m1.weights, m2.weights)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            TrainConfig(batch_size=0)
        for name in ("l2", "tolerance", "init_scale"):
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                TrainConfig(**{name: -1.0})
            TrainConfig(**{name: 0.0})  # zero is allowed

