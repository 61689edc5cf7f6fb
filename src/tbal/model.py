"""Linear hypothesis class and its ERM trainer.

Binary models are a single weight vector with the sign rule (positive margin
=> class 1); multiclass models are per-class weight rows trained with
multinomial logistic loss. Both are fit by minibatch SGD with per-epoch
shuffling driven by a named RNG stream, so training is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import rng_from

HINGE = "hinge"
LOGISTIC = "logistic"
LOSSES = (HINGE, LOGISTIC)


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    loss: str = HINGE
    epochs: int = 80
    learning_rate: float = 0.1
    l2: float = 1e-4
    batch_size: int = 32
    tolerance: float = 1e-5
    init_scale: float = 5.0  # stddev of the random start; see _fit_hinge
    normalized: bool = False  # project to the unit sphere, no bias (homogeneous)

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}; choose from {list(LOSSES)}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # a negative l2 leaves the objective unbounded below, a negative
        # tolerance never stops training, and init_scale is a stddev
        for name in ("l2", "tolerance", "init_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class LinearModel:
    weights: np.ndarray  # (d,) binary, (K, d) multiclass
    bias: np.ndarray  # scalar array binary, (K,) multiclass
    num_classes: int
    normalized: bool = False
    # the losses the trainer's stop test read (hinge adds the averaged
    # model's); ``epochs`` counts the epochs run, 0 for a one-class fit
    loss_trace: list = field(default_factory=list, repr=False)
    epochs: int = 0

    @property
    def binary(self) -> bool:
        return self.weights.ndim == 1

    @property
    def dimension(self) -> int:
        return self.weights.shape[-1]


def _check_dimension(model: LinearModel, X: np.ndarray) -> None:
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape {X.shape}")
    if X.shape[1] != model.dimension:
        raise ValueError(f"dimension mismatch: {X.shape[1]} != {model.dimension}")


# a binary model's views of c rows take up to this many bytes, so its
# longest view (2c - 1 rows) stays under 1 MiB
BINARY_CHUNK_BYTES = 512 * 1024


def _binary_chunk_rows(d: int) -> int:
    """The view length c of a binary model's product over rows of dimension
    ``d`` (see ``raw_scores``): the largest power of two whose rows fit in
    ``BINARY_CHUNK_BYTES``, at least 1.

    Multithreaded OpenBLAS splits a longer matrix-vector product between
    threads at a row set by the row count, and a row's bits depend on which
    side it falls. A product of at most 2c - 1 such rows ran on one thread
    at 1 and 2 BLAS threads on OpenBLAS 0.3.31, so these views keep the bits
    of one single-threaded product there; a later OpenBLAS that threads
    smaller products breaks that, which
    ``test_binary_scores_do_not_depend_on_the_blas_thread_count`` checks."""
    c = 1
    while 2 * c * 8 * d <= BINARY_CHUNK_BYTES:
        c *= 2
    return c


def raw_scores(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """The model's raw score of each row of 2-D X: the signed margin
    s = w . x + b of a binary model, shape (n,), where the sign rule predicts
    class 1 for s > 0; otherwise the logits w_c . x + b_c, shape (n, K).

    Logits are one product over X. Margins are multiplied a contiguous view
    at a time: views start at multiples of c (``_binary_chunk_rows``) and the
    last takes the remainder, so it holds c to 2c - 1 rows (fewer than c rows
    are one view)."""
    X = np.asarray(X, dtype=np.float64)
    _check_dimension(model, X)
    if not model.binary:
        s = X @ model.weights.T
    else:
        n, c = len(X), _binary_chunk_rows(X.shape[1])
        s = np.empty(n)
        bounds = [i * c for i in range(max(1, n // c))] + [n]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            np.matmul(X[lo:hi], model.weights, out=s[lo:hi])
    s += model.bias
    return s


def as_logits(model: LinearModel, raw: np.ndarray) -> np.ndarray:
    """The logits of the raw scores ``raw`` (see ``raw_scores``): a binary
    model's margins become the symmetric pair (-s, +s), so argmax agrees with
    the sign rule."""
    return np.column_stack([-raw, raw]) if model.binary else raw


def logits(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Per-class scores of each row of 2-D X (see ``as_logits``)."""
    return as_logits(model, raw_scores(model, X))


def check_finite(z: np.ndarray) -> np.ndarray:
    """``z`` as given; a diverged model's scores raise FloatingPointError."""
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite logits")
    return z


def predict(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Argmax of the class scores of each row of 2-D X; ties go to the
    smallest class index."""
    return np.argmax(check_finite(logits(model, X)), axis=1)


def _hinge_loss(w: np.ndarray, b: float, X: np.ndarray, ypm: np.ndarray | None,
                l2: float) -> float:
    """Mean hinge loss plus 0.5 * l2 * ||w||^2. ``ypm`` None reads ``X`` as
    label-signed rows of a fit whose bias is 0 (see _fit_hinge)."""
    margins = X.dot(w)
    if ypm is not None:
        margins += b
        margins *= ypm
    np.subtract(1.0, margins, out=margins)
    np.maximum(0.0, margins, out=margins)
    # np.mean's own sum and divide, without its Python wrapper
    return float(np.add.reduce(margins) / len(margins) + ((0.5 * l2) * w).dot(w))


def _hinge_start(d: int, cfg: TrainConfig, rng) -> tuple[np.ndarray, float]:
    """The random start (w, b) of a hinge fit. It is random per call: on
    non-separable data the hinge optimum can be a useless degenerate
    separator, and a noisy start lets repeated refits explore near-optimal
    alternatives instead of collapsing to it every time."""
    w = rng.standard_normal(d)
    if cfg.normalized:
        # the homogeneous variant optimizes unconstrained from a unit-norm
        # start with the bias pinned at zero and projects once at the end;
        # projecting every step caps all margins below 1 and degrades the
        # solution to the class-mean direction
        w /= max(np.linalg.norm(w), 1e-12)
        return w, 0.0
    w *= cfg.init_scale
    return w, float(rng.standard_normal() * cfg.init_scale)


def _hinge_schedule(n: int, cfg: TrainConfig) -> tuple[float, int, np.ndarray]:
    """(t0, avg_start, neg_inv) of a hinge fit on n rows: the step size at
    step t is lr / (1 + t / t0), the iterates from epoch avg_start on are
    averaged, and neg_inv holds -1 / (the length of each shuffled row's
    batch); the last batch may be short."""
    bs = cfg.batch_size
    batch_len = np.full(n, float(bs))
    batch_len[n - n % bs:] = n % bs
    return 5.0 * max(1, -(-n // bs)), int(cfg.epochs * 0.75), -1.0 / batch_len


def _hinge_model(w_sum, b_sum, n_avg: int, X, ypm, cfg: TrainConfig, trace: list,
                 epochs: int) -> LinearModel:
    """The fitted model: the average of the ``n_avg`` summed iterates, unit
    norm and bias 0 when normalized; ``trace`` gains its loss."""
    # epoch avg_start is always reached, so the average is never empty
    w = w_sum / n_avg
    b = b_sum / n_avg
    if cfg.normalized:
        nrm = np.linalg.norm(w)
        if nrm > 0:
            w /= nrm
        b = 0.0
    trace.append(_hinge_loss(w, b, X, ypm, cfg.l2))
    return LinearModel(w, np.asarray(b), num_classes=2, normalized=cfg.normalized,
                       loss_trace=trace, epochs=epochs)


def _fit_hinge(X, y, cfg: TrainConfig, rng) -> LinearModel:
    # minibatch subgradient descent with 1/t decay and tail iterate averaging
    n, d = X.shape
    ypm = np.where(y == 1, 1.0, -1.0)
    w, b = _hinge_start(d, cfg, rng)
    bs = cfg.batch_size
    lr = cfg.learning_rate
    l2 = cfg.l2
    t0, avg_start, neg_inv = _hinge_schedule(n, cfg)
    # a unit-norm fit trains on label-signed rows y * x. With y = +-1 and the
    # bias at +0.0 that keeps every bit: negation is exact and rounding is
    # symmetric, so (y x) . w == y (x . w + 0) in any summation order, and
    # each gradient term (y x)(-1/bl) == x (-y/bl). Only an exact-zero
    # gradient entry can change sign, and l2 * w absorbs it unless that is 0
    signed = cfg.normalized
    if signed:
        X = X * ypm[:, None]
        ypm = None
    w_sum = np.zeros(d)
    b_sum = 0.0
    n_avg = 0
    trace = []  # the losses the stop test reads, then the averaged model's
    prev = np.inf
    t = 0
    for epoch in range(cfg.epochs):
        # one gather per epoch, batches are views of it. The step is the
        # mean hinge subgradient plus l2 * w, computed in place with the float
        # operations in the order of the frozen trainer in
        # tests/reference_trainer.py, so the fitted bits do not change
        order = rng.permutation(n)
        Xo = X[order]
        if not signed:
            yo = ypm[order]
            co = yo * neg_inv  # -y / bl, exact since y = +-1
        for start in range(0, n, bs):
            sl = slice(start, start + bs)
            Xb = Xo[sl]
            t += 1
            eta = lr / (1.0 + t / t0)
            mg = Xb.dot(w)
            if signed:
                coef = np.where(mg < 1.0, neg_inv[sl], 0.0)
            else:
                mg += b
                mg *= yo[sl]
                coef = np.where(mg < 1.0, co[sl], 0.0)
            gw = Xb.T.dot(coef)
            gw += l2 * w
            gw *= eta
            w -= gw
            if not signed:
                b -= eta * float(np.add.reduce(coef))
            if epoch >= avg_start:
                w_sum += w
                b_sum += b
                n_avg += 1
        # the stop test compares consecutive losses from epoch avg_start on,
        # so no earlier loss is read
        if epoch >= avg_start - 1:
            loss = _hinge_loss(w, b, X, ypm, l2)
            trace.append(loss)
            if abs(prev - loss) < cfg.tolerance and epoch >= avg_start:
                break
            prev = loss
    return _hinge_model(w_sum, b_sum, n_avg, X, ypm, cfg, trace, epoch + 1)


def _fit_hinge_stack(Xs: list, ys: list, cfg: TrainConfig, rngs: list) -> list:
    """``_fit_hinge`` of each (X, y, rng), T >= 2 fits of n rows of dimension
    d each, stepped in lockstep. Every array of the fits is stacked on a
    leading axis, so one step is a few NumPy calls whatever T is: the margins
    are one ``np.matmul`` over (T, bs, d) @ (T, d, 1), the gradient one over
    (T, d, bs) @ (T, bs, 1). NumPy runs each slice of these as the
    matrix-vector product ``_fit_hinge`` calls, and every other operation is
    elementwise or a sum along one contiguous row, in ``_fit_hinge``'s order:
    each fit keeps its bits, its permutations are drawn from its own rng,
    and it leaves the stack when its own stop test fires."""
    T = len(Xs)
    n, d = Xs[0].shape
    X = np.stack(Xs)  # (T, n, d)
    ypm = np.where(np.stack(ys) == 1, 1.0, -1.0)  # (T, n)
    w = np.empty((T, d, 1))
    b = np.empty((T, 1, 1))
    for j, rng in enumerate(rngs):
        w[j, :, 0], b[j] = _hinge_start(d, cfg, rng)
    bs = cfg.batch_size
    lr = cfg.learning_rate
    l2 = cfg.l2
    t0, avg_start, neg_inv = _hinge_schedule(n, cfg)
    neg_inv = neg_inv[:, None]
    signed = cfg.normalized  # label-signed rows, as in _fit_hinge
    if signed:
        X = X * ypm[:, :, None]
    w_sum = np.zeros((T, d, 1))
    b_sum = np.zeros((T, 1, 1))
    n_avg = 0
    fits = list(range(T))  # the request index of each stack slot
    traces = [[] for _ in range(T)]
    prev = np.full(T, np.inf)
    models = [None] * T
    t = 0
    for epoch in range(cfg.epochs):
        slots = np.arange(len(fits))[:, None]
        order = np.stack([rngs[i].permutation(n) for i in fits])
        Xo = X[slots, order]
        if not signed:
            yo = ypm[slots, order][:, :, None]
            co = yo * neg_inv
        for start in range(0, n, bs):
            sl = slice(start, start + bs)
            Xb = Xo[:, sl]
            t += 1
            eta = lr / (1.0 + t / t0)
            mg = np.matmul(Xb, w)
            if signed:
                coef = np.where(mg < 1.0, neg_inv[sl], 0.0)
            else:
                mg += b
                mg *= yo[:, sl]
                coef = np.where(mg < 1.0, co[:, sl], 0.0)
            gw = np.matmul(Xb.transpose(0, 2, 1), coef)
            gw += l2 * w
            gw *= eta
            w -= gw
            if not signed:
                b -= eta * np.add.reduce(coef[:, :, 0], axis=1)[:, None, None]
            if epoch >= avg_start:
                w_sum += w
                b_sum += b
                n_avg += 1
        if epoch >= avg_start - 1:
            # _hinge_loss of every slot: its steps over (T, n), each row's
            # sum one contiguous reduction, as _hinge_loss takes it
            margins = np.matmul(X, w)[:, :, 0]
            if not signed:
                margins += b[:, 0]
                margins *= ypm
            np.subtract(1.0, margins, out=margins)
            np.maximum(0.0, margins, out=margins)
            sums = np.add.reduce(margins, axis=1)
            stop = np.zeros(len(fits), dtype=bool)
            for s, i in enumerate(fits):
                ws = w[s, :, 0]
                loss = float(sums[s] / n + ((0.5 * l2) * ws).dot(ws))
                traces[i].append(loss)
                stop[s] = abs(prev[s] - loss) < cfg.tolerance and epoch >= avg_start
                prev[s] = loss
            if epoch + 1 == cfg.epochs:
                stop[:] = True
            for s in np.flatnonzero(stop):
                i = fits[s]
                models[i] = _hinge_model(w_sum[s, :, 0], b_sum[s, 0, 0], n_avg, X[s],
                                         None if signed else ypm[s], cfg, traces[i],
                                         epoch + 1)
            if stop.any():
                keep = ~stop
                fits = [i for i, k in zip(fits, keep) if k]
                if not fits:
                    break
                X, ypm, w, b, w_sum, b_sum, prev = (
                    a[keep] for a in (X, ypm, w, b, w_sum, b_sum, prev))
    return models


def _fit_logistic(X, y, K, cfg: TrainConfig, rng) -> LinearModel:
    # minibatch SGD on the mean multinomial log loss plus 0.5 * l2 * ||W||^2,
    # with a per-epoch 1/t step. Each step runs in place with the float
    # operations of the frozen trainer in tests/reference_trainer.py, in the
    # same order, so a fit whose stop test does not fire keeps its bits. The
    # stop test reads the epoch's loss as its batches saw it: each batch's
    # log loss at the weights it stepped from, taken from the log-softmax the
    # step computes anyway, so no epoch pays a full-data pass
    n, d = X.shape
    W = np.zeros((K, d))
    b = np.zeros(K)
    bs = cfg.batch_size
    l2 = cfg.l2
    rows = np.arange(min(n, bs))
    trace = []
    prev = np.inf
    for epoch in range(cfg.epochs):
        eta = cfg.learning_rate / (1.0 + 0.1 * epoch)
        order = rng.permutation(n)
        nll = 0.0
        for start in range(0, n, bs):
            idx = order[start:start + bs]
            Xb = X[idx]
            yb = y[idx]
            m = len(idx)
            r = rows[:m]
            z = Xb @ W.T
            z += b
            z -= np.maximum.reduce(z, axis=1, keepdims=True)
            lse = np.add.reduce(np.exp(z), axis=1, keepdims=True)
            np.log(lse, out=lse)
            z -= lse
            nll -= np.add.reduce(z[r, yb])
            np.exp(z, out=z)
            z[r, yb] -= 1.0
            gW = z.T @ Xb
            gW /= m
            gW += l2 * W
            gW *= eta
            W -= gW
            gb = np.add.reduce(z, axis=0)
            gb /= m
            gb *= eta
            b -= gb
        w2 = W.ravel()
        loss = float(nll / n + 0.5 * l2 * w2.dot(w2))
        trace.append(loss)
        if abs(prev - loss) < cfg.tolerance:
            break
        prev = loss
    return LinearModel(W, b, num_classes=K, loss_trace=trace, epochs=epoch + 1)


def fit(X: np.ndarray, y: np.ndarray, cfg: TrainConfig, seed: int,
        num_classes: int | None = None) -> LinearModel:
    """ERM on the gathered human labels.

    A single-class training set yields a model that predicts that class
    rather than an error, since early TBAL rounds can legitimately see one
    class only: zero weights and a bias of 1 for that class and -1 for the
    others (binary: ``2c - 1``), so every row's logits are exactly those.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise TrainingError("empty training set")
    top = int(y.max())
    K = num_classes if num_classes is not None else top + 1
    # not np.unique: on NumPy 2.4 it imports numpy.ma on first use
    if y.min() == top:
        d = X.shape[1]
        bias = np.full(K, -1.0)
        bias[top] = 1.0
        if K == 2:  # the margin's bias is the class-1 logit, 2c - 1
            return LinearModel(np.zeros(d), np.asarray(bias[1]), num_classes=2)
        return LinearModel(np.zeros((K, d)), bias, num_classes=K)
    rng = rng_from(seed, "fit")
    if cfg.loss == HINGE:
        if K != 2:
            raise TrainingError("hinge trainer is binary only; use logistic for K > 2")
        return _fit_hinge(X, y, cfg, rng)
    elif cfg.loss == LOGISTIC:
        return _fit_logistic(X, y, K, cfg, rng)
    raise TrainingError(f"unknown loss {cfg.loss!r}")


def fit_many(requests: list) -> list[LinearModel]:
    """``fit(*request)`` of each request, in order; a request is the tuple of
    ``fit``'s arguments (X, y, cfg, seed, num_classes).

    Binary hinge fits with both classes present, rows of one shape (n, d)
    and equal configs step together when there are two or more of them
    (``_fit_hinge_stack``), with the bits ``fit`` gives each. Every other
    request goes through ``fit``: a lone fit too, since the stacked step ran
    at 0.55-0.69 of ``_fit_hinge``'s speed for one fit."""
    stacks: dict = {}
    for i, (X, y, cfg, _, num_classes) in enumerate(requests):
        y = np.asarray(y)
        if (cfg.loss == HINGE and len(y) and y.min() != y.max()
                and (num_classes if num_classes is not None else int(y.max()) + 1) == 2):
            stacks.setdefault((np.shape(X), *vars(cfg).values()), []).append(i)
    models = [None] * len(requests)
    for ids in stacks.values():
        if len(ids) > 1:
            fitted = _fit_hinge_stack(
                [np.asarray(requests[i][0], dtype=np.float64) for i in ids],
                [np.asarray(requests[i][1], dtype=np.int64) for i in ids],
                requests[ids[0]][2], [rng_from(requests[i][3], "fit") for i in ids])
            for i, model in zip(ids, fitted):
                models[i] = model
    return [fit(*r) if m is None else m for m, r in zip(models, requests)]
