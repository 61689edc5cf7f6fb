"""Confidence functions g(model, x) -> nonnegative score, larger = more
confident, computed from the model's raw scores of the rows x
(``model.raw_scores``), so a caller computes the product once and scores
any subset of its rows. All kinds share that orientation so threshold
search stays kind-agnostic.

Only NumPy is imported here: scipy, which the energy kind reads, is imported
on its first use, so importing the package and failing a config stay cheap."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as linmod


@dataclass(frozen=True)
class AbsMargin:
    """|w.x| for binary models; clipped to [0,1] when the model is
    unit-norm and the data lives in the unit ball."""


@dataclass(frozen=True)
class Softmax:
    """The largest softmax probability over the class scores."""


@dataclass(frozen=True)
class Energy:
    """Negated energy score: T * logsumexp(z / T). Monotone in confidence;
    the engine shifts scores into R+ per round (see shift_nonnegative)."""
    temperature: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("energy temperature must be finite and > 0")


KINDS = {"abs_margin": AbsMargin, "softmax": Softmax, "energy": Energy}


def make_kind(name: str, **params):
    try:
        return KINDS[name](**params)
    except KeyError:
        raise ValueError(f"unknown confidence kind {name!r}") from None


def score(kind, model, raw) -> tuple[np.ndarray, np.ndarray]:
    """(predicted class, confidence) for each row of the model's raw scores
    ``raw`` (``model.raw_scores``): a binary model's margins, shape (n,), or
    the logits, shape (n, K)."""
    raw = np.asarray(raw, dtype=np.float64)
    row = () if model.binary else (model.num_classes,)
    if raw.ndim != 1 + len(row) or raw.shape[1:] != row:
        raise ValueError(f"raw scores of shape {raw.shape} do not fit the model's "
                         f"{model.num_classes} classes")
    if isinstance(kind, AbsMargin):
        if not model.binary:
            raise ValueError("abs_margin is defined for binary models only")
        # the margin serves both: the argmax of the logit pair (-s, s) is
        # s > 0, with a tie (s == 0) going to class 0
        s = linmod.check_finite(raw)
        conf = np.abs(s)
        if model.normalized:
            conf = np.minimum(conf, 1.0)
        return (s > 0).astype(np.int64), conf
    z = linmod.check_finite(linmod.as_logits(model, raw))
    if isinstance(kind, Softmax):
        # scipy.special.softmax's own steps, so the scores keep its bits
        e = np.exp(z - z.max(axis=1, keepdims=True))
        conf = (e / e.sum(axis=1, keepdims=True)).max(axis=1)
    elif isinstance(kind, Energy):
        # not a two-line NumPy formula (it sums the non-max terms with log1p),
        # so scipy's, whose bits the energy scores keep
        from scipy.special import logsumexp
        t = kind.temperature
        conf = t * logsumexp(z / t, axis=1)
    else:
        raise ValueError(f"unknown confidence kind {kind!r}")
    return np.argmax(z, axis=1), conf


def shift_nonnegative(*score_arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Shared affine shift so every score is >= 0 (energy scores can be
    negative). One shift across all arrays keeps pool and validation scores
    comparable within a round."""
    lo = min((a.min() for a in score_arrays if len(a)), default=0.0)
    if lo >= 0:
        return score_arrays
    return tuple(a - lo for a in score_arrays)
