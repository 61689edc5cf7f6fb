"""Numeric evaluators for the sample-complexity bounds: VC-based Rademacher
bound, the per-round error bound and the linear-class coverage bound, the
unit-ball band-probability bound, and the validation-size lower bound, plus
a Monte-Carlo harness that checks the error bound against actual runs."""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    pass


@dataclass
class BoundInputs:
    d: int  # VC dimension
    k: int  # rounds
    delta: float
    p0: float  # lower bound on per-round non-abstain mass
    n_v: list  # per-round validation sizes
    n_a: list  # per-round auto-label counts
    e_val: list  # per-round estimated validation errors
    N_a: int

    def __post_init__(self):
        if not 0 < self.p0 < 1:
            raise DomainError("p0 must be in (0, 1)")
        if len(self.n_v) != self.k or len(self.n_a) != self.k or len(self.e_val) != self.k:
            raise DomainError("per-round lists must have length k")


def rademacher_vc(n: int, d: int) -> float:
    """VC upper bound on the Rademacher complexity: sqrt((2d/n) log(en/d))."""
    if d < 1 or n < d:
        raise DomainError(f"need n >= d >= 1, got n={n}, d={d}")
    return math.sqrt((2.0 * d / n) * math.log(math.e * n / d))


def error_bound_vc(inputs: BoundInputs) -> float:
    """Auto-labeling error bound for VC classes.

    sum_i (n_a_i/N_a) [e_val_i + (4/p0) sqrt((2/n_v_i)(2d log(e n_v_i/d) + log(8k/delta)))]
      + (4/p0) sqrt((2k/N_a)(2d log(e N_a/d) + log(8k/delta)))
    """
    d, k, delta, p0 = inputs.d, inputs.k, inputs.delta, inputs.p0
    log_term = math.log(8.0 * k / delta)

    def cap(n):
        if n < d:
            raise DomainError(f"need n >= d, got n={n}, d={d}")
        return 2.0 * d * math.log(math.e * n / d)

    total = 0.0
    for n_v, n_a, e in zip(inputs.n_v, inputs.n_a, inputs.e_val):
        per_round = e + (4.0 / p0) * math.sqrt((2.0 / n_v) * (cap(n_v) + log_term))
        total += (n_a / inputs.N_a) * per_round
    total += (4.0 / p0) * math.sqrt((2.0 * k / inputs.N_a) * (cap(inputs.N_a) + log_term))
    return total


def coverage_bound_linear(t_hat_min: float, d: int, k: int, N: int,
                          delta: float) -> float:
    """Coverage lower bound for unit-norm homogeneous linear separators
    under the uniform unit-ball distribution. May be negative; returned
    as-is."""
    if not 0.0 <= t_hat_min <= 1.0:
        raise DomainError("t_hat_min must be in [0, 1]")
    if N < d:
        raise DomainError(f"need N >= d, got N={N}, d={d}")
    band = t_hat_min * math.sqrt(4.0 * d / math.pi)
    dev = 2.0 * k * math.sqrt(
        (2.0 / N) * (2.0 * d * math.log(math.e * N / d) + math.log(8.0 * k / delta)))
    return 1.0 - band - dev


def band_probability_bound(gamma1: float, gamma2: float, d: int) -> float:
    """P((x1, x2) in [0, g1] x [g2, 1]) for x uniform on the d-ball:
    (g1 sqrt(d) / (2 sqrt(pi))) exp(-(d-2) g2^2 / 2)."""
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if not (0.0 <= gamma1 <= 1.0 and 0.0 <= gamma2 <= 1.0):
        raise DomainError("gamma1, gamma2 must be in [0, 1]")
    return (gamma1 * math.sqrt(d) / (2.0 * math.sqrt(math.pi))) \
        * math.exp(-(d - 2) * gamma2 ** 2 / 2.0)


def min_validation_size(sigma: float, epsilon: float, c2: float = math.e / 4) -> int:
    """Smallest validation size not excluded by the lower-bound condition
    n_v < 12 sigma^2 log(4 c2) / epsilon^2."""
    if sigma <= 0 or epsilon <= 0 or c2 <= 0:
        raise DomainError("sigma, epsilon, c2 must be positive")
    val = 12.0 * sigma * sigma * math.log(4.0 * c2) / (epsilon * epsilon)
    if val <= 0:
        raise DomainError("log(4 c2) must be positive")
    return math.ceil(val)


def inputs_from_run(result, d: int, delta: float = 0.05) -> BoundInputs | None:
    """Plug-in bound inputs from an actual run. p0 is unobservable, so it is
    estimated as the minimum per-round non-abstain fraction on validation
    data (active points whose score met a threshold / active points).
    Returns None when the run never auto-labeled or p0 degenerates."""
    rounds = [r for r in result.rounds if r.n_a > 0]
    if not rounds or result.N_a == 0:
        return None
    n_v, n_a, e_val, p0s = [], [], [], []
    for r in rounds:
        if r.n_v == 0:
            return None
        frac = len(r.val_deactivated) / r.n_v
        if frac <= 0:
            return None
        p0s.append(frac)
        n_v.append(r.n_v)
        n_a.append(r.n_a)
        est = float(r.decision.est_error.max()) if r.decision else 0.0
        e_val.append(est)
    p0 = min(p0s)
    if not 0 < p0 < 1:
        return None
    return BoundInputs(d=d, k=len(rounds), delta=delta, p0=p0,
                       n_v=n_v, n_a=n_a, e_val=e_val, N_a=result.N_a)


@dataclass
class McReport:
    trials: int
    evaluated: int  # runs where the bound was non-vacuous and defined
    violations: int
    vacuous: int  # bound > 1 or inputs degenerate
    violation_rate: float
    allowed_rate: float


def verify_error_bound_mc(make_run, d: int, trials: int,
                          delta: float = 0.05) -> McReport:
    """Run `make_run(seed)` for seeds 0..trials-1, compare each observed
    auto-labeling error to the plug-in bound, and report the violation rate
    against delta plus Monte-Carlo slack 3 sqrt(delta/trials)."""
    from .metrics import evaluate

    evaluated = violations = vacuous = 0
    for s in range(trials):
        result = make_run(s)
        inputs = inputs_from_run(result, d=d, delta=delta)
        if inputs is None:
            vacuous += 1
            continue
        try:
            bound = error_bound_vc(inputs)
        except DomainError:
            vacuous += 1
            continue
        if bound > 1.0:
            vacuous += 1
            continue
        report = evaluate(result, result.pool)
        if math.isnan(report.err_hat):
            vacuous += 1
            continue
        evaluated += 1
        if report.err_hat > bound:
            violations += 1
    rate = violations / evaluated if evaluated else 0.0
    allowed = delta + 3.0 * math.sqrt(delta / trials)
    return McReport(trials=trials, evaluated=evaluated, violations=violations,
                    vacuous=vacuous, violation_rate=rate, allowed_rate=allowed)
