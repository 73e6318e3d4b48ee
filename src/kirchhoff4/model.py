"""Scalar model ingredients of the nonlocal problem.

The equation couples a Kirchhoff factor g applied to the squared energy
norm with a reaction term

    f(t) = Cp |t|^(p-2) t + |t|^(p-2) t exp(alpha0 |t|^gamma),

which combines a pure power with critical exponential growth of exponent
gamma = 2/(1-beta).  This module holds the Kirchhoff family g/G, the
nonlinearity f/F, the exponential-integrability constant of the weighted
space, and a numerical checker for every structural hypothesis the
solver relies on (monotonicity, superadditivity, growth comparisons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp1f1

__all__ = [
    "RangeOverflowError",
    "KirchhoffSpec",
    "NonlinearitySpec",
    "ModelParams",
    "adams_constant",
    "growth_exponent",
    "CheckResult",
    "HypothesisReport",
    "check_hypotheses",
    "default_params",
    "params_to_dict",
    "params_from_dict",
]

EXP_GUARD = 700.0  # natural-log overflow guard for exp arguments
_UNIT_FACTOR_BOUND = np.finfo(float).eps / 4.0  # below it e^X 1F1(1; b; -X) rounds to 1


class RangeOverflowError(ValueError):
    """Raised when an exponential argument exceeds the overflow guard."""


# ---------------------------------------------------------------------------
# Kirchhoff family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KirchhoffSpec:
    """Kirchhoff factor g: nondecreasing, continuous, g(0) = g0 > 0.

    kind "affine":   g(t) = g0 + a t          (a >= 0)
    kind "log-type": g(t) = 1 + log(1 + t)    (g0 = 1)
    """

    kind: str = "affine"
    g0: float = 1.0
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in ("affine", "log-type"):
            raise ValueError(f"unknown Kirchhoff kind {self.kind!r}")
        if self.kind == "log-type" and self.g0 != 1.0:
            raise ValueError("log-type Kirchhoff has g0 = 1")
        if self.g0 <= 0.0:
            raise ValueError("g(0) = g0 must be positive")
        if self.a < 0.0:
            raise ValueError("affine slope must be nonnegative")

    @classmethod
    def affine(cls, g0: float, a: float) -> "KirchhoffSpec":
        return cls(kind="affine", g0=g0, a=a)

    @classmethod
    def log_type(cls) -> "KirchhoffSpec":
        return cls(kind="log-type", g0=1.0, a=0.0)

    def g(self, t):
        self._check_domain(t)
        if self.kind == "affine":
            return self.g0 + self.a * np.asarray(t, dtype=float)
        return 1.0 + np.log1p(np.asarray(t, dtype=float))

    def G(self, t):
        """Antiderivative with G(0) = 0, exact per kind."""
        self._check_domain(t)
        t = np.asarray(t, dtype=float)
        if self.kind == "affine":
            return self.g0 * t + 0.5 * self.a * t * t
        return (1.0 + t) * np.log1p(t)

    def g_prime(self, t):
        self._check_domain(t)
        t = np.asarray(t, dtype=float)
        if self.kind == "affine":
            return np.full_like(t, self.a)
        return 1.0 / (1.0 + t)

    @staticmethod
    def _check_domain(t):
        negative = t < 0.0 if isinstance(t, float) else np.any(np.asarray(t) < 0.0)
        if negative:
            raise ValueError("Kirchhoff functions are defined for t >= 0")


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonlinearitySpec:
    """Reaction term f(t) = cp |t|^(p-2) t + |t|^(p-2) t exp(alpha0 |t|^gamma).

    x-independent radial instance; odd in t; dominates cp |t|^(p-1) in
    absolute value.  alpha0 = 0 is the degenerate polynomial mode with
    the closed form F(t) = (cp + 1) |t|^p / p.
    """

    cp: float
    p: float
    alpha0: float
    gamma: float

    def __post_init__(self):
        if self.p <= 2.0:
            raise ValueError("power p must exceed 2")
        if self.alpha0 < 0.0:
            raise ValueError("exponential coefficient must be nonnegative")
        if self.gamma <= 0.0:
            raise ValueError("growth exponent must be positive")
        if self.cp < 0.0:
            raise ValueError("power coefficient must be nonnegative")

    # --- raw evaluations (vector-safe); overflow guard enforced --------

    def guard_scale(self) -> float:
        """Largest |t| whose exponential argument stays under the guard."""
        if self.alpha0 == 0.0:
            return math.inf
        return (EXP_GUARD / self.alpha0) ** (1.0 / self.gamma)

    def _exp_arg(self, at):
        return self.alpha0 * at**self.gamma

    def _guarded_exp_arg(self, at):
        """The exponential argument alpha0 |t|^gamma, checked against the guard."""
        arg = self._exp_arg(at)
        bad = np.max(arg, initial=0.0) if np.ndim(arg) else arg
        if bad > EXP_GUARD:
            raise RangeOverflowError(
                f"exponential argument {bad:.3g} exceeds the overflow guard {EXP_GUARD:g}"
            )
        return arg

    def f(self, t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        arg = self._guarded_exp_arg(at)
        head = at ** (self.p - 2.0) * t
        return self.cp * head + head * np.exp(arg)

    def f_prime(self, t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        arg = self._guarded_exp_arg(at)
        body = at ** (self.p - 2.0)
        return self.cp * (self.p - 1.0) * body + body * np.exp(arg) * (
            self.p - 1.0 + self.gamma * arg
        )

    def F(self, t):
        """Antiderivative with F(0) = 0; even in t.

        The exponential part E(T) = int_0^T s^(p-1) exp(alpha0 s^gamma) ds
        has the closed form (T^p/p) e^X 1F1(1; a+1; -X) with a = p/gamma and
        X = alpha0 T^gamma (DLMF 8.5, 13.2: Kummer's transformation of
        1F1(a; a+1; X)).  The T^p/p prefactor keeps tiny T representable.
        Where X <= eps/4 the factor 1F1(a; a+1; X) = 1 + a X/(a+1) + ...
        rounds to 1, so 1F1 is evaluated only above that bound.
        """
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        arg = np.asarray(self._guarded_exp_arg(at))
        at_p = at**self.p
        power_part = self.cp * at_p / self.p
        tail = np.array(at_p / self.p)
        big = arg > _UNIT_FACTOR_BOUND
        x = arg[big]
        tail[big] = tail[big] * hyp1f1(1.0, self.p / self.gamma + 1.0, -x) * np.exp(x)
        return power_part + tail


# ---------------------------------------------------------------------------
# constants of the weighted space
# ---------------------------------------------------------------------------


def adams_constant(beta: float) -> float:
    """Exponential-integrability threshold 4 [8 pi^2 (1 - beta)]^(1/(1-beta)).

    Over the unit ball of the weighted space, int_B exp(alpha |u|^gamma)
    stays uniformly bounded precisely for alpha up to this value.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"weight exponent must lie in (0, 1), got {beta}")
    return 4.0 * (8.0 * np.pi**2 * (1.0 - beta)) ** (1.0 / (1.0 - beta))


def growth_exponent(beta: float) -> float:
    """Critical growth exponent gamma = 2/(1 - beta)."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"weight exponent must lie in [0, 1), got {beta}")
    return 2.0 / (1.0 - beta)


# ---------------------------------------------------------------------------
# parameter bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """All scalar parameters of one problem instance.

    The growth exponent of the nonlinearity is tied to the weight through
    gamma = 2/(1-beta); use ModelParams.create to keep them consistent.
    theta (the superlinearity exponent) equals p for this family.
    """

    beta: float
    q: float
    p: float
    delta: float
    kirchhoff: KirchhoffSpec
    nonlinearity: NonlinearitySpec

    @property
    def theta(self) -> float:
        return self.p

    @property
    def cp(self) -> float:
        return self.nonlinearity.cp

    @property
    def alpha0(self) -> float:
        return self.nonlinearity.alpha0

    @property
    def gamma(self) -> float:
        return self.nonlinearity.gamma

    @classmethod
    def create(
        cls,
        beta: float,
        q: float,
        p: float,
        cp: float,
        alpha0: float,
        delta: float,
        kirchhoff: KirchhoffSpec,
    ) -> "ModelParams":
        nl = NonlinearitySpec(cp=cp, p=p, alpha0=alpha0, gamma=growth_exponent(beta))
        return cls(beta=beta, q=q, p=p, delta=delta, kirchhoff=kirchhoff, nonlinearity=nl)

    def with_cp(self, cp: float) -> "ModelParams":
        return ModelParams.create(
            self.beta, self.q, self.p, cp, self.alpha0, self.delta, self.kirchhoff
        )


def default_params(cp: float = 2.0) -> ModelParams:
    """Reference parameter set: every strict inequality holds with margin."""
    return ModelParams.create(
        beta=0.5,
        q=5.0,
        p=6.0,
        cp=cp,
        alpha0=1.0,
        delta=0.1,
        kirchhoff=KirchhoffSpec.affine(1.0, 1.0),
    )


_PARAM_KEYS = ("beta", "q", "p", "Cp", "alpha0", "delta", "kirchhoff.kind", "kirchhoff.g0", "kirchhoff.a")


def params_to_dict(params: ModelParams) -> dict:
    """Flat key-value form used by config files and reports."""
    return {
        "beta": params.beta,
        "q": params.q,
        "p": params.p,
        "Cp": params.cp,
        "alpha0": params.alpha0,
        "delta": params.delta,
        "kirchhoff.kind": params.kirchhoff.kind,
        "kirchhoff.g0": params.kirchhoff.g0,
        "kirchhoff.a": params.kirchhoff.a,
    }


def params_from_dict(data: dict) -> ModelParams:
    missing = [k for k in _PARAM_KEYS if k not in data]
    if missing:
        raise KeyError(f"missing parameter keys: {missing}")
    kirchhoff = KirchhoffSpec(
        kind=data["kirchhoff.kind"],
        g0=float(data["kirchhoff.g0"]),
        a=float(data["kirchhoff.a"]),
    )
    return ModelParams.create(
        beta=float(data["beta"]),
        q=float(data["q"]),
        p=float(data["p"]),
        cp=float(data["Cp"]),
        alpha0=float(data["alpha0"]),
        delta=float(data["delta"]),
        kirchhoff=kirchhoff,
    )


# ---------------------------------------------------------------------------
# hypothesis checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    witness: float | tuple

    def to_dict(self) -> dict:
        wit = self.witness if not isinstance(self.witness, tuple) else list(self.witness)
        return {"name": self.name, "passed": bool(self.passed), "margin": float(self.margin), "witness": wit}


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple
    sample_count: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "sample_count": self.sample_count,
            "checks": [c.to_dict() for c in self.checks],
        }

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


_REL_SLACK = 1e-9  # floating-point slack for non-strict inequalities


def _min_margin(values, witnesses):
    """Worst margin and the sample where it occurs."""
    i = int(np.argmin(values))
    wit = witnesses[i] if not isinstance(witnesses, tuple) else tuple(w[i] for w in witnesses)
    return float(values[i]), wit


def _monotone_check(name, ts, vals, scale=None):
    diffs = np.diff(vals)
    scale = np.abs(vals[1:]) + np.abs(vals[:-1]) if scale is None else scale
    rel = diffs / (1.0 + scale)
    margin, wit = _min_margin(rel, ts[1:])
    return CheckResult(name, bool(margin >= -_REL_SLACK), margin, wit)


def _representable_scale(nl: NonlinearitySpec, guard: float) -> float:
    """Largest scale up to the guard at which the largest term the checks
    form, t^p (cp + e^X) (p - 1 + gamma X) with X = alpha0 t^gamma, stays
    under the overflow guard in log-magnitude.

    The guard bounds only X; near it t f(t), F and f' are already past the
    double range when p is large or alpha0 small.  The log-magnitude
    increases with t, so bisection in log t finds the limit.
    """
    log_cp = math.log(nl.cp) if nl.cp > 0.0 else -math.inf

    def log_magnitude(log_t: float) -> float:
        x = nl._exp_arg(math.exp(log_t))
        return nl.p * log_t + np.logaddexp(log_cp, x) + math.log(nl.p - 1.0 + nl.gamma * x)

    lo, hi = math.log(1e-6), math.log(guard)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if log_magnitude(mid) <= EXP_GUARD:
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


def check_hypotheses(params: ModelParams, sample_count: int = 200) -> HypothesisReport:
    """Sample-based verification of every structural hypothesis.

    Samples are log-spaced on (0, t_max] with t_max set by the overflow
    guard.  Failures are reported, never raised; each entry records the
    worst margin (negative means violated beyond slack) and its witness.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    g = params.kirchhoff
    nl = params.nonlinearity
    q, p = params.q, params.p
    t_max = nl.guard_scale()
    t_max = 10.0 if math.isinf(t_max) else 0.999 * _representable_scale(nl, t_max)
    ts = np.geomspace(1e-6, t_max, sample_count)

    checks = []

    # Kirchhoff side ----------------------------------------------------
    gv = np.asarray(g.g(ts))
    Gv = np.asarray(g.G(ts))
    checks.append(_monotone_check("g-increasing", ts, gv))
    checks.append(
        CheckResult("g0-positive", bool(g.g(0.0) > 0.0), float(g.g(0.0)), 0.0)
    )
    checks.append(_monotone_check("g-over-t-nonincreasing", ts, -gv / ts))

    rng_pairs = np.random.default_rng(0)
    s_pair = ts[rng_pairs.integers(0, sample_count, size=sample_count)]
    t_pair = ts[rng_pairs.integers(0, sample_count, size=sample_count)]
    super_margin = (np.asarray(g.G(s_pair + t_pair)) - np.asarray(g.G(s_pair)) - np.asarray(g.G(t_pair))) / (
        1.0 + np.abs(Gv.max())
    )
    margin, wit = _min_margin(super_margin, (s_pair, t_pair))
    checks.append(CheckResult("G-superadditive", bool(margin >= -_REL_SLACK), margin, wit))

    g1 = float(g.g(1.0))
    lin = (g1 + g1 * ts - gv) / (1.0 + np.abs(gv))
    margin, wit = _min_margin(lin, ts)
    checks.append(CheckResult("g-affine-dominated", bool(margin >= -_REL_SLACK), margin, wit))

    quad_bound = (g1 * ts + 0.5 * g1 * ts**2 - Gv) / (1.0 + np.abs(Gv))
    margin, wit = _min_margin(quad_bound, ts)
    checks.append(CheckResult("G-quadratic-dominated", bool(margin >= -_REL_SLACK), margin, wit))

    h = 0.5 * Gv - 0.25 * gv * ts
    checks.append(_monotone_check("half-G-minus-quarter-gt-nondecreasing", ts, h))
    margin, wit = _min_margin(h / (1.0 + np.abs(Gv)), ts)
    checks.append(CheckResult("half-G-minus-quarter-gt-positive", bool(margin > 0.0), margin, wit))

    # nonlinearity side ---------------------------------------------------
    fv = np.asarray(nl.f(ts))
    Fv = np.asarray(nl.F(ts))

    theta_margin = (ts * fv - params.theta * Fv) / (1.0 + np.abs(ts * fv))
    margin, wit = _min_margin(theta_margin, ts)
    checks.append(CheckResult("superlinearity-theta", bool(margin >= -_REL_SLACK), margin, wit))
    margin, wit = _min_margin(Fv / (1.0 + np.abs(Fv)), ts)
    checks.append(CheckResult("F-positive", bool(margin > 0.0), margin, wit))

    ratio_q = fv / ts ** (q - 1.0)
    checks.append(_monotone_check("f-power-ratio-increasing-pos", ts, ratio_q))
    fneg = np.asarray(nl.f(-ts[::-1]))
    ratio_q_neg = fneg / np.abs(ts[::-1]) ** (q - 1.0)
    checks.append(_monotone_check("f-power-ratio-increasing-neg", -ts[::-1], ratio_q_neg))

    # vanishing slope at zero: |f(t)/t| shrinks toward zero as t decreases,
    # judged over the two decades above the smallest sample so the decay
    # rate is visible whatever the size of the power coefficient
    small = ts[ts <= 1e2 * ts[0]]
    slopes = np.abs(np.asarray(nl.f(small)) / small)
    shrinking = np.all(np.diff(slopes) >= -_REL_SLACK * (1.0 + np.abs(slopes[1:])))
    margin = float(1e-3 - slopes[0] / (1.0 + slopes[-1]))
    checks.append(
        CheckResult(
            "f-vanishing-slope-at-zero",
            bool(shrinking and margin > 0.0),
            margin,
            float(small[0]),
        )
    )

    lower = (np.sign(ts) * fv - nl.cp * ts ** (p - 1.0)) / (1.0 + np.abs(fv))
    margin, wit = _min_margin(lower, ts)
    checks.append(CheckResult("f-dominates-cp-power", bool(margin >= -_REL_SLACK), margin, wit))

    checks.append(_monotone_check("f-cubic-ratio-increasing", ts, fv / ts**3))

    checks.append(_monotone_check("tf-minus-qF-increasing", ts, ts * fv - q * Fv))

    odd_gap = np.abs(np.asarray(nl.f(-ts)) + fv)
    margin, wit = _min_margin(-odd_gap / (1.0 + np.abs(fv)), ts)
    checks.append(CheckResult("f-odd", bool(margin >= -_REL_SLACK), margin, wit))

    return HypothesisReport(checks=tuple(checks), sample_count=sample_count)
