"""Scalar model ingredients of the nonlocal problem.

The equation couples a Kirchhoff factor g applied to the squared energy
norm with a reaction term

    f(t) = Cp |t|^(p-2) t + |t|^(p-2) t exp(alpha0 |t|^gamma),

which combines a pure power with critical exponential growth of exponent
gamma = 2/(1-beta).  This module holds the Kirchhoff family g/G, the
nonlinearity f/F, the exponential-integrability constant of the weighted
space and the parameter bundle; the structural hypotheses on them are
checked in verify.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "RangeOverflowError",
    "KirchhoffSpec",
    "NonlinearitySpec",
    "ModelParams",
    "adams_constant",
    "growth_exponent",
    "default_params",
    "params_to_dict",
]

EXP_GUARD = 700.0  # natural-log overflow guard for exp arguments
_EPS = np.finfo(float).eps
_UNIT_FACTOR_BOUND = _EPS / 4.0  # below it 1F1(a; a+1; X) rounds to 1
_KUMMER_BINS = 4  # Taylor bins per unit of X; |h| <= 1/8 ...
_KUMMER_TERMS = 11  # ... so the first dropped term, h^11/11!, is below eps/50


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
        negative = t < 0.0 if isinstance(t, float) else (np.asarray(t) < 0.0).any()
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

    @cached_property
    def _exact_peak(self) -> float:
        """The magnitude |t| up to which the tail is exactly the pure power:
        its argument alpha0 |t|^gamma is eps / (4 max(1, gamma)) there, and
        up to that exp(x) rounds to 1 and p - 1 + gamma x to p - 1."""
        bound = _EPS / (4.0 * max(1.0, self.gamma))
        with np.errstate(divide="ignore", over="ignore"):  # alpha0 = 0: every |t|
            return float((np.float64(bound) / self.alpha0) ** (1.0 / self.gamma))

    def _tail_arg(self, at):
        """The exponential argument alpha0 |t|^gamma of the magnitudes at,
        or None where no entry passes _exact_peak.

        The argument grows with |t|, so the peak max|t| decides that, and
        the largest argument decides the overflow guard, which raises.
        """
        if at.max(initial=0.0) <= self._exact_peak:
            return None
        arg = self._exp_arg(at)
        top = arg.max(initial=0.0)
        if top > EXP_GUARD:
            raise RangeOverflowError(
                f"exponential argument {top:.3g} exceeds the overflow guard {EXP_GUARD:g}"
            )
        return arg

    def f(self, t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        arg = self._tail_arg(at)
        head = at ** (self.p - 2.0) * t
        if arg is None:
            return self.cp * head + head
        return self.cp * head + head * np.exp(arg)

    def F(self, t):
        """Antiderivative with F(0) = 0; even in t.

        The exponential part E(T) = int_0^T s^(p-1) exp(alpha0 s^gamma) ds
        has the closed form (T^p/p) 1F1(a; a+1; X) with a = p/gamma and
        X = alpha0 T^gamma (DLMF 8.5, 13.2).  The T^p/p prefactor keeps tiny
        T representable.  Where X <= eps/4 the factor 1F1(a; a+1; X) =
        1 + a X/(a+1) + ... rounds to 1, so it is evaluated only above that
        bound (_kummer_factor), and not at all when no |t| passes _exact_peak.
        """
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        arg = self._tail_arg(at)
        at_p = at**self.p
        power_part = self.cp * at_p / self.p
        return power_part + at_p / self.p * (1.0 if arg is None else self._kummer_factor(arg))

    def _kummer_factor(self, arg):
        """1F1(a; a+1; X) of the exponential arguments X, a = p/gamma, for F
        and FiberMap.value: 1 where X <= eps/4, where it rounds to 1."""
        out, big = np.ones_like(arg), arg > _UNIT_FACTOR_BOUND
        out[big] = _kummer(self.p / self.gamma, arg[big])
        return out


@lru_cache(maxsize=8)
def _kummer_tables(a: float):
    """Tables that evaluate 1F1(a; a+1; X) = sum_k a/(a+k) X^k/k! for X > 0.

    Beyond the switch point the asymptotic series a e^X/X sum_k (1-a)_k X^-k
    (DLMF 13.7.1) is used, cut at its first term below eps/16.  The switch
    is the first integer >= max(40, a) where such a term exists; with a <= X
    the terms shrink monotonically until then.  Below it, Taylor
    coefficients about the centres c of bins of width 1/_KUMMER_BINS,
    c_k = (1/k!) sum_i a/(a+k+i) c^i/i!: sums of positive terms, exact to
    rounding.  Returns (coefficients by term and bin, asymptotic
    coefficients (1-a)_k / switch^k, switch).
    """
    switch = max(40, math.ceil(a))
    while True:
        terms = np.cumprod((np.arange(1.0, 2 * switch + 8) - a) / switch)
        small = np.flatnonzero(np.abs(terms) <= _EPS / 16)
        if small.size or switch > EXP_GUARD:  # past the guard no X needs the series
            break
        switch += 1
    asym = np.append(1.0, terms[: small[0] + 1] if small.size else [])
    centre = (np.arange(switch * _KUMMER_BINS) + 0.5) / _KUMMER_BINS
    i = np.arange(1.0, switch + 12 * math.sqrt(switch) + 40)  # Poisson(c) tail < 1e-20
    powers = np.cumprod(np.hstack([np.ones((centre.size, 1)), centre[:, None] / i]), axis=1)
    k = np.arange(float(_KUMMER_TERMS))
    inv_fact = 1.0 / np.cumprod(np.maximum(k, 1.0))
    coef = (a / (a + k[:, None] + np.append(0.0, i))) @ powers.T * inv_fact[:, None]
    return coef, asym, switch


def _horner(coef, x: np.ndarray, bins=None) -> np.ndarray:
    """sum_k coef[k] x^k by Horner's rule, in numpy's polyval order; each
    coef[k] a scalar, or with bins a table indexed by them, gathered one
    term at a time."""
    acc = np.full_like(x, coef[-1] if bins is None else coef[-1][bins])
    for c in coef[-2::-1]:
        acc *= x
        acc += c if bins is None else c[bins]
    return acc


def _kummer(a: float, x: np.ndarray) -> np.ndarray:
    """1F1(a; a+1; x) = e^x 1F1(1; a+1; -x) for x > 0, to a few ulps."""
    coef, asym, switch = _kummer_tables(a)
    out = np.empty_like(x)
    low = x < switch
    xl = x[low] * _KUMMER_BINS
    j = xl.astype(np.intp)
    out[low] = _horner(coef, (xl - j - 0.5) / _KUMMER_BINS, j)
    if not low.all():
        xh = x[~low]
        inv = 1.0 / xh
        out[~low] = a * np.exp(xh) * inv * _horner(asym, switch * inv)
    return out


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
