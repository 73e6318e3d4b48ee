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

import numpy as np
from scipy.special import hyp1f1

__all__ = [
    "RangeOverflowError",
    "KirchhoffSpec",
    "NonlinearitySpec",
    "ModelParams",
    "adams_constant",
    "growth_exponent",
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
