"""Energy functional, weak derivative action, and fibering maps.

For a profile u in the weighted space with squared norm S = ||u||^2,

    J(u) = (1/2) G(S) - (1/q) int_B |u|^q dx - int_B F(u) dx.

The weak action <J'(u), phi> and the Riesz representative of J'(u) in the
weighted scalar product (the Sobolev gradient used for descent) both
reduce to dense linear algebra on the collocation grid.  The fibering map
t -> J(t u) and its derivative drive the Nehari projection; they are
evaluated through precomputed direction moments so that root finding
costs O(n) per point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    EXP_GUARD,
    KirchhoffSpec,
    ModelParams,
    NonlinearitySpec,
    RangeOverflowError,
)
from .radial import RadialFunction, RadialGrid, clamped_even_basis, rowwise, weighted_rule

__all__ = [
    "EnergyBreakdown",
    "energy",
    "weak_action",
    "sobolev_gradient",
    "fibering",
    "nehari_residual",
    "FiberMap",
    "operator_cache",
]

_COND_LIMIT = 1e14


@dataclass(frozen=True)
class EnergyBreakdown:
    """The three terms of J(u); total = kirchhoff - power - reaction."""

    kirchhoff_term: float
    power_term: float
    f_term: float
    total: float


class _WOperators:
    """Per-(grid, beta) dense operators for the weighted inner product.

    rule     the weighted rule of the grid (radial.weighted_rule)
    gram     nodal Gram matrix of the weighted scalar product
    basis    unit-norm columns spanning the discrete clamped subspace
    a        Gram matrix of the basis, basis^T gram basis
    riesz_matrix  the Riesz map basis a^-1 basis^T: one product per gradient
    """

    def __init__(self, grid: RadialGrid, beta: float):
        self.rule = weighted_rule(grid, beta)
        self.gram = grid.lap.T @ (self.rule.wvol[:, None] * grid.lap)
        raw = self._clamped_basis(grid)
        diag = np.einsum("ij,ij->j", raw, self.gram @ raw)
        if np.any(diag <= 0.0):
            raise RuntimeError("weighted Gram matrix is not positive definite")
        # columns normalized to unit weighted norm: a is then equilibrated
        # and its solve for the Riesz matrix is accurate to ~cond(a) eps
        self.basis = raw / np.sqrt(diag)
        self.a = self.basis.T @ self.gram @ self.basis
        eigs = np.linalg.eigvalsh(self.a)
        self.cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0.0 else np.inf
        if self.cond > _COND_LIMIT:
            warnings.warn(
                f"weighted Gram matrix condition estimate {self.cond:.3g} exceeds {_COND_LIMIT:g} "
                f"(grid n={grid.n}, scheme={grid.scheme})",
                RuntimeWarning,
                stacklevel=2,
            )
        self.riesz_matrix = self.basis @ np.linalg.solve(self.a, self.basis.T)

    @staticmethod
    def _clamped_basis(grid: RadialGrid) -> np.ndarray:
        n = grid.n
        if grid.scheme == "spectral-even":
            # hierarchical polynomial basis spanning the whole discrete
            # clamped subspace
            x = 2.0 * grid.nodes**2 - 1.0
            return clamped_even_basis(x, n - 2)
        # Nodal basis on the uniform grid (polynomial modes alias near the
        # boundary there): unit vectors at interior nodes corrected through
        # the next-to-boundary value so that u(1) = 0 and (d1 u)(1) = 0.
        last = grid.d1[-1]
        basis = np.eye(n, n - 2)
        basis[n - 2] = -last[: n - 2] / last[n - 2]
        return basis

    def riesz(self, load: np.ndarray) -> np.ndarray:
        """Solve w_inner(v, phi) = <load, phi> over the clamped subspace, for
        a load (n,) or row by row of a stack (k, n)."""
        return rowwise(self.riesz_matrix, load)


@lru_cache(maxsize=16)
def operator_cache(grid: RadialGrid, beta: float) -> _WOperators:
    return _WOperators(grid, beta)


# ---------------------------------------------------------------------------
# energy and weak action
# ---------------------------------------------------------------------------


def energy(u: RadialFunction, params: ModelParams) -> EnergyBreakdown:
    """Evaluate J(u) term by term."""
    ops = operator_cache(u.grid, params.beta)
    kirch, power, reaction = (float(x) for x in _energy_terms(ops, u.values, params))
    return EnergyBreakdown(kirch, power, reaction, kirch - power - reaction)


def _energy_terms(ops: _WOperators, values: np.ndarray, params: ModelParams):
    """Kirchhoff, power and reaction terms of J for nodal values of shape
    (n,) or a stack of profiles of shape (k, n)."""
    kirch = 0.5 * params.kirchhoff.G(ops.rule.form(values))
    power = rowwise(ops.rule.vol, np.abs(values) ** params.q) / params.q
    reaction = rowwise(ops.rule.vol, params.nonlinearity.F(values))
    return kirch, power, reaction


def weak_action(u: RadialFunction, phi: RadialFunction, params: ModelParams) -> float:
    """Directional derivative <J'(u), phi>; linear in phi."""
    if u.grid is not phi.grid:
        raise ValueError("operands live on different grids")
    rule = weighted_rule(u.grid, params.beta)
    g_val = float(params.kirchhoff.g(rule.form(u.values)))
    head = g_val * float(rule.form(u.values, phi.values))
    return head - float(rule.vol @ (_nodal_force(u.values, params) * phi.values))


def _nodal_force(values: np.ndarray, params: ModelParams) -> np.ndarray:
    """Pointwise force |u|^(q-2) u + f(u) of the lower-order terms of J."""
    return np.abs(values) ** (params.q - 2.0) * values + params.nonlinearity.f(values)


def sobolev_gradient(u: RadialFunction, params: ModelParams) -> RadialFunction:
    """Riesz representative v of J'(u): w_inner(v, phi) = <J'(u), phi>
    for every phi in the discrete clamped subspace; v = 0 exactly at
    discrete critical points."""
    ops = operator_cache(u.grid, params.beta)
    load = _residual_load(ops, u.values, params, _nodal_force(u.values, params))
    return RadialFunction(u.grid, ops.riesz(load))


def _residual_load(ops: _WOperators, values: np.ndarray, params: ModelParams, force: np.ndarray) -> np.ndarray:
    """Nodal load vector rho with <J'(u), phi> = rho . phi_values, for the
    Kirchhoff term and the nodal force of the lower-order terms; row by row
    for a stack (k, n) of profiles and forces."""
    g_val = params.kirchhoff.g(ops.rule.form(values))[..., None]
    return g_val * rowwise(ops.gram, values) - ops.rule.vol * force


def nehari_residual(u: RadialFunction, params: ModelParams) -> float:
    """<J'(u), u>: zero precisely on the Nehari set."""
    return weak_action(u, u, params)


def _nehari_residuals(ops: _WOperators, values: np.ndarray, params: ModelParams) -> np.ndarray:
    """<J'(u), u> = g(S) S - vol . (force(u) u) of each profile of a stack
    (k, n), one Laplacian product per profile.  Profiles past the overflow
    guard give -inf, where the reaction tail certainly dominates."""
    inside = params.nonlinearity._exp_arg(np.abs(values).max(axis=1)) <= EXP_GUARD
    out = np.full(len(values), -np.inf)
    v = values[inside]
    s = ops.rule.form(v)
    out[inside] = params.kirchhoff.g(s) * s - rowwise(ops.rule.vol, _nodal_force(v, params) * v)
    return out


# ---------------------------------------------------------------------------
# fibering map
# ---------------------------------------------------------------------------


class FiberMap:
    """Scalar restriction t -> J(t u) reduced to moments of the direction.

    power_moments holds (exponent e, moment M) pairs contributing
    -(t^e / e) M to the value.  The exponential tail of the reaction term
    (absent for the pure-power functional and for alpha0 = 0) is carried
    by per-node weights vol |v|^p and rates alpha0 (|v|/vmax)^gamma, taken
    once: since |t v|^e = t^e |v|^e, its derivative is t^(p-1) sum_i
    weight_i exp((t vmax)^gamma rate_i), one exp per (scale, node) pair.
    Synthetic moment sets exercise the projection root finder without any
    grid.
    """

    def __init__(
        self,
        kirchhoff: KirchhoffSpec,
        norm_sq: float,
        power_moments: tuple,
        tail_spec: NonlinearitySpec | None = None,
        values: np.ndarray | None = None,
        vol: np.ndarray | None = None,
    ):
        self.kirchhoff = kirchhoff
        self.norm_sq = float(norm_sq)
        self.power_moments = tuple((float(e), float(m)) for e, m in power_moments)
        self.tail_spec = tail_spec
        self.values = None
        if tail_spec is not None:
            mask = np.abs(values) > 0.0
            self.values = values[mask]
            av = np.abs(self.values)
            # rates relative to the largest node: (t vmax)^gamma stays
            # finite up to the guard however large gamma is
            self.vmax = av.max(initial=0.0)
            self.weight = vol[mask] * av**tail_spec.p
            self.rate = tail_spec.alpha0 * (av / self.vmax) ** tail_spec.gamma
            # largest scale whose tail stays under the overflow guard
            self.scale_limit = tail_spec.guard_scale() / self.vmax if self.vmax > 0.0 else np.inf

    # --- builders -------------------------------------------------------

    @classmethod
    def full(cls, u: RadialFunction, params: ModelParams) -> "FiberMap":
        """Fibering map of the full energy J along direction u."""
        rule = weighted_rule(u.grid, params.beta)
        vals = u.values
        s = rule.form(vals)
        nl = params.nonlinearity
        i_q = float(rule.vol @ np.abs(vals) ** params.q)
        i_p = float(rule.vol @ np.abs(vals) ** params.p)
        if nl.alpha0 == 0.0:
            moments = ((params.q, i_q), (params.p, (nl.cp + 1.0) * i_p))
            return cls(params.kirchhoff, s, moments)
        moments = ((params.q, i_q), (params.p, nl.cp * i_p))
        return cls(params.kirchhoff, s, moments, tail_spec=nl, values=vals, vol=rule.vol)

    @classmethod
    def pure_power(cls, u: RadialFunction, params: ModelParams) -> "FiberMap":
        """Fibering map of the auxiliary functional (1/2) G(||u||^2) - (1/p) |u|_p^p."""
        rule = weighted_rule(u.grid, params.beta)
        i_p = float(rule.vol @ np.abs(u.values) ** params.p)
        return cls(params.kirchhoff, rule.form(u.values), ((params.p, i_p),))

    # --- tail integrals ---------------------------------------------------

    def _tail_deriv(self, t, saturate: bool):
        if self.tail_spec is None:
            return 0.0
        nl = self.tail_spec
        with np.errstate(over="ignore", invalid="ignore"):  # inf keeps the sign information
            arg = np.multiply.outer((t * self.vmax) ** nl.gamma, self.rate)
            if saturate:  # fmin also caps the inf * 0 of underflowed rates
                arg = np.fmin(arg, 700.0)
            return t ** (nl.p - 1.0) * (np.exp(arg) @ self.weight)

    def _tail_deriv2(self, t: float) -> float:
        if self.tail_spec is None:
            return 0.0
        nl = self.tail_spec
        with np.errstate(over="ignore"):
            arg = (t * self.vmax) ** nl.gamma * self.rate
            body = np.exp(arg) * (nl.p - 1.0 + nl.gamma * arg)
            return float(t ** (nl.p - 2.0) * (body @ self.weight))

    # --- derivative and curvature ----------------------------------------

    def deriv(self, t, saturate: bool = False):
        """d/dt J(t u) = g(t^2 S) t S - sum t^(e-1) M - tail.

        t is a scale or an array of scales; a scale gives a float.  With
        saturate=True the exponential argument is capped, which keeps the
        sign information (the tail dominates far beyond the guard) without
        overflowing; used by bracketing and sweep diagnostics.
        """
        scalar = not isinstance(t, np.ndarray)
        s = t * t * self.norm_sq
        out = self.kirchhoff.g(s) * t * self.norm_sq
        for e, m in self.power_moments:
            out -= t ** (e - 1.0) * m
        if self.tail_spec is not None and not saturate:
            t_max = t if scalar else t.max()
            if t_max > self.scale_limit:
                raise RangeOverflowError(
                    f"fibering scale {t_max:.3g} exceeds the overflow guard ({self.scale_limit:.3g})"
                )
        out -= self._tail_deriv(t, saturate)
        return float(out) if scalar else out

    def deriv2(self, t: float) -> float:
        s = t * t * self.norm_sq
        out = 2.0 * float(self.kirchhoff.g_prime(s)) * (t * self.norm_sq) ** 2
        out += float(self.kirchhoff.g(s)) * self.norm_sq
        for e, m in self.power_moments:
            out -= (e - 1.0) * t ** (e - 2.0) * m
        return out - self._tail_deriv2(t)


def fibering(u: RadialFunction, t, params: ModelParams):
    """J(t u), evaluated through the energy of the scaled profile, so that
    fibering(c u, t) and fibering(u, c t) follow the same computation.

    An array of scales evaluates the stack of scaled profiles at once;
    scales past the overflow guard, where a single scale raises
    RangeOverflowError, give -inf (far below the fibering maximum).
    """
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("fibering scale must be nonnegative")
    if np.ndim(t) == 0:
        return energy(u.scaled(t), params).total
    nl = params.nonlinearity
    stack = np.multiply.outer(t, u.values)
    inside = nl._exp_arg(np.abs(stack).max(axis=1)) <= EXP_GUARD
    out = np.full(len(stack), -np.inf)
    kirch, power, reaction = _energy_terms(operator_cache(u.grid, params.beta), stack[inside], params)
    out[inside] = kirch - power - reaction
    return out
