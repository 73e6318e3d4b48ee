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

import copy
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce, wraps

import numpy as np

from .model import EXP_GUARD, KirchhoffSpec, ModelParams
from .radial import RadialGrid, clamped_even_basis, rowwise, weighted_rule

__all__ = [
    "EnergyBreakdown",
    "energy",
    "fibering",
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
        """Solve rule.form(v, phi) = <load, phi> over the clamped subspace, for
        a load (n,) or row by row of a stack (k, n)."""
        return rowwise(self.riesz_matrix, load)


@lru_cache(maxsize=16)
def operator_cache(grid: RadialGrid, beta: float) -> _WOperators:
    return _WOperators(grid, beta)


# ---------------------------------------------------------------------------
# energy and weak action
# ---------------------------------------------------------------------------


def energy(grid: RadialGrid, values: np.ndarray, params: ModelParams) -> EnergyBreakdown:
    """Evaluate J(u) of nodal values (n,) term by term."""
    ops = operator_cache(grid, params.beta)
    kirch, power, reaction = (float(x) for x in _energy_terms(ops, values, params))
    return EnergyBreakdown(kirch, power, reaction, kirch - power - reaction)


def _energy_terms(ops: _WOperators, values: np.ndarray, params: ModelParams):
    """Kirchhoff, power and reaction terms of J, node by node, for nodal
    values (n,) or a stack (k, n); those of J(t u) are FiberMap.value's."""
    s = ops.rule.form(values)
    power = rowwise(ops.rule.vol, np.abs(values) ** params.q) / params.q
    return 0.5 * params.kirchhoff.G(s), power, rowwise(ops.rule.vol, params.nonlinearity.F(values))


def _nodal_force(values: np.ndarray, params: ModelParams) -> np.ndarray:
    """Pointwise force |u|^(q-2) u + f(u) of the lower-order terms of J."""
    return np.abs(values) ** (params.q - 2.0) * values + params.nonlinearity.f(values)


def _residual_load(ops: _WOperators, values: np.ndarray, params: ModelParams, force: np.ndarray) -> np.ndarray:
    """Nodal load vector rho with <J'(u), phi> = rho . phi_values, for the
    Kirchhoff term and the nodal force of the lower-order terms; row by row
    for a stack (k, n) of profiles and forces."""
    g_val = params.kirchhoff.g(ops.rule.form(values))[..., None]
    return g_val * rowwise(ops.gram, values) - ops.rule.vol * force


def _inside_guard(nl, peaks):
    """Whether profiles of these largest magnitudes keep the exponential
    argument under the overflow guard, in the arithmetic of F's guard (as
    FiberMap.derivs); callers silence overflow, which is past the guard."""
    return nl._exp_arg(peaks) <= EXP_GUARD


def _guarded(kernel):
    """A value kernel(ops, values, params) of a stack (k, n), evaluated on
    the rows inside the guard; -inf on the others, where the reaction tail
    certainly dominates.  A breakdown, a load or a gradient raises there."""
    @wraps(kernel)
    def guarded(ops: _WOperators, values: np.ndarray, params: ModelParams) -> np.ndarray:
        with np.errstate(over="ignore"):
            inside = _inside_guard(params.nonlinearity, np.abs(values).max(axis=1))
        out = np.full(len(values), -np.inf)
        out[inside] = kernel(ops, values[inside], params)
        return out

    return guarded


@_guarded
def _energies(ops, values, params):
    """J of each profile of a stack (k, n)."""
    kirch, power, reaction = _energy_terms(ops, values, params)
    return kirch - power - reaction


@_guarded
def _nehari_residuals(ops, values, params):
    """<J'(u), u> = g(S) S - vol . (force(u) u) of each profile of a stack
    (k, n), one Laplacian product per profile."""
    s = ops.rule.form(values)
    return params.kirchhoff.g(s) * s - rowwise(ops.rule.vol, _nodal_force(values, params) * values)


# ---------------------------------------------------------------------------
# fibering map
# ---------------------------------------------------------------------------


class FiberMap:
    """Scalar restrictions t -> J(t u) of a stack of k directions, a row
    each, reduced to moments of the direction: the one fibering kernel.

    norm_sq holds S = ||u||^2 per row, and power_moments (exponent e,
    moment M) pairs, M per row, contributing -(t^e / e) M to the value.
    The exponential tail of the reaction term (absent for the pure-power
    functional and for alpha0 = 0) is carried by per-node weights
    vol |v|^p and rates alpha0 (|v|/vmax)^gamma, taken once: since
    |t v|^e = t^e |v|^e, with X_i = (t vmax)^gamma rate_i its value is
    t^p / p sum_i weight_i 1F1(p/gamma; p/gamma + 1; X_i) and its
    derivative t^(p-1) sum_i weight_i exp(X_i).  Where t vmax is at most
    the nonlinearity's _exact_peak, every factor rounds to 1 and the tail
    takes the row's weight_sum, taken once too.  Each row evaluates from its
    moments as it would alone, bit for bit, as do those of a map built alone.
    start holds the scale each row's root search starts from, computed on
    first use: a map that only sweeps never needs it.
    Synthetic moment sets (scalars: a stack of one) exercise the
    projection root finder without any grid.
    """

    def __init__(self, kirchhoff: KirchhoffSpec, norm_sq, power_moments: tuple, tail_spec=None, values=None, vol=None):
        self.kirchhoff = kirchhoff
        self.norm_sq = np.array(norm_sq, dtype=float, ndmin=1)
        self.power_moments = tuple((float(e), np.array(m, dtype=float, ndmin=1)) for e, m in power_moments)
        self.tail_spec = tail_spec
        if tail_spec is not None:
            av = np.abs(values)
            self.vmax = av.max(axis=1)
            self.weight = vol * av**tail_spec.p
            self.weight_sum = self.weight.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero row has no scale to project on
                # rates relative to the largest node of the row: (t vmax)^gamma
                # stays finite up to the guard however large gamma is
                self.rate = tail_spec.alpha0 * (av / self.vmax[:, None]) ** tail_spec.gamma

    # --- builders -------------------------------------------------------

    @classmethod
    def full(cls, grid: RadialGrid, values: np.ndarray, params: ModelParams, alone: bool = False) -> "FiberMap":
        """Fibering maps of the full energy J along a direction of nodal values
        (n,), or each row of a stack (k, n), reduced as rowwise says: past 16
        rows, unless alone, by one BLAS product (S rounds ~8 times less)."""
        rule, vals = weighted_rule(grid, params.beta), np.atleast_2d(values)
        nl = params.nonlinearity
        i_q = rowwise(rule.vol, np.abs(vals) ** params.q, alone)
        i_p = rowwise(rule.vol, np.abs(vals) ** params.p, alone)
        tail = nl if nl.alpha0 > 0.0 else None  # alpha0 = 0: F = (cp + 1) |t|^p / p, no tail
        moments = ((params.q, i_q), (params.p, (nl.cp if tail else nl.cp + 1.0) * i_p))
        return cls(params.kirchhoff, rule.form(vals, alone=alone), moments, tail, vals, rule.vol)

    @classmethod
    def pure_power(cls, grid: RadialGrid, values: np.ndarray, params: ModelParams) -> "FiberMap":
        """Fibering maps of the auxiliary functional (1/2) G(||u||^2) - (1/p) |u|_p^p; values as for full."""
        rule, vals = weighted_rule(grid, params.beta), np.atleast_2d(values)
        i_p = rowwise(rule.vol, np.abs(vals) ** params.p)
        return cls(params.kirchhoff, rule.form(vals), ((params.p, i_p),))

    def __len__(self) -> int:
        return len(self.norm_sq)

    def take(self, rows) -> "FiberMap":
        """The maps of the given rows (an index array or a slice), as a stack."""
        sub = copy.copy(self)
        sub.norm_sq = self.norm_sq[rows]
        sub.power_moments = tuple((e, m[rows]) for e, m in self.power_moments)
        if "start" in vars(self):  # else the rows compute their own, the same bit for bit
            sub.start = self.start[rows]
        if self.tail_spec is not None:
            for name in ("vmax", "weight", "weight_sum", "rate"):
                setattr(sub, name, getattr(self, name)[rows])
        return sub

    @cached_property
    def start(self) -> np.ndarray:
        """The start of each row's root search (nehari._scale_search), all
        rows at once: min_e max((g0 S / M_e)^(1/(e-2)), (a S^2 /
        M_e)^(1/(e-4))) over the moments M_e > 0 of the row, the larger for
        each moment of the scales where its power term alone cancels the
        Kirchhoff head g0 t S and, for an affine g of slope a > 0 and e > 4,
        the slope term a t^3 S^2.  Both scale as 1/c under u -> c u, so the
        start does not depend on the scale of the problem.  With an
        exponential tail it is at most the guard, guard_scale / vmax, above
        which the derivative is -inf.  NaN where no moment is positive; a
        row whose S is not positive and finite has no meaningful start.

        Each start is the row's alone, bit for bit: the logs are math.log's,
        element by element (numpy's vectorized log can differ from it in the
        last bit), and the rest is elementwise arithmetic and numpy's exp.
        """
        def log(x):  # NaN where x is not positive
            return np.array([math.log(v) if v > 0.0 else math.nan for v in x])

        s = self.norm_sq.tolist()
        heads = [(2.0, log([self.kirchhoff.g0 * v for v in s]))]  # (k, log c) of each head term c t^(k-1)
        if self.kirchhoff.a > 0.0:
            heads.append((4.0, math.log(self.kirchhoff.a) + 2.0 * log(s)))
        start = np.full(len(s), np.nan)  # NaN until a positive moment gives one
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for e, m in self.power_moments:  # a moment that is not positive balances NaN, which fmin skips
                log_m = log(m.tolist())
                start = np.fmin(start, reduce(np.maximum, [(h - log_m) / (e - k) for k, h in heads if e > k]))
            start = np.exp(start)
            if self.tail_spec is not None:
                start = np.minimum(start, self.tail_spec.guard_scale() / self.vmax)
        return start

    # --- value, derivative and curvature ---------------------------------

    def value(self, t, unit=None):
        """J(t u) = (1/2) G(t^2 S) - sum (t^e / e) M - tail, row by row, over
        a sweep (_scale_form); -inf past the guard, whose peak t_u unit vmax
        is max|t_u unit u| bit for bit, as rounding is monotone."""
        t, unit, shape = _scale_form(len(self), t, unit)
        nl, inside = self.tail_spec, None  # inside: the (k, m) scales inside the guard, None if all are
        with np.errstate(over="ignore", invalid="ignore"):  # past the guard: masked to -inf
            if nl is not None and not _inside_guard(nl, _top(t, unit) * self.vmax).all():  # each row's largest first
                inside = _inside_guard(nl, _formed(t, unit) * self.vmax[:, None])
            head, terms = self._terms(t, unit, inside)
            out = reduce(np.subtract, terms, head)
        out = out if inside is None else np.where(inside, out, -np.inf)
        return float(out[0, 0]) if not shape else out.reshape(shape)

    def _terms(self, t, unit, inside=None):
        """(1/2) G(t^2 S) and the list of the (t^e / e) M, then the tail's if
        any: t^p W / p on a row whose largest scale is at most _exact_peak /
        vmax, else its body at its scales formed (those outside inside as 0):
        on a grid (m, n) a row at a time, at one scale a row all in one call."""
        terms, nl = [], self.tail_spec
        if nl is not None:  # first, while no other (k, m) term is held
            terms.append(_power(t, unit, nl.p, self.weight_sum / nl.p))
            rows = np.flatnonzero(_top(t, unit) * self.vmax > nl._exact_peak)
            for sub in [rows] if unit is None and rows.size else rows[:, None]:
                scales = _formed(t[sub], unit)
                scales = scales if inside is None else np.where(inside[sub], scales, 0.0)
                arg = (scales * self.vmax[sub, None]) ** nl.gamma
                mass = np.matmul(nl._kummer_factor(arg[..., None] * self.rate[sub, None, :]), self.weight[sub, :, None])
                terms[0][sub] = scales**nl.p / nl.p * mass[..., 0]  # no body outlives its rows
        head = 0.5 * self.kirchhoff.G(_power(t, unit, 2.0, self.norm_sq))
        return head, [_power(t, unit, e, m / e) for e, m in self.power_moments] + terms

    def deriv(self, t, unit=None):
        """d/dt J(t u) = g(t^2 S) t S - sum t^(e-1) M - tail, row by row, over
        a sweep (_scale_form); -inf past the guard.  Each row evaluates as it
        would alone, bit for bit."""
        return self._derivs(t, unit, second=False)[0]

    def derivs(self, t, unit=None):
        """(d/dt J(t u), d^2/dt^2 J(t u)) from one pass over the scales and the
        exponential body; t and unit as for deriv, -inf past the guard."""
        return self._derivs(t, unit, second=True)

    def _derivs(self, t, unit, second: bool):
        """(deriv,) or, when second, (deriv, d^2/dt^2 J(t u)) over the sweep."""
        t, unit, shape = _scale_form(len(self), t, unit)
        s_row = self.norm_sq[:, None]
        # t S as (t)(S), or on a grid as (unit)(t_u S): g t S is then (g t) S in
        # the root search, and a profile's at t_u = 1 bit for bit
        lead, rest = (t[:, None], s_row) if unit is None else (unit, (t * self.norm_sq)[:, None])
        s = _power(t, unit, 2.0, self.norm_sq)
        d = self.kirchhoff.g(s)  # g(t^2 S), then in place g t S
        d2 = 2.0 * self.kirchhoff.g_prime(s) * (lead * rest) ** 2 + d * s_row if second else None
        del s  # one (k, m) array fewer held while the moments are taken
        d *= lead
        d *= rest
        for e, m in self.power_moments:
            d -= _power(t, unit, e - 1.0, m)
            if second:
                d2 -= (e - 1.0) * _power(t, unit, e - 2.0) * m[:, None]
        nl = self.tail_spec
        if nl is not None:
            # the tail sums weight_i exp(arg_i), for d^2 weight_i exp(arg_i) (p - 1 + gamma
            # arg_i): its closed form (_tail) wherever each row's largest peak passes
            peak = _top(t, unit) * self.vmax
            exact = peak <= nl._exact_peak
        if nl is not None and np.count_nonzero(exact) == len(exact):  # cheaper than all() on small stacks
            d -= self._tail(t, unit, 1)
            if second:
                d2 -= self._tail(t, unit, 2)
        elif nl is not None:
            # without a unit each row's peak is its one scale's; on a grid, each scale's
            peak = peak[:, None] if unit is None else _formed(t, unit) * self.vmax[:, None]
            exact = exact[:, None] if unit is None else peak <= nl._exact_peak
            some = np.count_nonzero(exact)
            with np.errstate(over="ignore", invalid="ignore"):  # past the guard: masked to -inf
                weight = self.weight[:, :, None]
                scaled = peak**nl.gamma
                inside = nl.alpha0 * scaled <= EXP_GUARD  # _inside_guard(nl, peak), sharing the power
                arg = scaled[..., None] * self.rate[:, None, :]
                body = np.exp(arg)
                mass = _power(t, unit, nl.p - 1.0) * np.matmul(body, weight)[..., 0]
                mass = np.where(exact, self._tail(t, unit, 1), mass) if some else mass
                d = np.where(inside, d - mass, -np.inf)
                if second:
                    arg *= nl.gamma  # in place: body *= p - 1 + gamma arg
                    arg += nl.p - 1.0
                    body *= arg
                    mass = _power(t, unit, nl.p - 2.0) * np.matmul(body, weight)[..., 0]
                    mass = np.where(exact, self._tail(t, unit, 2), mass) if some else mass
                    d2 = np.where(inside, d2 - mass, -np.inf)
        out = tuple(x.reshape(shape) for x in ((d, d2) if second else (d,)))
        return tuple(float(x) for x in out) if not shape else out

    def _tail(self, t, unit, order: int):
        """The tail's term of d (order 1) or of d^2 (order 2) where every exp
        rounds to 1: t^(p-1) W or t^(p-2) (p - 1) W, W the weight sum."""
        p = self.tail_spec.p
        return _power(t, unit, p - order, self.weight_sum if order == 1 else (p - 1.0) * self.weight_sum)


def fibering(grid: RadialGrid, values: np.ndarray, t, params: ModelParams, unit=None):
    """J(t u) of nodal values u (n,), or of each row u of a stack (k, n), over
    a sweep (_scale_form): FiberMap.value of the directions' map built alone,
    so each row's is its profile's bit for bit; -inf past the guard."""
    if (np.asarray(t) < 0.0).any() or (unit is not None and (np.asarray(unit) < 0.0).any()):
        raise ValueError("fibering scale must be nonnegative")
    return FiberMap.full(grid, values, params, alone=True).value(t, unit)


def _scale_form(k: int, t, unit):
    """The one form of a sweep of a stack of k rows: a scale t_u per row (k,)
    times a grid unit (m,) that all rows share, or None; and the shape of
    the result.  A map of one row (a profile's) also takes a scale with a
    unit, and without one any array of scales but (1,) as its unit at t_u =
    1: as 1^e M = M and 1 x = x, bit for bit the profile at those scales."""
    t = np.asarray(t, dtype=float)
    rows = () if k == 1 and t.ndim == 0 else (k,)
    if unit is None and k == 1 and t.shape != (1,):
        return np.ones(1), t.reshape(-1), t.shape
    if t.shape != rows:
        raise ValueError(f"need one scale for each row {rows}, got scales of shape {t.shape}")
    if unit is None:
        return t, None, rows
    unit = np.asarray(unit, dtype=float)
    return t.reshape(-1), unit, rows + unit.shape


def _power(t, unit, e: float, coef=None):
    """coef t^e at each scale of a sweep as (t_u^e coef) unit^e: (k, m), or (k, 1) without a unit."""
    head = t**e if coef is None else t**e * coef
    return head[:, None] if unit is None else head[:, None] * unit**e


def _formed(t, unit):
    """The scales t_u unit of each row formed, (k, m), or (k, 1) without a unit."""
    return t[:, None] if unit is None else t[:, None] * unit


def _top(t, unit):
    """The largest scale of each row's sweep: its exact-tail and guard tests take it."""
    return t if unit is None else t * unit.max(initial=0.0)
