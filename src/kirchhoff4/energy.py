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


def _energy_terms(ops: _WOperators, values: np.ndarray, params: ModelParams, t=None, unit=None):
    """Kirchhoff, power and reaction terms of J for nodal values of shape
    (n,) or a stack of profiles of shape (k, n).

    With scales t, (m,) for a profile or (k, m) for a stack, the terms of
    J(t u) for each row u at each of its scales: S = ||u||^2 and the
    q-moment Q are taken once per row, by products of the row's own at any
    height, the Kirchhoff term is (1/2) G(t^2 S) and the power term t^q Q,
    and the reaction is _scaled_reaction's.  At t = 1 the Kirchhoff and
    power terms are those of the row alone bit for bit.  With a grid unit
    (m,) shared by the rows, t holds one scale per row and row u sweeps
    t_u unit: each power is t_u^e unit^e, its factors formed once per row
    and once per grid point.
    """
    alone = t is not None
    s = ops.rule.form(values, alone=alone)
    power = rowwise(ops.rule.vol, np.abs(values) ** params.q, alone) / params.q
    if t is None:
        return 0.5 * params.kirchhoff.G(s), power, rowwise(ops.rule.vol, params.nonlinearity.F(values))
    # the reaction first, while no (k, m) term is held
    reaction = _scaled_reaction(ops.rule.vol, values, params.nonlinearity, t, unit)
    if unit is None:
        return 0.5 * params.kirchhoff.G(t * t * s[..., None]), t**params.q * power[..., None], reaction
    kirch = 0.5 * params.kirchhoff.G((t * t * s)[..., None] * (unit * unit))
    return kirch, (t**params.q * power)[..., None] * unit**params.q, reaction


def _scaled_reaction(vol: np.ndarray, values: np.ndarray, nl, t, unit=None):
    """vol . F(t u) for each row u of values at each of its scales t (or
    t_u unit), shaped as in _energy_terms.

    Where every t max|u| is at most nl._exact_peak, F(t u) is the pure power
    (cp + 1) |t u|^p / p at every node, and the reaction is t^p (cp + 1) P / p
    from the p-moment P = vol . |u|^p of each row, by products of the row's
    own (F node by node agrees to about 1e-16 relative).  Otherwise each
    row goes alone at its scales, and a row past that peak takes F on its own
    (m, n) body: a stacked body would gather the Kummer coefficients of every
    row at once.  At any height a row's reaction is thus its own bit for bit.
    """
    av = np.abs(values)
    top = t if unit is None else t[..., None] * unit.max()
    if np.max(top * av.max(axis=-1, keepdims=True), initial=0.0) <= nl._exact_peak:
        moment = rowwise(vol, av**nl.p, alone=True) * ((nl.cp + 1.0) / nl.p)
        return t**nl.p * moment[..., None] if unit is None else (t**nl.p * moment)[..., None] * unit**nl.p
    if unit is not None:
        t = t[..., None] * unit
    if values.ndim == 1:
        return nl.F(t[..., None] * values) @ vol
    return np.array([_scaled_reaction(vol, v, nl, tr) for v, tr in zip(values, t)])


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
    argument under the overflow guard, in the arithmetic of the guard of F:
    the one place that decides it (FiberMap forms the same product from the
    power its exp argument shares).  Callers silence overflow, since an
    overflowing argument is past the guard."""
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
    each, reduced to moments of the direction.

    norm_sq holds S = ||u||^2 per row, and power_moments (exponent e,
    moment M) pairs, M per row, contributing -(t^e / e) M to the value.
    The exponential tail of the reaction term (absent for the pure-power
    functional and for alpha0 = 0) is carried by per-node weights
    vol |v|^p and rates alpha0 (|v|/vmax)^gamma, taken once: since
    |t v|^e = t^e |v|^e, its derivative is t^(p-1) sum_i weight_i
    exp((t vmax)^gamma rate_i), one exp per (scale, node) pair.  Where
    t vmax is at most the nonlinearity's _exact_peak, every exp rounds to 1
    and the tail is t^(p-1) times the row's weight_sum, taken once too.
    Each row has reductions of its own, so it evaluates as it would alone.
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
    def full(cls, grid: RadialGrid, values: np.ndarray, params: ModelParams) -> "FiberMap":
        """Fibering maps of the full energy J along a direction of nodal
        values (n,), or along each row of a stack (k, n)."""
        rule, vals = weighted_rule(grid, params.beta), np.atleast_2d(values)
        nl = params.nonlinearity
        i_q = rowwise(rule.vol, np.abs(vals) ** params.q)
        i_p = rowwise(rule.vol, np.abs(vals) ** params.p)
        tail = nl if nl.alpha0 > 0.0 else None  # alpha0 = 0: F = (cp + 1) |t|^p / p, no tail
        moments = ((params.q, i_q), (params.p, (nl.cp if tail else nl.cp + 1.0) * i_p))
        return cls(params.kirchhoff, rule.form(vals), moments, tail, vals, rule.vol)

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

    # --- derivative and curvature ----------------------------------------

    def deriv(self, t, unit=None):
        """d/dt J(t u) = g(t^2 S) t S - sum t^(e-1) M - tail, row by row.

        t holds one scale per row (k,) or a sweep of scales per row (k, m);
        a stack of one also takes a scale, which gives a float, or any array
        of scales.  A scale past its row's overflow guard gives -inf.  With a
        grid unit (m,) shared by the rows, t holds one scale per row (k,) and
        row i sweeps t_i unit: a row within the exact tail takes each power
        as t_i^e unit^e, the others their scales formed, each row its sweep
        alone bit for bit.
        """
        if unit is None:
            return self._derivs(t, second=False)[0]
        t, unit = np.asarray(t, dtype=float), np.asarray(unit, dtype=float)
        if t.shape != (len(self),):
            raise ValueError(f"need one scale for each of {len(self)} rows, got shape {t.shape}")
        exact = np.ones(len(self), dtype=bool)
        if self.tail_spec is not None:
            exact = t * unit.max() * self.vmax <= self.tail_spec._exact_peak
        return _by_rows(exact, lambda rows: self._shared_deriv(rows, t[rows], unit),
                        lambda rows: self.take(rows)._derivs(t[rows, None] * unit, second=False)[0])

    def _shared_deriv(self, rows, t, unit):
        """deriv of the given rows, within the exact tail, on the shared grid unit."""
        s_row = self.norm_sq[rows]
        d = self.kirchhoff.g((t * t * s_row)[:, None] * (unit * unit))
        d *= (t * s_row)[:, None] * unit
        terms = list(self.power_moments)
        if self.tail_spec is not None:
            terms.append((self.tail_spec.p, self.weight_sum))
        for e, m in terms:
            d -= (t ** (e - 1.0) * m[rows])[:, None] * unit ** (e - 1.0)
        return d

    def derivs(self, t):
        """(d/dt J(t u), d^2/dt^2 J(t u)), row by row, from one pass over the
        scales and the exponential body; t as for deriv, -inf past the guard."""
        return self._derivs(t, second=True)

    def _derivs(self, t, second: bool):
        """(deriv,) or, when second, (deriv, d^2/dt^2 J(t u)) at the scales t."""
        t, shape = self._sweep(t)
        s_row = self.norm_sq[:, None]
        s = t * t * s_row
        g = self.kirchhoff.g(s)
        d = g * t * s_row
        d2 = 2.0 * self.kirchhoff.g_prime(s) * (t * s_row) ** 2 + g * s_row if second else None
        for e, m in self.power_moments:
            d -= t ** (e - 1.0) * m[:, None]
            if second:
                d2 -= (e - 1.0) * t ** (e - 2.0) * m[:, None]
        if self.tail_spec is not None:
            nl = self.tail_spec
            peak = t * self.vmax[:, None]
            # the tail sums weight_i exp(arg_i), and for d^2 weight_i exp(arg_i)
            # (p - 1 + gamma arg_i): the weight sum where every exp rounds to 1
            exact = peak <= nl._exact_peak
            n_exact = np.count_nonzero(exact)
            if n_exact == exact.size:
                d = d - t ** (nl.p - 1.0) * self.weight_sum[:, None]
                if second:
                    d2 = d2 - t ** (nl.p - 2.0) * ((nl.p - 1.0) * self.weight_sum[:, None])
            else:
                with np.errstate(over="ignore", invalid="ignore"):  # past the guard: masked to -inf
                    weight = self.weight[:, :, None]
                    scaled = peak**nl.gamma
                    inside = nl.alpha0 * scaled <= EXP_GUARD  # _inside_guard(nl, peak), sharing the power
                    arg = scaled[..., None] * self.rate[:, None, :]
                    body = np.exp(arg)
                    mass = np.matmul(body, weight)[..., 0]
                    if n_exact:
                        mass = np.where(exact, self.weight_sum[:, None], mass)
                    d = np.where(inside, d - t ** (nl.p - 1.0) * mass, -np.inf)
                    if second:
                        arg *= nl.gamma  # in place: body *= p - 1 + gamma arg
                        arg += nl.p - 1.0
                        body *= arg
                        mass = np.matmul(body, weight)[..., 0]
                        if n_exact:
                            mass = np.where(exact, (nl.p - 1.0) * self.weight_sum[:, None], mass)
                        d2 = np.where(inside, d2 - t ** (nl.p - 2.0) * mass, -np.inf)
        out = tuple(x.reshape(shape) for x in ((d, d2) if second else (d,)))
        return tuple(float(x) for x in out) if not shape else out

    def _sweep(self, t):
        """The scales as a (k, m) array, and the shape of the result."""
        t = np.asarray(t, dtype=float)
        if len(self) != 1 and t.shape[:1] != (len(self),):
            raise ValueError(f"need the scales of {len(self)} rows, got shape {t.shape}")
        return t.reshape(len(self), -1), t.shape


def fibering(grid: RadialGrid, values: np.ndarray, t, params: ModelParams, unit=None):
    """J(t u) at a scale or an array of scales (m,) of nodal values u (n,),
    or at the scales (k, m) of each row u of a stack (k, n), from the
    scale form of the one energy kernel (_energy_terms): ||u||^2 and the
    q-moment once per row, and the reaction per scale or, within the exact
    pure-power tail, from the p-moment.  At any height each row evaluates
    as it would alone, bit for bit.  A scale past the guard is evaluated
    as 0 and gives -inf; its guard peak t max|u| is max|t u| bit for bit,
    as rounding is monotone.  With a grid unit (m,) shared by the rows, t
    holds one scale per row and row u sweeps t_u unit: a row within the
    exact tail (t_u max(unit) max|u| at most _exact_peak) takes the kernel's
    shared-grid form, the others go a row at a time at their scales formed.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or (unit is not None and np.any(np.asarray(unit) < 0.0)):
        raise ValueError("fibering scale must be nonnegative")
    ops = operator_cache(grid, params.beta)
    if unit is not None:
        if t.shape != values.shape[:-1]:
            raise ValueError(f"need one scale for each row of values {values.shape}, got shape {t.shape}")
        unit, vals, ts = np.asarray(unit, dtype=float), np.atleast_2d(values), np.atleast_1d(t)
        exact = ts * unit.max() * np.abs(vals).max(axis=1) <= params.nonlinearity._exact_peak

        def shared(rows):
            kirch, power, reaction = _energy_terms(ops, vals[rows], params, ts[rows], unit)
            return kirch - power - reaction

        def formed(rows):  # a row at a time: one row's reaction body and scales held at once
            return np.array([fibering(grid, v, tr * unit, params) for v, tr in zip(vals[rows], ts[rows])])

        out = _by_rows(exact, shared, formed)
        return out if values.ndim == 2 else out[0]
    if values.ndim == 2 and (t.ndim != 2 or len(t) != len(values)):
        raise ValueError(f"need the scales (k, m) of {len(values)} rows, got shape {t.shape}")
    ts = np.atleast_1d(t)
    with np.errstate(over="ignore"):
        inside = _inside_guard(params.nonlinearity, ts * np.abs(values).max(axis=-1, keepdims=True))
    scales = ts if inside.all() else np.where(inside, ts, 0.0)  # no (k, m) copy where none is past the guard
    kirch, power, reaction = _energy_terms(ops, values, params, scales)
    out = np.where(inside, kirch - power - reaction, -np.inf)
    return float(out[0]) if not t.ndim else out


def _by_rows(exact, shared, formed):
    """The rows (k, m) of a sweep: shared(rows) where exact, formed(rows)
    elsewhere; a slice of every row (no copy) where one kind covers all."""
    if exact.all() or not exact.any():
        return (shared if exact.all() else formed)(slice(None))
    first = shared(exact)
    out = np.empty((len(exact), first.shape[1]))
    out[exact], out[~exact] = first, formed(~exact)
    return out
