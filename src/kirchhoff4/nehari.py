"""Nehari projection and constrained ground-state minimization.

Every nonzero direction u admits a unique scale t_u > 0 at which
d/dt J(t u) = 0; the map u -> t_u u retracts directions onto the Nehari
set.  One bracket-and-Newton root search (_scale_search) locates t_u on
the moment form of the derivative, and one driver (_drive) runs the
searches of a stack of directions in lockstep on a stacked FiberMap, for
project and the descent alike; project maps a (k, n) stack of directions
to the arrays of their scales, projected points, energies and Nehari
residuals.  The ground level

    m = inf { J(w) : <J'(w), w> = 0, w != 0 }

is approximated by multi-start projected descent: every iteration takes
a Sobolev gradient step at the current projected point, renormalizes,
reprojects and backtracks on the projected energy.  The starts of a solve
advance in lockstep as one (k, n) stack, each row with its own step and
stop.  The same multi-start frame, with a power-method ascent of |u|_p^p
on the unit sphere for the descent, gives the level m_p of the pure-power
functional

    J_p(u) = (1/2) G(||u||^2) - (1/p) |u|_p^p

that calibrates the admissible range of the power coefficient cp and the
closed-form cap on m.  Each auxiliary start draws a random smooth clamped
profile; main start k starts where auxiliary start k ended.  A solve
publishes its winning start's point: the main descent's where it stopped,
already on the Nehari set, and the ascent's final direction projected
onto the Nehari set of the pure-power functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .energy import FiberMap, energy, operator_cache  # energy: unused here; perfbench tests rebind it
from .energy import _energies, _nehari_residuals, _nodal_force, _residual_load
from .model import ModelParams, RangeOverflowError, adams_constant
from .radial import RadialGrid, _random_clamped_rows, _read_only, rowwise

__all__ = [
    "ProjectionError",
    "SearchConfig",
    "StartRecord",
    "GroundStateResult",
    "AuxResult",
    "BoundsReport",
    "project",
    "ground_state",
    "aux_ground_state",
    "level_bounds",
    "aux_pnorm_bound",
    "min_admissible_cp",
    "resolve_auto_cp",
    "power_envelope_max",
]


class ProjectionError(RuntimeError):
    """Raised when no Nehari projection scale can be bracketed."""


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def _scale_search(fiber: FiberMap, row: int):
    """Root search for the scale of one row of a fibering map, as a generator:
    it yields each scale t at which it needs the fibering derivative d, is
    sent the pair (d, slope) there, and returns the root.

    d is positive below the root and negative above it, and -inf past the
    overflow guard, where the reaction tail certainly dominates.  The
    search starts at the row's FiberMap.start, which the map computes for
    all rows at once: the smallest over the moments M_e of the scale where
    M_e balances the Kirchhoff head, at most the guard, above which d =
    -inf only says the root is lower.  Until d changes sign it steps toward
    the root: up to three Newton probes from the start, each taken only
    where it lies strictly between the current scale and the doubling (or
    halving) step, a probe shorter than one ulp lengthened to one ulp; from
    the first probe that is not taken, it doubles or halves.  The start
    usually lies so close to the root that the first probe brackets it.
    Then it takes Newton steps from the bracket end with the smaller |d|
    until the bracket holds adjacent floats, and returns the end with the
    smaller |d|.  It bisects when a step leaves the bracket or the bracket
    has not halved in three steps (slow convergence, or a slope that does
    not match d).  A step shorter than the float spacing is lengthened to
    cross the root, doubling while it fails to.
    """
    norm_sq = float(fiber.norm_sq[row])
    if not 0.0 < norm_sq < math.inf:
        raise ProjectionError(f"the squared weighted norm {norm_sq:.3g} is not positive and finite")
    t = float(fiber.start[row])
    if math.isnan(t) and not any(m[row] > 0.0 for _, m in fiber.power_moments):
        raise ProjectionError("no positive moment of the direction balances the Kirchhoff term")
    lo, hi = 0.0, math.inf  # d(lo) > 0 >= d(hi) once both are sampled
    d_lo, d_hi = math.inf, -math.inf
    slope_lo = slope_hi = math.nan
    nudge = stalls = 0
    probes = 3  # Newton probes left before the bracket
    width = math.inf  # bracket width when it last halved
    while True:
        if not 0.0 < t < math.inf:
            raise ProjectionError("the fibering derivative keeps its sign at every representable scale")
        v, slope = yield t
        if math.isnan(v):
            raise ProjectionError(f"fibering derivative is NaN at scale {t:.3g}")
        if v == 0.0:
            return t
        if v > 0.0:
            lo, d_lo, slope_lo = t, v, slope
        else:
            hi, d_hi, slope_hi = t, v, slope
        if hi == math.inf or lo == 0.0:
            far = 2.0 * lo if hi == math.inf else 0.5 * hi  # t is the end the root lies beyond
            step = _newton_step(v, slope) if probes else math.nan
            probe = math.nextafter(t, far) if abs(step) < math.ulp(t) else t + step
            if min(t, far) < probe < max(t, far):
                t, probes = probe, probes - 1
            else:  # no more probes once it doubles or halves
                t, probes = far, 0
            continue
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket holds adjacent floats
            return lo if abs(d_lo) <= abs(d_hi) else hi
        if hi - lo <= 0.5 * width:
            width, stalls = hi - lo, 0
        else:
            stalls += 1
        t, v, slope = (lo, d_lo, slope_lo) if abs(d_lo) <= abs(d_hi) else (hi, d_hi, slope_hi)
        step = _newton_step(v, slope)
        nudge = nudge + 1 if abs(step) < math.ulp(t) else 0
        if nudge:
            step = math.copysign(math.ulp(t) * 2.0 ** (nudge - 1), mid - t)
        t = t + step if stalls < 3 and lo < t + step < hi else mid


def _newton_step(v: float, slope: float) -> float:
    """The Newton step -v / slope, NaN where the slope gives none."""
    return -v / slope if math.isfinite(slope) and slope != 0.0 else math.nan


def _drive(fiber: FiberMap, strict: bool = True) -> np.ndarray:
    """The roots of every row of a fibering map, their searches in lockstep.

    Each round evaluates the moment form, FiberMap.derivs, once for all
    pending rows at the scales ts they ask for, and sends each search its
    pair (d, slope).  A search that fails raises ProjectionError naming its
    row when strict, and leaves NaN as its root otherwise; no other row
    notices either way.
    """
    searches = [_scale_search(fiber, i) for i in range(len(fiber))]
    roots = np.full(len(searches), math.nan)
    pending = {}  # row -> the scale its search asks for next, in row order

    def advance(i, sent):
        try:
            pending[i] = searches[i].send(sent)
        except StopIteration as stop:
            roots[i] = stop.value
        except ProjectionError as exc:
            if strict:
                raise ProjectionError(f"row {i}: {exc}") from exc

    # huge scales: an inf term keeps its sign, and inf - inf is a NaN the search reports
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(searches)):
            advance(i, None)
        while pending:
            rows = np.fromiter(pending, dtype=int, count=len(pending))
            ts = np.fromiter(pending.values(), dtype=float, count=len(pending))
            pending.clear()
            d, slope = (fiber if len(rows) == len(fiber) else fiber.take(rows)).derivs(ts)
            for i, sent in zip(rows.tolist(), zip(d.tolist(), slope.tolist())):
                advance(i, sent)
    return roots


def _reject_rows(bad: np.ndarray, message: str) -> None:
    rows = np.flatnonzero(bad)
    if rows.size:
        raise ProjectionError(f"row {rows[0]}: {message}")


def project(grid: RadialGrid, values: np.ndarray, params: ModelParams):
    """Unique Nehari projection of each row of a stack (k, n) of nonzero
    directions on grid, the searches in lockstep: the arrays (t_u, w,
    energy, residual), row i the scale t_u, the projected point w = t_u u,
    J(w) and <J'(w), w> of direction i.

    The root is located for the unit-norm direction and rescaled, which
    keeps the per-ulp granularity of the residual proportional to the
    projected point rather than to the raw direction scale, and makes the
    scaling law t(c u) = t(u)/c hold by construction.  The root is that of
    the moment form (_drive on FiberMap.full), the one root function of
    every projection.  The reported energy and residual are measured at the
    root, so the residual shows how far the moment root is from a measured
    Nehari point.  In a stack of up to 16 rows, a direction gets the
    arithmetic of its nodal values (n,) alone (energy, and <J'(w), w>
    written out) bit for bit (radial.rowwise); in a taller stack its row
    differs from that by about 1e-14 relative, as the BLAS product of a
    tall stack rounds differently.  An error names the row it comes from.
    """
    t_u, w = _projection(grid, values, params)
    ops = operator_cache(grid, params.beta)
    return t_u, w, _energies(ops, w, params), _nehari_residuals(ops, w, params)


def _projection(grid: RadialGrid, values: np.ndarray, params: ModelParams):
    """The scales t_u and projected points w of project, without their
    energies and residuals."""
    ops = operator_cache(grid, params.beta)
    peaks = np.abs(values).max(axis=1)
    _reject_rows(~((0.0 < peaks) & (peaks < math.inf)), "direction is zero or not finite")
    shapes = values / peaks[:, None]
    norms = np.sqrt(ops.rule.form(shapes))
    _reject_rows(~(norms > 0.0), "direction has zero weighted norm")
    units = shapes / norms[:, None]
    roots = _drive(FiberMap.full(grid, units, params))
    with np.errstate(over="ignore"):
        t_u = roots / (peaks * norms)
    _reject_rows(
        ~((0.0 < t_u) & (t_u < math.inf)),
        "the weighted norm of the direction leaves no representable projection scale",
    )
    return t_u, roots[:, None] * units


# ---------------------------------------------------------------------------
# descent machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start search settings.  A start counts as converged when its
    relative gradient ||J'(w)|| / (g(S) ||w||) is at most tol."""

    starts: int = 8
    max_iter: int = 300
    tol: float = 1e-6
    seed: int = 1

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("need at least one start")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class StartRecord:
    index: int
    energy: float
    gradient_norm: float
    relative_gradient: float
    norm: float
    iterations: int
    converged: bool
    stop_reason: str  # converged, line-search-stalled, max-iter; aux: moment-floor, max-iter
    # in iteration order: the accepted projected energies of the main
    # descent, or the moments vol |u|^p of the auxiliary power iterates
    trace: tuple = ()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}


@dataclass(frozen=True)
class GroundStateResult:
    minimizer: np.ndarray = field(repr=False, compare=False)  # read-only nodal values (n,)
    m: float
    gradient_norm: float
    relative_gradient: float
    starts: int
    per_start_energies: list
    converged: bool
    per_start: list
    residual: float
    minimizer_norm: float
    min_nehari_norm: float
    coercivity_margin: float


@dataclass(frozen=True)
class AuxResult:
    w_p: np.ndarray = field(repr=False, compare=False)  # read-only nodal values (n,)
    m_p: float
    p_norm_p: float
    gradient_norm: float
    relative_gradient: float
    starts: int
    per_start_energies: list
    converged: bool
    per_start: list
    # (k, n): row k the unit direction of start k's final point; the main solve starts there
    directions: np.ndarray = field(repr=False, compare=False)


def _relative_gradient(ops, w: np.ndarray, params: ModelParams, grad_norm):
    """||J'(w)|| / (g(S) ||w||) with S = ||w||^2, row by row of a stack (k, n).

    At a critical point the gradient is the difference of g(S) w and the
    Riesz image of the force, so this is the gradient relative to the terms
    it cancels: the same for the full and the pure-power functional at any cp."""
    nrm = ops.rule.norm(w)
    scale = params.kirchhoff.g(nrm**2) * nrm
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(scale > 0.0, grad_norm / scale, np.inf)


# The main descent's line search.  Energy comparisons near a minimum sit on
# the rounding floor of the quadrature sums; it tolerates that much relative
# noise so the terminal iterations are not rejected spuriously.
_ARMIJO = 1e-4
_ENERGY_NOISE = 1e-13
_MOMENT_RISE = 1e-15  # the aux ascent stops at this relative moment gain
# Energies within this relative window of the lowest tie (_winner): far above
# the rounding spread of starts at one critical point (4.2e-13 among the aux
# starts at the defaults), far below the discretization error of the level
# (about 4e-6 at n = 64), so rounding does not pick the published start.
_ENERGY_TIE = 1e-10


def _start_stack(grid: RadialGrid, ops, search: SearchConfig) -> np.ndarray:
    """The unit-norm random start directions of the auxiliary ascent, one
    row each: the random clamped profile of the rng [search.seed, k]."""
    starts = _random_clamped_rows(grid, search.seed, range(search.starts), 1)
    nrm = ops.rule.norm(starts)
    if np.any(nrm <= 0.0):
        raise ProjectionError("start direction is numerically zero")
    return starts / nrm[:, None]


def _finish_starts(ops, w: np.ndarray, params: ModelParams, energies, grad_norm, search: SearchConfig, drafts):
    """The records of the final points w (k, n), each on the Nehari set, at
    the energies and gradient norms measured there.

    drafts holds the (index, iterations, stop_reason, trace) of each row.
    A start has converged when its relative gradient is at most tol.
    """
    rel_grad = _relative_gradient(ops, w, params, grad_norm)
    columns = (x.tolist() for x in (energies, grad_norm, rel_grad, ops.rule.norm(w)))
    return [
        StartRecord(index, energy, gnorm, rel, norm, int(iterations), rel <= search.tol, reason, tuple(trace))
        for (index, iterations, reason, trace), energy, gnorm, rel, norm in zip(drafts, *columns)
    ]


def _descend_main(grid: RadialGrid, params: ModelParams, units: np.ndarray, search: SearchConfig):
    """Projected Sobolev-gradient descent from each row of a stack (k, n) of
    unit-norm start directions, all rows in lockstep.

    Each row keeps its own step size, Barzilai-Borwein pair, Armijo
    backtracking and stop.  A round evaluates the gradients, norms, BB
    forms, trial points and projected energies of all pending rows in one
    stacked call each; the trial rows share one FiberMap and project in
    lockstep (_drive).  A trial whose energy is not finite is rejected:
    NaN when it finds no scale, -inf past the overflow guard.

    Every accepted point is the projection of its own direction, so a start
    is judged where its descent stopped, with no second projection: its
    accepted energy, and the gradient norm of its last convergence check.
    Only a start stopped at max_iter has stepped since that check, and only
    its gradient is evaluated again.

    Returns (records, final points, min observed Nehari norm, worst
    coercivity margin E / ((1/4 - 1/q) g0 ||w||^2) - 1 across accepted
    projected points: relative, as levels can be ~1e-36).
    """
    ops = operator_cache(grid, params.beta)
    norm, form = ops.rule.norm, ops.rule.form

    def gradient(v):
        return ops.riesz(_residual_load(ops, v, params, _nodal_force(v, params)))

    coer = (0.25 - 1.0 / params.q) * params.kirchhoff.g0
    k = len(units)
    w = _drive(FiberMap.full(grid, units, params))[:, None] * units
    e = _energies(ops, w, params)
    pn = norm(w)
    min_norm, coer_margin = pn.min(), np.min(e / (coer * pn**2) - 1.0)
    step, last_grad_norm = np.ones(k), np.full(k, math.nan)
    prev_w, prev_grad = np.empty_like(w), np.empty_like(w)
    iterations = np.zeros(k, dtype=int)
    reasons = np.full(k, "max-iter", dtype=object)
    traces = [[x] for x in e.tolist()]
    active = np.arange(k)
    for it in range(1, search.max_iter + 1):
        iterations[active] = it
        grad = gradient(w[active])
        grad_norm = last_grad_norm[active] = norm(grad)
        done = _relative_gradient(ops, w[active], params, grad_norm) <= search.tol
        reasons[active[done]] = "converged"
        active, grad, grad_norm = active[~done], grad[~done], grad_norm[~done]
        if not active.size:
            break
        # Barzilai-Borwein initial steps from the last curvature pairs; the
        # backtracking below keeps each projected energy monotone.
        a = np.minimum(4.0 * step[active], 1e6)
        if it > 1:
            s_vec, y_vec = w[active] - prev_w[active], grad - prev_grad[active]
            sy, yy = form(s_vec, y_vec), form(y_vec)
            bb = (sy > 0.0) & (yy > 0.0)
            a[bb] = np.minimum(np.maximum(sy[bb] / yy[bb], 1e-12), 1e8)
        prev_w[active], prev_grad[active] = w[active], grad
        accepted = np.zeros(len(active), dtype=bool)
        pending = np.arange(len(active))  # positions in active still backtracking
        while pending.size:
            rows = active[pending]
            trial = w[rows] - a[pending, None] * grad[pending]
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero or overflowing trial finds no scale
                u_try = trial / norm(trial)[:, None]
            w_try = _drive(FiberMap.full(grid, u_try, params), strict=False)[:, None] * u_try
            e_try, e_row = _energies(ops, w_try, params), e[rows]
            decrease = _ARMIJO * a[pending] * grad_norm[pending] ** 2
            ok = np.isfinite(e_try) & (e_try <= e_row - decrease + _ENERGY_NOISE * np.abs(e_row))
            accepted[pending[ok]] = True
            w[rows[ok]], e[rows[ok]], step[rows[ok]] = w_try[ok], e_try[ok], a[pending[ok]]
            pending = pending[~ok]
            a[pending] *= 0.5
            pending = pending[a[pending] > 1e-20]
        reasons[active[~accepted]] = "line-search-stalled"
        active = active[accepted]
        for i in active:
            traces[i].append(e[i])
        pn = norm(w[active])
        min_norm = min(min_norm, pn.min(initial=math.inf))
        coer_margin = min(coer_margin, np.min(e[active] / (coer * pn**2) - 1.0, initial=math.inf))

    if active.size:  # the max-iter rows: accepted a step after their last check
        last_grad_norm[active] = norm(gradient(w[active]))
    drafts = zip(range(k), iterations, reasons, traces)
    records = _finish_starts(ops, w, params, e, last_grad_norm, search, drafts)
    return records, w, min_norm, coer_margin


def _descend_aux(grid: RadialGrid, params: ModelParams, u: np.ndarray, search: SearchConfig):
    """Constrained minimization of the pure-power functional from each row
    of a stack (k, n) of unit-norm starts.

    Along each ray the projected level is a strictly decreasing function
    of the moment Phi(u) = vol |u|^p (envelope identity: the scale of the
    fibering maximum does not contribute to first order), so minimizing
    over directions is maximizing Phi on the unit sphere of the weighted
    norm.  Phi is convex, so the generalized power method u <- v/||v||,
    with v the Riesz image of vol |u|^(p-2) u = grad Phi / p, needs no line
    search: by convexity and Cauchy-Schwarz, Phi(v/||v||) - Phi(u) >=
    p <v, v/||v|| - u> = p (||v|| - <v, u>) >= 0 (Journee, Nesterov,
    Richtarik & Sepulchre, JMLR 11, 2010, sec. 2).  The rows step in
    lockstep, one stacked Riesz product per step, and each row stops once
    its moment rises by no more than its rounding floor.  It returns only
    (records, w), as the ascent visits no Nehari point to take path norms
    or margins at; each final direction is projected onto the Nehari set
    of the pure-power functional, and the start judged there.
    """
    p = params.p
    ops = operator_cache(grid, params.beta)
    u = u.copy()
    moment = rowwise(ops.rule.vol, np.abs(u) ** p)
    traces = [[m] for m in moment.tolist()]
    iterations = np.zeros(len(u), dtype=int)
    reasons = np.full(len(u), "max-iter", dtype=object)
    active = np.arange(len(u))
    for it in range(1, search.max_iter + 1):
        iterations[active] = it
        # v/||v|| is blind to the scale of a row: at max|u| = 1 nothing underflows at large p
        peaked = u[active] / np.abs(u[active]).max(axis=1)[:, None]
        v = ops.riesz(ops.rule.vol * (np.abs(peaked) ** (p - 2.0) * peaked))
        u_next = v / ops.rule.norm(v)[:, None]
        m_next = rowwise(ops.rule.vol, np.abs(u_next) ** p)
        rise = m_next > moment[active] * (1.0 + _MOMENT_RISE)  # above the rounding floor
        reasons[active[~rise]] = "moment-floor"
        active = active[rise]
        u[active], moment[active] = u_next[rise], m_next[rise]
        for i in active:
            traces[i].append(moment[i])
        if not active.size:
            break
    units = u / ops.rule.norm(u)[:, None]
    w = _drive(FiberMap.pure_power(grid, units, params))[:, None] * units
    grad_norm = ops.rule.norm(ops.riesz(_residual_load(ops, w, params, np.abs(w) ** (p - 2.0) * w)))
    value = 0.5 * params.kirchhoff.G(ops.rule.form(w)) - rowwise(ops.rule.vol, np.abs(w) ** p) / p
    drafts = zip(range(len(w)), iterations, reasons, traces)
    records = _finish_starts(ops, w, params, value, grad_norm, search, drafts)
    return records, w


def _winner(records: list) -> int:
    """Position of the published start: the lowest energy among converged
    starts (among all when none converged), energies within _ENERGY_TIE
    relative of it tied and a tie going to the lowest index."""
    pool = [k for k, r in enumerate(records) if r.converged] or range(len(records))
    low = min(records[k].energy for k in pool)
    return next(k for k in pool if records[k].energy <= low + _ENERGY_TIE * abs(low))


def ground_state(grid: RadialGrid, params: ModelParams, search: SearchConfig, starts: np.ndarray) -> GroundStateResult:
    """Multi-start minimization of the projected energy over directions from
    each row of starts, a (k, n) stack of unit-norm directions on the grid.

    The command line passes the auxiliary ascent's final directions
    (AuxResult.directions), carrying each start from the pure-power problem
    to the full one instead of restarting it (numerical continuation:
    Allgower & Georg, SIAM 2003).  At the automatic cp the reaction is the
    pure power to rounding, so each such start converges at its first
    gradient check.  It publishes the winner's own record point, as
    aux_ground_state does; identical inputs give the result bit for bit.
    """
    records, w, min_norm, coer_margin = _descend_main(grid, params, starts, search)
    k = _winner(records)
    best, best_vals = records[k], w[k]
    return GroundStateResult(
        minimizer=_read_only(best_vals),
        m=best.energy,
        gradient_norm=best.gradient_norm,
        relative_gradient=best.relative_gradient,
        starts=len(records),
        per_start_energies=[r.energy for r in records],
        converged=best.converged,
        per_start=records,
        residual=float(_nehari_residuals(operator_cache(grid, params.beta), best_vals[None], params)[0]),
        minimizer_norm=best.norm,
        min_nehari_norm=min_norm,
        coercivity_margin=coer_margin,
    )


def aux_ground_state(grid: RadialGrid, params: ModelParams, search: SearchConfig) -> AuxResult:
    """Ground level of the pure-power functional (no q-term, no reaction)."""
    if params.p <= 4.0:
        raise ValueError(f"auxiliary problem needs p > 4, got {params.p}")
    ops = operator_cache(grid, params.beta)
    records, w = _descend_aux(grid, params, _start_stack(grid, ops, search), search)
    k = _winner(records)
    best, best_vals = records[k], w[k]
    p_norm_p = float(ops.rule.vol @ np.abs(best_vals) ** params.p)
    return AuxResult(
        w_p=_read_only(best_vals),
        m_p=best.energy,
        p_norm_p=p_norm_p,
        gradient_norm=best.gradient_norm,
        relative_gradient=best.relative_gradient,
        starts=len(records),
        per_start_energies=[r.energy for r in records],
        converged=best.converged,
        per_start=records,
        directions=w / ops.rule.norm(w)[:, None],
    )


# ---------------------------------------------------------------------------
# level bounds
# ---------------------------------------------------------------------------


def power_envelope_max(a: float, c: float, p: float) -> float:
    """max over xi > 0 of (a xi^2 - c xi^p / p) = a (2a/c)^(2/(p-2)) (p-2)/p."""
    if a <= 0.0 or c <= 0.0 or p <= 2.0:
        raise ValueError("envelope needs a > 0, c > 0, p > 2")
    return a * (2.0 * a / c) ** (2.0 / (p - 2.0)) * (p - 2.0) / p


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _tau_pair(m_p: float, params: ModelParams) -> tuple:
    """Two published variants of the quadratic cap coefficient.

    tau_threshold enters the admissibility threshold for cp;
    tau_cap is the variant consistent with the cap derivation from the
    auxiliary norm bound (always the larger of the two for q > 4); inf
    where the arithmetic overflows (g0^2 can underflow to 0).
    """
    g0 = np.float64(params.kirchhoff.g0)
    g1 = float(params.kirchhoff.g(1.0))
    p, q = params.p, params.q
    tau_threshold = g1 / (2.0 * g0) + (g1 / g0**2) * (p / (p - 4.0)) * m_p
    tau_cap = g1 / (2.0 * g0) + (g1 / (4.0 * g0**2)) * (p * q / (p - q)) * m_p
    return float(tau_threshold), float(tau_cap)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cp_threshold(tau: float, m_p: float, params: ModelParams) -> float:
    """Admissibility threshold: cp must exceed
    max{1, 2 tau^(p/2) (4 q^2 (p-2) m_p / (g0 (q-4)(p-q)) *
        (2 (alpha0 + delta)/alpha_adams)^(1-beta))^((p-2)/2)};
    inf where the arithmetic overflows, NaN where it has no value."""
    p, q = params.p, params.q
    g0 = np.float64(params.kirchhoff.g0)
    budget = (2.0 * (params.alpha0 + params.delta) / adams_constant(params.beta)) ** (1.0 - params.beta)
    inner = 4.0 * q**2 * (p - 2.0) * m_p / (g0 * (q - 4.0) * (p - q)) * budget
    return float(np.maximum(1.0, 2.0 * np.float64(tau) ** (p / 2.0) * inner ** ((p - 2.0) / 2.0)))


def min_admissible_cp(aux: AuxResult, params: ModelParams) -> float:
    """Smallest admissible power coefficient for the given auxiliary level.

    Both published variants of the cap coefficient are honored (the larger
    of the two thresholds is taken), so the existence hypothesis holds
    under either reading and the closed-form level cap is guaranteed by the
    comparison chain.  RangeOverflowError where either is not finite.
    """
    thresholds = [_cp_threshold(tau, aux.m_p, params) for tau in _tau_pair(aux.m_p, params)]
    if not all(map(math.isfinite, thresholds)):
        raise RangeOverflowError(f"the admissibility thresholds for cp are not finite: {thresholds}")
    return max(thresholds)


def resolve_auto_cp(grid: RadialGrid, params: ModelParams, search: SearchConfig):
    """Solve the auxiliary problem and fix cp = 1.1 x min_admissible_cp.

    Returns the resolved parameters, the auxiliary result and the
    threshold.  The final directions of the auxiliary starts
    (AuxResult.directions) start the main solve: in the resolved regime
    the pure power dominates the reaction term, so the auxiliary extremal
    is the main one to rounding.
    """
    aux = aux_ground_state(grid, params, search)
    thr = min_admissible_cp(aux, params)
    return params.with_cp(1.1 * thr), aux, thr


@dataclass(frozen=True)
class BoundsReport:
    """Every computed level quantity with the pass flag of each inequality.

    level_below_closed_form is None when cp does not clear the threshold
    (the closed-form cap is only asserted above it).
    """

    m: float
    m_p: float
    p_norm_p: float
    tau_threshold: float
    tau_cap: float
    adams_alpha: float
    cp_used: float
    cp_threshold: float
    cp_threshold_cap_variant: float
    aux_pnorm_cap: float
    level_cap_from_pnorm: float
    level_cap_from_aux: float
    level_cap_closed_form: float
    aux_pnorm_ok: bool
    cp_above_threshold: bool
    level_below_aux_cap: bool
    level_below_closed_form: bool | None

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @property
    def failed(self) -> list:
        """The names of the pass flags that are False, in field order."""
        flags = ("aux_pnorm_ok", "level_below_aux_cap", "level_below_closed_form")
        return [name for name in flags if getattr(self, name) is False]

    @property
    def all_passed(self) -> bool:
        return not self.failed


def _below(x: float, cap: float) -> bool:
    return bool(x <= cap + 1e-9 * abs(cap))  # rounding slack relative to the cap


def aux_pnorm_bound(aux: AuxResult, params: ModelParams) -> tuple:
    """The cap p q/(p - q) m_p on |w_p|_p^p, and whether w_p is below it."""
    cap = params.p * params.q / (params.p - params.q) * aux.m_p
    return cap, _below(aux.p_norm_p, cap)


def level_bounds(m: float, aux: AuxResult, params: ModelParams) -> BoundsReport:
    """Evaluate every level inequality relating m, m_p and the constants."""
    p, q = params.p, params.q
    g0 = params.kirchhoff.g0
    cp = params.cp
    m_p, pnorm = aux.m_p, aux.p_norm_p

    tau_threshold, tau_cap = _tau_pair(m_p, params)
    adams = adams_constant(params.beta)

    aux_pnorm_cap, aux_pnorm_ok = aux_pnorm_bound(aux, params)
    cap_from_pnorm = power_envelope_max(tau_cap, cp, p) * pnorm
    cap_from_aux = tau_cap * (2.0 * tau_cap / cp) ** (2.0 / (p - 2.0)) * (q * (p - 2.0) / (p - q)) * m_p
    cap_closed_form = g0 * (q - 4.0) / (4.0 * q) * (adams / (2.0 * (params.alpha0 + params.delta))) ** (1.0 - params.beta)

    cp_threshold = _cp_threshold(tau_threshold, m_p, params)
    cp_threshold_cap = _cp_threshold(tau_cap, m_p, params)
    cp_ok = cp > cp_threshold

    return BoundsReport(
        m=m,
        m_p=m_p,
        p_norm_p=pnorm,
        tau_threshold=tau_threshold,
        tau_cap=tau_cap,
        adams_alpha=adams,
        cp_used=cp,
        cp_threshold=cp_threshold,
        cp_threshold_cap_variant=cp_threshold_cap,
        aux_pnorm_cap=aux_pnorm_cap,
        level_cap_from_pnorm=cap_from_pnorm,
        level_cap_from_aux=cap_from_aux,
        level_cap_closed_form=cap_closed_form,
        aux_pnorm_ok=aux_pnorm_ok,
        cp_above_threshold=bool(cp_ok),
        level_below_aux_cap=_below(m, cap_from_aux),
        level_below_closed_form=_below(m, cap_closed_form) if cp_ok else None,
    )
