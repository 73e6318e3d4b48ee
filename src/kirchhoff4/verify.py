"""Property-verification suite: the one home of every check.

Every quantitative ingredient of the solver is checked against an
independent value: quadrature against closed-form moments, operators
against symbolic derivatives, the structural hypotheses on g and f by
sampling, weak derivatives against finite differences, the projection
against scalar oracles, the radial pointwise estimate and norm
equivalence on random profiles, and the exponential integrability budget
by direct sampling at the critical coefficient.  Each check is one
SuiteCheck; every group returns them and run_suite collects them into
one SuiteReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (  # energy: unused here; perfbench tests rebind it
    FiberMap,
    _energies,
    _nehari_residuals,
    _nodal_force,
    _residual_load,
    energy,
    fibering,
    operator_cache,
)
from .model import (
    EXP_GUARD,
    KirchhoffSpec,
    ModelParams,
    NonlinearitySpec,
    adams_constant,
)
from .nehari import _drive, _projection, project
from .radial import (
    RadialGrid,
    full_sobolev_norm,
    lebesgue_norm,
    pointwise_bound_coeff,
    _random_clamped_rows,
    rowwise,
    weighted_rule,
)

__all__ = ["SuiteCheck", "SuiteReport", "check_hypotheses", "run_suite"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    status: str  # pass | fail | skip
    margin: float
    witness: object = None

    def to_dict(self) -> dict:
        wit = self.witness
        if isinstance(wit, (np.floating, np.integer)):
            wit = float(wit)
        return {"name": self.name, "status": self.status, "margin": float(self.margin), "witness": wit}


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple

    @property
    def overall(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    def to_dict(self) -> dict:
        return {"overall": self.overall, "checks": [c.to_dict() for c in self.checks]}

    def __getitem__(self, name: str) -> SuiteCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _check(name, ok, margin, witness=None):
    return SuiteCheck(name, "pass" if ok else "fail", float(margin), witness)


def _bound(name, value, tol, witness=None):
    """Pass when value <= tol; margin is the headroom."""
    return _check(name, value <= tol, tol - value, witness)


def _floor_check(name, err, floor):
    """Pass when err <= floor in every component; the margin is the
    headroom 1 - err/floor of the worst component, the witness its index."""
    ratio = err / floor
    worst = int(np.argmax(ratio))
    return _check(name, bool(np.all(err <= floor)), 1.0 - ratio[worst], worst)


# ---------------------------------------------------------------------------
# check groups
# ---------------------------------------------------------------------------


def _grid_checks(grid: RadialGrid) -> list:
    checks = []
    r = grid.nodes
    n = grid.n

    # quadrature exactness, with the worst degree as witness
    if grid.scheme == "spectral-even":  # on even monomials: the representation is even
        name, degrees = "quadrature-even-monomials", range(0, 2 * n, 2)
    else:  # the uniform rule is exact through degree 4 in r
        name, degrees = "quadrature-low-degree", range(5)
    errs = [abs(float(grid.quad_weights @ r**k) - 1.0 / (k + 4.0)) for k in degrees]
    worst = int(np.argmax(errs))
    checks.append(_bound(name, errs[worst], 1e-12, degrees[worst]))

    # node by node against the rounding of each row's sum, 4 eps sum_j |d1_ij|
    # (a mass that grows like n^2), or 1e-11; the worst ratio is 1.79 eps on
    # the spectral grids n = 8..256 and 0.52 eps on the uniform grids n = 8..800
    d1_floor = np.maximum(1e-11, 4.0 * _EPS * np.abs(grid.d1).sum(axis=1))
    checks.append(_floor_check("d1-constant", np.abs(grid.d1 @ np.ones(n)), d1_floor))

    dome = (1.0 - r**2) ** 2
    lap_err = np.abs(grid.lap @ dome - (-16.0 + 24.0 * r**2))
    # both schemes are exact on the quartic dome, so node by node against
    # 4 n eps (|lap| dome)_i, the rounding floor of the product (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.5); the
    # worst ratio is 0.54 n eps on the spectral grids n = 8..256 and 0.11 n eps
    # on the uniform grids n = 8..800
    checks.append(_floor_check("laplacian-oracle", lap_err, 4.0 * n * _EPS * (np.abs(grid.lap) @ dome)))
    # rounding floor of applying the operator to profiles that do not
    # vanish at the boundary (where the large rows live): differences of
    # summation order scale with the absolute row mass
    op_mass = float(np.abs(grid.lap).sum(axis=1).max())
    const_tol = max(1e-10, 64.0 * _EPS * op_mass)
    checks.append(_bound("laplacian-quadratic", float(np.abs(grid.lap @ r**2 - 8.0).max()), const_tol))
    checks.append(_bound("laplacian-constant", float(np.abs(grid.lap @ np.ones(n)).max()), const_tol))

    checks.append(_bound("wnorm-dome-unweighted", abs(weighted_rule(grid, 0.0).norm(dome) - 4.0 * np.pi), 1e-8))
    checks.append(
        _bound(
            "ball-volume",
            abs(float(np.sum(grid.quad_weights)) * 2.0 * np.pi**2 - np.pi**2 / 2.0),
            1e-12,
        )
    )
    checks.append(_bound("lebesgue-dome", abs(lebesgue_norm(grid, dome, 2.0) - np.pi / np.sqrt(30.0)), 1e-8))
    full_sq = np.pi**2 / 30.0 + 2.0 * np.pi**2 * (4.0 / 15.0) + (4.0 * np.pi) ** 2
    checks.append(
        _bound("full-sobolev-dome-unweighted", abs(full_sobolev_norm(grid, dome, 0.0) - math.sqrt(full_sq)), 1e-6)
    )
    return checks


def _profile_checks(grid: RadialGrid, beta: float, count: int, seed: int) -> list:
    checks = []
    coeffs = np.array([pointwise_bound_coeff(r, beta) for r in grid.nodes[:-1]])
    # the profiles drawn in a row from the rng [seed, 100]; each row's norms
    # by products of its own, as the rule and full_sobolev_norm take them for it alone
    rule = weighted_rule(grid, beta)
    values = _random_clamped_rows(grid, seed, [100], count)
    nw = np.sqrt(rule.form(values, alone=True))
    worst_gap = float(np.max(np.abs(values[:, :-1]) - coeffs * nw[:, None]))
    full = full_sobolev_norm(grid, values, beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(nw > 0.0, full / nw, math.inf)
    ratio_ok = bool(np.all(np.isfinite(ratio) & (ratio >= 1.0 - 1e-12)))
    worst_ratio = max(1.0, float(np.max(ratio)))
    checks.append(_bound("pointwise-bound", worst_gap, 1e-7))
    checks.append(_check("norm-equivalence-ratio", ratio_ok, worst_ratio, worst_ratio))

    u, v, z = _random_clamped_rows(grid, seed, [7], 3)
    a_coef, b_coef = 0.7, -1.3
    uz, vz = rule.form(u, z), rule.form(v, z)
    lin_gap = abs(rule.form(a_coef * u + b_coef * v, z) - a_coef * uz - b_coef * vz)
    scale = 1.0 + abs(uz) + abs(vz)
    checks.append(_bound("bilinearity", lin_gap / scale, 1e-10))
    return checks


_REL_SLACK = 1e-9  # floating-point slack for non-strict inequalities


def _worst(name, values, witnesses, strict=False):
    """Check on the worst sampled margin, with the sample where it occurs:
    it passes when the margin is positive (strict) or within slack of it."""
    i = int(np.argmin(values))
    wit = witnesses[i] if not isinstance(witnesses, tuple) else tuple(w[i] for w in witnesses)
    margin = float(values[i])
    return _check(name, margin > 0.0 if strict else margin >= -_REL_SLACK, margin, wit)


def _unit_profiles(grid: RadialGrid, beta: float, seed: int, tag: int, count: int) -> np.ndarray:
    """Unit-norm random clamped profiles, a stack (count, n): the profiles
    drawn in a row from the rng [seed, tag] (radial._random_clamped_rows),
    each normalized by its own norm (WeightedRule.form alone), so a row is
    its one-profile draw bit for bit."""
    values = _random_clamped_rows(grid, seed, [tag], count)
    return values / np.sqrt(weighted_rule(grid, beta).form(values, alone=True))[:, None]


def _monotone_check(name, ts, vals):
    rel = np.diff(vals) / (1.0 + (np.abs(vals[1:]) + np.abs(vals[:-1])))
    return _worst(name, rel, ts[1:])


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


def check_hypotheses(params: ModelParams, sample_count: int = 200) -> SuiteReport:
    """Sample-based verification of every structural hypothesis on g and f.

    Samples are log-spaced on [max(1e-6, tiny^(1/p)), t_max]: above t_max
    (_representable_scale) the largest term leaves the double range, and
    below tiny^(1/p), tiny the smallest normal float, F does.  Failures
    are reported, never raised; each check, named hyp-..., records the
    worst margin (negative means violated beyond slack) and its witness.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    g = params.kirchhoff
    nl = params.nonlinearity
    q, p = params.q, params.p
    t_max = nl.guard_scale()
    t_max = 10.0 if math.isinf(t_max) else 0.999 * _representable_scale(nl, t_max)
    ts = np.geomspace(max(1e-6, np.finfo(float).tiny ** (1.0 / p)), t_max, sample_count)

    checks = []

    # Kirchhoff side ----------------------------------------------------
    gv = np.asarray(g.g(ts))
    Gv = np.asarray(g.G(ts))
    checks.append(_monotone_check("hyp-g-increasing", ts, gv))
    checks.append(_check("hyp-g0-positive", g.g(0.0) > 0.0, g.g(0.0), 0.0))
    checks.append(_monotone_check("hyp-g-over-t-nonincreasing", ts, -gv / ts))

    rng_pairs = np.random.default_rng(0)
    s_pair = ts[rng_pairs.integers(0, sample_count, size=sample_count)]
    t_pair = ts[rng_pairs.integers(0, sample_count, size=sample_count)]
    super_margin = (np.asarray(g.G(s_pair + t_pair)) - np.asarray(g.G(s_pair)) - np.asarray(g.G(t_pair))) / (
        1.0 + np.abs(Gv.max())
    )
    checks.append(_worst("hyp-G-superadditive", super_margin, (s_pair, t_pair)))

    g1 = float(g.g(1.0))
    checks.append(_worst("hyp-g-affine-dominated", (g1 + g1 * ts - gv) / (1.0 + np.abs(gv)), ts))
    quad_bound = (g1 * ts + 0.5 * g1 * ts**2 - Gv) / (1.0 + np.abs(Gv))
    checks.append(_worst("hyp-G-quadratic-dominated", quad_bound, ts))

    # h against its rounding floor: where G is nearly quadratic its two terms
    # cancel (affine g gives h = g0 t/4 exactly, rounding noise from about
    # t = 1/(a eps) on, which a tiny alpha0 samples).  The error of h reads
    # at most 0.6 eps (|G|/2 + |g t|/4) for affine(1, 1) on [1e-6, 3e50]
    h = 0.5 * Gv - 0.25 * gv * ts
    h_floor = 4.0 * _EPS * (0.5 * np.abs(Gv) + 0.25 * np.abs(gv * ts))
    rel = (np.diff(h) + h_floor[1:] + h_floor[:-1]) / (1.0 + (np.abs(h[1:]) + np.abs(h[:-1])))
    checks.append(_worst("hyp-half-G-minus-quarter-gt-nondecreasing", rel, ts[1:]))
    checks.append(_worst("hyp-half-G-minus-quarter-gt-positive", (h + h_floor) / (1.0 + np.abs(Gv)), ts, strict=True))

    # nonlinearity side ---------------------------------------------------
    fv = np.asarray(nl.f(ts))
    Fv = np.asarray(nl.F(ts))

    theta_margin = (ts * fv - params.theta * Fv) / (1.0 + np.abs(ts * fv))
    checks.append(_worst("hyp-superlinearity-theta", theta_margin, ts))
    checks.append(_worst("hyp-F-positive", Fv / (1.0 + np.abs(Fv)), ts, strict=True))

    checks.append(_monotone_check("hyp-f-power-ratio-increasing-pos", ts, fv / ts ** (q - 1.0)))
    fneg = np.asarray(nl.f(-ts[::-1]))
    ratio_q_neg = fneg / np.abs(ts[::-1]) ** (q - 1.0)
    checks.append(_monotone_check("hyp-f-power-ratio-increasing-neg", -ts[::-1], ratio_q_neg))

    # vanishing slope at zero: |f(t)/t| shrinks toward zero as t decreases,
    # judged over the two decades above the smallest sample so the decay
    # rate is visible whatever the size of the power coefficient
    small = ts[ts <= 1e2 * ts[0]]
    slopes = np.abs(np.asarray(nl.f(small)) / small)
    shrinking = np.all(np.diff(slopes) >= -_REL_SLACK * (1.0 + np.abs(slopes[1:])))
    margin = float(1e-3 - slopes[0] / (1.0 + slopes[-1]))
    checks.append(_check("hyp-f-vanishing-slope-at-zero", shrinking and margin > 0.0, margin, float(small[0])))

    lower = (np.sign(ts) * fv - nl.cp * ts ** (p - 1.0)) / (1.0 + np.abs(fv))
    checks.append(_worst("hyp-f-dominates-cp-power", lower, ts))

    checks.append(_monotone_check("hyp-f-cubic-ratio-increasing", ts, fv / ts**3))

    checks.append(_monotone_check("hyp-tf-minus-qF-increasing", ts, ts * fv - q * Fv))

    odd_gap = np.abs(np.asarray(nl.f(-ts)) + fv)
    checks.append(_worst("hyp-f-odd", -odd_gap / (1.0 + np.abs(fv)), ts))

    return SuiteReport(checks=tuple(checks))


def _energy_checks(grid: RadialGrid, params: ModelParams, seed: int) -> list:
    checks = []
    ops = operator_cache(grid, params.beta)
    # fourth-order central difference: the second-order one carries
    # truncation error up to ~1e-6 on some random directions
    eps = 1e-5
    shifts = np.array([2.0, 1.0, -1.0, -2.0]) * eps
    pairs = _unit_profiles(grid, params.beta, seed, 200, 100)
    us, phis = pairs[0::2], pairs[1::2]
    wa = _weak_actions(ops, us, phis, params)
    stack = us[:, None, :] + shifts[:, None] * phis[:, None, :]
    j = _energies(ops, stack.reshape(-1, grid.n), params).reshape(-1, 4)  # the 200 energies as one stack
    fd = (-j[:, 0] + 8.0 * j[:, 1] - 8.0 * j[:, 2] + j[:, 3]) / (12.0 * eps)
    checks.append(_bound("weak-action-fd", float(np.max(np.abs(fd - wa) / (1.0 + np.abs(wa)))), 1e-6))

    u = _unit_profiles(grid, params.beta, seed, 300, 1)[0]
    t_u = _projection(grid, u[None], params)[0].item()
    checks.append(_bound("fibering-deriv-fd", _fibering_fd_gap(grid, u, params, t_u), 1e-7))

    lam, t_probe = 1.7, 0.6 * t_u
    gap = abs(fibering(grid, lam * u, t_probe, params) - fibering(grid, u, lam * t_probe, params))
    checks.append(_bound("fibering-scaling", gap / (1.0 + abs(fibering(grid, u, lam * t_probe, params))), 1e-12))

    # <J'(u), u> by quadrature against the moment form of d/dt J(t u) at t = 1
    residual = _weak_actions(ops, u, u, params)
    gap = abs(residual - FiberMap.full(grid, u, params).deriv(1.0))
    checks.append(_bound("weak-action-residual-identity", gap, 1e-12 * (1.0 + abs(residual))))

    load = _residual_load(ops, u, params, _nodal_force(u, params))
    v = ops.riesz(load)
    bt = ops.basis.T
    # the residual of B^T G v = B^T load, v = R load through the explicit Riesz
    # matrix R, node by node against 16 eps (|B^T| |G| |R| |load| + |B^T| |load|)_i,
    # its rounding floor (Oettli & Prager, Numer. Math. 6, 1964; Higham 2002,
    # secs. 7.2, 14.1): at most 2.6 eps on seeds 1-20 up to uniform-fd n = 400
    floor = 16.0 * _EPS * (np.abs(bt) @ (np.abs(ops.gram) @ (np.abs(ops.riesz_matrix) @ np.abs(load)) + np.abs(load)))
    checks.append(_floor_check("gradient-defining-equations", np.abs(bt @ (ops.gram @ v) - bt @ load), floor))
    return checks


def _weak_actions(ops, us: np.ndarray, phis: np.ndarray, params: ModelParams):
    """<J'(u), phi> = g(S) form(u, phi) - vol.(force(u) phi) by quadrature,
    of nodal values (n,) or of each pair of rows of stacks (k, n) by products
    of the pair's own."""
    head = params.kirchhoff.g(ops.rule.form(us, alone=True)) * ops.rule.form(us, phis, alone=True)
    return head - rowwise(ops.rule.vol, _nodal_force(us, params) * phis, alone=True)


def _projection_checks(grid: RadialGrid, params: ModelParams, count: int, seed: int) -> list:
    checks = []
    quartic = FiberMap(KirchhoffSpec.affine(1.0, 1.0), 1.0, ((6.0, 1.0),))
    root = _drive(quartic)[0]
    checks.append(_bound("projection-quartic-oracle", abs(root - math.sqrt((1 + math.sqrt(5.0)) / 2.0)), 1e-9))
    power = FiberMap(KirchhoffSpec.affine(2.0, 0.0), 3.0, ((6.0, 5.0),))
    checks.append(_bound("projection-power-oracle", abs(_drive(power)[0] - (2.0 * 3.0 / 5.0) ** 0.25), 1e-10))

    u = _random_clamped_rows(grid, seed, [400], 1)[0]
    lams = np.array([1.0, 0.5, 2.0, 10.0])
    t_u = _projection(grid, lams[:, None] * u, params)[0]
    worst = float(np.max(np.abs(t_u[1:] * lams[1:] - t_u[0]) / t_u[0]))
    checks.append(_bound("projection-scaling-law", worst, 1e-9))

    dir_values = _unit_profiles(grid, params.beta, seed, 500, count)
    t_u, projected, energies, residuals = project(grid, dir_values, params)
    ops = operator_cache(grid, params.beta)
    fibers = FiberMap.full(grid, dir_values, params, alone=True)  # one map, the rows' own, for the sweeps and peaks
    sign_changes = _sign_changes(fibers, t_u, grid.n)
    # the fibering maximum is attained at the projection scale, up to a slack
    # relative to it (levels can be ~1e-36); past the guard the map is -inf.
    # The peaks and the sweeps (each row over t_u times one shared grid on
    # [0, 3], _FIBER_BLOCK rows a call) come from the one kernel FiberMap.value
    peaks = fibers.value(t_u)
    sweep_max = np.empty(count)
    unit = np.linspace(0.0, 3.0, _FIBER_SCALES)
    for start in range(0, count, _FIBER_BLOCK):
        rows = slice(start, start + _FIBER_BLOCK)
        sweep_max[rows] = fibers.take(rows).value(t_u[rows], unit).max(axis=1)
    max_gaps = (peaks - sweep_max) / np.abs(peaks)
    bad = np.flatnonzero(sign_changes != 1).tolist()  # the witness is the first of them
    checks.append(_check("projection-unique-sign-change", not bad, -1.0 if bad else 1.0, bad[0] if bad else None))
    checks.append(_worst("projection-fibering-max", max_gaps, range(count)))
    # the kernel's level against the nodal J, to the same slack: a factor common to peaks and sweeps passes the above
    gaps = np.abs(peaks - energies) / np.abs(energies)
    checks.append(_bound("projection-fibering-level", float(gaps.max()), 1e-9, int(np.argmax(gaps))))
    # scale-below-one criterion on the doubled points inside the Nehari set
    doubled = 2.0 * projected
    inside = np.flatnonzero(_nehari_residuals(ops, doubled, params) <= 0.0)
    scales = np.full(count, -math.inf)  # a point outside the set is not tested
    scales[inside] = _projection(grid, doubled[inside], params)[0]
    worst = int(np.argmax(scales))  # the margin is the headroom of the largest scale
    headroom = 1.0 + 1e-10 - scales[worst]
    checks.append(_check("projection-scale-below-one", headroom >= 0.0, headroom, worst))
    # relative to the coercivity level: energies can be ~1e-36
    coer = (0.25 - 1.0 / params.q) * params.kirchhoff.g0
    norms = np.sqrt(ops.rule.form(projected, alone=True))  # ops.rule.norm of each row alone, bit for bit
    worst_margin = float(np.min(energies / (coer * norms**2) - 1.0))
    checks.append(_check("projection-coercivity", worst_margin >= -1e-9, worst_margin + 1e-9))
    # t_u is placed to adjacent floats: its spread eps t_u moves the residual
    # s d/ds J(s w) at s = 1 by eps t_u^2 |d^2/dt^2 J(t u)|, dominant as gamma X nears 600
    floor = _residual_limit(ops, projected, params) + _EPS * t_u**2 * np.abs(fibers.derivs(t_u)[1])
    checks.append(_floor_check("projection-residual", np.abs(residuals), floor))
    return checks


_FIBER_BLOCK = 50  # rows of one call of the fibering-maximum sweep
_FIBER_SCALES = 200
_SWEEP_SCALES = 500
_SIGN_BLOCK = 40  # rows of one block of the sign sweep within the exact tail
_SWEEP_DOUBLES = 2**18  # the (rows, scales, n) exp body of one block of the sign sweep


def _sign_changes(fibers: FiberMap, t_u: np.ndarray, n: int) -> np.ndarray:
    """The sign changes of each row's fibering derivative (-inf past the
    guard, zeros skipped) over t_u times one shared log grid from 1e-6 to
    1e3, n the nodes of a row; each row gets the arithmetic of its sweep
    alone (FiberMap.deriv on the grid).  A row whose sweep stays within the
    exact pure-power tail (t_u max(grid) vmax at most _exact_peak, the test
    FiberMap.deriv makes, or no tail) forms no exp body: those rows go
    _SIGN_BLOCK a call, a block's (rows, scales) arrays peaking at about
    0.7 MB (one call over all 200 rows peaks at about 2.0 MB).  The other
    rows go in blocks sized so that the exp body holds about _SWEEP_DOUBLES
    doubles (8 rows at n = 64, 1 at n = 400)."""
    unit = np.geomspace(1e-6, 1e3, _SWEEP_SCALES)
    exact = np.ones(len(t_u), dtype=bool)
    if fibers.tail_spec is not None:
        exact = t_u * unit.max() * fibers.vmax <= fibers.tail_spec._exact_peak
    wide = max(1, _SWEEP_DOUBLES // (_SWEEP_SCALES * n))
    changes = np.empty(len(t_u), dtype=int)
    for rows, block in ((np.flatnonzero(exact), _SIGN_BLOCK), (np.flatnonzero(~exact), wide)):
        for start in range(0, len(rows), block):
            sub = rows[start : start + block]
            signs = np.sign(fibers.take(sub).deriv(t_u[sub], unit=unit))
            changes[sub] = np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1)
            for k in np.flatnonzero((signs == 0.0).any(axis=1)):  # recount without the zeros
                kept = signs[k][signs[k] != 0.0]
                changes[sub[k]] = np.count_nonzero(kept[1:] != kept[:-1])
    return changes


def _residual_limit(ops, values: np.ndarray, params: ModelParams):
    """Rounding bound of the Nehari residual <J'(w), w> = g(S) S - vol.(force(w) w)
    of nodal values (n,) or of each profile of a stack (k, n): eps times the
    magnitudes of its terms, so it scales with the problem and has no
    absolute part."""
    rule, lap = ops.rule, ops.rule.grid.lap
    g_val = params.kirchhoff.g(rule.form(values))
    head = 2.0 * g_val * ((np.abs(values @ lap.T) * (np.abs(values) @ np.abs(lap).T)) @ rule.wvol)
    tail = np.abs(_nodal_force(values, params) * values) @ rule.vol
    return 4.0 * _EPS * (head + tail)


def _fibering_fd_gap(grid: RadialGrid, u: np.ndarray, params: ModelParams, t_u: float, samples: int = 20) -> float:
    """Worst relative gap between the fibering derivative and a fourth-order
    central difference of J of the scaled profiles node by node (not the
    moment form), sampled away from the fibering maximum (there the
    derivative crosses zero and a difference quotient of the large map
    values is pure cancellation noise) and short of the exponential wall."""
    ts = np.linspace(0.1 * t_u, 0.95 * t_u, samples)
    h = 1e-4 * ts
    shifted = ts + np.array([2.0, 1.0, -1.0, -2.0])[:, None] * h
    j = _energies(operator_cache(grid, params.beta), shifted.reshape(-1, 1) * u, params).reshape(shifted.shape)
    fd = (-j[0] + 8.0 * j[1] - 8.0 * j[2] + j[3]) / (12.0 * h)
    dv = FiberMap.full(grid, u, params).deriv(ts)
    return float(np.max(np.abs(fd - dv) / (1.0 + np.abs(dv))))


def _adams_check(grid: RadialGrid, params: ModelParams, count: int, seed: int) -> list:
    alpha = adams_constant(params.beta)
    gamma = params.gamma
    vol = operator_cache(grid, params.beta).rule.vol
    with np.errstate(over="ignore"):  # an overflow is the failure the check reports
        body = np.exp(alpha * np.abs(_unit_profiles(grid, params.beta, seed, 900, count)) ** gamma)
    # the sup over the profiles before the first that overflows, each
    # integral by a product of its own (vol @ its row)
    finite = np.isfinite(body).all(axis=1)
    first = len(body) if finite.all() else int(np.argmin(finite))
    sup = max(0.0, float(rowwise(vol, body[:first], alone=True).max(initial=0.0)))
    return [_check("adams-critical-sampling", first == len(body) and math.isfinite(sup), sup, sup)]


def run_suite(
    params: ModelParams,
    grid: RadialGrid,
    directions: int = 200,
    profiles: int = 100,
    adams_profiles: int = 50,
    seed: int = 1,
) -> SuiteReport:
    """Run every verification check and aggregate the outcomes."""
    checks = []
    checks.extend(_grid_checks(grid))
    checks.extend(_profile_checks(grid, params.beta, profiles, seed))
    checks.extend(check_hypotheses(params).checks)
    checks.extend(_energy_checks(grid, params, seed))
    checks.extend(_projection_checks(grid, params, directions, seed))
    checks.extend(_adams_check(grid, params, adams_profiles, seed))
    return SuiteReport(checks=tuple(checks))
