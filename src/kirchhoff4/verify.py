"""Property-verification suite.

Every quantitative ingredient of the solver is checked against an
independent value: quadrature against closed-form moments, operators
against symbolic derivatives, weak derivatives against finite
differences, the projection against scalar oracles, the radial pointwise
estimate and norm equivalence on random profiles, and the exponential
integrability budget by direct sampling at the critical coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    FiberMap,
    _residual_load,
    energy,
    fibering,
    nehari_residual,
    operator_cache,
    sobolev_gradient,
    weak_action,
)
from .model import (
    KirchhoffSpec,
    ModelParams,
    RangeOverflowError,
    adams_constant,
    check_hypotheses,
)
from .nehari import project, project_scale, t_leq_one_check
from .radial import (
    RadialFunction,
    RadialGrid,
    build_grid,
    full_sobolev_norm,
    lebesgue_norm,
    laplacian4,
    pointwise_bound_coeff,
    random_clamped_profile,
    w_inner,
    w_norm,
)

__all__ = ["SuiteCheck", "SuiteReport", "run_suite"]


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


# ---------------------------------------------------------------------------
# check groups
# ---------------------------------------------------------------------------


def _grid_checks(grid: RadialGrid) -> list:
    checks = []
    r = grid.nodes
    n = grid.n

    # quadrature exactness on even monomials (the representation is even)
    degrees = [k for k in range(0, 2 * n, 2)]
    errs = [abs(float(grid.quad_weights @ r**k) - 1.0 / (k + 4.0)) for k in degrees]
    if grid.scheme == "spectral-even":
        worst = int(np.argmax(errs))
        checks.append(_bound("quadrature-even-monomials", max(errs), 1e-12, degrees[worst]))
    else:
        errs_low = [abs(float(grid.quad_weights @ r**k) - 1.0 / (k + 4.0)) for k in (0, 1, 2)]
        checks.append(_bound("quadrature-low-degree", max(errs_low), 1e-12))

    checks.append(_bound("d1-constant", float(np.abs(grid.d1 @ np.ones(n)).max()), 1e-11))

    dome = RadialFunction(grid, (1.0 - r**2) ** 2)
    lap_err = float(np.abs(laplacian4(dome).values - (-16.0 + 24.0 * r**2)).max())
    if grid.scheme == "spectral-even":
        checks.append(_bound("laplacian-oracle", lap_err, 1e-10))
    else:
        checks.append(_bound("laplacian-oracle-fd", lap_err, 1e-6))
    # rounding floor of applying the operator to profiles that do not
    # vanish at the boundary (where the large rows live): differences of
    # summation order scale with the absolute row mass
    op_mass = float(np.abs(grid.lap).sum(axis=1).max())
    const_tol = max(1e-10, 64.0 * np.finfo(float).eps * op_mass)
    checks.append(
        _bound(
            "laplacian-quadratic",
            float(np.abs(laplacian4(RadialFunction(grid, r**2)).values - 8.0).max()),
            const_tol,
        )
    )
    checks.append(
        _bound(
            "laplacian-constant",
            float(np.abs(laplacian4(RadialFunction(grid, np.ones(n))).values).max()),
            const_tol,
        )
    )

    wn_tol = 1e-8 if grid.scheme == "spectral-even" else 1e-3
    checks.append(_bound("wnorm-dome-unweighted", abs(w_norm(dome, 0.0) - 4.0 * np.pi), wn_tol))
    checks.append(
        _bound(
            "ball-volume",
            abs(float(np.sum(grid.quad_weights)) * 2.0 * np.pi**2 - np.pi**2 / 2.0),
            1e-12,
        )
    )
    checks.append(_bound("lebesgue-dome", abs(lebesgue_norm(dome, 2.0) - np.pi / np.sqrt(30.0)), 1e-8))
    full_sq = np.pi**2 / 30.0 + 2.0 * np.pi**2 * (4.0 / 15.0) + (4.0 * np.pi) ** 2
    checks.append(
        _bound("full-sobolev-dome-unweighted", abs(full_sobolev_norm(dome, 0.0) - math.sqrt(full_sq)), 1e-6)
    )
    return checks


def _profile_checks(grid: RadialGrid, beta: float, count: int, seed: int) -> list:
    checks = []
    worst_gap = -math.inf
    worst_ratio = 1.0
    ratio_ok = True
    for k in range(count):
        u = random_clamped_profile(grid, np.random.default_rng([seed, 100 + k]))
        nw = w_norm(u, beta)
        coeffs = np.array([pointwise_bound_coeff(r, beta) for r in grid.nodes[:-1]])
        gap = float(np.max(np.abs(u.values[:-1]) - coeffs * nw))
        worst_gap = max(worst_gap, gap)
        ratio = full_sobolev_norm(u, beta) / nw if nw > 0 else math.inf
        ratio_ok &= math.isfinite(ratio) and ratio >= 1.0 - 1e-12
        worst_ratio = max(worst_ratio, ratio)
    checks.append(_bound("pointwise-bound", worst_gap, 1e-7))
    checks.append(_check("norm-equivalence-ratio", ratio_ok, worst_ratio, worst_ratio))

    rng = np.random.default_rng([seed, 7])
    u = random_clamped_profile(grid, rng)
    v = random_clamped_profile(grid, rng)
    z = random_clamped_profile(grid, rng)
    a_coef, b_coef = 0.7, -1.3
    combo = RadialFunction(grid, a_coef * u.values + b_coef * v.values)
    lin_gap = abs(
        w_inner(combo, z, beta) - a_coef * w_inner(u, z, beta) - b_coef * w_inner(v, z, beta)
    )
    scale = 1.0 + abs(w_inner(u, z, beta)) + abs(w_inner(v, z, beta))
    checks.append(_bound("bilinearity", lin_gap / scale, 1e-10))
    return checks


def _energy_checks(grid: RadialGrid, params: ModelParams, seed: int) -> list:
    checks = []
    rng_ids = range(50)
    worst = 0.0
    for k in rng_ids:
        rng = np.random.default_rng([seed, 200 + k])
        u = random_clamped_profile(grid, rng)
        u = RadialFunction(grid, u.values / w_norm(u, params.beta))
        phi = random_clamped_profile(grid, rng)
        phi = RadialFunction(grid, phi.values / w_norm(phi, params.beta))
        # fourth-order central difference: the second-order one carries
        # truncation error up to ~1e-6 on some random directions
        eps = 1e-5
        fd = (
            -energy(u + phi.scaled(2.0 * eps), params).total
            + 8.0 * energy(u + phi.scaled(eps), params).total
            - 8.0 * energy(u - phi.scaled(eps), params).total
            + energy(u - phi.scaled(2.0 * eps), params).total
        ) / (12.0 * eps)
        wa = weak_action(u, phi, params)
        worst = max(worst, abs(fd - wa) / (1.0 + abs(wa)))
    checks.append(_bound("weak-action-fd", worst, 1e-6))

    rng = np.random.default_rng([seed, 300])
    u = random_clamped_profile(grid, rng)
    u = RadialFunction(grid, u.values / w_norm(u, params.beta))
    t_u = project(u, params).t_u
    checks.append(_bound("fibering-deriv-fd", _fibering_fd_gap(u, params, t_u), 1e-7))

    lam, t_probe = 1.7, 0.6 * t_u
    gap = abs(fibering(u.scaled(lam), t_probe, params) - fibering(u, lam * t_probe, params))
    checks.append(_bound("fibering-scaling", gap / (1.0 + abs(fibering(u, lam * t_probe, params))), 1e-12))

    # <J'(u), u> by quadrature against the moment form of d/dt J(t u) at t = 1
    residual = weak_action(u, u, params)
    gap = abs(residual - FiberMap.full(u, params).deriv(1.0))
    checks.append(_bound("weak-action-residual-identity", gap, 1e-12 * (1.0 + abs(residual))))

    v = sobolev_gradient(u, params)
    ops = operator_cache(grid, params.beta)
    load = _residual_load(ops, u.values, params)
    resid = ops.basis.T @ (ops.gram @ v.values) - ops.basis.T @ load
    # relative to the load magnitude: the admissible power coefficient can
    # push the absolute scale far beyond unity
    scale = 1.0 + float(np.abs(ops.basis.T @ np.abs(load)).max())
    checks.append(_bound("gradient-defining-equations", float(np.abs(resid).max()) / scale, 1e-9))
    return checks


def _projection_checks(grid: RadialGrid, params: ModelParams, count: int, seed: int) -> list:
    checks = []
    quartic = FiberMap(KirchhoffSpec.affine(1.0, 1.0), 1.0, ((6.0, 1.0),))
    root = project_scale(quartic)
    checks.append(_bound("projection-quartic-oracle", abs(root - math.sqrt((1 + math.sqrt(5.0)) / 2.0)), 1e-9))
    power = FiberMap(KirchhoffSpec.affine(2.0, 0.0), 3.0, ((6.0, 5.0),))
    checks.append(_bound("projection-power-oracle", abs(project_scale(power) - (2.0 * 3.0 / 5.0) ** 0.25), 1e-10))

    u = random_clamped_profile(grid, np.random.default_rng([seed, 400]))
    base = project(u, params)
    worst = 0.0
    for lam in (0.5, 2.0, 10.0):
        pt = project(u.scaled(lam), params)
        worst = max(worst, abs(pt.t_u * lam - base.t_u) / base.t_u)
    checks.append(_bound("projection-scaling-law", worst, 1e-9))

    sign_ok = True
    max_ok = True
    small_ok = True
    coer_ok = True
    resid_ok = True
    worst_margin = math.inf
    g0 = params.kirchhoff.g0
    coer = 0.25 - 1.0 / params.q
    for k in range(count):
        u = random_clamped_profile(grid, np.random.default_rng([seed, 500 + k]))
        u = RadialFunction(grid, u.values / w_norm(u, params.beta))
        fiber = FiberMap.full(u, params)
        pt = project(u, params)
        t_u = pt.t_u
        # unique sign change of the derivative over a wide log grid
        ts = np.geomspace(1e-6 * t_u, 1e3 * t_u, 500)
        signs = np.sign(fiber.deriv(ts, saturate=True))
        signs = signs[signs != 0.0]
        flips = int(np.sum(signs[1:] != signs[:-1]))
        sign_ok &= flips == 1
        # the fibering maximum is attained at the projection scale; past
        # the guard the map is -inf, far below its maximum
        peak = fibering(u, t_u, params)
        max_ok &= not np.any(fibering(u, np.linspace(0.0, 3.0 * t_u, 200), params) > peak + 1e-9)
        # scale-below-one criterion on a contracted direction
        big = pt.projected.scaled(2.0)
        if nehari_residual(big, params) <= 0.0:
            small_ok &= t_leq_one_check(big, params)
        s_level = w_norm(pt.projected, params.beta) ** 2
        # relative to the coercivity level: energies can be ~1e-36
        margin = pt.energy / (coer * g0 * s_level) - 1.0
        worst_margin = min(worst_margin, margin + 1e-9)
        coer_ok &= margin >= -1e-9
        resid_ok &= abs(pt.residual) <= max(
            1e-10 * (1.0 + s_level), _residual_floor(fiber, pt.t_u)
        )
    checks.append(_check("projection-unique-sign-change", sign_ok, 1.0 if sign_ok else -1.0))
    checks.append(_check("projection-fibering-max", max_ok, 1.0 if max_ok else -1.0))
    checks.append(_check("projection-scale-below-one", small_ok, 1.0 if small_ok else -1.0))
    checks.append(_check("projection-coercivity", coer_ok, worst_margin))
    checks.append(_check("projection-residual", resid_ok, 1.0 if resid_ok else -1.0))
    return checks


def _fibering_fd_gap(u: RadialFunction, params: ModelParams, t_u: float, samples: int = 20) -> float:
    """Worst relative gap between the fibering derivative and a fourth-order
    central difference, sampled away from the fibering maximum (there the
    derivative crosses zero and a difference quotient of the large map
    values is pure cancellation noise) and short of the exponential wall."""
    fiber = FiberMap.full(u, params)
    worst = 0.0
    for t in np.linspace(0.1 * t_u, 0.95 * t_u, samples):
        h = 1e-4 * t
        fd = (
            -fibering(u, t + 2 * h, params)
            + 8.0 * fibering(u, t + h, params)
            - 8.0 * fibering(u, t - h, params)
            + fibering(u, t - 2 * h, params)
        ) / (12.0 * h)
        dv = fiber.deriv(t)
        worst = max(worst, abs(fd - dv) / (1.0 + abs(dv)))
    return worst


def _residual_floor(fiber: FiberMap, t: float) -> float:
    """Granularity of the ray residual at the float scale t."""
    try:
        slope = t * fiber.deriv2(t) + fiber.deriv(t)
    except RangeOverflowError:
        return 0.0
    return 4.0 * float(np.finfo(float).eps) * abs(t) * (abs(slope) + 1.0)


def _adams_check(grid: RadialGrid, params: ModelParams, count: int, seed: int) -> list:
    alpha = adams_constant(params.beta)
    gamma = 2.0 / (1.0 - params.beta)
    vol = 2.0 * np.pi**2 * grid.quad_weights
    sup = 0.0
    finite = True
    for k in range(count):
        u = random_clamped_profile(grid, np.random.default_rng([seed, 900 + k]))
        u = RadialFunction(grid, u.values / w_norm(u, params.beta))
        with np.errstate(over="raise"):
            try:
                val = float(vol @ np.exp(alpha * np.abs(u.values) ** gamma))
            except FloatingPointError:
                finite = False
                break
        sup = max(sup, val)
    return [_check("adams-critical-sampling", finite and math.isfinite(sup), sup, sup)]


def run_suite(
    params: ModelParams,
    grid: RadialGrid | None = None,
    n: int = 64,
    scheme: str = "spectral-even",
    directions: int = 200,
    profiles: int = 100,
    adams_profiles: int = 50,
    seed: int = 1,
) -> SuiteReport:
    """Run every verification check and aggregate the outcomes."""
    if grid is None:
        grid = build_grid(n, scheme)
    checks = []
    checks.extend(_grid_checks(grid))
    checks.extend(_profile_checks(grid, params.beta, profiles, seed))
    hyp = check_hypotheses(params)
    for c in hyp.checks:
        checks.append(_check("hyp-" + c.name, c.passed, c.margin, c.witness))
    checks.extend(_energy_checks(grid, params, seed))
    checks.extend(_projection_checks(grid, params, directions, seed))
    checks.extend(_adams_check(grid, params, adams_profiles, seed))
    return SuiteReport(checks=tuple(checks))
