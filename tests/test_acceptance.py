"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The default configuration is the
resolved one: cp fixed at 1.1 x the admissibility threshold computed
from the auxiliary level on the default grid (n=64, spectral-even,
beta=0.5, q=5, p=6, alpha0=1, delta=0.1, affine Kirchhoff g0=a=1,
8 seeded starts).
"""

import dataclasses
import math

import numpy as np
import pytest

import kirchhoff4 as k4
from kirchhoff4.energy import FiberMap
from kirchhoff4.model import KirchhoffSpec, NonlinearitySpec, check_hypotheses
from kirchhoff4.verify import _fibering_fd_gap, run_suite

from conftest import unit_profile


def _verdict(ok: bool, label: str, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


# ---------------------------------------------------------------------------


def test_criterion_01_discretization_oracles(spectral64):
    g = spectral64
    dome = k4.RadialFunction(g, (1 - g.nodes**2) ** 2)
    norm_gap = abs(k4.w_norm(dome, 0.0) - 4 * np.pi)
    lap_gap = float(np.abs(k4.laplacian4(dome).values - (-16 + 24 * g.nodes**2)).max())
    vol_gap = abs(k4.ball_integral(np.ones(g.n), g) - np.pi**2 / 2)
    ok = norm_gap <= 1e-8 and lap_gap <= 1e-10 and vol_gap <= 1e-12
    _verdict(
        ok,
        "criterion 1: discretization oracles",
        f"|norm-4pi|={norm_gap:.2e} lap={lap_gap:.2e} vol={vol_gap:.2e}",
    )


def test_criterion_02_derivative_consistency(spectral64, resolved_default):
    params, _, _ = resolved_default
    eps = 1e-5
    worst_wa = 0.0
    for k in range(50):
        u = unit_profile(spectral64, params.beta, [1201, k])
        phi = unit_profile(spectral64, params.beta, [1202, k])
        plus = k4.energy(u + phi.scaled(eps), params).total
        minus = k4.energy(u - phi.scaled(eps), params).total
        wa = k4.weak_action(u, phi, params)
        worst_wa = max(worst_wa, abs((plus - minus) / (2 * eps) - wa) / (1 + abs(wa)))
    u = unit_profile(spectral64, params.beta, 1203)
    t_u = k4.project(u, params).t_u
    worst_fib = _fibering_fd_gap(u, params, t_u)
    ok = worst_wa <= 1e-6 and worst_fib <= 1e-7
    _verdict(
        ok,
        "criterion 2: derivative consistency",
        f"weak-action fd={worst_wa:.2e} fibering fd={worst_fib:.2e}",
    )


def test_criterion_03_projection_oracles(spectral64, params_cp2):
    quartic = FiberMap(KirchhoffSpec.affine(1.0, 1.0), 1.0, ((6.0, 1.0),))
    gap_quartic = abs(k4.project_scale(quartic) - 1.2720196495141103)
    power = FiberMap(KirchhoffSpec.affine(2.0, 0.0), 3.0, ((6.0, 5.0),))
    gap_power = abs(k4.project_scale(power) - (2.0 * 3.0 / 5.0) ** 0.25)
    u = k4.random_clamped_profile(spectral64, np.random.default_rng(1301))
    base = k4.project(u, params_cp2).t_u
    gap_scale = max(
        abs(k4.project(u.scaled(lam), params_cp2).t_u * lam - base) for lam in (0.5, 2.0, 10.0)
    )
    ok = gap_quartic <= 1e-9 and gap_power <= 1e-10 and gap_scale <= 1e-9
    _verdict(
        ok,
        "criterion 3: projection oracles",
        f"quartic={gap_quartic:.2e} closed-form={gap_power:.2e} scaling={gap_scale:.2e}",
    )


def test_criterion_04_nehari_invariants(spectral64, resolved_default):
    params, _, _ = resolved_default
    g0 = params.kirchhoff.g0
    coer = 0.25 - 1.0 / params.q
    sign_ok = max_ok = small_ok = coer_ok = True
    for k in range(200):
        u = unit_profile(spectral64, params.beta, [1401, k])
        fiber = FiberMap.full(u, params)
        pt = k4.project(u, params)
        ts = np.geomspace(1e-6 * pt.t_u, 1e3 * pt.t_u, 500)
        signs = np.sign(fiber.deriv(ts, saturate=True))
        signs = signs[signs != 0]
        sign_ok &= int(np.sum(signs[1:] != signs[:-1])) == 1
        # past the overflow guard the batched map is -inf
        peak = k4.fibering(u, pt.t_u, params)
        max_ok &= not np.any(k4.fibering(u, np.linspace(0.0, 3.0 * pt.t_u, 200), params) > peak + 1e-9)
        beyond = pt.projected.scaled(1.5)
        if k4.nehari_residual(beyond, params) <= 0.0:
            small_ok &= k4.t_leq_one_check(beyond, params)
        s_level = k4.w_norm(pt.projected, params.beta) ** 2
        coer_ok &= pt.energy >= coer * g0 * s_level - 1e-9
    ok = sign_ok and max_ok and small_ok and coer_ok
    _verdict(
        ok,
        "criterion 4: Nehari invariants on 200 directions",
        f"sign={sign_ok} max={max_ok} scale<=1={small_ok} coercivity={coer_ok}",
    )


@pytest.fixture(scope="module")
def fd_solution(resolved_default, params_cp2, search_default, fd400):
    params, _, _ = resolved_default
    aux_fd = k4.aux_ground_state(fd400, params_cp2, search_default)
    return k4.ground_state(fd400, params, search_default, extra_starts=(aux_fd.w_p,))


def test_criterion_05_ground_state_quality(ground_default, fd_solution):
    gs, gf = ground_default, fd_solution
    grad_ok = gs.converged and gs.gradient_norm <= 1e-6 * (1 + gs.minimizer_norm)
    resid_ok = abs(gs.residual) <= 1e-10 * (1 + gs.minimizer_norm**2)
    positive = gs.m > 0.0
    agree = abs(gf.m - gs.m) / abs(gs.m)
    ok = grad_ok and resid_ok and positive and agree <= 1e-4
    _verdict(
        ok,
        "criterion 5: ground-state quality and cross-scheme agreement",
        f"grad={gs.gradient_norm:.2e} resid={gs.residual:.2e} m={gs.m:.6g} agreement={agree:.2e}",
    )


def test_criterion_06_bounds_chain(ground_default, resolved_default):
    params, aux, _ = resolved_default
    rep = k4.level_bounds(ground_default.m, aux, params)
    slack = 1e-8
    pnorm_ok = aux.p_norm_p <= params.p * params.q / (params.p - params.q) * aux.m_p + slack
    aux_cap_ok = ground_default.m <= rep.level_cap_from_aux + slack
    closed_ok = rep.cp_above_threshold and ground_default.m <= rep.level_cap_closed_form + slack
    ok = pnorm_ok and aux_cap_ok and closed_ok
    _verdict(
        ok,
        "criterion 6: auxiliary/bounds chain",
        f"pnorm<=cap={pnorm_ok} m<=aux-cap={aux_cap_ok} m<=closed-form={closed_ok}",
    )


class _WeakenedNonlinearity(NonlinearitySpec):
    def f(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * self.cp * np.abs(t) ** (self.p - 2.0) * t


def test_criterion_07_hypothesis_suite(resolved_default, params_cp2, spectral32):
    params, _, _ = resolved_default
    all_default = check_hypotheses(params, 200).all_passed and check_hypotheses(params_cp2, 200).all_passed
    broken = dataclasses.replace(
        params_cp2,
        nonlinearity=_WeakenedNonlinearity(cp=2.0, p=6.0, alpha0=1.0, gamma=4.0),
    )
    cp_detected = not check_hypotheses(broken, 150)["f-dominates-cp-power"].passed
    mutated = dataclasses.replace(spectral32, lap=-spectral32.lap)
    suite = run_suite(params_cp2, grid=mutated, directions=1, profiles=2, adams_profiles=1)
    lap_detected = suite["laplacian-oracle"].status == "fail"
    ok = all_default and cp_detected and lap_detected
    _verdict(
        ok,
        "criterion 7: hypothesis suite and mutation detection",
        f"default={all_default} weakened-cp={cp_detected} flipped-laplacian={lap_detected}",
    )


def test_criterion_08_radial_estimates(spectral64):
    beta = 0.5
    coeffs = np.array([k4.pointwise_bound_coeff(r, beta) for r in spectral64.nodes[:-1]])
    bound_ok = True
    ratio_ok = True
    worst_ratio = 1.0
    for k in range(100):
        u = k4.random_clamped_profile(spectral64, np.random.default_rng([1801, k]))
        nw = k4.w_norm(u, beta)
        bound_ok &= bool(np.all(np.abs(u.values[:-1]) <= coeffs * nw + 1e-7))
        ratio = k4.full_sobolev_norm(u, beta) / nw
        ratio_ok &= math.isfinite(ratio) and ratio >= 1.0
        worst_ratio = max(worst_ratio, ratio)
    ok = bound_ok and ratio_ok
    _verdict(
        ok,
        "criterion 8: radial pointwise estimate and norm equivalence",
        f"bound={bound_ok} max ratio={worst_ratio:.4f}",
    )


def test_criterion_09_adams_sampling(spectral64, resolved_default):
    params, _, _ = resolved_default
    alpha = k4.adams_constant(params.beta)
    gamma = k4.growth_exponent(params.beta)
    vol = 2 * np.pi**2 * spectral64.quad_weights
    sup = 0.0
    finite = True
    for k in range(50):
        u = unit_profile(spectral64, params.beta, [1901, k])
        val = float(vol @ np.exp(alpha * np.abs(u.values) ** gamma))
        finite &= math.isfinite(val)
        sup = max(sup, val)
    _verdict(
        finite,
        "criterion 9: exponential integrability sampling at the critical coefficient",
        f"sampled sup={sup:.6f} (diagnostic)",
    )


def test_criterion_10_determinism(spectral32, params_cp2):
    cfg = k4.SearchConfig(starts=2, max_iter=80, tol=1e-6, seed=17)
    a = k4.ground_state(spectral32, params_cp2, cfg)
    b = k4.ground_state(spectral32, params_cp2, cfg)
    same = (
        a.m == b.m
        and a.gradient_norm == b.gradient_norm
        and np.array_equal(a.minimizer.values, b.minimizer.values)
        and a.per_start_energies == b.per_start_energies
    )
    _verdict(same, "criterion 10: bitwise determinism of repeated runs", f"m={a.m:.9g}")
