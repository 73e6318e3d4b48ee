"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The default configuration is the
resolved one: cp fixed at 1.1 x the admissibility threshold computed
from the auxiliary level on the default grid (n=64, spectral-even,
beta=0.5, q=5, p=6, alpha0=1, delta=0.1, affine Kirchhoff g0=a=1,
8 seeded starts).  Criteria that the verification suite covers assert
its named checks on the run `kirchhoff4 verify` makes at the defaults.
"""

import dataclasses

import numpy as np
import pytest

import kirchhoff4 as k4
from kirchhoff4.energy import FiberMap
from kirchhoff4.model import KirchhoffSpec
from kirchhoff4.nehari import _drive
from kirchhoff4.radial import weighted_rule
from kirchhoff4.verify import check_hypotheses, run_suite

from conftest import WeakenedNonlinearity, chained_ground_state, dome_gate_ratio, minimizer_gates


def _verdict(ok: bool, label: str, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


@pytest.fixture(scope="module")
def suite_default(spectral64, resolved_default):
    params, _, _ = resolved_default
    return run_suite(params, grid=spectral64)


def _suite_verdict(suite, names, label: str):
    checks = [suite[name] for name in names]
    detail = " ".join(f"{c.name}={c.status} (margin {c.margin:.2e})" for c in checks)
    _verdict(all(c.status == "pass" for c in checks), label, detail)


# ---------------------------------------------------------------------------


def test_criterion_01_discretization_oracles(spectral64):
    g = spectral64
    dome = (1 - g.nodes**2) ** 2
    norm_gap = abs(weighted_rule(g, 0.0).norm(dome) - 4 * np.pi)
    lap_ratio = float(dome_gate_ratio(g).max())  # against max(1e-10, 8 eps (|lap| dome)_i)
    vol_gap = abs(k4.ball_integral(g, np.ones(g.n)) - np.pi**2 / 2)
    ok = norm_gap <= 1e-8 and lap_ratio <= 1.0 and vol_gap <= 1e-12
    _verdict(
        ok,
        "criterion 1: discretization oracles",
        f"|norm-4pi|={norm_gap:.2e} lap/gate={lap_ratio:.2e} vol={vol_gap:.2e}",
    )


def test_criterion_02_derivative_consistency(suite_default):
    _suite_verdict(suite_default, ("weak-action-fd", "fibering-deriv-fd"), "criterion 2: derivative consistency")


def test_criterion_03_projection_oracles(spectral64, params_cp2):
    quartic = FiberMap(KirchhoffSpec.affine(1.0, 1.0), 1.0, ((6.0, 1.0),))
    gap_quartic = abs(_drive(quartic)[0] - 1.2720196495141103)
    power = FiberMap(KirchhoffSpec.affine(2.0, 0.0), 3.0, ((6.0, 5.0),))
    gap_power = abs(_drive(power)[0] - (2.0 * 3.0 / 5.0) ** 0.25)
    u = k4.random_clamped_profile(spectral64, np.random.default_rng(1301))
    lams = np.array([1.0, 0.5, 2.0, 10.0])
    t_u = k4.project(spectral64, lams[:, None] * u, params_cp2)[0]
    gap_scale = float(np.max(np.abs(t_u[1:] * lams[1:] - t_u[0])))
    ok = gap_quartic <= 1e-9 and gap_power <= 1e-10 and gap_scale <= 1e-9
    _verdict(
        ok,
        "criterion 3: projection oracles",
        f"quartic={gap_quartic:.2e} closed-form={gap_power:.2e} scaling={gap_scale:.2e}",
    )


def test_criterion_04_nehari_invariants(suite_default):
    names = ("unique-sign-change", "fibering-max", "scale-below-one", "coercivity")
    _suite_verdict(
        suite_default,
        tuple("projection-" + name for name in names),
        "criterion 4: Nehari invariants on 200 directions",
    )


@pytest.fixture(scope="module")
def fd_solution(resolved_default, params_cp2, search_default, fd400):
    params, _, _ = resolved_default
    aux_fd = k4.aux_ground_state(fd400, params_cp2, search_default)
    return k4.ground_state(fd400, params, search_default, aux_fd.directions)


def test_criterion_05_ground_state_quality(spectral64, ground_default, fd_solution, resolved_default):
    gs, gf = ground_default, fd_solution
    rel_grad, resid_limit = minimizer_gates(spectral64, gs, resolved_default[0])
    grad_ok = gs.converged and rel_grad <= 1e-6
    resid_ok = abs(gs.residual) <= resid_limit
    positive = gs.m > 0.0
    agree = abs(gf.m - gs.m) / abs(gs.m)
    ok = grad_ok and resid_ok and positive and agree <= 1e-4
    _verdict(
        ok,
        "criterion 5: ground-state quality and cross-scheme agreement",
        f"rel-grad={rel_grad:.2e} resid={gs.residual:.2e} (limit {resid_limit:.2e}) "
        f"m={gs.m:.6g} agreement={agree:.2e}",
    )


def test_criterion_06_bounds_chain(ground_default, resolved_default):
    params, aux, _ = resolved_default
    rep = k4.level_bounds(ground_default.m, aux, params)
    pnorm_ok = rep.aux_pnorm_ok
    aux_cap_ok = rep.level_below_aux_cap
    closed_ok = rep.cp_above_threshold and rep.level_below_closed_form
    ok = pnorm_ok and aux_cap_ok and closed_ok
    _verdict(
        ok,
        "criterion 6: auxiliary/bounds chain",
        f"pnorm<=cap={pnorm_ok} m<=aux-cap={aux_cap_ok} m<=closed-form={closed_ok}",
    )


def test_criterion_07_hypothesis_suite(resolved_default, params_cp2, spectral32):
    params, _, _ = resolved_default
    all_default = check_hypotheses(params, 200).overall and check_hypotheses(params_cp2, 200).overall
    broken = dataclasses.replace(
        params_cp2,
        nonlinearity=WeakenedNonlinearity(cp=2.0, p=6.0, alpha0=1.0, gamma=4.0),
    )
    cp_detected = check_hypotheses(broken, 150)["hyp-f-dominates-cp-power"].status == "fail"
    mutated = dataclasses.replace(spectral32, lap=-spectral32.lap)
    suite = run_suite(params_cp2, grid=mutated, directions=1, profiles=2, adams_profiles=1)
    lap_detected = suite["laplacian-oracle"].status == "fail"
    ok = all_default and cp_detected and lap_detected
    _verdict(
        ok,
        "criterion 7: hypothesis suite and mutation detection",
        f"default={all_default} weakened-cp={cp_detected} flipped-laplacian={lap_detected}",
    )


def test_criterion_08_radial_estimates(suite_default):
    _suite_verdict(
        suite_default,
        ("pointwise-bound", "norm-equivalence-ratio"),
        "criterion 8: radial pointwise estimate and norm equivalence",
    )


def test_criterion_09_adams_sampling(suite_default):
    _suite_verdict(
        suite_default,
        ("adams-critical-sampling",),
        "criterion 9: exponential integrability sampling at the critical coefficient",
    )


def test_criterion_10_determinism(spectral32, params_cp2):
    cfg = k4.SearchConfig(starts=2, max_iter=80, tol=1e-6, seed=17)
    a = chained_ground_state(spectral32, params_cp2, cfg)
    b = chained_ground_state(spectral32, params_cp2, cfg)
    same = (
        a.m == b.m
        and a.gradient_norm == b.gradient_norm
        and np.array_equal(a.minimizer, b.minimizer)
        and a.per_start_energies == b.per_start_energies
    )
    _verdict(same, "criterion 10: bitwise determinism of repeated runs", f"m={a.m:.9g}")
