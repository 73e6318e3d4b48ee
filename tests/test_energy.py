import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import kirchhoff4 as k4
from kirchhoff4.energy import FiberMap, operator_cache, _energies, _energy_terms, _inside_guard
from kirchhoff4.energy import _nehari_residuals, _nodal_force, _residual_load
from kirchhoff4.model import KirchhoffSpec, RangeOverflowError
from kirchhoff4.nehari import _drive
from kirchhoff4.radial import weighted_rule
from kirchhoff4.verify import _residual_limit

from conftest import project_one, sobolev_gradient, unit_profile, weak_action


def test_energy_zero(spectral64, params_cp2):
    zero = np.zeros(64)
    e = k4.energy(spectral64, zero, params_cp2)
    assert e.kirchhoff_term == e.power_term == e.f_term == e.total == 0.0


def test_energy_decomposition(spectral64, params_cp2):
    for k in range(10):
        u = unit_profile(spectral64, 0.5, [31, k])
        e = k4.energy(spectral64, u, params_cp2)
        assert abs(e.total - (e.kirchhoff_term - e.power_term - e.f_term)) < 1e-12 * (1 + abs(e.total))


def test_energy_pure(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 3)
    assert k4.energy(spectral64, u, params_cp2).total == k4.energy(spectral64, u, params_cp2).total


def test_energy_degenerate_closed_form(spectral64):
    # cp = 0, alpha0 = 0, g constant: every term has a quadrature closed form
    # J(u) = ||u||^2 / 2 - |u|_q^q / q - |u|_p^p / p
    params = k4.ModelParams.create(
        beta=0.5, q=5.0, p=6.0, cp=0.0, alpha0=0.0, delta=0.1,
        kirchhoff=KirchhoffSpec.affine(1.0, 0.0),
    )
    dome = (1 - spectral64.nodes**2) ** 2
    e = k4.energy(spectral64, dome, params)
    norm_sq = weighted_rule(spectral64, 0.5).norm(dome) ** 2
    qbit = k4.lebesgue_norm(spectral64, dome, 5.0) ** 5 / 5.0
    pbit = k4.lebesgue_norm(spectral64, dome, 6.0) ** 6 / 6.0
    assert abs(e.kirchhoff_term - norm_sq / 2) < 1e-10 * (1 + norm_sq)
    assert abs(e.power_term - qbit) < 1e-12 * (1 + qbit)
    assert abs(e.f_term - pbit) < 1e-12 * (1 + pbit)
    assert abs(e.total - (norm_sq / 2 - qbit - pbit)) < 1e-12 * (1 + abs(e.total))
    # fully unweighted closed form for the norm piece: beta = 0 mode
    params0 = k4.ModelParams(
        beta=0.0, q=5.0, p=6.0, delta=0.1,
        kirchhoff=KirchhoffSpec.affine(1.0, 0.0),
        nonlinearity=params.nonlinearity,
    )
    e0 = k4.energy(spectral64, dome, params0)
    assert abs(e0.kirchhoff_term - 0.5 * (4 * np.pi) ** 2) < 1e-8


def _load_action(grid, u, phi, params):
    """<J'(u), phi> as the solver forms it: its nodal load (_residual_load) dotted with phi."""
    return _residual_load(operator_cache(grid, params.beta), u, params, _nodal_force(u, params)) @ phi


def test_weak_action_zero(spectral64, params_cp2):
    zero = np.zeros(64)
    phi = unit_profile(spectral64, 0.5, 4)
    assert _load_action(spectral64, zero, phi, params_cp2) == 0.0
    assert weak_action(spectral64, zero, phi, params_cp2) == 0.0


def test_weak_action_linear_in_phi(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 5)
    a = unit_profile(spectral64, 0.5, 6)
    b = unit_profile(spectral64, 0.5, 7)
    combo = 2.0 * a - 3.0 * b
    for action in (_load_action, weak_action):
        left = action(spectral64, u, combo, params_cp2)
        right = 2.0 * action(spectral64, u, a, params_cp2) - 3.0 * action(spectral64, u, b, params_cp2)
        assert abs(left - right) < 1e-10 * (1 + abs(left)), action


def test_weak_action_finite_difference(spectral64, params_cp2):
    eps = 1e-5
    for k in range(50):
        u = unit_profile(spectral64, 0.5, [41, k])
        phi = unit_profile(spectral64, 0.5, [42, k])
        plus = k4.energy(spectral64, u + eps * phi, params_cp2).total
        minus = k4.energy(spectral64, u - eps * phi, params_cp2).total
        for wa in (weak_action(spectral64, u, phi, params_cp2), _load_action(spectral64, u, phi, params_cp2)):
            assert abs((plus - minus) / (2 * eps) - wa) <= 1e-6 * (1 + abs(wa)), k


def test_weak_action_equals_residual(spectral64, params_cp2):
    # the single-profile path and the stacked kernel on a stack of one
    u = unit_profile(spectral64, 0.5, 8)
    ops = operator_cache(spectral64, 0.5)
    assert weak_action(spectral64, u, u, params_cp2) == _nehari_residuals(ops, u[None], params_cp2)[0]


def test_stacked_residuals_match_single(spectral64, params_cp2):
    # one Laplacian product per profile instead of three: the same residual
    # to rounding, and -inf for a profile past the overflow guard
    ops = operator_cache(spectral64, 0.5)
    rows = [(0.5 + k) * unit_profile(spectral64, 0.5, [43, k]) for k in range(6)]
    stack = np.array(rows)
    out = _nehari_residuals(ops, stack, params_cp2)
    for u, res in zip(rows, out):
        single = weak_action(spectral64, u, u, params_cp2)
        assert abs(res - single) <= 1e-13 * abs(single)
    past = 2.0 * params_cp2.nonlinearity.guard_scale() / np.abs(stack[0]).max()
    out = _nehari_residuals(ops, np.array([stack[1], past * stack[0]]), params_cp2)
    assert out[1] == -np.inf and out[0] == _nehari_residuals(ops, stack[1:2], params_cp2)[0]


def test_sobolev_gradient_zero(spectral64, params_cp2):
    v = sobolev_gradient(operator_cache(spectral64, 0.5), np.zeros(64), params_cp2)
    assert np.abs(v).max() < 1e-14


@pytest.mark.parametrize(
    "n, scheme",
    [(32, "spectral-even"), (64, "spectral-even"), (128, "spectral-even"), (400, "uniform-fd")],
    ids=["spectral32", "spectral64", "spectral128", "fd400"],
)
def test_sobolev_gradient_defining_equations(n, scheme, params_cp2):
    # rule.form(v, phi_j) = <load, phi_j> for every basis column phi_j, on
    # every grid, the worst-conditioned FD400 operator (cond ~1.7e9)
    # included.  The left side is the weighted product of Laplacians, as
    # rule.form defines it: through the assembled Gram matrix its rounding
    # alone reaches ~1e-8 at n=128, whatever solves the system.
    grid = k4.build_grid(n, scheme)
    ops = operator_cache(grid, 0.5)
    u = unit_profile(grid, 0.5, 9)
    v = sobolev_gradient(ops, u, params_cp2)
    lhs = (grid.lap @ ops.basis).T @ (ops.rule.wvol * (grid.lap @ v))
    resid = lhs - ops.basis.T @ _residual_load(ops, u, params_cp2, _nodal_force(u, params_cp2))
    assert np.abs(resid).max() < 1e-9


def test_sobolev_gradient_condition_estimate(spectral64):
    ops = operator_cache(spectral64, 0.5)
    assert math.isfinite(ops.cond)
    assert ops.cond < 1e14


def test_weighted_rule_has_one_home(spectral64, params_cp2, monkeypatch):
    # doubling the weighted volumes of the one cached rule moves every
    # weighted quantity built on it: no site keeps a copy of its own
    beta, g = params_cp2.beta, params_cp2.kirchhoff
    u = unit_profile(spectral64, beta, 12)
    ops = operator_cache(spectral64, beta)
    s = float(ops.rule.form(u))
    force_u = _nodal_force(u, params_cp2) * u
    action = weak_action(spectral64, u, u, params_cp2)
    gram_sq = u @ ops.gram @ u
    bound = _residual_limit(ops, u, params_cp2) / (4.0 * np.finfo(float).eps)
    head = bound - np.abs(force_u) @ ops.rule.vol  # 2 g(S) times a weighted product
    rule = weighted_rule(spectral64, beta)
    monkeypatch.setitem(vars(rule), "wvol", 2.0 * rule.wvol)
    operator_cache.cache_clear()  # its Gram matrix is built from the rule
    try:
        ops = operator_cache(spectral64, beta)
        assert weighted_rule(spectral64, beta).norm(u) ** 2 == pytest.approx(2.0 * s, rel=1e-15)
        assert k4.energy(spectral64, u, params_cp2).kirchhoff_term == 0.5 * g.G(2.0 * s)
        assert u @ ops.gram @ u == pytest.approx(2.0 * gram_sq, rel=1e-14)
        moved = weak_action(spectral64, u, u, params_cp2) - action
        assert moved == pytest.approx(g.g(2.0 * s) * 2.0 * s - g.g(s) * s, rel=1e-12)
        moved = _residual_limit(ops, u, params_cp2) / (4.0 * np.finfo(float).eps) - bound
        assert moved == pytest.approx((2.0 * g.g(2.0 * s) / g.g(s) - 1.0) * head, rel=1e-12)
    finally:
        operator_cache.cache_clear()


def test_fibering_endpoints(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 10)
    assert k4.fibering(spectral64, u, 0.0, params_cp2) == 0.0
    assert k4.fibering(spectral64, u, 1.0, params_cp2) == k4.energy(spectral64, u, params_cp2).total
    with pytest.raises(ValueError):
        k4.fibering(spectral64, u, -0.3, params_cp2)


def test_fibering_deriv_finite_difference(spectral64, params_cp2):
    from kirchhoff4.verify import _fibering_fd_gap

    u = unit_profile(spectral64, 0.5, 11)
    assert _fibering_fd_gap(spectral64, u, params_cp2, project_one(spectral64, u, params_cp2)[0]) <= 1e-7


def _fiber_scales(fiber, params):
    """Moderate scales, and scales within 5% of the overflow guard, where
    the exponential argument is O(100) and the tail dominates."""
    limit = params.nonlinearity.guard_scale() / fiber.vmax[0]
    return (0.4, 1.0, 2.3) + tuple(limit * np.array([0.95, 0.97, 0.99]))


def test_fibering_deriv_chain_rule(spectral64, params_cp2, resolved_default):
    u = unit_profile(spectral64, 0.5, 12)
    for params in (params_cp2, resolved_default[0]):
        fiber = k4.FiberMap.full(spectral64, u, params)
        for t in _fiber_scales(fiber, params):
            lhs = fiber.deriv(t)
            rhs = weak_action(spectral64, t * u, u, params)
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs)), (params.cp, t)


def test_fibering_deriv2_finite_difference(spectral64, params_cp2, resolved_default):
    # derivs gives deriv bit for bit and the second derivative beside it
    u = unit_profile(spectral64, 0.5, 12)
    for params in (params_cp2, resolved_default[0]):
        fiber = k4.FiberMap.full(spectral64, u, params)
        for t in _fiber_scales(fiber, params):
            h = 1e-6 * t
            fd = (
                -fiber.deriv(t + 2 * h) + 8.0 * fiber.deriv(t + h) - 8.0 * fiber.deriv(t - h) + fiber.deriv(t - 2 * h)
            ) / (12.0 * h)
            d, d2 = fiber.derivs(t)
            assert isinstance(d2, float) and d == fiber.deriv(t), (params.cp, t)
            assert abs(fd - d2) < 1e-8 * (1 + abs(d2)), (params.cp, t)


def test_fibering_scaling_identity(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 13)
    lam, t = 2.7, 0.9
    a = k4.fibering(spectral64, lam * u, t, params_cp2)
    b = k4.fibering(spectral64, u, lam * t, params_cp2)
    assert abs(a - b) < 1e-12 * (1 + abs(b))


def test_fibering_overflow_propagates(spectral64, params_cp2):
    # past the guard the value is -inf; the breakdown of the same profile raises
    u = unit_profile(spectral64, 0.5, 14)
    assert k4.fibering(spectral64, u, 1e6, params_cp2) == -np.inf
    with pytest.raises(RangeOverflowError):
        k4.energy(spectral64, 1e6 * u, params_cp2)


# The overflow convention: past the exponential guard every value kernel
# (J, <J'(u), u>, d/dt J(tu), d^2/dt^2 J(tu)) gives -inf, where the reaction
# tail certainly dominates.  Each takes the profile u on the grid at the
# scales ts and gives one value per scale, or (derivs) a pair of such arrays.
_VALUE_KERNELS = {
    "fibering": lambda grid, u, ts, params: np.array([k4.fibering(grid, u, t, params) for t in ts]),
    "fibering-array": lambda grid, u, ts, params: k4.fibering(grid, u, ts, params),
    "_energies": lambda grid, u, ts, params: _energies(operator_cache(grid, params.beta), np.outer(ts, u), params),
    "_nehari_residuals": lambda grid, u, ts, params: _nehari_residuals(
        operator_cache(grid, params.beta), np.outer(ts, u), params
    ),
    "_energies-row": lambda grid, u, ts, params: np.array(
        [_energies(operator_cache(grid, params.beta), t * u[None], params)[0] for t in ts]
    ),
    "FiberMap.deriv": lambda grid, u, ts, params: FiberMap.full(grid, u, params).deriv(ts),
    "FiberMap.derivs": lambda grid, u, ts, params: FiberMap.full(grid, u, params).derivs(ts),
}


@pytest.mark.parametrize("kernel", sorted(_VALUE_KERNELS))
def test_value_kernels_give_minus_inf_past_the_guard(kernel, spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 14)
    limit = params_cp2.nonlinearity.guard_scale() / np.abs(u).max()
    for got in np.atleast_2d(_VALUE_KERNELS[kernel](spectral64, u, np.array([0.5, 1.1, 1e6]) * limit, params_cp2)):
        assert np.isfinite(got[0]) and np.all(got[1:] == -np.inf), got


# A breakdown, a weak action along another direction, a load or a gradient
# raises past the guard.
_RAISING_KERNELS = {
    "energy": lambda grid, w, phi, params: k4.energy(grid, w, params),
    "weak_action": lambda grid, w, phi, params: _load_action(grid, w, phi, params),
    "sobolev_gradient": lambda grid, w, phi, params: sobolev_gradient(operator_cache(grid, params.beta), w, params),
    "_residual_load": lambda grid, w, phi, params: _residual_load(
        operator_cache(grid, params.beta), w, params, _nodal_force(w, params)
    ),
}


@pytest.mark.parametrize("kernel", sorted(_RAISING_KERNELS))
def test_breakdowns_and_gradients_raise_past_the_guard(kernel, spectral64, params_cp2):
    u, phi = unit_profile(spectral64, 0.5, 14), unit_profile(spectral64, 0.5, 15)
    limit = params_cp2.nonlinearity.guard_scale() / np.abs(u).max()
    _RAISING_KERNELS[kernel](spectral64, (0.5 * limit) * u, phi, params_cp2)
    with pytest.raises(RangeOverflowError):
        _RAISING_KERNELS[kernel](spectral64, (1.1 * limit) * u, phi, params_cp2)


def test_residual_sign_window(spectral64, params_cp2):
    guard = params_cp2.nonlinearity.guard_scale()
    ops = operator_cache(spectral64, 0.5)
    for k in range(10):
        u = unit_profile(spectral64, 0.5, [51, k])
        t_u = project_one(spectral64, u, params_cp2)[0]
        big = min(2.5 * t_u, 0.9 * guard / np.abs(u).max())
        assert big > t_u
        small_res, big_res = _nehari_residuals(ops, np.outer([0.05 * t_u, big], u), params_cp2)
        assert small_res > 0.0
        assert big_res < 0.0


def test_fiber_map_saturated_signs(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 15)
    fiber = FiberMap.full(spectral64, u, params_cp2)
    t_u = project_one(spectral64, u, params_cp2)[0]
    assert fiber.deriv(1e6 * t_u) == -np.inf  # far past the guard


def test_fiber_map_deriv_array_matches_scalar(spectral64, params_cp2, resolved_default):
    # beta = 0.99 (gamma = 200): the rates of small nodes underflow, and
    # far past the guard (t max|u|)^gamma overflows; there the sweep is -inf
    steep = k4.ModelParams.create(0.99, 5.0, 6.0, 2.0, 1.0, 0.1, params_cp2.kirchhoff)
    for params in (params_cp2, resolved_default[0], steep):
        u = unit_profile(spectral64, 0.5, 17)
        fiber = FiberMap.full(spectral64, u, params)
        t_u = _drive(fiber)[0]
        ts = np.geomspace(1e-6 * t_u, 1e3 * t_u, 500)
        batch = fiber.deriv(ts)
        single = np.array([fiber.deriv(t) for t in ts])
        assert isinstance(fiber.deriv(ts[0]), float)
        assert np.array_equal(np.sign(batch), np.sign(single))
        finite = np.isfinite(single)
        assert np.array_equal(batch[~finite], single[~finite])
        assert np.all(np.abs(batch[finite] - single[finite]) <= 1e-12 * np.abs(single[finite]))
    fiber = FiberMap.full(spectral64, u, params_cp2)
    limit = params_cp2.nonlinearity.guard_scale() / np.abs(u).max()
    assert np.all(np.isfinite(fiber.deriv(np.array([0.5, 0.9]) * limit)))
    past = fiber.deriv(np.array([0.5, 1.1]) * limit)  # past the guard the tail dominates
    assert np.isfinite(past[0]) and past[1] == -np.inf
    # a stacked map of 9 or 200 directions built alone (each row's moments
    # by products of its own, as fibering builds it): each row's value,
    # deriv and d^2, on a sweep t_u unit (k, m) and at one scale per row
    # (k,), equal those of the direction's own map bit for bit, -inf past
    # the guard
    kernels = (
        ("value", FiberMap.value),
        ("deriv", FiberMap.deriv),
        ("d2", lambda f, t, unit=None: f.derivs(t, unit)[1]),
    )
    for params in (params_cp2, resolved_default[0], steep):
        values = np.array([unit_profile(spectral64, 0.5, [17, k]) for k in range(200)])
        alone = [FiberMap.full(spectral64, v, params) for v in values]
        t_u = np.array([_drive(f)[0] for f in alone])
        unit = np.array([1e-3, 0.5, 2.0, 10.0, 1e3])  # past the guard from 10 t_u at cp = 2
        for k in (9, 200):
            stack = FiberMap.full(spectral64, values[:k], params, alone=True)
            for name, kernel in kernels:
                got = kernel(stack, t_u[:k], unit)
                want = np.array([kernel(f, t_u[i : i + 1], unit)[0] for i, f in enumerate(alone[:k])])
                assert np.array_equal(got, want) and np.any(got == -np.inf) == (params is not resolved_default[0])
                want = np.array([kernel(f, 0.5 * t) for f, t in zip(alone, t_u[:k])])
                assert np.array_equal(kernel(stack, 0.5 * t_u[:k]), want), (name, k)
                if name == "value":
                    assert np.array_equal(k4.fibering(spectral64, values[:k], 0.5 * t_u[:k], params), want), k
                assert np.array_equal(kernel(stack.take([k - 1]), t_u[k - 1 : k], unit)[0], got[-1]), (name, k)
    # a direction with small values: t^gamma alone would overflow inside the guard
    fiber = FiberMap.full(spectral64, 0.1 * u, steep)
    limit = steep.nonlinearity.guard_scale() / fiber.vmax[0]
    assert np.all(np.isfinite(fiber.derivs(0.9 * limit)))


def test_fiber_map_tail_matches_exp_reference(spectral64, params_cp2, resolved_default, ground_default):
    # the tail of derivs, pure power wherever every exp rounds to 1, agrees to
    # rounding with the node-by-node exp sum on sweeps from 1e-6 t_u to 1e3 t_u:
    # all pure power at the resolved cp (the default minimizer and a random
    # direction), and crossing from pure power to the full tail and past the
    # guard (-inf) at cp = 2.  A map with no moments and g = 1e-300 holds the
    # tail alone: d = -tail and d^2 = -tail' to rounding
    params = resolved_default[0]
    for u, prm in (
        (ground_default.minimizer, params),
        (unit_profile(spectral64, 0.5, 23), params),
        (unit_profile(spectral64, 0.5, 23), params_cp2),
    ):
        nl, vol = prm.nonlinearity, weighted_rule(spectral64, prm.beta).vol
        t_u = _drive(FiberMap.full(spectral64, u, prm))[0]
        ts = np.geomspace(1e-6 * t_u, 1e3 * t_u, 400)
        tail = FiberMap(KirchhoffSpec.affine(1e-300, 0.0), 1.0, (), nl, u[None], vol)
        d, d2 = tail.derivs(ts)
        av = np.abs(u)
        with np.errstate(over="ignore", invalid="ignore"):
            arg = nl.alpha0 * (ts[:, None] * av) ** nl.gamma
            body = np.exp(arg) * (vol * av**nl.p)
            want = ts ** (nl.p - 1.0) * body.sum(axis=1)
            want2 = ts ** (nl.p - 2.0) * (body * (nl.p - 1.0 + nl.gamma * arg)).sum(axis=1)
        inside = arg.max(axis=1) <= 700.0
        assert np.all(d[~inside] == -np.inf) and np.all(d2[~inside] == -np.inf)
        for got, ref in ((-d, want), (-d2, want2)):
            assert np.all(np.abs(got[inside] / ref[inside] - 1.0) <= 1e-14), prm.cp
        exact = ts * av.max() <= nl._exact_peak
        assert exact.all() if prm is params else 0 < exact.sum() < inside.sum() < len(ts)


def test_derivs_first_output_is_deriv(spectral64, params_cp2, resolved_default):
    # derivs shares one pass between both outputs; its first is deriv bit for
    # bit, on stacks of 1, 9 and 200 rows, at one scale per row and on sweeps
    # t_u unit that reach past the guard (-inf from 10 t_u at cp = 2)
    steep = k4.ModelParams.create(0.99, 5.0, 6.0, 2.0, 1.0, 0.1, params_cp2.kirchhoff)
    values = np.array([unit_profile(spectral64, 0.5, [19, k]) for k in range(200)])
    for params in (params_cp2, resolved_default[0], steep):
        for k in (1, 9, 200):
            fiber = FiberMap.full(spectral64, values[:k], params)
            t_u = np.array([_drive(fiber.take([i]))[0] for i in range(k)])
            unit = np.array([1e-3, 0.5, 1.0, 2.0, 10.0, 1e3])
            for ts, grid_unit in ((t_u, unit), (t_u, None), (10.0 * t_u, None)):
                d, d2 = fiber.derivs(ts, grid_unit)
                assert d.shape == d2.shape == ts.shape + np.shape(grid_unit)
                assert np.array_equal(d, fiber.deriv(ts, grid_unit)), (params.cp, k)
                assert np.array_equal(d == -np.inf, d2 == -np.inf), (params.cp, k)
            if params is params_cp2:
                assert np.all(fiber.derivs(t_u, unit)[0][:, -1] == -np.inf)
        one = FiberMap.full(spectral64, values[0], params)
        assert one.derivs(t_u[0])[0] == one.deriv(t_u[0])


def _value_terms(fibers, t, unit):
    """The Kirchhoff, power and reaction terms of the value of a map of
    FiberMap.full, whose moments are the q-power and the p-power of F, then
    the exponential tail of F."""
    head, (power, *reaction) = fibers._terms(t, unit)
    return head, power, sum(reaction)


def _reaction_errors(vol, u, ts, nl, *reactions):
    """The relative errors of reactions at the scales ts against sum_i vol_i
    F(t u_i) in mpmath from the floats given, F(T) = cp T^p / p + (T^p / p)
    1F1(p/gamma; p/gamma + 1; alpha0 T^gamma) (DLMF 13.2), taken in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    errors = np.empty((len(reactions), len(ts)))
    with mpmath.workdps(25):
        p, a = mpmath.mpf(nl.p), mpmath.mpf(nl.p) / mpmath.mpf(nl.gamma)
        for j, t in enumerate(ts):
            exact = mpmath.mpf(0)
            for v, x in zip(vol, u):
                big_t = abs(mpmath.mpf(t) * mpmath.mpf(x))
                power = big_t**p / p
                exact += mpmath.mpf(v) * (nl.cp * power + power * mpmath.hyp1f1(a, a + 1, nl.alpha0 * big_t**nl.gamma))
            for i, reaction in enumerate(reactions):
                errors[i, j] = float(abs(mpmath.mpf(reaction[j]) - exact) / exact)
    return errors


def test_fibering_scale_form_matches_scaled_stack(spectral64, params_cp2, resolved_default):
    # fibering takes ||u||^2, the q- and p-moments and the tail's weights
    # once (FiberMap.value); the stack of scaled profiles forms lap(t u),
    # |t u|^q and F(t u) per scale.  The power terms agree to 1e-14, and so
    # do the reactions where X = alpha0 (t max|u|)^gamma, the largest
    # exponential argument, is at most 1.  Above it exp amplifies the
    # relative rounding of an argument by X in either kernel (each reaches
    # about 2 eps X, 1061 eps at X = 689), so there both are held against
    # the reaction in mpmath: the value's error is within F's worst one.
    # The Kirchhoff term differs by the rounding of the form, ||t u||^2
    # against t^2 ||u||^2 (up to 1.4e-13 relative on 30 directions at beta =
    # 0.9), so the value is compared against the magnitude of its terms
    log_type = replace(params_cp2, kirchhoff=KirchhoffSpec.log_type())
    configs = (resolved_default[0], params_cp2, replace(params_cp2, beta=0.9), log_type)
    for params in configs:
        u = unit_profile(spectral64, params.beta, 19)
        ops = operator_cache(spectral64, params.beta)
        ts = np.linspace(0.0, 3.0 * project_one(spectral64, u, params)[0], 200)
        stack = np.outer(ts, u)
        value = k4.fibering(spectral64, u, ts, params)
        reference = _energies(ops, stack, params)
        with np.errstate(over="ignore"):
            inside = _inside_guard(params.nonlinearity, np.abs(stack).max(axis=1))
        assert np.array_equal(value == -np.inf, ~inside) and np.array_equal(reference == -np.inf, ~inside)
        if params is not resolved_default[0]:
            assert 0 < np.count_nonzero(~inside) < len(ts)  # partly past the guard: -inf exactly there
        terms = _energy_terms(ops, stack[inside], params)
        scaled = [x[0] for x in _value_terms(FiberMap.full(spectral64, u, params), np.ones(1), ts[inside])]
        assert np.all(np.abs(terms[1] - scaled[1]) <= 1e-14 * terms[1]), params
        large = params.nonlinearity._exp_arg(ts[inside] * np.abs(u).max()) > 1.0
        assert large.any() == (params is not resolved_default[0])
        assert np.all(np.abs(terms[2] - scaled[2])[~large] <= 1e-14 * terms[2][~large]), params
        if large.any():
            args = ops.rule.vol, u, ts[inside][large], params.nonlinearity
            err_f, err_value = _reaction_errors(*args, terms[2][large], scaled[2][large])
            assert err_value.max() <= err_f.max(), params
        magnitude = sum(np.abs(x) for x in terms)
        assert np.all(np.abs(value[inside] - reference[inside]) <= 1e-12 * magnitude), params


def test_fibering_stack_matches_each_row(spectral64, params_cp2, resolved_default):
    # a stack (k, n) swept over t_u unit gives each row its sweep alone, bit
    # for bit, with -inf past the guard at the same places.  Rows 0 and 3
    # stay within the exact pure-power tail, so at cp = 2 the stack mixes
    # exact and general rows; at the automatic cp every row is exact
    log_type = replace(params_cp2, kirchhoff=KirchhoffSpec.log_type())
    configs = (resolved_default[0], params_cp2, log_type, replace(params_cp2, beta=0.9))
    unit = np.linspace(0.0, 1.0, 200)
    for params in configs:
        nl = params.nonlinearity
        dirs = np.array([unit_profile(spectral64, params.beta, [19, k]) for k in range(6)])
        vmax = np.abs(dirs).max(axis=1)
        t_u = k4.project(spectral64, dirs, params)[0]
        top = 3.0 * t_u
        top[::3] = 0.5 * nl._exact_peak / vmax[::3]
        exact = top * vmax <= nl._exact_peak
        auto = params is resolved_default[0]
        assert exact.all() if auto else exact.tolist() == [True, False, False, True, False, False]
        # the whole stack, partly past the guard off the automatic cp; and,
        # with rows 2 and 5 short of it, a mixed stack wholly inside
        inside = np.array([0, 2, 3, 5])
        top[2::3] = 0.9 * t_u[2::3]
        for rows, past in ((np.arange(6), not auto), (inside, False)):
            value = k4.fibering(spectral64, dirs[rows], top[rows], params, unit=unit)
            assert value.shape == (len(rows), 200) and np.any(value == -np.inf) == past, params
            for k, row in zip(rows, value):
                alone = k4.fibering(spectral64, dirs[k], top[k], params, unit=unit)
                assert np.array_equal(row, alone), (params, k)
        # a stack at one scale per row is its sweep on the grid [1]
        at_top = k4.fibering(spectral64, dirs, top, params)
        assert np.array_equal(at_top, k4.fibering(spectral64, dirs, top, params, unit=np.ones(1))[:, 0]), params
        # so do the terms of the mixed stack, where the Kirchhoff term hides
        # the reaction's rounding in the value
        ops = operator_cache(spectral64, params.beta)
        terms = _value_terms(FiberMap.full(spectral64, dirs[inside], params), top[inside], unit)
        for k, *row in zip(inside, *terms):
            for a, b in zip(row, _value_terms(FiberMap.full(spectral64, dirs[k], params), top[k : k + 1], unit)):
                assert np.array_equal(a, b[0]), (params, k)
        # the exact tail from the p-moment and the weight sum against F(t u) at every node
        exact_rows = np.flatnonzero(exact)
        moment = _value_terms(FiberMap.full(spectral64, dirs[exact_rows], params), top[exact_rows], unit)[2]
        body = nl.F((top[exact_rows, None] * unit)[..., None] * dirs[exact_rows][:, None, :]) @ ops.rule.vol
        assert np.all(np.abs(moment - body) <= 1e-14 * np.abs(body)), params
    # a stack takes one scale per row: the scales (k, m) of each row formed are no sweep
    with pytest.raises(ValueError, match="scales"):
        k4.fibering(spectral64, dirs, top[:, None] * unit, params)


def test_fibering_stack_masks_rows_past_the_guard(spectral64, params_cp2):
    # scales past the guard are evaluated as 0 in the reaction and masked to
    # -inf in one call: a (4, 50) sweep at cp = 2 with row 1 wholly past the
    # guard and row 2 past it from its 13th scale on, rows 0 and 3 inside
    # it (row 3 within the exact pure-power tail).  Each row is its own call
    # bit for bit, and no overflow or invalid operation warns
    nl = params_cp2.nonlinearity
    dirs = np.array([unit_profile(spectral64, 0.5, [23, k]) for k in range(4)])
    vmax = np.abs(dirs).max(axis=1)
    limit = nl.guard_scale() / vmax
    unit = np.linspace(0.1, 1.0, 50)
    top = np.array([0.9 * limit[0], 30.0 * limit[1], 3.0 * limit[2], 0.5 * nl._exact_peak / vmax[3]])
    with np.errstate(over="ignore"):
        past = ~_inside_guard(nl, (top[:, None] * unit) * vmax[:, None])
    assert np.count_nonzero(past, axis=1).tolist() == [0, 50, 37, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = k4.fibering(spectral64, dirs, top, params_cp2, unit=unit)
        alone = [k4.fibering(spectral64, d, t, params_cp2, unit=unit) for d, t in zip(dirs, top)]
    assert np.array_equal(value == -np.inf, past) and np.all(np.isfinite(value[~past]))
    for k in range(4):
        assert np.array_equal(value[k], alone[k]), k


def _sign_counts(d):
    """Sign changes of each row, zeros skipped."""
    counts = []
    for row in np.sign(d):
        row = row[row != 0.0]
        counts.append(int(np.count_nonzero(row[1:] != row[:-1])))
    return counts


@pytest.mark.parametrize("case", ["auto", "auto-beta0.9", "cp2-tiny-alpha0"])
def test_shared_grid_sweeps_match_the_formed_scales(spectral64, resolved_default, params_cp2, case):
    # verify's sign sweep (FiberMap.deriv) and maximum sweep (FiberMap.value) take
    # one grid of relative scales for all rows.  Within the exact tail each
    # power of a scale is t_u^e unit^e: the sign changes equal those of each
    # row's own map at the scales t_u unit formed, and each value lies within
    # 8 eps of the magnitude of its terms from the formed one (at most 3.93
    # eps measured).
    # With alpha0 = 1e-300 at cp = 2 the whole sweep stays exact and the
    # tail is a third of the p-power term
    params = {
        "auto": resolved_default[0],
        "auto-beta0.9": replace(resolved_default[0], beta=0.9),
        "cp2-tiny-alpha0": replace(params_cp2, nonlinearity=replace(params_cp2.nonlinearity, alpha0=1e-300)),
    }[case]
    nl, eps = params.nonlinearity, np.finfo(float).eps
    dirs = np.array([unit_profile(spectral64, params.beta, [93, k]) for k in range(50)])
    fibers = FiberMap.full(spectral64, dirs, params)
    t_u = _drive(fibers)
    signs, peaks = np.geomspace(1e-6, 1e3, 500), np.linspace(0.0, 3.0, 200)
    assert np.all(1e3 * t_u * fibers.vmax <= nl._exact_peak)

    d = fibers.deriv(t_u, unit=signs)
    formed = t_u[:, None] * signs
    by_row = np.array([fibers.take([k]).deriv(formed[k]) for k in range(50)])
    assert _sign_counts(d) == _sign_counts(by_row) == [1] * 50
    s = fibers.norm_sq[:, None]
    terms = [params.kirchhoff.g(formed * formed * s) * formed * s, formed ** (nl.p - 1.0) * fibers.weight_sum[:, None]]
    terms += [formed ** (e - 1.0) * m[:, None] for e, m in fibers.power_moments]
    assert np.all(np.abs(d - by_row) <= 8.0 * eps * sum(terms))
    value = k4.fibering(spectral64, dirs, t_u, params, unit=peaks)
    formed = t_u[:, None] * peaks
    terms = _value_terms(fibers, t_u, peaks)
    gap = np.abs(value - np.array([k4.fibering(spectral64, u, ts, params) for u, ts in zip(dirs, formed)]))
    assert np.all(gap <= 8.0 * eps * sum(np.abs(x) for x in terms))
    # the scales (k, m) formed are no sweep of a stack, with or without a unit
    for grid_unit in (peaks, None):
        with pytest.raises(ValueError, match="scale"):
            k4.fibering(spectral64, dirs, formed, params, unit=grid_unit)
        with pytest.raises(ValueError, match="scale"):
            fibers.deriv(formed, unit=grid_unit)


@pytest.mark.parametrize("beta", [0.5, 0.9])
def test_shared_grid_sweeps_split_rows_past_the_exact_tail(spectral64, resolved_default, beta):
    # at the automatic cp, every fifth row moved to 100 _exact_peak / max|u|
    # leaves the exact tail (its sign sweep ends past the guard, its maximum
    # sweep stays inside it) and goes at its scales formed: in a stack that
    # mixes both kinds, each row gets its sweep alone bit for bit, and the
    # exact rows get what they get in a stack of exact rows only
    params = replace(resolved_default[0], beta=beta)
    nl = params.nonlinearity
    dirs = np.array([unit_profile(spectral64, beta, [93, k]) for k in range(50)])
    fibers = FiberMap.full(spectral64, dirs, params)
    t_u = _drive(fibers)
    signs, peaks = np.geomspace(1e-6, 1e3, 500), np.linspace(0.0, 3.0, 200)
    past = np.arange(50) % 5 == 1
    t_mixed = np.where(past, 100.0 * nl._exact_peak / fibers.vmax, t_u)
    assert np.array_equal(3.0 * t_mixed * fibers.vmax > nl._exact_peak, past)
    assert np.array_equal(1e3 * t_mixed * fibers.vmax > nl._exact_peak, past)
    d_mixed = fibers.deriv(t_mixed, unit=signs)
    value_mixed = k4.fibering(spectral64, dirs, t_mixed, params, unit=peaks)
    assert np.all(d_mixed[past, -1] == -np.inf) and np.all(np.isfinite(value_mixed))
    assert np.array_equal(d_mixed[~past], fibers.take(~past).deriv(t_u[~past], unit=signs))
    assert np.array_equal(value_mixed[~past], k4.fibering(spectral64, dirs[~past], t_u[~past], params, unit=peaks))
    for k in range(50):
        alone = fibers.take([k]).deriv(t_mixed[k : k + 1], unit=signs)[0]
        assert np.array_equal(d_mixed[k], alone), k
        assert np.array_equal(value_mixed[k], k4.fibering(spectral64, dirs[k], t_mixed[k], params, unit=peaks)), k


def test_sweeps_across_the_exact_tail_take_each_rows_largest_scale(spectral64, params_cp2):
    # at cp = 2 on a map of the tail alone (no moments, g = 1e-300: d = -tail)
    # each row's largest scale t_u max(unit) decides its row: rows 0-2 stay
    # within the exact tail, rows 3-5 leave it inside the sweep although
    # t_u max|u| is within it, rows 6-7 reach past the guard.  Each row of
    # the mixed stack is its row alone bit for bit (an exact row keeps its
    # closed form in a call that forms the exp body) and within 8 eps of the
    # row at its scales formed; so is its value, -tail (the head g t^2 / 2
    # is below 1e-300)
    nl, eps = params_cp2.nonlinearity, np.finfo(float).eps
    ops = operator_cache(spectral64, 0.5)
    dirs = np.array([unit_profile(spectral64, 0.5, [25, k]) for k in range(8)])
    vmax = np.abs(dirs).max(axis=1)
    unit = np.geomspace(1e-3, 40.0, 100)
    t = np.repeat([0.02 * nl._exact_peak, 0.5 * nl._exact_peak, 0.1 * nl.guard_scale()], [3, 3, 2]) / vmax
    assert np.array_equal(t * unit.max() * vmax <= nl._exact_peak, np.arange(8) < 3)
    tail = FiberMap(KirchhoffSpec.affine(1e-300, 0.0), np.ones(8), (), nl, dirs, ops.rule.vol)
    got = tail.derivs(t, unit)
    assert np.all(got[0][6:, -1] == -np.inf) and np.all(np.isfinite(got[0][:6]))
    for k in range(8):
        for a, b, formed in zip(got, tail.take([k]).derivs(t[k : k + 1], unit), tail.take([k]).derivs(t[k] * unit)):
            assert np.array_equal(a[k], b[0]), k
            finite = np.isfinite(formed)
            assert np.array_equal(finite, np.isfinite(a[k])), k
            assert np.all(np.abs(a[k][finite] - formed[finite]) <= 8.0 * eps * np.abs(formed[finite])), k
    for a, b in zip(got, tail.take(slice(0, 3)).derivs(t[:3], unit)):
        assert np.array_equal(a[:3], b)
    value = tail.take(slice(0, 6)).value(t[:6], unit)
    for k in range(6):
        assert np.array_equal(value[k], tail.take([k]).value(t[k : k + 1], unit)[0]), k
        formed = tail.take([k]).value(t[k] * unit)
        assert np.all(np.abs(value[k] - formed) <= 8.0 * eps * np.abs(formed)), k


def test_value_of_maps_without_a_tail(spectral64, params_cp2):
    # the auxiliary map (pure_power) and the full map at alpha0 = 0 carry no
    # tail: the value (1/2) G(t^2 S) - sum (t^e / e) M agrees with the terms
    # of the scaled profiles node by node, its power terms to rounding and
    # its value to the rounding of the form, ||t u||^2 against t^2 ||u||^2
    u = unit_profile(spectral64, 0.5, 27)
    ops, p = operator_cache(spectral64, 0.5), params_cp2.p
    poly = replace(params_cp2, nonlinearity=replace(params_cp2.nonlinearity, alpha0=0.0))
    ts = np.linspace(0.0, 3.0 * project_one(spectral64, u, poly)[0], 7)
    stack = np.outer(ts, u)
    kirch, q_term, reaction = _energy_terms(ops, stack, poly)
    aux = FiberMap.pure_power(spectral64, u, params_cp2)
    (power,) = aux._terms(np.ones(1), ts)[1]
    assert np.all(np.abs(power[0] - (np.abs(stack) ** p) @ ops.rule.vol / p) <= 1e-14 * power[0])
    value = aux.value(ts)
    assert np.all(np.abs(value - (kirch - power[0])) <= 1e-12 * (kirch + power[0]))
    full = FiberMap.full(spectral64, u, poly)
    assert full.tail_spec is None
    terms = full._terms(np.ones(1), ts)[1]
    for a, b in zip(terms, (q_term, reaction)):
        assert np.all(np.abs(a[0] - b) <= 1e-14 * b)
    value = k4.fibering(spectral64, u, ts, poly)
    assert np.all(np.abs(value - (kirch - q_term - reaction)) <= 1e-12 * (kirch + q_term + reaction))


def test_fibering_array_matches_scalar(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 18)
    limit = params_cp2.nonlinearity.guard_scale() / np.abs(u).max()
    ts = np.linspace(0.0, 2.0 * limit, 101)
    batch = k4.fibering(spectral64, u, ts, params_cp2)
    single = np.array([k4.fibering(spectral64, u, t, params_cp2) for t in ts])
    past = single == -np.inf
    assert 0 < np.sum(past) < len(ts)
    assert np.all(batch[past] == -np.inf)
    assert np.all(np.abs(batch[~past] - single[~past]) <= 1e-12 * np.abs(single[~past]))
    assert np.all(k4.fibering(spectral64, u, ts[ts > limit * 1.01], params_cp2) == -np.inf)
    with pytest.raises(ValueError):
        k4.fibering(spectral64, u, np.array([0.5, -0.3]), params_cp2)


@pytest.mark.parametrize("case", ["auto", "cp2", "cp2-beta0.9"])
def test_profile_scales_are_the_unit_at_scale_one(spectral64, resolved_default, params_cp2, case):
    # a profile, or a map of one row, at an array of scales ts takes them as
    # its grid unit at t_u = 1: fibering, value, deriv and derivs give bit
    # for bit what t_u = 1 with unit = ts gives, shaped as ts (a scale gives
    # a float), with -inf past the guard (from about 10 t_u at cp = 2);
    # fibering is the value of the profile's map
    params = {
        "auto": resolved_default[0],
        "cp2": params_cp2,
        "cp2-beta0.9": replace(params_cp2, beta=0.9),
    }[case]
    u = unit_profile(spectral64, params.beta, 24)
    fiber = FiberMap.full(spectral64, u, params)
    ts = project_one(spectral64, u, params)[0] * np.geomspace(1e-3, 1e3, 120)
    one = np.ones(1)
    value = k4.fibering(spectral64, u, ts, params)
    assert np.array_equal(value, k4.fibering(spectral64, u, 1.0, params, unit=ts))
    assert np.array_equal(value, fiber.value(ts)) and np.array_equal(value, fiber.value(one, unit=ts)[0])
    assert np.array_equal(value, fiber.value(1.0, unit=ts))
    assert np.array_equal(fiber.deriv(ts), fiber.deriv(one, unit=ts)[0])
    for got, want in zip(fiber.derivs(ts), fiber.derivs(one, unit=ts)):
        assert np.array_equal(got, want[0])
    assert np.array_equal(k4.fibering(spectral64, u, ts.reshape(4, 30), params), value.reshape(4, 30))
    assert np.array_equal(fiber.deriv(ts.reshape(4, 30)), fiber.deriv(ts).reshape(4, 30))
    assert np.array_equal(fiber.value(ts.reshape(4, 30)), value.reshape(4, 30))
    assert isinstance(k4.fibering(spectral64, u, ts[7], params), float) and isinstance(fiber.deriv(ts[7]), float)
    assert isinstance(fiber.value(ts[7]), float)
    past = value == -np.inf
    assert np.array_equal(fiber.deriv(ts) == -np.inf, past) and past.any() == (case != "auto")


def test_weak_action_fd_check_regression(spectral64, resolved_default):
    # verify seed 1195820244 draws a direction whose second-order central
    # difference missed the weak action by 1.3e-6 (tolerance 1e-6)
    from kirchhoff4.verify import _energy_checks

    checks = {c.name: c for c in _energy_checks(spectral64, resolved_default[0], 1195820244)}
    assert checks["weak-action-fd"].status == "pass"
    assert checks["weak-action-fd"].margin >= 0.9e-6


def test_energy_breakdown_fields(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 16)
    e = k4.energy(spectral64, u, params_cp2)
    assert e.kirchhoff_term > 0
    assert e.power_term > 0
    assert e.f_term > 0


# The two verify checks gated on their own rounding floor catch
# perturbations of their operator at n = 64.
def test_gradient_gate_catches_perturbed_riesz_matrix(spectral64, resolved_default, monkeypatch):
    from kirchhoff4.verify import _energy_checks

    params = resolved_default[0]
    ops = operator_cache(spectral64, params.beta)
    assert {c.name: c for c in _energy_checks(spectral64, params, 1)}["gradient-defining-equations"].status == "pass"
    # each entry of the Riesz matrix off by about 1e-11 relative
    noise = 1.0 + 1e-11 * np.random.default_rng(2).standard_normal(ops.riesz_matrix.shape)
    monkeypatch.setattr(ops, "riesz_matrix", ops.riesz_matrix * noise)
    check = {c.name: c for c in _energy_checks(spectral64, params, 1)}["gradient-defining-equations"]
    assert check.status == "fail" and 16.0 * (1.0 - check.margin) > 64.0  # in units of eps
    # the former gate, the residual relative to 1 + max B^T |load| below 1e-9, passes it
    u = k4.random_clamped_profile(spectral64, np.random.default_rng([1, 300]))  # the check's direction
    u = u / weighted_rule(spectral64, params.beta).norm(u)
    load = _residual_load(ops, u, params, _nodal_force(u, params))
    resid = ops.basis.T @ (ops.gram @ ops.riesz(load)) - ops.basis.T @ load
    assert np.abs(resid).max() / (1.0 + np.abs(ops.basis.T @ np.abs(load)).max()) < 1e-9


def test_laplacian_gate_catches_perturbed_operator(spectral64):
    from dataclasses import replace

    from kirchhoff4.verify import _grid_checks

    assert {c.name: c for c in _grid_checks(spectral64)}["laplacian-oracle"].status == "pass"
    noise = 1.0 + 1e-13 * np.random.default_rng(2).standard_normal(spectral64.lap.shape)
    check = {c.name: c for c in _grid_checks(replace(spectral64, lap=spectral64.lap * noise))}["laplacian-oracle"]
    assert check.status == "fail" and 4.0 * (1.0 - check.margin) > 8.0  # in units of n eps


@pytest.mark.parametrize(
    "scheme,n", [("spectral-even", 16), ("spectral-even", 64), ("spectral-even", 256), ("uniform-fd", 16), ("uniform-fd", 400)]
)
def test_d1_constant_gate_catches_moved_entry(scheme, n):
    from kirchhoff4.verify import _grid_checks

    grid = k4.build_grid(n, scheme)
    assert {c.name: c for c in _grid_checks(grid)}["d1-constant"].status == "pass"
    mass = np.abs(grid.d1).sum(axis=1)
    for row in (int(np.argmin(mass)), n // 2, n - 1):  # the lightest row, an inner one, the boundary's
        d1 = grid.d1.copy()
        d1[row, (row + 1) % n] += 1e-9 * mass[row]
        check = {c.name: c for c in _grid_checks(replace(grid, d1=d1))}["d1-constant"]
        assert check.status == "fail" and check.witness == row, (row, check)
