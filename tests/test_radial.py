import math

import mpmath
import numpy as np
import pytest

import kirchhoff4 as k4
from kirchhoff4.energy import operator_cache
from kirchhoff4.nehari import _start_stack
from kirchhoff4.radial import _clamp, _radau_rule, build_grid, clamped_even_basis, weighted_rule

from conftest import dome_gate_ratio


def test_build_grid_contract():
    g = build_grid(8, "uniform-fd")
    assert g.n == 8
    assert g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0.0


def test_build_grid_rejects_coarse():
    with pytest.raises(ValueError):
        build_grid(7, "spectral-even")
    with pytest.raises(ValueError):
        build_grid(64, "chebyshev")


def test_build_grid_deterministic():
    a = build_grid(24, "spectral-even")
    b = build_grid(24, "spectral-even")
    assert a is b  # cached, hence bitwise identical


@pytest.mark.parametrize("scheme", ["spectral-even", "uniform-fd"])
@pytest.mark.parametrize("n", [8, 32])
def test_quadrature_basic_moments(n, scheme):
    g = build_grid(n, scheme)
    assert abs(g.quad_weights.sum() - 0.25) < 1e-12
    assert abs(g.quad_weights @ g.nodes**2 - 1.0 / 6.0) < 1e-12


def test_spectral_quadrature_even_exactness():
    # exact moments for even powers well beyond 2n-1
    for n in (8, 16, 64):
        g = build_grid(n, "spectral-even")
        for k in range(0, 2 * n, 2):
            assert abs(g.quad_weights @ g.nodes**k - 1.0 / (k + 4)) < 1e-12, (n, k)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_radau_rule_matches_mpmath(n):
    # 50-digit reference built independently of the closed forms: interior
    # nodes are zeros of the orthonormal Jacobi(1, 1) polynomial of degree
    # n - 1, their weights Christoffel numbers of (1 - x^2) divided by 1 - x,
    # and the endpoint takes the rest of int (1 + x) dx = 2
    x, lam = _radau_rule(n)
    m = n - 1
    with mpmath.workdps(50):
        b = [mpmath.sqrt(mpmath.mpf(k * (k + 2)) / ((2 * k + 1) * (2 * k + 3))) for k in range(1, m + 1)]

        def orthonormal(t):
            vals, ders = [1 / mpmath.sqrt(mpmath.mpf(4) / 3)], [mpmath.mpf(0)]
            prev, dprev = mpmath.mpf(0), mpmath.mpf(0)
            for k in range(m):
                bk = b[k - 1] if k else 0
                nxt = (t * vals[-1] - bk * prev) / b[k]
                dnxt = (vals[-1] + t * ders[-1] - bk * dprev) / b[k]
                prev, dprev = vals[-1], ders[-1]
                vals.append(nxt)
                ders.append(dnxt)
            return vals, ders

        ref_x, ref_lam = [], []
        for xj in x[:-1]:
            t = mpmath.mpf(float(xj))
            for _ in range(3):
                vals, ders = orthonormal(t)
                t -= vals[-1] / ders[-1]
            vals, _ = orthonormal(t)
            ref_x.append(t)
            ref_lam.append(1 / (sum(v * v for v in vals[:-1]) * (1 - t)))
        ref_lam.append(2 - sum(ref_lam))
        ulps = [abs(float((mpmath.mpf(float(a)) - r) / np.spacing(abs(float(r))))) for a, r in zip(x, ref_x)]
        rel = [abs(float(mpmath.mpf(float(a)) / r - 1)) for a, r in zip(lam, ref_lam)]
    assert x[-1] == 1.0
    assert max(ulps) <= 2.0, max(ulps)
    assert max(rel) <= 5e-13, max(rel)


def test_fd_quadrature_quartic_exactness():
    g = build_grid(200, "uniform-fd")
    for k in range(5):
        assert abs(g.quad_weights @ g.nodes**k - 1.0 / (k + 4)) < 1e-12


@pytest.mark.parametrize("n", [8, 9, 50, 400])
def test_uniform_fd_rules_match_textbook_and_quartic_moments(n):
    # oracles independent of the build: the centered fourth-order
    # difference quotients and the exact moments of monomials
    g = build_grid(n, "uniform-fd")
    r, h, eps = g.nodes, 1.0 / n, np.finfo(float).eps
    inner = np.arange(2, n - 2)
    band = inner[:, None] + np.arange(-2, 3)
    second = g.lap - (3.0 / r)[:, None] * g.d1  # u''
    in_band = np.zeros((len(inner), n), dtype=bool)
    in_band[np.arange(len(inner))[:, None], band] = True
    textbook = ((g.d1, [1, -8, 0, 8, -1], 12 * h), (second, [-1, 16, -30, 16, -1], 12 * h**2))
    for mat, numerators, denominator in textbook:
        rows = mat[inner]
        expected = np.array(numerators) / denominator
        assert np.abs(rows[in_band].reshape(-1, 5) - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.all(rows[~in_band] == 0.0)

    def defect(mat, k, exact):  # in units of the rounding floor of mat @ r^k
        v = r**k
        return np.abs(mat @ v - exact) / (eps * (np.abs(mat) @ v))

    for k in range(5):
        d1_exact = k * r ** (k - 1) if k else np.zeros(n)
        lap_exact = k * (k + 2) * r ** (k - 2) if k else np.zeros(n)
        # rows 0 and 1 fold the reflected nodes: exact on even polynomials
        rows = slice(2, None) if k % 2 else slice(None)
        assert defect(g.d1, k, d1_exact)[rows].max() <= 8.0, ("d1", k)
        assert defect(g.lap, k, lap_exact)[rows].max() <= 8.0, ("lap", k)
        assert abs(g.quad_weights @ r**k - 1.0 / (k + 4)) <= 1e-15, ("quad", k)


@pytest.mark.parametrize("scheme,n,tol", [("spectral-even", 64, 1e-11), ("uniform-fd", 400, 1e-11)])
def test_d1_annihilates_constants(scheme, n, tol):
    g = build_grid(n, scheme)
    assert np.abs(g.d1 @ np.ones(n)).max() < tol


def test_laplacian_oracles(spectral64):
    g = spectral64
    r = g.nodes
    # profiles that do not vanish at the boundary see the full rounding
    # mass of the boundary rows
    op_floor = 64 * np.finfo(float).eps * np.abs(g.lap).sum(axis=1).max()
    assert np.abs(g.lap @ r**2 - 8.0).max() < max(1e-9, op_floor)
    assert np.abs(g.lap @ np.ones(g.n)).max() < max(1e-10, op_floor)
    assert dome_gate_ratio(g).max() <= 1.0


def test_laplacian_oracle_small_grids():
    for n in (16, 24, 32):
        assert dome_gate_ratio(build_grid(n, "spectral-even")).max() <= 1.0, n


# every 4th n, the first grid where a fixed 1e-10 gate falls below the
# boundary row's rounding floor (52), the default (64), and the grids with
# the largest ratios of former builds (116, 179, 254)
@pytest.mark.parametrize("n", sorted({*range(8, 257, 4), 52, 64, 116, 179, 254}))
def test_laplacian_oracle_dome_gate_sweep(n):
    assert dome_gate_ratio(build_grid(n, "spectral-even")).max() <= 1.0


@pytest.mark.parametrize("n", [16, 32])
def test_spectral_matrices_match_mpmath_lagrange(n):
    # 40-digit reference by the product rule on the Lagrange basis of the
    # build's own nodes s_j = (x_j + 1)/2, x_j those of _radau_rule (r_j^2 is
    # rounded and misses s_j by an ulp, which alone moves the entries by up
    # to 1e2 eps of their row's mass at n = 32): for l_j = c_j prod_k (s - s_k),
    # l_j'(s_i) = c_j prod_{k != i, j} (s_i - s_k) and
    # l_j''(s_i) = 2 l_j'(s_i) sum_{m != i, j} 1/(s_i - s_m) off the diagonal,
    # and from the sums of 1/(s_j - s_k) on it; then d1 = 2 r U' and
    # lap = 4 s U'' + 8 U'
    g = build_grid(n, "spectral-even")
    x, _ = _radau_rule(n)
    d1_ref, lap_ref = np.empty((n, n)), np.empty((n, n))
    with mpmath.workdps(40):
        s = [(mpmath.mpf(float(v)) + 1) / 2 for v in x]
        for j in range(n):
            c = 1 / mpmath.fprod(s[j] - s[k] for k in range(n) if k != j)
            for i in range(n):
                if i == j:
                    inv = [1 / (s[j] - s[k]) for k in range(n) if k != j]
                    du = mpmath.fsum(inv)
                    ddu = du**2 - mpmath.fsum(v * v for v in inv)
                else:
                    du = c * mpmath.fprod(s[i] - s[k] for k in range(n) if k not in (i, j))
                    ddu = 2 * du * mpmath.fsum(1 / (s[i] - s[m]) for m in range(n) if m not in (i, j))
                d1_ref[i, j] = 2 * mpmath.mpf(float(g.nodes[i])) * du
                lap_ref[i, j] = 4 * s[i] * ddu + 8 * du
    eps = np.finfo(float).eps
    for mat, ref in ((g.d1, d1_ref), (g.lap, lap_ref)):
        # in units of eps times the row's absolute sum; 0.41 at most measured
        assert (np.abs(mat - ref) / (eps * np.abs(mat).sum(axis=1, keepdims=True))).max() <= 2.0


def test_clamped_even_basis_matches_numpy_chebvander():
    # the recurrence in numpy's own order: bit for bit its Vandermonde matrix
    from numpy.polynomial import chebyshev

    rng = np.random.default_rng(5)
    for count in range(6, 127):
        x = rng.uniform(-1.0, 1.0, count + 3)
        k = np.arange(count)
        a, b = -4.0 * (k + 1.0) / (2.0 * k + 3.0), (2.0 * k + 1.0) / (2.0 * k + 3.0)
        t = chebyshev.chebvander(x, count + 1)
        assert np.array_equal(clamped_even_basis(x, count), t[:, :count] + a * t[:, 1:-1] + b * t[:, 2:]), count


def test_log_weight_values():
    assert k4.log_weight(1.0, 0.7) == 1.0
    assert abs(k4.log_weight(1.0 / math.e, 0.5) - math.sqrt(2.0)) < 1e-15
    assert k4.log_weight(0.5, 0.0) == 1.0
    with pytest.raises(ValueError):
        k4.log_weight(0.0, 0.5)
    with pytest.raises(ValueError):
        k4.log_weight(1.5, 0.5)
    with pytest.raises(ValueError):
        k4.log_weight(0.5, 1.5)


def test_log_weight_decreasing():
    rs = np.linspace(0.05, 1.0, 50)
    vals = [k4.log_weight(r, 0.5) for r in rs]
    assert np.all(np.diff(vals) < 0)


def test_ball_integral_values(spectral64):
    g = spectral64
    assert abs(k4.ball_integral(g, np.ones(g.n)) - np.pi**2 / 2) < 1e-12
    assert abs(k4.ball_integral(g, g.nodes**2) - np.pi**2 / 3) < 1e-12
    assert k4.ball_integral(g, np.zeros(g.n)) == 0.0


def test_w_norm_closed_form(spectral64):
    dome = (1 - spectral64.nodes**2) ** 2
    assert abs(weighted_rule(spectral64, 0.0).norm(dome) - 4 * np.pi) < 1e-8
    assert weighted_rule(spectral64, 0.5).norm(np.zeros(spectral64.n)) == 0.0


def test_w_norm_convergence_invariant():
    # both schemes are exact on the dome: (lap dome)^2 r^3 is within the
    # degree each quadrature integrates exactly
    for g in (build_grid(32, "spectral-even"), build_grid(64, "spectral-even"), build_grid(400, "uniform-fd")):
        dome = (1 - g.nodes**2) ** 2
        assert abs(weighted_rule(g, 0.0).norm(dome) - 4 * np.pi) < 1e-8


def test_w_inner_consistency(spectral64):
    u = k4.random_clamped_profile(spectral64, np.random.default_rng(3))
    rule = weighted_rule(spectral64, 0.5)
    assert abs(rule.form(u, u) - rule.norm(u) ** 2) < 1e-12 * (1 + rule.norm(u) ** 2)


def test_w_inner_bilinear(spectral64):
    rng = np.random.default_rng(11)
    u = k4.random_clamped_profile(spectral64, rng)
    v = k4.random_clamped_profile(spectral64, rng)
    z = k4.random_clamped_profile(spectral64, rng)
    a, b = 0.37, -2.11
    rule = weighted_rule(spectral64, 0.5)
    left = rule.form(a * u + b * v, z)
    right = a * rule.form(u, z) + b * rule.form(v, z)
    assert abs(left - right) < 1e-10 * (1 + abs(left))


def test_lebesgue_norm(spectral64):
    dome = (1 - spectral64.nodes**2) ** 2
    assert abs(k4.lebesgue_norm(spectral64, dome, 2.0) - np.pi / math.sqrt(30.0)) < 1e-10
    assert k4.lebesgue_norm(spectral64, np.zeros(64), 3.0) == 0.0
    c = -2.5
    assert abs(k4.lebesgue_norm(spectral64, c * dome, 3.0) - abs(c) * k4.lebesgue_norm(spectral64, dome, 3.0)) < 1e-10
    with pytest.raises(ValueError):
        k4.lebesgue_norm(spectral64, dome, 0.5)


def test_full_sobolev_norm(spectral64):
    dome = (1 - spectral64.nodes**2) ** 2
    target = math.sqrt(np.pi**2 / 30 + 2 * np.pi**2 * (4.0 / 15.0) + (4 * np.pi) ** 2)
    assert abs(k4.full_sobolev_norm(spectral64, dome, 0.0) - target) < 1e-6
    assert k4.full_sobolev_norm(spectral64, dome, 0.5) >= weighted_rule(spectral64, 0.5).norm(dome)


def test_pointwise_bound_coeff():
    val = k4.pointwise_bound_coeff(1.0 / math.e, 0.5)
    expect = abs(2.0**0.5 - 1.0) ** 0.5 / (2 * math.sqrt(2) * np.pi * math.sqrt(0.5))
    assert abs(val - expect) < 1e-12
    assert abs(val - 0.1024) < 5e-4
    assert k4.pointwise_bound_coeff(1 - 1e-9, 0.5) < 1e-4
    rs = np.linspace(0.05, 0.95, 30)
    vals = [k4.pointwise_bound_coeff(r, 0.5) for r in rs]
    assert np.all(np.diff(vals) < 0)  # grows as r decreases
    with pytest.raises(ValueError):
        k4.pointwise_bound_coeff(1.5, 0.5)


def test_pointwise_estimate_random_profiles(spectral64):
    beta = 0.5
    coeffs = np.array([k4.pointwise_bound_coeff(r, beta) for r in spectral64.nodes[:-1]])
    for k in range(100):
        u = k4.random_clamped_profile(spectral64, np.random.default_rng([77, k]))
        bound = coeffs * weighted_rule(spectral64, beta).norm(u) + 1e-7
        assert np.all(np.abs(u[:-1]) <= bound), k


def test_norm_equivalence_ratio(spectral64):
    worst = 1.0
    for k in range(100):
        u = k4.random_clamped_profile(spectral64, np.random.default_rng([78, k]))
        ratio = k4.full_sobolev_norm(spectral64, u, 0.5) / weighted_rule(spectral64, 0.5).norm(u)
        assert math.isfinite(ratio) and ratio >= 1.0
        worst = max(worst, ratio)
    assert worst < 50.0  # finite equivalence constant on this sample


def test_clamping(spectral64):
    u = _clamp(spectral64, np.cos(3 * spectral64.nodes)[None])[0]
    assert abs(u[-1]) < 1e-12
    assert abs((spectral64.d1 @ u)[-1]) < 1e-9
    again = _clamp(spectral64, u[None])[0]
    assert np.abs(again - u).max() < 1e-12


def test_random_profiles_clamped_both_schemes(fd400, spectral64):
    for g in (spectral64, fd400):
        u = k4.random_clamped_profile(g, np.random.default_rng(5))
        assert abs(u[-1]) < 1e-9
        assert abs((g.d1 @ u)[-1]) < 1e-9


def test_random_profile_same_function_across_schemes(spectral64, fd400):
    # restricted to modes whose boundary layer the uniform grid resolves
    # (the clamp correction uses the grid's own derivative estimate, whose
    # error grows like h^4 k^10), the same seed draws the same underlying
    # function on both schemes
    us = k4.random_clamped_profile(spectral64, np.random.default_rng(9), modes=5)
    uf = k4.random_clamped_profile(fd400, np.random.default_rng(9), modes=5)
    c_s = np.linalg.lstsq(clamped_even_basis(2 * spectral64.nodes**2 - 1, 5), us, rcond=None)[0]
    c_f = np.linalg.lstsq(clamped_even_basis(2 * fd400.nodes**2 - 1, 5), uf, rcond=None)[0]
    assert np.abs(c_s - c_f).max() < 1e-4


def _drawn_unit_profile(grid, rng, beta):
    """The one-direction draw written out: random_clamped_profile's
    arithmetic, then division by its weighted norm."""
    count = min(24, grid.n - 2)
    coeffs = rng.standard_normal(count) / (1.0 + np.arange(count) ** 2)
    vals = clamped_even_basis(2.0 * grid.nodes**2 - 1.0, count) @ coeffs
    vals = vals - vals[-1]
    vals = vals - 0.5 * float(grid.d1[-1] @ vals) * (grid.nodes**2 - 1.0)
    return vals / weighted_rule(grid, beta).norm(vals)


def test_stacked_unit_draws_match_one_direction_draws(spectral64, fd400):
    # verify draws each sample as one stack from one rng [seed, tag]: row k
    # is the k-th one-direction draw from that rng bit for bit, and a shorter
    # stack is the head of a taller one, so suite.json does not depend on how
    # the draws are stacked
    from kirchhoff4.verify import _unit_profiles

    for seed in (1, 7, 2**40 + 3):
        for grid in (spectral64, fd400):
            for beta in (0.5, 0.9):
                stack = _unit_profiles(grid, beta, seed, 500, 40)
                rng = np.random.default_rng([seed, 500])
                reference = [_drawn_unit_profile(grid, rng, beta) for _ in range(40)]
                assert np.array_equal(stack, np.array(reference)), (seed, grid.n, beta)
                assert np.array_equal(_unit_profiles(grid, beta, seed, 500, 7), stack[:7])
            one = k4.random_clamped_profile(grid, np.random.default_rng([seed, 500]))
            assert np.array_equal(one / weighted_rule(grid, 0.5).norm(one), _unit_profiles(grid, 0.5, seed, 500, 1)[0])


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**32, 2**64 + 5, 2**128 + 3])
def test_keyed_draws_match_default_rng(spectral64, seed):
    # start k of a multi-start solve is the random clamped profile of its own
    # generator np.random.default_rng([seed, k]), normalized, for seeds of
    # one to five 32-bit words and at every stack height (32 starts the
    # widest the CI runs)
    ops = operator_cache(spectral64, 0.5)
    for starts in (1, 8, 32):
        stack = _start_stack(spectral64, ops, k4.SearchConfig(starts=starts, seed=seed))
        rngs = [np.random.default_rng([seed, k]) for k in range(starts)]
        rows = np.array([k4.random_clamped_profile(spectral64, rng) for rng in rngs])
        assert np.array_equal(stack, rows / ops.rule.norm(rows)[:, None]), starts


def _assert_profile(values, n):
    """A profile as the package hands it out: read-only float nodal values (n,)."""
    assert isinstance(values, np.ndarray) and values.dtype == float and values.shape == (n,)
    with pytest.raises(ValueError):
        values[0] = 1.0


def test_profile_csv_roundtrip(tmp_path, spectral64):
    # bit for bit: the CSV holds 17 significant digits
    for grid in (spectral64, build_grid(16, "spectral-even"), build_grid(16, "uniform-fd")):
        u = k4.random_clamped_profile(grid, np.random.default_rng(21))
        _assert_profile(u, grid.n)
        path = tmp_path / f"profile-{grid.scheme}-{grid.n}.csv"
        k4.write_profile_csv(grid, u, path)
        header = path.read_text().splitlines()[0]
        assert header == "r,u"
        back = k4.read_profile_csv(grid, path)
        _assert_profile(back, grid.n)
        assert np.array_equal(back, u) and np.array_equal(np.signbit(back), np.signbit(u)), grid
        with pytest.raises(ValueError):
            k4.write_profile_csv(grid, u[:-1], path)  # one nodal value per node


def test_full_sobolev_norm_stack_matches_rows(spectral64, fd400):
    # a stack's norms are those of its rows alone, bit for bit, at heights
    # past rowwise's 16 rows
    for grid in (spectral64, fd400):
        rng = np.random.default_rng(4)
        stack = np.array([k4.random_clamped_profile(grid, rng) for _ in range(40)])
        for beta in (0.0, 0.5):
            norms = k4.full_sobolev_norm(grid, stack, beta)
            assert norms.shape == (40,)
            assert np.array_equal(norms, [k4.full_sobolev_norm(grid, u, beta) for u in stack]), (grid, beta)


def test_profile_csv_grid_mismatch(tmp_path, spectral64, spectral32):
    u = k4.random_clamped_profile(spectral64, np.random.default_rng(2))
    path = tmp_path / "profile.csv"
    k4.write_profile_csv(spectral64, u, path)
    with pytest.raises(ValueError):
        k4.read_profile_csv(spectral32, path)


def test_grid_immutable(spectral64):
    with pytest.raises(ValueError):
        spectral64.nodes[0] = 0.5


@pytest.mark.parametrize("scheme, n, beta", [("spectral-even", 64, 0.5), ("uniform-fd", 400, 0.9)])
def test_profile_checks_match_one_profile_at_a_time(scheme, n, beta):
    # the 100 profiles are drawn as one stack from the rng [seed, 100], each
    # row's norms by products of its own: both margins equal those of the
    # profiles drawn from that rng and measured one at a time, bit for bit
    from kirchhoff4.verify import _profile_checks

    grid, seed = build_grid(n, scheme), 3
    coeffs = np.array([k4.pointwise_bound_coeff(r, beta) for r in grid.nodes[:-1]])
    gaps, ratios = [], []
    rng = np.random.default_rng([seed, 100])
    for _ in range(100):
        u = k4.random_clamped_profile(grid, rng)
        nw = weighted_rule(grid, beta).norm(u)
        gaps.append(float(np.max(np.abs(u[:-1]) - coeffs * nw)))
        ratios.append(k4.full_sobolev_norm(grid, u, beta) / nw)
    checks = {c.name: c for c in _profile_checks(grid, beta, 100, seed)}
    assert checks["pointwise-bound"].margin == 1e-7 - max(gaps)
    assert checks["norm-equivalence-ratio"].status == "pass"
    assert checks["norm-equivalence-ratio"].margin == max(ratios)
