import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import kirchhoff4 as k4
from kirchhoff4.energy import FiberMap, operator_cache
from kirchhoff4.model import KirchhoffSpec
from kirchhoff4 import nehari
from kirchhoff4.nehari import ProjectionError, StartRecord, _descend_aux, _descend_main, _drive
from kirchhoff4.nehari import _projection, _relative_gradient, _scale_search, _winner
from kirchhoff4 import verify
from kirchhoff4.energy import _energies, _nehari_residuals, _residual_load
from kirchhoff4.verify import _projection_checks, _residual_limit

from conftest import chained_ground_state, minimizer_gates, project_one, random_starts, sobolev_gradient, unit_profile
from conftest import weak_action


# ---------------------------------------------------------------------------
# scalar projection oracles
# ---------------------------------------------------------------------------


def test_projection_quartic_oracle():
    # synthetic moments: affine(1,1) Kirchhoff, unit norm, unit 6th moment;
    # the scale solves t^4 - t^2 - 1 = 0, the square root of the golden ratio
    fiber = FiberMap(KirchhoffSpec.affine(1.0, 1.0), 1.0, ((6.0, 1.0),))
    root = _drive(fiber)[0]
    assert abs(root - math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)) < 1e-9
    assert abs(root - 1.2720196) < 1e-7


def _counting_search(searches, most=math.inf):
    """_scale_search that appends the list of scales each search asks for,
    and fails once a search asks for more than most."""

    def search(fiber, row):
        inner, asked = _scale_search(fiber, row), []
        searches.append(asked)
        t = next(inner)
        while True:
            asked.append(t)
            assert len(asked) <= most, f"the search asked for more than {most} scales"
            try:
                t = inner.send((yield t))
            except StopIteration as stop:
                return stop.value

    return search


def _scalar_start(fiber, row):
    """The start of a row's root search, taken for that row alone as the
    search once took it: NaN where no moment is positive."""
    norm_sq = float(fiber.norm_sq[row])
    heads = [(2.0, math.log(fiber.kirchhoff.g0 * norm_sq))]
    if fiber.kirchhoff.a > 0.0:
        heads.append((4.0, math.log(fiber.kirchhoff.a) + 2.0 * math.log(norm_sq)))
    logs = [
        max((h - math.log(m[row])) / (e - k) for k, h in heads if e > k) for e, m in fiber.power_moments if m[row] > 0.0
    ]
    if not logs:
        return math.nan
    t = float(np.exp(min(logs)))
    if fiber.tail_spec is not None:
        t = min(t, fiber.tail_spec.guard_scale() / float(fiber.vmax[row]))
    return t


def test_fiber_starts_match_one_row_at_a_time(spectral64, params_cp2, resolved_default):
    # FiberMap computes every row's search start as one array; each equals
    # the start taken for the row alone, bit for bit, also after take: with
    # the slope term of affine g and without it (a = 0, log-type g), at the
    # automatic cp (no start capped), where the guard caps every start
    # (alpha0 = 1e8), for the pure-power maps, where a moment is zero or
    # none is positive, and on 20000 synthetic rows, where numpy's
    # vectorized log would differ from math.log
    dirs = np.array([unit_profile(spectral64, 0.5, [93, k]) for k in range(30)])
    dirs *= np.geomspace(1e-30, 1e30, 30)[:, None]
    base = params_cp2
    variants = [
        base,
        resolved_default[0],
        k4.ModelParams.create(0.5, 5.0, 6.0, 2.0, 1.0, 0.1, KirchhoffSpec.affine(1.0, 0.0)),
        k4.ModelParams.create(0.5, 5.0, 6.0, 2.0, 1.0, 0.1, KirchhoffSpec.log_type()),
        k4.ModelParams.create(0.5, 5.0, 6.0, 2.0, 1e8, 0.1, KirchhoffSpec.affine(1.0, 1.0)),
    ]
    fibers = [FiberMap.full(spectral64, dirs, params) for params in variants]
    fibers.append(FiberMap.pure_power(spectral64, dirs, base))
    zero_moments = ((5.0, [0.0, 1.0, 2.0]), (6.0, [3.0, 0.0, 0.0]))
    fibers.append(FiberMap(KirchhoffSpec.affine(1.0, 1.0), np.ones(3), zero_moments))
    fibers.append(FiberMap(KirchhoffSpec.affine(1.0, 1.0), 1.0, ((6.0, 0.0),)))
    rng = np.random.default_rng(94)
    norm_sq, m_q, m_p = 10.0 ** rng.uniform(-30.0, 30.0, (3, 20000))
    fibers.append(FiberMap(KirchhoffSpec.affine(0.7, 1.3), norm_sq, ((5.0, m_q), (6.0, m_p))))
    for i, fiber in enumerate(fibers):
        scalar = [_scalar_start(fiber, row) for row in range(len(fiber))]
        assert np.array_equal(fiber.start, scalar, equal_nan=True), i
        rows = np.arange(len(fiber))[::-2]
        assert np.array_equal(fiber.take(rows).start, np.array(scalar)[rows], equal_nan=True), i
    guards = [params.nonlinearity.guard_scale() / fiber.vmax for params, fiber in zip(variants, fibers)]
    assert np.all(fibers[4].start == guards[4]) and not np.any(fibers[1].start == guards[1])
    assert np.isnan(fibers[-2].start[0]) and np.isnan(fibers[-3].start).tolist() == [False, False, False]


def test_projection_pure_power_closed_form(monkeypatch):
    searches = []
    monkeypatch.setattr(nehari, "_scale_search", _counting_search(searches))

    def check(fiber, expect, most):
        assert abs(_drive(fiber)[0] - expect) <= 1e-12 * expect
        assert len(searches[-1]) <= most, len(searches[-1])

    # g(s) = g0: t^(e-2) = g0 S / M, the start itself; the last two roots
    # sit near 1e-18 (the auto-cp scale) and near 1e15
    for g0, s, moment, p in (
        (2.0, 3.0, 5.0, 6.0),
        (1.0, 1.0, 2.0, 5.0),
        (0.7, 10.0, 0.3, 4.5),
        (1.0, 1.0, 1e72, 6.0),
        (1.0, 1.0, 1e-60, 6.0),
    ):
        check(FiberMap(KirchhoffSpec.affine(g0, 0.0), s, ((p, moment),)), (g0 * s / moment) ** (1.0 / (p - 2.0)), 3)
    # g(s) = g0 + a s with e = 6: M t^4 - a S^2 t^2 - g0 S = 0.  A start off
    # by orders of magnitude would take a doubling per factor 2; the start is
    # the larger balance of g0 t S and a t^3 S^2 with the moment, and a
    # Newton probe from it brackets the root, so where either dominates the
    # search asks for at most 5 scales (roots near 1e-18, 1 and 1e15).
    # Where the two are comparable the start sits within a factor 2 below
    # the root, and the one-sided Newton steps from the concave side stall
    # into bisection: up to 10 scales.
    for g0, a, s, moment, most in (
        (1.0, 1.0, 1.0, 1e72, 5),
        (1.0, 1.0, 1e40, 1e116, 5),
        (1e-6, 1.0, 1.0, 1.0, 5),
        (0.2, 7.0, 3.0, 0.5, 5),
        (1.0, 1.0, 1.0, 1e-30, 5),
        (1.0, 1.0, 1.0, 1.0, 10),
        (1.0, 1.0, 1e36, 1e108, 10),
        (1.0, 1.0, 1e-30, 1e-90, 10),
    ):
        expect = math.sqrt((a * s * s + math.sqrt((a * s * s) ** 2 + 4.0 * g0 * s * moment)) / (2.0 * moment))
        check(FiberMap(KirchhoffSpec.affine(g0, a), s, ((6.0, moment),)), expect, most)
    # e = 4 with M > a S^2: t^2 = g0 S / (M - a S^2).  The slope term gives
    # no start, and the balance g0 S / M is within 1% of the root but for
    # M = 3 a S^2
    for g0, a, s, moment, most in (
        (1.0, 1.0, 1.0, 100.0, 5),
        (2.0, 0.5, 1e-20, 1e-38, 5),
        (1.0, 1.0, 1e10, 1e22, 5),
        (1.0, 1.0, 1.0, 3.0, 10),
    ):
        check(FiberMap(KirchhoffSpec.affine(g0, a), s, ((4.0, moment),)), math.sqrt(g0 * s / (moment - a * s * s)), most)
    assert len(searches) == 17


def test_projection_bisects_when_newton_creeps(monkeypatch):
    # a slope that makes every Newton step 1e-12 of the scale: the probes
    # before the bracket stop after three, the bracket stops halving and
    # bisection takes over.  The quartic oracle's root, and the same map
    # stretched by 1e12 and 1e-12, where the creep starts a doubling or a
    # halving per factor 2 below or above the root; a search past 400
    # scales fails instead of creeping on
    searches = []
    monkeypatch.setattr(nehari, "_scale_search", _counting_search(searches, 400))
    root = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
    for stretch in (1.0, 1e12, 1e-12):
        fiber = FiberMap(KirchhoffSpec.affine(1.0, 1.0), 1.0, ((6.0, 1.0),))
        derivs = fiber.derivs

        def creeping(t, stretch=stretch):
            d = derivs(t / stretch)[0]
            return d, -abs(d) / (1e-12 * t)

        fiber.derivs = creeping
        assert abs(_drive(fiber)[0] - stretch * root) < 1e-12 * stretch, stretch
        asked = searches[-1]  # three creeping probes, then a doubling or a halving
        assert all(abs(b / a - 1.0) < 1e-11 for a, b in zip(asked[:3], asked[1:4])), asked[:5]
        assert asked[4] == (2.0 if stretch >= 1.0 else 0.5) * asked[3], asked[:5]


def test_projection_needs_positive_moment():
    # d(t) = t S g0 > 0 for every t: no root, and no balance scale to start from
    fiber = FiberMap(KirchhoffSpec.affine(1.0, 0.0), 1.0, ((6.0, 0.0),))
    with pytest.raises(ProjectionError):
        _drive(fiber)
    # nor from a squared weighted norm that is not positive and finite
    for norm_sq in (0.0, -1.0, math.nan, math.inf):
        fiber = FiberMap(KirchhoffSpec.affine(1.0, 1.0), norm_sq, ((6.0, 1.0),))
        with pytest.raises(ProjectionError, match="weighted norm"):
            _drive(fiber)


def test_projection_scaling_law(spectral64, params_cp2):
    u = k4.random_clamped_profile(spectral64, np.random.default_rng(101))
    # the extreme scales must neither read as zero nor overflow the norm
    lams = np.array([1.0, 0.5, 2.0, 10.0, 1e-150, 1e-300, 1e150])
    t_u, w, _, _ = k4.project(spectral64, lams[:, None] * u, params_cp2)
    for k, lam in enumerate(lams[1:], 1):
        assert abs(t_u[k] * lam / t_u[0] - 1.0) < 1e-12, lam
        assert np.abs(w[k] - w[0]).max() < 1e-9


def test_projection_rejects_zero(spectral64, params_cp2):
    with pytest.raises(ProjectionError):
        k4.project(spectral64, np.zeros((1, 64)), params_cp2)


def test_projection_overflow_diagnostic(spectral64, params_cp2):
    # nodal values so large that the weighted norm (about 110 max|u| here)
    # overflows, or so small that t_u = t / ||u|| does: no t_u is representable
    u = k4.random_clamped_profile(spectral64, np.random.default_rng(5))
    for peak in (1e307, 1e-320):
        with pytest.raises(ProjectionError):
            k4.project(spectral64, peak / np.abs(u).max() * u[None], params_cp2)


def test_projection_point_invariants(spectral64, params_cp2):
    ops = operator_cache(spectral64, 0.5)
    for k in range(25):
        u = unit_profile(spectral64, 0.5, [61, k])
        _, w, energy, residual = project_one(spectral64, u, params_cp2)
        s = ops.rule.norm(w) ** 2
        assert abs(residual) <= _residual_limit(ops, w, params_cp2), k
        coer = (0.25 - 1.0 / params_cp2.q) * params_cp2.kirchhoff.g0
        assert energy >= coer * s - 1e-9


def test_stacked_projection_matches_single(spectral64, params_cp2, resolved_default):
    # past 16 rows the lockstep rows round differently from single
    # projections, by ~1e-14
    ops = operator_cache(spectral64, 0.5)
    for params in (params_cp2, resolved_default[0]):
        rngs = [np.random.default_rng([63, k]) for k in range(40)]
        dirs = np.array([k4.random_clamped_profile(spectral64, rng) for rng in rngs])
        dirs[3] *= 1e-200  # the scale of a row does not matter
        t_u, w, energy, residual = k4.project(spectral64, dirs, params)
        assert t_u.shape == energy.shape == residual.shape == (len(dirs),) and w.shape == dirs.shape
        for k in range(len(dirs)):
            single_t, _, single_e, _ = k4.project(spectral64, dirs[k : k + 1], params)
            assert abs(t_u[k] / single_t[0] - 1.0) <= 1e-13, k
            assert abs(residual[k]) <= _residual_limit(ops, w[k], params), k
            assert abs(energy[k] / single_e[0] - 1.0) <= 1e-12, k


def test_stack_of_one_equals_single(spectral64, params_cp2, resolved_default):
    # alone, a direction gets the arithmetic of the single-profile kernels,
    # and in a stack of up to 16 its row is the stack of one, bit for bit
    for params in (params_cp2, resolved_default[0]):
        dirs = np.array([unit_profile(spectral64, 0.5, [64, k]) for k in range(10)])
        stack = k4.project(spectral64, dirs, params)
        for k in range(10):
            single = k4.project(spectral64, dirs[k : k + 1], params)
            for got, want in zip(stack, single):
                assert np.array_equal(got[k], want[0]), k
            w = single[1][0]
            assert single[2][0] == k4.energy(spectral64, w, params).total, k
            assert single[3][0] == weak_action(spectral64, w, w, params), k
    empty = k4.project(spectral64, np.empty((0, 64)), params_cp2)
    assert [x.shape for x in empty] == [(0,), (0, 64), (0,), (0,)]


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_stacked_projection_names_bad_row(spectral64, params_cp2, bad):
    dirs = np.array([unit_profile(spectral64, 0.5, [65, k]) for k in range(4)])
    dirs[2] = bad
    with pytest.raises(ProjectionError, match="row 2"):
        k4.project(spectral64, dirs, params_cp2)


def _failing_search():
    raise ProjectionError("no scale")
    yield


def test_drive_isolates_rows(spectral64, params_cp2, resolved_default, monkeypatch):
    # a stack whose row 1 has no positive moment: strict, the driver names
    # the row; otherwise that root is NaN, and every other root equals the
    # root of its row alone, bit for bit
    kirchhoff = KirchhoffSpec.affine(1.0, 1.0)
    moments = np.array([1.0, 0.0, 5.0, 1e-60])
    fiber = FiberMap(kirchhoff, np.ones(4), ((6.0, moments),))
    with pytest.raises(ProjectionError, match="row 1: no positive moment"):
        _drive(fiber)
    roots = _drive(fiber, strict=False)
    assert np.isnan(roots[1])
    for i in (0, 2, 3):
        assert roots[i] == _drive(FiberMap(kirchhoff, 1.0, ((6.0, moments[i]),)))[0], i
    # in project, on grid directions: the moment form of row 3 reads NaN.  The
    # row is told by its q-moment, which every stack taken from it keeps; the
    # first stack driven is the whole one
    dirs = np.array([unit_profile(spectral64, 0.5, [68, k]) for k in range(6)])
    real_derivs, marks = FiberMap.derivs, []

    def nan_row(fib, t):
        d, slope = real_derivs(fib, t)
        moment = fib.power_moments[0][1]
        if not marks:
            marks.append(moment[3])
        return np.where(moment == marks[0], np.nan, d), slope

    monkeypatch.setattr(FiberMap, "derivs", nan_row)
    with pytest.raises(ProjectionError, match="row 3: fibering derivative is NaN"):
        k4.project(spectral64, dirs, params_cp2)
    monkeypatch.setattr(FiberMap, "derivs", real_derivs)
    # and in the descent, at the automatic cp, where every first trial is
    # accepted: row 2 of the first trial stack comes back NaN and is
    # rejected, so that row backtracks alone while the other rows go on as
    # they would
    params = resolved_default[0]
    cfg = k4.SearchConfig(starts=4)
    starts = random_starts(spectral64, params, cfg)
    real_search, real_drive = nehari._scale_search, nehari._drive

    def run(fail):
        sizes = []  # rows of each stack driven: the starts, then the trials

        def search(fib, row):
            return _failing_search() if fail and len(sizes) == 2 and row == 2 else real_search(fib, row)

        def drive(fib, strict=True):
            sizes.append(len(fib))
            roots = real_drive(fib, strict)
            if fail and len(sizes) == 2:
                assert np.isnan(roots[2]) and np.all(np.isfinite(np.delete(roots, 2)))
            return roots

        monkeypatch.setattr(nehari, "_scale_search", search)
        monkeypatch.setattr(nehari, "_drive", drive)
        return _descend_main(spectral64, params, starts, cfg), sizes

    (plain, plain_w, _, _), plain_sizes = run(False)
    (hit, hit_w, _, _), hit_sizes = run(True)
    assert plain_sizes[:3] == [4, 4, 4] and hit_sizes[:4] == [4, 4, 1, 4]  # row 2 retries alone
    for k in (0, 1, 3):
        assert hit[k] == plain[k], k
        assert np.array_equal(hit_w[k], plain_w[k]), k
    assert hit[2].trace[1] != plain[2].trace[1]


def _ulps_around(t: float, k: int) -> np.ndarray:
    """The 2k + 1 floats from k below t to k above it."""
    below, above = [t], [t]
    for _ in range(k):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return np.array(below[:0:-1] + above)


def test_moment_root_is_one_sign_change(spectral64, params_cp2):
    # the moment form, the one root function, changes sign exactly once
    # (from + to -) within 32 ulps of each root the driver returns, so which
    # float a search returns does not hang on the path it takes
    dirs = np.array([unit_profile(spectral64, 0.5, [72, k]) for k in range(40)])
    fiber = FiberMap.full(spectral64, dirs, params_cp2)
    for i, root in enumerate(_drive(fiber)):
        signs = np.sign(fiber.take([i]).derivs(_ulps_around(root, 32))[0])
        signs = signs[signs != 0.0]
        assert signs[0] > 0.0 and np.count_nonzero(signs[1:] != signs[:-1]) == 1, i


def test_search_starts_under_the_guard(spectral64, params_cp2, monkeypatch):
    # above guard_scale / vmax the derivative is -inf and each step only
    # halves; the first scale each search asks for is the balance start
    # capped there, and on these cp = 2 directions the cap is what acts
    searches = []
    monkeypatch.setattr(nehari, "_scale_search", _counting_search(searches))
    dirs = np.array([unit_profile(spectral64, 0.5, [73, k]) for k in range(8)])
    fiber = FiberMap.full(spectral64, dirs, params_cp2)
    roots = _drive(fiber)
    _drive(FiberMap(fiber.kirchhoff, fiber.norm_sq, fiber.power_moments))  # no tail: no cap
    cap = params_cp2.nonlinearity.guard_scale() / fiber.vmax
    assert len(searches) == 16
    for i in range(8):
        start, balance = searches[i][0], searches[8 + i][0]
        assert start == min(balance, cap[i]) and start < balance, i
        assert 0.0 < roots[i] < cap[i], i


def test_t_leq_one_stack(spectral64, params_cp2):
    # every doubled point lies inside the Nehari set and projects at 1/2
    dirs = np.array([unit_profile(spectral64, 0.5, [66, k]) for k in range(8)])
    _, w, _, _ = k4.project(spectral64, dirs, params_cp2)
    doubled = 2.0 * w
    assert np.all(_projection(spectral64, doubled, params_cp2)[0] <= 1.0 + 1e-10)
    assert np.all(np.abs(k4.project(spectral64, doubled, params_cp2)[0] - 0.5) < 1e-13)
    # the halved points break the criterion's premise: they lie outside the
    # set (residual > 0) and project at scales above 1, so verify tests the
    # doubled points only where their residual is not positive
    halved = 0.5 * w
    assert np.all(_nehari_residuals(operator_cache(spectral64, 0.5), halved, params_cp2) > 0.0)
    assert np.all(_projection(spectral64, halved, params_cp2)[0] > 1.0)
    assert _projection(spectral64, doubled[:0], params_cp2)[0].shape == (0,)


def test_projection_residual_gate_at_cp2(spectral64, params_cp2):
    # the sweep of `verify --cp 2 --seed 1`: directions 101 and 132 exceeded
    # the former floor 4 eps t (|slope| + 1) by 1.85x and 1.12x
    checks = {c.name: c for c in _projection_checks(spectral64, params_cp2, 133, 1)}
    assert checks["projection-residual"].status == "pass"


def test_projection_residual_gate_holds_the_roots_spread():
    # `verify --beta 0.9 --cp 2 --n 16`: with gamma X near 600 the root's
    # one-ulp spread moves the residual by about eps t_u^2 |d^2/dt^2 J(tu)|,
    # which the floor 4 eps (head + tail) alone missed by up to 3.1 times
    # (margin -2.14 at direction 0); with the spread in the floor the worst
    # ratio is 0.50
    grid, base = k4.build_grid(16, "spectral-even"), k4.default_params(cp=2.0)
    params = k4.ModelParams.create(0.9, base.q, base.p, 2.0, base.alpha0, base.delta, base.kirchhoff)
    check = next(c for c in _projection_checks(grid, params, 200, 1) if c.name == "projection-residual")
    assert check.status == "pass" and check.margin > 0.25, check


def test_fibering_max_check_is_relative(spectral64, resolved_default, monkeypatch):
    # the fibering peaks at the automatic cp are ~1e-35: a scale 1% off the
    # root must still fail the check (an absolute slack of 1e-9 passed it)
    real = verify.project

    def misplaced(grid, values, params):
        t_u, *rest = real(grid, values, params)
        return (1.01 * t_u, *rest)

    def fibering_max():
        checks = _projection_checks(spectral64, resolved_default[0], 20, 1)
        return next(c for c in checks if c.name == "projection-fibering-max")

    assert fibering_max().status == "pass"
    monkeypatch.setattr(verify, "project", misplaced)
    check = fibering_max()
    assert check.status == "fail" and check.margin < 0.0


@pytest.mark.parametrize("factor", [1.05, 0.95])
def test_fibering_max_check_fails_a_mutated_reaction(spectral64, resolved_default, monkeypatch, factor):
    # the sweep and the peaks share the one value kernel, FiberMap._terms: a
    # reaction term (the p-power of F and its tail) scaled either way moves
    # the maximum of J(tu) off the projection scale (which the derivative
    # still finds), so the check fails.  Peaks with a kernel of their own,
    # left unmutated, let the factor 1.05 pass (margin +2.4e-2)
    real = FiberMap._terms

    def mutated(self, *args):
        head, (power, *reaction) = real(self, *args)  # FiberMap.full: the q-power, then F's p-power and tail
        return head, [power] + [factor * x for x in reaction]

    def fibering_max():
        checks = _projection_checks(spectral64, resolved_default[0], 40, 1)
        return next(c for c in checks if c.name == "projection-fibering-max")

    assert fibering_max().status == "pass"
    monkeypatch.setattr(FiberMap, "_terms", mutated)
    check = fibering_max()
    assert check.status == "fail" and check.margin < 0.0, check


def test_fibering_level_check_fails_a_scaled_value(spectral64, params_cp2, monkeypatch):
    # a factor common to the peaks and the sweeps of the value kernel leaves
    # the maximum of J(tu) at the projection scale, so projection-fibering-max
    # passes; the level against the nodal J of the projected points fails
    real = FiberMap.value

    def checks():
        return {c.name: c for c in _projection_checks(spectral64, params_cp2, 20, 1)}

    assert checks()["projection-fibering-level"].status == "pass"
    monkeypatch.setattr(FiberMap, "value", lambda self, t, unit=None: 1.05 * real(self, t, unit))
    scaled = checks()
    level = scaled["projection-fibering-level"]
    assert scaled["projection-fibering-max"].status == "pass" and level.status == "fail" and level.margin < 0.0


def test_projection_residual_check_names_worst_row(spectral64, resolved_default, monkeypatch):
    # the margin is the headroom of the worst |residual| / limit ratio, and
    # the witness is its row
    params = resolved_default[0]
    ops = operator_cache(spectral64, params.beta)
    real = verify.project

    def offset(grid, values, params):  # in the stack of 20 directions
        t_u, w, energy, residual = real(grid, values, params)
        if len(values) == 20:
            residual[7] = 2.0 * _residual_limit(ops, w[7], params)
        return t_u, w, energy, residual

    def residual_check():
        checks = _projection_checks(spectral64, params, 20, 1)
        return next(c for c in checks if c.name == "projection-residual")

    check = residual_check()
    assert check.status == "pass" and 0.0 < check.margin < 1.0
    monkeypatch.setattr(verify, "project", offset)
    check = residual_check()
    assert check.status == "fail" and check.margin < 0.0 and check.witness == 7


def test_scale_below_one_check_names_worst_direction(spectral64, resolved_default, monkeypatch):
    # the margin is the headroom 1 + 1e-10 - max t_u (about 1/2: the doubled
    # points project at t_u = 1/2), and the witness is the index of that
    # point's direction, also when an earlier direction is left out as
    # lying outside the Nehari set
    params = resolved_default[0]
    real_projection, real_residuals = verify._projection, verify._nehari_residuals

    def overshoot(grid, values, params):
        t_u, w = real_projection(grid, values, params)
        if len(values) == 19:  # the doubled points of the 19 directions left in the set
            t_u[6] = 1.5  # among them: direction 7
        return t_u, w

    def outside(ops, values, params):
        res = real_residuals(ops, values, params)
        if len(values) == 20:
            res[3] = 1.0  # the doubled point of direction 3 is left out
        return res

    def scale_check():
        checks = _projection_checks(spectral64, params, 20, 1)
        return next(c for c in checks if c.name == "projection-scale-below-one")

    check = scale_check()
    assert check.status == "pass" and abs(check.margin - 0.5) < 1e-9 and 0 <= check.witness < 20
    monkeypatch.setattr(verify, "_projection", overshoot)
    monkeypatch.setattr(verify, "_nehari_residuals", outside)
    check = scale_check()
    assert check.status == "fail" and check.witness == 7
    assert abs(check.margin - (1e-10 - 0.5)) < 1e-12


def test_projection_residual_gate_catches_offset(spectral64, params_cp2, resolved_default):
    # a point moved off the Nehari set by a relative 1e-9 along its ray
    # breaks the rounding bound, at cp = 2 and at the automatic cp ~ 1e77,
    # also with the root's spread eps |d^2/ds^2 J(s w)| at s = 1 added, as
    # projection-residual adds it
    ops = operator_cache(spectral64, 0.5)
    for params in (params_cp2, resolved_default[0]):
        for k in range(10):
            _, w, _, residual = project_one(spectral64, unit_profile(spectral64, 0.5, [62, k]), params)
            assert abs(residual) <= _residual_limit(ops, w, params), k
            moved = (1.0 + 1e-9) * w[None]
            spread = np.finfo(float).eps * abs(FiberMap.full(spectral64, w, params).derivs(1.0)[1])
            assert abs(_nehari_residuals(ops, moved, params)[0]) > _residual_limit(ops, moved, params)[0] + spread, k


def test_projection_residual_scale_of_minimizer(spectral64, ground_default, resolved_default):
    # at the solver's own minimizer the residual sits within its rounding bound
    gs = ground_default
    assert abs(gs.residual) <= minimizer_gates(spectral64, gs, resolved_default[0])[1]


def test_reprojection_of_nehari_point(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 17)
    w = project_one(spectral64, u, params_cp2)[1]
    again = k4.project(spectral64, w[None], params_cp2)[0]
    assert abs(again[0] - 1.0) < 1e-9


def test_t_leq_one(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 18)
    doubled = 2.0 * project_one(spectral64, u, params_cp2)[1]
    assert weak_action(spectral64, doubled, doubled, params_cp2) < 0.0
    assert _projection(spectral64, doubled[None], params_cp2)[0][0] <= 1.0 + 1e-10
    t2 = project_one(spectral64, doubled, params_cp2)[0]
    assert abs(t2 - 0.5) < 1e-9


def test_t_leq_one_precondition(spectral64, params_cp2):
    u = unit_profile(spectral64, 0.5, 19)
    shrunk = 0.5 * project_one(spectral64, u, params_cp2)[1]
    # outside the Nehari set the criterion fails: the residual is positive
    # and the point projects at a scale above 1
    assert _nehari_residuals(operator_cache(spectral64, 0.5), shrunk[None], params_cp2)[0] > 0.0
    assert _projection(spectral64, shrunk[None], params_cp2)[0][0] > 1.0


def test_t_leq_one_randomized(spectral64, params_cp2):
    guard = params_cp2.nonlinearity.guard_scale()
    for k in range(100):
        u = unit_profile(spectral64, 0.5, [71, k])
        w = project_one(spectral64, u, params_cp2)[1]
        factor = min(1.0 + 3.0 * (k % 5 + 1) / 5.0, 0.9 * guard / np.abs(w).max())
        beyond = factor * w
        if weak_action(spectral64, beyond, beyond, params_cp2) <= 0.0:
            assert _projection(spectral64, beyond[None], params_cp2)[0][0] <= 1.0 + 1e-10, k


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------


def test_ground_state_default_quality(spectral64, ground_default, resolved_default, search_default):
    gs = ground_default
    rel_grad, resid_limit = minimizer_gates(spectral64, gs, resolved_default[0])
    assert gs.converged
    assert gs.m > 0.0
    assert rel_grad <= 1e-6
    assert abs(gs.residual) <= resid_limit
    assert gs.m <= min(gs.per_start_energies) + 1e-12 * abs(gs.m)
    # one main start per aux start, each begun where its aux start ended:
    # at the automatic cp that is a critical point of the main functional
    # to rounding, so every start converges at its first gradient check
    assert len(gs.per_start) == search_default.starts
    for rec in gs.per_start:
        assert rec.converged == (rec.relative_gradient <= search_default.tol), rec.index
        assert rec.converged and rec.stop_reason == "converged" and rec.iterations == 1, rec.index


@pytest.mark.parametrize("auto_cp", [True, False])
def test_random_starts_descend_to_convergence(spectral64, resolved_default, params_cp2, search_default, auto_cp):
    # from random profiles every start descends to its own critical point:
    # none stalls after one step, on the tiny Nehari norms of the automatic
    # cp (about 3e-18) or at cp = 2
    params = resolved_default[0] if auto_cp else params_cp2
    starts = random_starts(spectral64, params, search_default)
    records, _, _, _ = _descend_main(spectral64, params, starts, search_default)
    for rec in records:
        assert rec.converged and rec.stop_reason == "converged", rec.index
        assert rec.iterations > 1, rec.index


def test_main_starts_where_the_aux_starts_end(spectral64, resolved_default, ground_default):
    # row k of AuxResult.directions is the unit direction of aux start k's
    # final point: the winner's row is w_p over its norm, bit for bit, and
    # each row projects back to its own start's level
    params, aux, _ = resolved_default
    ops = operator_cache(spectral64, params.beta)
    assert aux.directions.shape == (len(aux.per_start), spectral64.n)
    best = aux.w_p
    assert np.array_equal(aux.directions[_winner(aux.per_start)], best / ops.rule.norm(best))
    w = _drive(FiberMap.pure_power(spectral64, aux.directions, params))[:, None] * aux.directions
    value = 0.5 * params.kirchhoff.G(ops.rule.form(w)) - np.abs(w) ** params.p @ ops.rule.vol / params.p
    levels = np.array([r.energy for r in aux.per_start])
    assert np.all(np.abs(value - levels) <= 1e-11 * levels)  # measured: at most 2.9e-13
    # the main start from row k projects to main start k's first energy
    w = _drive(FiberMap.full(spectral64, aux.directions, params))[:, None] * aux.directions
    assert _energies(ops, w, params).tolist() == [rec.trace[0] for rec in ground_default.per_start]


def test_ground_state_publishes_winner_record(spectral64, ground_default, resolved_default):
    # the published point is the winner's own record point, not a second
    # projection of it: the same m, gradient norm and norm, bit for bit
    gs, params = ground_default, resolved_default[0]
    best = gs.per_start[_winner(gs.per_start)]
    ops = operator_cache(spectral64, params.beta)
    values = gs.minimizer
    assert (gs.m, gs.gradient_norm, gs.minimizer_norm) == (best.energy, best.gradient_norm, best.norm)
    assert _energies(ops, values[None], params)[0] == best.energy
    assert ops.rule.norm(sobolev_gradient(ops, values, params)) == best.gradient_norm
    assert ops.rule.norm(values) == best.norm
    assert gs.min_nehari_norm <= best.norm
    assert gs.residual == weak_action(spectral64, gs.minimizer, gs.minimizer, params)


def test_default_solve_projects_its_starts_once(spectral64, resolved_default, search_default, monkeypatch):
    # every main start converges at its first gradient check at the
    # automatic cp, and every accepted point is already on the Nehari set:
    # the solve builds one FiberMap.full and runs one _drive, for its starts
    params, aux, _ = resolved_default
    builds, drives = [], []
    real_full, real_drive = FiberMap.full, nehari._drive

    def full(*args, **kwargs):
        builds.append(len(args[1]))
        return real_full(*args, **kwargs)

    def drive(fiber, strict=True):
        drives.append(len(fiber))
        return real_drive(fiber, strict)

    monkeypatch.setattr(FiberMap, "full", staticmethod(full))
    monkeypatch.setattr(nehari, "_drive", drive)
    gs = k4.ground_state(spectral64, params, search_default, aux.directions)
    assert builds == drives == [search_default.starts]
    assert all(rec.energy == rec.trace[0] for rec in gs.per_start)


@pytest.mark.parametrize("starved", [False, True])
def test_start_records_are_measured_at_their_points(spectral32, resolved_default, params_cp2, starved):
    # each record's energy, gradient norm and relative gradient are those of
    # a fresh evaluation at its final point, bit for bit: at the defaults
    # every start converges, and starved at cp = 2 every start steps after
    # its last gradient check (max-iter), so its gradient is evaluated there
    params = params_cp2 if starved else resolved_default[0]
    cfg = k4.SearchConfig(starts=4, max_iter=2 if starved else 300, tol=1e-6, seed=5)
    starts = k4.aux_ground_state(spectral32, params, cfg).directions
    ops = operator_cache(spectral32, params.beta)
    records, w, _, _ = _descend_main(spectral32, params, starts, cfg)
    assert {rec.stop_reason for rec in records} == {"max-iter" if starved else "converged"}
    for rec, row in zip(records, w):
        grad_norm = ops.rule.norm(sobolev_gradient(ops, row, params))
        energy = _energies(ops, row[None], params)[0]
        fresh = (energy, grad_norm, float(_relative_gradient(ops, row, params, grad_norm)), ops.rule.norm(row))
        assert (rec.energy, rec.gradient_norm, rec.relative_gradient, rec.norm) == fresh, rec.index
        assert rec.energy == rec.trace[-1] and rec.converged is not starved, rec.index
    gs = k4.ground_state(spectral32, params, cfg, starts)
    best = records[_winner(records)]
    assert np.array_equal(gs.minimizer, w[_winner(records)])
    assert (gs.m, gs.gradient_norm, gs.relative_gradient) == (best.energy, best.gradient_norm, best.relative_gradient)


def test_ground_state_energy_traces_monotone(spectral32, params_cp2):
    cfg = k4.SearchConfig(starts=3, max_iter=120, tol=1e-6, seed=3)
    gs = k4.ground_state(spectral32, params_cp2, cfg, random_starts(spectral32, params_cp2, cfg))
    for rec in gs.per_start:
        trace = np.array(rec.trace)
        slack = 1e-13 * (1.0 + np.abs(trace[:-1]))
        assert np.all(np.diff(trace) <= slack), rec.index


def test_ground_state_starved_starts_stop_at_max_iter(spectral32, params_cp2):
    cfg = k4.SearchConfig(starts=3, max_iter=2, tol=1e-6, seed=3)
    gs = k4.ground_state(spectral32, params_cp2, cfg, random_starts(spectral32, params_cp2, cfg))
    for rec in gs.per_start:
        assert rec.stop_reason == "max-iter" and rec.iterations == 2, rec.index
        assert len(rec.trace) == 3, rec.index


@pytest.mark.parametrize("descend", [_descend_main, _descend_aux], ids=lambda descend: descend.__name__)
def test_stacked_rows_are_independent(spectral64, resolved_default, descend):
    # a start follows the same path alone as in a stack of 8, to the bit:
    # every row has matrix-vector products of its own, and no row reads
    # another's step size, curvature pair, mask or stop
    params = resolved_default[0]
    starts = random_starts(spectral64, params, k4.SearchConfig(starts=8))
    wide, wide_vals = descend(spectral64, params, starts, k4.SearchConfig(starts=8))[:2]
    assert len(wide) == 8
    for k in (0, 5):
        (alone,), vals = descend(spectral64, params, starts[k : k + 1], k4.SearchConfig(starts=1))[:2]
        assert alone.iterations > 1 and len(alone.trace) > 2, k
        assert replace(alone, index=k) == wide[k], k
        assert np.array_equal(vals[0], wide_vals[k]), k


def test_overflow_row_does_not_spoil_the_stack(spectral64, params_cp2, monkeypatch):
    # a row past the exponential overflow guard gets energy -inf; its
    # neighbours keep their energies and nothing raises
    ops = operator_cache(spectral64, params_cp2.beta)
    rows = np.array([project_one(spectral64, unit_profile(spectral64, 0.5, [67, k]), params_cp2)[1] for k in range(4)])
    rows[2] *= 2.0 * params_cp2.nonlinearity.guard_scale() / np.abs(rows[2]).max()
    values = _energies(ops, rows, params_cp2)
    assert values[2] == -math.inf
    for k in (0, 1, 3):
        assert values[k] == _energies(ops, rows[k : k + 1], params_cp2)[0], k
    with pytest.raises(k4.RangeOverflowError):
        k4.energy(spectral64, rows[2], params_cp2)
    # the descent rejects a trial whose energy is -inf, although it is lower
    # than any: with every trial past the guard each start stalls in place
    calls = []

    def past_guard(ops, v, params):  # the start energies, then every trial past the guard
        calls.append(v)
        return _energies(ops, v, params) if len(calls) == 1 else np.full(len(v), -np.inf)

    monkeypatch.setattr(nehari, "_energies", past_guard)
    units = random_starts(spectral64, params_cp2, k4.SearchConfig(starts=2))
    records, w, _, _ = _descend_main(spectral64, params_cp2, units, k4.SearchConfig(starts=2, max_iter=5))
    assert [(r.stop_reason, r.iterations, len(r.trace)) for r in records] == [("line-search-stalled", 1, 1)] * 2


def _record(index, energy, converged=True):
    return StartRecord(index, energy, 0.0, 0.0, 1.0, 1, converged, "converged" if converged else "max-iter")


def test_winner_ignores_rounding():
    # energies within 1e-10 relative tie, and the lowest index takes the
    # tie; a real gap or an unconverged start does not
    level = 3.3e-36
    base = [_record(k, level) for k in range(4)]
    assert _winner(base) == 0
    nudged = [_record(0, level * (1 + 1e-12))] + base[1:]
    assert _winner(nudged) == 0
    gap = [_record(0, level * (1 + 1e-8))] + base[1:]
    assert _winner(gap) == 1
    assert _winner([_record(0, 0.5 * level, converged=False)] + base[1:]) == 1
    assert _winner([_record(k, level * (2 - k), converged=False) for k in range(2)]) == 1


def test_ground_state_coercivity(ground_default, resolved_default):
    # relative to the coercivity level: at the automatic cp, m is ~3e-36
    params, _, _ = resolved_default
    gs = ground_default
    assert gs.coercivity_margin >= -1e-9
    level = (0.25 - 1.0 / params.q) * params.kirchhoff.g0 * gs.min_nehari_norm**2
    assert gs.m / level - 1.0 >= -1e-9
    assert gs.min_nehari_norm > 0.0


def test_ground_state_deterministic(spectral32, params_cp2):
    cfg = k4.SearchConfig(starts=2, max_iter=60, tol=1e-6, seed=9)
    a = chained_ground_state(spectral32, params_cp2, cfg)
    b = chained_ground_state(spectral32, params_cp2, cfg)
    assert a.m == b.m
    assert np.array_equal(a.minimizer, b.minimizer)


def test_ground_state_concrete_cp_converges(spectral64, params_cp2, search_default):
    gs = chained_ground_state(spectral64, params_cp2, search_default)
    assert gs.converged
    assert minimizer_gates(spectral64, gs, params_cp2)[0] <= 1e-6
    assert gs.m > 0


# ---------------------------------------------------------------------------
# auxiliary problem
# ---------------------------------------------------------------------------


def test_aux_rejects_small_p(spectral32, search_default):
    params = k4.ModelParams.create(0.5, 5.0, 6.0, 2.0, 1.0, 0.1, KirchhoffSpec.affine(1, 1))
    bad = k4.ModelParams(
        beta=0.5, q=3.0, p=4.0, delta=0.1,
        kirchhoff=params.kirchhoff,
        nonlinearity=params.nonlinearity,
    )
    with pytest.raises(ValueError):
        k4.aux_ground_state(spectral32, bad, search_default)


def test_aux_result_invariants(resolved_default, params_cp2, search_default):
    _, aux, _ = resolved_default
    p, q = params_cp2.p, params_cp2.q
    assert aux.m_p > 0.0
    assert aux.p_norm_p <= p * q / (p - q) * aux.m_p + 1e-8
    assert aux.m_p >= (0.25 - 1.0 / p) * aux.p_norm_p - 1e-8
    assert aux.converged
    for rec in aux.per_start:
        assert rec.converged == (rec.relative_gradient <= search_default.tol), rec.index
        assert rec.converged, rec.index
        assert rec.stop_reason == "moment-floor", rec.index


def _solver_start(grid, ops, search, k):
    """The unit-norm start direction k of a multi-start solve."""
    u = k4.random_clamped_profile(grid, np.random.default_rng([search.seed, k]))
    return u / ops.rule.norm(u)


@pytest.mark.parametrize("scheme, n", [("spectral-even", 32), ("uniform-fd", 100)])
def test_aux_moment_traces_monotone(params_cp2, scheme, n):
    # the power iteration u <- v/||v|| needs no line search: with no guard
    # at all, the moment vol |u|^p never falls by more than its rounding
    # floor, and the solver's own trace of moments stops at that floor
    grid = k4.build_grid(n, scheme)
    cfg = k4.SearchConfig(starts=3, max_iter=300, tol=1e-6, seed=3)
    aux = k4.aux_ground_state(grid, params_cp2, cfg)
    ops, p = operator_cache(grid, params_cp2.beta), params_cp2.p
    for rec in aux.per_start:
        u = _solver_start(grid, ops, cfg, rec.index)
        moments = []
        for _ in range(40):
            moments.append(float(ops.rule.vol @ np.abs(u) ** p))
            v = ops.riesz(ops.rule.vol * (np.abs(u) ** (p - 2.0) * u))
            u = v / ops.rule.norm(v)
        floor = 1e-12 * moments[-1]
        assert np.all(np.diff(moments) >= -floor), rec.index
        trace = np.array(rec.trace)
        assert trace[0] == moments[0], rec.index
        assert np.all(np.diff(trace) > 0.0), rec.index
        assert rec.iterations < 40, rec.index
        assert abs(trace[-1] - max(moments)) <= floor, rec.index


def test_published_profiles_are_read_only_arrays(spectral64, resolved_default, ground_default):
    # a solve publishes its point as read-only float nodal values (n,), a copy
    # of the winner's row that no later step of the solver can write to; like
    # the aux directions it stays out of the result's comparison and repr
    aux = resolved_default[1]
    for result, name in ((aux, "w_p"), (ground_default, "minimizer")):
        profile = getattr(result, name)
        assert isinstance(profile, np.ndarray) and profile.dtype == float and profile.shape == (spectral64.n,)
        assert not profile.flags.writeable and profile.base is None
        with pytest.raises(ValueError):
            profile[0] = 0.0
        assert replace(result, **{name: profile.copy()}) == result and f"{name}=" not in repr(result)


def test_every_start_converges_at_the_defaults(spectral64, resolved_default, ground_default, search_default):
    # at the defaults every start of both solves reaches tol on its own, and
    # each solve publishes its winner's point as the descent or ascent left it
    tol = search_default.tol
    params, aux, _ = resolved_default
    for result, level in ((aux, aux.m_p), (ground_default, ground_default.m)):
        assert result.converged
        for rec in result.per_start:
            assert rec.converged and rec.relative_gradient <= tol, (rec.index, rec.relative_gradient)
        assert result.per_start[_winner(result.per_start)].energy == level
    ops, w_p, p = operator_cache(spectral64, params.beta), aux.w_p, params.p
    grad = ops.riesz(_residual_load(ops, w_p, params, np.abs(w_p) ** (p - 2.0) * w_p))
    rel_aux = _relative_gradient(ops, w_p, params, ops.rule.norm(grad))
    assert rel_aux <= tol
    assert minimizer_gates(spectral64, ground_default, params)[0] <= tol


def test_aux_searches_start_near_their_roots(spectral64, params_cp2, search_default, monkeypatch):
    # the aux solve projects each of its 8 starts once, where the ascent
    # left it, and publishes the winner's point as projected.  Each search
    # starts at the balance of the Kirchhoff slope a t^3 S^2 with the
    # moment, near the root, and a Newton probe from it brackets the root;
    # from the balance of g0 t S alone each took 15-18 scales, and with a
    # doubling or halving for the second scale up to 5
    searches = []
    monkeypatch.setattr(nehari, "_scale_search", _counting_search(searches))
    k4.aux_ground_state(spectral64, params_cp2, search_default)
    assert len(searches) == 8 and max(map(len, searches)) <= 4, [len(x) for x in searches]


def test_aux_starved_starts_are_published_as_left(spectral32, params_cp2):
    # two power steps leave every start above tol; each is published as the
    # ascent left it, bit for bit its _descend_aux record, and unconverged
    cfg = k4.SearchConfig(starts=4, max_iter=2, tol=1e-6, seed=5)
    aux = k4.aux_ground_state(spectral32, params_cp2, cfg)
    raw, u = _descend_aux(spectral32, params_cp2, random_starts(spectral32, params_cp2, cfg), cfg)
    assert aux.per_start == raw
    for rec in aux.per_start:
        assert rec.stop_reason == "max-iter" and rec.converged is False, rec.index
        assert rec.converged == (rec.relative_gradient <= cfg.tol), rec.index
    assert aux.converged is False
    assert np.array_equal(aux.w_p, u[_winner(raw)])


def test_aux_projected_energy_closed_form(spectral64, search_default):
    # constant Kirchhoff: for each direction the projected level is
    # (1/2 - 1/p) g0^(p/(p-2)) |u|_p^(-2p/(p-2)) at unit weighted norm
    params = k4.ModelParams.create(0.5, 5.0, 6.0, 2.0, 1.0, 0.1, KirchhoffSpec.affine(2.0, 0.0))
    ops, p = operator_cache(spectral64, params.beta), params.p
    for k in range(10):
        u = unit_profile(spectral64, 0.5, [81, k])
        w = _drive(FiberMap.pure_power(spectral64, u, params))[0] * u
        level = 0.5 * params.kirchhoff.G(ops.rule.form(w)) - ops.rule.vol @ np.abs(w) ** p / p
        pnorm = k4.lebesgue_norm(spectral64, u, p)
        expect = (0.5 - 1.0 / p) * 2.0 ** (p / (p - 2.0)) * pnorm ** (-2.0 * p / (p - 2.0))
        assert abs(level - expect) <= 1e-9 * (1 + abs(expect)), k


def test_aux_grid_agreement(params_cp2, search_default, resolved_default, fd400):
    _, aux64, _ = resolved_default
    aux_fd = k4.aux_ground_state(fd400, params_cp2, search_default)
    assert abs(aux_fd.m_p - aux64.m_p) <= 2e-4 * aux64.m_p


# ---------------------------------------------------------------------------
# level bounds
# ---------------------------------------------------------------------------


def test_power_envelope_max_oracle():
    assert abs(k4.power_envelope_max(1.0, 2.0, 6.0) - 2.0 / 3.0) < 1e-15
    # generic case against a dense scan
    a, c, p = 0.7, 3.1, 5.0
    xs = np.linspace(1e-4, 5.0, 400001)
    scan = np.max(a * xs**2 - c * xs**p / p)
    assert abs(k4.power_envelope_max(a, c, p) - scan) < 1e-8


def test_closed_form_cap_value(resolved_default):
    params, aux, _ = resolved_default
    rep = k4.level_bounds(1.0, aux, params)
    expect = (1.0 / 20.0) * (k4.adams_constant(0.5) / 2.2) ** 0.5
    assert abs(rep.level_cap_closed_form - expect) < 1e-12 * expect
    assert abs(expect - 2.6617) < 1e-3


def test_bounds_chain(resolved_default, ground_default):
    params, aux, _ = resolved_default
    rep = k4.level_bounds(ground_default.m, aux, params)
    assert rep.aux_pnorm_ok
    assert rep.cp_above_threshold
    assert rep.level_below_aux_cap
    assert rep.level_below_closed_form
    assert rep.all_passed
    # chain consistency: the p-norm cap implies the auxiliary-level cap
    assert rep.level_cap_from_pnorm <= rep.level_cap_from_aux + 1e-8 * (1 + rep.level_cap_from_aux)
    # both variants of the cap coefficient are reported, derived > stated
    assert rep.tau_cap > rep.tau_threshold


def test_level_bounds_gate_is_relative(spectral64, resolved_default, search_default):
    # at cp = 1e150 the level is ~1e-72 and the aux cap ~1e-36: an absolute
    # slack would pass a level inflated by 1e60
    params, aux, _ = resolved_default
    params = params.with_cp(1e150)
    gs = k4.ground_state(spectral64, params, search_default, aux.directions)
    assert k4.level_bounds(gs.m, aux, params).all_passed
    inflated = k4.level_bounds(1e60 * gs.m, aux, params)
    assert inflated.m < 1e-8
    assert not inflated.level_below_aux_cap
    assert not inflated.all_passed and inflated.failed == ["level_below_aux_cap"]


def test_min_admissible_cp_limits(resolved_default):
    params, aux, _ = resolved_default
    import dataclasses

    tiny = dataclasses.replace(aux, m_p=1e-300, p_norm_p=1e-300)
    assert k4.min_admissible_cp(tiny, params) == 1.0
    base = k4.min_admissible_cp(aux, params)
    doubled = dataclasses.replace(aux, m_p=2 * aux.m_p)
    assert k4.min_admissible_cp(doubled, params) >= base


def test_resolved_cp_exceeds_threshold(resolved_default):
    params, aux, threshold = resolved_default
    assert params.cp > threshold
    assert params.cp > k4.min_admissible_cp(aux, params)


def test_solver_log_type_kirchhoff(spectral32):
    params = k4.ModelParams.create(0.5, 5.0, 6.0, 2.0, 1.0, 0.1, KirchhoffSpec.log_type())
    cfg = k4.SearchConfig(starts=2, max_iter=150, tol=1e-6, seed=2)
    gs = chained_ground_state(spectral32, params, cfg)
    assert gs.m > 0
    assert gs.converged
    assert abs(gs.residual) <= minimizer_gates(spectral32, gs, params)[1]


def test_fibering_sweep_memory_is_one_direction(spectral64, params_cp2, monkeypatch):
    # at cp = 2 no row of the sweep stays within the exact tail, and a
    # 16-row tail body (with the Kummer coefficients it gathers) would
    # hold ~16 times the memory of one direction's: each call of the sweep
    # (FiberMap.value with a unit) peaks within 10% of the largest of its
    # rows swept alone.  Every row of the sweep passes the guard, and a
    # block short of it is held to the same bound; either goes as one
    # stack, its tail one row at a time
    real = FiberMap.value
    peaks = []

    def traced_peak(call):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return tracemalloc.get_traced_memory()[1] - base, out

    def measured(fibers, t, unit=None):
        if unit is None:  # the peaks, one scale per row: no sweep
            return real(fibers, t)
        stacked, out = traced_peak(lambda: real(fibers, t, unit))
        alone = max(traced_peak(lambda: real(fibers.take([k]), t[k : k + 1], unit))[0] for k in range(len(t)))
        peaks.append((len(fibers), stacked, alone))
        return out

    monkeypatch.setattr(FiberMap, "value", measured)
    tracemalloc.start()
    try:
        _projection_checks(spectral64, params_cp2, 40, 1)
    finally:
        tracemalloc.stop()
    dirs = verify._unit_profiles(spectral64, 0.5, 1, 500, 16)
    t_u = k4.project(spectral64, dirs, params_cp2)[0]
    fibers = FiberMap.full(spectral64, dirs, params_cp2)
    tracemalloc.start()
    try:
        assert np.all(np.isfinite(measured(fibers, t_u, unit=np.linspace(0.0, 1.0, 200))))
    finally:
        tracemalloc.stop()
    assert [k for k, _, _ in peaks] == [40, 16]
    assert all(stacked <= 1.1 * alone for _, stacked, alone in peaks), peaks


def test_solver_other_beta(spectral32):
    # beta = 0.3: growth exponent 2/(1-beta) is not an integer
    params = k4.ModelParams.create(0.3, 4.6, 6.2, 2.0, 0.8, 0.2, KirchhoffSpec.affine(1.5, 0.5))
    assert abs(params.gamma - 2.0 / 0.7) < 1e-15
    cfg = k4.SearchConfig(starts=2, max_iter=150, tol=1e-6, seed=4)
    gs = chained_ground_state(spectral32, params, cfg)
    assert gs.m > 0
    assert gs.converged
    u = unit_profile(spectral32, params.beta, 22)
    t_u = project_one(spectral32, u, params)[0]
    assert t_u > 0
    assert k4.fibering(spectral32, u, t_u, params) >= k4.fibering(spectral32, u, 0.9 * t_u, params)


def test_projection_unique_sign_change(spectral64, resolved_default):
    params, _, _ = resolved_default
    for k in range(25):
        u = unit_profile(spectral64, 0.5, [91, k])
        fiber = FiberMap.full(spectral64, u, params)
        t_u = _drive(fiber)[0]
        ts = np.geomspace(1e-6 * t_u, 1e3 * t_u, 500)
        signs = np.sign(fiber.deriv(ts))  # -inf past the guard
        signs = signs[signs != 0]
        assert int(np.sum(signs[1:] != signs[:-1])) == 1, k


def _sign_sweep_fixture(grid, params, t_scale):
    """A stacked map of 50 directions, the roots scaled by t_scale, and each
    row's sign changes swept alone."""
    dirs = np.array([unit_profile(grid, 0.5, [92, k]) for k in range(50)])
    fibers = FiberMap.full(grid, dirs, params)
    t_u = _drive(fibers) * t_scale
    single = []
    for k in range(50):
        signs = np.sign(fibers.take([k]).deriv(np.geomspace(1e-6 * t_u[k], 1e3 * t_u[k], 500)))
        signs = signs[signs != 0.0]
        single.append(np.count_nonzero(signs[1:] != signs[:-1]))
    return fibers, t_u, single


@pytest.mark.parametrize("auto_cp", [True, False])
def test_sign_sweep_blocks_match_single_rows(spectral64, resolved_default, params_cp2, auto_cp):
    # verify sweeps the fibering derivative 40 rows a call where the sweep
    # stays within the exact pure-power tail, and 8 rows a call past it at
    # n = 64; on 50 rows each count equals that of the row's sweep alone.
    # Every third sweep ends below its root and counts no change, so a count
    # read from another row shows.  At the automatic cp every exp of the
    # tail rounds to 1 and is skipped (blocks of 40 and 10); at cp = 2 the
    # exp body is formed (blocks of 8)
    params = resolved_default[0] if auto_cp else params_cp2
    fibers, t_u, single = _sign_sweep_fixture(spectral64, params, np.where(np.arange(50) % 3 == 0, 1e-4, 1.0))
    exact = 1e3 * t_u * fibers.vmax <= params.nonlinearity._exact_peak
    assert np.all(exact) if auto_cp else not np.any(exact)
    assert single == [0 if k % 3 == 0 else 1 for k in range(50)]
    assert verify._sign_changes(fibers, t_u, spectral64.n).tolist() == single


def test_sign_sweep_splits_rows_past_the_exact_tail(spectral64, resolved_default):
    # at the automatic cp every fifth sweep starts 1e10 past its root and
    # ends past the guard, beyond the exact tail: those 10 rows go 8 a call
    # with the exp body and the other 40 in one block, and every count
    # still equals that of the row's sweep alone
    params = resolved_default[0]
    past = np.arange(50) % 5 == 1
    fibers, t_u, single = _sign_sweep_fixture(spectral64, params, np.where(past, 1e16, 1.0))
    assert np.array_equal(1e3 * t_u * fibers.vmax > params.nonlinearity._exact_peak, past)
    assert single == [0 if k % 5 == 1 else 1 for k in range(50)]
    assert verify._sign_changes(fibers, t_u, spectral64.n).tolist() == single


def test_adams_check_stops_at_the_first_overflow(spectral64, params_cp2, monkeypatch):
    # with alpha raised until about half the profiles overflow exp, the
    # check fails with the sup over the profiles before the first that
    # overflows, as the loop below (a profile at a time, stopping at the
    # first overflow) reports it
    units = verify._unit_profiles(spectral64, 0.5, 1, 900, 50)
    alpha = 720.0 / np.median(np.abs(units).max(axis=1) ** params_cp2.gamma)
    vol = operator_cache(spectral64, 0.5).rule.vol
    sup, stopped = 0.0, None
    for k, u in enumerate(units):
        with np.errstate(over="raise"):
            try:
                val = float(vol @ np.exp(alpha * np.abs(u) ** params_cp2.gamma))
            except FloatingPointError:
                stopped = k
                break
        sup = max(sup, val)
    assert stopped and 0.0 < sup < math.inf
    monkeypatch.setattr(verify, "adams_constant", lambda beta: alpha)
    check = verify._adams_check(spectral64, params_cp2, 50, 1)[0]
    assert check.status == "fail" and check.margin == sup and check.witness == sup


def test_sign_sweep_skips_zeros():
    # d(t) = t S (1 - (t/r)^4) with S = 1e-310: below about 1e-14 t S
    # underflows to 0, so row 0's sweep opens on zeros, then changes sign
    # once, at its root r = 1e-10; a count of raw neighbours would take the
    # zeros for a change.  Row 1's root lies past its sweep: no change
    fibers = FiberMap(KirchhoffSpec.affine(1.0, 0.0), [1e-310, 1.0], ((6.0, [1e-270, 1e-40]),))
    t_u = np.array([1e-10, 1e-13])
    signs = np.sign(fibers.deriv(t_u, unit=np.geomspace(1e-6, 1e3, 500)))
    assert np.any(signs[0] == 0.0) and not np.any(signs[1] == 0.0)
    assert verify._sign_changes(fibers, t_u, 64).tolist() == [1, 0]


def test_sign_sweep_block_memory(spectral64, resolved_default, monkeypatch):
    # within the exact tail the sign sweep goes 40 rows a call: on verify's
    # 200 directions its traced peak is that of one block, 0.7 MB (about
    # four (40, 500) arrays of doubles), under a bound of 1.6 MB that one
    # call over the 200 rows (2.0 MB) exceeds
    dirs = verify._unit_profiles(spectral64, 0.5, 1, 500, 200)
    fibers = FiberMap.full(spectral64, dirs, resolved_default[0])
    t_u = _drive(fibers)

    def traced():
        tracemalloc.start()
        try:
            counts = verify._sign_changes(fibers, t_u, spectral64.n)
            return tracemalloc.get_traced_memory()[1], counts
        finally:
            tracemalloc.stop()

    peak, counts = traced()
    assert counts.tolist() == [1] * 200
    assert peak <= 1.6e6, peak
    for block in (200,):
        monkeypatch.setattr(verify, "_SIGN_BLOCK", block)
        wider, again = traced()
        assert np.array_equal(again, counts) and wider > 1.6e6, (block, wider)


@pytest.mark.parametrize("auto_cp", [True, False])
def test_stacked_margins_match_one_profile_at_a_time(spectral64, resolved_default, params_cp2, auto_cp):
    # weak-action-fd, projection-fibering-max, projection-coercivity and
    # adams-critical-sampling take their stacks by products of each row's
    # own: each margin equals the one taken a profile at a time, with
    # weak_action, fibering (each direction at t_u, and over t_u times the
    # check's own grid on [0, 3]), ops.rule.norm and vol @ exp, at seeds 5
    # and 1 (the default)
    params = resolved_default[0] if auto_cp else params_cp2
    grid, ops = spectral64, operator_cache(spectral64, 0.5)
    for seed in (5, 1):
        pairs = verify._unit_profiles(grid, 0.5, seed, 200, 100)
        wa = np.array([weak_action(grid, u, phi, params) for u, phi in zip(pairs[0::2], pairs[1::2])])
        shifts = np.array([2.0, 1.0, -1.0, -2.0]) * 1e-5
        stack = pairs[0::2, None, :] + shifts[:, None] * pairs[1::2, None, :]
        j = _energies(ops, stack.reshape(-1, grid.n), params).reshape(-1, 4)
        fd = (-j[:, 0] + 8.0 * j[:, 1] - 8.0 * j[:, 2] + j[:, 3]) / (12.0 * 1e-5)
        checks = {c.name: c for c in verify._energy_checks(grid, params, seed)}
        assert checks["weak-action-fd"].margin == 1e-6 - float(np.max(np.abs(fd - wa) / (1.0 + np.abs(wa)))), seed

        dirs = verify._unit_profiles(grid, 0.5, seed, 500, 200)
        t_u, projected, energies, _ = k4.project(grid, dirs, params)
        peaks = np.array([k4.fibering(grid, u, t, params) for u, t in zip(dirs, t_u)])
        unit = np.linspace(0.0, 3.0, 200)
        sweep_max = [k4.fibering(grid, u, t, params, unit=unit).max() for u, t in zip(dirs, t_u)]
        coer = (0.25 - 1.0 / params.q) * params.kirchhoff.g0
        margin = min(e / (coer * ops.rule.norm(w) ** 2) - 1.0 for e, w in zip(energies.tolist(), projected))
        checks = {c.name: c for c in _projection_checks(grid, params, 200, seed)}
        assert checks["projection-fibering-max"].margin == float(np.min((peaks - sweep_max) / np.abs(peaks))), seed
        assert checks["projection-coercivity"].margin == margin + 1e-9, seed

        alpha = k4.adams_constant(0.5)
        sup = max(float(ops.rule.vol @ np.exp(alpha * np.abs(u) ** params.gamma))
                  for u in verify._unit_profiles(grid, 0.5, seed, 900, 50))
        check = verify._adams_check(grid, params, 50, seed)[0]
        assert check.status == "pass" and check.margin == sup, seed
