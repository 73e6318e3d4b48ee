import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import kirchhoff4 as k4
from kirchhoff4.model import (
    _KUMMER_BINS,
    KirchhoffSpec,
    NonlinearitySpec,
    RangeOverflowError,
    _kummer,
    _kummer_tables,
    params_to_dict,
)
from kirchhoff4.verify import check_hypotheses

from conftest import WeakenedNonlinearity


def test_kirchhoff_affine_values():
    spec = KirchhoffSpec.affine(1.0, 1.0)
    assert spec.g(2.0) == 3.0
    assert spec.G(2.0) == 4.0
    assert spec.G(0.0) == 0.0


def test_kirchhoff_log_type():
    spec = KirchhoffSpec.log_type()
    assert spec.g(0.0) == 1.0
    assert abs(spec.G(2.0) - 3.0 * math.log(3.0)) < 1e-14
    # derivative of G matches g
    for t in np.linspace(0.0, 10.0, 41):
        h = 1e-6 * (1 + t)
        fd = (spec.G(t + h) - spec.G(max(t - h, 0.0))) / (h + min(t, h))
        assert abs(fd - spec.g(t)) < 1e-6 * (1 + abs(fd))


def test_kirchhoff_G_derivative_matches_g():
    for spec in (KirchhoffSpec.affine(1.0, 1.0), KirchhoffSpec.affine(0.5, 2.0), KirchhoffSpec.log_type()):
        for t in np.linspace(0.05, 10.0, 60):
            h = 1e-5 * (1 + t)
            fd = (spec.G(t + h) - spec.G(t - h)) / (2 * h)
            g = spec.g(t)
            assert abs(fd - g) <= 1e-8 * (1 + abs(g)), (spec.kind, t)


def test_kirchhoff_superadditivity_identity():
    spec = KirchhoffSpec.affine(1.0, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        s, t = rng.uniform(0, 10, 2)
        gap = spec.G(s + t) - spec.G(s) - spec.G(t)
        assert abs(gap - s * t) < 1e-10 * (1 + s * t)  # algebraic identity for a = 1
        assert gap >= 0.0


def test_kirchhoff_rejects():
    with pytest.raises(ValueError):
        KirchhoffSpec.affine(0.0, 1.0)
    with pytest.raises(ValueError):
        KirchhoffSpec.affine(1.0, -1.0)
    with pytest.raises(ValueError):
        KirchhoffSpec.affine(1.0, 1.0).G(-1.0)


def test_nonlinearity_point_value():
    spec = NonlinearitySpec(cp=2.0, p=6.0, alpha0=1.0, gamma=4.0)
    expect = 2 * 0.5**5 + 0.5**5 * math.exp(0.5**4)
    assert abs(spec.f(0.5) - expect) < 1e-15
    assert abs(spec.f(0.5) - 0.09576) < 1e-4
    assert spec.f(0.0) == 0.0
    assert spec.F(0.0) == 0.0


def test_nonlinearity_oddness_evenness():
    spec = NonlinearitySpec(cp=2.0, p=6.0, alpha0=1.0, gamma=4.0)
    ts = np.geomspace(1e-4, 4.0, 60)
    assert np.array_equal(spec.f(-ts), -spec.f(ts))
    assert np.array_equal(spec.F(-ts), spec.F(ts))


def test_nonlinearity_degenerate_polynomial_mode():
    spec = NonlinearitySpec(cp=3.0, p=6.0, alpha0=0.0, gamma=4.0)
    for t in (0.3, 1.7, -2.2):
        assert abs(spec.F(t) - (3.0 + 1.0) * abs(t) ** 6 / 6.0) < 1e-14 * (1 + abs(t) ** 6)


def test_F_prime_is_f():
    spec = NonlinearitySpec(cp=2.0, p=6.0, alpha0=1.0, gamma=4.0)
    ts = np.geomspace(1e-2, 3.5, 200)
    for t in ts:
        h = 1e-6 * (1 + t)
        fd = (spec.F(t + h) - spec.F(t - h)) / (2 * h)
        assert abs(fd - spec.f(t)) < 1e-6 * (1 + abs(fd))


def test_exp_primitive_vector_matches_scalar_quadrature():
    spec = NonlinearitySpec(cp=2.0, p=6.0, alpha0=1.0, gamma=4.0)
    ts = np.array([1e-3, 0.2, 0.8, 1.9, 3.1, 4.4])
    vec = spec.F(ts)
    for t, v in zip(ts, vec):
        with mpmath.workdps(30):
            ref = float(mpmath.quad(lambda s: s**5 * mpmath.exp(s**4), [0.0, t]))
        ref += 2.0 * t**6 / 6.0
        assert abs(v - ref) <= 1e-9 * (1 + abs(ref)), t


@pytest.mark.parametrize(
    "p, beta, alpha0",
    [(4.0002, 0.9, 1.0), (6.0, 0.5, 1.0), (6.0, 0.5, 37.0), (20.0, 0.9, 1.0), (20.0, 0.99, 1.0), (4.0002, 0.99, 1.0)],
)
def test_exp_primitive_closed_form_matches_mpmath(p, beta, alpha0):
    # 50-digit reference from the termwise integral of the exponential series:
    # E(T) = (T^p/p) 1F1(a; a+1; X), a = p/gamma, X = alpha0 T^gamma
    mpmath = pytest.importorskip("mpmath")
    spec = NonlinearitySpec(cp=0.0, p=p, alpha0=alpha0, gamma=k4.growth_exponent(beta))
    guard = spec.guard_scale()
    lo = max(1e-30, (p * 1e-290) ** (1.0 / p))  # T^p/p stays a normal double
    # scales straddling X = eps/4, below which F skips the 1F1 factor
    unit = (np.finfo(float).eps / (4.0 * alpha0)) ** (1.0 / spec.gamma) * np.array([1.0 - 1e-3, 1.0 + 1e-3])
    ts = np.concatenate(
        [np.geomspace(lo, guard, 40), unit, guard * (1.0 - np.array([1e-12, 1e-13])), [np.nextafter(guard, 0.0)]]
    )
    ts = ts[alpha0 * ts**spec.gamma <= 700.0]
    assert ts[0] <= 1e-14 and guard - ts[-1] <= 1e-12 * guard
    with mpmath.workdps(50):
        a = mpmath.mpf(p) / mpmath.mpf(spec.gamma)
        for t, v in zip(ts, spec.F(ts)):
            T = mpmath.mpf(float(t))
            ref = T**p / p * mpmath.hyp1f1(a, a + 1, alpha0 * T ** mpmath.mpf(spec.gamma))
            assert abs((v - ref) / ref) <= 1e-12, t
    assert spec.F(np.array([0.0]))[0] == 0.0


@pytest.mark.parametrize("a", [k4.default_params().p / k4.default_params().gamma, 0.25, 5.0])
def test_kummer_factor_matches_mpmath(a):
    # F = (t^p/p) 1F1(a; a+1; X) with X = t^gamma at cp = 0 and alpha0 = 1;
    # X straddles every switch of the evaluation: eps/4 (below it the factor
    # is taken as 1), 1/8 (the centre of the first Taylor bin), the edges of
    # the Taylor bins, and the start of the asymptotic series
    # (40, or 41 for a = 0.25).  Each X is evaluated alone and in one array.
    gamma = 10.0
    spec = NonlinearitySpec(cp=0.0, p=a * gamma, alpha0=1.0, gamma=gamma)
    edges = np.concatenate(
        [[np.finfo(float).eps / 4.0, 1.0 / 8.0], np.arange(1, 42 * _KUMMER_BINS + 1) / _KUMMER_BINS]
    )
    targets = np.concatenate([edges * (1.0 - 1e-12), edges, edges * (1.0 + 1e-12), np.geomspace(1e-16, 650.0, 40)])
    ts = targets ** (1.0 / gamma)
    xs = ts**gamma  # the exponential argument as F forms it
    prefactor = ts**spec.p / spec.p
    alone = np.array([spec.F(np.array([t]))[0] for t in ts]) / prefactor
    together = spec.F(ts) / prefactor
    with mpmath.workdps(50):
        ref = np.array([float(mpmath.hyp1f1(a, a + 1, mpmath.mpf(float(x)))) for x in xs])
    for factor in (alone, together):
        err = np.abs(factor / ref - 1.0)
        assert err.max() <= 1e-13, (xs[err.argmax()], err.max())


@pytest.mark.parametrize("a", [0.25, 1.2, 5.0, 60.0])
def test_kummer_asymptotic_series_matches_numpy_polyval(a):
    # the Horner loop in numpy's own order: bit for bit its polyval
    _, asym, switch = _kummer_tables(a)
    x = np.random.default_rng(3).uniform(switch, 15.0 * switch, 400)
    with np.errstate(over="ignore"):
        inv = 1.0 / x
        ref = a * np.exp(x) * inv * np.polynomial.polynomial.polyval(switch * inv, asym)
        assert np.array_equal(_kummer(a, x), ref)


def test_overflow_guard():
    spec = NonlinearitySpec(cp=2.0, p=6.0, alpha0=1.0, gamma=4.0)
    edge = (700.0) ** 0.25
    spec.f(edge * 0.999)  # inside the guard
    with pytest.raises(RangeOverflowError):
        spec.f(edge * 1.01)
    with pytest.raises(RangeOverflowError):
        spec.F(edge * 1.01)


def _general_tail(spec, t):
    """(F, f) through their exponential expressions, every exp and every
    1F1 factor above eps/4 taken."""
    at = np.abs(t)
    arg = spec.alpha0 * at**spec.gamma
    head = at ** (spec.p - 2.0) * t
    factor = np.ones_like(arg)
    big = arg > np.finfo(float).eps / 4.0
    if big.any():
        factor[big] = _kummer(spec.p / spec.gamma, arg[big])
    at_p = at**spec.p
    return (
        spec.cp * at_p / spec.p + at_p / spec.p * factor,
        spec.cp * head + head * np.exp(arg),
    )


@pytest.mark.parametrize("cp, beta", [(2.0, 0.5), (5.7e77, 0.5), (2.0, 0.9), (2.0, 0.99)])
def test_pure_power_tail_is_the_general_expression(cp, beta):
    # where the largest argument is at most eps / (4 max(1, gamma)), F and f
    # skip the exponential: bit for bit the general expressions, on stacks
    # whose peak lies below, at and just above the bound, and on a stack of
    # tiny rows with one O(1) row
    spec = NonlinearitySpec(cp=cp, p=6.0, alpha0=1.0, gamma=k4.growth_exponent(beta))
    bound = np.finfo(float).eps / (4.0 * max(1.0, spec.gamma))

    at = spec._exact_peak  # the peak whose argument is the bound, to rounding
    assert abs(spec.alpha0 * at**spec.gamma / bound - 1.0) <= 1e-12
    rng = np.random.default_rng(3)
    stacks = []
    for peak in (1e-3 * at, 0.5 * at, at, np.nextafter(at, 1.0), 1.01 * at):
        rows = peak * rng.uniform(-1.0, 1.0, (3, 20))
        rows[1, 7] = -peak
        stacks.append(rows)
    mixed = 1e-20 * rng.uniform(-1.0, 1.0, (4, 20))
    mixed[2] = rng.uniform(-1.0, 1.0, 20) * spec.guard_scale()
    stacks += [mixed, np.array(0.5 * at), np.zeros((2, 5))]
    for rows in stacks:
        peak = np.abs(rows).max(initial=0.0)
        assert (spec._tail_arg(np.abs(rows)) is None) == (peak <= at)
        for got, want in zip((spec.F(rows), spec.f(rows)), _general_tail(spec, rows)):
            assert np.array_equal(got, want), (peak, got - want)
    assert spec._tail_arg(np.array([at])) is None and spec._tail_arg(np.array([np.nextafter(at, 1.0)])) is not None


def test_tail_peak_past_the_guard_raises_at_steep_growth():
    # gamma = 200: the peak's power overflows a double from |t| = 35 on; the
    # peak test reads that as past the guard, a RangeOverflowError and no
    # OverflowError, and inside the guard no warning
    spec = NonlinearitySpec(cp=2.0, p=6.0, alpha0=1.0, gamma=k4.growth_exponent(0.99))
    inside = np.array([0.5, -0.99]) * spec.guard_scale()
    for kernel in (spec.F, spec.f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(kernel(inside)))
        for t in (1.01 * spec.guard_scale(), 40.0, 1e300, np.inf):
            with pytest.raises(RangeOverflowError), np.errstate(over="ignore"):
                kernel(np.array([0.1, -t]))


def test_adams_constant():
    assert abs(k4.adams_constant(0.5) - 64 * np.pi**4) < 1e-9
    # continuity with the unweighted threshold as beta -> 0+
    assert abs(k4.adams_constant(1e-9) - 32 * np.pi**2) < 1e-5
    with pytest.raises(ValueError):
        k4.adams_constant(0.0)
    with pytest.raises(ValueError):
        k4.adams_constant(1.0)


def test_adams_constant_precision():
    import mpmath as mp

    mp.mp.dps = 30
    for beta in (0.25, 0.5, 0.75):
        ref = 4 * (8 * mp.pi**2 * (1 - beta)) ** (1 / mp.mpf(1 - beta))
        assert abs(k4.adams_constant(beta) - float(ref)) < 1e-12 * float(ref)


def test_growth_exponent():
    assert k4.growth_exponent(0.5) == 4.0
    assert k4.growth_exponent(0.0) == 2.0
    assert k4.growth_exponent(0.75) == 8.0
    with pytest.raises(ValueError):
        k4.growth_exponent(1.0)


def test_params_validation():
    p = k4.default_params()
    assert p.theta == p.p


def test_params_to_dict_keys():
    d = params_to_dict(k4.default_params(cp=3.7))
    assert set(d) == {
        "beta", "q", "p", "Cp", "alpha0", "delta",
        "kirchhoff.kind", "kirchhoff.g0", "kirchhoff.a",
    }


def test_hypotheses_default_pass(params_cp2):
    report = check_hypotheses(params_cp2, 200)
    assert report.overall, [c.name for c in report.failed()]


def test_hypotheses_resolved_cp_pass(resolved_default):
    params, _, _ = resolved_default
    report = check_hypotheses(params, 200)
    assert report.overall, [c.name for c in report.failed()]


def test_hypotheses_log_kirchhoff(params_cp2):
    p = k4.ModelParams.create(0.5, 5.0, 6.0, 2.0, 1.0, 0.1, KirchhoffSpec.log_type())
    report = check_hypotheses(p, 150)
    assert report.overall, [c.name for c in report.failed()]


def test_hypotheses_detect_weakened_cp(params_cp2):
    broken = WeakenedNonlinearity(cp=2.0, p=6.0, alpha0=1.0, gamma=4.0)
    params = k4.ModelParams(
        beta=0.5, q=5.0, p=6.0, delta=0.1,
        kirchhoff=KirchhoffSpec.affine(1.0, 1.0), nonlinearity=broken,
    )
    report = check_hypotheses(params, 150)
    assert report["hyp-f-dominates-cp-power"].status == "fail"


class _ZeroAtOneSample(NonlinearitySpec):
    """F that reads 0 at one interior sample of an array of magnitudes."""

    def F(self, t):
        out = np.array(super().F(t))
        if out.ndim:
            out[out.size // 2] = 0.0
        return out


@pytest.mark.parametrize("p", [54.0, 60.0])
def test_hypotheses_pass_at_large_p(p):
    # from p = 52 on, F(1e-6) = (cp + 1) 1e-6^p / p underflows to 0; the
    # samples start at tiny^(1/p), where F is still positive
    params = k4.ModelParams.create(0.5, 5.0, p, 2.0, 1.0, 0.1, KirchhoffSpec.affine(1.0, 1.0))
    report = check_hypotheses(params, 200)
    assert report.overall, [c.name for c in report.failed()]
    # a zero of F inside the sampled range still fails the check
    broken = k4.ModelParams(
        beta=0.5, q=5.0, p=p, delta=0.1, kirchhoff=params.kirchhoff,
        nonlinearity=_ZeroAtOneSample(cp=2.0, p=p, alpha0=1.0, gamma=4.0),
    )
    assert check_hypotheses(broken, 200)["hyp-F-positive"].status == "fail"


class _CubicKirchhoff(KirchhoffSpec):
    """g(t) = g0 + a t^2: h = G/2 - g t/4 = g0 t/4 - a t^3/12 decreases from
    t = sqrt(g0/a) on and is negative past sqrt(3 g0/a)."""

    def g(self, t):
        return self.g0 + self.a * np.asarray(t, dtype=float) ** 2

    def G(self, t):
        t = np.asarray(t, dtype=float)
        return self.g0 * t + self.a * t**3 / 3.0


@pytest.mark.parametrize("alpha0", [1.0, 1e-300])
def test_hypotheses_half_G_minus_quarter_gt_at_its_rounding_floor(alpha0):
    # alpha0 = 1e-300 samples the Kirchhoff side up to ~3e50; from t ~ 1/(a eps)
    # on, h = G/2 - g t/4 = g0 t/4 of affine g is below the rounding of its
    # two terms, which read -1 and 0 as plain margins (witness 2.7e16)
    params = k4.ModelParams.create(0.5, 5.0, 6.0, 2.0, alpha0, 0.1, KirchhoffSpec.affine(1.0, 1.0))
    report = check_hypotheses(params, 200)
    assert report.overall, [c.name for c in report.failed()]
    # a g whose h decreases and turns negative fails both, at either range
    broken = replace(params, kirchhoff=_CubicKirchhoff.affine(1.0, 1.0))
    report = check_hypotheses(broken, 200)
    for name in ("hyp-half-G-minus-quarter-gt-nondecreasing", "hyp-half-G-minus-quarter-gt-positive"):
        assert report[name].status == "fail" and report[name].margin < 0.0, report[name]


def test_hypotheses_sample_count_guard(params_cp2):
    with pytest.raises(ValueError):
        check_hypotheses(params_cp2, 50)


def test_superlinearity_margin_positive(params_cp2):
    # p E(t) <= t^p exp(alpha0 t^gamma): strict inequality checked by quadrature
    spec = params_cp2.nonlinearity
    for t in np.geomspace(0.1, 4.0, 30):
        lhs = params_cp2.p * (spec.F(t) - spec.cp * t**6 / 6.0)
        rhs = t**6 * math.exp(t**4)
        assert lhs <= rhs * (1 + 1e-12)
