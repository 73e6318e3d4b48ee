"""Radial discretization of the unit ball in R^4.

Profiles are radial functions u(r) on (0, 1] under clamped boundary
conditions u(1) = u'(1) = 0, held as their nodal values on a grid: an
array (n,), or a stack (k, n) of k profiles.  Two grid schemes are
provided:

``spectral-even``
    Collocation at Gauss-Radau points of the variable s = r^2 (weight s,
    endpoint s = 1 included, s = 0 excluded).  Smooth radial functions on
    R^4 are smooth in s, so the interpolant is an even polynomial in r and
    the radial Laplacian

        lap u = u'' + (3/r) u' = 4 s U''(s) + 8 U'(s),   u(r) = U(r^2),

    has no singular term at the origin.  Differentiation matrices come
    from barycentric differentiation in extended precision, in O(n^2)
    operations; applied to the quartic dome (1 - r^2)^2, the Laplacian
    errs by at most 0.54 n eps times each row's mass (|lap| dome)_i on
    n = 8..256.

``uniform-fd``
    Nodes i/n.  Five-point finite-difference stencils and a composite
    quadrature that integrates, panel by panel, the quartic through five
    neighboring nodes against exact r^3 moments: both are exact on
    polynomials of degree <= 4 in r.  Kept as an independent cross-check of
    the spectral scheme.

Quadrature weights target radial volume integrals: for a radial integrand
v, int_B v dx = |S^3| * int_0^1 v(r) r^3 dr with |S^3| = 2 pi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SURFACE_3SPHERE",
    "RadialGrid",
    "build_grid",
    "log_weight",
    "weight_values",
    "WeightedRule",
    "weighted_rule",
    "rowwise",
    "ball_integral",
    "lebesgue_norm",
    "full_sobolev_norm",
    "pointwise_bound_coeff",
    "random_clamped_profile",
    "clamped_even_basis",
    "write_profile_csv",
    "read_profile_csv",
]

SURFACE_3SPHERE = 2.0 * np.pi**2  # area of the unit sphere S^3 in R^4

GRID_SCHEMES = ("spectral-even", "uniform-fd")

_MIN_NODES = 8  # fourth-order operator needs a handful of interior nodes


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Immutable radial grid on (0, 1] with quadrature and derivatives.

    nodes        radii r_i, strictly increasing, last node r = 1
    quad_weights weights w_i with sum w_i v(r_i) ~ int_0^1 v(r) r^3 dr
    d1           dense operator mapping nodal values to u'(r_i)
    lap          dense operator for the radial Laplacian u'' + (3/r) u'
    """

    n: int
    scheme: str
    nodes: np.ndarray
    quad_weights: np.ndarray
    d1: np.ndarray
    lap: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "quad_weights", "d1", "lap"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __repr__(self):  # arrays are noise in logs
        return f"RadialGrid(n={self.n}, scheme={self.scheme!r})"


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def _jacobi11(x: np.ndarray, m: int):
    """P_m^(1,1)(x) by the three-term recurrence, and its derivative from
    the Jacobi derivative relation (1 - x^2) P_m' = (m + 1) P_{m-1} - m x P_m."""
    p_prev, p = np.ones_like(x), 2.0 * x
    for k in range(2, m + 1):
        p_prev, p = p, ((2 * k + 1) * (k + 1) * x * p - k * (k + 1) * p_prev) / (k * (k + 2))
    return p, ((m + 1) * p_prev - m * x * p) / (1.0 - x * x)


def _radau_rule(n: int):
    """Gauss-Radau rule for the weight (1 + x) on [-1, 1] with the node x = 1.

    The n - 1 interior nodes are the zeros of P_{n-1}^(1,1): eigenvalues of
    its Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969), polished by
    one Newton step on the recurrence in extended precision.  The weights
    are lambda_j = mu_j / (1 - x_j) with mu_j the Gauss weights of
    (1 - x^2), and the endpoint carries 4 / (n (n + 1)).
    """
    m = n - 1
    k = np.arange(1.0, m)
    off = np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)).astype(np.longdouble)
    # Newton converges quadratically, so one step takes the eigenvalues'
    # ~1e-16 to the longdouble floor: as after three steps, the nodes are
    # within 0.501 ulp of a 50-digit reference (n = 8, 16, 64, 116, 128,
    # 183, 256 and 268)
    p, dp = _jacobi11(x, m)
    x = x - p / dp
    if m % 2:  # P_m is odd: its middle zero is 0, where the step's rounding leaves 1e-36..1e-34
        x[m // 2] = 0.0
    _, dp = _jacobi11(x, m)
    lam = 8.0 * (m + 1) / ((m + 2) * (1.0 - x * x) * dp * dp * (1.0 - x))
    nodes = np.append(x.astype(float), 1.0)
    return nodes, np.append(lam.astype(float), 4.0 / (n * (n + 1)))


def _build_spectral(n: int):
    # The Radau rule integrates polynomials of degree 2n - 2 in x exactly,
    # hence even polynomials of degree 4n - 4 in r.
    x, lam = _radau_rule(n)
    s = (x + 1.0) / 2.0
    r = np.sqrt(s)
    # int_0^1 v r^3 dr = (1/8) int v((x+1)/2) (1+x) dx
    quad = lam / 8.0
    if quad.min() <= 0.0:
        raise RuntimeError(f"non-positive quadrature weight at n={n}")

    # Barycentric differentiation on the nodes x, in extended precision
    # (Berrut & Trefethen, SIAM Rev. 46, 2004; Weideman & Reddy, ACM TOMS
    # 26, 2000): weights w_j = 1 / prod_{k != j} 2 (x_j - x_k), where the
    # factor 2 (the inverse capacity of [-1, 1]) keeps the products from
    # underflowing at any n, then D_ij = (w_j / w_i) / (x_i - x_j) and
    # D2_ij = 2 D_ij (D_ii - 1/(x_i - x_j)) off the diagonal, and each
    # diagonal the negative sum of its row.
    xl = x.astype(np.longdouble)
    sl = s.astype(np.longdouble)
    rl = r.astype(np.longdouble)
    diff = xl[:, None] - xl
    np.fill_diagonal(diff, 0.5)
    w = 1.0 / (2.0 * diff).prod(axis=1)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    dx = w / w[:, None] * inv
    np.fill_diagonal(dx, -dx.sum(axis=1))
    dxx = 2.0 * dx * (np.diag(dx)[:, None] - inv)
    np.fill_diagonal(dxx, 0.0)
    np.fill_diagonal(dxx, -dxx.sum(axis=1))
    ds, dss = 2.0 * dx, 4.0 * dxx  # d/ds, since s = (x + 1)/2
    d1 = (2.0 * rl[:, None] * ds).astype(float)               # u'(r)  = 2 r U'(s)
    lap = (4.0 * sl[:, None] * dss + 8.0 * ds).astype(float)  # u'' + (3/r) u'
    for mat in (d1, lap):  # constants must differentiate to exactly zero
        mat[np.arange(n), np.arange(n)] -= mat.sum(axis=1)
    return r, quad, d1, lap


def _exact_weights(y: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Weights (..., m, c) of the rules on the nodes y (..., m) with
    sum_j w_j y_j^k = moments[k] for k < m, one rule per column of moments
    (..., m, c): each is exact on polynomials of degree < m (the transposed
    Vandermonde system)."""
    return np.linalg.solve(y[..., None, :] ** np.arange(y.shape[-1])[:, None], moments)


def _build_uniform(n: int):
    # Five-node rules exact on quartics, each in the variable y = (x - c)/h
    # about its own center c, with h = 1/n the spacing.
    h = 1.0 / n
    r = np.arange(1, n + 1) / float(n)
    rows = np.arange(n)

    # Stencil of row i, centered at c = r_i: the moments of u'(c) and of
    # u''(c) + (3/c) u'(c) on y^k.  Profiles are even in r, so rows 0 and 1
    # reflect their missing nodes through the origin and fold those weights
    # onto the owner nodes: the stencil stays centered (one-sided
    # differences would lose most of their accuracy against the amplified
    # (3/r) u' term).  The last two rows are one-sided.
    idx = np.minimum(rows - 2, n - 5)[:, None] + np.arange(5)
    owners = np.where(idx < 0, -idx - 1, idx)
    y = (np.where(idx < 0, -r[owners], r[owners]) - r[:, None]) / h
    moments = np.zeros((n, 5, 2))
    moments[:, 1, 0] = 1.0 / h  # y' = 1/h
    moments[:, 1, 1] = 3.0 / (r * h)
    moments[:, 2, 1] = 2.0 / h**2  # (y^2)'' = 2/h^2
    weights = _exact_weights(y, moments)
    d1 = np.zeros((n, n))
    lap = np.zeros((n, n))
    for mat, w in ((d1, weights[..., 0]), (lap, weights[..., 1])):
        np.add.at(mat, (rows[:, None], owners), w)
        mat[rows, rows] -= mat.sum(axis=1)  # constants must differentiate to exactly zero

    # Composite quadrature: panel p, [a, b] = [r_{p-1}, r_p] with r_{-1} = 0,
    # integrates the quartic through five neighboring nodes against the
    # exact moments int_a^b y^k r^3 dr = h^4 int y^k (C + y)^3 dy, C = c/h,
    # c = (a + b)/2.  The leading panel [0, r_0] carries no node and uses
    # the extrapolated quartic.
    idx = np.clip(rows - 2, 0, n - 5)[:, None] + np.arange(5)
    left = np.concatenate([[0.0], r[:-1]])
    c = 0.5 * (left + r)
    ya, yb = ((left - c) / h)[:, None, None], ((r - c) / h)[:, None, None]
    m = np.arange(4)  # (C + y)^3 = sum_m binom(3, m) C^(3-m) y^m
    j = np.arange(5)[:, None] + m + 1
    moments = (np.array([1.0, 3.0, 3.0, 1.0]) * (c / h)[:, None, None] ** (3 - m) * (yb**j - ya**j) / j).sum(axis=-1)
    quad = np.zeros(n)
    np.add.at(quad, idx, h**4 * _exact_weights((r[idx] - c[:, None]) / h, moments[..., None])[..., 0])
    return r, quad, d1, lap


@lru_cache(maxsize=32)
def build_grid(n: int, scheme: str = "spectral-even") -> RadialGrid:
    """Construct a radial grid; deterministic for fixed (n, scheme)."""
    if scheme not in GRID_SCHEMES:
        raise ValueError(f"unknown grid scheme {scheme!r}; choose from {GRID_SCHEMES}")
    if n < _MIN_NODES:
        raise ValueError(f"n={n} is too coarse for a fourth-order operator (need n >= {_MIN_NODES})")
    if scheme == "spectral-even":
        r, quad, d1, lap = _build_spectral(n)
    else:
        r, quad, d1, lap = _build_uniform(n)
    return RadialGrid(n=n, scheme=scheme, nodes=r, quad_weights=quad, d1=d1, lap=lap)


# ---------------------------------------------------------------------------
# weight, integrals and norms
# ---------------------------------------------------------------------------


def log_weight(r: float, beta: float) -> float:
    """Singular logarithmic weight (log(e/r))^beta = (1 - log r)^beta.

    Strictly decreasing in r, equal to 1 at r = 1.  beta = 0 is accepted
    as the degenerate unweighted mode used by closed-form oracles.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {r}")
    _check_beta(beta)
    return float((1.0 - np.log(r)) ** beta)


def _check_beta(beta: float):
    if beta == 0.0:
        return
    if not 0.0 < beta < 1.0:
        raise ValueError(f"weight exponent must lie in (0, 1) (or 0 for the unweighted mode), got {beta}")


def weight_values(grid: RadialGrid, beta: float) -> np.ndarray:
    """Nodal values of the logarithmic weight."""
    _check_beta(beta)
    return (1.0 - np.log(grid.nodes)) ** beta


_ROWWISE_MAX = 16  # the multi-start stacks: starts rows, 8 at the defaults


def rowwise(a: np.ndarray, x: np.ndarray, alone: bool = False):
    """a @ x for nodal values x (n,), or row by row for a stack x (k, n),
    with a a matrix (m, n) or a weight vector (n,).  Up to _ROWWISE_MAX
    rows, or at any height when alone, each row has its own matrix-vector
    product (a stacked matmul) and so the arithmetic of the profile alone,
    bit for bit: a start of a multi-start solve does not depend on the
    others.  Otherwise a taller stack (verify's 200-row stacks) runs one
    BLAS matrix-matrix product, faster there, whose rounding of a row
    depends on the stack by about 1e-16."""
    if x.ndim == 1:
        return a @ x
    if len(x) > _ROWWISE_MAX and not alone:
        return x @ (a.T if a.ndim == 2 else a)
    return np.matmul(a, x[..., None])[..., 0]


class WeightedRule:
    """Quadrature of the weighted space on a grid: volume weights vol_i =
    2 pi^2 q_i (sum_i vol_i v(r_i) ~ int_B v dx) and weighted volume weights
    wvol_i = vol_i w(r_i), with w the logarithmic weight."""

    def __init__(self, grid: RadialGrid, beta: float):
        self.grid = grid
        self.vol = SURFACE_3SPHERE * grid.quad_weights
        self.wvol = self.vol * weight_values(grid, beta)

    def form(self, x: np.ndarray, y: np.ndarray | None = None, alone: bool = False):
        """int_B w (lap x)(lap y) dx of nodal values (n,), or row by row of
        stacks (k, n), each row's alone as rowwise says; y = x gives the
        squared weighted norm."""
        lx = rowwise(self.grid.lap, x, alone)
        ly = lx if y is None else rowwise(self.grid.lap, y, alone)
        return rowwise(self.wvol, lx * ly, alone)

    def norm(self, x: np.ndarray):
        """Weighted norm of nodal values (n,), or of each row of a stack
        (k, n); inf where they overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            s = self.form(x)
        if np.ndim(s):
            return np.sqrt(np.where(np.isfinite(s), s, np.inf))
        return math.sqrt(s) if math.isfinite(s) else math.inf


weighted_rule = lru_cache(maxsize=32)(WeightedRule)  # one rule per (grid, beta)


def ball_integral(grid: RadialGrid, values: np.ndarray) -> float:
    """Integral over the unit ball of R^4 of a radial nodal field."""
    return SURFACE_3SPHERE * float(grid.quad_weights @ values)


def lebesgue_norm(grid: RadialGrid, values: np.ndarray, s: float) -> float:
    """Lebesgue norm |u|_s = (int_B |u|^s dx)^(1/s) on the ball."""
    if s < 1.0:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {s}")
    val = ball_integral(grid, np.abs(values) ** s)
    return float(max(val, 0.0) ** (1.0 / s))


def full_sobolev_norm(grid: RadialGrid, values: np.ndarray, beta: float):
    """Norm with the lower-order terms included:
    (int u^2 + int |grad u|^2 + int w |lap u|^2)^(1/2), |grad u| = |u'|, of
    nodal values (n,), or of each row of a stack (k, n) by products of its
    own: a row's norm is that of the profile alone, bit for bit."""
    du = rowwise(grid.d1, values, alone=True)
    low = SURFACE_3SPHERE * rowwise(grid.quad_weights, values**2 + du**2, alone=True)
    return np.sqrt(np.maximum(low, 0.0) + np.maximum(weighted_rule(grid, beta).form(values, alone=True), 0.0))


def pointwise_bound_coeff(r: float, beta: float) -> float:
    """Coefficient C(r) of the radial pointwise estimate |u(r)| <= C(r) ||u||.

    C(r) = |(log(e/r))^(1-beta) - 1|^(1/2) / (2 sqrt(2) pi sqrt(1-beta)).
    Increases as r decreases and vanishes as r -> 1.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"weight exponent must lie in [0, 1), got {beta}")
    core = abs((1.0 - np.log(r)) ** (1.0 - beta) - 1.0) ** 0.5
    return float(core / (2.0 * np.sqrt(2.0) * np.pi * np.sqrt(1.0 - beta)))


# ---------------------------------------------------------------------------
# clamped profiles
# ---------------------------------------------------------------------------


def _read_only(values) -> np.ndarray:
    """A read-only float copy of nodal values."""
    vals = np.array(values, dtype=float)
    vals.setflags(write=False)
    return vals


def _clamp(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Project each row of a stack (k, n) of nodal values onto the clamped
    subspace u(1) = u'(1) = 0, with a product per row: a row gets the
    arithmetic of its profile alone, bit for bit.

    Subtracts a constant to zero the boundary value and a multiple of
    r^2 - 1 (which vanishes at r = 1) to zero the boundary derivative;
    both corrections are even polynomials, so smoothness is preserved.
    """
    vals = values - values[:, -1:]
    slope = np.matmul(grid.d1[-1], vals[..., None])
    return vals - 0.5 * slope * (grid.nodes**2 - 1.0)


def clamped_even_basis(x: np.ndarray, count: int) -> np.ndarray:
    """Values of the clamped even-Chebyshev basis at x = 2 r^2 - 1.

    phi_k = T_k + a_k T_{k+1} + b_k T_{k+2} with coefficients chosen so
    that phi_k(1) = phi_k'(1) = 0 for every k; columns are phi_0..phi_{count-1}.
    """
    k = np.arange(count)
    a = -4.0 * (k + 1.0) / (2.0 * k + 3.0)
    b = (2.0 * k + 1.0) / (2.0 * k + 3.0)
    x = np.array(x, dtype=float, ndmin=1)
    t = np.empty((count + 2, *x.shape))
    t[0], t[1], x2 = 1.0, x, 2.0 * x
    for i in range(2, count + 2):  # T_i = T_{i-1} 2x - T_{i-2}, in numpy's order
        t[i] = t[i - 1] * x2 - t[i - 2]
    t = np.moveaxis(t, 0, -1)
    return t[..., :count] + a * t[..., 1 : count + 1] + b * t[..., 2 : count + 2]


_PROFILE_MODES = 24  # coefficients of a random clamped profile, fewer on coarse grids


def random_clamped_profile(grid: RadialGrid, rng: np.random.Generator, modes: int | None = None) -> np.ndarray:
    """Random smooth clamped profile with 1/(1+k^2)-decaying coefficients,
    as read-only nodal values (n,).

    The expansion lives in the clamped even-Chebyshev basis of the
    variable 2 r^2 - 1, so the same (seeded) draw represents the same
    underlying function on every grid scheme.
    """
    count = min(modes if modes is not None else _PROFILE_MODES, grid.n - 2)
    return _read_only(_clamped_rows(grid, rng.standard_normal((1, count)))[0])


def _clamped_rows(grid: RadialGrid, normals: np.ndarray) -> np.ndarray:
    """The clamped profiles (k, n) of rows of standard normal coefficients
    (k, modes), each row by products of its own: bit for bit the profile
    of its coefficients alone."""
    decay = 1.0 + np.arange(normals.shape[1]) ** 2
    basis = _profile_basis(grid, normals.shape[1])
    return _clamp(grid, np.matmul(basis, (normals / decay)[..., None])[..., 0])


def _random_clamped_rows(grid: RadialGrid, seed: int, keys, draws: int) -> np.ndarray:
    """Nodal values (len(keys) * draws, n): for each key k in turn, the
    draws profiles that random_clamped_profile draws in a row from the
    generator np.random.default_rng([seed, k]), bit for bit, in one call of
    that generator, so a key's first rows are the same at any draws.
    numpy.random is imported on the first call, not with the module."""
    modes = min(_PROFILE_MODES, grid.n - 2)
    normals = [np.random.default_rng([seed, k]).standard_normal((draws, modes)) for k in keys]
    return _clamped_rows(grid, np.concatenate(normals))


@lru_cache(maxsize=32)
def _profile_basis(grid: RadialGrid, count: int) -> np.ndarray:
    """Read-only clamped even-Chebyshev basis of random_clamped_profile."""
    basis = clamped_even_basis(2.0 * grid.nodes**2 - 1.0, count)
    basis.setflags(write=False)
    return basis


# ---------------------------------------------------------------------------
# profile CSV exchange
# ---------------------------------------------------------------------------


def write_profile_csv(grid: RadialGrid, values: np.ndarray, path) -> None:
    """Write nodal values (n,) as two-column CSV (header "r,u", ascending r)."""
    if np.shape(values) != (grid.n,):
        raise ValueError(f"expected {grid.n} nodal values, got shape {np.shape(values)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("r,u\n")
        for r, val in zip(grid.nodes, values):
            fh.write(f"{r:.17g},{val:.17g}\n")


def read_profile_csv(grid: RadialGrid, path) -> np.ndarray:
    """Read a profile written by write_profile_csv onto a matching grid, as
    read-only nodal values (n,)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (grid.n, 2):
        raise ValueError(f"profile has {data.shape[0]} rows, grid expects {grid.n}")
    if not np.allclose(data[:, 0], grid.nodes, rtol=0.0, atol=1e-12):
        raise ValueError("profile radii do not match the grid nodes")
    return _read_only(data[:, 1])
