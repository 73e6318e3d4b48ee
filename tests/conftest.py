import numpy as np
import pytest

import kirchhoff4 as k4
from kirchhoff4.energy import _nodal_force, _residual_load, operator_cache
from kirchhoff4.nehari import _relative_gradient, _start_stack
from kirchhoff4.radial import weighted_rule
from kirchhoff4.verify import _residual_limit


@pytest.fixture(scope="session")
def spectral64():
    return k4.build_grid(64, "spectral-even")


@pytest.fixture(scope="session")
def spectral32():
    return k4.build_grid(32, "spectral-even")


@pytest.fixture(scope="session")
def fd400():
    return k4.build_grid(400, "uniform-fd")


@pytest.fixture(scope="session")
def params_cp2():
    """Concrete power coefficient: exercises the exponential regime."""
    return k4.default_params(cp=2.0)


@pytest.fixture(scope="session")
def search_default():
    return k4.SearchConfig(starts=8, max_iter=300, tol=1e-6, seed=1)


@pytest.fixture(scope="session")
def resolved_default(spectral64, params_cp2, search_default):
    """Default configuration: cp fixed at 1.1 x its admissibility threshold."""
    params, aux, threshold = k4.resolve_auto_cp(spectral64, params_cp2, search_default)
    return params, aux, threshold


@pytest.fixture(scope="session")
def ground_default(spectral64, resolved_default, search_default):
    params, aux, _ = resolved_default
    return k4.ground_state(spectral64, params, search_default, aux.directions)


def dome_gate_ratio(grid):
    """Node by node, |lap dome - (-16 + 24 r^2)| of the quartic dome
    (1 - r^2)^2 over its gate max(1e-10, 8 eps (|lap| dome)_i): the
    rounding floor of each row's product, and 1e-10 wherever that floor is
    smaller.  Both schemes are exact on the dome, so the gate is met when
    every ratio is at most 1."""
    r = grid.nodes
    dome = (1 - r**2) ** 2
    err = np.abs(grid.lap @ dome - (-16 + 24 * r**2))
    return err / np.maximum(1e-10, 8 * np.finfo(float).eps * (np.abs(grid.lap) @ dome))


def chained_ground_state(grid, params, search):
    """The main solve started where the aux ascent's starts end, as the CLI runs it."""
    return k4.ground_state(grid, params, search, k4.aux_ground_state(grid, params, search).directions)


def random_starts(grid, params, search):
    """The random unit-norm start directions of the aux ascent, one per start."""
    return _start_stack(grid, operator_cache(grid, params.beta), search)


def minimizer_gates(grid, gs, params):
    """Relative gradient ||J'(w)|| / (g(S) ||w||) of a published minimizer and
    the rounding bound of its Nehari residual: both follow the problem's scale."""
    ops = operator_cache(grid, params.beta)
    return _relative_gradient(ops, gs.minimizer, params, gs.gradient_norm), _residual_limit(ops, gs.minimizer, params)


def project_one(grid, u, params):
    """project on the stack of the one direction u: its (t_u, w, energy, residual)."""
    t_u, w, energies, residuals = k4.project(grid, u[None], params)
    return t_u[0], w[0], energies[0], residuals[0]


def sobolev_gradient(ops, values, params):
    """The Riesz image of J'(u) of nodal values (n,) or of each row of a stack
    (k, n), as the main descent forms it."""
    return ops.riesz(_residual_load(ops, values, params, _nodal_force(values, params)))


def unit_profile(grid, beta, seed):
    u = k4.random_clamped_profile(grid, np.random.default_rng(seed))
    return (1.0 / weighted_rule(grid, beta).norm(u)) * u


def weak_action(grid, u, phi, params):
    """<J'(u), phi> = g(||u||^2) int_B w (lap u)(lap phi) dx - int_B force(u) phi dx
    of nodal values (n,), by quadrature: the reference the solver's loads and
    residuals are checked against."""
    rule = weighted_rule(grid, params.beta)
    head = params.kirchhoff.g(rule.form(u)) * rule.form(u, phi)
    return head - rule.vol @ (_nodal_force(u, params) * phi)


class WeakenedNonlinearity(k4.NonlinearitySpec):
    """Violates the lower power bound: f = 0.5 cp |t|^(p-2) t."""

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * self.cp * np.abs(t) ** (self.p - 2.0) * t
