"""The cached z-frame operators and jet products against the routines they stand for."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from blowlab.grid import GridFunction, derivative, laplacian_compact, sample, upwind_gradient
from blowlab.hermite import (
    eval_scaled_hermite,
    hermite_explicit_sum,
    hermite_series,
    hermite_y_table,
    hermite_z_table,
)
from blowlab.operators import nonlinear_values
from blowlab.params import scale_factor
from blowlab.projection import (
    ZRemainder,
    _jet_binomial_power,
    _jet_matrix,
    _nonlinear_increment,
    default_jet_order,
    inner_nodes,
    projected_sources,
    remainder_source,
    z_frame,
)

K = 2


@pytest.fixture(scope="module")
def frame(params3):
    return z_frame(96, default_jet_order(params3.n_modes))


def _inner_values(I):
    # a remainder of weight-scale size with structure on the quadrature support
    z = inner_nodes()
    return 1e-3 * I**-6 * (z**6 - 2.0 * z**3 + np.sin(3.0 * z)) * np.exp(-((z / 8.0) ** 2))


@pytest.mark.parametrize("s", [20.0, 45.0])
def test_z_frame_interpolation_matches_sample(frame, quad96, s):
    I = float(scale_factor(s, K))
    vals = _inner_values(I)
    rem = GridFunction(inner_nodes() / I, vals)
    yq = quad96.nodes / I
    want_r = sample(rem.nodes, vals, yq)
    want_dr = sample(rem.nodes, derivative(vals, rem.spacing), yq)
    rd = frame.SD @ vals
    r, dr = rd[:96], I * rd[96:]
    # the outermost Gauss nodes lie beyond |z| = Z_MAX, where both routes
    # extrapolate the edge cell and roundoff grows with the stencil's weights
    amp = np.sum(np.abs(frame.SD[:96]), axis=1)
    assert np.all(amp[np.abs(quad96.nodes) <= inner_nodes()[-1]] < 1.3)
    assert np.all(np.abs(r - want_r) <= 1e-13 * amp * np.max(np.abs(want_r)))
    assert np.all(np.abs(dr - want_dr) <= 1e-13 * amp * np.max(np.abs(want_dr)))


def test_z_frame_node_operators_match_grid_kernels(frame):
    vals = _inner_values(1.0)
    z = frame.z
    hz = z[1] - z[0]
    want_L = laplacian_compact(vals, hz) - 0.5 * z * upwind_gradient(vals, hz, z) + vals
    assert np.max(np.abs(frame.L @ vals - want_L)) <= 1e-13 * np.max(np.abs(want_L))
    want_d = derivative(vals, hz)
    assert np.max(np.abs(frame.D @ vals - want_d)) <= 1e-13 * np.max(np.abs(want_d))


@pytest.mark.parametrize("s", [20.0, 45.0])
def test_z_frame_table_matches_recurrence(frame, s):
    I = float(scale_factor(s, K))
    want = hermite_z_table(I * (inner_nodes() / I), frame.J)
    rows = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(frame.ztab - want) <= 1e-13 * rows)


@pytest.mark.parametrize("s", [20.0, 45.0])
def test_z_remainder_gives_the_grid_function_results(params3, quad96, frame, s):
    I = float(scale_factor(s, K))
    vals = _inner_values(I)
    modes = np.array([0.3, -0.2, 0.25, 0.1, 0.0, -0.15]) * I**-0.1
    b, bp = 1.1, 0.4
    grid = GridFunction(inner_nodes() / I, vals)
    fast = ZRemainder(frame, vals)
    pg = projected_sources(modes, grid, b, s, params3, quad96)
    pf = projected_sources(modes, fast, b, s, params3, quad96)
    assert np.any(pg.inc != 0.0)
    assert np.max(np.abs(pf.inc - pg.inc)) <= 1e-12 * np.max(np.abs(pg.inc))
    assert np.max(np.abs(pf.Pcoupling - pg.Pcoupling)) <= 1e-14 * np.max(np.abs(pg.Pcoupling))
    want = remainder_source(pg, bp, modes, grid, b, s, params3)
    got = remainder_source(pf, bp, modes, fast, b, s, params3)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_jet_matrix_product_is_truncated_convolution():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=18), rng.normal(size=18)
    assert np.max(np.abs(_jet_matrix(a) @ b - np.convolve(a, b)[:18])) < 1e-14


@pytest.mark.parametrize("p", [3.0, 2.5])
def test_jet_binomial_power_matches_pointwise_power(p):
    # the jet is the Taylor polynomial of (1 + u(y))^p; at |y| <= 0.05 the
    # neglected y^18 tail is far below roundoff
    rng = np.random.default_rng(11)
    u = 0.3 * rng.normal(size=18) / (1.0 + np.arange(18))
    u[0] = 0.2
    y = np.linspace(-0.05, 0.05, 41)
    want = (1.0 + P.polyval(y, u)) ** p
    got = P.polyval(y, _jet_binomial_power(u, p))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        _jet_binomial_power(np.concatenate(([-1.5], u[1:])), p)


@pytest.mark.parametrize("s", [20.0, 28.0])
def test_outer_basis_table_matches_hermite_evaluators(params3, s):
    y = np.linspace(-0.15, 0.15, 257)
    n_modes = params3.n_modes
    H = hermite_y_table(y, n_modes - 1, s, K)
    for n in range(n_modes):
        want = hermite_explicit_sum(n, y, s, K)
        assert np.max(np.abs(H[n] - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(H[n] - eval_scaled_hermite(n, y, s, K))) <= 1e-13 * np.max(np.abs(want))
    # the stage's three basis sums, and the derivative rule d/dy H_n = n H_{n-1}
    modes = np.array([0.3, -0.2, 0.25, 0.1, 0.0, -0.15])
    series = hermite_series(modes, y, s, K)
    assert np.max(np.abs(modes @ H - series)) <= 1e-15 * np.max(np.abs(series))
    dq = (modes[1:] * np.arange(1, n_modes)) @ H[:-1]
    want_dq = sum(modes[n] * n * hermite_explicit_sum(n - 1, y, s, K) for n in range(1, n_modes))
    assert np.max(np.abs(dq - want_dq)) <= 1e-13 * np.max(np.abs(want_dq))


@pytest.mark.parametrize("p", [3.0, 2.5])
def test_nonlinear_increment_matches_difference_of_sources(p):
    # where r is not small against q_+ the direct difference loses nothing
    rng = np.random.default_rng(5)
    qp = rng.uniform(-0.4, 0.4, size=50)
    r = rng.uniform(-0.2, 0.2, size=50)
    e = rng.uniform(0.3, 0.5, size=50)
    want = nonlinear_values(qp + r, e, p) - nonlinear_values(qp, e, p)
    assert np.max(np.abs(_nonlinear_increment(qp, r, e, p) - want)) <= 1e-14
