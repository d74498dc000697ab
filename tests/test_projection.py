"""The cached z-frame operators, per-scale-time tables and jet products against
the routines they stand for."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from blowlab.grid import GridFunction, derivative, laplacian_compact, sample, upwind_gradient
from blowlab.hermite import (
    _projector,
    eval_scaled_hermite,
    gauss_rule,
    hermite_explicit_sum,
    hermite_series,
    hermite_z_table,
    project_modes_from_samples,
    quad_hermite_table,
)
from blowlab.operators import nonlinear_values
from blowlab.params import NodePowers, alpha_consts, node_powers, scale_factor
from blowlab.projection import (
    _basis_structure,
    _increments,
    _jet_binomial_power,
    _legendre_rule,
    _nonlinear_increment,
    _toeplitz_index,
    default_jet_order,
    inner_nodes,
    monomial_table,
    projected_sources,
    remainder_source,
    scale_tables,
    z_frame,
)

K = 2


@pytest.fixture(scope="module")
def frame(params3):
    return z_frame(params3)


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
    rd = frame.sdd(vals)
    r, dr = rd[:96], I * rd[96:192]
    # the outermost Gauss nodes lie beyond |z| = Z_MAX, where both routes
    # extrapolate the edge cell and roundoff grows with the stencil's weights
    amp = np.sum(np.abs(frame.weights[:, :96]), axis=0)
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
    assert np.max(np.abs(frame.sdd(vals)[192:] - want_d)) <= 1e-13 * np.max(np.abs(want_d))


@pytest.mark.parametrize("s", [20.0, 45.0])
def test_z_frame_table_matches_recurrence(params3, frame, s):
    # h_0..h_J at the inner nodes are the frame table's columns after the
    # 96 Gauss nodes: H_n(z / I, s) = I^{-n} h_n(z)
    J = default_jet_order(params3.n_modes)
    I = float(scale_factor(s, K))
    want = hermite_z_table(I * (inner_nodes() / I), J)
    rows = np.max(np.abs(want), axis=1, keepdims=True)
    table = frame.htab[:, 96:]
    assert table.shape == want.shape
    assert np.all(np.abs(table - want) <= 1e-13 * rows)
    assert not table.flags.writeable and z_frame(params3) is frame


@pytest.mark.parametrize("s", [20.0, 45.0])
def test_inner_values_give_the_grid_function_results(params3, quad96, s):
    # a GridFunction on the frame's nodes z / I is read as its values: it
    # gives the values array's results bit for bit
    I = float(scale_factor(s, K))
    vals = _inner_values(I)
    modes = np.array([0.3, -0.2, 0.25, 0.1, 0.0, -0.15]) * I**-0.1
    b, bp = 1.1, 0.4
    grid = GridFunction(inner_nodes() / I, vals)
    pg = projected_sources(modes, grid, b, s, params3, quad96)
    pf = projected_sources(modes, vals, b, s, params3, quad96)
    assert np.any(pg.inc != 0.0)
    for name in ("jets", "inc", "zinc"):
        assert _same(getattr(pf, name), getattr(pg, name)), name
    want = remainder_source(pg, bp, modes, grid, b, s, params3)
    got = remainder_source(pf, bp, modes, vals, b, s, params3)
    assert _same(got, want)
    # the frame's Gauss rule has 96 nodes: a non-zero remainder with another
    # rule is refused, a zero one needs no frame and gives its jets
    quad64 = gauss_rule(64)
    for rem in (vals, grid):
        with pytest.raises(ValueError, match="order 96, not 64"):
            projected_sources(modes, rem, b, s, params3, quad64)
    for zero in (np.zeros_like(vals), GridFunction(grid.nodes, np.zeros_like(vals))):
        p64 = projected_sources(modes, zero, b, s, params3, quad64)
        assert _same(p64.jets, pg.jets) and not p64.inc.any() and p64.zinc is None
    # a non-zero remainder on any other nodes has no route to the projections
    for nodes in (inner_nodes() / (1.001 * I), np.linspace(-0.3, 0.3, 193)):
        off = GridFunction(nodes, vals)
        assert off.values is pg.values  # so remainder_source gets past the pairing check
        with pytest.raises(ValueError, match="inner_nodes"):
            projected_sources(modes, off, b, s, params3, quad96)
        with pytest.raises(ValueError, match="inner_nodes"):
            remainder_source(pg, bp, modes, off, b, s, params3)


def test_jet_matrix_product_is_truncated_convolution():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=18), rng.normal(size=18)
    # a jet kept with one trailing zero gathers into its Toeplitz matrix
    T = np.concatenate((a, [0.0]))[_toeplitz_index(17)]
    assert np.max(np.abs(T @ b - np.convolve(a, b)[:18])) < 1e-14


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
    H = np.array([eval_scaled_hermite(n, y, s, K) for n in range(n_modes)])
    for n in range(n_modes):
        want = hermite_explicit_sum(n, y, s, K)
        assert np.max(np.abs(H[n] - want)) <= 1e-13 * np.max(np.abs(want))
    # three basis sums of a series, and the derivative rule d/dy H_n = n H_{n-1}
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
    assert np.max(np.abs(_nonlinear_increment(e * qp, e * r, p) - want)) <= 1e-14


def test_nonlinear_increment_takes_the_fewest_exact_nodes():
    # for integer p the t-integrand is a polynomial of degree p - 1, which
    # ceil(p / 2) nodes integrate exactly; other exponents keep 8 nodes
    assert [_legendre_rule(p)[0].size for p in (2.0, 3.0, 4.0, 5.0, 16.0)] == [1, 2, 2, 3, 8]
    assert _legendre_rule(2.5)[0].size == 8 and _legendre_rule(17.0)[0].size == 8
    rng = np.random.default_rng(9)
    qp = rng.uniform(-0.4, 0.4, size=200)
    r = rng.uniform(-0.2, 0.2, size=200)
    e = rng.uniform(0.3, 0.5, size=200)
    t8, w8 = np.polynomial.legendre.leggauss(8)
    x = e * qp + 0.5 * (t8[:, None] + 1.0) * (e * r)
    want = 3.0 * (e * r) * ((0.5 * w8) @ np.expm1(2.0 * np.log1p(x)))
    got = _nonlinear_increment(e * qp, e * r, 3.0)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    t, w = _legendre_rule(3.0)
    assert not t.flags.writeable and not w.flags.writeable and _legendre_rule(3.0)[0] is t


def _same(a, b) -> bool:
    """Equal bit for bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("s", [20.0, 20.005, 45.0])
def test_scale_tables_equal_the_routines_they_replace(params3, frame, s):
    n, J = params3.n_modes, default_jet_order(params3.n_modes)
    tab = scale_tables(s, params3)
    I = float(scale_factor(s, K))
    assert tab.I == I and tab.I2inv == I**-2 and tab.i2k == I**-4
    # each call site used to build these for itself
    assert _same(tab.iexp, I ** (-np.arange(J + 1, dtype=float)))
    assert _same(tab.iexp[:n], I ** -np.arange(n, dtype=float))
    norms = 2.0 ** np.arange(n) * np.array([float(math.factorial(i)) for i in range(n)])
    assert _same(tab.proj_scale, I ** np.arange(n) / norms)
    hc, he = _basis_structure(J)
    assert _same(tab.conv, hc[:n] * (I**-2) ** he[:n])  # the modes-to-jet table
    assert _same(tab.mono, monomial_table(I**-2, J))
    # both gather the powers of I^{-2}: each equals its elementwise power form
    assert _same(tab.mono, np.abs(hc) * (I**-2) ** he)
    # one cached copy serves every caller, so none may write to it
    assert not any(a.flags.writeable for a in (tab.iexp, tab.conv, tab.mono, tab.proj_scale))
    assert scale_tables(s, params3) is tab


@pytest.mark.parametrize("s", [20.0, 20.005, 45.0])
def test_scale_tables_hold_no_array_at_the_nodes(params3, s):
    # the arrays at the Gauss and the inner nodes do not depend on s
    J = default_jet_order(params3.n_modes)
    tab = scale_tables(s, params3)
    for name, entry in tab._asdict().items():
        assert max(np.shape(entry), default=0) <= J + 1, name


def test_node_tables_are_built_once(params3, quad96, frame):
    J = default_jet_order(params3.n_modes)
    z = np.concatenate((quad96.nodes, inner_nodes()))
    assert all(_same(x, y) for x, y in zip(frame.pw, node_powers(z, K)))
    assert _same(frame.htab, hermite_z_table(z, J))
    assert _same(frame.htab[:, :96], quad_hermite_table(quad96, J))
    assert _same(frame.htab[:, 96:], hermite_z_table(inner_nodes(), J))
    # projected_sources' convergence guard reads the largest Gauss node as the last
    assert quad96.nodes[-1] == float(np.max(np.abs(quad96.nodes)))
    assert not any(a.flags.writeable for a in (*frame.pw, frame.htab))
    assert z_frame(params3) is frame


def _inputs(params3, frame, s):
    I = float(scale_factor(s, K))
    vals = _inner_values(I)
    modes = np.array([0.3, -0.2, 0.25, 0.1, 0.0, -0.15]) * I**-0.1
    return I, vals, modes, 1.1


@pytest.mark.parametrize("s", [20.0, 20.005, 45.0])
def test_folded_increments_equal_the_explicit_y_route(params3, frame, s):
    # the increments from the powers of z and the scalar I^{-2k}, against
    # the same sources written out at y = z / I
    n, p, k = params3.n_modes, params3.p, K
    I, vals, modes, b = _inputs(params3, frame, s)
    tab = scale_tables(s, params3)
    rd = frame.sdd(vals)
    r, drz = np.concatenate((rd[:96], vals)), rd[96:]
    qp = (modes * tab.iexp[:n]) @ frame.htab[:n]
    got = _increments(qp, r, drz, frame.pw, b, tab, params3)
    y = frame.pw.y / I
    e = 1.0 / (p - 1.0 + b * y**4)
    a = alpha_consts(b, params3)
    want = np.array([
        _nonlinear_increment(e * qp, e * r, p),
        -4.0 * p * k * b / (p - 1.0) * I**-2 * e * y**3 * (I * drz),
        I**-2 * y**2 * e * (a.alpha3 + a.alpha4 * y**4 * e) * r,
        p / (p - 1.0) * y**4 * e * r,
        y**4 * e * r,
    ])
    for row, (g, w) in enumerate(zip(got, want)):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), row


@pytest.mark.parametrize("s", [20.0, 45.0])
def test_fused_increments_equal_separate_evaluations(params3, quad96, frame, s):
    n = params3.n_modes
    tab = scale_tables(s, params3)
    I, vals, modes, b = _inputs(params3, frame, s)
    rd = frame.sdd(vals)
    scaled = modes * tab.iexp[:n]
    qpq = scaled @ quad_hermite_table(quad96, n - 1)
    qpi = scaled @ hermite_z_table(frame.z, n - 1)
    gauss_pw = NodePowers(*(a[:96] for a in frame.pw))
    inner_pw = NodePowers(*(a[96:] for a in frame.pw))
    args = (b, tab, params3)
    gauss = _increments(qpq, rd[:96], rd[96:192], gauss_pw, *args)
    inner = _increments(qpi, vals, rd[192:], inner_pw, *args)
    fused = _increments(
        scaled @ frame.htab[:n], np.concatenate((rd[:96], vals)), rd[96:], frame.pw, *args,
    )
    assert _same(fused[:, :96], gauss)
    assert _same(fused[:, 96:], inner)
    proj = projected_sources(modes, vals, b, s, params3, quad96)
    assert _same(proj.zinc, inner[:4])


@pytest.mark.parametrize("s", [20.0, 45.0])
def test_remainder_source_reads_the_carried_rows(params3, quad96, frame, s):
    n = params3.n_modes
    I, vals, modes, b = _inputs(params3, frame, s)
    tab = scale_tables(s, params3)
    proj = projected_sources(modes, vals, b, s, params3, quad96)
    bp = proj.bprime(params3)
    got = remainder_source(proj, bp, modes, vals, b, s, params3)
    # the same source with the increments evaluated at the inner nodes alone
    inner_pw = NodePowers(*(a[96:] for a in frame.pw))
    ztab = hermite_z_table(inner_nodes(), default_jet_order(n))
    incs = _increments(
        (modes * tab.iexp[:n]) @ ztab[:n], vals, frame.sdd(vals)[192:], inner_pw, b, tab,
        params3,
    )
    w = np.array([1.0, 1.0, 1.0, bp])
    coef = np.concatenate((-(w @ proj.inc[:4]), w @ proj.jets[:4, n:]))
    want = (coef * tab.iexp) @ ztab + w @ incs[:4]
    assert _same(got, want)
    # the rows belong to the remainder they were evaluated for
    for other in (vals.copy(), GridFunction(inner_nodes() / I, vals.copy())):
        with pytest.raises(ValueError, match="on this remainder"):
            remainder_source(proj, bp, modes, other, b, s, params3)


@pytest.mark.parametrize("n_modes", [4, 6])
def test_cached_projector_equals_the_table_route(quad96, n_modes):
    rng = np.random.default_rng(3)
    f = rng.normal(size=(5, 96))
    scale = rng.uniform(0.5, 2.0, size=n_modes)
    got = project_modes_from_samples(f, 20.0, K, n_modes, quad96, scale=scale)
    # the weights w_i h_n(z_i) / sqrt(4 pi), written out from the table
    table = quad_hermite_table(quad96, n_modes - 1)
    weights = quad96.weights[:, None] * table.T / math.sqrt(4.0 * math.pi)
    want = (f @ weights) * scale
    assert np.all(np.abs(got - want) <= 1e-14 * np.max(np.abs(want), axis=1, keepdims=True))
    P = _projector(96, n_modes)
    assert P.shape == (96, n_modes) and not P.flags.writeable and _projector(96, n_modes) is P
