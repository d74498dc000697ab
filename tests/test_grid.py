import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blowlab.grid import (
    band,
    GridFunction,
    derivative,
    laplacian_compact,
    probed_band,
    sample,
    sample_matrix,
    second_derivative,
    uniform_grid,
    upwind_gradient,
)


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    gf = GridFunction(np.linspace(0, 1, 11), np.zeros(11))
    assert len(gf) == 11
    assert gf.spacing == pytest.approx(0.1)


def test_spacing_requires_uniform_nodes():
    gf = GridFunction(np.array([0.0, 0.1, 0.3, 0.35, 0.5, 0.7]), np.zeros(6))
    with pytest.raises(ValueError):
        _ = gf.spacing


def test_derivatives_exact_on_quartics():
    nodes = uniform_grid(2.0, 41)
    h = nodes[1] - nodes[0]
    f = 1.0 + nodes - 2 * nodes**2 + 0.5 * nodes**3 + 0.25 * nodes**4
    df = 1.0 - 4 * nodes + 1.5 * nodes**2 + nodes**3
    d2f = -4.0 + 3 * nodes + 3 * nodes**2
    assert np.max(np.abs(derivative(f, h) - df)) < 1e-11
    assert np.max(np.abs(second_derivative(f, h) - d2f)) < 1e-10


def test_derivative_order_of_accuracy():
    errs = []
    for n in (101, 201):
        nodes = uniform_grid(1.0, n)
        h = nodes[1] - nodes[0]
        f = np.sin(3 * nodes)
        errs.append(np.max(np.abs(derivative(f, h) - 3 * np.cos(3 * nodes))))
    assert errs[0] / errs[1] > 12.0  # 4th order: x16 per doubling


def test_min_node_counts():
    with pytest.raises(ValueError):
        derivative(np.zeros(5), 0.1)
    with pytest.raises(ValueError):
        second_derivative(np.zeros(4), 0.1)


def test_upwind_gradient_exact_on_cubics():
    nodes = uniform_grid(1.0, 41)
    h = nodes[1] - nodes[0]
    f = 2.0 - nodes + nodes**2 + 0.5 * nodes**3
    df = -1.0 + 2 * nodes + 1.5 * nodes**2
    wind = nodes.copy()
    out = upwind_gradient(f, h, wind)
    assert np.max(np.abs(out[2:-2] - df[2:-2])) < 1e-12


def _upwind_both_stencils(values, h, wind):
    """The interior of upwind_gradient as both stencils on every node, one kept by np.where."""
    f = values
    pos = (f[:-4] - 6.0 * f[1:-3] + 3.0 * f[2:-2] + 2.0 * f[3:-1]) / (6.0 * h)
    neg = (-2.0 * f[1:-3] - 3.0 * f[2:-2] + 6.0 * f[3:-1] - f[4:]) / (6.0 * h)
    return np.where(wind[2:-2] >= 0.0, pos, neg)


def _z_operator_with_both_stencils():
    """The inner operator d_zz - (z/2) d_z + 1 built with _upwind_both_stencils."""
    from blowlab.projection import inner_nodes

    z = inner_nodes()
    hz = float(z[1] - z[0])
    L = np.empty((z.size, z.size))
    unit = np.zeros(z.size)
    for j in range(z.size):
        unit[j] = 1.0
        grad = upwind_gradient(unit, hz, z)
        grad[2:-2] = _upwind_both_stencils(unit, hz, z)
        L[:, j] = laplacian_compact(unit, hz) - 0.5 * z * grad + unit
        unit[j] = 0.0
    return L


@pytest.mark.parametrize("wind", ["y/2k", "z/2", "positive", "negative", "zero"])
def test_upwind_gradient_split_is_bitwise_the_masked_form(wind):
    from blowlab.projection import inner_nodes

    nodes = {"y/2k": uniform_grid(0.15, 257), "z/2": inner_nodes()}.get(wind, uniform_grid(1.0, 41))
    w = {
        "y/2k": nodes / 4.0, "z/2": nodes / 2.0, "positive": 1.0 + np.abs(nodes),
        "negative": -1.0 - np.abs(nodes), "zero": np.zeros_like(nodes),
    }[wind]
    h = nodes[1] - nodes[0]
    f = np.random.default_rng(7).standard_normal(nodes.size)
    got = upwind_gradient(f, h, w)
    assert got[2:-2].tobytes() == _upwind_both_stencils(f, h, w).tobytes()


def test_z_operator_is_bitwise_unchanged():
    from blowlab.params import make_params
    from blowlab.projection import z_frame

    L = z_frame(make_params(3.0, 2)).L
    assert L.tobytes() == _z_operator_with_both_stencils().tobytes()


def test_band_holds_every_nonzero_of_the_stencil_matrices():
    # the z-frame applies [S; S D; D] from its band: the product must be the
    # dense one, with every nonzero in the weights
    from blowlab.hermite import gauss_rule
    from blowlab.projection import inner_nodes

    z = inner_nodes()
    D = derivative(np.eye(z.size), z[1] - z[0])
    S = sample_matrix(z, gauss_rule(96).nodes)
    A = np.vstack([S, S @ D, D])
    v = np.random.default_rng(3).standard_normal(z.size)
    cols, weights = band(A)
    got = np.einsum("jn,jn->n", weights, v[cols])
    assert np.max(np.abs(got - A @ v)) <= 1e-13 * np.max(np.abs(A @ v))
    assert weights.shape == (8, A.shape[0])
    assert np.sum(np.abs(weights)) == pytest.approx(np.sum(np.abs(A)), rel=1e-15)
    # windows start at each row's first nonzero, moved left at the last column
    cols, weights = band(np.diag([1.0, 2.0, 3.0]) + np.diag([4.0, 5.0], 1))
    assert cols.tolist() == [[0, 1, 1], [1, 2, 2]]
    assert weights.tolist() == [[1.0, 2.0, 0.0], [4.0, 5.0, 3.0]]
    # a zero row, as the outer transport -(y/2k) d/dy has at y = 0, gets a
    # window of the nonzero rows' width with zero weights, not the full one
    A = np.array([[1.0, 2, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 3, 4]])
    cols, weights = band(A)
    assert cols.shape == weights.shape == (2, 3)
    assert weights[:, 1].tolist() == [0.0, 0.0]
    v = np.arange(1.0, 6.0)
    assert np.einsum("jn,jn->n", weights, v[cols]).tolist() == (A @ v).tolist()
    assert band(np.zeros((2, 3)))[1].tolist() == [[0.0, 0.0]]


@pytest.mark.parametrize("n", [6, 7, 13])
def test_probed_band_is_the_dense_band(n):
    # each kernel alone and all three together; derivative's one-sided edge
    # rows read 4 nodes inward, past PROBE_REACH, and 6 nodes are fewer
    # than the 7 probes
    nodes = uniform_grid(1.0, n)
    h = nodes[1] - nodes[0]
    kernels = [
        lambda f: laplacian_compact(f, h),
        lambda f: upwind_gradient(f, h, nodes),
        lambda f: derivative(f, h),
    ]
    for ks in [[K] for K in kernels] + [kernels]:
        cols, weights = probed_band(ks, n)
        dense = [K(np.eye(n)) for K in ks]
        assert cols.tobytes() == band(sum(np.abs(A) for A in dense))[0].tobytes()
        assert weights.tobytes() == np.stack([A[np.arange(n), cols] for A in dense]).tobytes()
        assert weights.flags.c_contiguous


def test_laplacian_compact_exact_on_quadratics():
    nodes = uniform_grid(1.0, 21)
    h = nodes[1] - nodes[0]
    f = 3.0 + nodes + 2 * nodes**2
    assert np.max(np.abs(laplacian_compact(f, h) - 4.0)) < 1e-11


def test_sample_reproduces_cubics_and_nodes():
    nodes = uniform_grid(1.0, 31)
    vals = 1 - nodes + 0.3 * nodes**3
    pts = np.array([-0.95, -0.33, 0.0, 0.512, 0.99])
    assert np.max(np.abs(sample(nodes, vals, pts) - (1 - pts + 0.3 * pts**3))) < 1e-13
    # exact at the nodes themselves
    assert np.max(np.abs(sample(nodes, vals, nodes) - vals)) < 1e-13


def test_sample_convergence_order():
    f = lambda x: np.exp(np.sin(2 * x))
    pts = np.linspace(-0.8, 0.8, 500)
    errs = []
    for n in (101, 201):
        nodes = uniform_grid(1.0, n)
        errs.append(np.max(np.abs(sample(nodes, f(nodes), pts) - f(pts))))
    assert errs[0] / errs[1] > 10.0  # 4-point Lagrange: ~x16


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    n=st.integers(4, 80),
    lo=st.floats(-20.0, 20.0),
    width=st.floats(0.01, 40.0),
    frac=st.lists(st.floats(-0.25, 1.25), min_size=1, max_size=16),
)
def test_sample_exact_on_cubics(coeffs, n, lo, width, frac):
    # a local cubic reproduces any cubic, inside the range and clamped to
    # the edge cells outside it; the matrix form applies the same stencil
    nodes = np.linspace(lo, lo + width, n)
    pts = lo + width * np.array(frac)
    cubic = np.polynomial.Polynomial(coeffs)
    want = cubic(pts)
    M = sample_matrix(nodes, pts)
    # roundoff bound: the largest value times the stencil's weight sum, which
    # grows far outside the nodes
    scale = np.polynomial.Polynomial(np.abs(coeffs))(np.abs(lo) + 1.25 * width)
    tol = 1e-14 * (1.0 + scale) * np.max(np.sum(np.abs(M), axis=1))
    got = sample(nodes, cubic(nodes), pts)
    assert np.max(np.abs(got - want)) <= tol
    assert np.max(np.abs(M @ cubic(nodes) - got)) <= tol
