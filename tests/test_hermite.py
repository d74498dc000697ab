import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from blowlab.grid import GridFunction, uniform_grid
from blowlab.hermite import (
    decompose,
    eval_scaled_hermite,
    gauss_rule,
    hermite_explicit_sum,
    inner_product,
    mode_norm_sq,
    multiply_identity,
    recompose,
    remainder_seminorm,
)
from blowlab.params import scale_factor
from blowlab.projection import monomial_table


def test_low_order_values():
    y = np.linspace(-2, 2, 9)
    s, k = 7.0, 2
    assert np.allclose(eval_scaled_hermite(0, y, s, k), 1.0)
    assert np.allclose(eval_scaled_hermite(1, y, s, k), y)
    I2inv = float(scale_factor(s, k)) ** -2
    assert np.allclose(eval_scaled_hermite(3, y, s, k), y**3 - 6 * I2inv * y)


def test_h2_zero_at_matching_scale():
    # I^{-2} = 1/2 happens at s = ln 2 / (1 - 1/k) for k = 2
    k = 2
    s = math.log(2.0) / (1.0 - 1.0 / k)
    val = eval_scaled_hermite(2, 1.0, s, k)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_recurrence_matches_explicit_sum():
    y = np.linspace(-1.5, 1.5, 11)
    for s, k in ((2.0, 2), (10.0, 3)):
        for m in range(13):
            a = eval_scaled_hermite(m, y, s, k)
            b = hermite_explicit_sum(m, y, s, k)
            scale = np.max(np.abs(b)) + 1e-30
            assert np.max(np.abs(a - b)) / scale < 1e-12


def test_weight_normalization_and_symmetry(quad96):
    one = lambda y: np.ones_like(y)
    for s in (0.0, 5.0, 20.0):
        assert inner_product(one, one, s, 2, quad96) == pytest.approx(1.0, abs=1e-12)
    # the weight is even: odd functions integrate to zero against it
    assert abs(inner_product(one, lambda y: y**3, 3.0, 2, quad96)) < 1e-14


def test_inner_product_reference_values(quad96):
    k = 2
    H = lambda n, s: (lambda y: eval_scaled_hermite(n, y, s, k))
    # at s = 0 the scale factor is 1
    assert inner_product(H(2, 0.0), H(2, 0.0), 0.0, k, quad96) == pytest.approx(8.0, rel=1e-13)
    assert abs(inner_product(H(1, 5.0), H(3, 5.0), 5.0, k, quad96)) < 1e-12
    s = 5.0
    I = float(scale_factor(s, k))
    assert inner_product(H(3, s), H(3, s), s, k, quad96) == pytest.approx(
        48.0 * I**-6, rel=1e-12
    )


def test_inner_product_against_adaptive_quadrature(quad96):
    # independent oracle: scipy adaptive integration of the same integrand
    s, k = 4.0, 2
    I = float(scale_factor(s, k))
    f = lambda y: np.exp(-(y**2)) * (1 + y**2)
    g = lambda y: eval_scaled_hermite(4, y, s, k)
    ours = inner_product(f, g, s, k, quad96)
    ref, _ = scipy_quad(
        lambda y: f(y) * g(y) * I / math.sqrt(4 * math.pi) * math.exp(-((I * y) ** 2) / 4.0),
        -np.inf, np.inf,
    )
    assert ours == pytest.approx(ref, rel=1e-10)


def test_quadrature_order_guard():
    with pytest.raises(ValueError):
        gauss_rule(4)


def test_orthogonality_sweep(quad96):
    for k in (2, 3):
        for s in (2.0, 10.0, 30.0):
            funcs = [
                (lambda y, n=n: eval_scaled_hermite(n, y, s, k)) for n in range(13)
            ]
            for n in range(13):
                for m in range(n, 13):
                    val = inner_product(funcs[n], funcs[m], s, k, quad96)
                    exact = mode_norm_sq(n, s, k) if n == m else 0.0
                    scale = math.sqrt(mode_norm_sq(n, s, k) * mode_norm_sq(m, s, k))
                    assert abs(val - exact) / scale < 1e-8


def test_decompose_monomial(params3, quad96):
    s = 2.0
    nodes = uniform_grid(3.0, 801)
    dec = decompose(lambda y: y**2, s, params3, quad96, nodes)
    I2inv = float(scale_factor(s, 2)) ** -2
    expect = np.zeros(6)
    expect[0] = 2 * I2inv
    expect[2] = 1.0
    assert np.max(np.abs(dec.modes - expect)) < 1e-12
    assert np.max(np.abs(dec.remainder.values)) < 1e-12


def test_decompose_pure_modes(params3, quad96):
    s = 5.0
    nodes = uniform_grid(2.0, 401)
    dec = decompose(lambda y: 3.0 * eval_scaled_hermite(1, y, s, 2), s, params3, quad96, nodes)
    assert dec.modes[1] == pytest.approx(3.0, rel=1e-13)
    assert np.max(np.abs(np.delete(dec.modes, 1))) < 1e-12

    dec7 = decompose(lambda y: eval_scaled_hermite(7, y, s, 2), s, params3, quad96, nodes)
    assert np.max(np.abs(dec7.modes)) < 1e-10
    ref = eval_scaled_hermite(7, nodes, s, 2)
    assert np.max(np.abs(dec7.remainder.values - ref)) < 1e-9


def test_decompose_idempotent(params3, quad96):
    rng = np.random.default_rng(3)
    s = 4.0
    nodes = uniform_grid(3.0, 1201)
    vals = np.exp(-nodes**2) * rng.normal(size=1) + 0.3 * nodes**4 * np.exp(-0.5 * nodes**2)
    gf = GridFunction(nodes, vals)
    dec1 = decompose(gf, s, params3, quad96)
    dec2 = decompose(recompose(dec1, params3), s, params3, quad96)
    assert np.max(np.abs(dec1.modes - dec2.modes)) < 1e-10
    # projecting the remainder again yields (nearly) zero modes; the residue
    # is interpolation error amplified by the mode-extraction conditioning
    dec3 = decompose(dec1.remainder, s, params3, quad96)
    assert np.max(np.abs(dec3.modes)) < 1e-8


def test_norms_reference_cases(params3):
    s = 3.0
    nodes = uniform_grid(2.0, 201)
    I = float(scale_factor(s, 2))

    zero = GridFunction(nodes, np.zeros_like(nodes))
    assert remainder_seminorm(zero, s, params3) == 0.0

    rem_vals = I**-params3.M + np.abs(nodes) ** params3.M
    sem = remainder_seminorm(GridFunction(nodes, rem_vals), s, params3)
    assert sem == pytest.approx(1.0, rel=1e-12)


def test_seminorm_floor_only_matters_near_origin(params3):
    s = 20.0
    nodes = uniform_grid(0.15, 257)
    vals = 1e-13 * np.ones_like(nodes)  # noise-level remainder
    gf = GridFunction(nodes, vals)
    raw = remainder_seminorm(gf, s, params3)
    floored = remainder_seminorm(gf, s, params3, floor=1e-10)
    assert raw > 1.0  # pure definition reads noise at the origin as signal
    assert floored < 1e-2


def test_multiply_identity_reference(quad96):
    s, k = 10.0, 2
    I2inv = float(scale_factor(s, k)) ** -2
    c = multiply_identity(2, 2, s, k)
    assert c[4] == pytest.approx(1.0)
    assert c[2] == pytest.approx(10.0 * I2inv)
    assert c[0] == pytest.approx(8.0 * I2inv**2)

    c1 = multiply_identity(1, 2, s, k)
    assert c1[3] == pytest.approx(1.0)
    assert c1[1] == pytest.approx(4.0 * I2inv)

    assert multiply_identity(0, 5, s, k) == {5: 1.0}


@pytest.mark.parametrize("s,k", [(2.0, 2), (10.0, 2), (30.0, 3)])
@pytest.mark.parametrize("ell,n", [(1, 3), (2, 2), (2, 5), (3, 4)])
def test_multiply_identity_against_quadrature(quad96, s, k, ell, n):
    coeffs = multiply_identity(ell, n, s, k)
    f = lambda y: y**ell * eval_scaled_hermite(n, y, s, k)
    for j, c in coeffs.items():
        proj = inner_product(
            f, lambda y, j=j: eval_scaled_hermite(j, y, s, k), s, k, quad96
        ) / mode_norm_sq(j, s, k)
        assert proj == pytest.approx(c, rel=1e-10, abs=1e-10)


def test_power_in_hermite_round_trip():
    s, k = 6.0, 2
    y = np.linspace(-2, 2, 50)
    C = monomial_table(8, float(scale_factor(s, k)) ** -2, 7)
    for m in range(8):
        total = sum(C[m, n] * eval_scaled_hermite(n, y, s, k) for n in range(8))
        assert np.max(np.abs(total - y**m)) < 1e-10 * max(1.0, 2.0**m)


def test_polynomial_scalar_products(quad96):
    # <y^j, H_m> vanishes for m > j and scales like I^{-m-j} otherwise
    k = 2
    for j, m in ((2, 4), (1, 3), (3, 5)):
        val = inner_product(
            lambda y: y**j, lambda y: eval_scaled_hermite(m, y, 6.0, k), 6.0, k, quad96
        )
        assert abs(val) < 1e-14
    vals = []
    for s in (4.0, 8.0):
        v = inner_product(
            lambda y: y**5, lambda y: eval_scaled_hermite(3, y, s, k), s, k, quad96
        )
        vals.append(abs(v))
    I4, I8 = float(scale_factor(4.0, k)), float(scale_factor(8.0, k))
    expected_ratio = (I8 / I4) ** -(3 + 5)
    assert vals[1] / vals[0] == pytest.approx(expected_ratio, rel=1e-8)


def test_tail_smallness_decay():
    # the |y| >= 1 part of <f, H_m> decays at least like exp(-I(s)/8)
    k, m, K = 2, 3, 4
    f = lambda y: 1.0 + np.abs(y) ** K

    def tail(s):
        I = float(scale_factor(s, k))
        integrand = lambda y: f(y) * eval_scaled_hermite(m, y, s, k) * I / math.sqrt(
            4 * math.pi
        ) * math.exp(-((I * y) ** 2) / 4.0)
        lo, _ = scipy_quad(integrand, 1.0, 60.0, limit=200)
        hi, _ = scipy_quad(integrand, -60.0, -1.0, limit=200)
        return abs(lo + hi)

    s_vals = (4.0, 6.0, 8.0)
    tails = [tail(s) for s in s_vals]
    for s1, s2, t1, t2 in zip(s_vals, s_vals[1:], tails, tails[1:]):
        I1, I2 = float(scale_factor(s1, k)), float(scale_factor(s2, k))
        assert t2 <= t1 * math.exp(-(I2 - I1) / 8.0) * 10.0


def test_quadrature_gaussian_exactness(quad96):
    # exactly integrates z^j e^{-z^2/4}: odd moments vanish, even moments
    # match 2^m (2m-1)!! sqrt(4 pi) * ... via the half-integer gamma values
    import math
    z, w = quad96.nodes, quad96.weights
    for j in (1, 3, 7, 15):
        assert abs(np.sum(w * z**j)) < 1e-10
    for m in (0, 1, 2, 5):
        ours = float(np.sum(w * z ** (2 * m)))
        exact = 4.0**m * math.gamma(m + 0.5) * 2.0  # int z^{2m} e^{-z^2/4} dz
        assert ours == pytest.approx(exact, rel=1e-13)
