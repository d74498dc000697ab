import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from blowlab.grid import GridFunction, uniform_grid
from blowlab.hermite import decompose, eval_scaled_hermite, gauss_rule, remainder_seminorm
from blowlab.mehler import kernel_eval, mode_multiplier, propagate
from blowlab.params import scale_factor


def test_kernel_positivity_and_mass(params3):
    s, sigma, k = 3.0, 2.0, 2
    z = np.linspace(-20, 20, 2001)
    vals = kernel_eval(0.3, z, s, sigma, k)
    assert np.all(vals > 0)

    # independent adaptive quadrature of the z-integral
    for y in (0.0, 0.5, -1.2):
        mass, _ = scipy_quad(lambda zz: kernel_eval(y, zz, s, sigma, k), -40, 40, limit=300)
        assert mass == pytest.approx(math.exp(s - sigma), rel=1e-8)


def test_kernel_requires_increasing_times():
    with pytest.raises(ValueError):
        kernel_eval(0.0, 0.0, 1.0, 2.0, 2)
    with pytest.raises(ValueError):
        propagate(lambda y: np.ones_like(y), 2.0, 1.0, 2, out_nodes=np.linspace(-1, 1, 11))


def test_mode_multiplier_values():
    assert mode_multiplier(4, 5.0, 7.0, 2) == 1.0
    assert mode_multiplier(0, 5.0, 7.0, 2) == pytest.approx(math.exp(2.0))
    # high modes decay faster than the remainder contraction rate
    gap = 1.7
    m7 = mode_multiplier(7, 5.0, 5.0 + gap, 2)
    assert m7 == pytest.approx(math.exp(-3 * gap / 4))
    assert m7 < math.exp(-gap / 2.0)  # e^{-(s-sigma)/(p-1)} at p = 3


def test_near_identity_gap():
    nodes = uniform_grid(2.0, 301)
    f = lambda y: np.exp(-(y**2)) * (1 + 0.5 * y)
    out = propagate(f, 4.0, 4.0 + 1e-6, 2, out_nodes=nodes)
    assert np.max(np.abs(out.values - f(nodes))) < 1e-4
    # a genuine (non-shortcut) small gap is also near the identity
    out2 = propagate(f, 4.0, 4.0 + 5e-3, 2, out_nodes=nodes)
    assert np.max(np.abs(out2.values - f(nodes))) < 2e-2


@pytest.mark.parametrize("n,gap", [(0, 1.0), (2, 1.0), (4, 0.5), (6, 2.0)])
def test_propagate_basis_multipliers(n, gap):
    sigma, k = 4.0, 2
    s = sigma + gap
    quad = gauss_rule(96)
    I_s = float(scale_factor(s, k))
    y_q = quad.nodes / I_s
    wq = quad.weights / math.sqrt(4 * math.pi)
    f = lambda y: eval_scaled_hermite(n, y, sigma, k)
    prop = propagate(f, sigma, s, k, out_nodes=y_q, quad_order=140).values
    ref = mode_multiplier(n, sigma, s, k) * eval_scaled_hermite(n, y_q, s, k)
    rel = math.sqrt(float(np.sum(wq * (prop - ref) ** 2) / np.sum(wq * ref**2)))
    assert rel < 1e-5


def test_propagate_h2_amplitude():
    sigma, k, gap = 4.0, 2, 1.0
    s = sigma + gap
    nodes = uniform_grid(1.5, 501)
    prop = propagate(
        lambda y: eval_scaled_hermite(2, y, sigma, k), sigma, s, k, out_nodes=nodes
    )
    ref = math.exp(0.5) * eval_scaled_hermite(2, nodes, s, k)
    assert np.max(np.abs(prop.values - ref)) / np.max(np.abs(ref)) < 1e-6


def test_semigroup_composition():
    sigma, tau, s, k = 3.0, 3.8, 5.0, 2
    bump = lambda y: np.exp(-(y**2)) * (1 + y - 0.3 * y**2)
    out_nodes = uniform_grid(2.0, 601)
    one = propagate(bump, sigma, s, k, out_nodes=out_nodes, quad_order=120)
    mid_nodes = uniform_grid(6.0, 4001)
    mid = propagate(bump, sigma, tau, k, out_nodes=mid_nodes, quad_order=120)
    two = propagate(mid, tau, s, k, out_nodes=out_nodes, quad_order=120)
    rel = np.max(np.abs(two.values - one.values)) / np.max(np.abs(one.values))
    assert rel < 1e-4


def test_remainder_contraction_exponent(params3, quad96):
    """|K q_-|_tau / |q_-|_sigma decays at least like the p-dependent rate."""
    sigma, k = 2.0, 2
    nodes = uniform_grid(6.0, 2401)
    bump = np.exp(-((nodes - 0.3) ** 2) / 0.8)
    dec = decompose(GridFunction(nodes, bump), sigma, params3, quad96)
    qminus = dec.remainder
    base = remainder_seminorm(qminus, sigma, params3)

    gaps = np.linspace(0.5, 3.0, 6)
    ratios = []
    for gap in gaps:
        tau = sigma + gap
        prop = propagate(qminus, sigma, tau, k, quad_order=140)
        ratios.append(remainder_seminorm(prop, tau, params3) / base)
    slope = np.polyfit(gaps, np.log(ratios), 1)[0]
    rate = -slope
    assert rate >= 1.0 / (params3.p - 1.0) - 0.1
