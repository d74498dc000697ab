import importlib
import pkgutil

import numpy as np
import pytest

import blowlab
from blowlab import direct, dynamics, hermite, projection
from blowlab.grid import uniform_grid
from blowlab.params import (
    alpha_consts,
    eval_profile,
    make_params,
    profile_second_derivative,
    q_to_w,
    scale_factor,
    signed_power,
)

_P3 = make_params(3.0, 2)
_J = projection.default_jet_order(_P3.n_modes)
_Y = uniform_grid(6.0, 61)

# a built result of every cache whose results hold arrays
TABLES = {
    "hermite.gauss_rule": lambda: hermite.gauss_rule(96),
    "hermite._projector": lambda: hermite._projector(96, 6),
    "hermite._mode_norm_factors": lambda: hermite._mode_norm_factors(6),
    "projection.z_frame": lambda: projection.z_frame(_P3),
    "projection._toeplitz_index": lambda: projection._toeplitz_index(_J),
    "projection._basis_structure": lambda: projection._basis_structure(_J),
    "projection.scale_tables": lambda: projection.scale_tables(20.0, _P3),
    "projection._legendre_rule": lambda: projection._legendre_rule(3.0),
    "dynamics._flow": lambda: dynamics._flow(dynamics.FlowOptions(), _P3),
    "dynamics._half_exp_of": lambda: dynamics._half_exp_of(0.01, _P3),
    "dynamics._overlap": lambda: dynamics._overlap(20.0, 257, 2),
    "direct._w_band": lambda: direct._w_band(_Y.tobytes(), _P3),
}


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_a_cached_table_is_read_only(name):
    # one cached result serves every caller, so a write into it would
    # change every later use in the process
    arrays = list(_arrays(TABLES[name]()))
    assert arrays
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = arr


def test_every_cache_is_bounded_and_hands_out_read_only_tables():
    # _bound_names holds strings, and alpha_consts four floats, on a plain
    # lru_cache
    caches = {}
    for info in pkgutil.iter_modules(blowlab.__path__):
        module = importlib.import_module(f"blowlab.{info.name}")
        caches.update({
            f"{info.name}.{name}": obj for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        })
    others = {"dynamics._bound_names", "params.alpha_consts"}
    assert set(caches) == set(TABLES) | others and len(caches) == 14
    assert all(cache.cache_info().maxsize is not None for cache in caches.values())


def test_make_params_reference_values():
    P = make_params(3.0, 2)
    assert P.kappa == pytest.approx(0.7071068, abs=1e-7)
    assert P.M == 6.0
    assert P.M_floor == 5

    P2 = make_params(2.0, 2)
    assert P2.kappa == 1.0
    assert P2.M == 8.0
    assert P2.M_floor == 7

    # non-integer M takes the plain floor
    P25 = make_params(2.5, 2)
    assert P25.M == pytest.approx(20.0 / 3.0)
    assert P25.M_floor == 6


def test_make_params_rejects_bad_domain():
    with pytest.raises(ValueError):
        make_params(1.0, 2)
    with pytest.raises(ValueError):
        make_params(0.5, 2)
    with pytest.raises(ValueError):
        make_params(3.0, 1)


def test_kappa_identity():
    for p in (1.5, 2.0, 3.0, 4.7):
        P = make_params(p, 3)
        assert P.kappa ** (p - 1) * (p - 1) == pytest.approx(1.0, rel=1e-15)


def test_scale_factor_values():
    assert scale_factor(0.0, 2) == 1.0
    assert scale_factor(4.0, 2) == pytest.approx(np.e)
    assert scale_factor(2.0, 3) == pytest.approx(np.exp(2.0 / 3.0))
    s = np.linspace(0, 10, 11)
    vals = scale_factor(s, 2)
    assert np.all(np.diff(vals) > 0)


def test_eval_profile_values():
    P = make_params(3.0, 2)
    f, e = eval_profile(0.0, 5.0, P)
    assert f == pytest.approx(P.kappa)
    assert e == pytest.approx(0.5)

    f, e = eval_profile(1.0, 1.0, P)
    assert f == pytest.approx(3.0 ** -0.5)
    assert e == pytest.approx(1.0 / 3.0)

    y = np.linspace(-3, 3, 41)
    f, e = eval_profile(y, 0.0, P)
    assert np.allclose(f, P.kappa)
    assert np.allclose(e, 0.5)


def test_profile_product_identity():
    rng = np.random.default_rng(0)
    P = make_params(2.5, 2)
    y = rng.uniform(-4, 4, size=200)
    b = rng.uniform(0, 3)
    f, e = eval_profile(y, b, P)
    assert np.allclose(f * e, f**P.p, rtol=1e-14)


def test_profile_first_order_equation():
    # -(y/2k) f' - f/(p-1) + f^p = 0 with the closed-form derivative
    for p, k, b in ((3.0, 2, 1.0), (2.2, 3, 0.7)):
        P = make_params(p, k)
        y = np.linspace(-2.5, 2.5, 101)
        f, e = eval_profile(y, b, P)
        fprime = -(2 * k * b / (p - 1.0)) * y ** (2 * k - 1) * f**p
        resid = -(y / (2 * k)) * fprime - f / (p - 1.0) + f**p
        assert np.max(np.abs(resid)) < 1e-12


def test_profile_second_derivative_closed_form():
    P = make_params(3.0, 2)
    y = np.linspace(-2, 2, 31)
    h = 1e-4
    f0, _ = eval_profile(y, 1.3, P)
    fp, _ = eval_profile(y + h, 1.3, P)
    fm, _ = eval_profile(y - h, 1.3, P)
    fd = (fp - 2 * f0 + fm) / h**2
    assert np.allclose(profile_second_derivative(y, 1.3, P), fd, atol=1e-6)


def test_alpha_consts_values():
    P = make_params(3.0, 2)
    a = alpha_consts(1.0, P)
    assert (a.alpha1, a.alpha2, a.alpha3, a.alpha4) == (-6.0, 12.0, -18.0, 60.0)
    a0 = alpha_consts(0.0, P)
    assert (a0.alpha1, a0.alpha2, a0.alpha3, a0.alpha4) == (0.0, 0.0, 0.0, 0.0)
    ah = alpha_consts(0.5, P)
    assert (ah.alpha1, ah.alpha2, ah.alpha3, ah.alpha4) == (-3.0, 3.0, -9.0, 15.0)


def test_q_w_maps():
    P = make_params(3.0, 2)
    y = np.linspace(-2, 2, 101)
    b = 1.2
    f, e = eval_profile(y, b, P)

    w = q_to_w(np.zeros_like(y), y, b, P)
    assert np.allclose(w, f, rtol=1e-15)

    assert np.allclose(q_to_w(np.ones_like(y), y, b, P), f * (1 + e), rtol=1e-15)

    # f_b e_b = f_b^p, so the perturbation of w is f_b^p q
    rng = np.random.default_rng(2)
    q0 = rng.normal(scale=0.5, size=y.size)
    assert np.max(np.abs(q_to_w(q0, y, b, P) - f - f**P.p * q0)) < 1e-13


def test_signed_power():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(signed_power(x, 3.0), x**3)
    assert np.allclose(signed_power(x, 2.0), np.abs(x) * x)
    assert signed_power(-1.5, 2.5) == pytest.approx(-(1.5**2.5))
