"""Scaled Hermite basis, Gaussian quadrature, projections and the remainder seminorm.

The weight is rho_s(y) = I(s)/sqrt(4 pi) * exp(-I(s)^2 y^2 / 4) with
I(s) = exp((s/2)(1-1/k)); it has unit mass. The basis polynomials are

    H_m(y, s) = I(s)^{-m} h_m(I(s) y),

where h_m is the Hermite polynomial normalized to leading coefficient 1
against exp(-z^2/4) (h_0 = 1, h_1 = z, h_2 = z^2 - 2, three-term recurrence
h_{m+1}(z) = z h_m(z) - 2m h_{m-1}(z)). They satisfy

    <H_n, H_m>_{rho_s} = I^{-2n} 2^n n! delta_{nm},

and d/dy H_m = m H_{m-1}. The package evaluates the basis by one
recurrence, hermite_z_table's for h_m, at z = I y.

All integrals run in the standardized variable z = I(s) y with a fixed Gauss
rule for the weight exp(-z^2/4), so accuracy is uniform in s. Functions with
growth <= |y|^M and the basis itself are integrated exactly up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .grid import GridFunction, sample
from .params import ModelParams, scale_factor

__all__ = [
    "QuadratureRule",
    "SpectralDecomposition",
    "gauss_rule",
    "eval_scaled_hermite",
    "hermite_explicit_sum",
    "hermite_z_table",
    "hermite_series",
    "mode_norm_sq",
    "inner_product",
    "project_modes_from_samples",
    "mode_projection_scale",
    "decompose",
    "recompose",
    "remainder_seminorm",
    "multiply_identity",
]

MIN_QUAD_ORDER = 8
DEFAULT_QUAD_ORDER = 96


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss nodes/weights in z for the weight exp(-z^2/4).

    Exact for z^j exp(-z^2/4) with j <= 2*order - 1. Built from the
    Gauss-Hermite rule for exp(-x^2) by z = 2x.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=8)
def gauss_rule(order: int = DEFAULT_QUAD_ORDER) -> QuadratureRule:
    if order < MIN_QUAD_ORDER:
        raise ValueError(f"quadrature order must be >= {MIN_QUAD_ORDER}")
    x, w = hermgauss(order)
    return QuadratureRule(order=order, nodes=2.0 * x, weights=2.0 * w)


def hermite_z_table(z, n_max: int) -> np.ndarray:
    """h_0..h_{n_max} at the points z, by the three-term recurrence.

    z may have any shape; row m of the result, out[m], has z's shape.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty((n_max + 1,) + z.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = z
    for m in range(1, n_max):
        out[m + 1] = z * out[m] - 2.0 * m * out[m - 1]
    return out


_quad_tables: dict[tuple[int, int], np.ndarray] = {}


def quad_hermite_table(quad: "QuadratureRule", n_max: int) -> np.ndarray:
    """Cached h_0..h_{n_max} at a Gauss rule's nodes (rules are themselves cached)."""
    key = (quad.order, n_max)
    tab = _quad_tables.get(key)
    if tab is None:
        tab = hermite_z_table(quad.nodes, n_max)
        _quad_tables[key] = tab
    return tab


def hermite_explicit_sum(m: int, y, s: float, k: int):
    """H_m from the closed-form coefficient sum (small m; the tests' reference)."""
    I2inv = float(scale_factor(s, k)) ** -2
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    for ell in range(m // 2 + 1):
        c = math.factorial(m) / (math.factorial(ell) * math.factorial(m - 2 * ell))
        total = total + c * (-I2inv) ** ell * y ** (m - 2 * ell)
    return total


def eval_scaled_hermite(m: int, y, s: float, k: int):
    """H_m(y, s) = I^{-m} h_m(I y), from the last row of hermite_z_table."""
    if m < 0:
        raise ValueError("mode index must be >= 0")
    I = float(scale_factor(s, k))
    return I ** (-m) * hermite_z_table(I * np.asarray(y, dtype=float), m)[m]


def mode_norm_sq(n: int, s: float, k: int) -> float:
    """<H_n, H_n>_{rho_s} = I^{-2n} 2^n n!."""
    I = float(scale_factor(s, k))
    return I ** (-2 * n) * 2.0**n * math.factorial(n)


def _values_at(f, y):
    if isinstance(f, GridFunction):
        return sample(f.nodes, f.values, y)
    return np.asarray(f(y), dtype=float)


def inner_product(f, g, s: float, k: int, quad: QuadratureRule) -> float:
    """<f, g>_{L^2_{rho_s}}, computed in the standardized variable.

    f and g may be callables of y or GridFunctions (interpolated onto the
    quadrature nodes).
    """
    if quad.order < MIN_QUAD_ORDER:
        raise ValueError(f"quadrature order must be >= {MIN_QUAD_ORDER}")
    I = float(scale_factor(s, k))
    y = quad.nodes / I
    wy = quad.weights / math.sqrt(4.0 * math.pi)
    return float(np.sum(wy * _values_at(f, y) * _values_at(g, y)))


def project_modes_from_samples(
    f_quad: np.ndarray, s: float, k: int, n_modes: int, quad: QuadratureRule,
    scale: np.ndarray | None = None,
) -> np.ndarray:
    """Projections P_0..P_{n_modes-1} from samples of f at the quadrature nodes.

    Uses <f, H_n> = I^{-n} sum_i w_i f_i h_n(z_i) / sqrt(4 pi) and the exact
    mode norms, so only one factor of I^n appears (no overflow for desk-scale
    s and n <= M_floor). f_quad may stack several functions along its leading
    axes; the projections keep those axes, with the mode index last. The
    weights w_i h_n(z_i) / sqrt(4 pi) of a Gauss rule are built once per
    process. scale, when given, is mode_projection_scale at s.
    """
    if scale is None:
        scale = mode_projection_scale(float(scale_factor(s, k)), n_modes)
    return f_quad.dot(_projector(quad.order, n_modes)) * scale[:n_modes]


@lru_cache(maxsize=8)
def _projector(quad_order: int, n_modes: int) -> np.ndarray:
    """w_i h_n(z_i) / sqrt(4 pi) at the nodes of gauss_rule(quad_order), n < n_modes."""
    quad = gauss_rule(quad_order)
    table = quad_hermite_table(quad, n_modes - 1)
    out = (quad.weights[:, None] * table.T) / math.sqrt(4.0 * math.pi)
    out.flags.writeable = False  # one cached copy serves every caller
    return out


def mode_projection_scale(I: float, n_modes: int) -> np.ndarray:
    """I^n / (2^n n!), n = 0..n_modes-1: the factor project_modes_from_samples applies."""
    return I ** np.arange(n_modes) / _mode_norm_factors(n_modes)


@lru_cache(maxsize=32)
def _mode_norm_factors(n: int) -> np.ndarray:
    """2^n n! for the first n mode indices."""
    out = 2.0 ** np.arange(n) * np.array([float(math.factorial(i)) for i in range(n)])
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Mode coefficients q_0..q_{M_floor} plus a gridded remainder, at scale s."""

    s: float
    modes: np.ndarray
    remainder: GridFunction


def decompose(
    f, s: float, params: ModelParams, quad: QuadratureRule,
    nodes: np.ndarray | None = None,
) -> SpectralDecomposition:
    """Split f into tracked modes and the orthogonal remainder.

    f may be a callable of y or a GridFunction; the remainder is sampled on
    `nodes` (defaults to f's own grid for GridFunction input).
    """
    if nodes is None:
        if not isinstance(f, GridFunction):
            raise ValueError("nodes are required when f is a callable")
        nodes = f.nodes
    I = float(scale_factor(s, params.k))
    y_quad = quad.nodes / I
    f_quad = _values_at(f, y_quad)
    modes = project_modes_from_samples(f_quad, s, params.k, params.n_modes, quad)
    f_nodes = _values_at(f, nodes)
    rem = f_nodes - hermite_series(modes, nodes, s, params.k)
    return SpectralDecomposition(s=float(s), modes=modes, remainder=GridFunction(nodes, rem))


def hermite_series(coeffs: np.ndarray, y, s: float, k: int) -> np.ndarray:
    """sum_n coeffs[n] H_n(y, s) = sum_n coeffs[n] I^{-n} h_n(I y), from hermite_z_table."""
    coeffs = np.asarray(coeffs, dtype=float)
    I = float(scale_factor(s, k))
    table = hermite_z_table(I * np.asarray(y, dtype=float), coeffs.size - 1)
    return np.tensordot(coeffs * I ** -np.arange(coeffs.size, dtype=float), table, axes=1)


def recompose(dec: SpectralDecomposition, params: ModelParams) -> GridFunction:
    nodes = dec.remainder.nodes
    vals = hermite_series(dec.modes, nodes, dec.s, params.k) + dec.remainder.values
    return GridFunction(nodes, vals)


def remainder_seminorm(
    rem: GridFunction, s: float, params: ModelParams,
    floor: float = 0.0, rel_floor: float = 0.0, nodes_pow_M: np.ndarray | None = None,
    I: float | None = None,
) -> float:
    """Grid sup of |q_-| / (I^{-M} + |y|^M + floor + rel_floor * max|q_-|).

    floor = rel_floor = 0 is the definition. The denominator vanishes near
    the origin at large s, where grid values of a double-precision remainder
    are numerical debris; membership monitoring passes a small absolute floor
    plus a cushion proportional to the remainder's own amplitude, which
    biases genuine readings by at most ~rel_floor while ignoring content the
    Gaussian weight cannot see. floor = 0 keeps the pure definition for the
    norm contracts. nodes_pow_M, when given, is the cached |y|^M at rem's
    nodes, and I the scale factor I(s).
    """
    if I is None:
        I = float(scale_factor(s, params.k))
    vals = np.abs(rem.values)
    cushion = floor + rel_floor * float(vals.max()) if vals.size else floor
    if nodes_pow_M is None:
        nodes_pow_M = np.abs(rem.nodes) ** params.M
    denom = I ** (-params.M) + nodes_pow_M + cushion
    return float((vals / denom).max())


def multiply_identity(ell: int, n: int, s: float, k: int) -> dict[int, float]:
    """Coefficients of y^ell H_n in the basis: {mode index: coefficient}.

    By ell applications of the one-step identity
    y H_m = H_{m+1} + 2m I^{-2} H_{m-1}.
    """
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    I2inv = float(scale_factor(s, k)) ** -2
    coeffs = {n: 1.0}
    for _ in range(ell):
        nxt: dict[int, float] = {}
        for m, c in coeffs.items():
            nxt[m + 1] = nxt.get(m + 1, 0.0) + c
            if m >= 1:
                nxt[m - 1] = nxt.get(m - 1, 0.0) + c * 2.0 * m * I2inv
        coeffs = nxt
    return coeffs

