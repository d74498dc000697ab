"""Scaled Hermite basis, Gaussian weight, quadrature, projections and norms.

The weight is rho_s(y) = I(s)/sqrt(4 pi) * exp(-I(s)^2 y^2 / 4) with
I(s) = exp((s/2)(1-1/k)); it has unit mass. The basis polynomials are

    H_m(y, s) = I(s)^{-m} h_m(I(s) y),

where h_m is the Hermite polynomial normalized to leading coefficient 1
against exp(-z^2/4) (h_0 = 1, h_1 = z, h_2 = z^2 - 2, three-term recurrence
h_{m+1}(z) = z h_m(z) - 2m h_{m-1}(z)). They satisfy

    <H_n, H_m>_{rho_s} = I^{-2n} 2^n n! delta_{nm},

and, in the y variable, H_{m+1} = y H_m - 2m I^{-2} H_{m-1}.

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
    "weight",
    "eval_scaled_hermite",
    "hermite_explicit_sum",
    "hermite_derivative",
    "hermite_z_table",
    "hermite_y_table",
    "hermite_series",
    "mode_norm_sq",
    "inner_product",
    "project_modes_from_samples",
    "decompose",
    "recompose",
    "norms",
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


def weight(y, s: float, k: int):
    """Unit-mass Gaussian weight rho_s(y)."""
    I = scale_factor(s, k)
    y = np.asarray(y, dtype=float)
    return I / math.sqrt(4.0 * math.pi) * np.exp(-((I * y) ** 2) / 4.0)


def hermite_z_table(z, n_max: int) -> np.ndarray:
    """h_0..h_{n_max} at the points z, by the three-term recurrence."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty((n_max + 1, z.size))
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
    """H_m(y, s): the last row of hermite_y_table."""
    if m < 0:
        raise ValueError("mode index must be >= 0")
    return hermite_y_table(y, m, s, k)[m]


def hermite_derivative(m: int, y, s: float, k: int):
    """d/dy H_m = m H_{m-1}."""
    if m == 0:
        return np.zeros_like(np.asarray(y, dtype=float))
    return m * eval_scaled_hermite(m - 1, y, s, k)


def mode_norm_sq(n: int, s: float, k: int) -> float:
    """<H_n, H_n>_{rho_s} = I^{-2n} 2^n n!."""
    I = float(scale_factor(s, k))
    return I ** (-2 * n) * 2.0**n * math.factorial(n)


def _values_at(f, y, nodes_hint=None):
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
    z_table: np.ndarray | None = None,
) -> np.ndarray:
    """Projections P_0..P_{n_modes-1} from samples of f at the quadrature nodes.

    Uses <f, H_n> = I^{-n} sum_i w_i f_i h_n(z_i) / sqrt(4 pi) and the exact
    mode norms, so only one factor of I^n appears (no overflow for desk-scale
    s and n <= M_floor). f_quad may stack several functions along its leading
    axes; the projections keep those axes, with the mode index last.
    """
    if z_table is None:
        z_table = quad_hermite_table(quad, n_modes - 1)
    I = float(scale_factor(s, k))
    raw = (quad.weights * f_quad) @ z_table[:n_modes].T / math.sqrt(4.0 * math.pi)
    n = np.arange(n_modes)
    scale = I**n / (2.0**n * _factorials(n_modes))
    return raw * scale


@lru_cache(maxsize=32)
def _factorials_cached(n: int) -> tuple[float, ...]:
    return tuple(float(math.factorial(i)) for i in range(n))


def _factorials(n: int) -> np.ndarray:
    return np.array(_factorials_cached(n))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Mode coefficients q_0..q_{M_floor} plus a gridded remainder, at scale s."""

    s: float
    modes: np.ndarray
    remainder: GridFunction

    @property
    def n_modes(self) -> int:
        return self.modes.size


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


def hermite_y_table(y, n_max: int, s: float, k: int) -> np.ndarray:
    """H_0..H_{n_max} at the points y (rows), via the y-space recurrence."""
    y = np.asarray(y, dtype=float)
    I2inv = float(scale_factor(s, k)) ** -2
    out = np.empty((n_max + 1,) + y.shape)
    if n_max >= 0:
        out[0] = 1.0
    if n_max >= 1:
        out[1] = y
    for n in range(1, n_max):
        out[n + 1] = y * out[n] - 2.0 * n * I2inv * out[n - 1]
    return out


def hermite_series(coeffs: np.ndarray, y, s: float, k: int) -> np.ndarray:
    """sum_n coeffs[n] H_n(y, s), contracted against hermite_y_table."""
    coeffs = np.asarray(coeffs, dtype=float)
    return np.tensordot(coeffs, hermite_y_table(y, coeffs.size - 1, s, k), axes=1)


def recompose(dec: SpectralDecomposition, params: ModelParams) -> GridFunction:
    nodes = dec.remainder.nodes
    vals = hermite_series(dec.modes, nodes, dec.s, params.k) + dec.remainder.values
    return GridFunction(nodes, vals)


def remainder_seminorm(
    rem: GridFunction, s: float, params: ModelParams,
    floor: float = 0.0, rel_floor: float = 0.0,
) -> float:
    """Grid sup of |q_-| / (I^{-M} + |y|^M + floor + rel_floor * max|q_-|).

    floor = rel_floor = 0 is the definition. The denominator vanishes near
    the origin at large s, where grid values of a double-precision remainder
    are numerical debris; membership monitoring passes a small absolute floor
    plus a cushion proportional to the remainder's own amplitude, which
    biases genuine readings by at most ~rel_floor while ignoring content the
    Gaussian weight cannot see. floor = 0 keeps the pure definition for the
    norm contracts.
    """
    I = float(scale_factor(s, params.k))
    vals = np.abs(rem.values)
    cushion = floor + rel_floor * float(np.max(vals)) if vals.size else floor
    denom = I ** (-params.M) + np.abs(rem.nodes) ** params.M + cushion
    return float(np.max(vals / denom))


def norms(
    dec: SpectralDecomposition, params: ModelParams, floor: float = 0.0
) -> tuple[float, float, float]:
    """Return (sum_m |q_m| + |q_-|_s, |q_-|_s, L^infty_M norm of the recomposition)."""
    sem = remainder_seminorm(dec.remainder, dec.s, params, floor)
    total = float(np.sum(np.abs(dec.modes))) + sem
    g = recompose(dec, params)
    linf = float(np.max(np.abs(g.values) / (1.0 + np.abs(g.nodes) ** params.M)))
    return total, sem, linf


def multiply_identity(ell: int, n: int, s: float, k: int) -> dict[int, float]:
    """Coefficients of y^ell H_n in the basis: {mode index: coefficient}.

    ell = 0..2 are closed forms; larger ell by repeated application of the
    one-step identity y H_m = H_{m+1} + 2m I^{-2} H_{m-1}.
    """
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    I2inv = float(scale_factor(s, k)) ** -2
    if ell == 0:
        return {n: 1.0}
    if ell == 2:
        out = {n + 2: 1.0, n: (4.0 * n + 2.0) * I2inv}
        if n >= 2:
            out[n - 2] = 4.0 * n * (n - 1.0) * I2inv**2
        return out
    coeffs = {n: 1.0}
    for _ in range(ell):
        nxt: dict[int, float] = {}
        for m, c in coeffs.items():
            nxt[m + 1] = nxt.get(m + 1, 0.0) + c
            if m >= 1:
                nxt[m - 1] = nxt.get(m - 1, 0.0) + c * 2.0 * m * I2inv
        coeffs = nxt
    return coeffs

