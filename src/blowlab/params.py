"""Model constants and the flat profile family.

The physical problem is u_t = u_xx + |u|^{p-1} u with p > 1 and a flatness
index k >= 2. The self-similar frame is

    y = x (T-t)^{-1/2k},   s = -ln(T-t),   w = (T-t)^{1/(p-1)} u,

in which the candidate blowup profiles form the one-parameter family

    f_b(y) = (p-1 + b y^{2k})^{-1/(p-1)},   e_b(y) = (p-1 + b y^{2k})^{-1},

with f_b * e_b = f_b^p. Perturbations ride on the profile as
w = f_b (1 + e_b q), inverted by q = w f_b^{-p} - (p-1 + b y^{2k}).

All functions here are pure and vectorized over y / field values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelParams",
    "AlphaConstants",
    "NodePowers",
    "node_powers",
    "make_params",
    "scale_factor",
    "eval_profile",
    "profile_second_derivative",
    "alpha_consts",
    "q_to_w",
    "signed_power",
    "table_cache",
]


def _freeze(value):
    """value with its arrays, and those in its tuples, set read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    return value


def table_cache(maxsize: int):
    """functools.lru_cache whose results, with the arrays in their tuples and
    NamedTuples, are set read-only: one copy serves every caller in the process."""
    def decorate(fn):
        @wraps(fn)
        def build(*args, **kwargs):
            return _freeze(fn(*args, **kwargs))
        return lru_cache(maxsize=maxsize)(build)
    return decorate


@dataclass(frozen=True)
class ModelParams:
    """Constants every operator consumes.

    M = 2kp/(p-1) is the polynomial growth degree of the weighted sup norm
    and the spectral cutoff; M_floor is the largest integer strictly below M
    (for integer M that is M - 1), so tracked modes run 0..M_floor.
    """

    p: float
    k: int
    kappa: float
    M: float
    M_floor: int

    @property
    def n_modes(self) -> int:
        return self.M_floor + 1


class AlphaConstants(NamedTuple):
    """Coefficients of the profile-curvature source term, quadratic in b."""

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float


class NodePowers(NamedTuple):
    """Points y with the powers of |y| that the sources use.

    Even powers are taken of |y|: a power of a negative base takes libm's
    slow path.
    """

    y: np.ndarray
    y2k: np.ndarray  # |y|^{2k}
    ydrift: np.ndarray  # |y|^{2k-2} y
    yres: np.ndarray  # |y|^{2k-2}


def node_powers(y: np.ndarray, k: int) -> NodePowers:
    ay = np.abs(y)
    yres = ay ** (2 * k - 2)
    return NodePowers(y, ay ** (2 * k), yres * y, yres)


def make_params(p: float, k: int) -> ModelParams:
    """Build the derived constants for exponent p > 1 and flatness k >= 2."""
    if not p > 1:
        raise ValueError(f"exponent p must satisfy p > 1, got {p}")
    if int(k) != k or k < 2:
        raise ValueError(f"flatness index k must be an integer >= 2, got {k}")
    k = int(k)
    kappa = (p - 1.0) ** (-1.0 / (p - 1.0))
    M = 2.0 * k * p / (p - 1.0)
    if abs(M - round(M)) < 1e-12 * max(1.0, abs(M)):
        M_floor = int(round(M)) - 1
    else:
        M_floor = math.floor(M)
    return ModelParams(p=float(p), k=k, kappa=kappa, M=M, M_floor=M_floor)


def scale_factor(s, k: int):
    """I(s) = exp((s/2)(1 - 1/k)), the ratio of parabolic to flat scaling."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return np.exp(0.5 * np.asarray(s, dtype=float) * (1.0 - 1.0 / k))


def eval_profile(y, b: float, params: ModelParams):
    """Return (f_b(y), e_b(y)) for b >= 0; both are positive and bounded."""
    F = params.p - 1.0 + b * np.abs(np.asarray(y, dtype=float)) ** (2 * params.k)
    f = F ** (-1.0 / (params.p - 1.0))
    e = 1.0 / F
    return f, e


def profile_second_derivative(y, b: float, params: ModelParams):
    """Closed form of f_b'' via the curvature coefficients: no symbolic algebra.

    f_b'' = y^{2k-2} (alpha1 + alpha2 y^{2k} e_b) f_b^p.
    """
    a = alpha_consts(b, params)
    y = np.asarray(y, dtype=float)
    f, e = eval_profile(y, b, params)
    y2k = np.abs(y) ** (2 * params.k)
    # even powers of |y|: a power of a negative base takes libm's slow path
    return np.abs(y) ** (2 * params.k - 2) * (a.alpha1 + a.alpha2 * y2k * e) * f**params.p


@lru_cache(maxsize=8)
def alpha_consts(b: float, params: ModelParams) -> AlphaConstants:
    """Curvature-source coefficients at b (cached: a flow stage asks for them
    from its jets, its increments and the outer grid's residual)."""
    p, k = params.p, params.k
    return AlphaConstants(
        alpha1=-2.0 * k * (2 * k - 1) * b / (p - 1.0),
        alpha2=4.0 * p * k**2 * b**2 / (p - 1.0) ** 2,
        alpha3=-2.0 * p * k * (2 * k - 1) * b / (p - 1.0),
        alpha4=4.0 * p * (2 * p - 1) * k**2 * b**2 / (p - 1.0) ** 2,
    )


def q_to_w(q, y, b: float, params: ModelParams):
    """w = f_b (1 + e_b q) on the given nodes."""
    f, e = eval_profile(y, b, params)
    return f * (1.0 + e * np.asarray(q, dtype=float))


def signed_power(x, p: float):
    """|x|^{p-1} x, the odd continuation of x^p to negative arguments."""
    x = np.asarray(x, dtype=float)
    return np.abs(x) ** (p - 1.0) * x
