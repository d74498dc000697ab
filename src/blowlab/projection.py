"""Well-conditioned basis projections of the flow's source terms.

Extracting the coefficient of H_n from point samples of a function with O(1)
low-degree content is ill-conditioned at large scale times: the quadrature
sum cancels down to an I^{-2n}-sized integral, so roundoff is amplified by
I(s)^n. The flow needs those projections at every stage, so this module
computes them the way the underlying calculus does:

* the tracked-mode (polynomial) part of each source is processed with exact
  truncated power-series arithmetic in y around the origin (jets), and its
  projections come from the closed-form expansion of monomials in the basis;
* the remainder-coupled part of each source is pointwise small on the weight
  support (the remainder is orthogonal to the tracked range), so its direct
  quadrature projection carries no harmful cancellation.

Jets are plain coefficient arrays c[0..J] for sum_j c[j] y^j. The jet order
only controls the neglected y^{J+1} Taylor tail, whose weighted moments are
far below double precision for the default J = M_floor + 12. Jet products
are products with lower-triangular Toeplitz matrices.

The flow carries its remainder on an inner grid at fixed z = I(s) y, and
the Gauss nodes also sit at fixed z, so every map between that grid, the
quadrature nodes and the basis is independent of s. z_frame() builds those
operators once per (quadrature order, J) and caches them: the stacked
matrix [S; S D] that gives the remainder and its z-derivative at the Gauss
nodes in one product (S from grid.sample's own stencil, D from
grid.derivative's), D itself, h_0..h_J at the inner nodes, and the inner
grid's d_zz - (z/2) d_z + 1. A remainder handed over as a ZRemainder is
read through them; any other GridFunction is sampled point by point.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import (
    GridFunction,
    derivative,
    laplacian_compact,
    sample,
    sample_matrix,
    uniform_grid,
    upwind_gradient,
)
from .hermite import (
    QuadratureRule,
    gauss_rule,
    hermite_z_table,
    project_modes_from_samples,
    quad_hermite_table,
)
from .params import ModelParams, alpha_consts, eval_profile, scale_factor
from .operators import DENOM_THRESHOLD, drift_values, modulation_rate

__all__ = [
    "Z_MAX",
    "Z_NODES",
    "inner_nodes",
    "default_jet_order",
    "ZFrame",
    "z_frame",
    "ZRemainder",
    "monomial_table",
    "SourceProjections",
    "projected_sources",
    "remainder_source",
    "solve_bprime_projected",
]

# inner remainder grid in z = I(s) y: the weight exp(-z^2/4) is below 1e-27
# at the edge, and |z| <= 6 spans 72 cells at every s
Z_MAX = 16.0
Z_NODES = 193


def inner_nodes() -> np.ndarray:
    return uniform_grid(Z_MAX, Z_NODES)


def default_jet_order(n_modes: int) -> int:
    """J = M_floor + 12: the y^{J+1} tail's weighted moments are below roundoff."""
    return n_modes - 1 + 12


# -- the z-frame -------------------------------------------------------------

class ZFrame(NamedTuple):
    """The s-independent operators of the inner grid, for one (quad order, J).

    The Gauss nodes sit at fixed z, so interpolation from the inner nodes to
    them does not depend on s. SD = [S; S D] gives r and dr/dz there in one
    product, with S the matrix of grid.sample's local cubic and D that of
    grid.derivative's 4th-order stencils; dr/dy = I dr/dz. ztab holds
    h_0..h_J at the nodes, so H_n(z / I, s) = I^{-n} ztab[n]. L is the
    inner grid's L_s plus moving-frame term, d_zz - (z/2) d_z + 1, from
    grid.laplacian_compact and grid.upwind_gradient.
    """

    quad_order: int
    J: int
    z: np.ndarray
    SD: np.ndarray
    D: np.ndarray
    ztab: np.ndarray
    L: np.ndarray


@lru_cache(maxsize=8)
def z_frame(quad_order: int, J: int) -> ZFrame:
    """Build, once per process, the z-frame operators of a quadrature order and jet order."""
    z = inner_nodes()
    hz = float(z[1] - z[0])
    # column j of each matrix is its kernel applied to the j-th unit vector
    D = np.empty((z.size, z.size))
    L = np.empty((z.size, z.size))
    unit = np.zeros(z.size)
    for j in range(z.size):
        unit[j] = 1.0
        D[:, j] = derivative(unit, hz)
        L[:, j] = laplacian_compact(unit, hz) - 0.5 * z * upwind_gradient(unit, hz, z) + unit
        unit[j] = 0.0
    S = sample_matrix(z, gauss_rule(quad_order).nodes)
    frame = ZFrame(
        quad_order=quad_order, J=J, z=z,
        SD=np.vstack([S, S @ D]), D=D, ztab=hermite_z_table(z, J), L=L,
    )
    for arr in (frame.z, frame.SD, frame.D, frame.ztab, frame.L):
        arr.flags.writeable = False  # one cached copy serves every caller
    return frame


class ZRemainder(NamedTuple):
    """Remainder values at the inner nodes of a z-frame.

    projected_sources() and remainder_source() take it at scale time s in
    place of the GridFunction on the nodes z / I(s), and then use the
    frame's operators.
    """

    frame: ZFrame
    values: np.ndarray


def _at_quadrature(rem, y: np.ndarray, I: float) -> tuple[np.ndarray, np.ndarray]:
    """r and dr/dy of the remainder at the Gauss nodes y = z_i / I."""
    if isinstance(rem, ZRemainder):
        if rem.frame.quad_order != y.size:
            raise ValueError("z-frame built for another quadrature order")
        rd = rem.frame.SD @ rem.values
        return rd[: y.size], I * rd[y.size:]
    dr = derivative(rem.values, rem.spacing)
    return sample(rem.nodes, rem.values, y), sample(rem.nodes, dr, y)


# -- jet arithmetic ----------------------------------------------------------

_ZERO = np.zeros(1)


@lru_cache(maxsize=8)
def _toeplitz_index(J: int) -> np.ndarray:
    """idx[i, j] = i - j on and below the diagonal, J + 1 (a zero pad) above."""
    i = np.arange(J + 1)
    d = i[:, None] - i[None, :]
    idx = np.where(d >= 0, d, J + 1)
    idx.flags.writeable = False
    return idx


def _jet_matrix(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrix of a jet: _jet_matrix(a) @ b is the jet of a b."""
    return np.concatenate((a, _ZERO))[_toeplitz_index(a.size - 1)]


def _jet_binomial_power(u: np.ndarray, expo: float) -> np.ndarray:
    """Jet of (1 + u)^expo; requires 1 + u[0] > 0.

    Expands around the jet's constant term, so the truncated coefficients are
    exact for any real exponent. The powers of the constant-free part w come
    from repeated products with its Toeplitz matrix; for a non-negative
    integer exponent the binomial series ends at w^expo.
    """
    base = 1.0 + u[0]
    if base <= 0.0:
        raise ValueError("jet composition requires 1 + u(0) > 0")
    J = u.size - 1
    w = u / base
    w[0] = 0.0
    n_terms = min(J, int(expo)) if float(expo).is_integer() and expo >= 0 else J
    T = _jet_matrix(w)
    powers = np.zeros((n_terms + 1, J + 1))
    powers[0, 0] = 1.0
    for m in range(1, n_terms + 1):
        powers[m] = T @ powers[m - 1]
    m = np.arange(1, n_terms + 1)
    coeff = np.cumprod(np.concatenate(([1.0], (expo - (m - 1)) / m)))
    return base**expo * (coeff @ powers)


@lru_cache(maxsize=16)
def _basis_structure(n_modes: int, J: int):
    """s-independent integer scaffolding of the basis/monomial conversions.

    hermite_counts/hermite_ell: H_n = sum c (-I^{-2})^ell y^{n-2 ell};
    mono_counts/mono_ell: y^j = sum c (I^{-2})^ell H_{j-2 ell}.
    """
    hc = np.zeros((n_modes, J + 1))
    he = np.zeros((n_modes, J + 1))
    for n in range(n_modes):
        for ell in range(n // 2 + 1):
            c = math.factorial(n) / (math.factorial(ell) * math.factorial(n - 2 * ell))
            hc[n, n - 2 * ell] = c * (-1.0) ** ell
            he[n, n - 2 * ell] = ell
    mc = np.zeros((J + 1, n_modes))
    me = np.zeros((J + 1, n_modes))
    for j in range(J + 1):
        for ell in range(j // 2 + 1):
            n = j - 2 * ell
            if n < n_modes:
                c = math.factorial(j) / (math.factorial(ell) * math.factorial(j - 2 * ell))
                mc[j, n] = c
                me[j, n] = ell
    return hc, he, mc, me


def _modes_to_jet(modes: np.ndarray, I2inv: float, J: int) -> np.ndarray:
    hc, he, _, _ = _basis_structure(modes.size, J)
    return modes @ (hc * I2inv**he)


def monomial_table(n_modes: int, I2inv: float, J: int) -> np.ndarray:
    """C[j, n] = coefficient of H_n in y^j (zero when j < n or parity differs).

    Rows j = 0..J, columns n = 0..n_modes-1, at I^{-2} = I2inv.
    """
    _, _, mc, me = _basis_structure(n_modes, J)
    return mc * I2inv**me


# -- source jets -------------------------------------------------------------

def _source_jets(
    modes: np.ndarray, b: float, I2inv: float, params: ModelParams, J: int, variant: str
) -> np.ndarray:
    """Exact jets of N, D_s, R_s, M, and the coupling y^{2k} e_b q at q = q_+ (rows)."""
    p, k = params.p, params.k
    a = alpha_consts(b, params)

    q = _modes_to_jet(modes, I2inv, J)
    dq = np.zeros(J + 1)
    dq[:-1] = q[1:] * np.arange(1, J + 1)

    # e_b = (p-1)^{-1} sum_l (-b/(p-1))^l y^{2kl}, exact through degree J
    e = np.zeros(J + 1)
    e[:: 2 * k] = (-b / (p - 1.0)) ** np.arange(J // (2 * k) + 1) / (p - 1.0)
    Te = _jet_matrix(e)

    u = Te @ q
    nonlin = _jet_binomial_power(u, p)
    nonlin[0] -= 1.0
    nonlin -= p * u

    def shift(jet: np.ndarray, m: int) -> np.ndarray:
        out = np.zeros(J + 1)
        out[m:] = jet[: J + 1 - m]
        return out

    drift = -4.0 * p * k * b / (p - 1.0) * I2inv * shift(Te @ dq, 2 * k - 1)

    resid_inner = np.zeros(J + 1)
    resid_inner[0] = a.alpha1
    resid_inner += a.alpha2 * shift(e, 2 * k)
    qpart = np.zeros(J + 1)
    qpart[0] = a.alpha3
    qpart += a.alpha4 * shift(e, 2 * k)
    if variant == "derived":
        qpart = Te @ qpart
    resid = I2inv * shift(resid_inner + _jet_matrix(qpart) @ q, 2 * k - 2)

    coupling = shift(u, 2 * k)  # y^{2k} e_b q
    modul = np.zeros(J + 1)
    modul[2 * k] = 1.0 / (p - 1.0) if variant == "derived" else p / (p - 1.0)
    modul += p / (p - 1.0) * coupling

    return np.array([nonlin, drift, resid, modul, coupling])


# Gauss-Legendre nodes/weights on [0, 1]; exact through degree 15, so the
# nonlinear increment below is exact for integer p <= 16
_GL_T, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_T = 0.5 * (_GL_T + 1.0)
_GL_W = 0.5 * _GL_W


def _nonlinear_increment(qp: np.ndarray, r: np.ndarray, e: np.ndarray, p: float) -> np.ndarray:
    """N(q_+ + r) - N(q_+) without subtracting nearly equal values.

    Uses N(u+v) - N(u) = p v int_0^1 (|1+u+tv|^{p-1} - 1) dt with the
    integrand evaluated as expm1((p-1) log1p(.)) at all Gauss-Legendre nodes
    at once; accurate uniformly in the size of v and exact in t for integer p.
    """
    u = e * qp
    v = e * r
    x = u + _GL_T[:, None] * v
    return p * v * (_GL_W @ np.expm1((p - 1.0) * np.log1p(x)))


def _increments(
    qp: np.ndarray, r: np.ndarray, dr: np.ndarray, y: np.ndarray, b: float,
    I2inv: float, params: ModelParams, variant: str,
) -> np.ndarray:
    """Remainder-coupled source increments at the points y.

    Returns the rows N, D_s, R_s, M of S(q_+ + r) - S(q_+), given q_+, r and
    dr/dy there, and as a fifth row the coupling increment y^{2k} e_b r.
    Each is formed without subtracting nearly equal values: the remainder is
    many orders below the polynomial part on the weight support, and
    differences of evaluated sources would be amplified into O(1) noise by
    the projection conditioning.
    """
    p, k = params.p, params.k
    _, e = eval_profile(y, b, params)
    y2k = np.abs(y) ** (2 * k)
    a = alpha_consts(b, params)
    qweight = e if variant == "derived" else 1.0
    dC = y2k * e * r
    return np.array([
        _nonlinear_increment(qp, r, e, p),
        drift_values(dr, y, e, b, I2inv, params),
        I2inv * y ** (2 * k - 2) * qweight * (a.alpha3 + a.alpha4 * y2k * e) * r,
        (p / (p - 1.0)) * dC,
        dC,
    ])


# -- combined projections -----------------------------------------------------

class SourceProjections:
    """P_n of every source term at one state, plus the modulation solve.

    Rows of jets and inc are the sources N, D_s, R_s, M. jets[:, n] holds the
    coefficient of H_n (n = 0..J) in each source's polynomial part, inc the
    projections of its remainder-coupled increment on the tracked modes, so
    P_n = jets[:, n] + inc[:, n] for the tracked n.
    """

    def __init__(self, jets: np.ndarray, inc: np.ndarray, Pcoupling: np.ndarray):
        self.jets = jets
        self.inc = inc
        self.Pcoupling = Pcoupling
        self.PN, self.PD, self.PR, self.PM = jets[:, : inc.shape[1]] + inc

    def bprime(
        self, params: ModelParams, variant: str, denom_threshold: float = DENOM_THRESHOLD,
    ) -> float:
        n = 2 * params.k
        return modulation_rate(
            self.PN[n] + self.PD[n] + self.PR[n], self.Pcoupling[n], params.p, variant,
            denom_threshold,
        )


def projected_sources(
    modes: np.ndarray,
    rem: GridFunction | ZRemainder,
    b: float,
    s: float,
    params: ModelParams,
    quad: QuadratureRule,
    variant: str = "derived",
    jet_order: int | None = None,
) -> SourceProjections:
    """Tracked-mode projections of N, D_s, R_s, M and the modulation coupling.

    The polynomial part q_+ is handled by jets, all five projected by one
    product with the monomial table; the remainder enters through source
    increments evaluated at the quadrature nodes, where it is small, and
    projected together. A ZRemainder is brought to those nodes by its
    frame's [S; S D], any other GridFunction by grid.sample.
    """
    p, k = params.p, params.k
    n_modes = params.n_modes
    J = jet_order if jet_order is not None else default_jet_order(n_modes)
    I = float(scale_factor(s, k))
    I2inv = I**-2

    # the truncated e_b expansion must converge across the weight's support
    y_edge = float(np.max(np.abs(quad.nodes))) / I
    if b * y_edge ** (2 * k) / (p - 1.0) > 0.5:
        raise ValueError(
            "scale time too small for the jet projection route: the profile "
            "expansion parameter exceeds 1/2 on the quadrature support"
        )

    coeffs = _source_jets(modes, b, I2inv, params, J, variant) @ monomial_table(
        J + 1, I2inv, J
    )
    inc = np.zeros((5, n_modes))
    if np.any(rem.values != 0.0):
        ztab = quad_hermite_table(quad, n_modes - 1)
        y = quad.nodes / I
        qp = (modes * I ** -np.arange(n_modes, dtype=float)) @ ztab
        r, dr = _at_quadrature(rem, y, I)
        incs = _increments(qp, r, dr, y, b, I2inv, params, variant)
        inc = project_modes_from_samples(incs, s, k, n_modes, quad, ztab)

    return SourceProjections(coeffs[:4], inc[:4], coeffs[4, :n_modes] + inc[4])


def remainder_source(
    proj: SourceProjections,
    bprime: float,
    modes: np.ndarray,
    rem: GridFunction | ZRemainder,
    b: float,
    s: float,
    params: ModelParams,
    variant: str = "derived",
) -> np.ndarray:
    """(1 - Pi) S at the nodes of rem, with Pi the tracked-mode projection.

    S = N + D_s + R_s + b' M splits into its polynomial part, whose untracked
    basis content sum_{n > M_floor} a_n H_n comes straight from the jets, and
    the remainder-coupled increment minus its projections. Nothing is
    subtracted from an O(1) value, so the result keeps its relative accuracy
    where the remainder is of size I^{-M}; the direct difference S - Pi S
    would bury it under the roundoff of S. A ZRemainder reads the basis and
    the derivative from its frame; the nodes of any other GridFunction get
    their own.
    """
    n_modes = params.n_modes
    J = proj.jets.shape[1] - 1
    I = float(scale_factor(s, params.k))
    if isinstance(rem, ZRemainder):
        y, ztab = rem.frame.z / I, rem.frame.ztab[: J + 1]
    else:
        y, ztab = rem.nodes, hermite_z_table(I * rem.nodes, J)
    iexp = I ** (-np.arange(J + 1, dtype=float))
    w = np.array([1.0, 1.0, 1.0, bprime])
    out = ((w @ proj.jets[:, n_modes:]) * iexp[n_modes:]) @ ztab[n_modes:]
    if np.any(rem.values != 0.0):
        if isinstance(rem, ZRemainder):
            dr = I * (rem.frame.D @ rem.values)
        else:
            dr = derivative(rem.values, rem.spacing)
        low = ztab[:n_modes] * iexp[:n_modes, None]
        qp = modes @ low
        incs = _increments(qp, rem.values, dr, y, b, I**-2, params, variant)
        out = out + w @ incs[:4] - (w @ proj.inc) @ low
    return out


def solve_bprime_projected(
    modes: np.ndarray,
    rem: GridFunction,
    b: float,
    s: float,
    params: ModelParams,
    quad: QuadratureRule,
    variant: str = "derived",
    denom_threshold: float = DENOM_THRESHOLD,
) -> float:
    """Modulation rate via the jet-based projections (conditioned at large s)."""
    proj = projected_sources(modes, rem, b, s, params, quad, variant)
    return proj.bprime(params, variant, denom_threshold)
