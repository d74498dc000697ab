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
quadrature nodes and the basis, and every table a stage reads at those
nodes, is independent of s: z_frame() builds them once per model, on the
flow's one Gauss rule. A power of y = z / I is a power of z times a power
of I, and the sources take those powers of I as scalar factors. What does
depend on s is O(J) in size and built once per scale time by
scale_tables(). A remainder is its values array at the inner
nodes, or a GridFunction on the nodes z / I(s), the frame's own grid,
read as its values. Its source increments are evaluated in one pass at
the Gauss and the inner nodes together: projected_sources() projects the
first part and carries the second on its SourceProjections for
remainder_source().
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grid import (
    GridFunction,
    band,
    derivative,
    laplacian_compact,
    sample_matrix,
    uniform_grid,
    upwind_gradient,
)
from .hermite import (
    DEFAULT_QUAD_ORDER,
    QuadratureRule,
    gauss_rule,
    hermite_z_table,
    mode_projection_scale,
    project_modes_from_samples,
)
from .params import ModelParams, NodePowers, alpha_consts, node_powers, scale_factor, table_cache
from .operators import modulation_rate

__all__ = [
    "Z_MAX",
    "Z_NODES",
    "inner_nodes",
    "default_jet_order",
    "ZFrame",
    "z_frame",
    "ScaleTables",
    "scale_tables",
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
    """The s-independent operators and node tables of the inner grid, for one model.

    The Gauss nodes sit at fixed z, so interpolation from the inner nodes to
    them does not depend on s. [S; S D; D] gives r at the Gauss nodes, then
    dr/dz at the Gauss and at the inner nodes, with S the matrix of
    grid.sample's local cubic and D that of grid.derivative's 4th-order
    stencils; dr/dy = I dr/dz. It is kept as grid.band's cols and weights,
    at most 8 nodes per row, and applied by sdd(). L is the inner grid's L_s plus
    moving-frame term, d_zz - (z/2) d_z + 1, from grid.laplacian_compact and
    grid.upwind_gradient. pw holds the Gauss nodes followed by the inner
    nodes, in z, with their powers of |z|, and htab h_0..h_J there, J the
    model's default_jet_order. The Gauss nodes are those of
    gauss_rule(DEFAULT_QUAD_ORDER).
    """

    z: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    L: np.ndarray
    pw: NodePowers
    htab: np.ndarray

    def sdd(self, values: np.ndarray) -> np.ndarray:
        """[S; S D; D] @ values: r at the Gauss nodes, then dr/dz there and at the inner nodes."""
        return np.einsum("jn,jn->n", self.weights, values[self.cols])


@table_cache(maxsize=8)
def z_frame(params: ModelParams) -> ZFrame:
    """Build, once per process, the z-frame of a model."""
    z = inner_nodes()
    hz = float(z[1] - z[0])
    # the kernels act along the first axis: on the identity, their matrices
    eye = np.eye(z.size)
    D = derivative(eye, hz)
    L = laplacian_compact(eye, hz) - 0.5 * z[:, None] * upwind_gradient(eye, hz, z) + eye
    gauss = gauss_rule(DEFAULT_QUAD_ORDER).nodes
    S = sample_matrix(z, gauss)
    points = np.concatenate((gauss, z))
    return ZFrame(
        z, *band(np.vstack([S, S @ D, D])), L=L,
        pw=node_powers(points, params.k),
        htab=hermite_z_table(points, default_jet_order(params.n_modes)),
    )


# -- jet arithmetic ----------------------------------------------------------

@table_cache(maxsize=8)
def _toeplitz_index(J: int) -> np.ndarray:
    """idx[i, j] = i - j on and below the diagonal, J + 1 (a zero pad) above.

    For a jet a stored with one trailing zero, a[idx] is its lower-triangular
    Toeplitz matrix: a[idx] @ b is the jet of a b.
    """
    i = np.arange(J + 1)
    d = i[:, None] - i[None, :]
    return np.where(d >= 0, d, J + 1)


def _jet_binomial_power(u: np.ndarray, expo: float) -> np.ndarray:
    """Jet of (1 + u)^expo; requires 1 + u[0] > 0.

    Expands around the jet's constant term, so the truncated coefficients are
    exact for any real exponent. The powers of the constant-free part w come
    from products with its Toeplitz matrix, by Horner's rule; for a
    non-negative integer exponent the binomial series ends at w^expo.
    """
    base = 1.0 + u[0]
    if base <= 0.0:
        raise ValueError("jet composition requires 1 + u(0) > 0")
    J = u.size - 1
    n_terms = min(J, int(expo)) if float(expo).is_integer() and expo >= 0 else J
    w = np.zeros(J + 2)
    np.divide(u, base, out=w[: J + 1])
    w[0] = 0.0
    T = w[_toeplitz_index(J)]
    coeff = [1.0]  # binom(expo, m), m = 0..n_terms
    for m in range(1, n_terms + 1):
        coeff.append(coeff[-1] * ((expo - (m - 1)) / m))
    acc = np.zeros(J + 1)
    acc[0] = coeff[n_terms]
    for m in range(n_terms - 1, -1, -1):
        acc = T.dot(acc)
        acc[0] += coeff[m]
    return base**expo * acc


@table_cache(maxsize=16)
def _basis_structure(J: int) -> tuple[np.ndarray, np.ndarray]:
    """s-independent integer scaffolding of the basis/monomial conversions through degree J.

    counts/ell, rows n = 0..J: H_n = sum c (-I^{-2})^ell y^{n-2 ell}, with
    c = counts[n, n - 2 ell] and ell = ell[n, n - 2 ell]. The conversion
    back, y^j = sum |c| (I^{-2})^ell H_{j-2 ell}, has the same magnitudes
    and exponents. The exponents are integers, to gather from the powers of
    I^{-2}.
    """
    hc = np.zeros((J + 1, J + 1))
    he = np.zeros((J + 1, J + 1), dtype=np.intp)
    for n in range(J + 1):
        for ell in range(n // 2 + 1):
            c = math.factorial(n) / (math.factorial(ell) * math.factorial(n - 2 * ell))
            hc[n, n - 2 * ell] = c * (-1.0) ** ell
            he[n, n - 2 * ell] = ell
    return hc, he


def monomial_table(I2inv: float, J: int) -> np.ndarray:
    """C[j, n] = coefficient of H_n in y^j (zero when j < n or parity differs).

    Rows j = 0..J and columns n = 0..J, at I^{-2} = I2inv.
    """
    hc, he = _basis_structure(J)
    return np.abs(hc) * (I2inv ** np.arange(J // 2 + 1.0))[he]  # (I^{-2})^ell, ell = 0..J/2


# -- per-scale-time tables ----------------------------------------------------

class ScaleTables(NamedTuple):
    """What the projections need at one scale time, independent of the state.

    Every entry is a scalar or an O(J) table: mono is monomial_table(I^{-2},
    J), conv maps modes to their jet (H_n = sum c (-I^{-2})^ell y^{n-2 ell}),
    mono's first rows with the signs (-1)^ell, and proj_scale I^n / (2^n n!).
    i2k = I^{-2k} turns powers of z into powers of y: |y|^{2k} = i2k |z|^{2k},
    and as I dr/dz = dr/dy, the drift's |y|^{2k-2} y dr/dy and the residual's
    I^{-2} |y|^{2k-2} r are i2k |z|^{2k-2} z dr/dz and i2k |z|^{2k-2} r.
    """

    I: float
    I2inv: float
    i2k: float
    iexp: np.ndarray  # I^{-n}, n = 0..J
    conv: np.ndarray
    mono: np.ndarray
    proj_scale: np.ndarray


# trajectories that start at one s0 with one ds meet the same step times,
# and a cache that holds them all builds each table once per process: an
# ensemble round of the benchmark (46 trajectories from s0 = 20 at ds =
# 0.01) meets 591 to 646 of them over seeds 1-10, a shoot search 327; at
# J = 17 an entry holds 3.6 KB of arrays, so a full cache 3.7 MB
@table_cache(maxsize=1024)
def scale_tables(s: float, params: ModelParams) -> ScaleTables:
    """Build, once per scale time and model, the state-independent tables.

    Both conversions read the one monomial table: it holds the magnitudes
    of the basis's monomial coefficients (_basis_structure). J is the
    model's default_jet_order.
    """
    k, n_modes, J = params.k, params.n_modes, default_jet_order(params.n_modes)
    I = float(scale_factor(s, k))
    I2inv = I**-2
    mono = monomial_table(I2inv, J)
    return ScaleTables(
        I=I, I2inv=I2inv, i2k=I ** (-2 * k), iexp=I ** -np.arange(J + 1.0),
        conv=np.copysign(mono[:n_modes], _basis_structure(J)[0][:n_modes]),
        mono=mono, proj_scale=mode_projection_scale(I, n_modes),
    )


# -- source jets -------------------------------------------------------------

def _source_jets(
    modes: np.ndarray, b: float, tab: ScaleTables, params: ModelParams, J: int
) -> np.ndarray:
    """Exact jets of N, D_s, R_s, M, and the coupling y^{2k} e_b q at q = q_+ (rows).

    e_b's Toeplitz matrix is one gather from its jet, kept with one trailing
    zero; a source that carries a factor y^m is written into its row
    shifted by m.
    """
    p, k = params.p, params.k
    m = 2 * k
    a = alpha_consts(b, params)
    q = modes.dot(tab.conv)
    # e_b = (p-1)^{-1} sum_l (-b/(p-1))^l y^{2kl}, exact through degree J
    eb = np.zeros(J + 2)
    eb[: J + 1 : m] = (-b / (p - 1.0)) ** np.arange(J // m + 1) / (p - 1.0)
    Te = eb[_toeplitz_index(J)]
    u = Te.dot(q)  # e_b q

    out = np.zeros((5, J + 1))
    nonlin, drift, resid, modul, coupling = out
    nonlin[:] = _jet_binomial_power(u, p)
    nonlin[0] -= 1.0
    nonlin -= p * u
    # e_b dq/dy through the degree that its shift by 2k - 1 keeps
    n = J + 2 - m
    edq = Te[:n, :n].dot(q[1 : n + 1] * np.arange(1.0, n + 1))
    drift[m - 1 :] = (-4.0 * p * k * b / (p - 1.0) * tab.I2inv) * edq
    # R_s = I^{-2} y^{2k-2} (alpha1 + alpha3 e_b q + y^{2k} (alpha2 e_b + alpha4 e_b^2 q))
    resid[m - 2 :] = a.alpha3 * u[: n + 1]
    resid[m - 2] += a.alpha1
    j = n + 1 - m  # e_b and e_b^2 q through the degree that a shift by 4k - 2 keeps
    resid[2 * m - 2 :] += a.alpha2 * eb[:j] + a.alpha4 * Te[:j, :j].dot(u[:j])
    resid *= tab.I2inv
    coupling[m:] = u[: J + 1 - m]
    modul[m] = 1.0 / (p - 1.0)
    modul += p / (p - 1.0) * coupling
    return out


# for integer p <= 16 the nonlinear increment's integrand is a polynomial of
# degree p - 1 in t, which ceil(p / 2) Gauss-Legendre nodes integrate exactly
_GL_EXACT_MAX_P = 16
_GL_NODES = 8


@table_cache(maxsize=8)
def _legendre_rule(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] for the t-integral at exponent p.

    ceil(p / 2) nodes for integer p <= 16, where they are exact, 8 otherwise.
    """
    exact = float(p).is_integer() and p <= _GL_EXACT_MAX_P
    t, w = np.polynomial.legendre.leggauss(math.ceil(p / 2) if exact else _GL_NODES)
    return 0.5 * (t + 1.0), 0.5 * w


def _nonlinear_increment(u: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """N(q_+ + r) - N(q_+) at u = e_b q_+ and v = e_b r, without subtracting nearly equal values.

    Uses N(u+v) - N(u) = p v int_0^1 (|1+u+tv|^{p-1} - 1) dt with the
    integrand evaluated as expm1((p-1) log1p(.)) at all Gauss-Legendre nodes
    at once; accurate uniformly in the size of v and exact in t for integer p.
    """
    t, w = _legendre_rule(p)
    x = t[:, None] * v
    x += u
    np.log1p(x, out=x)
    x *= p - 1.0
    return p * v * w.dot(np.expm1(x, out=x))


def _increments(
    qp: np.ndarray, r: np.ndarray, dr: np.ndarray, pw: NodePowers, b: float,
    tab: ScaleTables, params: ModelParams,
) -> np.ndarray:
    """Remainder-coupled source increments at the points y = pw.y / I.

    Takes q_+ and r there, the z-derivative dr = dr/dz and the powers of z
    in pw; tab.i2k turns those into the powers of y. Returns the rows N,
    D_s, R_s, M of S(q_+ + r) - S(q_+), and as a fifth row the coupling
    increment y^{2k} e_b r. Each is formed without subtracting nearly equal
    values: the remainder is many orders below the polynomial part on the
    weight support, and differences of evaluated sources would be amplified
    into O(1) noise by the projection conditioning.
    """
    p, k = params.p, params.k
    y2k = tab.i2k * pw.y2k
    e = 1.0 / (p - 1.0 + b * y2k)
    ye = y2k * e
    a = alpha_consts(b, params)
    out = np.empty((5, r.size))
    out[0] = _nonlinear_increment(e * qp, e * r, p)
    np.multiply(-4.0 * p * k * b / (p - 1.0) * tab.i2k * e, pw.ydrift * dr, out=out[1])
    np.multiply(tab.i2k * pw.yres * e * (a.alpha3 + a.alpha4 * ye), r, out=out[2])
    np.multiply(ye, r, out=out[4])
    np.multiply(p / (p - 1.0), out[4], out=out[3])
    return out


# -- combined projections -----------------------------------------------------

class SourceProjections:
    """P_n of every source term at one state, plus the modulation solve.

    Rows of jets and inc are the sources N, D_s, R_s, M and the coupling
    y^{2k} e_b q. jets[:, n] holds the coefficient of H_n (n = 0..J) in each
    row's polynomial part, inc the projections of its remainder-coupled
    increment on the tracked modes, and their sums P_n for the tracked n are
    PN, PD, PR, PM and Pcoupling. values is the remainder's values array,
    by which remainder_source() knows the remainder they belong to, and zinc
    the increments N, D_s, R_s, M at its inner nodes (None when the
    remainder is zero).
    """

    def __init__(self, jets: np.ndarray, inc: np.ndarray, values: np.ndarray,
                 zinc: np.ndarray | None = None):
        self.jets, self.inc, self.values, self.zinc = jets, inc, values, zinc
        self.PN, self.PD, self.PR, self.PM, self.Pcoupling = jets[:, : inc.shape[1]] + inc

    def bprime(self, params: ModelParams, variant: str = "derived") -> float:
        """b' from the projections; variant admits only the flow's "derived" form."""
        if variant != "derived":
            raise ValueError(f"the flow solves b' in the derived form only, got {variant!r}")
        n = 2 * params.k
        return modulation_rate(self.PN[n] + self.PD[n] + self.PR[n], self.Pcoupling[n], params.p)


def _require_inner_nodes(rem: GridFunction | np.ndarray, I: float) -> None:
    """Refuse a GridFunction remainder off the inner nodes z / I(s), the z-frame's grid."""
    if isinstance(rem, GridFunction) and not np.array_equal(rem.nodes, inner_nodes() / I):
        raise ValueError("a GridFunction remainder must sit on inner_nodes() / I(s); "
                         "pass it there or as its values at inner_nodes()")


def projected_sources(
    modes: np.ndarray,
    rem: GridFunction | np.ndarray,
    b: float,
    s: float,
    params: ModelParams,
    quad: QuadratureRule,
) -> SourceProjections:
    """Tracked-mode projections of N, D_s, R_s, M and the modulation coupling.

    The polynomial part q_+ is handled by jets, all five projected by one
    product with the monomial table; the remainder enters through source
    increments evaluated at the quadrature nodes, where it is small, and
    projected together. The remainder is brought to those nodes by the
    z-frame's [S; S D; D], and its increments are evaluated in the same
    pass at the inner nodes, for remainder_source(). rem is the values
    array at inner_nodes(), or a GridFunction on inner_nodes() / I(s), else
    ValueError; a zero remainder may sit on any nodes and builds no frame.
    A non-zero one needs quad to be gauss_rule(DEFAULT_QUAD_ORDER), the
    frame's rule, else ValueError.
    """
    p, k = params.p, params.k
    n_modes = params.n_modes
    J = default_jet_order(n_modes)
    tab = scale_tables(s, params)
    nq = quad.order

    # the truncated e_b expansion must converge across the weight's support;
    # the Gauss nodes are symmetric and ascending, so the last is the largest
    if b * (float(quad.nodes[-1]) / tab.I) ** (2 * k) / (p - 1.0) > 0.5:
        raise ValueError(
            "scale time too small for the jet projection route: the profile "
            "expansion parameter exceeds 1/2 on the quadrature support"
        )

    jets = _source_jets(modes, b, tab, params, J).dot(tab.mono)
    values = rem.values if isinstance(rem, GridFunction) else rem
    if not (values != 0.0).any():
        return SourceProjections(jets, np.zeros((5, n_modes)), values)
    if nq != DEFAULT_QUAD_ORDER:
        raise ValueError(f"a non-zero remainder is read through the z-frame, whose Gauss rule "
                         f"has order {DEFAULT_QUAD_ORDER}, not {nq}")
    _require_inner_nodes(rem, tab.I)
    frame = z_frame(params)
    scaled = modes * tab.iexp[:n_modes]  # H_n(z / I) = I^{-n} h_n(z)
    # r at the Gauss nodes, then dr/dz at the Gauss and the inner nodes
    rd = frame.sdd(values)
    r = np.concatenate((rd[:nq], values))
    incs = _increments(scaled.dot(frame.htab[:n_modes]), r, rd[nq:], frame.pw, b, tab, params)
    inc = project_modes_from_samples(incs[:, :nq], s, k, n_modes, quad, scale=tab.proj_scale)
    return SourceProjections(jets, inc, values, incs[:4, nq:])


def remainder_source(
    proj: SourceProjections,
    bprime: float,
    modes: np.ndarray,
    rem: GridFunction | np.ndarray,
    b: float,
    s: float,
    params: ModelParams,
) -> np.ndarray:
    """(1 - Pi) S at the inner nodes, with Pi the tracked-mode projection.

    S = N + D_s + R_s + b' M splits into its polynomial part, whose untracked
    basis content sum_{n > M_floor} a_n H_n comes straight from the jets, and
    the remainder-coupled increment minus its projections. Nothing is
    subtracted from an O(1) value, so the result keeps its relative accuracy
    where the remainder is of size I^{-M}; the direct difference S - Pi S
    would bury it under the roundoff of S. Both basis parts are summed as one
    series in h_n(z), and the increments are the ones proj carries, so proj
    must come from projected_sources() on this same rem: the values array
    at inner_nodes(), or a GridFunction on inner_nodes() / I(s). modes and
    b are not read; they stay for the callers that pass all seven arguments
    by position, and go with those calls (ROADMAP direction 1).
    """
    n_modes = params.n_modes
    tab = scale_tables(s, params)
    if proj.values is not (rem.values if isinstance(rem, GridFunction) else rem):
        raise ValueError("proj must come from projected_sources() on this remainder")
    _require_inner_nodes(rem, tab.I)
    w = np.array([1.0, 1.0, 1.0, bprime])
    coef = w.dot(proj.jets[:4])
    coef[:n_modes] = -w.dot(proj.inc[:4])
    # h_0..h_J at the inner nodes, which follow the Gauss nodes in the frame's
    # table: a product with the whole table, whose rows are contiguous, costs
    # less than one with its strided inner block, and gives the same values
    out = (coef * tab.iexp).dot(z_frame(params).htab)[DEFAULT_QUAD_ORDER:]
    if proj.zinc is not None:
        out += w.dot(proj.zinc)
    return out


def solve_bprime_projected(
    modes: np.ndarray,
    rem: GridFunction,
    b: float,
    s: float,
    params: ModelParams,
    quad: QuadratureRule,
) -> float:
    """Modulation rate via the jet-based projections (conditioned at large s)."""
    return projected_sources(modes, rem, b, s, params, quad).bprime(params)
