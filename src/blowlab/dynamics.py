"""Time integration of the coupled (q, b) flow inside the shrinking set.

A state holds the scale time s, the profile parameter b, and the spectral
split of q: tracked mode coefficients q_0..q_{M_floor} plus a remainder that
is orthogonal to the tracked range. The two parts are advanced together by
one Lawson RK4 scheme but by different mechanisms:

* tracked modes obey dq_n/ds = (1 - n/2k) q_n + P_n(N + D_s + R_s + b' M).
  The generator's off-diagonal (Jordan) coupling cancels exactly against the
  moving-basis correction of d/ds P_n, so only source projections remain;
  they are computed by the conditioned jet/quadrature split, which stays
  accurate at large s where direct re-extraction of high modes from grid
  samples loses all precision to roundoff amplification by I(s)^n;
* the remainder obeys d_s q_- = L_s q_- + (sources minus their tracked-mode
  content) and is carried on two grids, both with finite differences
  (outflow-biased at the edges). An inner grid at fixed z = I(s) y resolves
  the Gaussian weight uniformly in s; there L_s plus the moving-frame term
  is the constant-coefficient operator L = d_zz - (z/2) d_z + 1, and the
  sources come in the cancellation-free form of remainder_source(). It
  alone feeds the remainder back into the tracked modes and measures the
  unstable-range debris removed after every step. Because its nodes and
  the Gauss nodes sit at fixed z, every operator on it is independent of s
  and built once per process (projection.z_frame): L, the stacked
  interpolation and derivative [S; S D; D] and the basis table h_0..h_J. A
  stage applies them as matrix products and hands the grid's values over
  as a projection.ZRemainder. An outer grid over |y| <= Y_MAX, with
  pointwise sources, carries the remainder where the weighted sup |q_-|_s
  looks, far outside the weight.

The time scheme is Lawson's RK4 (Hochbruck & Ostermann, Acta Numerica 19,
2010): the inner remainder is stepped in the variable e^{-(s - s0) L} u, so
L is integrated exactly through e^{hL/2} and its square, and RK4 sees only
the sources. The outer remainder's diffusion I^{-2}(s) D0 is integrated
exactly too: D0 is grid.laplacian_compact with its two edge rows zeroed
(the outflow edge nodes take no diffusion), so its propagator from s_a to
s_b is e^{c D0} with c = int_{s_a}^{s_b} I^{-2}, diagonal in the
orthogonal sine transform (DST-I) of the interior nodes, and RK4 sees the
outer grid's transport and sources alone. The modes and b take classical
RK4, which is Lawson's scheme where the exponential is the identity.
Stability therefore bounds the step by the outer transport alone
(stable_ds, independent of s). run() ends its steps on a grid of quarter
output intervals: within that bound, each step grows as far as a free
error estimate of the last one allows (the stage at a step's end, which
the next step starts from, against its fourth stage), but never below one
output interval from a sample. The samples inside a step are read off a
cubic Hermite interpolant of the step's end states and derivatives.

What a stage needs at the outer nodes (their powers, the wind, the
monomials y^j of the tracked degrees) is built once per node set. A
series in the basis reaches them as its power series in y, whose
coefficients come from projection.scale_tables' conversion table, times the
monomials: no table of the basis at the outer nodes depends on s.

The modulation rate b' is solved at every stage so dq_{2k}/ds = 0; the
neutral mode therefore stays exactly zero along trajectories.

Membership monitoring checks the time-dependent box: |q_m| <= I^{-delta}(s)
for tracked modes m != 2k, |q_{2k}| <= I^{-2 delta}(s), the weighted
remainder sup |q_-|_s <= I^{-delta}(s), and b0/2 <= b <= 2 b0. Trajectories
either survive to the horizon or exit; exits record the violated bound, the
crossing sign, and the crossing speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .grid import (
    RK4_TRANSPORT_CFL, GridFunction, derivative, laplacian_compact, sample, uniform_grid,
    upwind_gradient,
)
from .hermite import (
    QuadratureRule,
    SpectralDecomposition,
    gauss_rule,
    project_modes_from_samples,
    remainder_seminorm,
)
from .operators import (
    ModulationBreakdownError,
    drift_values,
    modulation_values,
    nonlinear_values,
    residual_values,
)
from .params import ModelParams, NodePowers, node_powers, scale_factor
from .projection import (
    Z_NODES,
    ZFrame,
    ZRemainder,
    ScaleTables,
    default_jet_order,
    inner_nodes,
    monomial_table,
    projected_sources,
    remainder_source,
    scale_tables,
    z_frame,
)

__all__ = [
    "FlowOptions",
    "SimState",
    "MembershipReport",
    "TrajectorySample",
    "ExitInfo",
    "TrajectoryRecord",
    "AprioriReport",
    "gamma_map",
    "init_state",
    "step",
    "membership",
    "run",
    "mode_ode_rhs",
    "a_priori_diagnostics",
]

D_BOX_LIMIT = 2.0
# the largest step a caller may ask for, and the ceiling of stable_ds
MAX_DS = 0.05
# the outer remainder grid spans |y| <= Y_MAX
Y_MAX = 0.15
# membership's remainder cushion: an absolute floor, and one relative to the
# remainder's own amplitude
SEM_FLOOR = 1e-10
SEM_REL_FLOOR = 0.05
# a margin must fall below minus this to end a trajectory
EXIT_HYSTERESIS = 1e-12
# the local error run() allows a step, by _step_error's measure
STEP_TOL = 1e-9

# the inner remainder grid in z = I(s) y (Z_NODES, inner_nodes) is
# defined in projection, beside its cached operators; the outer grid copies
# the inner values on |z| <= Z_OVERLAP, clear of the inner grid's one-sided
# edge closures
Z_OVERLAP = 12.0


@dataclass(frozen=True)
class FlowOptions:
    """Numerical knobs of the modulated flow: outer grid, quadrature, linear-only.

    The outer grid is coarse because the remainder is smooth on O(1) scales
    in y there. Its diffusion I^{-2} d_yy and the inner z-grid's operator are
    integrated exactly and set no ceiling; the outer transport y/2k sets
    the s-independent ceiling RK4_TRANSPORT_CFL h 2k / Y_MAX, so the step
    scales with the outer spacing, not with its square. stable_ds is the
    smaller of that ceiling and MAX_DS. Steps larger than stable_ds are
    split into equal stable substeps automatically. The linear-only flow
    leaves the inner grid at zero.

    variant is not a field: it names the one form of M and R_s the flow
    solves b' in (operators), for callers that pass it on to
    SourceProjections.bprime.
    """

    variant: ClassVar[str] = "derived"

    n_nodes: int = 257
    quad_order: int = 96
    linear_only: bool = False

    def nodes(self) -> np.ndarray:
        return uniform_grid(Y_MAX, self.n_nodes)

    def quad(self) -> QuadratureRule:
        return gauss_rule(self.quad_order)

    def stable_ds(self, k: int) -> float:
        """The largest stable step: the outer transport's RK4 ceiling, within MAX_DS."""
        h = 2.0 * Y_MAX / (self.n_nodes - 1)
        return min(MAX_DS, RK4_TRANSPORT_CFL * h / (Y_MAX / (2.0 * k)))


@dataclass(frozen=True)
class SimState:
    """Flow state; dec.remainder is the outer y-grid remainder.

    inner holds the remainder at the fixed nodes inner_nodes() in z; None
    stands for the zero remainder.
    """

    s: float
    b: float
    dec: SpectralDecomposition
    inner: np.ndarray | None = None

    def __post_init__(self):
        if self.dec.s != self.s:
            raise ValueError("decomposition scale time must match state time")

    def inner_values(self) -> np.ndarray:
        return np.zeros(Z_NODES) if self.inner is None else self.inner


@dataclass(frozen=True)
class MembershipReport:
    inside: bool
    violations: list[tuple[str, float]]
    worst_margin: float
    margins: dict[str, float]
    qminus_seminorm: float


@dataclass(frozen=True)
class TrajectorySample:
    s: float
    b: float
    bprime: float
    modes: np.ndarray
    qminus_seminorm: float
    inside: bool


@dataclass(frozen=True)
class ExitInfo:
    """How a trajectory left the set.

    bound is a membership bound name, "modulation" when the b' solve broke
    down, or "nonfinite" when a step produced non-finite values. For those
    two, s_star is the last recorded sample, omega the sign of q_0 there
    (the denominator 1 + p P_2k(y^2k e_b q) only degenerates as q_0 is driven
    negative), and reason carries the message.
    """

    s_star: float
    bound: str
    mode: int | None
    omega: int
    dqds: float | None
    transversal: bool | None
    reason: str | None = None


@dataclass
class TrajectoryRecord:
    samples: list[TrajectorySample] = field(default_factory=list)
    exit: ExitInfo | None = None
    final_state: "SimState | None" = None

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "s": np.array([x.s for x in self.samples]),
            "b": np.array([x.b for x in self.samples]),
            "bprime": np.array([x.bprime for x in self.samples]),
            "modes": np.array([x.modes for x in self.samples]),
            "qminus": np.array([x.qminus_seminorm for x in self.samples]),
            "inside": np.array([x.inside for x in self.samples]),
        }


def gamma_map(d, s0: float, delta: float, params: ModelParams) -> np.ndarray:
    """Exact basis coefficients (psi_0..psi_{2k-1}) of the seed polynomial.

    Linear in d; diagonal I^{-delta}(s0) plus I^{-delta-2} corrections from
    converting even monomials into the basis (rows of monomial_table).
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (2 * params.k,):
        raise ValueError(f"d must have length 2k = {2 * params.k}")
    n = 2 * params.k
    I = float(scale_factor(s0, params.k))
    amp = I ** (-delta)
    C = monomial_table(n, I**-2, n - 1)
    psi = np.zeros(n)
    # summed row by row in index order, not as a matrix product, which would
    # round each mode differently
    for i, di in enumerate(d):
        if di != 0.0:
            psi += di * amp * C[i]
    return psi


def init_state(
    d, delta: float, b0: float, s0: float, params: ModelParams,
    opts: FlowOptions = FlowOptions(),
) -> SimState:
    """State seeded by the polynomial sum_i d_i I^{-delta}(s0) y^i, b = b0.

    The seed has degree <= 2k-1, so its tracked coefficients above 2k-1 and
    its remainder vanish identically; modes are gamma_map(d), zero-padded.
    """
    psi = gamma_map(d, s0, delta, params)
    if np.max(np.abs(d)) > D_BOX_LIMIT + 1e-12:
        raise ValueError(f"|d_i| <= {D_BOX_LIMIT} required")
    modes = np.zeros(params.n_modes)
    modes[: psi.size] = psi
    nodes = opts.nodes()
    rem = GridFunction(nodes, np.zeros_like(nodes))
    return SimState(
        s=float(s0), b=float(b0), dec=SpectralDecomposition(float(s0), modes, rem),
        inner=np.zeros(Z_NODES),
    )


def _frame(params: ModelParams, quad: QuadratureRule) -> ZFrame:
    return z_frame(quad.order, default_jet_order(params.n_modes))


def _scale_tables(s: float, params: ModelParams) -> ScaleTables:
    return scale_tables(s, params.k, params.n_modes, default_jet_order(params.n_modes))


class _OuterGrid(NamedTuple):
    """The s-independent data of the outer grid of n nodes, for one model."""

    nodes: np.ndarray
    h: float
    wind: np.ndarray  # y / 2k, the transport speed
    pw: NodePowers  # the nodes' powers that the pointwise sources use
    yM: np.ndarray  # |y|^M, the seminorm's weight
    lam: np.ndarray  # 1 - n/2k, the tracked modes' linear rates
    mono: np.ndarray  # y^j at the nodes, j = 0..M_floor


@lru_cache(maxsize=8)
def _outer_grid(n_nodes: int, params: ModelParams) -> _OuterGrid:
    """Build, once per process, the outer grid of FlowOptions(n_nodes).nodes()."""
    nodes = FlowOptions(n_nodes=n_nodes).nodes()
    k = params.k
    grid = _OuterGrid(
        nodes=nodes, h=nodes[1] - nodes[0], wind=nodes / (2.0 * k),
        pw=node_powers(nodes, k), yM=np.abs(nodes) ** params.M,
        lam=1.0 - np.arange(params.n_modes) / (2.0 * k),
        mono=np.vander(nodes, params.n_modes, increasing=True).T,
    )
    for arr in (grid.nodes, grid.wind, *grid.pw[1:], grid.yM, grid.lam, grid.mono):
        arr.flags.writeable = False  # one cached copy serves every caller
    return grid


def _grid_of(state: SimState, params: ModelParams, opts: FlowOptions) -> _OuterGrid:
    """The outer grid of opts, on whose nodes state's remainder must sit."""
    grid = _outer_grid(opts.n_nodes, params)
    if not np.array_equal(state.dec.remainder.nodes, grid.nodes):
        raise ValueError("the state's outer nodes are not opts.nodes()")
    return grid


def _stage(
    x: tuple[np.ndarray, np.ndarray, np.ndarray, float],
    s: float,
    grid: _OuterGrid,
    params: ModelParams,
    quad: QuadratureRule,
    opts: FlowOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One RK stage: d/ds of (modes, outer remainder, b), and the inner source.

    The outer remainder's entry leaves out its diffusion I^{-2} D0, and the
    third entry is the inner remainder's source N, its derivative minus
    frame.L @ inner_vals: the Lawson step integrates both exactly. The last
    is b', the stage's b-derivative. The inner remainder reaches the
    projections as a ZRemainder, through the cached z-frame operators; on
    the outer grid q_+, dq_+/dy and the sources' tracked projection are
    three power series in y, summed by one product with its monomials.
    """
    modes, rem_vals, inner_vals, b = x
    tab = _scale_tables(s, params)
    h = grid.h

    # remainder transport: upwinded, it stays stable without the damping of
    # the diffusion, which is integrated apart
    Ls_rem = rem_vals - grid.wind * upwind_gradient(rem_vals, h, grid.wind)

    if opts.linear_only:
        return grid.lam * modes, Ls_rem, np.zeros_like(inner_vals), 0.0

    frame = _frame(params, quad)
    inner = ZRemainder(frame, inner_vals)
    proj = projected_sources(modes, inner, b, s, params, quad)
    bprime = proj.bprime(params)

    src_proj = proj.PN + proj.PD + proj.PR + bprime * proj.PM
    n = params.n_modes
    dmodes = grid.lam * modes + src_proj
    dmodes[2 * params.k] = 0.0

    # pointwise sources on the outer grid minus their tracked-mode content
    series = np.empty((3, n))
    np.matmul(modes, tab.conv[:, :n], out=series[0])
    np.multiply(series[0, 1:], np.arange(1, n), out=series[1, :-1])  # d/dy y^j = j y^{j-1}
    series[1, -1] = 0.0
    np.matmul(src_proj, tab.conv[:, :n], out=series[2])
    q_plus, dq_plus, tracked = series @ grid.mono
    q_grid = q_plus + rem_vals
    dq_grid = dq_plus + derivative(rem_vals, h)
    e = 1.0 / (params.p - 1.0 + b * grid.pw.y2k)  # e_b
    S = (
        nonlinear_values(q_grid, e, params.p)
        + drift_values(dq_grid, grid.pw, e, b, tab.I2inv, params)
        + residual_values(q_grid, grid.pw, e, b, tab.I2inv, params)
        + bprime * modulation_values(q_grid, grid.pw, e, params)
    )
    drem = Ls_rem + S - tracked
    inner_src = remainder_source(proj, bprime, modes, inner, b, s, params)
    return dmodes, drem, inner_src, bprime


def _unstable_leak(
    inner_vals: np.ndarray, s: float, params: ModelParams, quad: QuadratureRule,
    frame: ZFrame,
) -> np.ndarray:
    """Unstable-range debris q_0..q_{2k-1} of the remainder, from the inner grid.

    Only modes below 2k are removed: they are the ones whose numerical
    debris would grow (rates 1 - n/2k > 0). Debris in the neutral and stable
    tracked modes decays by itself.
    """
    r_q = frame.SDD[: quad.order] @ inner_vals
    return project_modes_from_samples(
        r_q, s, params.k, 2 * params.k, quad, scale=_scale_tables(s, params).proj_scale,
    )


# e^A is summed as the Taylor polynomial of this degree in A / 2^j, scaled
# to a 1-norm at most EXPM_NORM; its first neglected term is then below
# 0.5^15 / 15! = 2.3e-17 of the sum
EXPM_DEGREE = 14
EXPM_NORM = 0.5


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring of its Taylor polynomial, in Horner form.

    Three matrices are alive at a time, so building it raises a run's peak
    memory by little more than the result.
    """
    squarings = math.ceil(math.log2(max(1.0, np.linalg.norm(A, 1) / EXPM_NORM)))
    A = A / 2.0**squarings
    E = np.eye(A.shape[0])
    diag = np.arange(A.shape[0])
    for j in range(EXPM_DEGREE, 0, -1):
        E = A @ E
        E /= j
        E[diag, diag] += 1.0
    for _ in range(squarings):
        E = E @ E
    return E


@lru_cache(maxsize=16)
def _half_exp_of(h: float, quad_order: int, J: int) -> np.ndarray:
    E = _expm(0.5 * h * z_frame(quad_order, J).L)
    E.flags.writeable = False  # one cached copy serves every caller
    return E


def _half_exp(h: float, frame: ZFrame) -> np.ndarray:
    """e^{hL/2} of the inner operator L = frame.L, built once per step size.

    h is rounded to 12 significant digits first, so step sizes that differ
    in the last bits, as differences of step times do, share one entry. A
    run's steps are whole quarters of its output interval within stable_ds,
    which does not depend on s, so at ds = 0.01 it may meet all 15 sizes
    (0.0375 / 0.0025) from its first steps, and one more for a last step cut
    short at s_max.
    """
    return _half_exp_of(float(f"{h:.12g}"), frame.quad_order, frame.J)


class _SineBasis(NamedTuple):
    """D0 on the outer grid in its eigenbasis (_sine_basis)."""

    sine: np.ndarray  # the orthogonal DST-I of the interior nodes, its own inverse
    mu: np.ndarray  # the eigenvalues of D0 on the interior, one per sine
    line: np.ndarray  # sines of D0's steady state for a unit value at each edge


@lru_cache(maxsize=8)
def _sine_basis(n_nodes: int, h: float) -> _SineBasis:
    """D0's basis on n_nodes nodes of spacing h, built once per process.

    S_ij = sqrt(2/(m+1)) sin(pi i j/(m+1)), i, j = 1..m, over the
    m = n_nodes - 2 interior nodes, diagonalizes the 3-point interior stencil
    with zero edge values. An edge value enters the interior's first or
    last row with weight 1/h^2; D0's steady state for a unit value at one
    edge and zero at the other is the straight line between them, whose
    sines are -S e_1 / (h^2 mu) or -S e_m / (h^2 mu). Only a step needs it,
    so membership's outer grid does not build it.
    """
    m = n_nodes - 2
    j = np.arange(1, m + 1)
    arg = np.multiply.outer(j, j)
    arg %= 2 * (m + 1)  # keeps the sine's argument below 2 pi
    sine = arg * (np.pi / (m + 1))
    np.sin(sine, out=sine)
    sine *= math.sqrt(2.0 / (m + 1))
    mu = -4.0 / (h * h) * np.sin(0.5 * np.pi / (m + 1) * j) ** 2
    basis = _SineBasis(sine=sine, mu=mu, line=sine[[0, -1]] / (-h * h * mu))
    for arr in basis:
        arr.flags.writeable = False  # one cached copy serves every caller
    return basis


def _diffusion_time(sa: float, sb: float, k: int) -> float:
    """c = int_sa^sb I^{-2}(s) ds, with I^{-2}(s) = e^{-r s} and r = 1 - 1/k."""
    r = 1.0 - 1.0 / k
    return -math.exp(-r * sa) * math.expm1(-r * (sb - sa)) / r


def _sine(u: np.ndarray, basis: _SineBasis) -> np.ndarray:
    """Outer values in D0's basis and back, one vector per row.

    The interior's values become their sine coefficients and the edge
    values stay; the DST-I is orthogonal and symmetric, its own inverse.
    """
    a = u.copy()
    a[..., 1:-1] = u[..., 1:-1] @ basis.sine
    return a


def _diffuse(a: np.ndarray, c: float, basis: _SineBasis) -> np.ndarray:
    """e^{c D0} on outer values a in D0's basis (_sine), one vector per row.

    D0 keeps the edge values, and the interior relaxes towards its steady
    state, the straight line between them, by e^{c mu} per sine: the edge
    values enter as the affine term (e^{c mu} - 1)/mu times their columns
    of D0.
    """
    out = a.copy()
    out[..., 1:-1] += np.expm1(c * basis.mu) * (a[..., 1:-1] - a[..., [0, -1]] @ basis.line)
    return out


def _lawson_step(
    x0: tuple, k1: tuple, s0: float, s1: float, grid: _OuterGrid, params: ModelParams,
    quad: QuadratureRule, opts: FlowOptions,
) -> tuple:
    """One Lawson RK4 step from x0 at s0 to s1; k1 is the stage at x0.

    With E = e^{hL/2}, the inner remainder u takes the stages E(u0 + h/2 N1),
    E u0 + h/2 N2 and E^2 u0 + h E N3, and ends at
    E^2 u0 + h/6 (E^2 N1 + 2 E (N2 + N3) + N4). The outer remainder v
    follows the same formulas with A = e^{c_a D0} in place of the first
    half step's E and B = e^{c_b D0} in place of the second's, c_a and c_b
    the integrals of I^{-2} over the two halves (_diffusion_time): the
    stages A(v0 + h/2 F1), A v0 + h/2 F2 and B(A v0 + h F3), and the end
    B(A v0 + h/6 (A F1 + 2 (F2 + F3))) + h/6 F4. That bookkeeping runs in
    D0's sine basis, four transforms each way. The modes and b take
    classical RK4. Returns the state at s1 and the fourth stage's mode rates
    and b', which _step_error weighs against the stage at s1.
    """
    h = s1 - s0
    sm = s0 + 0.5 * h
    E = _half_exp(h, _frame(params, quad))
    basis = _sine_basis(grid.nodes.size, grid.h)
    ca, cb = _diffusion_time(s0, sm, params.k), _diffusion_time(sm, s1, params.k)

    def shifted(dx, c, outer, inner):
        return x0[0] + c * dx[0], outer, inner, x0[3] + c * dx[3]

    Eu0 = E @ x0[2]
    EN1 = E @ k1[2]
    # A v0 and A F1 in sines, then the values of the second stage and of A v0
    Av0, AF1 = _diffuse(_sine(np.stack((x0[1], k1[1])), basis), ca, basis)
    v2, Av0_y = _sine(np.stack((Av0 + 0.5 * h * AF1, Av0)), basis)
    k2 = _stage(shifted(k1, 0.5 * h, v2, Eu0 + 0.5 * h * EN1), sm, grid, params, quad, opts)
    k3 = _stage(
        shifted(k2, 0.5 * h, Av0_y + 0.5 * h * k2[1], Eu0 + 0.5 * h * k2[2]),
        sm, grid, params, quad, opts,
    )
    F2, F3 = _sine(np.stack((k2[1], k3[1])), basis)
    v4, rem = _sine(_diffuse(
        np.stack((Av0 + h * F3, Av0 + h / 6.0 * (AF1 + 2.0 * (F2 + F3)))), cb, basis), basis)
    EEu0 = E @ Eu0
    k4 = _stage(shifted(k3, h, v4, EEu0 + h * (E @ k3[2])), s1, grid, params, quad, opts)
    modes, b = (  # classical RK4 on entries 0 and 3
        xi + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        for xi, d1, d2, d3, d4 in zip(x0[::3], k1[::3], k2[::3], k3[::3], k4[::3])
    )
    rem = rem + h / 6.0 * k4[1]
    inner = EEu0 + h / 6.0 * (E @ (EN1 + 2.0 * (k2[2] + k3[2])) + k4[2])
    return (modes, rem, inner, b), (k4[0], k4[3])


def _step_tail(
    x: tuple, s: float, grid: _OuterGrid, params: ModelParams, quad: QuadratureRule,
    opts: FlowOptions,
) -> tuple:
    """Remove the remainder's unstable-range debris and copy the inner values out."""
    if opts.linear_only:
        return x
    modes, rem, inner, b = x
    tab = _scale_tables(s, params)
    frame = _frame(params, quad)
    leak = _unstable_leak(inner, s, params, quad, frame)
    n = leak.size
    rem = rem - (leak @ tab.conv[:n, :n]) @ grid.mono[:n]
    inner = inner - (leak * tab.iexp[:n]) @ frame.ztab[:n]
    # where both grids overlap the outer one takes the resolved values:
    # once it under-resolves the weight, its own near-origin evolution
    # seeds unstable-range debris that only the inner grid can measure
    z = tab.I * grid.nodes  # increasing, so |z| <= Z_OVERLAP is one slice
    lo, hi = z.searchsorted(-Z_OVERLAP, "left"), z.searchsorted(Z_OVERLAP, "right")
    rem[lo:hi] = sample(frame.z, inner, z[lo:hi])
    modes = modes.copy()
    modes[2 * params.k] = 0.0
    return modes, rem, inner, b


def _advance(
    x: tuple, k1: tuple | None, s0: float, s1: float, grid: _OuterGrid, params: ModelParams,
    quad: QuadratureRule, opts: FlowOptions,
) -> tuple:
    """x at s1 > s0: equal Lawson steps within stable_ds, each with its tail.

    k1 is the first stage at x, or None to evaluate it here. Also returns
    the last step's length and its fourth stage's rates, for _step_error.
    """
    n_sub = max(1, math.ceil((s1 - s0) / opts.stable_ds(params.k) - 1e-9))
    for i in range(n_sub):
        sa = s0 + i * (s1 - s0) / n_sub
        sb = s1 if i == n_sub - 1 else s0 + (i + 1) * (s1 - s0) / n_sub
        if k1 is None:
            k1 = _stage(x, sa, grid, params, quad, opts)
        x, k4 = _lawson_step(x, k1, sa, sb, grid, params, quad, opts)
        x = _step_tail(x, sb, grid, params, quad, opts)
        k1 = None
    return x, sb - sa, k4


def _step_error(h: float, k4: tuple, k5: tuple, amp: float, b: float) -> float:
    """The local error estimate h/6 |k4 - k5| of a step of length h.

    k5 is the stage at the step's end, so y0 + h/6 (k1 + 2 k2 + 2 k3 + k5)
    is an order-3 companion of the RK4 step (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4) that costs no stage: the end's stage is the next
    step's first. The modes are measured in units of amp = I^{-delta}, b
    relative to itself.
    """
    dq = float(np.max(np.abs(k4[0] - k5[0]))) / amp
    db = abs(k4[1] - k5[3]) / abs(b)
    return h / 6.0 * max(dq, db)


def _values(state: SimState) -> tuple:
    return state.dec.modes, state.dec.remainder.values, state.inner_values(), state.b


def _finite(x: tuple) -> bool:
    return all(np.isfinite(xi).all() for xi in x)


def _state_at(x: tuple, s: float, like: GridFunction) -> SimState:
    """The state of x at s, its outer remainder on the nodes of like."""
    modes, rem, inner, b = x
    dec = SpectralDecomposition(s, modes, like.with_values(rem))
    return SimState(s=s, b=float(b), dec=dec, inner=inner)


def step(
    state: SimState, ds: float, params: ModelParams, opts: FlowOptions = FlowOptions(),
) -> SimState:
    """Advance (q, b) by ds with Lawson RK4; q_{2k} stays zero by construction.

    The state's outer nodes must be opts.nodes().
    """
    if ds < 0 or ds > MAX_DS:
        raise ValueError(f"ds must lie in [0, {MAX_DS}]")
    x = _values(state)
    if not _finite(x):
        raise ValueError("state with non-finite values rejected")
    if ds == 0.0:
        return state
    grid = _grid_of(state, params, opts)
    s1 = state.s + ds
    x, _, _ = _advance(x, None, state.s, s1, grid, params, opts.quad(), opts)
    if not _finite(x):
        raise ValueError("time step produced non-finite values")
    return _state_at(x, s1, state.dec.remainder)


_BOUND_B_LOW = "b_low"
_BOUND_B_HIGH = "b_high"
_BOUND_QMINUS = "qminus"
BOUND_MODULATION = "modulation"
BOUND_NONFINITE = "nonfinite"


def membership(
    state: SimState, delta: float, b0: float, params: ModelParams,
    opts: FlowOptions = FlowOptions(),
) -> MembershipReport:
    """Check every shrinking-set bound; margins are bound minus attained value."""
    I = float(scale_factor(state.s, params.k))
    mode_bound = I ** (-delta)
    sem = remainder_seminorm(
        state.dec.remainder, state.s, params,
        floor=SEM_FLOOR, rel_floor=SEM_REL_FLOOR,
        nodes_pow_M=_outer_grid(opts.n_nodes, params).yM, I=I,
    )
    # the margins in _bound_names' order; the neutral mode's bound is I^{-2 delta}
    q = np.abs(state.dec.modes).tolist()
    values = [mode_bound - a for a in q]
    values[2 * params.k] = I ** (-2.0 * delta) - q[2 * params.k]
    values += [mode_bound - sem, state.b - 0.5 * b0, 2.0 * b0 - state.b]
    margins = dict(zip(_bound_names(params.n_modes), values))
    violations = [(name, m) for name, m in margins.items() if m < 0.0]
    return MembershipReport(
        inside=not violations,
        violations=violations,
        worst_margin=min(values),
        margins=margins,
        qminus_seminorm=sem,
    )


@lru_cache(maxsize=4)
def _bound_names(n_modes: int) -> tuple[str, ...]:
    """membership's bounds in the order of its margins, the exit's order of choice."""
    return (*(f"mode_{m}" for m in range(n_modes)), _BOUND_QMINUS, _BOUND_B_LOW, _BOUND_B_HIGH)


def _exit_bound(report: MembershipReport, params: ModelParams) -> str:
    """Deterministic violator choice: lowest mode index, then q_-, then b."""
    violated = {name for name, _ in report.violations}
    for name in _bound_names(params.n_modes):
        if name in violated:
            return name
    raise ValueError("no violated bound")


def mode_ode_rhs(
    state: SimState, params: ModelParams, opts: FlowOptions = FlowOptions(),
) -> np.ndarray:
    """dq_n/ds for the tracked modes at this state."""
    grid = _grid_of(state, params, opts)
    dmodes, _, _, _ = _stage(_values(state), state.s, grid, params, opts.quad(), opts)
    return dmodes


def _sample_of(state: SimState, bprime: float, report: MembershipReport) -> TrajectorySample:
    return TrajectorySample(
        s=state.s,
        b=state.b,
        bprime=bprime,
        modes=state.dec.modes.copy(),
        qminus_seminorm=report.qminus_seminorm,
        inside=report.inside,
    )


def _hermite(x0: tuple, f0: tuple, x1: tuple, f1: tuple, h: float, t: float) -> tuple:
    """The cubic Hermite interpolant of (x0, f0) and (x1, f1), h apart, at fraction t."""
    t2, t3 = t * t, t * t * t
    a0, a1 = 2.0 * t3 - 3.0 * t2 + 1.0, h * (t3 - 2.0 * t2 + t)
    c0, c1 = 3.0 * t2 - 2.0 * t3, h * (t3 - t2)
    return tuple(a0 * p + a1 * dp + c0 * q + c1 * dq for p, dp, q, dq in zip(x0, f0, x1, f1))


def _hermite_slope(y0: float, g0: float, y1: float, g1: float, h: float, t: float) -> float:
    """The derivative of the cubic Hermite interpolant of (y0, g0) and (y1, g1) at t."""
    return (6.0 * t * t - 6.0 * t) * (y0 - y1) / h + (3.0 * t * t - 4.0 * t + 1.0) * g0 + (
        3.0 * t * t - 2.0 * t) * g1


def run(
    state0: SimState,
    s_max: float,
    delta: float,
    b0: float,
    params: ModelParams,
    ds: float = 0.01,
    opts: FlowOptions = FlowOptions(),
) -> TrajectoryRecord:
    """Integrate until the trajectory leaves the shrinking set or reaches s_max.

    The samples sit at s0 + i ds, the last at s_max; the steps end at
    s0 + j ds/4. Each step is the longest such span within stable_ds and
    within what the last step's error estimate allows,
    0.9 h (STEP_TOL / err)^{1/4} (_step_error), but never shorter than one
    output interval from a sample, or the rest of the interval from a point
    between samples. The first step takes that least span. The samples
    inside a step come from the cubic Hermite interpolant of its end states
    and derivatives; the derivative at the end is the next step's first
    stage. Membership is checked at every sample, and an exit ends the
    record at the first sample outside. A modulation breakdown or a
    non-finite value inside a step ends the record at the last recorded
    sample with a "modulation" or "nonfinite" exit instead of raising.
    """
    if not s_max > state0.s:
        raise ValueError("s_max must exceed the initial scale time")
    if not 0.0 < ds <= MAX_DS:
        raise ValueError(f"ds must lie in (0, {MAX_DS}]")
    x = _values(state0)
    if not _finite(x):
        raise ValueError("state with non-finite values rejected")
    rem0 = state0.dec.remainder
    grid = _grid_of(state0, params, opts)
    quad = opts.quad()
    L = _frame(params, quad).L
    stable = opts.stable_ds(params.k)
    s0 = state0.s
    n = max(1, math.ceil((s_max - s0) / ds - 1e-9))
    end, quarter = 4 * n, 0.25 * ds

    def s_at(j: int) -> float:
        """The time j quarter intervals from s0; sample i sits at j = 4 i."""
        return s_max if j == end else s0 + j * quarter

    def full_rates(xs: tuple, ks: tuple, s: float) -> tuple:
        """d/ds at xs from its stage ks, with L and the outer diffusion restored."""
        lap = laplacian_compact(xs[1], grid.h)
        lap[[0, -1]] = 0.0  # D0: the outflow edge nodes take no diffusion
        return ks[0], ks[1] + _scale_tables(s, params).I2inv * lap, L @ xs[2] + ks[2], ks[3]

    record = TrajectoryRecord()
    state = state0
    report = membership(state, delta, b0, params, opts)
    record.samples.append(_sample_of(state, 0.0, report))
    # the step's start in quarters, its first stage, the longest step the
    # last error estimate allows, and b' at the last sample
    j, k1, h_err, bp = 0, None, 0.0, 0.0
    while report.worst_margin >= -EXIT_HYSTERESIS and j < end:
        sa = s_at(j)
        jb = min(end, j + max(4 - j % 4, int(min(stable, h_err) / quarter)))
        if s_at(jb) >= s_max:
            jb = end
        sb = s_at(jb)
        failure = None
        try:
            if k1 is None:
                k1 = _stage(x, sa, grid, params, quad, opts)
                bp = k1[3]
            x1, h, k4 = _advance(x, k1, sa, sb, grid, params, quad, opts)
            k_end = _stage(x1, sb, grid, params, quad, opts)
        except ModulationBreakdownError as exc:
            failure = (BOUND_MODULATION, str(exc))
        if failure is None and not (_finite(x1) and _finite(k_end)):
            failure = (BOUND_NONFINITE, "time step produced non-finite values")
        if failure is not None:
            record.exit = ExitInfo(
                s_star=state.s, bound=failure[0], mode=None,
                omega=1 if state.dec.modes[0] >= 0 else -1,
                dqds=None, transversal=None, reason=failure[1],
            )
            record.final_state = state
            return record
        amp = _scale_tables(sb, params).I ** -delta
        err = _step_error(h, k4, k_end, amp, x1[3])
        h_err = 0.9 * h * (STEP_TOL / err) ** 0.25 if err > 0.0 else math.inf
        f0 = f1 = None
        for i in range(j // 4 + 1, jb // 4 + 1):
            s = s_at(4 * i)
            if 4 * i == jb:
                xi, bp_next = x1, k_end[3]
            else:
                if f0 is None:
                    f0, f1 = full_rates(x, k1, sa), full_rates(x1, k_end, sb)
                t = (s - sa) / (sb - sa)
                xi = _hermite(x, f0, x1, f1, sb - sa, t)
                bp_next = _hermite_slope(x[3], f0[3], x1[3], f1[3], sb - sa, t)
            state = _state_at(xi, s, rem0)
            report = membership(state, delta, b0, params, opts)
            # b' at the start of the interval that ends at this sample
            record.samples.append(_sample_of(state, bp, report))
            bp = bp_next
            if report.worst_margin < -EXIT_HYSTERESIS:
                break
        x, k1, j = x1, k_end, jb

    if report.worst_margin < -EXIT_HYSTERESIS:
        bound = _exit_bound(report, params)
        mode = int(bound.split("_")[1]) if bound.startswith("mode_") else None
        dqds, transversal = None, None
        if mode is not None:
            omega = 1 if state.dec.modes[mode] >= 0 else -1
            try:
                dqds = float(mode_ode_rhs(state, params, opts)[mode])
                transversal = omega * dqds > 0
            except ModulationBreakdownError:
                pass  # crossing speed unknown where b' cannot be solved
        else:
            omega = -1 if bound == _BOUND_B_LOW else 1
        record.exit = ExitInfo(
            s_star=state.s, bound=bound, mode=mode, omega=omega,
            dqds=dqds, transversal=transversal,
        )
    record.final_state = state
    return record


@dataclass(frozen=True)
class AprioriReport:
    """Empirical constants behind the mode-ODE / modulation / remainder bounds."""

    C1: float
    C1_per_mode: np.ndarray
    C2: float
    C3: float
    b_min: float
    b_max: float
    n_samples: int


def a_priori_diagnostics(
    traj: TrajectoryRecord,
    delta: float,
    params: ModelParams,
    s_window_end: float | None = None,
) -> AprioriReport:
    """Rescaled empirical constants over the in-set portion of a trajectory.

    C1: max_j max_s |q_j' - (1 - j/2k) q_j| I^{2 delta}(s)  (q_j' by centered
    differences of the recorded series); C2: max_s |b'| I^{delta}(s); C3 is
    the smallest constant closing the remainder integral-envelope bound with
    tau at the first sample.
    """
    arr = traj.arrays()
    inside = arr["inside"]
    n_in = int(np.sum(inside))
    if n_in < 10:
        raise ValueError("trajectory has fewer than 10 in-set samples")
    idx = np.where(inside)[0]
    if s_window_end is not None:
        idx = idx[arr["s"][idx] <= s_window_end + 1e-12]
    s = arr["s"][idx]
    modes = arr["modes"][idx]
    b = arr["b"][idx]
    bprime = arr["bprime"][idx]
    qminus = arr["qminus"][idx]
    I = np.asarray(scale_factor(s, params.k))

    k = params.k
    n_modes = modes.shape[1]
    c1_per_mode = np.zeros(n_modes)
    if len(s) >= 3:
        dq = np.gradient(modes, s, axis=0)
        resc = I[:, None] ** (2.0 * delta)
        lam = 1.0 - np.arange(n_modes) / (2.0 * k)
        resid = np.abs(dq - lam[None, :] * modes) * resc
        c1_per_mode = np.max(resid[1:-1], axis=0)
    c2 = float(np.max(np.abs(bprime[1:]) * I[1:] ** delta)) if len(s) > 1 else 0.0

    tau, q_tau = s[0], qminus[0]
    decay = np.exp(-(s - tau) / (params.p - 1.0))
    envelope = I ** (-1.5 * delta) + decay * float(scale_factor(tau, k)) ** (-1.5 * delta)
    c3 = float(np.max(np.maximum(qminus - decay * q_tau, 0.0) / envelope))

    return AprioriReport(
        C1=float(np.max(c1_per_mode)),
        C1_per_mode=c1_per_mode,
        C2=c2,
        C3=c3,
        b_min=float(np.min(b)),
        b_max=float(np.max(b)),
        n_samples=len(s),
    )
