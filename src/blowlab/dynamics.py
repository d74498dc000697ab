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
  unstable-range debris removed after every step. An outer grid over
  |y| <= Y_MAX, with pointwise sources, carries the remainder where the
  weighted sup |q_-|_s looks, far outside the weight.

Every layer of a step reads one context, built once per FlowOptions and
model (_flow). A stage (_stage) visits each node set once: the jets of q_+;
the Gauss and the inner nodes together, whose operators and tables sit at
fixed z and are built once per process (projection.z_frame), the inner
remainder handed over as its values array; and the outer nodes,
where the remainder's upwinded transport and derivative are one banded
product (_outer_step, probed from the grid kernels by grid.probed_band,
as the direct w-run's band is) and the sources one pass (_outer_sources).
There q_+, dq_+/dy and the sources' tracked content are power series in y
from projection.scale_tables' conversion table, summed with the monomials
of the flow context: no table at the outer nodes depends on s.

The time scheme is Lawson's RK4 (Hochbruck & Ostermann, Acta Numerica 19,
2010) on one vector x = (modes | outer remainder | inner remainder | b),
with one block propagator per half step: e^{hL/2} on the inner remainder,
so L is integrated exactly and RK4 sees only the sources; e^{c D0} on the
outer one, where D0 is grid.laplacian_compact with its two edge rows
zeroed (the outflow edge nodes take no diffusion) and c = int I^{-2} over
the half step, diagonal in the orthogonal sine transform (DST-I) of the
interior nodes, so RK4 sees the outer transport and sources alone; and the
identity on the modes and b, where the scheme is classical RK4. Stability
therefore bounds the step by the outer transport alone, at RK4's ceiling
for a lone transport (grid.RK4_TRANSPORT_ALONE_CFL), independent of s: the
flow takes one Lawson step per span of at most MAX_DS, and refuses a grid
whose ceiling falls below MAX_DS (_flow). run() ends its steps on a grid of
quarter output intervals: within MAX_DS, each step grows as far as a free
error estimate of the last one allows (the stage at a step's end, which the
next step starts from, against its fourth stage), but never below one
output interval from a sample. The samples inside a step are read off a
cubic Hermite interpolant of the step's end states and derivatives.

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
from typing import ClassVar, NamedTuple

import numpy as np

from .grid import (
    RK4_TRANSPORT_ALONE_CFL, GridFunction, derivative, laplacian_compact, probed_band, sample,
    uniform_grid, upwind_gradient,
)
from .hermite import (
    DEFAULT_QUAD_ORDER,
    QuadratureRule,
    SpectralDecomposition,
    gauss_rule,
    project_modes_from_samples,
    remainder_seminorm,
)
from .operators import ModulationBreakdownError, nonlinear_values
from .params import ModelParams, NodePowers, alpha_consts, node_powers, scale_factor, table_cache
from .projection import (
    Z_NODES,
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
    "inner_nodes",
    "step",
    "membership",
    "run",
    "mode_ode_rhs",
    "a_priori_diagnostics",
]

D_BOX_LIMIT = 2.0
# the largest step a caller may ask for, and the largest step the flow takes
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
    """Numerical knobs of the modulated flow: the outer grid and linear-only.

    The outer grid is coarse because the remainder is smooth on O(1) scales
    in y there. Its diffusion I^{-2} d_yy and the inner z-grid's operator are
    integrated exactly and set no ceiling, so no diffusion ceiling meets the
    transport's: the outer transport y/2k alone sets the s-independent
    ceiling RK4_TRANSPORT_ALONE_CFL h 2k / Y_MAX, and the step scales with
    the outer spacing, not with its square. Every step is at most MAX_DS,
    so the ceiling must reach it: 0.05, MAX_DS itself, on the default 257
    nodes at k = 2. The flow refuses more nodes than that, 257 at k = 2 and
    385 at k = 3, with a ValueError. The linear-only flow leaves the inner
    grid at zero.

    variant and quad_order are not fields: variant names the one form of M
    and R_s the flow solves b' in (operators), for callers that pass it on
    to SourceProjections.bprime, and quad_order is the flow's one Gauss
    rule, hermite.DEFAULT_QUAD_ORDER.
    """

    variant: ClassVar[str] = "derived"
    quad_order: ClassVar[int] = DEFAULT_QUAD_ORDER

    n_nodes: int = 257
    linear_only: bool = False

    def nodes(self) -> np.ndarray:
        return uniform_grid(Y_MAX, self.n_nodes)

    def quad(self) -> QuadratureRule:
        return gauss_rule(self.quad_order)


@dataclass(frozen=True)
class SimState:
    """Flow state; dec.remainder is the outer y-grid remainder.

    inner holds the remainder at the fixed nodes inner_nodes() in z, zero
    unless given.
    """

    s: float
    b: float
    dec: SpectralDecomposition
    inner: np.ndarray = field(default_factory=lambda: np.zeros(Z_NODES))

    def __post_init__(self):
        if self.dec.s != self.s:
            raise ValueError("decomposition scale time must match state time")

    def inner_values(self) -> np.ndarray:
        return self.inner


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
    C = monomial_table(I**-2, n - 1)
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
    if not np.all(np.abs(d) <= D_BOX_LIMIT + 1e-12):  # also refuses NaN
        raise ValueError(f"|d_i| <= {D_BOX_LIMIT} required")
    psi = gamma_map(d, s0, delta, params)
    modes = np.zeros(params.n_modes)
    modes[: psi.size] = psi
    nodes = opts.nodes()
    rem = GridFunction(nodes, np.zeros_like(nodes))
    return SimState(s=float(s0), b=float(b0), dec=SpectralDecomposition(float(s0), modes, rem))


class _Flow(NamedTuple):
    """The s-independent context of the flow for one FlowOptions and model.

    Its slices name the parts of the flow's state vector x; b is x[-1]. The
    large tables only a step reads (the z-frame, _outer_step and e^{hL/2})
    keep caches of their own, so membership's context builds none of them.
    """

    params: ModelParams
    quad: QuadratureRule
    linear_only: bool
    nodes: np.ndarray
    h: float
    pw: NodePowers  # the nodes' powers that the pointwise sources use
    yM: np.ndarray  # |y|^M, the seminorm's weight
    lam: np.ndarray  # 1 - n/2k, the tracked modes' linear rates
    ddy: np.ndarray  # d/dy on basis coefficients, as d/dy H_n = n H_{n-1}
    mono: np.ndarray  # y^j at the nodes, j = 0..M_floor
    modes: slice  # x = (modes | outer remainder | inner remainder | b)
    outer: slice
    inner: slice


@table_cache(maxsize=8)
def _flow(opts: FlowOptions, params: ModelParams) -> _Flow:
    """Build, once per process, the flow's context for opts and one model.

    Raises ValueError when the outer transport's RK4 ceiling on opts' grid
    falls below MAX_DS, the step the flow takes.
    """
    nodes = opts.nodes()
    k, n, n_nodes = params.k, params.n_modes, opts.n_nodes
    # the most nodes whose ceiling, RK4_TRANSPORT_ALONE_CFL h 2k / Y_MAX with
    # h = 2 Y_MAX / (n_nodes - 1), reaches MAX_DS
    limit = 1 + int(4.0 * k * RK4_TRANSPORT_ALONE_CFL / MAX_DS + 1e-9)
    if n_nodes > limit:
        raise ValueError(f"{n_nodes} outer nodes put the transport's RK4 ceiling below MAX_DS = "
                         f"{MAX_DS}: at k = {k} the flow takes at most {limit} nodes")
    return _Flow(
        params=params, quad=opts.quad(), linear_only=opts.linear_only,
        nodes=nodes, h=nodes[1] - nodes[0],
        pw=node_powers(nodes, k), yM=np.abs(nodes) ** params.M,
        lam=1.0 - np.arange(n) / (2.0 * k), ddy=np.diag(np.arange(1.0, n), -1),
        mono=np.vander(nodes, n, increasing=True).T,
        modes=slice(0, n), outer=slice(n, n + n_nodes),
        inner=slice(n + n_nodes, n + n_nodes + Z_NODES),
    )


def _flow_of(state: SimState, params: ModelParams, opts: FlowOptions) -> _Flow:
    """The flow context of opts, on whose nodes state's remainder must sit."""
    flow = _flow(opts, params)
    if not np.array_equal(state.dec.remainder.nodes, flow.nodes):
        raise ValueError("the state's outer nodes are not opts.nodes()")
    return flow


def _stage(x: np.ndarray, s: float, flow: _Flow) -> np.ndarray:
    """One RK stage: d/ds of the state vector x, in x's layout.

    The outer remainder's part leaves out its diffusion I^{-2} D0, and the
    inner remainder's is its source N, its derivative minus
    frame.L @ inner_vals: the Lawson step integrates both exactly. The
    inner remainder reaches the projections as its values array, through
    the cached z-frame operators; on the outer grid q_+, dq_+/dy and the
    sources' tracked projection are three power series in y, summed by one
    product with its monomials, and the remainder's upwinded transport and
    derivative are one banded product.
    """
    params = flow.params
    modes, n = x[flow.modes], params.n_modes
    dx = np.empty_like(x)
    # remainder transport: upwinded, it stays stable without the damping of
    # the diffusion, which is integrated apart
    band = _outer_step(flow.nodes.size, params.k)
    Ls_rem, drem = np.einsum("ijn,jn->in", band.weights, x[flow.outer][band.cols])
    if flow.linear_only:
        dx[flow.modes], dx[flow.outer], dx[flow.inner.start:] = flow.lam * modes, Ls_rem, 0.0
        return dx

    b = float(x[-1])
    tab = scale_tables(s, params)
    inner = x[flow.inner]
    proj = projected_sources(modes, inner, b, s, params, flow.quad)
    bprime = proj.bprime(params)
    src_proj = proj.PN + proj.PD + proj.PR + bprime * proj.PM
    dmodes = flow.lam * modes + src_proj
    dmodes[2 * params.k] = 0.0

    # pointwise sources on the outer grid minus their tracked-mode content;
    # the basis coefficients of q_+, dq_+/dy and the sources' tracked
    # projection become power series in y, summed with the monomials
    series = np.array((modes, modes.dot(flow.ddy), src_proj))
    q_grid, dq_grid, tracked = series.dot(tab.conv[:, :n]).dot(flow.mono)
    q_grid += x[flow.outer]
    dq_grid += drem
    Ls_rem -= tracked
    Ls_rem += _outer_sources(q_grid, dq_grid, b, bprime, tab.I2inv, flow)
    dx[flow.modes], dx[flow.outer], dx[-1] = dmodes, Ls_rem, bprime
    dx[flow.inner] = remainder_source(proj, bprime, modes, inner, b, s, params)
    return dx


def _outer_sources(q: np.ndarray, dq: np.ndarray, b: float, bprime: float, I2inv: float,
                   flow: _Flow) -> np.ndarray:
    """N + D_s + R_s + b' M at the outer nodes from q and dq/dy there, in one pass.

    operators' derived forms, with e_b, u = e_b q and y^{2k} e_b formed once:
    R_s + b' M = I^{-2} |y|^{2k-2} (alpha1 + alpha3 u + y^{2k} e_b (alpha2 + alpha4 u))
    + b'/(p-1) y^{2k} (1 + p u). Where 1 + u <= 0, N is operators.nonlinear_values'.
    """
    params, pw = flow.params, flow.pw
    p, a = params.p, alpha_consts(b, params)
    e = 1.0 / (p - 1.0 + b * pw.y2k)
    u = e * q
    pu = p * u
    S = np.expm1(p * np.log1p(u)) - pu if u.min() > -1.0 else nonlinear_values(q, e, p)
    S += I2inv * pw.yres * (a.alpha1 + a.alpha3 * u + pw.y2k * e * (a.alpha2 + a.alpha4 * u))
    S += bprime / (p - 1.0) * pw.y2k * (1.0 + pu)
    S += -4.0 * p * params.k * b / (p - 1.0) * I2inv * pw.ydrift * e * dq
    return S


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


@table_cache(maxsize=21)
def _half_exp_of(h: float, params: ModelParams) -> np.ndarray:
    return _expm(0.5 * h * z_frame(params).L)


def _half_exp(h: float, flow: _Flow) -> np.ndarray:
    """e^{hL/2} of the inner operator L of flow's z-frame, built once per step size.

    h is rounded to 12 significant digits first, so step sizes that differ
    in the last bits, as differences of step times do, share one entry. A
    run's steps are whole quarters of its output interval within MAX_DS,
    so at ds = 0.01 it may meet all 20 sizes
    (0.05 / 0.0025) from its first steps, and one more for a last step cut
    short at s_max: the cache holds 21, so a run never rebuilds one.
    """
    return _half_exp_of(float(f"{h:.12g}"), flow.params)


class _OuterStep(NamedTuple):
    """The outer grid's tables that only a step reads (_outer_step)."""

    cols: np.ndarray  # the band of [1 - (y/2k) d/dy upwinded; d/dy], as grid.probed_band's
    weights: np.ndarray
    sine: np.ndarray  # the orthogonal DST-I of the interior nodes, its own inverse
    mu: np.ndarray  # the eigenvalues of D0 on the interior, one per sine
    line: np.ndarray  # sines of D0's steady state for a unit value at each edge


@table_cache(maxsize=8)
def _outer_step(n_nodes: int, k: int) -> _OuterStep:
    """The stage's band and D0's basis on the outer grid of n_nodes nodes, once per process.

    The band is grid.probed_band of the stage's upwinded transport and
    derivative. S_ij = sqrt(2/(m+1)) sin(pi i j/(m+1)), i, j = 1..m, over
    the m = n_nodes - 2 interior nodes, diagonalizes the 3-point interior
    stencil with zero edge values. An edge value enters the interior's
    first or last row with weight 1/h^2; D0's steady state for a unit value
    at one edge and zero at the other is the straight line between them,
    whose sines are -S e_1 / (h^2 mu) or -S e_m / (h^2 mu). Only a step
    reads these, so membership's flow context does not build them.
    """
    nodes = uniform_grid(Y_MAX, n_nodes)
    h = nodes[1] - nodes[0]  # the flow context's h
    wind = nodes[:, None] / (2.0 * k)
    cols, weights = probed_band([
        lambda f: f - wind * upwind_gradient(f, h, wind[:, 0]), lambda f: derivative(f, h),
    ], n_nodes)
    m = n_nodes - 2
    j = np.arange(1, m + 1)
    arg = np.multiply.outer(j, j)
    arg %= 2 * (m + 1)  # keeps the sine's argument below 2 pi
    sine = arg * (np.pi / (m + 1))
    np.sin(sine, out=sine)
    sine *= math.sqrt(2.0 / (m + 1))
    mu = -4.0 / (h * h) * np.sin(0.5 * np.pi / (m + 1) * j) ** 2
    return _OuterStep(cols, weights, sine=sine, mu=mu, line=sine[[0, -1]] / (-h * h * mu))


def _diffusion_time(sa: float, sb: float, k: int) -> float:
    """c = int_sa^sb I^{-2}(s) ds, with I^{-2}(s) = e^{-r s} and r = 1 - 1/k."""
    r = 1.0 - 1.0 / k
    return -math.exp(-r * sa) * math.expm1(-r * (sb - sa)) / r


def _diffuse(v: np.ndarray, c: float, basis: _OuterStep) -> np.ndarray:
    """e^{c D0} on outer node values v, one vector per row.

    D0 keeps the edge values, and the interior relaxes towards its steady
    state, the straight line between them, by e^{c mu} per sine of the
    DST-I, which is its own inverse: the edge values enter as the affine
    term (e^{c mu} - 1)/mu times their columns of D0.
    """
    a = v[..., 1:-1].dot(basis.sine)
    a += np.expm1(c * basis.mu) * (a - v[..., :: v.shape[-1] - 1].dot(basis.line))
    out = v.copy()
    out[..., 1:-1] = a.dot(basis.sine)
    return out


def _lawson_step(
    x0: np.ndarray, k1: np.ndarray, s0: float, s1: float, flow: _Flow,
) -> tuple[np.ndarray, np.ndarray]:
    """One Lawson RK4 step from x0 at s0 to s1; k1 is the stage F(x0).

    P and Q, the propagators of the step's two halves, are E = e^{hL/2} on
    the inner remainder, e^{c D0} on the outer one, c the integral of I^{-2}
    over the half (_diffusion_time), and the identity on the modes and b.
    With X, K = P x0, P k1, the stages are k2 = F(X + h/2 K),
    k3 = F(X + h/2 k2) and k4 = F(Q(X + h k3)), and the step ends at
    Q(X + h/6 (K + 2 (k2 + k3))) + h/6 k4. Each propagator acts on two
    rows at once. Returns the state at s1 and k4, which _step_error weighs
    against the stage at s1.
    """
    h = s1 - s0
    sm = s0 + 0.5 * h
    E = _half_exp(h, flow)
    basis = _outer_step(flow.nodes.size, flow.params.k)

    def half(u: np.ndarray, v: np.ndarray, sa: float, sb: float) -> np.ndarray:
        """The propagator from sa to sb, a half step, on u and v, as two rows."""
        rows = np.array((u, v))
        rows[:, flow.inner] = rows[:, flow.inner].dot(E.T)
        c = _diffusion_time(sa, sb, flow.params.k)
        rows[:, flow.outer] = _diffuse(rows[:, flow.outer], c, basis)
        return rows

    X, K = half(x0, k1, s0, sm)
    k2 = _stage(X + 0.5 * h * K, sm, flow)
    k3 = _stage(X + 0.5 * h * k2, sm, flow)
    x4, y = half(X + h * k3, X + h / 6.0 * (K + 2.0 * (k2 + k3)), sm, s1)
    k4 = _stage(x4, s1, flow)
    return y + h / 6.0 * k4, k4


def _step_tail(x: np.ndarray, s: float, flow: _Flow) -> np.ndarray:
    """Remove the remainder's unstable-range debris and copy the inner values out.

    The debris is the remainder's q_0..q_{2k-1}, measured on the inner grid.
    Only modes below 2k are removed: they are the ones whose numerical
    debris would grow (rates 1 - n/2k > 0). Debris in the neutral and stable
    tracked modes decays by itself.
    """
    if flow.linear_only:
        return x
    params, quad = flow.params, flow.quad
    x = x.copy()
    rem, inner = x[flow.outer], x[flow.inner]
    tab = scale_tables(s, params)
    frame = z_frame(params)
    n = 2 * params.k
    leak = project_modes_from_samples(
        frame.sdd(inner)[: quad.order], s, params.k, n, quad, scale=tab.proj_scale,
    )
    rem -= leak.dot(tab.conv[:n, :n]).dot(flow.mono[:n])
    inner -= (leak * tab.iexp[:n]).dot(frame.htab[:n, quad.order:])
    # where both grids overlap the outer one takes the resolved values:
    # once it under-resolves the weight, its own near-origin evolution
    # seeds unstable-range debris that only the inner grid can measure
    z = tab.I * flow.nodes  # increasing, so |z| <= Z_OVERLAP is one slice
    lo, hi = z.searchsorted(-Z_OVERLAP, "left"), z.searchsorted(Z_OVERLAP, "right")
    rem[lo:hi] = sample(frame.z, inner, z[lo:hi])
    x[flow.modes][n] = 0.0
    return x


def _advance(
    x: np.ndarray, k1: np.ndarray, s0: float, s1: float, flow: _Flow,
) -> tuple[np.ndarray, np.ndarray]:
    """x at s1 > s0, at most MAX_DS on: one Lawson step and its tail.

    k1 is the first stage at x. Also returns the step's fourth stage, for
    _step_error.
    """
    x, k4 = _lawson_step(x, k1, s0, s1, flow)
    return _step_tail(x, s1, flow), k4


def _step_error(
    h: float, k4: np.ndarray, k5: np.ndarray, flow: _Flow, amp: float, b: float,
) -> float:
    """The local error estimate h/6 |k4 - k5| of a step of length h.

    k5 is the stage at the step's end, so y0 + h/6 (k1 + 2 k2 + 2 k3 + k5)
    is an order-3 companion of the RK4 step (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4) that costs no stage: the end's stage is the next
    step's first. The modes are measured in units of amp = I^{-delta}, b
    relative to itself.
    """
    dk = k4 - k5
    dq = float(np.max(np.abs(dk[flow.modes]))) / amp
    db = abs(float(dk[-1])) / abs(b)
    return h / 6.0 * max(dq, db)


def _values(state: SimState, flow: _Flow) -> np.ndarray:
    """The state's vector x, in flow's layout; a state with non-finite values is rejected."""
    x = np.empty(flow.inner.stop + 1)
    x[flow.modes], x[flow.outer], x[flow.inner], x[-1] = (
        state.dec.modes, state.dec.remainder.values, state.inner, state.b)
    if not np.isfinite(x).all():
        raise ValueError("state with non-finite values rejected")
    return x


def _state_at(x: np.ndarray, s: float, flow: _Flow, like: GridFunction) -> SimState:
    """The state of x at s, its outer remainder on the nodes of like."""
    dec = SpectralDecomposition(s, x[flow.modes], like.with_values(x[flow.outer]))
    return SimState(s=s, b=float(x[-1]), dec=dec, inner=x[flow.inner])


def _check_scale_time(s: float, params: ModelParams) -> None:
    """Refuse a flow that would reach s, where I(s)^{M_floor} is not finite.

    The mode projections scale by I^n / (2^n n!) up to n = M_floor
    (hermite.mode_projection_scale); past that limit the scale overflows
    and every step would end non-finite.
    """
    with np.errstate(over="ignore"):
        finite = np.isfinite(scale_factor(s, params.k) ** params.M_floor)
    if not finite:
        limit = math.log(np.finfo(float).max) / (0.5 * (1.0 - 1.0 / params.k) * params.M_floor)
        raise ValueError(
            f"the flow reaches s = {s:g}, past s = {limit:.1f}, where the mode projection "
            f"scale I(s)^{params.M_floor} overflows")


def step(
    state: SimState, ds: float, params: ModelParams, opts: FlowOptions = FlowOptions(),
) -> SimState:
    """Advance (q, b) by ds with Lawson RK4; q_{2k} stays zero by construction.

    The state's outer nodes must be opts.nodes(), and I(s)^{M_floor} must be
    finite at its end (_check_scale_time).
    """
    if not 0.0 <= ds <= MAX_DS:
        raise ValueError(f"ds must lie in [0, {MAX_DS}]")
    _check_scale_time(state.s + ds, params)
    flow = _flow_of(state, params, opts)
    x = _values(state, flow)
    if ds == 0.0:
        return state
    s1 = state.s + ds
    x, _ = _advance(x, _stage(x, state.s, flow), state.s, s1, flow)
    if not np.isfinite(x).all():
        raise ValueError("time step produced non-finite values")
    return _state_at(x, s1, flow, state.dec.remainder)


_BOUND_B_LOW = "b_low"
_BOUND_B_HIGH = "b_high"
_BOUND_QMINUS = "qminus"
BOUND_MODULATION = "modulation"
BOUND_NONFINITE = "nonfinite"


def membership(
    state: SimState, delta: float, b0: float, params: ModelParams,
    opts: FlowOptions = FlowOptions(),
) -> MembershipReport:
    """Check every shrinking-set bound; margins are bound minus attained value.

    A NaN margin counts as violated, and makes worst_margin NaN.
    """
    I = float(scale_factor(state.s, params.k))
    mode_bound = I ** (-delta)
    sem = remainder_seminorm(
        state.dec.remainder, state.s, params,
        floor=SEM_FLOOR, rel_floor=SEM_REL_FLOOR,
        nodes_pow_M=_flow(opts, params).yM, I=I,
    )
    # the margins in _bound_names' order; the neutral mode's bound is I^{-2 delta}
    q = np.abs(state.dec.modes).tolist()
    values = [mode_bound - a for a in q]
    values[2 * params.k] = I ** (-2.0 * delta) - q[2 * params.k]
    values += [mode_bound - sem, state.b - 0.5 * b0, 2.0 * b0 - state.b]
    margins = dict(zip(_bound_names(params.n_modes), values))
    violations = [(name, m) for name, m in margins.items() if not m >= 0.0]
    # min() would skip a NaN by its position; every NaN margin is a violation
    nan = any(m != m for _, m in violations)
    return MembershipReport(
        inside=not violations,
        violations=violations,
        worst_margin=math.nan if nan else min(values),
        margins=margins,
        qminus_seminorm=sem,
    )


@table_cache(maxsize=4)
def _bound_names(n_modes: int) -> tuple[str, ...]:
    """membership's bounds in the order of its margins, the exit's order of choice."""
    return (*(f"mode_{m}" for m in range(n_modes)), _BOUND_QMINUS, _BOUND_B_LOW, _BOUND_B_HIGH)


def mode_ode_rhs(
    state: SimState, params: ModelParams, opts: FlowOptions = FlowOptions(),
) -> np.ndarray:
    """dq_n/ds for the tracked modes at this state."""
    flow = _flow_of(state, params, opts)
    return _stage(_values(state, flow), state.s, flow)[flow.modes]


def _sample_of(state: SimState, bprime: float, report: MembershipReport) -> TrajectorySample:
    return TrajectorySample(
        s=state.s,
        b=state.b,
        bprime=float(bprime),
        modes=state.dec.modes.copy(),
        qminus_seminorm=report.qminus_seminorm,
        inside=report.inside,
    )


def _hermite(
    x0: np.ndarray, f0: np.ndarray, x1: np.ndarray, f1: np.ndarray, h: float, t: float,
) -> np.ndarray:
    """The cubic Hermite interpolant of (x0, f0) and (x1, f1), h apart, at fraction t."""
    t2, t3 = t * t, t * t * t
    a0, a1 = 2.0 * t3 - 3.0 * t2 + 1.0, h * (t3 - 2.0 * t2 + t)
    c0, c1 = 3.0 * t2 - 2.0 * t3, h * (t3 - t2)
    return a0 * x0 + a1 * f0 + c0 * x1 + c1 * f1


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
    s0 + j ds/4. Each step is the longest such span within MAX_DS and
    within what the last step's error estimate allows,
    0.9 h (STEP_TOL / err)^{1/4} (_step_error), but never shorter than one
    output interval from a sample, or the rest of the interval from a point
    between samples. The first step takes that least span. The samples
    inside a step come from the cubic Hermite interpolant of its end states
    and derivatives; the derivative at the end is the next step's first
    stage. Membership is checked at every sample, and an exit ends the
    record at the first sample outside. A modulation breakdown or a
    non-finite value inside a step ends the record at the last recorded
    sample with a "modulation" or "nonfinite" exit instead of raising. An
    s_max at which I(s)^{M_floor} overflows raises (_check_scale_time).
    """
    if not 0.0 < ds <= MAX_DS:
        raise ValueError(f"ds must lie in (0, {MAX_DS}]")
    if not (s_max > state0.s and math.isfinite((s_max - state0.s) / ds)):
        raise ValueError("s_max must exceed the initial scale time by a finite sample count")
    _check_scale_time(s_max, params)
    flow = _flow_of(state0, params, opts)
    x = _values(state0, flow)
    rem0 = state0.dec.remainder
    L = z_frame(params).L
    s0 = state0.s
    n = max(1, math.ceil((s_max - s0) / ds - 1e-9))
    end, quarter = 4 * n, 0.25 * ds

    def s_at(j: int) -> float:
        """The time j quarter intervals from s0; sample i sits at j = 4 i."""
        return s_max if j == end else s0 + j * quarter

    def full_rates(xs: np.ndarray, ks: np.ndarray, s: float) -> np.ndarray:
        """d/ds at xs from its stage ks, with L and the outer diffusion restored."""
        lap = laplacian_compact(xs[flow.outer], flow.h)
        lap[[0, -1]] = 0.0  # D0: the outflow edge nodes take no diffusion
        f = ks.copy()
        f[flow.outer] += scale_tables(s, params).I2inv * lap
        f[flow.inner] += L @ xs[flow.inner]
        return f

    record = TrajectoryRecord()
    state = state0
    report = membership(state, delta, b0, params, opts)
    record.samples.append(_sample_of(state, 0.0, report))
    # the step's start in quarters, its first stage, the longest step the
    # last error estimate allows, and b' at the last sample
    j, k1, h_err, bp = 0, None, 0.0, 0.0
    while report.worst_margin >= -EXIT_HYSTERESIS and j < end:
        sa = s_at(j)
        jb = min(end, j + max(4 - j % 4, int(min(MAX_DS, h_err) / quarter)))
        if s_at(jb) >= s_max:
            jb = end
        sb = s_at(jb)
        h = sb - sa
        failure = None
        try:
            if k1 is None:
                k1 = _stage(x, sa, flow)
                bp = k1[-1]
            x1, k4 = _advance(x, k1, sa, sb, flow)
            k_end = _stage(x1, sb, flow)
        except ModulationBreakdownError as exc:
            failure = (BOUND_MODULATION, str(exc))
        if failure is None and not (np.isfinite(x1).all() and np.isfinite(k_end).all()):
            failure = (BOUND_NONFINITE, "time step produced non-finite values")
        if failure is not None:
            record.exit = ExitInfo(
                s_star=state.s, bound=failure[0], mode=None,
                omega=1 if state.dec.modes[0] >= 0 else -1,
                dqds=None, transversal=None, reason=failure[1],
            )
            record.final_state = state
            return record
        amp = scale_tables(sb, params).I ** -delta
        err = _step_error(h, k4, k_end, flow, amp, x1[-1])
        h_err = 0.9 * h * (STEP_TOL / err) ** 0.25 if err > 0.0 else math.inf
        f0 = f1 = None
        for i in range(j // 4 + 1, jb // 4 + 1):
            s = s_at(4 * i)
            if 4 * i == jb:
                xi, bp_next = x1, k_end[-1]
            else:
                if f0 is None:
                    f0, f1 = full_rates(x, k1, sa), full_rates(x1, k_end, sb)
                t = (s - sa) / h
                xi = _hermite(x, f0, x1, f1, h, t)
                bp_next = _hermite_slope(x[-1], f0[-1], x1[-1], f1[-1], h, t)
            state = _state_at(xi, s, flow, rem0)
            report = membership(state, delta, b0, params, opts)
            # b' at the start of the interval that ends at this sample
            record.samples.append(_sample_of(state, bp, report))
            bp = bp_next
            if report.worst_margin < -EXIT_HYSTERESIS:
                break
        x, k1, j = x1, k_end, jb

    if report.worst_margin < -EXIT_HYSTERESIS:
        # the first violated bound in _bound_names' order: lowest mode, then q_-, then b
        bound = report.violations[0][0]
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
    C2: float
    C3: float
    b_min: float
    b_max: float


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
        C2=c2,
        C3=c3,
        b_min=float(np.min(b)),
        b_max=float(np.max(b)),
    )
