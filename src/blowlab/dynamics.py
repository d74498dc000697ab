"""Time integration of the coupled (q, b) flow inside the shrinking set.

A state holds the scale time s, the profile parameter b, and the spectral
split of q: tracked mode coefficients q_0..q_{M_floor} plus a remainder that
is orthogonal to the tracked range. The two parts are advanced together by
classical RK4 but by different mechanisms:

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
  is the constant-coefficient operator d_zz - (z/2) d_z + 1, and the
  sources come in the cancellation-free form of remainder_source(). It
  alone feeds the remainder back into the tracked modes and measures the
  unstable-range debris removed after every step. Because its nodes and
  the Gauss nodes sit at fixed z, every operator on it is independent of s
  and built once per process (projection.z_frame): d_zz - (z/2) d_z + 1,
  the stacked interpolation [S; S D] to the Gauss nodes, the derivative and
  the basis table h_0..h_J. A stage applies them as matrix products and
  hands the grid's values over as a projection.ZRemainder. An outer grid over
  |y| <= y_max, with pointwise sources, carries the remainder where the
  weighted sup |q_-|_s looks, far outside the weight.

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

import numpy as np

from .grid import GridFunction, derivative, laplacian_compact, sample, uniform_grid, upwind_gradient
from .hermite import (
    QuadratureRule,
    SpectralDecomposition,
    gauss_rule,
    hermite_series,
    hermite_y_table,
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
from .params import ModelParams, eval_profile, scale_factor
from .projection import (
    Z_MAX,
    Z_NODES,
    ZFrame,
    ZRemainder,
    default_jet_order,
    inner_nodes,
    monomial_table,
    projected_sources,
    remainder_source,
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

# the inner remainder grid in z = I(s) y (Z_MAX, Z_NODES, inner_nodes) is
# defined in projection, beside its cached operators; the outer grid copies
# the inner values on |z| <= Z_OVERLAP, clear of the inner grid's one-sided
# edge closures
Z_OVERLAP = 12.0


@dataclass(frozen=True)
class FlowOptions:
    """Numerical knobs of the modulated flow (grid, quadrature, variants).

    The default outer grid is deliberately coarse: the remainder is smooth on
    O(1) scales in y, while the explicit diffusion I^{-2} d_yy imposes a step
    ceiling ~ 0.5 h^2 I^2(s), so resolution is paid for cubically. The inner
    z-grid has an s-independent ceiling ~ 0.45 h_z^2. Steps larger than the
    ceilings are split into stable substeps automatically. The linear-only
    flow never reads the inner grid, so it neither advances it nor obeys its
    ceiling.
    """

    y_max: float = 0.15
    n_nodes: int = 257
    quad_order: int = 96
    variant: str = "derived"
    linear_only: bool = False
    sem_floor: float = 1e-10
    sem_rel_floor: float = 0.05
    max_ds: float = 0.05
    cfl_safety: float = 0.45
    exit_hysteresis: float = 1e-12

    def nodes(self) -> np.ndarray:
        return uniform_grid(self.y_max, self.n_nodes)

    def quad(self) -> QuadratureRule:
        return gauss_rule(self.quad_order)

    def stable_ds(self, s: float, k: int) -> float:
        h = 2.0 * self.y_max / (self.n_nodes - 1)
        I2 = float(scale_factor(s, k)) ** 2
        limits = [
            self.max_ds,
            self.cfl_safety * h * h * I2,
            1.2 * h / (self.y_max / (2.0 * k)),
        ]
        if not self.linear_only:
            hz = 2.0 * Z_MAX / (Z_NODES - 1)
            limits += [self.cfl_safety * hz * hz, 1.2 * hz / (Z_MAX / 2.0)]
        return min(limits)


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

    bound is a membership bound name, or "modulation" when the b' solve broke
    down; then s_star is the last completed step, omega the sign of q_0 there
    (the denominator 1 + p P_2k(y^2k e_b q) only degenerates as q_0 is driven
    negative), and reason carries the solver's message.
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


def _lambda(params: ModelParams) -> np.ndarray:
    return 1.0 - np.arange(params.n_modes) / (2.0 * params.k)


def _frame(params: ModelParams, quad: QuadratureRule) -> ZFrame:
    return z_frame(quad.order, default_jet_order(params.n_modes))


def _stage(
    x: tuple[np.ndarray, np.ndarray, np.ndarray, float],
    s: float,
    nodes: np.ndarray,
    params: ModelParams,
    quad: QuadratureRule,
    opts: FlowOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One RK stage: d/ds of (modes, outer remainder, inner remainder, b).

    The last entry is b', which is the stage's b-derivative. The inner
    remainder reaches the projections as a ZRemainder, through the cached
    z-frame operators; the outer grid's three basis sums share one table.
    """
    modes, rem_vals, inner_vals, b = x
    k = params.k
    h = nodes[1] - nodes[0]
    I = float(scale_factor(s, k))
    I2inv = I**-2
    lam = _lambda(params)

    # remainder transport-diffusion: upwinded transport keeps the stiff-free
    # late-s regime stable once diffusion no longer damps grid noise
    wind = nodes / (2.0 * k)
    Ls_rem = (
        I2inv * laplacian_compact(rem_vals, h)
        - wind * upwind_gradient(rem_vals, h, wind)
        + rem_vals
    )

    if opts.linear_only:
        return lam * modes, Ls_rem, np.zeros_like(inner_vals), 0.0

    frame = _frame(params, quad)
    inner = ZRemainder(frame, inner_vals)
    proj = projected_sources(modes, inner, b, s, params, quad, variant=opts.variant)
    bprime = proj.bprime(params, opts.variant)

    src_proj = proj.PN + proj.PD + proj.PR + bprime * proj.PM
    dmodes = lam * modes + src_proj
    dmodes[2 * k] = 0.0

    # pointwise sources on the outer grid minus their tracked-mode content
    H = hermite_y_table(nodes, params.n_modes - 1, s, k)
    q_grid = modes @ H + rem_vals
    dq_grid = (modes[1:] * np.arange(1, params.n_modes)) @ H[:-1] + derivative(rem_vals, h)
    _, e = eval_profile(nodes, b, params)
    S = (
        nonlinear_values(q_grid, e, params.p)
        + drift_values(dq_grid, nodes, e, b, I2inv, params)
        + residual_values(q_grid, nodes, e, b, I2inv, params, opts.variant)
        + bprime * modulation_values(q_grid, nodes, e, params, opts.variant)
    )
    drem = Ls_rem + S - src_proj @ H
    dinner = frame.L @ inner_vals + remainder_source(
        proj, bprime, modes, inner, b, s, params, opts.variant
    )
    return dmodes, drem, dinner, bprime


def _unstable_leak(
    inner_vals: np.ndarray, s: float, params: ModelParams, quad: QuadratureRule,
    frame: ZFrame,
) -> np.ndarray:
    """Unstable-range debris q_0..q_{2k-1} of the remainder, from the inner grid.

    Only modes below 2k are removed: they are the ones whose numerical
    debris would grow (rates 1 - n/2k > 0). Debris in the neutral and stable
    tracked modes decays by itself.
    """
    r_q = frame.SD[: quad.order] @ inner_vals
    return project_modes_from_samples(r_q, s, params.k, 2 * params.k, quad)


def _rk4(
    x0: tuple, s0: float, ds: float, nodes: np.ndarray, params: ModelParams,
    quad: QuadratureRule, opts: FlowOptions,
) -> tuple[tuple, float]:
    def shifted(dx, c):
        return tuple(xi + c * di for xi, di in zip(x0, dx))

    k1 = _stage(x0, s0, nodes, params, quad, opts)
    k2 = _stage(shifted(k1, 0.5 * ds), s0 + 0.5 * ds, nodes, params, quad, opts)
    k3 = _stage(shifted(k2, 0.5 * ds), s0 + 0.5 * ds, nodes, params, quad, opts)
    k4 = _stage(shifted(k3, ds), s0 + ds, nodes, params, quad, opts)
    x = tuple(
        xi + ds / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        for xi, d1, d2, d3, d4 in zip(x0, k1, k2, k3, k4)
    )
    return x, k1[3]


def _step_core(
    state: SimState, ds: float, params: ModelParams, opts: FlowOptions,
) -> tuple[SimState, float]:
    if ds < 0 or ds > opts.max_ds:
        raise ValueError(f"ds must lie in [0, {opts.max_ds}]")
    if not (
        np.all(np.isfinite(state.dec.modes))
        and np.all(np.isfinite(state.dec.remainder.values))
        and np.all(np.isfinite(state.inner_values()))
        and math.isfinite(state.b)
    ):
        raise ValueError("state with non-finite values rejected")
    if ds == 0.0:
        return state, 0.0

    nodes = state.dec.remainder.nodes
    quad = opts.quad()
    x = (state.dec.modes, state.dec.remainder.values, state.inner_values(), state.b)
    s_new = state.s
    target = state.s + ds
    bp_first = None
    while s_new < target - 1e-14:
        sub = min(opts.stable_ds(s_new, params.k), target - s_new)
        x, bp = _rk4(x, s_new, sub, nodes, params, quad, opts)
        s_new += sub
        if bp_first is None:
            bp_first = bp
    s_new = target
    modes, rem, inner, b_new = x
    if not (
        np.all(np.isfinite(modes)) and np.all(np.isfinite(rem))
        and np.all(np.isfinite(inner))
    ):
        raise ValueError("time step produced non-finite values")

    if not opts.linear_only:
        I = float(scale_factor(s_new, params.k))
        frame = _frame(params, quad)
        leak = _unstable_leak(inner, s_new, params, quad, frame)
        rem = rem - hermite_series(leak, nodes, s_new, params.k)
        inner = inner - (leak * I ** -np.arange(leak.size, dtype=float)) @ frame.ztab[: leak.size]
        # where both grids overlap the outer one takes the resolved values:
        # once it under-resolves the weight, its own near-origin evolution
        # seeds unstable-range debris that only the inner grid can measure
        overlap = np.abs(I * nodes) <= Z_OVERLAP
        rem[overlap] = sample(frame.z, inner, I * nodes[overlap])
        modes = modes.copy()
        modes[2 * params.k] = 0.0
    dec = SpectralDecomposition(s_new, modes, GridFunction(nodes, rem))
    return SimState(s=s_new, b=b_new, dec=dec, inner=inner), float(bp_first)


def step(
    state: SimState, ds: float, params: ModelParams, opts: FlowOptions = FlowOptions(),
) -> SimState:
    """Advance (q, b) by one RK4 step; q_{2k} stays zero by construction."""
    new_state, _ = _step_core(state, ds, params, opts)
    return new_state


_BOUND_B_LOW = "b_low"
_BOUND_B_HIGH = "b_high"
_BOUND_QMINUS = "qminus"
BOUND_MODULATION = "modulation"


def membership(
    state: SimState, delta: float, b0: float, params: ModelParams,
    opts: FlowOptions = FlowOptions(),
) -> MembershipReport:
    """Check every shrinking-set bound; margins are bound minus attained value."""
    I = float(scale_factor(state.s, params.k))
    mode_bound = I ** (-delta)
    neutral_bound = I ** (-2.0 * delta)
    margins: dict[str, float] = {}
    for m in range(params.n_modes):
        bound = neutral_bound if m == 2 * params.k else mode_bound
        margins[f"mode_{m}"] = bound - abs(float(state.dec.modes[m]))
    sem = remainder_seminorm(
        state.dec.remainder, state.s, params,
        floor=opts.sem_floor, rel_floor=opts.sem_rel_floor,
    )
    margins[_BOUND_QMINUS] = mode_bound - sem
    margins[_BOUND_B_LOW] = state.b - 0.5 * b0
    margins[_BOUND_B_HIGH] = 2.0 * b0 - state.b
    violations = [(name, m) for name, m in margins.items() if m < 0.0]
    return MembershipReport(
        inside=not violations,
        violations=violations,
        worst_margin=min(margins.values()),
        margins=margins,
        qminus_seminorm=sem,
    )


def _exit_bound(report: MembershipReport, params: ModelParams) -> str:
    """Deterministic violator choice: lowest mode index, then q_-, then b."""
    names = [f"mode_{m}" for m in range(params.n_modes)]
    names += [_BOUND_QMINUS, _BOUND_B_LOW, _BOUND_B_HIGH]
    violated = {name for name, _ in report.violations}
    for name in names:
        if name in violated:
            return name
    raise ValueError("no violated bound")


def mode_ode_rhs(
    state: SimState, params: ModelParams, opts: FlowOptions = FlowOptions(),
) -> np.ndarray:
    """dq_n/ds for the tracked modes at this state."""
    x = (state.dec.modes, state.dec.remainder.values, state.inner_values(), state.b)
    dmodes, _, _, _ = _stage(x, state.s, state.dec.remainder.nodes, params, opts.quad(), opts)
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

    A modulation breakdown inside a step ends the record at the last
    completed step with a "modulation" exit instead of raising.
    """
    if not s_max > state0.s:
        raise ValueError("s_max must exceed the initial scale time")
    record = TrajectoryRecord()
    state = state0
    report = membership(state, delta, b0, params, opts)
    record.samples.append(_sample_of(state, 0.0, report))
    while report.worst_margin >= -opts.exit_hysteresis and state.s < s_max - 1e-12:
        this_ds = min(ds, s_max - state.s)
        try:
            state_new, bp = _step_core(state, this_ds, params, opts)
        except ModulationBreakdownError as exc:
            record.exit = ExitInfo(
                s_star=state.s, bound=BOUND_MODULATION, mode=None,
                omega=1 if state.dec.modes[0] >= 0 else -1,
                dqds=None, transversal=None, reason=str(exc),
            )
            record.final_state = state
            return record
        state = state_new
        report = membership(state, delta, b0, params, opts)
        record.samples.append(_sample_of(state, bp, report))

    if report.worst_margin < -opts.exit_hysteresis:
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
