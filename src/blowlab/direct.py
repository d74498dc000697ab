"""Direct finite-difference solvers, blowup-time estimation, profile fitting.

This is the cross-validation arm: it never touches the spectral machinery.
The self-similar solver integrates the w-equation with upwind-biased
transport and explicit diffusion; the physical solver integrates
u_t = u_xx + |u|^{p-1} u by the method of lines with a time step that shrinks
like ||u||_inf^{-(p-1)} so the collapse is resolved uniformly in rescaled
time. Both supply their right-hand side, step limit and snapshot rule to
one march, _march, which takes classical RK4 steps and sums time in
compensated arithmetic. The step limit is the smaller of the grid kernels'
ceilings where both are stepped explicitly, RK4_TRANSPORT_CFL h / max|wind|
and RK4_DIFFUSION_CFL h^2 / diffusivity, and a reaction limit that keeps
the growth resolved. (The flow integrates its diffusion exactly and steps
its outer transport at the higher RK4_TRANSPORT_ALONE_CFL.) Blowup time is
recovered from the line ||u||^{-(p-1)} ~ (p-1)(T - t), exact for the
space-independent solution, and profiles are fitted in the rescaled frame
by the linearization w^{-(p-1)} = p - 1 + b y^{2k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    RK4_DIFFUSION_CFL, RK4_TRANSPORT_CFL, GridFunction, laplacian_compact, upwind_gradient,
)
from .params import ModelParams, eval_profile, signed_power

__all__ = [
    "PdeRun",
    "BlowupFit",
    "ProfileFit",
    "ProfileComparison",
    "solve_w_direct",
    "solve_u_physical",
    "estimate_blowup_time",
    "compare_profile",
    "profile_distance_series",
]

TERM_HORIZON = "horizon"
TERM_BLOWUP = "blowup-threshold"
TERM_INSTABILITY = "instability"

# the reaction limits bound accuracy as the solution grows, not stability: a
# step of the fraction W_REACT_SAFETY of 1 / (1/(p-1) + p |w|^{p-1}) and
# U_REACT_SAFETY of ||u||^{-(p-1)}
W_REACT_SAFETY = 0.4
U_REACT_SAFETY = 0.05
# w-solver: snapshot spacing in s, and the sup norm that ends a run
W_SNAPSHOT_DS = 0.05
W_BLOWUP_THRESHOLD = 1e6
# u-solver: a snapshot whenever the sup norm grows by the factor or after the
# stride of steps, and the sup norm that ends a run
U_SNAPSHOT_GROWTH = 1.1
U_MAX_SNAPSHOT_STRIDE = 2000
U_BLOWUP_THRESHOLD = 1e8
# profile fits: b is fitted on |y| <= Y_FIT, distances are taken on |y| <= Y_WINDOW;
# a comparison needs MIN_SNAPSHOTS usable snapshots
Y_FIT = 2.0
Y_WINDOW = 3.0
MIN_SNAPSHOTS = 10


@dataclass
class PdeRun:
    nodes: np.ndarray
    times: np.ndarray
    snapshots: np.ndarray
    sup_times: np.ndarray
    sup_series: np.ndarray
    termination: str
    frame: str


def _march(v, t, t_end, rhs, limit, keep, threshold, nodes, frame) -> PdeRun:
    """Classical RK4 on dv/dt = rhs(v, t) from t to t_end.

    Each step is min(limit(t, sup|v|), t_end - t), and t is summed in
    compensated (Kahan) arithmetic. The run ends at t_end (within 1e-12), at
    a non-finite value (instability) or once sup|v| >= threshold (blowup).
    Snapshots are taken at the start, at a blowup or horizon end, and after
    each step where keep(t, sup, sup at the last snapshot, steps since it).
    """
    sup = float(np.max(np.abs(v)))
    times, snaps, sup_t, sups = [t], [v.copy()], [t], [sup]
    last_sup, stride = sup, 0
    termination = TERM_HORIZON
    comp = 0.0
    while t < t_end - 1e-12:
        dt = min(limit(t, sup), t_end - t)
        k1 = rhs(v, t)
        k2 = rhs(v + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(v + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(v + dt * k3, t + dt)
        v = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = dt - comp
        t_new = t + y
        comp = (t_new - t) - y
        t = t_new

        if not np.all(np.isfinite(v)):
            termination = TERM_INSTABILITY
            break
        sup = float(np.max(np.abs(v)))
        sup_t.append(t)
        sups.append(sup)
        stride += 1
        blowup = sup >= threshold
        if blowup or keep(t, sup, last_sup, stride):
            times.append(t)
            snaps.append(v.copy())
            last_sup, stride = sup, 0
        if blowup:
            termination = TERM_BLOWUP
            break
    if termination == TERM_HORIZON and times[-1] < t:
        times.append(t)
        snaps.append(v.copy())
    return PdeRun(
        nodes=nodes,
        times=np.array(times),
        snapshots=np.array(snaps),
        sup_times=np.array(sup_t),
        sup_series=np.array(sups),
        termination=termination,
        frame=frame,
    )


def solve_w_direct(
    w0: GridFunction,
    s_range: tuple[float, float],
    params: ModelParams,
) -> PdeRun:
    """Integrate the self-similar frame equation with outflow boundaries.

    The march sums s in compensated arithmetic, and its steps land on the
    grid s0 + i W_SNAPSHOT_DS (within 1e-12, or 4 ulps of s if more), where
    the snapshots are taken. The run ends once the sup norm reaches W_BLOWUP_THRESHOLD.
    """
    s0, s1 = float(s_range[0]), float(s_range[1])
    if not s1 > s0:
        raise ValueError("s_range must be increasing")
    nodes = w0.nodes
    h = w0.spacing
    k, p = params.k, params.p
    r = 1.0 - 1.0 / k  # I(s)^{-2} = exp(-r s)
    wind = nodes / (2.0 * k)
    dt_adv = RK4_TRANSPORT_CFL * h / max(float(np.max(np.abs(wind))), 1e-12)
    tol = max(1e-12, 4.0 * math.ulp(s1))  # a grid point reached

    def rhs(w: np.ndarray, s: float) -> np.ndarray:
        return (
            math.exp(-r * s) * laplacian_compact(w, h)
            - wind * upwind_gradient(w, h, wind)
            - w / (p - 1.0)
            + signed_power(w, p)
        )

    def grid_index(s: float) -> int:  # the last snapshot-grid point s has reached
        return math.floor((s - s0 + tol) / W_SNAPSHOT_DS)

    def limit(s: float, sup: float) -> float:
        try:
            dt_diff = RK4_DIFFUSION_CFL * h * h * math.exp(r * s)
        except OverflowError:  # I(s)^{-2} = e^{-rs} underflows: diffusion sets no limit
            dt_diff = math.inf
        # a float64 power overflows to inf, not OverflowError: the step is
        # then 0, and the infinite reaction makes the step non-finite
        growth = float(np.float64(max(sup, 1e-12)) ** (p - 1.0))
        dt_react = W_REACT_SAFETY / (1.0 / (p - 1.0) + p * growth)
        next_snap = s0 + (grid_index(s) + 1) * W_SNAPSHOT_DS
        return min(dt_diff, dt_adv, dt_react, next_snap - s + 1e-15)

    def keep(s: float, *_) -> bool:
        return s - s0 - grid_index(s) * W_SNAPSHOT_DS <= tol

    return _march(w0.values, s0, s1, rhs, limit, keep, W_BLOWUP_THRESHOLD, nodes, "w")


def solve_u_physical(u0: GridFunction, t_max: float, params: ModelParams) -> PdeRun:
    """Method-of-lines integration of the reaction-diffusion equation.

    Homogeneous Dirichlet walls (endpoint values pinned to zero); the march's
    step is limited by both the diffusive CFL and the reaction timescale
    ||u||_inf^{-(p-1)}, and its compensated time keeps the final approach to
    blowup resolved. A snapshot is taken once the sup norm has grown by
    U_SNAPSHOT_GROWTH or after U_MAX_SNAPSHOT_STRIDE steps, and the run ends
    once the sup norm reaches U_BLOWUP_THRESHOLD.
    """
    h = u0.spacing
    p = params.p

    def rhs(u: np.ndarray, t: float) -> np.ndarray:
        du = laplacian_compact(u, h) + signed_power(u, p)
        du[0] = 0.0
        du[-1] = 0.0
        return du

    def limit(t: float, sup: float) -> float:
        return min(RK4_DIFFUSION_CFL * h * h, U_REACT_SAFETY * max(sup, 1e-12) ** (-(p - 1.0)))

    def keep(t: float, sup: float, last_sup: float, stride: int) -> bool:
        return sup >= U_SNAPSHOT_GROWTH * last_sup or stride >= U_MAX_SNAPSHOT_STRIDE

    u = u0.values.copy()
    u[0] = 0.0
    u[-1] = 0.0
    return _march(u, 0.0, t_max, rhs, limit, keep, U_BLOWUP_THRESHOLD, u0.nodes, "u")


@dataclass(frozen=True)
class BlowupFit:
    T_hat: float
    slope: float
    residual: float


def estimate_blowup_time(run: PdeRun, params: ModelParams) -> BlowupFit:
    """Least-squares fit of ||u||^{-(p-1)} ~ (p-1)(T - t) on the last decade.

    Exact for the space-independent solution. Rejects runs whose sup norm
    did not grow by at least a decade.
    """
    if run.termination == TERM_INSTABILITY:
        raise ValueError("cannot estimate blowup time from an unstable run")
    sup = run.sup_series
    t = run.sup_times
    smax = float(np.max(sup))
    if smax < 10.0 * sup[0] or run.termination == TERM_HORIZON:
        raise ValueError("run did not reach the blowup threshold")
    mask = sup >= smax / 10.0
    if int(np.sum(mask)) < 5:  # degenerate sampling of the last decade
        mask = np.zeros_like(mask)
        mask[-min(5, sup.size):] = True
    tt, ss = t[mask], sup[mask]
    Y = ss ** (-(params.p - 1.0))
    # center the abscissa: near blowup the window is a ~1e-15 sliver of t
    t_ref = float(tt[-1])
    c1, c0 = np.polyfit(tt - t_ref, Y, 1)
    if not c1 < 0:
        raise ValueError("sup-norm series is not blowing up")
    T_hat = t_ref - c0 / c1
    fit = c0 + c1 * (tt - t_ref)
    residual = float(np.sqrt(np.mean((Y - fit) ** 2)) / np.mean(np.abs(Y)))
    return BlowupFit(
        T_hat=float(T_hat),
        slope=float(c1),
        residual=residual,
    )


@dataclass(frozen=True)
class ProfileFit:
    b: float
    flat: bool


def _fit_core(y: np.ndarray, w: np.ndarray, params: ModelParams, y_fit: float) -> ProfileFit:
    p, k = params.p, params.k
    mask = (np.abs(y) <= y_fit) & (w > 0.0)
    if int(np.sum(mask)) < 8:
        raise ValueError("snapshot does not resolve the profile core")
    yy, ww = y[mask], w[mask]
    g = ww ** (-(p - 1.0)) - (p - 1.0)
    if float(np.max(np.abs(g))) < 1e-8 * (p - 1.0):
        return ProfileFit(b=0.0, flat=True)
    y2k = np.abs(yy) ** (2 * k)
    return ProfileFit(b=float(np.sum(g * y2k) / np.sum(y2k**2)), flat=False)


@dataclass(frozen=True)
class ProfileComparison:
    times: np.ndarray
    b_series: np.ndarray
    distances: np.ndarray
    loglog_slope: float
    n_used: int


def _comparison(times: list, log_tau, bs: list, ds: list) -> ProfileComparison:
    """The record of a profile series, with its slope of log(distance) against log(tau)."""
    log_tau = np.asarray(log_tau, dtype=float)
    ds_a = np.array(ds)
    good = ds_a > 0.0
    slope = (
        float(np.polyfit(log_tau[good], np.log(ds_a[good]), 1)[0])
        if int(np.sum(good)) >= 2
        else math.nan
    )
    return ProfileComparison(
        times=np.array(times),
        b_series=np.array(bs),
        distances=ds_a,
        loglog_slope=slope,
        n_used=len(times),
    )


def compare_profile(run: PdeRun, T_hat: float, params: ModelParams) -> ProfileComparison:
    """Per-snapshot profile fit and sup distance for a physical blowup run.

    Each usable snapshot is rescaled, b is fitted, and the sup distance to
    the fitted profile over |y| <= Y_WINDOW is recorded, together with the
    slope of log(distance) against log(T_hat - t). Fewer than
    MIN_SNAPSHOTS usable snapshots is a ValueError.
    """
    if run.frame != "u":
        raise ValueError("compare_profile expects a physical-frame run")
    times, taus, bs, ds = [], [], [], []
    for t, snap in zip(run.times, run.snapshots):
        tau = T_hat - t
        if tau <= 0.0:
            continue
        scale = tau ** (-1.0 / (2 * params.k))
        if float(np.max(np.abs(run.nodes))) * scale < Y_WINDOW:
            continue  # rescaled grid does not cover the comparison window yet
        y = run.nodes * scale
        w = tau ** (1.0 / (params.p - 1.0)) * snap
        try:
            fit = _fit_core(y, w, params, Y_FIT)
        except ValueError:
            continue
        mask = np.abs(y) <= Y_WINDOW
        f_ref, _ = eval_profile(y[mask], max(fit.b, 0.0), params)
        dist = float(np.max(np.abs(w[mask] - f_ref)))
        times.append(float(t))
        taus.append(float(tau))
        bs.append(fit.b)
        ds.append(dist)
    if len(times) < MIN_SNAPSHOTS:
        raise ValueError(f"only {len(times)} usable snapshots; need >= {MIN_SNAPSHOTS}")
    return _comparison(times, np.log(taus), bs, ds)


def profile_distance_series(run: PdeRun, params: ModelParams) -> ProfileComparison:
    """Profile fits and sup distances along a self-similar-frame run, against log tau = -s."""
    if run.frame != "w":
        raise ValueError("profile_distance_series expects a self-similar run")
    times, bs, ds = [], [], []
    mask = np.abs(run.nodes) <= Y_WINDOW
    for s, snap in zip(run.times, run.snapshots):
        fit = _fit_core(run.nodes, snap, params, Y_FIT)
        f_ref, _ = eval_profile(run.nodes[mask], max(fit.b, 0.0), params)
        times.append(float(s))
        bs.append(fit.b)
        ds.append(float(np.max(np.abs(snap[mask] - f_ref))))
    return _comparison(times, -np.array(times), bs, ds)
