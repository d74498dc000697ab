"""Direct finite-difference solvers, blowup-time estimation, profile fitting.

This is the cross-validation arm: it never touches the spectral machinery.
The self-similar solver integrates the w-equation with upwind-biased
transport and explicit diffusion; the physical solver integrates
u_t = u_xx + |u|^{p-1} u by the method of lines with a time step that shrinks
like ||u||_inf^{-(p-1)} so the collapse is resolved uniformly in rescaled
time. Both take classical RK4 steps under the stability rule of the flow's
outer grid: the smaller of the grid kernels' ceilings,
RK4_TRANSPORT_CFL h / max|wind| and RK4_DIFFUSION_CFL h^2 / diffusivity,
and a reaction limit that keeps the growth resolved. Blowup time is
recovered from the line ||u||^{-(p-1)} ~ (p-1)(T - t), exact for the
space-independent solution, and profiles are fitted in the rescaled frame
by the linearization w^{-(p-1)} = p - 1 + b y^{2k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    RK4_DIFFUSION_CFL, RK4_TRANSPORT_CFL, GridFunction, laplacian_compact, upwind_gradient,
)
from .params import ModelParams, eval_profile, scale_factor, signed_power

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
# stride of steps
U_SNAPSHOT_GROWTH = 1.1
U_MAX_SNAPSHOT_STRIDE = 2000
# profile fits: b is fitted on |y| <= Y_FIT, distances are taken on |y| <= Y_WINDOW
Y_FIT = 2.0
Y_WINDOW = 3.0


@dataclass
class PdeRun:
    nodes: np.ndarray
    times: np.ndarray
    snapshots: np.ndarray
    sup_times: np.ndarray
    sup_series: np.ndarray
    termination: str
    frame: str
    meta: dict = field(default_factory=dict)


def solve_w_direct(
    w0: GridFunction,
    s_range: tuple[float, float],
    params: ModelParams,
) -> PdeRun:
    """Integrate the self-similar frame equation with outflow boundaries."""
    s0, s1 = float(s_range[0]), float(s_range[1])
    if not s1 > s0:
        raise ValueError("s_range must be increasing")
    nodes = w0.nodes
    h = w0.spacing
    k, p = params.k, params.p
    wind = nodes / (2.0 * k)
    cmax = float(np.max(np.abs(wind)))

    def rhs(w: np.ndarray, I2inv: float) -> np.ndarray:
        return (
            I2inv * laplacian_compact(w, h)
            - wind * upwind_gradient(w, h, wind)
            - w / (p - 1.0)
            + signed_power(w, p)
        )

    w = w0.values.copy()
    s = s0
    times = [s0]
    snaps = [w.copy()]
    sup_t = [s0]
    wmax = float(np.max(np.abs(w)))
    sups = [wmax]
    next_snap = s0 + W_SNAPSHOT_DS
    termination = TERM_HORIZON
    I = float(scale_factor(s, k))
    while s < s1 - 1e-12:
        dt_diff = RK4_DIFFUSION_CFL * h * h * I**2
        dt_adv = RK4_TRANSPORT_CFL * h / max(cmax, 1e-12)
        dt_react = W_REACT_SAFETY / (1.0 / (p - 1.0) + p * max(wmax, 1e-12) ** (p - 1.0))
        dt = min(dt_diff, dt_adv, dt_react, s1 - s, next_snap - s + 1e-15)

        # I at the stage times s + dt/2 and s + dt; the end's is the next start's
        I_mid = float(scale_factor(s + 0.5 * dt, k))
        I_end = float(scale_factor(s + dt, k))
        k1 = rhs(w, I**-2)
        k2 = rhs(w + 0.5 * dt * k1, I_mid**-2)
        k3 = rhs(w + 0.5 * dt * k2, I_mid**-2)
        k4 = rhs(w + dt * k3, I_end**-2)
        w = w + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += dt
        I = I_end

        if not np.all(np.isfinite(w)):
            termination = TERM_INSTABILITY
            break
        wmax = float(np.max(np.abs(w)))
        sup_t.append(s)
        sups.append(wmax)
        if wmax >= W_BLOWUP_THRESHOLD:
            termination = TERM_BLOWUP
            times.append(s)
            snaps.append(w.copy())
            break
        if s >= next_snap - 1e-12:
            times.append(s)
            snaps.append(w.copy())
            next_snap += W_SNAPSHOT_DS
    if termination == TERM_HORIZON and times[-1] < s:
        times.append(s)
        snaps.append(w.copy())

    return PdeRun(
        nodes=nodes,
        times=np.array(times),
        snapshots=np.array(snaps),
        sup_times=np.array(sup_t),
        sup_series=np.array(sups),
        termination=termination,
        frame="w",
        meta={"p": p, "k": k},
    )


def solve_u_physical(
    u0: GridFunction,
    t_max: float,
    params: ModelParams,
    *,
    blowup_threshold: float = 1e8,
) -> PdeRun:
    """Method-of-lines integration of the reaction-diffusion equation.

    Homogeneous Dirichlet walls (endpoint values pinned to zero); adaptive
    time step limited by both the diffusive CFL and the reaction timescale
    ||u||_inf^{-(p-1)}. Time is accumulated in compensated arithmetic so the
    final approach to blowup stays resolved. The run ends once the sup norm
    reaches blowup_threshold.
    """
    nodes = u0.nodes
    h = u0.spacing
    p = params.p

    def rhs(u: np.ndarray) -> np.ndarray:
        du = laplacian_compact(u, h) + signed_power(u, p)
        du[0] = 0.0
        du[-1] = 0.0
        return du

    u = u0.values.copy()
    u[0] = 0.0
    u[-1] = 0.0
    t = 0.0
    t_comp = 0.0  # Kahan compensation
    times = [0.0]
    snaps = [u.copy()]
    sup_t = [0.0]
    sups = [float(np.max(np.abs(u)))]
    last_snap_sup = sups[0]
    stride = 0
    termination = TERM_HORIZON
    while t < t_max:
        umax = float(np.max(np.abs(u)))
        dt_diff = RK4_DIFFUSION_CFL * h * h
        dt_react = U_REACT_SAFETY * max(umax, 1e-12) ** (-(p - 1.0))
        dt = min(dt_diff, dt_react, t_max - t)

        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        y = dt - t_comp
        t_new = t + y
        t_comp = (t_new - t) - y
        t = t_new

        if not np.all(np.isfinite(u)):
            termination = TERM_INSTABILITY
            break
        umax = float(np.max(np.abs(u)))
        sup_t.append(t)
        sups.append(umax)
        stride += 1
        if umax >= blowup_threshold:
            times.append(t)
            snaps.append(u.copy())
            termination = TERM_BLOWUP
            break
        if umax >= U_SNAPSHOT_GROWTH * last_snap_sup or stride >= U_MAX_SNAPSHOT_STRIDE:
            times.append(t)
            snaps.append(u.copy())
            last_snap_sup = umax
            stride = 0

    if termination == TERM_HORIZON and times[-1] < t:
        times.append(t)
        snaps.append(u.copy())

    return PdeRun(
        nodes=nodes,
        times=np.array(times),
        snapshots=np.array(snaps),
        sup_times=np.array(sup_t),
        sup_series=np.array(sups),
        termination=termination,
        frame="u",
        meta={"p": p, "k": params.k},
    )


@dataclass(frozen=True)
class BlowupFit:
    T_hat: float
    slope: float
    residual: float
    window: tuple[float, float]
    n_points: int


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
        window=(float(tt[0]), float(tt[-1])),
        n_points=int(tt.size),
    )


@dataclass(frozen=True)
class ProfileFit:
    b: float
    flat: bool
    residual: float
    n_points: int


def _fit_core(y: np.ndarray, w: np.ndarray, params: ModelParams, y_fit: float) -> ProfileFit:
    p, k = params.p, params.k
    mask = (np.abs(y) <= y_fit) & (w > 0.0)
    if int(np.sum(mask)) < 8:
        raise ValueError("snapshot does not resolve the profile core")
    yy, ww = y[mask], w[mask]
    g = ww ** (-(p - 1.0)) - (p - 1.0)
    if float(np.max(np.abs(g))) < 1e-8 * (p - 1.0):
        return ProfileFit(b=0.0, flat=True, residual=0.0, n_points=int(yy.size))
    y2k = np.abs(yy) ** (2 * k)
    b_hat = float(np.sum(g * y2k) / np.sum(y2k**2))
    f_fit, _ = eval_profile(yy, max(b_hat, 0.0), params)
    residual = float(np.sqrt(np.mean((ww - f_fit) ** 2)))
    return ProfileFit(b=b_hat, flat=False, residual=residual, n_points=int(yy.size))


@dataclass(frozen=True)
class ProfileComparison:
    times: np.ndarray
    tau: np.ndarray
    b_series: np.ndarray
    distances: np.ndarray
    loglog_slope: float
    n_used: int


def _comparison(times: list, taus: list, bs: list, ds: list) -> ProfileComparison:
    """The record of a profile series, with its slope of log(distance) against log(tau)."""
    taus_a = np.array(taus)
    ds_a = np.array(ds)
    good = ds_a > 0.0
    slope = (
        float(np.polyfit(np.log(taus_a[good]), np.log(ds_a[good]), 1)[0])
        if int(np.sum(good)) >= 2
        else math.nan
    )
    return ProfileComparison(
        times=np.array(times),
        tau=taus_a,
        b_series=np.array(bs),
        distances=ds_a,
        loglog_slope=slope,
        n_used=len(times),
    )


def compare_profile(
    run: PdeRun,
    T_hat: float,
    params: ModelParams,
    min_snapshots: int = 10,
) -> ProfileComparison:
    """Per-snapshot profile fit and sup distance for a physical blowup run.

    Each usable snapshot is rescaled, b is fitted, and the sup distance to
    the fitted profile over |y| <= Y_WINDOW is recorded, together with the
    slope of log(distance) against log(T_hat - t).
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
    if len(times) < min_snapshots:
        raise ValueError(
            f"only {len(times)} usable snapshots; need >= {min_snapshots}"
        )
    return _comparison(times, taus, bs, ds)


def profile_distance_series(run: PdeRun, params: ModelParams) -> ProfileComparison:
    """Profile fits and sup distances along a self-similar-frame run."""
    if run.frame != "w":
        raise ValueError("profile_distance_series expects a self-similar run")
    times, taus, bs, ds = [], [], [], []
    mask = np.abs(run.nodes) <= Y_WINDOW
    for s, snap in zip(run.times, run.snapshots):
        fit = _fit_core(run.nodes, snap, params, Y_FIT)
        f_ref, _ = eval_profile(run.nodes[mask], max(fit.b, 0.0), params)
        times.append(float(s))
        taus.append(math.exp(-s))
        bs.append(fit.b)
        ds.append(float(np.max(np.abs(snap[mask] - f_ref))))
    return _comparison(times, taus, bs, ds)
