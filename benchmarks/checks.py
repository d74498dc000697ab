"""Correctness checks the benchmark applies to every round it times.

Each check returns a list of failure messages (empty when it passes). Every
one compares against a computation made apart from the program (closed forms
written out here, or a second route through the code that shares no
arithmetic with the first) or against a property the method must have; none
compares against stored output. The checks read plain attributes only, so
`test_checks.py` can feed them hand-made wrong inputs.
"""

from __future__ import annotations

import math

import numpy as np


def scale_factor(s: float, k: int) -> float:
    """I(s) = exp((s/2)(1 - 1/k)), written out again from the paper's frame."""
    return math.exp(0.5 * s * (1.0 - 1.0 / k))


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


# -- ensemble ----------------------------------------------------------------

def neutral_mode(records, k: int) -> list[str]:
    """q_{2k} is held at exactly zero by the modulation, at every sample."""
    bad = []
    for i, rec in enumerate(records):
        for smp in rec.samples:
            if smp.modes[2 * k] != 0.0:
                bad.append(f"trajectory {i}: q_{2 * k} = {smp.modes[2 * k]!r} at s = {smp.s}")
                break
    return bad


def bprime_routes(states, k: int, tol: float = 1e-6) -> list[str]:
    """The quadrature and jet routes to b' agree at each final state.

    states holds (s, quadrature b', jet b'); None stands for a modulation
    breakdown, which both routes must then report. The routes agree within
    tol relative, or within the roundoff floor eps I(s)^{2k} of the
    quadrature route, whichever is larger: that route extracts the H_{2k}
    content of O(1) pointwise sources, which amplifies roundoff by I^{2k}
    (8e8 at s = 20.5). The floor decides only where |b'| is below about 0.2;
    on 460 final states of ten seeds the largest gap was 2.9e-8, and one
    state of seed 14 (b' = -1.8e-3, gap 2.9e-9) sits at 1.7e-6 relative.
    """
    bad = []
    for i, (s, quad, jets) in enumerate(states):
        if (quad is None) != (jets is None):
            bad.append(f"state {i}: one b' route broke down ({quad!r} against {jets!r})")
            continue
        if quad is None:
            continue
        floor = np.finfo(float).eps * scale_factor(s, k) ** (2 * k)
        if not abs(quad - jets) <= max(tol * max(abs(quad), abs(jets)), floor):
            bad.append(f"state {i} at s = {s}: b' {quad!r} against {jets!r}, "
                       f"relative {_rel(quad, jets):.2e}")
    return bad


def mode_exits(records, delta: float, k: int, min_transversal: float = 0.95) -> list[str]:
    """Mode exits leave from inside, past the bound, with the right sign.

    Each one follows an inside sample, has |q_m(s*)| >= I^{-delta}(s*) and
    omega = sign q_m(s*); at least min_transversal of them cross with
    omega dq_m/ds > 0 (criterion 10's standard).
    """
    bad = []
    n_mode = n_transversal = 0
    for i, rec in enumerate(records):
        ex = rec.exit
        if ex is None or ex.mode is None:
            continue
        n_mode += 1
        last = rec.samples[-1]
        q = float(last.modes[ex.mode])
        bound = scale_factor(ex.s_star, k) ** (-delta)
        if len(rec.samples) < 2 or not rec.samples[-2].inside:
            bad.append(f"trajectory {i}: exit through mode {ex.mode} does not follow an inside sample")
        if last.s != ex.s_star:
            bad.append(f"trajectory {i}: exit s* {ex.s_star} is not the last sample's s {last.s}")
        if not abs(q) >= bound:
            bad.append(f"trajectory {i}: |q_{ex.mode}| = {abs(q):.6g} below the bound {bound:.6g}")
        if ex.omega != (1 if q >= 0 else -1):
            bad.append(f"trajectory {i}: omega {ex.omega} against sign of q_{ex.mode} = {q:.3g}")
        if ex.transversal:
            n_transversal += 1
    if n_mode and n_transversal < min_transversal * n_mode:
        bad.append(f"only {n_transversal}/{n_mode} mode exits are transversal")
    return bad


def same_bytes(first: bytes, second: bytes, what: str) -> list[str]:
    return [] if first == second else [f"{what}: the two writes differ"]


# -- shoot -----------------------------------------------------------------

def linear_d2(s0: float, delta: float, b0: float, p: float, k: int) -> float:
    """Linear-theory seed d_2 = -alpha_1 I^{-2}(s0) / I^{-delta}(s0)."""
    alpha1 = -2.0 * k * (2 * k - 1) * b0 / (p - 1.0)
    I = scale_factor(s0, k)
    return -alpha1 * I**-2 / I**-delta


def shoot_certificate(
    cert: dict, rows: list[dict], s0: float, horizon: float, box: float,
    delta: float, b0: float, p: float, k: int,
) -> list[str]:
    """A certified survivor: margins, box, drift, survivor CSV, linear d_2.

    A shoot that exits with another code than 0 is a failed operation and is
    counted as one before this check.
    """
    if cert.get("failed", True):
        return ["certificate marks the search as failed"]
    bad = []
    if cert["n_trajectories"] <= 1:
        bad.append("the search did not bisect")
    for name, margin in cert["final_margins"].items():
        if not margin > 0.0:
            bad.append(f"final margin {name} = {margin!r} is not positive")
    d = cert["d_star"]
    if not max(abs(x) for x in d) <= box:
        bad.append(f"d* = {d} leaves the box {box}")
    if not cert["b_drift"] <= 0.1:
        bad.append(f"b drift {cert['b_drift']!r} above 0.1")
    if not rows:
        bad.append("survivor CSV is empty")
    else:
        if not float(rows[-1]["s"]) >= s0 + horizon - 1e-9:
            bad.append(f"survivor CSV ends at s = {rows[-1]['s']} before {s0 + horizon}")
        if any(r["exit_mode"] for r in rows):
            bad.append("survivor CSV records an exit")
    lin = linear_d2(s0, delta, b0, p, k)
    if not (d[2] * lin > 0.0 and 0.5 <= d[2] / lin <= 2.0):
        bad.append(f"d*_2 = {d[2]:.4g} not within a factor 2 of linear theory {lin:.4g}")
    return bad


# -- direct ----------------------------------------------------------------

def blowup_time(T_hat: float, T: float, tol: float = 0.01) -> list[str]:
    err = abs(T_hat - T) / T
    return [] if err <= tol else [f"T_hat {T_hat!r} misses T = {T!r} by {err:.2e}"]


def sup_series(t, sup, T: float, p: float, tol: float = 1e-6) -> list[str]:
    """||u||_inf follows kappa (T - t)^{-1/(p-1)} for t < T.

    Compared in time: (sup / kappa)^{-(p-1)} is the time left to blowup,
    which must equal T - t to tol T. (Compared in u, the last samples, where
    T - t is a few ulps of t, would read as large relative errors.)
    """
    t = np.asarray(t, dtype=float)
    sup = np.asarray(sup, dtype=float)
    before = t < T
    if not np.any(before):
        return ["no sup-series sample before T"]
    kappa = (p - 1.0) ** (-1.0 / (p - 1.0))
    left = (sup[before] / kappa) ** (-(p - 1.0))
    err = float(np.max(np.abs(left - (T - t[before])))) / T
    return [] if err <= tol else [f"sup series off the exact blowup by {err:.2e} T in time"]


def grid_convergence(times_a, dist_a, times_b, dist_b, tol: float = 0.01) -> list[str]:
    """Distances of two grids agree within tol (relative) at shared times."""
    ta, tb = np.asarray(times_a), np.asarray(times_b)
    ia, ib = np.nonzero(np.abs(ta[:, None] - tb[None, :]) <= 1e-9)
    if ia.size == 0:
        return ["the two w-runs share no snapshot time"]
    da, db = np.asarray(dist_a)[ia], np.asarray(dist_b)[ib]
    rel = np.abs(da - db) / np.maximum(np.abs(da), np.abs(db))
    worst = int(np.argmax(rel))
    if rel[worst] <= tol:
        return []
    return [f"distances {da[worst]:.4g} and {db[worst]:.4g} at s = {ta[ia[worst]]:.3f} "
            f"differ by {rel[worst]:.2e}"]


def manufactured(max_distance: float, max_b_error: float, tol: float = 1e-6) -> list[str]:
    bad = []
    if not max_distance < tol:
        bad.append(f"manufactured distance {max_distance:.2e} not below {tol}")
    if not max_b_error < tol:
        bad.append(f"manufactured b error {max_b_error:.2e} not below {tol}")
    return bad
