"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline). The
expensive artifacts (trajectory ensemble, refined survivor) are session
fixtures shared between criteria.
"""

import time

import numpy as np
import pytest

from conftest import random_bumps

from blowlab.direct import (
    PdeRun,
    compare_profile,
    estimate_blowup_time,
    profile_distance_series,
    solve_u_physical,
    solve_w_direct,
)
from blowlab.dynamics import (
    FlowOptions,
    a_priori_diagnostics,
    init_state,
    membership,
    run,
)
from blowlab.grid import GridFunction, uniform_grid
from blowlab.hermite import decompose, remainder_seminorm
from blowlab.mehler import propagate
from blowlab.operators import consistency_residual
from blowlab.params import eval_profile, scale_factor
from blowlab.shooting import ShootConfig, search
from blowlab.verify import verify_mehler, verify_spectral

# minutes of work: `pytest -m "not slow"` leaves the suite out
pytestmark = pytest.mark.slow

DELTA, B0, S0, HORIZON = 0.1, 1.0, 20.0, 10.0


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def flow_opts():
    return FlowOptions()


@pytest.fixture(scope="session")
def ensemble_runs(params3, flow_opts):
    """Ten trajectories from random admissible seeds, observed to s0 + 10."""
    rng = np.random.default_rng(2026)
    out = []
    for _ in range(10):
        d = rng.uniform(-0.25, 0.25, size=4)
        st = init_state(d, DELTA, B0, S0, params3, flow_opts)
        out.append(run(st, S0 + HORIZON, DELTA, B0, params3, ds=0.01, opts=flow_opts))
    return out


@pytest.fixture(scope="session")
def survivor_refined(params3, flow_opts):
    """Even-only survivor sharp enough for the trend experiment.

    The horizon-10 survivor leaves a residual unstable seed that outgrows the
    decaying components inside the comparison window; surviving 25 extra
    units pins the even coordinates to ~1e-6.
    """
    cfg = ShootConfig(
        delta=DELTA, b0=B0, s0=S0, horizon=25.0, even_only=True, ds=0.01,
        depth=60, flow=flow_opts,
    )
    d_star, cert = search(cfg, params3)
    return d_star, cert


def test_criterion_1_spectral_identities():
    t0 = time.time()
    rep = verify_spectral(k_values=(2, 3), s_values=(2.0, 10.0, 30.0), n_max=12)
    elapsed = time.time() - t0
    ok = (
        rep.orthogonality_rel_err < 1e-8
        and rep.jordan_rel_err < 1e-8
        and rep.product_identity_err < 1e-10
        and elapsed < 30.0
    )
    _report(
        1, ok,
        f"orth {rep.orthogonality_rel_err:.2e}, generator {rep.jordan_rel_err:.2e}, "
        f"products {rep.product_identity_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_mehler_suite():
    rep = verify_mehler(k=2, sigma=4.0, gaps=(0.1, 0.5, 1.0, 2.0, 3.0), n_max=8)
    ok = (
        rep.multiplier_rel_err < 1e-5
        and rep.semigroup_err < 1e-4
        and rep.mass_rel_err < 1e-8
    )
    _report(
        2, ok,
        f"multipliers {rep.multiplier_rel_err:.2e}, semigroup {rep.semigroup_err:.2e}, "
        f"mass {rep.mass_rel_err:.2e}",
    )


def test_criterion_3_derivation_consistency(params3):
    worst = 0.0
    worst_factor = np.inf
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n1 = uniform_grid(1.0, 4097)
        q1 = GridFunction(n1, random_bumps(n1, rng))
        rng = np.random.default_rng(seed)
        n2 = uniform_grid(1.0, 8193)
        q2 = GridFunction(n2, random_bumps(n2, rng))
        rng = np.random.default_rng(seed + 100)
        b = rng.uniform(0.5, 2.0)
        s = rng.uniform(1.0, 4.0)
        r1 = consistency_residual(q1, b, s, params3)
        worst = max(worst, r1)
        worst_factor = min(worst_factor, r1 / consistency_residual(q2, b, s, params3))

    # the open-question resolution, documented with measured residuals
    rng = np.random.default_rng(7)
    nodes = uniform_grid(1.0, 4097)
    q = GridFunction(nodes, random_bumps(nodes, rng))
    r_derived = consistency_residual(q, 1.0, 3.0, params3, bprime=0.3, variant="derived")
    r_paper = consistency_residual(q, 1.0, 3.0, params3, bprime=0.3, variant="paper")

    ok = worst < 1e-6 and worst_factor >= 3.5 and r_derived < 1e-6 and r_paper > 0.1
    _report(
        3, ok,
        f"max residual {worst:.2e}, min doubling factor {worst_factor:.2f}; "
        f"modulation coefficient residuals: derived {r_derived:.2e}, literal {r_paper:.2e}",
    )


def _windowed_c1(runs, params, window_end):
    worst = 0.0
    for rec in runs:
        try:
            rep = a_priori_diagnostics(rec, DELTA, params, s_window_end=window_end)
        except ValueError:
            continue
        worst = max(worst, rep.C1)
    return worst


def test_criterion_4_mode_ode_property(params3, ensemble_runs):
    c1_5 = _windowed_c1(ensemble_runs, params3, S0 + 5.0)
    c1_10 = _windowed_c1(ensemble_runs, params3, S0 + 10.0)
    ratio = c1_10 / max(c1_5, 1e-300)
    ok = ratio < 2.0
    _report(4, ok, f"rescaled ODE residual max {c1_5:.3e} -> {c1_10:.3e}, ratio {ratio:.2f}")


def test_criterion_5_modulation_smallness(params3, ensemble_runs):
    def windowed_c2(window_end):
        worst = 0.0
        for rec in ensemble_runs:
            try:
                rep = a_priori_diagnostics(rec, DELTA, params3, s_window_end=window_end)
            except ValueError:
                continue
            worst = max(worst, rep.C2)
        return worst

    c2_5 = windowed_c2(S0 + 5.0)
    c2_10 = windowed_c2(S0 + 10.0)
    ratio = c2_10 / max(c2_5, 1e-300)

    b_lo, b_hi = np.inf, -np.inf
    for rec in ensemble_runs:
        arr = rec.arrays()
        inside = arr["inside"]
        if np.any(inside):
            b_lo = min(b_lo, float(np.min(arr["b"][inside])))
            b_hi = max(b_hi, float(np.max(arr["b"][inside])))
    ok = ratio < 2.0 and b_lo >= 0.75 * B0 and b_hi <= 1.25 * B0
    _report(
        5, ok,
        f"rescaled |b'| max {c2_5:.3e} -> {c2_10:.3e} (ratio {ratio:.2f}), "
        f"b range [{b_lo:.4f}, {b_hi:.4f}]",
    )


def test_criterion_6_remainder_contraction(params3, quad96):
    sigma = 2.0
    nodes = uniform_grid(6.0, 2401)
    bump = np.exp(-((nodes - 0.3) ** 2) / 0.8)
    dec = decompose(GridFunction(nodes, bump), sigma, params3, quad96)
    qminus = dec.remainder
    base = remainder_seminorm(qminus, sigma, params3)
    gaps = np.linspace(0.5, 3.0, 6)
    ratios = [
        remainder_seminorm(propagate(qminus, sigma, sigma + g, 2, quad_order=140),
                           sigma + g, params3) / base
        for g in gaps
    ]
    rate = -np.polyfit(gaps, np.log(ratios), 1)[0]
    target = 1.0 / (params3.p - 1.0) - 0.1
    ok = rate >= target
    _report(6, ok, f"fitted contraction exponent {rate:.3f} >= {target:.2f}")


def test_criterion_7_shooting_end_to_end(params3, flow_opts):
    t0 = time.time()
    cfg = ShootConfig(
        delta=DELTA, b0=B0, s0=S0, horizon=HORIZON, box=2.0, depth=40, ds=0.01,
        flow=flow_opts,
    )
    d_star, cert = search(cfg, params3)
    margins_ok = all(v > 0 for v in cert.final_margins.values())
    elapsed = time.time() - t0

    lin_cfg = ShootConfig(
        delta=DELTA, b0=B0, s0=S0, horizon=60.0, box=2.0, depth=45, ds=0.04,
        flow=FlowOptions(linear_only=True, n_nodes=129),
    )
    d_lin, _ = search(lin_cfg, params3)

    ok = (
        np.max(np.abs(d_star)) <= 2.0
        and margins_ok
        and cert.b_drift <= 0.1
        and elapsed < 600.0
        and np.max(np.abs(d_lin)) < 1e-6
    )
    _report(
        7, ok,
        f"survivor after {cert.n_trajectories} trajectories, b drift {cert.b_drift:.2e}, "
        f"{elapsed:.0f}s; pure-linear |d*| = {np.max(np.abs(d_lin)):.2e}",
    )


def test_criterion_8_theorem_level_trend(params3, survivor_refined):
    # (a) manufactured solution
    T, b_star = 0.1, 1.0
    xg = uniform_grid(10.0, 1001)
    ts = T - T * np.exp(-np.linspace(0.0, 6.0, 25))
    snaps = np.array(
        [
            (T - t) ** -0.5 * eval_profile(xg * (T - t) ** -0.25, b_star, params3)[0]
            for t in ts
        ]
    )
    man_run = PdeRun(
        nodes=xg, times=ts, snapshots=snaps, sup_times=ts,
        sup_series=np.array([float(np.max(s)) for s in snaps]),
        termination="blowup-threshold", frame="u",
    )
    man = compare_profile(man_run, T, params3)
    man_ok = float(np.max(man.distances)) < 1e-6 and float(
        np.max(np.abs(man.b_series - b_star))
    ) < 1e-6

    # (b) survivor-seeded direct run
    d_star, _ = survivor_refined
    yg = uniform_grid(6.0, 1201)
    f, e = eval_profile(yg, B0, params3)
    amp = float(scale_factor(S0, 2)) ** -DELTA
    psi = np.zeros_like(yg)
    for i, di in enumerate(d_star):
        psi += di * amp * yg**i
    s_len = 5.0 * np.log(2.0) + 0.5
    wrun = solve_w_direct(GridFunction(yg, f * (1.0 + e * psi)), (S0, S0 + s_len), params3)
    series = profile_distance_series(wrun, params3)

    half = S0 + s_len / 2.0
    checkpoints = np.linspace(half, S0 + s_len, 6)
    d_checks = np.interp(checkpoints, series.times, series.distances)
    non_increasing = bool(np.all(np.diff(d_checks) <= 1e-12))

    s_dyadic = S0 + np.log(2.0) * np.arange(6)
    b_dyadic = np.interp(s_dyadic, series.times, series.b_series)
    increments = np.abs(np.diff(b_dyadic))
    shrinking = bool(np.all(np.diff(increments) < 0.0))

    ok = man_ok and non_increasing and shrinking
    _report(
        8, ok,
        f"manufactured max distance {np.max(man.distances):.1e}; survivor distances "
        f"{[f'{x:.2e}' for x in d_checks]}, dyadic b increments "
        f"{[f'{x:.2e}' for x in increments]}",
    )


def test_criterion_9_blowup_time(params3):
    T = 0.1
    xg = uniform_grid(10.0, 1001)
    u0 = GridFunction(xg, np.full_like(xg, params3.kappa * T**-0.5))
    run1 = solve_u_physical(u0, 1.0, params3)
    fit1 = estimate_blowup_time(run1, params3)
    run2 = solve_u_physical(u0, 1.0, params3)
    fit2 = estimate_blowup_time(run2, params3)
    ok = abs(fit1.T_hat - T) / T < 0.01 and fit1.T_hat == fit2.T_hat
    _report(9, ok, f"T_hat {fit1.T_hat:.8f} (rel err {abs(fit1.T_hat-T)/T:.2e}), deterministic")


def test_criterion_10_exit_transversality(params3, flow_opts):
    rng = np.random.default_rng(517)
    n_mode_exits = 0
    n_transversal = 0
    counterexamples = []
    attempts = 0
    while n_mode_exits < 50 and attempts < 80:
        attempts += 1
        d = rng.uniform(-0.95, 0.95, size=4)
        st = init_state(d, DELTA, B0, S0, params3, flow_opts)
        if not membership(st, DELTA, B0, params3, flow_opts).inside:
            continue
        rec = run(st, S0 + 8.0, DELTA, B0, params3, ds=0.01, opts=flow_opts)
        if rec.exit is None or rec.exit.mode is None or rec.exit.mode >= 4:
            continue
        n_mode_exits += 1
        if rec.exit.transversal:
            n_transversal += 1
        else:
            counterexamples.append(
                {
                    "d": d.tolist(),
                    "s_star": rec.exit.s_star,
                    "mode": rec.exit.mode,
                    "omega": rec.exit.omega,
                    "dqds": rec.exit.dqds,
                    "final_modes": rec.samples[-1].modes.tolist(),
                    "b": rec.samples[-1].b,
                }
            )
    for ce in counterexamples:
        print("transversality counterexample:", ce)
    frac = n_transversal / max(n_mode_exits, 1)
    ok = n_mode_exits >= 50 and frac >= 0.95
    _report(
        10, ok,
        f"{n_transversal}/{n_mode_exits} transversal exits ({100*frac:.1f}%), "
        f"{len(counterexamples)} counterexamples logged",
    )
