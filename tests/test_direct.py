import math

import numpy as np
import pytest

from blowlab import direct, grid
from blowlab.direct import (
    PdeRun,
    _fit_core,
    compare_profile,
    estimate_blowup_time,
    profile_distance_series,
    solve_u_physical,
    solve_w_direct,
)
from blowlab.grid import GridFunction, band, laplacian_compact, uniform_grid, upwind_gradient
from blowlab.params import (
    eval_profile,
    make_params,
    profile_second_derivative,
    scale_factor,
)


def test_w_solver_constant_equilibrium(params3):
    nodes = uniform_grid(6.0, 1201)
    w0 = GridFunction(nodes, np.full_like(nodes, params3.kappa))
    run = solve_w_direct(w0, (20.0, 25.0), params3)
    assert run.termination == "horizon"
    assert np.max(np.abs(run.snapshots[-1] - params3.kappa)) < 1e-10


def test_w_solver_profile_drift_bounded_by_diffusion(params3):
    # starting on the profile, motion comes only through the I^{-2} Delta term
    s0, b = 20.0, 1.0
    nodes = uniform_grid(6.0, 1201)
    f, _ = eval_profile(nodes, b, params3)
    run = solve_w_direct(GridFunction(nodes, f), (s0, s0 + 1.0), params3)
    drift = np.max(np.abs(run.snapshots[-1] - f))
    I2inv = float(scale_factor(s0, 2)) ** -2
    rate = I2inv * np.max(np.abs(profile_second_derivative(nodes, b, params3)))
    assert drift <= 5.0 * rate  # one unit of scale time, with growth slack


def test_u_solver_space_independent_blowup(params3):
    T = 0.1
    xg = uniform_grid(10.0, 1001)
    u0 = GridFunction(xg, np.full_like(xg, params3.kappa * T**-0.5))
    run = solve_u_physical(u0, 1.0, params3)
    assert run.termination == "blowup-threshold"
    fit = estimate_blowup_time(run, params3)
    assert abs(fit.T_hat - T) / T < 0.01
    assert fit.slope == pytest.approx(-(params3.p - 1.0), rel=5e-3)

    # deterministic across reruns
    run2 = solve_u_physical(u0, 1.0, params3)
    assert np.array_equal(run.sup_series, run2.sup_series)
    fit2 = estimate_blowup_time(run2, params3)
    assert fit2.T_hat == fit.T_hat


def test_u_solver_zero_and_subcritical_data(params3):
    xg = uniform_grid(10.0, 401)
    run0 = solve_u_physical(GridFunction(xg, np.zeros_like(xg)), 0.02, params3)
    assert run0.termination == "horizon"
    assert np.max(np.abs(run0.snapshots[-1])) == 0.0

    bump = 0.5 * np.exp(-(xg**2))
    run1 = solve_u_physical(GridFunction(xg, bump), 0.05, params3)
    assert run1.termination == "horizon"
    assert np.max(run1.sup_series[-1]) < np.max(run1.sup_series[0])


def test_type_one_rate_sanity(params3):
    T = 0.1
    xg = uniform_grid(10.0, 1001)
    u0 = GridFunction(xg, np.full_like(xg, params3.kappa * T**-0.5))
    run = solve_u_physical(u0, 1.0, params3)
    fit = estimate_blowup_time(run, params3)
    tail = run.sup_series >= np.max(run.sup_series) / 100.0
    rate = run.sup_series[tail] * (fit.T_hat - run.sup_times[tail]) ** 0.5
    assert np.all(rate < 2.0 * params3.kappa)
    assert np.all(rate > 0.5 * params3.kappa)


def test_estimate_blowup_time_exact_series(params3):
    # synthetic space-independent solution: the fit model is exact
    T = 0.37
    t = T - T * np.exp(-np.linspace(0.0, 13.0, 400))
    sup = params3.kappa * (T - t) ** -0.5
    run = PdeRun(
        nodes=np.zeros(3), times=t[:1], snapshots=np.zeros((1, 3)),
        sup_times=t, sup_series=sup, termination="blowup-threshold", frame="u",
    )
    fit = estimate_blowup_time(run, params3)
    assert fit.T_hat == pytest.approx(T, abs=1e-6)
    assert fit.residual < 1e-10

    # truncating the series at a lower threshold still recovers T within 1%
    mask = sup < 1e4
    run2 = PdeRun(
        nodes=np.zeros(3), times=t[:1], snapshots=np.zeros((1, 3)),
        sup_times=t[mask], sup_series=sup[mask],
        termination="blowup-threshold", frame="u",
    )
    fit2 = estimate_blowup_time(run2, params3)
    assert abs(fit2.T_hat - T) / T < 0.01


def test_estimate_blowup_time_rejects_flat_series(params3):
    t = np.linspace(0, 1, 50)
    run = PdeRun(
        nodes=np.zeros(3), times=t[:1], snapshots=np.zeros((1, 3)),
        sup_times=t, sup_series=np.ones_like(t),
        termination="horizon", frame="u",
    )
    with pytest.raises(ValueError):
        estimate_blowup_time(run, params3)


def test_fit_profile_reference_cases(params3):
    nodes = uniform_grid(6.0, 1201)
    f1, _ = eval_profile(nodes, 1.0, params3)
    assert _fit_core(nodes, f1, params3, 2.0) == pytest.approx(1.0, abs=1e-8)

    rng = np.random.default_rng(40)
    noisy = f1 + 1e-3 * rng.uniform(-1, 1, size=nodes.size)
    assert abs(_fit_core(nodes, noisy, params3, 2.0) - 1.0) < 1e-2

    assert _fit_core(nodes, np.full_like(nodes, params3.kappa), params3, 2.0) == 0.0


def _manufactured_run(params, T, b_star, n_snap=25):
    xg = uniform_grid(10.0, 1001)
    ts = T - T * np.exp(-np.linspace(0.0, 6.0, n_snap))
    snaps = np.array(
        [
            (T - t) ** (-1.0 / (params.p - 1.0))
            * eval_profile(xg * (T - t) ** (-0.25), b_star, params)[0]
            for t in ts
        ]
    )
    return PdeRun(
        nodes=xg, times=ts, snapshots=snaps, sup_times=ts,
        sup_series=np.array([float(np.max(s)) for s in snaps]),
        termination="blowup-threshold", frame="u",
    )


def test_compare_profile_manufactured(params3):
    run = _manufactured_run(params3, 0.1, 1.0)
    cmp_ = compare_profile(run, 0.1, params3)
    assert len(cmp_.times) >= 10
    assert np.max(cmp_.distances) < 1e-6
    assert np.max(np.abs(cmp_.b_series - 1.0)) < 1e-6


def test_compare_profile_generic_bump_control(params3):
    """Control experiment: unprepared data gives a drifting fit (reported)."""
    xg = uniform_grid(10.0, 1001)
    u0 = GridFunction(xg, 3.0 * np.exp(-(xg**2)))
    run = solve_u_physical(u0, 1.0, params3)
    assert run.termination == "blowup-threshold"
    fit = estimate_blowup_time(run, params3)
    cmp_ = compare_profile(run, fit.T_hat, params3)
    # reported, not asserted: the generic profile is not in this flat family
    assert np.all(np.isfinite(cmp_.distances))


def test_compare_profile_requires_snapshots(params3):
    run = _manufactured_run(params3, 0.1, 1.0, n_snap=4)
    with pytest.raises(ValueError):
        compare_profile(run, 0.1, params3)


def test_solver_agreement_between_frames(params3):
    """The w-run transported to physical variables matches a u-run."""
    s0 = 8.0
    T = float(np.exp(-s0))
    b = 1.0
    yg = uniform_grid(6.0, 1401)
    f, e = eval_profile(yg, b, params3)
    psi = 0.3 * np.exp(-(yg**2))
    w0 = f * (1.0 + e * psi)

    s_len = 0.8
    wrun = solve_w_direct(GridFunction(yg, w0), (s0, s0 + s_len), params3)

    xg = yg * T**0.25
    u0 = T**-0.5 * w0
    t_end = T - np.exp(-(s0 + s_len))
    urun = solve_u_physical(GridFunction(xg, u0), t_end, params3)
    assert urun.termination == "horizon"

    # compare at the final common time, over the core in rescaled variables
    s_end = s0 + s_len
    tau = np.exp(-s_end)
    w_from_u = tau**0.5 * urun.snapshots[-1]
    y_from_u = xg * tau**-0.25
    core = np.abs(yg) <= 2.0
    w_interp = np.interp(yg[core], y_from_u, w_from_u)
    rel = np.max(np.abs(w_interp - wrun.snapshots[-1][core])) / np.max(np.abs(w_interp))
    assert rel < 1e-3


def test_profile_distance_series_smoke(params3):
    s0 = 20.0
    yg = uniform_grid(6.0, 1201)
    f, e = eval_profile(yg, 1.0, params3)
    amp = float(scale_factor(s0, 2)) ** -0.1
    w0 = f * (1.0 + e * amp * 0.2 * yg**2)
    run = solve_w_direct(GridFunction(yg, w0), (s0, s0 + 2.0), params3)
    series = profile_distance_series(run, params3)
    assert len(series.times) == len(run.times)
    assert np.all(np.isfinite(series.b_series))


def _seeded_profile(params, n_nodes, s0=20.0, seed=1):
    """The profile-seeded w-run input of the benchmark's `direct` workload."""
    nodes = uniform_grid(6.0, n_nodes)
    rng = np.random.default_rng(seed)
    rng.uniform(0.09, 0.11)  # the workload draws its blowup time first
    d = rng.uniform(-0.05, 0.05, size=4)
    amp = float(scale_factor(s0, params.k)) ** -0.1
    f, e = eval_profile(nodes, 1.0, params)
    return GridFunction(nodes, f * (1.0 + e * sum(di * amp * nodes**i for i, di in enumerate(d))))


def _step_divided(monkeypatch, div):
    """Every step limit of the w-run, divided by div."""
    for name in ("RK4_TRANSPORT_CFL", "RK4_DIFFUSION_CFL", "W_REACT_SAFETY"):
        monkeypatch.setattr(direct, name, getattr(direct, name) / div)


def test_w_run_time_step_error(params3, monkeypatch):
    w0 = _seeded_profile(params3, 1201)
    run = solve_w_direct(w0, (20.0, 22.0), params3)
    _step_divided(monkeypatch, 4)
    ref = solve_w_direct(w0, (20.0, 22.0), params3)
    assert ref.sup_times.size > 3 * run.sup_times.size
    assert run.times.size == ref.times.size == 41
    assert np.max(np.abs(run.times - ref.times)) < 1e-12
    assert np.max(np.abs(run.snapshots - ref.snapshots)) < 1e-9


def test_u_run_time_step_error(params3, monkeypatch):
    # the benchmark's u-input for seed 1: space-independent data on 1001
    # nodes of |x| <= 10, blowing up at T; against steps a quarter as long,
    # the blowup-time fit agrees within 1e-7 T
    rng = np.random.default_rng(1)
    T = float(rng.uniform(0.09, 0.11))
    nodes = uniform_grid(10.0, 1001)
    u0 = GridFunction(nodes, np.full_like(nodes, params3.kappa * T ** (-1.0 / (params3.p - 1.0))))
    run = solve_u_physical(u0, 1.0, params3)
    for name in ("RK4_DIFFUSION_CFL", "U_REACT_SAFETY"):
        monkeypatch.setattr(direct, name, getattr(direct, name) / 4)
    ref = solve_u_physical(u0, 1.0, params3)
    assert run.termination == ref.termination == "blowup-threshold"
    assert ref.sup_times.size > 3 * run.sup_times.size
    T_run, T_ref = (estimate_blowup_time(r, params3).T_hat for r in (run, ref))
    assert abs(T_run - T_ref) < 1e-7 * T


@pytest.mark.parametrize("s0", [20.0, 6.0])
def test_w_run_outflow_edges_stay_stable(params3, monkeypatch, s0):
    # s0 = 20 is compare's w-run; from s0 = 6 the run crosses s ~ 9, where
    # the transport and diffusion ceilings of 601 nodes meet
    nodes = uniform_grid(6.0, 601)
    f, _ = eval_profile(nodes, 1.0, params3)
    noisy = f + 1e-8 * np.random.default_rng(3).uniform(-1.0, 1.0, size=nodes.size)

    def growth():
        clean = solve_w_direct(GridFunction(nodes, f), (s0, s0 + 7.0), params3)
        run = solve_w_direct(GridFunction(nodes, noisy), (s0, s0 + 7.0), params3)
        assert run.termination == "horizon"
        return np.max(np.abs(run.snapshots[-1] - clean.snapshots[-1])) / 1e-8

    g = growth()
    _step_divided(monkeypatch, 3)
    assert g == pytest.approx(growth(), rel=0.01)


def test_w_run_takes_no_diffusion_limit_once_its_factor_overflows(params3):
    # e^{rs} overflows past rs ~ 709.8 (s ~ 1420 at k = 2), where the
    # diffusion I^{-2} = e^{-rs} is below every float: the run steps at its
    # other limits instead of raising OverflowError
    nodes = uniform_grid(6.0, 201)
    w0 = GridFunction(nodes, np.full_like(nodes, params3.kappa))
    run = solve_w_direct(w0, (1e5, 1e5 + 0.5), params3)
    assert run.termination == "horizon"
    assert np.max(np.abs(run.snapshots[-1] - params3.kappa)) < 1e-10


def test_w_run_reaches_its_snapshot_grid_where_s_has_coarse_ulps(params3):
    # at s ~ 1e5 a unit in the last place of s is 1.5e-11, above the grid's
    # 1e-12 tolerance: the steps still land on the snapshot grid within a
    # few ulps instead of creeping towards it in steps of 1e-15
    nodes = uniform_grid(6.0, 201)
    w0 = GridFunction(nodes, np.full_like(nodes, params3.kappa))
    run = solve_w_direct(w0, (1e5, 1e5 + 0.5), params3)
    assert len(run.sup_times) < 200
    assert len(run.times) == 11
    assert np.all(np.abs(run.times - (1e5 + 0.05 * np.arange(11))) <= 4.0 * math.ulp(1e5 + 0.5))


@pytest.mark.parametrize("frame", ["w", "u"])
def test_overflow_ends_a_run_as_instability(params3, frame):
    # 1e120 cubed overflows within the first step, while the reaction
    # limits' (p-1)-th power of the sup stays finite; at 1e200 that power
    # overflows too
    nodes = uniform_grid(6.0, 201)
    for amplitude in (1e120, 1e200):
        v0 = GridFunction(nodes, np.full_like(nodes, amplitude))
        with np.errstate(over="ignore", invalid="ignore"):
            if frame == "w":
                run = solve_w_direct(v0, (20.0, 21.0), params3)
            else:
                run = solve_u_physical(v0, 1.0, params3)
        assert run.termination == "instability"
        assert np.all(np.isfinite(run.sup_series))
        if frame == "u":
            with pytest.raises(ValueError):
                estimate_blowup_time(run, params3)


@pytest.mark.parametrize("frame", ["w", "u"])
def test_a_nan_in_the_data_ends_a_run_as_instability(params3, frame, monkeypatch):
    # np.max carries the NaN into the one sup that each step takes: the run
    # ends after its first step (four stages, four reaction terms), and the
    # only sup it records is that of its data
    calls = []
    power = direct.signed_power
    monkeypatch.setattr(direct, "signed_power", lambda x, p: calls.append(1) or power(x, p))
    nodes = uniform_grid(6.0, 201)
    values = np.full_like(nodes, params3.kappa)
    values[77] = np.nan
    v0 = GridFunction(nodes, values)
    run = solve_w_direct(v0, (20.0, 21.0), params3) if frame == "w" else solve_u_physical(
        v0, 1.0, params3)
    assert run.termination == "instability"
    assert len(calls) == 4
    assert run.sup_times.tolist() == [run.times[0]] and np.isnan(run.sup_series).all()
    assert run.snapshots.shape == (1, nodes.size)


def _w_operator(nodes, p, k):
    """The w-equation's linear part, laplacian_compact and -(y/2k) upwind_gradient - 1/(p-1)."""
    h, wind = nodes[1] - nodes[0], nodes / (2.0 * k)
    return [
        lambda f: laplacian_compact(f, h),
        lambda f: -wind[:, None] * upwind_gradient(f, h, wind) - f / (p - 1.0),
    ]


@pytest.mark.parametrize("n", [0, 1])
def test_a_grid_of_fewer_than_two_nodes_is_refused(params3, n):
    # with ValueError, as every too-small grid is, not an IndexError
    f = GridFunction(np.arange(float(n)), np.ones(n))
    for call in (
        lambda: f.spacing,
        lambda: solve_u_physical(f, 1.0, params3),
        lambda: solve_w_direct(f, (20.0, 21.0), params3),
    ):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            call()


@pytest.mark.parametrize("n", [6, 13, 61])
def test_the_probed_w_band_is_the_dense_band(n):
    # 6 nodes is fewer than the 7 probes
    nodes = uniform_grid(6.0, n)
    for p, k in [(3.0, 2), (2.5, 2), (3.0, 3)]:
        cols, weights = direct._w_band.__wrapped__(nodes.tobytes(), make_params(p, k))
        dense = [K(np.eye(n)) for K in _w_operator(nodes, p, k)]
        # one window per row, over the nonzeros of both matrices
        dense_cols = band(np.abs(dense[0]) + np.abs(dense[1]))[0]
        assert cols.tobytes() == dense_cols.tobytes()
        assert weights.tobytes() == np.stack([A[np.arange(n), cols] for A in dense]).tobytes()
        assert cols.shape == (4, n) and weights.shape == (2, 4, n)


@pytest.mark.parametrize("n", [6, 7, 13, 1201, 2401])
def test_the_w_band_reproduces_the_kernels(n):
    nodes = uniform_grid(6.0, n)
    v = np.random.default_rng(n).standard_normal(n)
    for p, k in [(3.0, 2), (2.5, 2), (3.0, 3)]:
        cols, weights = direct._w_band(nodes.tobytes(), make_params(p, k))
        got = np.einsum("ijn,jn->in", weights, v[cols])
        for row, K in zip(got, _w_operator(nodes, p, k)):
            ref = K(v[:, None])[:, 0]
            assert np.max(np.abs(row - ref)) <= 1e-15 * np.max(np.abs(ref))
        for arr in (cols, weights):
            assert arr.flags.c_contiguous and not arr.flags.writeable


def test_the_w_band_probes_each_kernel_with_seven_columns(monkeypatch):
    # 2 reach + 1 comb columns, reach 3 for the Laplacian's one-sided edge rows
    seen = []
    for name in ("laplacian_compact", "upwind_gradient"):
        kernel = getattr(grid, name)
        monkeypatch.setattr(
            direct, name, lambda f, *a, _k=kernel, _n=name: seen.append((_n, f.shape)) or _k(f, *a))
    nodes = uniform_grid(6.0, 2401)
    direct._w_band.__wrapped__(nodes.tobytes(), make_params(3.0, 2))
    assert sorted(seen) == [("laplacian_compact", (2401, 7)), ("upwind_gradient", (2401, 7))]


def test_the_w_band_cache_is_keyed_on_the_grid(params3):
    # a grid of the same size and spacing elsewhere on the line has another
    # wind, so another band; an equal model shares the entry
    centred, shifted = uniform_grid(6.0, 201), uniform_grid(6.0, 201) + 6.0
    a = direct._w_band(centred.tobytes(), params3)
    assert direct._w_band(centred.tobytes(), make_params(3.0, 2)) is a
    b = direct._w_band(shifted.tobytes(), params3)
    assert b is not a and not np.array_equal(a[1], b[1])
    assert direct._w_band.cache_info().maxsize <= 4
