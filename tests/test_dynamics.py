import functools
import math
import warnings

import numpy as np
import pytest

from blowlab.dynamics import (
    SEM_FLOOR,
    SEM_REL_FLOOR,
    FlowOptions,
    SimState,
    a_priori_diagnostics,
    init_state,
    inner_nodes,
    membership,
    mode_ode_rhs,
    run,
    step,
)
from blowlab import dynamics
from blowlab.config import ConfigError, RunConfig
from blowlab.grid import (
    GridFunction, band, derivative, laplacian_compact, uniform_grid, upwind_gradient,
)
from blowlab.hermite import SpectralDecomposition, eval_scaled_hermite, hermite_series
from blowlab.operators import drift_values, modulation_values, nonlinear_values, residual_values
from blowlab.params import alpha_consts, eval_profile, make_params, node_powers, scale_factor
from blowlab.hermite import _projector
from blowlab.projection import (
    Z_MAX, _legendre_rule, projected_sources, remainder_source, scale_tables,
    z_frame,
)

DELTA, B0, S0 = 0.1, 1.0, 20.0


@pytest.fixture(scope="module")
def opts():
    return FlowOptions()


@pytest.fixture(scope="module")
def opts_linear():
    return FlowOptions(linear_only=True)


def test_init_state_zero_seed(params3, opts):
    st = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    assert np.all(st.dec.modes == 0.0)
    assert np.all(st.dec.remainder.values == 0.0)
    # the inner remainder is an array of zeros, whether given or not
    assert np.array_equal(st.inner, np.zeros(inner_nodes().size))
    assert st.b == B0
    assert membership(st, DELTA, B0, params3, opts).inside


def test_init_state_unit_seed(params3, opts):
    st = init_state(np.array([1.0, 0, 0, 0]), DELTA, B0, S0, params3, opts)
    amp = float(scale_factor(S0, 2)) ** -DELTA
    assert st.dec.modes[0] == pytest.approx(amp, rel=1e-15)
    assert np.max(np.abs(st.dec.modes[1:])) == 0.0


def test_init_state_neutral_mode_always_zero(params3, opts):
    rng = np.random.default_rng(20)
    for _ in range(5):
        d = rng.uniform(-2, 2, size=4)
        st = init_state(d, DELTA, B0, S0, params3, opts)
        assert st.dec.modes[4] == 0.0
        assert st.dec.modes[5] == 0.0
        assert np.all(st.dec.remainder.values == 0.0)


def test_init_state_rejects_out_of_box(params3, opts):
    for bad in (2.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"\|d_i\| <="):
            init_state(np.array([bad, 0, 0, 0]), DELTA, B0, S0, params3, opts)
    with pytest.raises(ValueError):
        init_state(np.zeros(3), DELTA, B0, S0, params3, opts)


def test_state_scale_consistency(params3, opts):
    st = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    with pytest.raises(ValueError):
        SimState(s=S0 + 1.0, b=B0, dec=st.dec)


def _loaded_linear_state(params, opts, modes):
    st = init_state(np.zeros(4), DELTA, B0, S0, params, opts)
    return SimState(s=st.s, b=st.b, dec=SpectralDecomposition(st.s, np.asarray(modes, float), st.dec.remainder))


def test_linear_mode_multipliers_single_step(params3, opts_linear):
    modes0 = np.array([0.3, -0.2, 0.15, 0.1, 0.05, -0.08])
    st = _loaded_linear_state(params3, opts_linear, modes0)
    ds = 0.01
    out = step(st, ds, params3, opts_linear)
    lam = 1.0 - np.arange(6) / 4.0
    assert np.max(np.abs(out.dec.modes / (modes0 * np.exp(lam * ds)) - 1.0)) < 1e-8


def test_linear_mode_multipliers_unit_time(params3, opts_linear):
    modes0 = np.array([0.3, -0.2, 0.15, 0.1, 0.05, -0.08])
    st = _loaded_linear_state(params3, opts_linear, modes0)
    cur = st
    for _ in range(100):
        cur = step(cur, 0.01, params3, opts_linear)
    lam = 1.0 - np.arange(6) / 4.0
    pred = modes0 * np.exp(lam * (cur.s - st.s))
    assert np.max(np.abs(cur.dec.modes / pred - 1.0)) < 1e-7
    assert np.max(np.abs(cur.dec.remainder.values)) == 0.0


def test_step_zero_ds_is_identity(params3, opts):
    st = init_state(np.array([0.1, 0.05, 0, 0]), DELTA, B0, S0, params3, opts)
    out = step(st, 0.0, params3, opts)
    assert out is st


def test_step_rejects_bad_ds_and_nonfinite(params3, opts):
    st = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    for ds in (0.2, -0.01, float("nan")):
        with pytest.raises(ValueError, match="ds must lie"):
            step(st, ds, params3, opts)
    bad = SimState(
        s=st.s, b=float("nan"), dec=st.dec
    )
    with pytest.raises(ValueError):
        step(bad, 0.01, params3, opts)


def test_step_keeps_neutral_mode_zero(params3, opts):
    st = init_state(np.array([0.3, -0.2, 0.25, 0.1]), DELTA, B0, S0, params3, opts)
    for _ in range(20):
        st = step(st, 0.01, params3, opts)
    assert abs(st.dec.modes[4]) < 1e-9


def test_membership_reference_cases(params3, opts):
    st = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    rep = membership(st, DELTA, B0, params3, opts)
    assert rep.inside and not rep.violations

    amp = float(scale_factor(S0, 2)) ** -DELTA
    modes = np.zeros(6)
    modes[1] = 1.5 * amp
    bad = SimState(s=S0, b=B0, dec=SpectralDecomposition(S0, modes, st.dec.remainder))
    rep1 = membership(bad, DELTA, B0, params3, opts)
    assert not rep1.inside
    assert rep1.violations[0][0] == "mode_1"

    highb = SimState(s=S0, b=3.0 * B0, dec=st.dec)
    rep2 = membership(highb, DELTA, B0, params3, opts)
    assert not rep2.inside
    assert rep2.violations[0][0] == "b_high"


def test_membership_counts_a_nan_margin_as_violated(params3, opts):
    st = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    modes = np.zeros(6)
    modes[0] = np.nan
    nan_mode = SimState(s=S0, b=B0, dec=SpectralDecomposition(S0, modes, st.dec.remainder))
    nan_b = SimState(s=S0, b=np.nan, dec=st.dec)
    for bad, names in ((nan_mode, ["mode_0"]), (nan_b, ["b_low", "b_high"])):
        rep = membership(bad, DELTA, B0, params3, opts)
        assert not rep.inside
        assert [name for name, _ in rep.violations] == names
        assert all(math.isnan(m) for _, m in rep.violations)
        assert math.isnan(rep.worst_margin)


def test_membership_reports_the_recorded_seminorm(params3, opts):
    # run records the seminorm that membership measured, computed once a step
    from blowlab.hermite import remainder_seminorm

    st = init_state(np.array([0.1, -0.2, 0.15, 0.05]), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 0.05, DELTA, B0, params3, ds=0.01, opts=opts)
    final = rec.final_state
    rep = membership(final, DELTA, B0, params3, opts)
    want = remainder_seminorm(
        final.dec.remainder, final.s, params3,
        floor=SEM_FLOOR, rel_floor=SEM_REL_FLOOR,
    )
    assert want > 0.0
    assert rep.qminus_seminorm == want
    assert rec.samples[-1].qminus_seminorm == want
    assert rep.margins["qminus"] == float(scale_factor(final.s, 2)) ** -DELTA - want


def test_membership_monotone_in_delta(params3, opts):
    amp = float(scale_factor(S0, 2)) ** -DELTA
    modes = np.zeros(6)
    modes[0] = 0.8 * amp
    modes[3] = -0.6 * amp
    st0 = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    st = SimState(s=S0, b=B0, dec=SpectralDecomposition(S0, modes, st0.dec.remainder))
    assert membership(st, DELTA, B0, params3, opts).inside
    for smaller in (0.08, 0.05, 0.02):
        assert membership(st, smaller, B0, params3, opts).inside


def _membership_by_mode(state, delta, b0, params):
    """membership in its per-mode loop form, the reference for its one-list form."""
    from blowlab.hermite import remainder_seminorm

    I = float(scale_factor(state.s, params.k))
    mode_bound = I ** (-delta)
    neutral_bound = I ** (-2.0 * delta)
    margins = {}
    for m in range(params.n_modes):
        bound = neutral_bound if m == 2 * params.k else mode_bound
        margins[f"mode_{m}"] = bound - abs(float(state.dec.modes[m]))
    sem = remainder_seminorm(
        state.dec.remainder, state.s, params, floor=SEM_FLOOR, rel_floor=SEM_REL_FLOOR,
    )
    margins["qminus"] = mode_bound - sem
    margins["b_low"] = state.b - 0.5 * b0
    margins["b_high"] = 2.0 * b0 - state.b
    violations = [(name, m) for name, m in margins.items() if m < 0.0]
    return violations, min(margins.values()), margins, sem


def test_membership_is_bitwise_its_per_mode_form(params3, opts):
    # final and exit states of an ensemble like the benchmark's: the centre,
    # narrow seeds and wide seeds, several of which leave within half a unit
    rng = np.random.default_rng(7)
    seeds = [np.zeros(4), *rng.uniform(-0.25, 0.25, (2, 4)), *rng.uniform(-0.95, 0.95, (8, 4))]
    finals = []
    for d in seeds:
        st = init_state(d, DELTA, B0, S0, params3, opts)
        finals.append(run(st, S0 + 0.5, DELTA, B0, params3, ds=0.01, opts=opts).final_state)
    reports = [membership(st, DELTA, B0, params3, opts) for st in finals]
    assert 0 < sum(not rep.inside for rep in reports) < len(reports)
    for st, rep in zip(finals, reports):
        violations, worst, margins, sem = _membership_by_mode(st, DELTA, B0, params3)
        assert [(n, m.hex()) for n, m in rep.margins.items()] == [
            (n, m.hex()) for n, m in margins.items()]
        assert all(type(m) is float for m in rep.margins.values())
        assert [(n, m.hex()) for n, m in rep.violations] == [(n, m.hex()) for n, m in violations]
        assert rep.worst_margin.hex() == worst.hex()
        assert rep.qminus_seminorm.hex() == sem.hex()
        assert rep.inside == (not violations)


def test_run_immediate_exit_through_loaded_mode(params3, opts):
    # seed saturating coordinate 1 leaves through mode 1 with positive sign
    st = init_state(np.array([0.0, 1.9, 0.0, 0.0]), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 2.0, DELTA, B0, params3, ds=0.01, opts=opts)
    assert rec.exit is not None
    assert rec.exit.mode == 1
    assert rec.exit.omega == 1
    assert rec.exit.s_star == S0


def test_run_exit_through_unstable_mode(params3, opts):
    # in-set seed with a dominant coordinate grows out through that mode
    st = init_state(np.array([0.0, 0.9, 0.0, 0.0]), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 6.0, DELTA, B0, params3, ds=0.01, opts=opts)
    assert rec.exit is not None
    assert rec.exit.mode == 1
    assert rec.exit.omega == 1
    assert rec.exit.s_star > S0
    assert rec.exit.transversal
    assert rec.exit.mode in range(4)


def test_run_survival_has_no_exit(params3, opts):
    st = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 1.0, DELTA, B0, params3, ds=0.01, opts=opts)
    assert rec.exit is None
    assert rec.samples[-1].s == pytest.approx(S0 + 1.0)
    assert rec.final_state is not None


def test_run_neutral_mode_zero_along_trajectory(params3, opts):
    st = init_state(np.array([0.2, -0.4, 0.3, 0.2]), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 3.0, DELTA, B0, params3, ds=0.01, opts=opts)
    modes = rec.arrays()["modes"]
    assert np.max(np.abs(modes[:, 4])) < 1e-9


def test_run_b_stays_in_window_while_inside(params3, opts):
    st = init_state(np.array([0.3, 0.2, -0.2, 0.1]), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 10.0, DELTA, B0, params3, ds=0.01, opts=opts)
    arr = rec.arrays()
    inside = arr["inside"]
    b_in = arr["b"][inside]
    assert np.all(b_in >= 0.5 * B0) and np.all(b_in <= 2.0 * B0)
    assert np.all(b_in >= 0.75 * B0) and np.all(b_in <= 1.25 * B0)


def test_mode_ode_rhs_linear(params3, opts_linear):
    modes0 = np.array([0.3, -0.2, 0.15, 0.1, 0.05, -0.08])
    st = _loaded_linear_state(params3, opts_linear, modes0)
    lam = 1.0 - np.arange(6) / 4.0
    assert np.max(np.abs(mode_ode_rhs(st, params3, opts_linear) - lam * modes0)) < 1e-12


def test_apriori_pure_linear_residual_vanishes(params3, opts_linear):
    modes0 = np.array([0.1, -0.05, 0.04, 0.02, 0.0, -0.01])
    st = _loaded_linear_state(params3, opts_linear, modes0)
    rec = run(st, S0 + 2.0, DELTA, B0, params3, ds=0.01, opts=opts_linear)
    rep = a_priori_diagnostics(rec, DELTA, params3)
    assert rep.C1 < 1e-4  # centered-difference truncation only
    assert rep.C2 == 0.0


def test_apriori_rejects_short_trajectories(params3, opts):
    st = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 0.05, DELTA, B0, params3, ds=0.01, opts=opts)
    with pytest.raises(ValueError):
        a_priori_diagnostics(rec, DELTA, params3)


def test_apriori_full_dynamics_baseline(params3, opts):
    """Regression baseline from the first executed run of the full flow."""
    st = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 5.0, DELTA, B0, params3, ds=0.01, opts=opts)
    rep = a_priori_diagnostics(rec, DELTA, params3)
    assert np.isfinite(rep.C1) and np.isfinite(rep.C2)
    # frozen after the first execution of this configuration
    assert rep.C1 == pytest.approx(7.371e-4, rel=0.05)
    assert rep.C2 == pytest.approx(3.111e-5, rel=0.05)
    assert rep.C3 == pytest.approx(3.419e-4, rel=0.05)
    assert rep.b_min > 0.99 and rep.b_max <= 1.0 + 1e-12


def test_apriori_windowed_refit_stable(params3, opts):
    st = init_state(np.array([0.05, -0.04, 0.03, 0.02]), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 10.0, DELTA, B0, params3, ds=0.01, opts=opts)
    rep5 = a_priori_diagnostics(rec, DELTA, params3, s_window_end=S0 + 5.0)
    rep10 = a_priori_diagnostics(rec, DELTA, params3, s_window_end=S0 + 10.0)
    assert rep10.C1 <= 2.0 * rep5.C1 + 1e-12


def test_run_records_modulation_breakdown_as_exit(params3, opts):
    # q_0 is driven towards -(p-1)/p, where 1 + p P_4(y^4 e_b q) vanishes; the
    # b' solve breaks down at s ~ 20.2 while the state is still in the set
    st = init_state(np.array([-0.87, 0.55, -0.77, -0.32]), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 8.0, DELTA, B0, params3, ds=0.01, opts=opts)
    assert rec.exit is not None
    assert rec.exit.bound == "modulation"
    assert rec.exit.mode is None
    assert rec.exit.omega == -1
    assert rec.exit.dqds is None and rec.exit.transversal is None
    assert "denominator" in rec.exit.reason
    assert rec.exit.s_star == pytest.approx(S0 + 0.2, abs=0.03)
    # the record ends at the last completed step, which is still inside
    assert rec.samples[-1].s == rec.exit.s_star
    assert rec.samples[-1].inside
    assert rec.final_state.s == rec.exit.s_star
    assert rec.final_state.dec.modes[0] < 0.0


def test_inner_grid_resolves_weight_at_late_scale_times():
    # at s = 45 the fixed y-grid held 0.1 cells across |z| <= 6; the inner
    # grid holds the same count at every s, at least the 69 that the y-grid
    # held at s = 20
    I = float(scale_factor(45.0, 2))
    y = inner_nodes() / I
    cells = np.count_nonzero(np.abs(y) <= 6.0 / I + 1e-12 / I) - 1
    assert cells >= 69
    assert np.exp(-(Z_MAX**2) / 4.0) < 1e-27


def test_inner_remainder_stays_weight_scaled_late(params3, opts):
    # a survivor-like seed run into the late regime: the inner remainder keeps
    # the size I^{-M} of the weight-scale remainder instead of roundoff noise
    st = init_state(np.zeros(4), DELTA, B0, 38.0, params3, opts)
    rec = run(st, 39.0, DELTA, B0, params3, ds=0.01, opts=opts)
    assert rec.exit is None
    I = float(scale_factor(39.0, 2))
    z = inner_nodes()
    scaled = np.abs(rec.final_state.inner) / (1.0 + np.abs(z)) ** params3.M
    # roundoff of the O(1e-2) sources would leave ~1e-18 here
    assert 0.0 < np.max(scaled) < I**-params3.M


# every cache a flow step reads that depends on s, on the outer grid, on the
# step size or on the model
FLOW_CACHES = (
    scale_tables, z_frame, alpha_consts, dynamics._flow, dynamics._outer_step,
    dynamics._half_exp_of, _legendre_rule, _projector,
)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("s", [20.0, 20.005, 28.005, 45.0])
def test_outer_tables_equal_the_routines_they_replace(params3, opts, s):
    nodes = opts.nodes()
    n = params3.n_modes
    flow = dynamics._flow(opts, params3)
    assert _same(flow.nodes, nodes)
    # a basis series on the outer grid is its power series in y times the
    # monomials: the stage's q_+ and dq_+/dy and the step tail's leak series
    tab = scale_tables(s, params3)
    H = np.array([eval_scaled_hermite(m, nodes, s, 2) for m in range(n)])
    modes = np.array([0.3, -0.2, 0.25, 0.1, 0.0, -0.15])
    qc = modes @ tab.conv[:, :n]
    dqc = np.append(qc[1:] * np.arange(1, n), 0.0)
    for got, want in (
        (qc @ flow.mono, hermite_series(modes, nodes, s, 2)),
        (qc @ flow.mono, modes @ H),
        (dqc @ flow.mono, (modes[1:] * np.arange(1, n)) @ H[:-1]),
    ):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    leak = np.array([3e-9, -1e-9, 2e-10, -5e-11])
    want = hermite_series(leak, nodes, s, 2)
    got = (leak @ tab.conv[:4, :4]) @ flow.mono[:4]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    b = 1.3
    assert all(_same(x, y) for x, y in zip(flow.pw, node_powers(nodes, 2)))
    assert _same(1.0 / (params3.p - 1.0 + b * flow.pw.y2k), eval_profile(nodes, b, params3)[1])
    assert _same(flow.yM, np.abs(nodes) ** params3.M)
    assert _same(flow.lam, 1.0 - np.arange(n) / 4.0)
    want = np.array([nodes**j for j in range(n)])
    assert np.all(np.abs(flow.mono - want) <= 1e-15 * np.abs(want))
    # one cached copy serves every caller, so none may write to it
    assert not any(
        a.flags.writeable for a in (
            flow.nodes, *flow.pw, flow.yM, flow.lam, flow.mono,
            *dynamics._outer_step(flow.nodes.size, 2),
        )
    )
    assert dynamics._flow(opts, params3) is flow
    # the key is the options: another node count gets its own grid
    other = dynamics._flow(FlowOptions(n_nodes=201), params3)
    assert other is not flow and _same(other.nodes, FlowOptions(n_nodes=201).nodes())


def test_trajectory_does_not_depend_on_cache_history(params3):
    seed = np.array([0.2, -0.1, 0.15, 0.05])

    def traj(opts, s0=S0):
        st = init_state(seed, DELTA, B0, s0, params3, opts)
        return run(st, s0 + 0.06, DELTA, B0, params3, ds=0.01, opts=opts)

    for cache in FLOW_CACHES:
        cache.cache_clear()
    cold = traj(FlowOptions())
    # other scale times, outer grids and a linear-only flow
    traj(FlowOptions(), s0=S0 + 0.005)
    traj(FlowOptions(n_nodes=201))
    traj(FlowOptions(linear_only=True, n_nodes=129))
    warm = traj(FlowOptions())
    for key, arr in cold.arrays().items():
        assert _same(arr, warm.arrays()[key]), key
    assert _same(cold.final_state.inner, warm.final_state.inner)
    assert _same(cold.final_state.dec.remainder.values, warm.final_state.dec.remainder.values)


def test_flow_caches_stay_bounded(params3, opts):
    st = init_state(np.array([0.1, 0.1, -0.1, 0.05]), DELTA, B0, S0, params3, opts)
    run(st, S0 + 0.2, DELTA, B0, params3, ds=0.01, opts=opts)  # 40 scale times
    for cache in FLOW_CACHES:
        info = cache.cache_info()
        assert info.maxsize is not None and info.maxsize <= 21
        assert info.currsize <= info.maxsize
    # e^{hL/2} holds every step size of a run at ds = 0.01, the quarters up
    # to MAX_DS and a last step cut short at s_max
    assert dynamics._half_exp_of.cache_info().maxsize >= round(dynamics.MAX_DS / 0.0025) + 1


def test_membership_and_a_zero_remainder_build_no_step_table(params3, opts, quad96):
    # the benchmark's set-ups call membership, and projected_sources on a
    # zero remainder, each in a fresh copy of the modules that keeps its own
    # caches: neither call may build the large tables only a step reads
    for cache in FLOW_CACHES:
        cache.cache_clear()
    st = init_state(np.array([0.1, 0.0, 0.0, 0.0]), DELTA, B0, S0, params3, opts)
    membership(st, DELTA, B0, params3, opts)
    projected_sources(st.dec.modes, st.dec.remainder, B0, S0, params3, quad96)
    for cache in (z_frame, dynamics._outer_step, dynamics._half_exp_of):
        assert cache.cache_info().currsize == 0, cache.__name__
    # the step tables have one owner each: a step, and then a run, build
    # one z-frame and one outer step table between them
    st = step(st, 0.01, params3, opts)
    run(st, S0 + 0.1, DELTA, B0, params3, ds=0.01, opts=opts)
    for cache in (z_frame, dynamics._outer_step):
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (1, 1), cache.__name__


@pytest.mark.parametrize("n, k", [(6, 2), (7, 2), (13, 2), (129, 2), (201, 2), (257, 2), (385, 3)])
def test_the_outer_band_is_the_dense_band(n, k):
    # the stage's transport and derivative, probed without an n x n array:
    # grid.band's windows over both dense matrices' joint nonzeros
    nodes = uniform_grid(dynamics.Y_MAX, n)
    h, wind, eye = nodes[1] - nodes[0], nodes / (2.0 * k), np.eye(n)
    dense = [eye - wind[:, None] * upwind_gradient(eye, h, wind), derivative(eye, h)]
    cols, weights = dynamics._outer_step(n, k)[:2]
    assert cols.tobytes() == band(np.abs(dense[0]) + np.abs(dense[1]))[0].tobytes()
    assert weights.tobytes() == np.stack([A[np.arange(n), cols] for A in dense]).tobytes()
    assert cols.shape == (5, n) and weights.shape == (2, 5, n)
    assert weights.flags.c_contiguous and not weights.flags.writeable


@pytest.mark.parametrize("k, largest", [(2, 257), (3, 385)])
def test_the_flow_refuses_a_grid_whose_transport_ceiling_falls_below_the_step(k, largest):
    # the outer transport's RK4 ceiling 1.6 h 2k / Y_MAX meets MAX_DS exactly
    # on 257 nodes at k = 2 and on 385 at k = 3; one node more and run, step
    # and membership refuse the grid, naming the limit
    params = make_params(3.0, k)
    for n_nodes in (largest, largest + 1):
        opts = FlowOptions(n_nodes=n_nodes)
        st = init_state(np.zeros(2 * k), DELTA, B0, S0, params, opts)
        calls = (
            lambda: run(st, S0 + 0.01, DELTA, B0, params, ds=0.01, opts=opts),
            lambda: step(st, 0.01, params, opts),
            lambda: membership(st, DELTA, B0, params, opts),
        )
        for call in calls:
            if n_nodes == largest:
                call()
            else:
                with pytest.raises(ValueError, match=rf"MAX_DS = 0\.05.*at most {largest} nodes"):
                    call()


def test_run_and_step_refuse_a_scale_time_where_the_projection_scale_overflows(params3, opts):
    # I(s)^5 = e^{5s/4} overflows past s = 567.8 (p = 3, k = 2): run and step
    # refuse to reach it, where every step would end non-finite
    st = init_state(np.zeros(4), DELTA, B0, 567.78, params3, opts)
    with pytest.raises(ValueError, match=r"past s = 567\.8.*I\(s\)\^5 overflows"):
        run(st, 567.9, DELTA, B0, params3, ds=0.01, opts=opts)
    with pytest.raises(ValueError, match=r"past s = 567\.8"):
        step(st, 0.05, params3, opts)
    assert np.isfinite(step(st, 0.01, params3, opts).dec.modes).all()


def test_a_run_below_the_projection_scale_limit_raises_no_warning(params3, opts):
    # from s0 = 560 a run is finite and warns of no overflow
    st = init_state(np.array([0.1, -0.1, 0.05, 0.02]), DELTA, B0, 560.0, params3, opts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run(st, 560.5, DELTA, B0, params3, ds=0.01, opts=opts)
    assert len(rec.samples) > 1 and (rec.exit is None or rec.exit.bound != "nonfinite")


def test_run_and_step_reject_a_state_off_the_options_grid(params3, opts):
    # the outer grid is keyed on the options, so a state must sit on their nodes
    st = init_state(np.array([0.1, 0.0, 0.0, 0.0]), DELTA, B0, S0, params3, FlowOptions(n_nodes=129))
    with pytest.raises(ValueError, match="outer nodes"):
        run(st, S0 + 0.02, DELTA, B0, params3, ds=0.01, opts=opts)
    with pytest.raises(ValueError, match="outer nodes"):
        step(st, 0.01, params3, opts)


def test_variant_stubs_admit_only_the_derived_form(params3, opts, quad96):
    # benchmarks/workloads.py::per_call_medians is the only reader of
    # FlowOptions.variant and of bprime's variant argument: it calls
    # proj.bprime(params, opts.variant). Both go once it no longer does.
    with pytest.raises(TypeError):
        FlowOptions(variant="paper")
    assert FlowOptions().variant == "derived"
    # the quadrature order is a constant of the flow, not an option
    with pytest.raises(TypeError):
        FlowOptions(quad_order=64)
    with pytest.raises(ConfigError, match="unknown config keys: quad_order"):
        RunConfig.from_dict({"quad_order": 96})
    st = init_state(np.array([0.1, 0.0, 0.0, 0.0]), DELTA, B0, S0, params3, opts)
    proj = projected_sources(st.dec.modes, st.dec.remainder, B0, S0, params3, quad96)
    assert proj.bprime(params3, "derived") == proj.bprime(params3)
    with pytest.raises(ValueError):
        proj.bprime(params3, "paper")


# -- the Lawson step and its dense output -------------------------------------

def _frame():
    return z_frame(make_params(3.0, 2))


@pytest.mark.parametrize("h", [0.005, 0.01, 0.02, 0.03])
def test_half_exp_matches_scipy_expm(h):
    from scipy.linalg import expm

    frame = _frame()
    flow = dynamics._flow(FlowOptions(), make_params(3.0, 2))
    E = dynamics._half_exp(h, flow)
    want_half, want = expm(0.5 * h * frame.L), expm(h * frame.L)
    assert np.linalg.norm(E - want_half) <= 1e-12 * np.linalg.norm(want_half)
    assert np.linalg.norm(E @ E - want) <= 1e-12 * np.linalg.norm(want)
    # a step size off in its last bits reads the same entry
    assert dynamics._half_exp(h * (1.0 + 4e-16), flow) is E
    assert not E.flags.writeable


def test_lawson_step_without_sources_is_the_exponential(params3, opts, monkeypatch):
    from scipy.linalg import expm

    def no_sources(x, s, flow):
        return np.zeros_like(x)

    monkeypatch.setattr(dynamics, "_stage", no_sources)
    st = init_state(np.array([0.1, -0.05, 0.08, 0.02]), DELTA, B0, S0, params3, opts)
    u0 = np.exp(-(inner_nodes() ** 2) / 8.0) * np.cos(inner_nodes())
    y = opts.nodes()
    v0 = np.cos(40.0 * y) + np.sin(300.0 * y)  # nonzero at both edges
    flow = dynamics._flow(opts, params3)
    x0 = dynamics._values(st, flow)
    x0[flow.outer], x0[flow.inner] = v0, u0
    h = 0.03
    k1 = no_sources(x0, S0, flow)
    x1, _ = dynamics._lawson_step(x0, k1, S0, S0 + h, flow)
    want = expm(h * _frame().L) @ u0
    assert np.max(np.abs(x1[flow.inner] - want)) <= 1e-12 * np.max(np.abs(want))
    # the outer remainder diffuses for c = int I^{-2} over the step
    c = (float(scale_factor(S0, 2)) ** -2 - float(scale_factor(S0 + h, 2)) ** -2) / 0.5
    want = expm(c * _edge_free_laplacian(flow)) @ v0
    assert np.max(np.abs(x1[flow.outer] - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(x1[flow.modes], x0[flow.modes]) and x1[-1] == x0[-1]


def test_lawson_step_is_classical_rk4_where_the_propagator_is_the_identity(
    params3, opts_linear,
):
    # the linear-only flow: the modes obey q' = lam q, so one step of h
    # multiplies each by RK4's stability polynomial R(h lam), and b' = 0
    st = init_state(np.array([0.3, -0.2, 0.15, 0.1]), DELTA, B0, S0, params3, opts_linear)
    flow = dynamics._flow(opts_linear, params3)
    x0 = dynamics._values(st, flow)
    assert np.count_nonzero(x0[flow.modes]) == 4
    s1 = S0 + 0.0375
    k1 = dynamics._stage(x0, S0, flow)
    x1, _ = dynamics._lawson_step(x0, k1, S0, s1, flow)
    z = (s1 - S0) * flow.lam  # the step the routine takes, 0.0375 up to the roundoff of s1
    want = (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0) * x0[flow.modes]
    assert np.all(np.abs(x1[flow.modes] - want) <= 1e-15 * np.abs(want))
    assert x1[-1] == x0[-1] == B0


@functools.cache
def _recorded_states(p: float, k: int) -> list:
    """The centre seed's state vectors at s = 20.1, 24 and 28, each with a nonzero inner remainder."""
    params, opts = make_params(p, k), FlowOptions()
    flow = dynamics._flow(opts, params)
    st = init_state(np.zeros(2 * k), DELTA, B0, S0, params, opts)
    states = []
    for s_end in (S0 + 0.1, 24.0, 28.0):
        st = run(st, s_end, DELTA, B0, params, ds=0.01, opts=opts).final_state
        states.append((st.s, dynamics._values(st, flow)))
    return states


def _stage_from_the_routes(x, s, flow):
    """A stage's dx from the projections on a GridFunction, the grid kernels and the pointwise sources.

    Also returns, in x's layout, the size of the terms summed into each entry.
    The outer part is independent of _stage. The projections, b' and the
    inner part are not: a GridFunction on the inner nodes is read through
    the z-frame, as _stage's values array is, and the pointwise S - Pi S at
    the inner nodes would bury the inner source under the roundoff of S.
    Those are tied to independent routes by
    test_operators.py::test_remainder_source_matches_direct_difference (the
    inner source against the pointwise S - Pi S where that is exact) and by
    test_solve_bprime_agrees_with_projected_route (b' against the pointwise
    operators.solve_bprime).
    """
    params, k, n = flow.params, flow.params.k, flow.params.n_modes
    modes, rem, inner, b = x[flow.modes], x[flow.outer], x[flow.inner], float(x[-1])
    I = float(scale_factor(s, k))
    lam = 1.0 - np.arange(n) / (2.0 * k)
    dx, size = np.zeros_like(x), np.zeros_like(x)
    wind = flow.nodes / (2.0 * k)
    Ls = rem - wind * upwind_gradient(rem, flow.h, wind)
    dx[flow.modes], dx[flow.outer] = lam * modes, Ls
    size[flow.modes], size[flow.outer] = np.abs(lam * modes), np.abs(Ls)
    if flow.linear_only:
        return dx, size
    grid = GridFunction(inner_nodes() / I, inner)
    proj = projected_sources(modes, grid, b, s, params, flow.quad)
    bp = proj.bprime(params)
    src = proj.PN + proj.PD + proj.PR + bp * proj.PM
    dx[flow.modes] += src
    dx[2 * k] = 0.0
    y = flow.nodes
    q = hermite_series(modes, y, s, k) + rem
    dq = hermite_series(modes[1:] * np.arange(1, n), y, s, k) + derivative(rem, flow.h)
    e = eval_profile(y, b, params)[1]
    pw = node_powers(y, k)
    terms = (
        nonlinear_values(q, e, params.p),
        drift_values(dq, pw, e, b, I**-2, params),
        residual_values(q, pw, e, b, I**-2, params),
        bp * modulation_values(q, pw, e, params),
        -hermite_series(src, y, s, k),
    )
    dx[flow.outer] += sum(terms)
    dx[flow.inner] = remainder_source(proj, bp, modes, grid, b, s, params)
    dx[-1] = bp
    size[flow.modes] += np.abs(src)
    # N = (1 + u)^p - 1 - p u at u = e q cancels down from the size of p u
    size[flow.outer] += sum(np.abs(t) for t in terms) + np.abs(params.p * e * q)
    size[flow.inner], size[-1] = np.abs(dx[flow.inner]), abs(bp)
    return dx, size


# the recorded states of the stage oracle: three at the default model, whose
# ids carry no model, and three at each other (p, k); p = 2.5 takes eight
# Gauss-Legendre nodes and a jet whose binomial series does not terminate,
# and at k = 3 the transport ceiling, 0.075, lies above MAX_DS
STAGE_CASES = [((p, k), i) for p, k in ((3.0, 2), (2.5, 2), (3.0, 3)) for i in range(3)]


@pytest.mark.parametrize("linear_only", [False, True])
@pytest.mark.parametrize(
    "model, i", STAGE_CASES,
    ids=[str(i) if m == (3.0, 2) else f"p{m[0]}-k{m[1]}-{i}" for m, i in STAGE_CASES],
)
def test_stage_equals_the_independent_routes(model, i, linear_only):
    # each part of dx within 1e-12 of the largest term summed into it: on
    # the outer grid the sources cancel down from O(q^2) and from p e q, so
    # the two evaluators of q_+ differ there by its roundoff
    s, x = _recorded_states(*model)[i]
    flow = dynamics._flow(FlowOptions(linear_only=linear_only), make_params(*model))
    assert np.any(x[flow.inner] != 0.0)
    got = dynamics._stage(x, s, flow)
    want, size = _stage_from_the_routes(x, s, flow)
    for part in (flow.modes, flow.outer, flow.inner, slice(-1, None)):
        assert np.max(np.abs(got[part] - want[part])) <= 1e-12 * np.max(size[part])


def test_each_stage_calls_the_traced_layers_once(params3, opts, monkeypatch):
    # the benchmark counts stages by the calls to projected_sources through
    # blowlab.dynamics, and times remainder_source there: a stage must make
    # one call to each
    calls = dict.fromkeys(("_stage", "projected_sources", "remainder_source"), 0)

    def counted(name):
        fn = getattr(dynamics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dynamics, name, counted(name))
    st = init_state(np.array([0.1, -0.1, 0.05, 0.02]), DELTA, B0, S0, params3, opts)
    run(st, S0 + 0.1, DELTA, B0, params3, ds=0.01, opts=opts)
    assert calls["_stage"] > 0
    assert calls["projected_sources"] == calls["remainder_source"] == calls["_stage"]
    # the search reaches run through its own module global, which the
    # benchmark's scale-time counter wraps
    from blowlab import shooting
    assert shooting.run is dynamics.run


def test_state_vector_round_trips_through_the_state(params3, opts):
    # the layout is (modes | outer remainder | inner remainder | b), and a
    # state built from a vector gives that vector back bit for bit
    flow = dynamics._flow(opts, params3)
    n, N, Z = params3.n_modes, opts.n_nodes, inner_nodes().size
    x = np.random.default_rng(7).standard_normal(n + N + Z + 1)
    like = init_state(np.zeros(4), DELTA, B0, S0, params3, opts).dec.remainder
    st = dynamics._state_at(x, S0 + 0.5, flow, like)
    assert st.s == S0 + 0.5
    assert _same(st.dec.modes, x[:n])
    assert _same(st.dec.remainder.values, x[n:n + N])
    assert _same(st.inner, x[n + N:n + N + Z])
    assert st.b == x[-1]
    assert _same(dynamics._values(st, flow), x)


def _edge_free_laplacian(flow) -> np.ndarray:
    """D0: grid.laplacian_compact as a matrix, its two edge rows zero."""
    D0 = np.array([laplacian_compact(e, flow.h) for e in np.eye(flow.nodes.size)]).T
    D0[[0, -1]] = 0.0
    return D0


def test_outer_diffusion_propagator_is_the_exponential(params3, opts):
    # P(c) = e^{c D0} through the sine basis, for c = 0 and the c of a
    # 0.0375 step from s = 20 and from s = 25, on values nonzero at the edges
    flow = dynamics._flow(opts, params3)
    D0 = _edge_free_laplacian(flow)
    u = np.random.default_rng(5).standard_normal(flow.nodes.size)
    assert u[0] != 0.0 and u[-1] != 0.0

    def P(c, v):
        return dynamics._diffuse(v, c, dynamics._outer_step(flow.nodes.size, 2))

    cs = [0.0] + [dynamics._diffusion_time(s, s + 0.0375, 2) for s in (20.0, 25.0)]
    for c in cs:
        want = dynamics._expm(c * D0) @ u
        assert np.linalg.norm(P(c, u) - want) <= 1e-13 * np.linalg.norm(want)
    c1, c2 = cs[1:]
    want = P(c1 + c2, u)
    assert np.linalg.norm(P(c1, P(c2, u)) - want) <= 1e-13 * np.linalg.norm(want)
    # c is the integral of I^{-2}, additive over adjacent spans
    assert c1 == pytest.approx(
        (float(scale_factor(20.0, 2)) ** -2 - float(scale_factor(20.0375, 2)) ** -2) / 0.5,
        rel=1e-12)
    halves = dynamics._diffusion_time(20.0, 20.02, 2) + dynamics._diffusion_time(20.02, 20.0375, 2)
    assert halves == pytest.approx(c1, rel=1e-14)


@pytest.mark.parametrize("s0", [20.0, 22.0])
def test_outer_grid_stays_stable_at_the_transport_step(params3, s0):
    # the linear-only flow with 1e-8 uniform noise on the outer remainder,
    # two units of s in stable steps: the diffusion, now integrated
    # apart, no longer damps the transport's grid noise, and the noise still
    # grows by less than e^{2}, the growth of the operator's own +1
    flow = FlowOptions(linear_only=True)
    st = init_state(np.zeros(4), DELTA, B0, s0, params3, flow)
    noise = 1e-8 * np.random.default_rng(3).uniform(-1.0, 1.0, size=flow.n_nodes)
    st = SimState(s=st.s, b=st.b, dec=SpectralDecomposition(
        st.s, st.dec.modes, st.dec.remainder.with_values(noise)))
    h = dynamics.MAX_DS
    for _ in range(math.ceil(2.0 / h)):
        st = step(st, min(h, s0 + 2.0 - st.s), params3, flow)
    assert st.s == pytest.approx(s0 + 2.0, abs=1e-12)
    growth = np.max(np.abs(st.dec.remainder.values)) / np.max(np.abs(noise))
    assert growth < math.exp(2.0)


def test_rk4_powers_of_the_outer_transport_stay_bounded_at_the_stable_step(params3, opts):
    # A = -(y/2k) d/dy, the outer grid's upwinded transport as a matrix, and
    # M = R(hA), RK4's amplification matrix at the stable step: for
    # m = 1, 2, 4, ..., 256 steps, ||M^m||_2 stays within 1.25 of e^{m h/4k},
    # the continuous transport's L2 growth (1.14 at h = 0.05; 1.51 at 0.06
    # and 105 at 0.07)
    flow = dynamics._flow(opts, params3)
    eye = np.eye(flow.nodes.size)
    wind = flow.nodes / (2.0 * params3.k)
    hA = dynamics.MAX_DS * -wind[:, None] * upwind_gradient(eye, flow.h, wind)
    power = eye + hA @ (eye + hA / 2.0 @ (eye + hA / 3.0 @ (eye + hA / 4.0)))
    for j in range(9):
        growth = math.exp(2**j * dynamics.MAX_DS / (4.0 * params3.k))
        assert np.linalg.norm(power, 2) <= 1.25 * growth, 2**j
        power = power @ power


def _advance(x: np.ndarray, s0: float, s1: float, flow) -> tuple[np.ndarray, np.ndarray]:
    """dynamics._advance from x at s0 to s1, with the first stage evaluated here, as step does."""
    return dynamics._advance(x, dynamics._stage(x, s0, flow), s0, s1, flow)


def _recorded_steps(monkeypatch) -> list[tuple[float, float]]:
    """The (s0, s1) of every step that run takes from now on, in order."""
    steps = []
    real = dynamics._advance

    def advance(x, k1, s0, s1, *rest):
        steps.append((s0, s1))
        return real(x, k1, s0, s1, *rest)

    monkeypatch.setattr(dynamics, "_advance", advance)
    return steps


def test_dense_output_meets_the_step_states(params3, opts, monkeypatch):
    # from s = 22 the first step is the least one, one output interval, and
    # the error estimate grows the next ones past the sample grid: the
    # samples at step ends are the states of the step routine itself, the
    # others come from the dense output, and the modulation holds q_4 at
    # exactly zero at every sample, interpolated ones included
    s0 = 22.0
    steps = _recorded_steps(monkeypatch)
    st = init_state(np.array([0.1, -0.05, 0.08, 0.02]), DELTA, B0, s0, params3, opts)
    rec = run(st, s0 + 0.15, DELTA, B0, params3, ds=0.01, opts=opts)
    monkeypatch.undo()
    assert rec.exit is None and len(rec.samples) == 16
    assert steps[0] == (s0, s0 + 0.01) and len(steps) < 15
    flow = dynamics._flow(opts, params3)
    x = dynamics._values(st, flow)
    met = 0
    for sa, sb in steps:
        x, _ = _advance(x, sa, sb, flow)
        jb = round((sb - s0) / 0.0025)
        if jb % 4 == 0:
            smp = rec.samples[jb // 4]
            assert np.array_equal(smp.modes, x[flow.modes]) and smp.b == x[-1]
            met += 1
    assert 3 <= met < len(rec.samples) - 1
    assert all(smp.modes[4] == 0.0 for smp in rec.samples)
    assert np.array_equal(rec.final_state.inner, x[flow.inner])
    assert np.array_equal(rec.final_state.dec.remainder.values, x[flow.outer])


def test_lawson_step_agrees_with_quarter_steps(params3, opts):
    # the centre seed over s in [20, 22], with the run's step sizes: one step
    # of h against four of h / 4, both through the step routine; modes agree
    # within 1e-7 I^{-delta}(s) and b within 1e-9 relative
    flow = dynamics._flow(opts, params3)
    st = init_state(np.zeros(4), DELTA, B0, S0, params3, opts)
    coarse = fine = dynamics._values(st, flow)
    i = 0
    worst_q = worst_b = 0.0
    while i < 200:
        sa = S0 + i * 0.01
        m = min(200 - i, max(1, int(dynamics.MAX_DS / 0.01)))
        sb = S0 + (i + m) * 0.01
        coarse, _ = _advance(coarse, sa, sb, flow)
        for q in range(4):
            fine, _ = _advance(
                fine, sa + q * (sb - sa) / 4, sa + (q + 1) * (sb - sa) / 4, flow,
            )
        amp = float(scale_factor(sb, 2)) ** -DELTA
        worst_q = max(worst_q, float(np.max(np.abs(coarse[flow.modes] - fine[flow.modes]))) / amp)
        worst_b = max(worst_b, abs(coarse[-1] - fine[-1]) / abs(fine[-1]))
        i += m
    assert worst_q < 1e-7 and worst_b < 1e-9


# the centre seed, a narrow seed and a wide one, each to its horizon
CENTRE = np.zeros(4)
NARROW = np.array([0.2, -0.1, 0.15, 0.05])
WIDE = np.array([0.57, -0.7, -0.24, 0.65])


@pytest.mark.parametrize("seed", [CENTRE, NARROW], ids=["centre", "narrow"])
def test_grown_steps_agree_with_quarter_steps(params3, opts, monkeypatch, seed):
    # the run's own steps over s in [20, 22], replayed: one step of h against
    # four of h / 4, both through the step routine; modes agree within
    # 1e-7 I^{-delta}(s) and b within 1e-9 relative, and the replay ends on
    # the run's final state bit for bit
    steps = _recorded_steps(monkeypatch)
    st = init_state(seed, DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 2.0, DELTA, B0, params3, ds=0.01, opts=opts)
    monkeypatch.undo()
    flow = dynamics._flow(opts, params3)
    # the estimate grows the steps: the centre's up to the stable step, the
    # narrow seed's, held below it, past the sample grid
    if seed is CENTRE:
        assert any(sb - sa == pytest.approx(dynamics.MAX_DS, rel=1e-9) for sa, sb in steps)
    else:
        assert any(round((sb - sa) / 0.0025) % 4 for sa, sb in steps)
    coarse = fine = dynamics._values(st, flow)
    worst_q = worst_b = 0.0
    for sa, sb in steps:
        coarse, _ = _advance(coarse, sa, sb, flow)
        for q in range(4):
            fine, _ = _advance(
                fine, sa + q * (sb - sa) / 4, sa + (q + 1) * (sb - sa) / 4, flow,
            )
        amp = float(scale_factor(sb, 2)) ** -DELTA
        worst_q = max(worst_q, float(np.max(np.abs(coarse[flow.modes] - fine[flow.modes]))) / amp)
        worst_b = max(worst_b, abs(coarse[-1] - fine[-1]) / abs(fine[-1]))
    assert worst_q < 1e-7 and worst_b < 1e-9
    if rec.exit is None:
        assert np.array_equal(rec.final_state.dec.modes, coarse[flow.modes])
        assert np.array_equal(rec.final_state.inner, coarse[flow.inner])


def _least_quarters(j: int) -> int:
    """The least step from j quarter intervals, in quarters: one output
    interval from a sample, or the rest of the interval from a point between
    samples."""
    return 4 - j % 4


@pytest.mark.parametrize(
    "seed, length", [(CENTRE, 2.0), (NARROW, 2.0), (WIDE, 0.5)], ids=["centre", "narrow", "wide"],
)
def test_grown_steps_sit_on_the_quarter_grid(params3, opts, monkeypatch, seed, length):
    # every step ends at s0 + j ds/4 with j an integer count, takes at least
    # the least step, and goes past it only within the stable step
    steps = _recorded_steps(monkeypatch)
    run(init_state(seed, DELTA, B0, S0, params3, opts), S0 + length, DELTA, B0, params3,
        ds=0.01, opts=opts)
    stable = dynamics.MAX_DS
    end = round(length / 0.0025)
    j = 0
    for sa, sb in steps:
        assert sa == S0 + j * 0.0025
        jb = round((sb - S0) / 0.0025)
        assert sb == S0 + jb * 0.0025 or (jb == end and sb == S0 + length)
        least = _least_quarters(j)
        assert jb - j >= least or jb == end
        # within the stable step up to the roundoff of step times
        assert jb - j == least or (sb - sa) / stable - 1e-9 <= 1.0
        j = jb


def test_a_wide_seed_keeps_the_least_steps_in_its_transient(params3, opts, monkeypatch):
    # in the wide seed's transient the estimate allows no more than the least
    # step, one output interval, where the stable step would allow twenty quarters
    steps = _recorded_steps(monkeypatch)
    rec = run(init_state(WIDE, DELTA, B0, S0, params3, opts), S0 + 0.5, DELTA, B0, params3,
              ds=0.01, opts=opts)
    assert rec.exit is not None and rec.exit.bound == "mode_1"
    assert len(steps) == len(rec.samples) - 1 > 20
    assert all(sb - sa == pytest.approx(0.01, rel=1e-9) for sa, sb in steps)
    assert dynamics.MAX_DS == 0.05


def test_step_error_estimate_costs_no_stage(params3, opts, monkeypatch):
    # the estimate weighs the fourth stage against the stage at the step's
    # end, which the next step takes as its first: a trajectory that survives
    # evaluates four stages a step and one more, the first step's first
    calls = {"stage": 0, "step": 0}
    stage, lawson = dynamics._stage, dynamics._lawson_step

    def counted_stage(*args):
        calls["stage"] += 1
        return stage(*args)

    def counted_step(*args):
        calls["step"] += 1
        return lawson(*args)

    monkeypatch.setattr(dynamics, "_stage", counted_stage)
    monkeypatch.setattr(dynamics, "_lawson_step", counted_step)
    rec = run(init_state(CENTRE, DELTA, B0, S0, params3, opts), S0 + 1.0, DELTA, B0, params3,
              ds=0.01, opts=opts)
    assert rec.exit is None
    # 64 steps while the outer diffusion capped them at 0.45 h^2 I^2(s); with
    # only the transport's ceiling and the estimate, 28 at 0.0375 and 21 at 0.05
    assert calls["step"] <= 32
    assert calls["stage"] == 4 * calls["step"] + 1


def test_sample_times_come_from_an_integer_count(params3):
    # 25 units of s at ds = 0.01: accumulating s + ds ended at 44.99999999999929
    flow = FlowOptions(linear_only=True, n_nodes=129)
    modes0 = np.array([1e-12, 0.0, 0.0, 0.0, 0.0, 0.0])
    st = _loaded_linear_state(params3, flow, modes0)
    rec = run(st, S0 + 25.0, DELTA, B0, params3, ds=0.01, opts=flow)
    s = rec.arrays()["s"]
    assert rec.exit is None and s.size == 2501
    assert s.tolist() == [S0 + i * 0.01 for i in range(2501)]
    assert s[-1] == S0 + 25.0


def _failing_stage(monkeypatch, after: int, times: int):
    """Make dynamics._stage return NaN on calls after..after + times - 1."""
    real = dynamics._stage
    calls = [0]

    def stage(x, s, flow):
        calls[0] += 1
        out = real(x, s, flow)
        if after <= calls[0] < after + times:
            return np.full_like(out, np.nan)
        return out

    monkeypatch.setattr(dynamics, "_stage", stage)


def test_run_records_nonfinite_step_as_exit(params3, opts, monkeypatch):
    _failing_stage(monkeypatch, after=10, times=10**9)
    st = init_state(np.array([0.1, -0.2, 0.15, 0.05]), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 1.0, DELTA, B0, params3, ds=0.01, opts=opts)
    assert rec.exit is not None
    assert rec.exit.bound == "nonfinite" and rec.exit.mode is None
    assert rec.exit.reason == "time step produced non-finite values"
    assert rec.exit.dqds is None and rec.exit.transversal is None
    # the record ends at the last finite sample, which is the final state
    assert rec.samples[-1].s == rec.exit.s_star == rec.final_state.s
    assert rec.exit.s_star < S0 + 0.05
    assert all(np.isfinite(smp.modes).all() and np.isfinite(smp.b) for smp in rec.samples)
    assert np.isfinite(rec.final_state.inner).all()


def test_search_keeps_going_past_a_nonfinite_step(params3, monkeypatch):
    from blowlab.shooting import ShootConfig, search

    # one bad stage in the first trajectory: it exits as "nonfinite", the
    # search logs it as an anomaly and bisects on to its survivor
    _failing_stage(monkeypatch, after=5, times=1)
    flow = FlowOptions(linear_only=True, n_nodes=129)
    cfg = ShootConfig(
        delta=DELTA, b0=B0, s0=S0, horizon=10.0, box=2.0, depth=45, ds=0.04, flow=flow,
    )
    d_star, cert = search(cfg, params3)
    assert cert.anomalies and cert.anomalies[0]["bound"] == "nonfinite"
    assert cert.n_trajectories > 1
    assert np.max(np.abs(d_star)) < 1e-3


def test_large_s0_seeds_leave_through_modes_with_b_near_b0(params3, opts):
    # criterion 5's seed set posed at s0 = 40, where the shrinking set is
    # narrow: every seed leaves through a mode, and while inside b stays
    # within 1.5 I^{-delta}(s0) of b0 (1.15 here; 1.92 at s0 = 30, and 1.64
    # at s0 = 20, where three of the seeds leave through b_high)
    s0 = 40.0
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(10):
        d = rng.uniform(-0.25, 0.25, size=4)
        st = init_state(d, DELTA, B0, s0, params3, opts)
        rec = run(st, s0 + 10.0, DELTA, B0, params3, ds=0.01, opts=opts)
        assert rec.exit is not None and rec.exit.mode is not None, rec.exit
        arr = rec.arrays()
        worst = max(worst, float(np.max(np.abs(arr["b"][arr["inside"]] - B0))))
    assert worst <= 1.5 * float(scale_factor(s0, 2)) ** -DELTA
