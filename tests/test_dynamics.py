import numpy as np
import pytest

from blowlab.dynamics import (
    Z_MAX,
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
from blowlab.hermite import SpectralDecomposition
from blowlab.grid import GridFunction
from blowlab.params import make_params, scale_factor

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
    with pytest.raises(ValueError):
        init_state(np.array([2.5, 0, 0, 0]), DELTA, B0, S0, params3, opts)
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
    with pytest.raises(ValueError):
        step(st, 0.2, params3, opts)
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


def test_membership_reports_the_recorded_seminorm(params3, opts):
    # run records the seminorm that membership measured, computed once a step
    from blowlab.hermite import remainder_seminorm

    st = init_state(np.array([0.1, -0.2, 0.15, 0.05]), DELTA, B0, S0, params3, opts)
    rec = run(st, S0 + 0.05, DELTA, B0, params3, ds=0.01, opts=opts)
    final = rec.final_state
    rep = membership(final, DELTA, B0, params3, opts)
    want = remainder_seminorm(
        final.dec.remainder, final.s, params3,
        floor=opts.sem_floor, rel_floor=opts.sem_rel_floor,
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
