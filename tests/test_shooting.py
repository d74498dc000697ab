import math

import numpy as np
import pytest

from blowlab.dynamics import FlowOptions
from blowlab.params import alpha_consts, scale_factor
from blowlab.shooting import (
    MODEL_MARGIN,
    SearchFailureError,
    ShootConfig,
    exit_map,
    gamma_map,
    model_point,
    search,
)

DELTA, B0, S0 = 0.1, 1.0, 20.0


def _cfg(params, **kw):
    defaults = dict(delta=DELTA, b0=B0, s0=S0, horizon=10.0, ds=0.01, flow=FlowOptions())
    defaults.update(kw)
    return ShootConfig(**defaults)


def test_gamma_map_values(params3):
    amp = float(scale_factor(S0, 2)) ** -DELTA
    I2inv = float(scale_factor(S0, 2)) ** -2

    psi = gamma_map(np.array([1.0, 0, 0, 0]), S0, DELTA, params3)
    assert psi[0] == pytest.approx(amp, rel=1e-15)
    assert np.max(np.abs(psi[1:])) == 0.0

    psi2 = gamma_map(np.array([0, 0, 1.0, 0]), S0, DELTA, params3)
    assert psi2[2] == pytest.approx(amp, rel=1e-15)
    assert psi2[0] == pytest.approx(2.0 * amp * I2inv, rel=1e-14)


def test_gamma_map_linear(params3):
    rng = np.random.default_rng(30)
    d = rng.uniform(-1, 1, size=4)
    a = gamma_map(2.5 * d, S0, DELTA, params3)
    b = 2.5 * gamma_map(d, S0, DELTA, params3)
    assert np.max(np.abs(a - b)) < 1e-15


def test_gamma_map_dominant_diagonal(params3):
    # |psi_n - d_n I^{-delta}| <= C I^{-delta-2}; injectivity on the box
    amp = float(scale_factor(S0, 2)) ** -DELTA
    corr = float(scale_factor(S0, 2)) ** (-DELTA - 2.0)
    M = np.column_stack(
        [gamma_map(e, S0, DELTA, params3) for e in np.eye(4)]
    )
    off = M - amp * np.eye(4)
    assert np.max(np.abs(off)) <= 6.5 * corr
    assert abs(np.linalg.det(M)) > 0.5 * amp**4


def test_exit_map_face_point(params3):
    cfg = _cfg(params3)
    d = np.array([0.0, 1.9, 0.0, 0.0])
    res = exit_map(d, cfg, params3)
    assert not res.survived
    assert res.s_star == S0
    amp = float(scale_factor(S0, 2)) ** DELTA
    expected_phi = amp * gamma_map(d, S0, DELTA, params3)
    assert np.max(np.abs(res.phi - expected_phi)) < 1e-12
    assert abs(res.phi[1]) > 1.0


def test_exit_map_interior_point(params3):
    cfg = _cfg(params3, horizon=6.0)
    res = exit_map(np.array([0.0, 0.9, 0.0, 0.0]), cfg, params3)
    assert not res.survived
    assert res.s_star > S0
    # the exiting coordinate of the rescaled vector sits on the unit box edge
    m = res.record.exit.mode
    assert abs(res.phi[m]) == pytest.approx(1.0, abs=0.02)


def test_exit_map_survivor_marker(params3):
    cfg = _cfg(params3, horizon=1.0)
    res = exit_map(np.zeros(4), cfg, params3)
    assert res.survived
    assert res.phi is None
    assert res.s_star == pytest.approx(S0 + 1.0)


def test_search_full_system_defaults_short(params3):
    cfg = _cfg(params3, horizon=5.0)
    d_star, cert = search(cfg, params3)
    assert np.max(np.abs(d_star)) <= 2.0
    assert cert.n_trajectories >= 1
    assert all(v > 0 for v in cert.final_margins.values())


def test_search_failure_on_tiny_box(params3):
    # a tiny box around a known-exiting point cannot contain a survivor
    flow = FlowOptions()
    cfg = ShootConfig(
        delta=DELTA, b0=B0, s0=S0, horizon=8.0, box=1e-6, depth=6, ds=0.01, flow=flow
    )
    shifted = ShootConfig(
        delta=DELTA, b0=B0, s0=S0, horizon=8.0, box=2.0, depth=6, ds=0.01, flow=flow
    )

    def offset_exit_map(d, cfg_, params_):
        return exit_map(np.asarray(d) + np.array([0.0, 0.8, 0.0, 0.0]), shifted, params_)

    import blowlab.shooting as shooting_mod

    orig = shooting_mod.exit_map
    shooting_mod.exit_map = offset_exit_map
    try:
        with pytest.raises(SearchFailureError):
            search(cfg, params3)
    finally:
        shooting_mod.exit_map = orig


def test_search_linear_mode_converges_to_origin(params3):
    # pure-linear flow: growth rates 1 - j/2k make d = 0 the only survivor
    flow = FlowOptions(linear_only=True, n_nodes=129)
    cfg = ShootConfig(
        delta=DELTA, b0=B0, s0=S0, horizon=60.0, box=2.0, depth=45, ds=0.04, flow=flow
    )
    d_star, cert = search(cfg, params3)
    assert np.max(np.abs(d_star)) < 1e-6


def test_exit_sign_coherence(params3):
    """Pushing the exiting coordinate further out cannot delay the exit."""
    cfg = _cfg(params3, horizon=6.0)
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(4):
        d = rng.uniform(-0.9, 0.9, size=4)
        res = exit_map(d, cfg, params3)
        if res.survived or res.record.exit.mode is None:
            continue
        m, omega = res.record.exit.mode, res.record.exit.omega
        d2 = d.copy()
        d2[m] += 0.3 * omega
        if abs(d2[m]) > 2.0:
            continue
        res2 = exit_map(d2, cfg, params3)
        assert not res2.survived
        assert res2.s_star <= res.s_star + 1e-9
        checked += 1
    assert checked >= 2


def test_model_point_halves_without_an_exit_time():
    assert model_point(-2.0, 2.0, np.nan, 24.3, 0.75) == (0.0, False)
    assert model_point(0.0, 1.0, 24.3, np.nan, 0.75) == (0.5, False)
    assert model_point(0.0, 1.0, np.nan, np.nan, 0.75, streak=3) == (0.5, False)


def test_model_point_meets_the_misses():
    # a miss eps exits near s0 + ln(C / eps) / mu, so eps_lo / eps_hi = R
    lo, hi, s_lo, s_hi, mu = -0.5, 1.5, 31.0, 29.0, 0.75
    R = math.exp(mu * (s_hi - s_lo))
    c, from_model = model_point(lo, hi, s_lo, s_hi, mu)
    assert from_model
    assert c == pytest.approx(lo + (hi - lo) * R / (1.0 + R), rel=1e-14)
    assert (c - lo) / (hi - c) == pytest.approx(R, rel=1e-12)
    # equal exit times put the point at the middle
    assert model_point(lo, hi, 30.0, 30.0, mu) == (0.5, True)


def test_model_point_clamps_at_both_ends():
    lo, hi = 0.0, 2.0
    near_lo, _ = model_point(lo, hi, 40.0, 20.0, 0.75)  # R = e^-15
    near_hi, _ = model_point(lo, hi, 20.0, 40.0, 0.75)
    assert near_lo == pytest.approx(lo + MODEL_MARGIN * (hi - lo), rel=1e-14)
    assert near_hi == pytest.approx(hi - MODEL_MARGIN * (hi - lo), rel=1e-14)
    # times far apart neither overflow nor leave the clamp
    assert model_point(lo, hi, 1e6, 0.0, 1.0)[0] == near_lo
    assert model_point(lo, hi, 0.0, 1e6, 1.0)[0] == near_hi


def test_model_point_illinois_rule_fires_on_the_second_one_sided_cut():
    lo, hi, s_lo, s_hi, mu = 0.0, 1.0, 30.0, 29.5, 0.75

    def point(R):
        return lo + (hi - lo) * R / (1.0 + R)

    R = math.exp(mu * (s_hi - s_lo))
    plain = model_point(lo, hi, s_lo, s_hi, mu)[0]
    assert model_point(lo, hi, s_lo, s_hi, mu, streak=1)[0] == plain
    assert model_point(lo, hi, s_lo, s_hi, mu, streak=-1)[0] == plain
    # hi replaced twice: lo's exit counts ln 2 / mu later, halving its miss
    assert model_point(lo, hi, s_lo, s_hi, mu, streak=2)[0] == pytest.approx(point(R / 2), rel=1e-13)
    assert model_point(lo, hi, s_lo, s_hi, mu, streak=3)[0] == pytest.approx(point(R / 4), rel=1e-13)
    assert model_point(lo, hi, s_lo, s_hi, mu, streak=-2)[0] == pytest.approx(point(2 * R), rel=1e-13)


def test_search_model_step_finds_the_linear_survivor(params3):
    # at delta = 1 the centre exits through mode 2; the two exits of c_2 = 0
    # and c_2 = 1 place the model point next to linear theory's d_2, where
    # halving alone needs 6 trajectories
    cfg = ShootConfig(delta=1.0, b0=B0, s0=S0, horizon=4.5, ds=0.05, depth=12)
    d_star, cert = search(cfg, params3)
    assert cert.n_trajectories <= 4
    alpha1 = alpha_consts(B0, params3).alpha1
    I = float(scale_factor(S0, params3.k))
    linear_d2 = -alpha1 * I**-2 / I**-cfg.delta
    assert d_star[2] == pytest.approx(linear_d2, rel=0.1)
    assert all(v > 0 for v in cert.final_margins.values())
    # the trail replays the search, the survivor last
    trail = cert.trail
    assert len(trail) == cert.n_trajectories
    assert trail[0]["c"] == [0.0] * 4 and not trail[0]["model"]
    assert trail[-1]["bound"] is None and trail[-1]["s_star"] == S0 + cfg.horizon
    assert trail[-1]["model"]
    assert all(t["mode"] == 2 and t["s_star"] < S0 + cfg.horizon for t in trail[:-1])
    assert cert.to_dict()["trail"] == trail
