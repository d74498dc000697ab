import math

import numpy as np
import pytest

from blowlab import shooting
from blowlab.dynamics import ExitInfo, FlowOptions, TrajectoryRecord, TrajectorySample, init_state
from blowlab.params import alpha_consts, scale_factor
from blowlab.shooting import (
    MODEL_MARGIN,
    ExitMapResult,
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


# -- the search's cuts, driven by scripted exits --------------------------------

def _exit(bound, mode, omega, s_star=21.0, modes=np.zeros(6), reason=None):
    info = ExitInfo(s_star=s_star, bound=bound, mode=mode, omega=omega, dqds=None,
                    transversal=None, reason=reason)
    sample = TrajectorySample(s=s_star, b=B0, bprime=0.0, modes=np.asarray(modes, dtype=float),
                              qminus_seminorm=0.0, inside=False)
    return ExitMapResult(survived=False, s_star=s_star, phi=None,
                         record=TrajectoryRecord([sample], info))


def _survivor(cfg, params):
    st = init_state(np.zeros(4), cfg.delta, cfg.b0, cfg.s0, params, cfg.flow)
    samples = [
        TrajectorySample(s=s, b=cfg.b0, bprime=0.0, modes=st.dec.modes, qminus_seminorm=0.0,
                         inside=True)
        for s in (cfg.s0, cfg.s0 + cfg.horizon)
    ]
    return ExitMapResult(survived=True, s_star=cfg.s0 + cfg.horizon, phi=None,
                         record=TrajectoryRecord(samples, None, st))


def _scripted_search(monkeypatch, cfg, params, exits):
    """search() with exit_map replaced by the exits in order, then a survivor."""
    script = iter([*exits, _survivor(cfg, params)])
    monkeypatch.setattr(shooting, "exit_map", lambda d, cfg, params: next(script))
    d_star, cert = search(cfg, params)
    assert next(script, None) is None  # every scripted exit was consumed
    assert cert.n_trajectories == len(cert.trail) == len(exits) + 1
    return cert


def test_search_reopens_a_collapsed_bracket(params3, monkeypatch):
    # mode-0 exits on alternating sides at one exit time halve the bracket
    # [-B, B] (the model point of equal times is the midpoint); after 11
    # cuts it is 2B / 2^11 < 1e-13 wide, so the 12th reopens it to
    # c +- 16e-12 before cutting. The reopening also takes 4 cuts off the
    # count: without that, the 12th cut would pass depth 11.
    B = 1e-10
    cfg = _cfg(params3, box=B, depth=11)
    exits = [_exit("mode_0", 0, 1 if i % 2 == 0 else -1) for i in range(12)]
    cert = _scripted_search(monkeypatch, cfg, params3, exits)
    c = [t["c"][0] for t in cert.trail]
    assert c[0] == 0.0
    for i in range(1, 12):  # the midpoints of halving brackets
        assert abs(c[i] - c[i - 1]) == pytest.approx(B / 2**i, rel=1e-12)
    # the 12th exit (omega = -1) reopened around c[11] and moved lo there;
    # the next centre halves the reopened bracket, with no exit time at hi
    lo, hi = cert.brackets[0]
    assert lo == c[11] and hi == pytest.approx(c[11] + 16e-12, rel=1e-12)
    assert c[12] == pytest.approx(c[11] + 8e-12, rel=1e-12)
    assert [t["model"] for t in cert.trail] == [False, False] + [True] * 10 + [False]
    assert cert.brackets[1:] == [(-B, B)] * 3
    assert cert.anomalies == [] and cert.breakdowns == []


def test_search_cuts_coordinate_0_on_a_modulation_breakdown(params3, monkeypatch):
    # a breakdown names no mode: coordinate 0 is cut against q_0's sign, and
    # its end keeps no exit time, so the next mode-0 exit still halves
    cfg = _cfg(params3)
    B = cfg.box
    exits = [
        _exit("modulation", None, -1, s_star=20.3, reason="degenerate denominator"),
        _exit("mode_0", 0, 1, s_star=21.0),
    ]
    cert = _scripted_search(monkeypatch, cfg, params3, exits)
    assert cert.breakdowns == [{"d": [0.0] * 4, "error": "degenerate denominator"}]
    assert cert.anomalies == []
    assert [t["c"][0] for t in cert.trail] == [0.0, B / 2, B / 4]
    assert [t["model"] for t in cert.trail] == [False, False, False]
    assert cert.trail[0]["bound"] == "modulation" and cert.trail[0]["mode"] is None
    assert cert.brackets == [(0.0, B / 2)] + [(-B, B)] * 3


def test_even_only_search_ranks_an_anomaly_on_the_even_modes(params3, monkeypatch):
    # a b_high exit names no mode: the largest final mode is cut, and an
    # even-only search ranks only the even ones, so mode 2 (-0.3) is cut
    # although mode 1 (-0.9) is larger
    cfg = _cfg(params3, even_only=True)
    B = cfg.box
    modes = [0.1, -0.9, -0.3, 0.5, 0.0, 0.0]
    cert = _scripted_search(
        monkeypatch, cfg, params3, [_exit("b_high", None, 1, s_star=20.7, modes=modes)],
    )
    assert cert.anomalies == [{"d": [0.0] * 4, "s_star": 20.7, "bound": "b_high"}]
    assert cert.breakdowns == []
    assert cert.brackets == [(-B, B), (0.0, 0.0), (0.0, B), (0.0, 0.0)]
    assert cert.trail[1]["c"] == [0.0, 0.0, B / 2, 0.0] and not cert.trail[1]["model"]
