from types import SimpleNamespace

import numpy as np
import pytest

from conftest import P4_R0_ORACLE, random_bumps

from blowlab.grid import GridFunction, derivative, uniform_grid
from blowlab.hermite import (
    decompose,
    eval_scaled_hermite,
    inner_product,
    mode_norm_sq,
)
from blowlab.operators import (
    ModulationBreakdownError,
    apply_Ls,
    consistency_residual,
    drift_values,
    modulation_values,
    nonlinear_values,
    residual_values,
    solve_bprime,
    w_rhs,
)
from blowlab.params import (
    alpha_consts,
    eval_profile,
    make_params,
    node_powers,
    profile_second_derivative,
    scale_factor,
)
from blowlab.projection import inner_nodes, solve_bprime_projected


def _hermite_grid(m, nodes, s, k):
    return GridFunction(nodes, eval_scaled_hermite(m, nodes, s, k))


def test_apply_Ls_on_basis(params3):
    s = 3.0
    nodes = uniform_grid(2.0, 801)
    I2inv = float(scale_factor(s, 2)) ** -2

    out0 = apply_Ls(_hermite_grid(0, nodes, s, 2), s, params3)
    assert np.max(np.abs(out0.values - 1.0)) < 1e-10

    out2 = apply_Ls(_hermite_grid(2, nodes, s, 2), s, params3)
    ref2 = 0.5 * eval_scaled_hermite(2, nodes, s, 2) + I2inv
    assert np.max(np.abs(out2.values - ref2)) < 1e-9

    out4 = apply_Ls(_hermite_grid(4, nodes, s, 2), s, params3)
    ref4 = 6.0 * I2inv * eval_scaled_hermite(2, nodes, s, 2)
    assert np.max(np.abs(out4.values - ref4)) < 1e-9


def test_apply_Ls_rejects_coarse_grid(params3):
    gf = GridFunction(np.linspace(-1, 1, 4), np.zeros(4))
    with pytest.raises(ValueError):
        apply_Ls(gf, 2.0, params3)


def test_nonlinear_term_zero_and_cubic(params3):
    nodes = uniform_grid(2.0, 101)
    _, e = eval_profile(nodes, 1.0, params3)
    zero = nonlinear_values(np.zeros_like(nodes), e, params3.p)
    assert np.max(np.abs(zero)) == 0.0

    rng = np.random.default_rng(5)
    q = rng.normal(scale=0.4, size=nodes.size)
    _, e = eval_profile(nodes, 1.3, params3)
    out = nonlinear_values(q, e, params3.p)
    u = e * q
    oracle = 3.0 * u**2 + u**3  # binomial expansion, exact for p = 3
    assert np.max(np.abs(out - oracle)) < 1e-14


@pytest.mark.parametrize("p", [3.0, 2.5])
def test_nonlinear_sign_changed_branch(p):
    # 1 + e q <= 0 only far outside the set; there N is the direct form
    from blowlab.params import signed_power

    rng = np.random.default_rng(17)
    q = rng.uniform(-6.0, 2.0, size=257)
    e = rng.uniform(0.2, 0.5, size=257)
    u = e * q
    base = 1.0 + u
    assert np.any(base <= 0.0) and np.any(base > 0.0)
    want = np.where(
        base > 0.0,
        np.expm1(p * np.log1p(np.where(base > 0.0, u, 0.0))) - p * u,
        signed_power(base, p) - 1.0 - p * u,
    )
    got = nonlinear_values(q, e, p)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 3])
def test_even_powers_of_negative_points(k):
    # |y|^{2k-2} in place of y^{2k-2}: the same values, off libm's slow path
    # for negative bases. At k = 2 both are squares and agree bit for bit; at
    # k = 3 numpy's vectorised power of a positive base rounds differently
    # from the scalar path of a negative one by at most one ulp.
    from blowlab.projection import _increments

    P = make_params(3.0, k)
    y = uniform_grid(0.15, 257)
    assert np.any(y < 0.0)
    ulps = 0 if k == 2 else 1
    assert np.all(np.abs(np.abs(y) ** (2 * k - 2) - y ** (2 * k - 2)) <= ulps * np.spacing(y ** (2 * k - 2)))

    def close(got, want):
        return np.all(np.abs(got - want) <= 4 * ulps * np.finfo(float).eps * np.abs(want))

    # I = 16: scaling by a power of two is exact, so the increments' powers
    # of z = I y, times I^{-2k}, are the powers of y bit for bit
    b, I = 1.2, 16.0
    I2inv = I**-2
    a = alpha_consts(b, P)
    f, e = eval_profile(y, b, P)
    y2k = np.abs(y) ** (2 * k)
    yeven = y ** (2 * k - 2)
    q = np.cos(7.0 * y)
    want = I2inv * yeven * (a.alpha1 + a.alpha2 * y2k * e + e * (a.alpha3 + a.alpha4 * y2k * e) * q)
    assert close(residual_values(q, node_powers(y, k), e, b, I2inv, P), want)
    want = yeven * (a.alpha1 + a.alpha2 * y2k * e) * f**P.p
    assert close(profile_second_derivative(y, b, P), want)
    r = 1e-6 * np.sin(5.0 * y)
    tab = SimpleNamespace(i2k=I ** (-2 * k))
    row = _increments(q, r, r, node_powers(I * y, k), b, tab, P)[2]
    assert close(row, I2inv * yeven * e * (a.alpha3 + a.alpha4 * y2k * e) * r)


def test_nonlinear_quadratic_coefficient():
    # N / (e_b q)^2 -> p(p-1)/2 as q -> 0, via a Richardson pair
    P = make_params(2.5, 2)
    nodes = uniform_grid(1.0, 11)
    _, e = eval_profile(nodes, 1.0, P)
    vals = []
    for eps in (1e-4, 5e-5):
        q = np.full_like(nodes, eps)
        out = nonlinear_values(q, e, P.p)
        vals.append(out[5] / (e[5] * eps) ** 2)
    extrap = 2.0 * vals[1] - vals[0]
    assert extrap == pytest.approx(1.875, rel=1e-5)


def test_drift_and_residual_terms(params3):
    s, b = 4.0, 1.0
    nodes = uniform_grid(2.0, 401)
    _, e = eval_profile(nodes, b, params3)
    pw = node_powers(nodes, 2)
    I2inv = float(scale_factor(s, 2)) ** -2
    h = float(nodes[1] - nodes[0])

    def drift(q):
        return drift_values(derivative(q, h), pw, e, b, I2inv, params3)

    assert np.max(np.abs(drift(np.full_like(nodes, 0.7)))) < 1e-11

    R0 = residual_values(np.zeros_like(nodes), pw, e, b, I2inv, params3)
    a = alpha_consts(b, params3)
    ref = I2inv * nodes**2 * (a.alpha1 + a.alpha2 * nodes**4 * e)
    assert np.max(np.abs(R0 - ref)) < 1e-14

    rng = np.random.default_rng(6)
    q = rng.normal(size=nodes.size)
    assert np.max(np.abs(drift(2 * q) - 2 * drift(q))) < 1e-12


def test_modulation_term(params3):
    nodes = uniform_grid(2.0, 201)
    b = 1.1
    _, e = eval_profile(nodes, b, params3)
    pw = node_powers(nodes, 2)
    zero = np.zeros_like(nodes)
    M0 = modulation_values(zero, pw, e, params3, "paper")
    assert np.allclose(M0, 1.5 * nodes**4, rtol=1e-14)
    assert M0[100] == 0.0  # y = 0
    # the omitted argument gives the derived form, y^{2k}/(p-1) at q = 0
    M0 = modulation_values(zero, pw, e, params3)
    assert np.array_equal(M0, modulation_values(zero, pw, e, params3, "derived"))
    assert np.allclose(M0, 0.5 * nodes**4, rtol=1e-14)

    rng = np.random.default_rng(7)
    q = rng.normal(size=nodes.size)
    for variant in ("paper", "derived"):
        diff = modulation_values(q, pw, e, params3, variant) - modulation_values(
            zero, pw, e, params3, variant)
        ref = 1.5 * nodes**4 * e * q
        assert np.max(np.abs(diff - ref)) < 1e-12


@pytest.mark.parametrize("variant", ["Derived", "bogus"])
def test_pointwise_terms_refuse_an_unknown_variant(params3, variant):
    # a misspelt variant is an error, not the "paper" form
    nodes = uniform_grid(2.0, 5)
    q = np.full_like(nodes, 0.1)
    _, e = eval_profile(nodes, 1.0, params3)
    pw = node_powers(nodes, 2)
    with pytest.raises(ValueError, match="variant"):
        modulation_values(q, pw, e, params3, variant)
    with pytest.raises(ValueError, match="variant"):
        residual_values(q, pw, e, 1.0, 0.5, params3, variant)
    with pytest.raises(ValueError, match="variant"):
        consistency_residual(GridFunction(uniform_grid(2.0, 9), np.zeros(9)), 1.0, 3.0,
                             params3, variant=variant)


def test_solve_bprime_zero_sources(params3, quad96):
    # with b = 0 the curvature source vanishes and q = 0 kills the rest
    nodes = uniform_grid(0.15, 257)
    dec = decompose(lambda y: np.zeros_like(y), 20.0, params3, quad96, nodes)
    assert solve_bprime(dec, 0.0, 20.0, params3, quad96) == pytest.approx(0.0, abs=1e-18)


def test_solve_bprime_against_frozen_oracle(params3, quad96):
    nodes = uniform_grid(0.15, 257)
    dec = decompose(lambda y: np.zeros_like(y), 20.0, params3, quad96, nodes)
    bp = solve_bprime(dec, 1.0, 20.0, params3, quad96)
    assert bp == pytest.approx(-2.0 * P4_R0_ORACLE, rel=1e-8)


def test_solve_bprime_agrees_with_projected_route(params3, quad96):
    # grid-quadrature route vs jet route, in the regime where both are valid;
    # the jet route reads a remainder on the inner nodes through the z-frame
    s, b = 20.0, 1.2
    nodes = inner_nodes() / float(scale_factor(s, params3.k))
    vals = 0.3 * np.exp(-((nodes / 0.1) ** 2)) + 0.1 * nodes**3 * np.exp(
        -((nodes / 0.08) ** 2)
    )
    dec = decompose(GridFunction(nodes, vals), s, params3, quad96)
    a = solve_bprime(dec, b, s, params3, quad96)
    bproj = solve_bprime_projected(dec.modes, dec.remainder, b, s, params3, quad96)
    assert a == pytest.approx(bproj, rel=1e-5, abs=1e-9)


def test_projected_route_rejects_small_scale_times(params3, quad96):
    nodes = uniform_grid(2.0, 257)
    dec = decompose(lambda y: np.zeros_like(y), 6.0, params3, quad96, nodes)
    with pytest.raises(ValueError):
        solve_bprime_projected(dec.modes, dec.remainder, 1.2, 6.0, params3, quad96)


def test_solve_bprime_breakdown(params3, quad96):
    # constant q = -0.65 makes 1 + p P_{2k}(y^{2k} e_b q) = 0.025
    nodes = uniform_grid(0.15, 257)
    dec = decompose(lambda y: np.full_like(y, -0.65), 20.0, params3, quad96, nodes)
    with pytest.raises(ModulationBreakdownError):
        solve_bprime(dec, 1.0, 20.0, params3, quad96)


def test_w_rhs_reference_states(params3):
    nodes = uniform_grid(2.0, 1001)
    kap = GridFunction(nodes, np.full_like(nodes, params3.kappa))
    out = w_rhs(kap, 3.0, params3)
    assert np.max(np.abs(out.values)) < 1e-10

    zero = w_rhs(GridFunction(nodes, np.zeros_like(nodes)), 3.0, params3)
    assert np.max(np.abs(zero.values)) == 0.0

    # w = f_b: all first-order terms cancel, leaving the pure diffusion part
    b, s = 1.0, 3.0
    f, _ = eval_profile(nodes, b, params3)
    out_f = w_rhs(GridFunction(nodes, f), s, params3)
    I2inv = float(scale_factor(s, 2)) ** -2
    ref = I2inv * profile_second_derivative(nodes, b, params3)
    assert np.max(np.abs(out_f.values - ref)) < 1e-9


def test_consistency_zero_state(params3):
    nodes = uniform_grid(1.0, 4097)
    q = GridFunction(nodes, np.zeros_like(nodes))
    assert consistency_residual(q, 1.0, 3.0, params3) < 1e-6


def test_consistency_random_states_and_refinement(params3):
    worst_coarse = 0.0
    worst_factor = np.inf
    for seed in range(3):
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
        r2 = consistency_residual(q2, b, s, params3)
        worst_coarse = max(worst_coarse, r1)
        worst_factor = min(worst_factor, r1 / r2)
    assert worst_coarse < 1e-6
    assert worst_factor > 3.5


def test_consistency_resolves_modulation_coefficient(params3):
    """The open coefficient question: only the chain-rule form closes the b' test.

    Documented residuals (4097 nodes, |b'| = 0.3): derived variant ~ 1e-9,
    literal variant ~ |b'| * y^{2k} = O(0.3).
    """
    rng = np.random.default_rng(11)
    nodes = uniform_grid(1.0, 4097)
    q = GridFunction(nodes, random_bumps(nodes, rng))
    b, s, bp = 1.0, 3.0, 0.3
    r_derived = consistency_residual(q, b, s, params3, bprime=bp, variant="derived")
    r_paper = consistency_residual(q, b, s, params3, bprime=bp, variant="paper")
    assert r_derived < 1e-6
    assert r_paper > 0.1  # the y^{2k}/(p-1) vs p/(p-1) y^{2k} gap at |y| <= 1
    assert r_paper > 1e4 * r_derived

    # with b frozen the two variants still differ through the e_b factor on
    # the q-part of the curvature source
    r0_derived = consistency_residual(q, b, s, params3, variant="derived")
    r0_paper = consistency_residual(q, b, s, params3, variant="paper")
    assert r0_derived < 1e-6
    assert r0_paper > 1e-3


def _in_set_state(rng, s, delta, b0, params, quad):
    """Random state obeying the shrinking-set bounds at scale s."""
    from blowlab.hermite import SpectralDecomposition

    I = float(scale_factor(s, params.k))
    amp = I**-delta
    nodes = uniform_grid(3.0, 1201)
    modes = rng.uniform(-0.5, 0.5, size=params.n_modes) * amp
    modes[2 * params.k] = 0.0
    base = sum(
        m * eval_scaled_hermite(n, nodes, s, params.k) for n, m in enumerate(modes)
    )
    bump = 0.05 * amp * nodes**params.M * np.exp(-(nodes**2))
    dec = decompose(GridFunction(nodes, base + bump), s, params, quad)
    modes_fixed = dec.modes.copy()
    modes_fixed[2 * params.k] = 0.0
    return SpectralDecomposition(s, modes_fixed, dec.remainder)


def test_generator_projection_identity(params3, quad96):
    # P_n(L_s q) = (1 - n/2k) q_n + (1 - 1/k)(n+1)(n+2) I^{-2} q_{n+2}
    rng = np.random.default_rng(12)
    s = 4.0
    I2inv = float(scale_factor(s, 2)) ** -2
    dec = _in_set_state(rng, s, 0.5, 1.0, params3, quad96)
    from blowlab.hermite import recompose

    q = recompose(dec, params3)
    Lq = apply_Ls(q, s, params3)
    for n in range(params3.M_floor - 1):
        proj = inner_product(
            Lq, lambda y, n=n: eval_scaled_hermite(n, y, s, 2), s, 2, quad96
        ) / mode_norm_sq(n, s, 2)
        expected = (1 - n / 4.0) * dec.modes[n]
        if n + 2 <= params3.M_floor:
            expected += 0.5 * (n + 1) * (n + 2) * I2inv * dec.modes[n + 2]
        assert proj == pytest.approx(expected, abs=5e-7)


@pytest.mark.parametrize("term", ["N", "M", "D", "R"])
def test_projection_smallness_patterns(params3, quad96, term):
    """Rescaled projections of the source terms stay bounded over an s sweep."""
    rng = np.random.default_rng(13)
    delta, b0 = 0.1, 1.0
    s_vals = np.linspace(20.0, 30.0, 11)
    vals = []
    for s in s_vals:
        dec = _in_set_state(rng, s, delta, b0, params3, quad96)
        I = float(scale_factor(s, 2))
        y_q = quad96.nodes / I
        from blowlab.hermite import hermite_series, project_modes_from_samples
        from blowlab.grid import sample as gsample
        from blowlab.operators import (
            drift_values,
            modulation_values,
            nonlinear_values,
            residual_values,
        )

        qv = hermite_series(dec.modes, y_q, s, 2) + gsample(
            dec.remainder.nodes, dec.remainder.values, y_q
        )
        _, e = eval_profile(y_q, b0, params3)
        pw = node_powers(y_q, 2)
        I2inv = I**-2
        if term == "N":
            f = nonlinear_values(qv, e, 3.0)
            resc = I ** (2 * delta)
        elif term == "M":
            f = modulation_values(qv, pw, e, params3, "paper")
            resc = I**delta
        elif term == "D":
            coef = dec.modes[1:] * np.arange(1, params3.n_modes)
            dqv = hermite_series(coef, y_q, s, 2)
            f = drift_values(dqv, pw, e, b0, I2inv, params3)
            resc = I ** (2 * delta)
        else:
            f = residual_values(qv, pw, e, b0, I2inv, params3, "derived")
            resc = I ** (2 * delta)
        proj = project_modes_from_samples(f, s, 2, params3.n_modes, quad96)
        if term == "M":
            # P_{2k}(M) approaches p/(p-1); rescale the gap
            vals.append(abs(proj[4] - 1.5) * resc)
        else:
            vals.append(np.max(np.abs(proj)) * resc)
    vals = np.array(vals)
    # boundedness: the second half of the sweep does not outgrow the first
    assert np.max(vals[5:]) <= 2.0 * max(np.max(vals[:5]), 1e-12)


def test_remainder_source_matches_direct_difference(params3, quad96):
    """The cancellation-free (1 - Pi) S equals S - Pi S where the latter is exact.

    At s = 16 the direct difference loses only ~1e-17 to roundoff, far below
    the compared values; late in a run it would lose everything.
    """
    from blowlab.grid import derivative, sample
    from blowlab.hermite import hermite_series, project_modes_from_samples
    from blowlab.operators import (
        drift_values,
        modulation_values,
        nonlinear_values,
        residual_values,
    )
    from blowlab.projection import projected_sources, remainder_source

    s, b, bp = 16.0, 1.1, 0.4
    k = params3.k
    I = float(scale_factor(s, k))
    modes = np.array([0.3, -0.2, 0.25, 0.1, 0.0, -0.15])
    z = uniform_grid(16.0, 193)
    y = z / I
    r = 1e-3 * I**-6 * (z**6 - 2.0 * z**3) * np.exp(-((z / 8.0) ** 2))
    rem = GridFunction(y, r)

    proj = projected_sources(modes, rem, b, s, params3, quad96)
    fast = remainder_source(proj, bp, modes, rem, b, s, params3)

    def sources(pts, rv, drv):
        q = hermite_series(modes, pts, s, k) + rv
        dq = hermite_series(modes[1:] * np.arange(1, 6), pts, s, k) + drv
        _, e = eval_profile(pts, b, params3)
        pw = node_powers(pts, k)
        return (
            nonlinear_values(q, e, params3.p)
            + drift_values(dq, pw, e, b, I**-2, params3)
            + residual_values(q, pw, e, b, I**-2, params3, "derived")
            + bp * modulation_values(q, pw, e, params3, "derived")
        )

    dr = derivative(r, y[1] - y[0])
    yq = quad96.nodes / I
    S_q = sources(yq, sample(y, r, yq), sample(y, dr, yq))
    P = project_modes_from_samples(S_q, s, k, params3.n_modes, quad96)
    direct = sources(y, r, dr) - hermite_series(P, y, s, k)

    scale = np.max(np.abs(direct))
    assert scale > 1e-12
    assert np.max(np.abs(fast - direct)) < 1e-6 * scale


def _bprime_via_w(modes, b, s, params, quad):
    """b' from the w-equation, independent of the jet/projection machinery.

    Rebuilds w = f_b (1 + e_b q) on a fine grid, takes the b-frozen q-rate
    f_b^{-p} w_rhs(w) by finite differences, and solves d/ds P_4(q, s) = 0:
    b' = -(P_4(f_b^{-p} w_rhs) + d_sigma P_4(q, sigma)) / P_4(M(q)).
    """
    from blowlab.grid import sample
    from blowlab.hermite import hermite_series, project_modes_from_samples
    from blowlab.operators import modulation_values

    p, k = params.p, params.k
    n = 2 * k
    I = float(scale_factor(s, k))
    # P_4 amplifies pointwise errors by I^4 / 384 ~ 1e6 at s = 20: finer grids
    # lose to the 1/h^2 roundoff of the second difference, coarser ones to
    # its h^4 truncation; 1001 nodes over the quadrature support balance them
    y = uniform_grid(32.0 / I, 1001)
    q = hermite_series(modes, y, s, k)
    f, e = eval_profile(y, b, params)
    rate = f ** (-p) * w_rhs(GridFunction(y, f * (1.0 + e * q)), s, params).values
    M = modulation_values(q, node_powers(y, k), e, params, "derived")

    def P4(vals, sigma):
        yq = quad.nodes / float(scale_factor(sigma, k))
        return project_modes_from_samples(sample(y, vals, yq), sigma, k, n + 1, quad)[n]

    eps = 1e-3
    dsigma = (P4(q, s + eps) - P4(q, s - eps)) / (2.0 * eps)
    return -(P4(rate, s) + dsigma) / P4(M, s)


def test_bprime_near_degenerate_denominator_agrees_with_w_route(params3, quad96):
    """Criterion-5 evidence: |b'| = O(1) is genuine where q_0 nears -(p-1)/p.

    On in-set states with q_0 in [-0.55, -0.45] the denominator
    1 + p P_4(y^4 e_b q) sits between 0.15 and 0.35; the jet route, the
    grid-quadrature route and the independent w-equation route agree on b'.
    """
    from blowlab.dynamics import SimState, init_state, membership
    from blowlab.hermite import SpectralDecomposition
    from blowlab.projection import projected_sources

    s, b0 = 20.0, 1.0
    base = init_state(np.zeros(4), 0.1, b0, s, params3)
    for q0, b in ((-0.45, 1.3), (-0.5, 1.5), (-0.55, 1.2)):
        modes = np.array([q0, 0.2, -0.3, 0.1, 0.0, 0.15])
        dec = SpectralDecomposition(s, modes, base.dec.remainder)
        assert membership(SimState(s=s, b=b, dec=dec), 0.1, b0, params3).inside

        proj = projected_sources(modes, base.dec.remainder, b, s, params3, quad96)
        denom = 1.0 + params3.p * proj.Pcoupling[4]
        assert 0.15 < denom < 0.4
        bp = proj.bprime(params3, "derived")
        assert abs(bp) > 0.1
        assert solve_bprime(dec, b, s, params3, quad96) == pytest.approx(bp, rel=1e-6)
        assert _bprime_via_w(modes, b, s, params3, quad96) == pytest.approx(bp, rel=2e-5)
