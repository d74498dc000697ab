"""The three workloads: their inputs, one timed round each, and its checks.

A round is a closed loop: each job starts when the one before it ends, on
one thread. Every round of a run repeats the same jobs on the same inputs,
so the share of failed operations cannot differ between runs. The program
is reached only through the public functions of its modules, looked up on
the module at call time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks

MODULES = (
    "cli", "direct", "dynamics", "grid", "hermite", "operators", "params",
    "projection", "serialize", "shooting",
)

# model and flow settings shared by every workload (the CLI defaults)
P, K, B0, S0, DS = 3.0, 2, 1.0, 20.0, 0.01


def import_blowlab() -> SimpleNamespace:
    """Import the package afresh, so each set-up pays its import and caches."""
    for name in [m for m in sys.modules if m == "blowlab" or m.startswith("blowlab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module("blowlab." + n) for n in MODULES})


def warm_caches(bl, params, opts) -> None:
    """Fill the Gauss-rule, quadrature-table and basis-structure caches."""
    quad = bl.hermite.gauss_rule(opts.quad_order)
    bl.hermite.quad_hermite_table(quad, params.n_modes - 1)
    zero = bl.grid.GridFunction(opts.nodes(), np.zeros(opts.n_nodes))
    bl.projection.projected_sources(np.zeros(params.n_modes), zero, B0, S0, params, quad)


@dataclass
class Round:
    """What one round returns to the runner besides its wall time.

    run_round(bl, inp, counter, between) calls `between` before each job:
    the runner passes the speed probe, whose time it takes out of the round.
    """

    attempted: int
    failed: int
    s_units: float
    trajectories_needed: int  # trajectories whose results the round returns
    outputs: dict = field(default_factory=dict)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def latin_hypercube(rng, n: int, dim: int, half_width: float) -> np.ndarray:
    """n points in [-w, w]^dim, one in each of n equal slices per coordinate."""
    u = (np.stack([rng.permutation(n) for _ in range(dim)], axis=1) + rng.uniform(size=(n, dim))) / n
    return half_width * (2.0 * u - 1.0)


# -- ensemble ----------------------------------------------------------------

class Ensemble:
    """Independent trajectories: the centre seed, narrow seeds, wide seeds.

    Narrow seeds (+-0.25, the criterion 4/5 box) and the centre seed run one
    unit of s: uncut, narrow seeds exit after 1.1 to 4 units, and that spread
    would move the round's cost with the seed. Wide seeds (+-0.95, criterion
    10's box) are drawn by Latin hypercube and run at most half a unit:
    over five seeds of 40, the spread of their total length was 0.27 units
    of s against 1.02 for independent draws. About half of them exit
    through a mode by then, the rest through b_high, b_low, modulation or
    not at all.
    """

    name = "ensemble"
    delta = 0.1
    n_narrow, narrow_box, narrow_len = 5, 0.25, 1.0
    n_wide, wide_box, wide_len = 40, 0.95, 0.5

    def setup(self, bl, seed: int, out_dir: Path):
        params = bl.params.make_params(P, K)
        opts = bl.dynamics.FlowOptions()
        rng = np.random.default_rng(seed)
        narrow = rng.uniform(-self.narrow_box, self.narrow_box, size=(self.n_narrow, 2 * K))
        wide = latin_hypercube(rng, self.n_wide, 2 * K, self.wide_box)
        inside = [
            d for d in wide
            if bl.dynamics.membership(
                bl.dynamics.init_state(d, self.delta, B0, S0, params, opts),
                self.delta, B0, params, opts,
            ).inside
        ]
        jobs = [(np.zeros(2 * K), S0 + self.narrow_len)]
        jobs += [(d, S0 + self.narrow_len) for d in narrow]
        jobs += [(d, S0 + self.wide_len) for d in inside]
        warm_caches(bl, params, opts)
        return SimpleNamespace(
            params=params, opts=opts, jobs=jobs, out_dir=out_dir, centre_csv=None,
        )

    def run_round(self, bl, inp, counter, between) -> Round:
        records, failed = [], 0
        for d, s_end in inp.jobs:
            between()
            try:
                st = bl.dynamics.init_state(d, self.delta, B0, S0, inp.params, inp.opts)
                records.append(bl.dynamics.run(
                    st, s_end, self.delta, B0, inp.params, ds=DS, opts=inp.opts,
                ))
            except Exception as exc:  # counted as a failed operation
                failed += 1
                _log(f"ensemble: seed {d.tolist()} failed: {exc!r}")
        s_units = sum(r.samples[-1].s - r.samples[0].s for r in records)
        return Round(
            attempted=len(inp.jobs), failed=failed, s_units=s_units,
            trajectories_needed=len(records),
            outputs={"records": records},
        )

    def check(self, bl, inp, rnd: Round) -> list[str]:
        records = rnd.outputs["records"]
        params = inp.params
        bad = checks.neutral_mode(records, K)
        quad = inp.opts.quad()
        pairs = []
        for rec in records:
            st = rec.final_state
            I = float(bl.params.scale_factor(st.s, K))
            inner = bl.grid.GridFunction(bl.dynamics.inner_nodes() / I, st.inner_values())
            dec = bl.hermite.SpectralDecomposition(st.s, st.dec.modes, inner)
            pairs.append((
                st.s,
                _bprime(bl, lambda: bl.operators.solve_bprime(dec, st.b, st.s, params, quad)),
                _bprime(bl, lambda: bl.projection.solve_bprime_projected(
                    st.dec.modes, inner, st.b, st.s, params, quad)),
            ))
        bad += checks.bprime_routes(pairs, K)
        bad += checks.mode_exits(records, self.delta, K)
        # the centre trajectory, written twice now and compared with the
        # first round's bytes: a rerun of the same inputs must match exactly
        inp.out_dir.mkdir(parents=True, exist_ok=True)
        path = inp.out_dir / "centre.csv"
        writes = []
        for _ in range(2):
            bl.serialize.write_trajectory_csv(records[0], params, path)
            writes.append(path.read_bytes())
        bad += checks.same_bytes(writes[0], writes[1], "centre trajectory CSV")
        if inp.centre_csv is None:
            inp.centre_csv = writes[0]
        bad += checks.same_bytes(inp.centre_csv, writes[0], "centre trajectory across rounds")
        return bad


def _bprime(bl, solve):
    try:
        return float(solve())
    except bl.operators.ModulationBreakdownError:
        return None


# -- shoot -------------------------------------------------------------------

class Shoot:
    """`blowlab shoot` through the CLI, into a scratch directory.

    At the default delta = 0.1 the centre seed survives every horizon up to
    14 and a horizon-15 search costs about 97 s per certificate on two
    vCPUs, too long to repeat in every run. delta = 1 (the largest the
    configuration allows) shrinks the box fast enough that the centre exits
    through mode 2 at s = 24.3, so a horizon of 5 bisects: six trajectories
    and the CLI's replay of the survivor. The inputs do not depend on the
    seed; the search is deterministic.
    """

    name = "shoot"
    delta, horizon = 1.0, 5.0
    box = 2.0  # the CLI's default shoot_box

    def setup(self, bl, seed: int, out_dir: Path):
        params = bl.params.make_params(P, K)
        warm_caches(bl, params, bl.dynamics.FlowOptions())
        argv = [
            "shoot", "--outdir", str(out_dir), "--s0", repr(S0),
            "--delta", repr(self.delta), "--horizon", repr(self.horizon),
        ]
        return SimpleNamespace(params=params, argv=argv, out_dir=out_dir)

    def run_round(self, bl, inp, counter, between) -> Round:
        u0 = counter.s_units
        counter.after_each = between  # the CLI call is one job; probe inside it
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = bl.cli.run_experiment(inp.argv)
        except Exception as exc:  # counted as a failed operation
            _log(f"shoot failed: {exc!r}")
            rc = None
        finally:
            counter.after_each = None
        cert = {}
        if rc == 0:
            cert = bl.serialize.load_json(inp.out_dir / "certificate.json")
        return Round(
            attempted=1, failed=int(rc != 0), s_units=counter.s_units - u0,
            trajectories_needed=cert.get("n_trajectories", 0),
            outputs={"rc": rc, "cert": cert},
        )

    def check(self, bl, inp, rnd: Round) -> list[str]:
        if rnd.outputs["rc"] != 0:
            return []  # a failed operation, counted in `failed`
        with open(inp.out_dir / "survivor-trajectory.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        bad = checks.shoot_certificate(
            rnd.outputs["cert"], rows, S0, self.horizon, self.box,
            self.delta, B0, P, K,
        )
        shutil.rmtree(inp.out_dir, ignore_errors=True)
        return bad


# -- direct ------------------------------------------------------------------

class Direct:
    """The cross-check solvers: grid kernels, no spectral machinery.

    One round is four operations: the physical blowup run from
    space-independent data with its blowup-time fit; the profile-seeded
    w-run on 1201 and on 2401 nodes of |y| <= 6, each with its distance
    series; and the profile comparison of the manufactured self-similar
    solution.
    """

    name = "direct"
    delta = 0.1  # the seed scale I^{-delta}(s0) of `blowlab direct`
    y_max, coarse, fine, s_len = 6.0, 1201, 2401, 2.0
    x_max, u_nodes, u_t_max = 10.0, 1001, 1.0
    seed_box = 0.05

    def setup(self, bl, seed: int, out_dir: Path):
        params = bl.params.make_params(P, K)
        rng = np.random.default_rng(seed)
        T = float(rng.uniform(0.09, 0.11))
        d = rng.uniform(-self.seed_box, self.seed_box, size=2 * K)
        b_star = float(rng.uniform(0.5, 2.0))

        xg = bl.grid.uniform_grid(self.x_max, self.u_nodes)
        u0 = bl.grid.GridFunction(xg, np.full_like(xg, params.kappa * T ** (-1.0 / (P - 1.0))))
        amp = float(bl.params.scale_factor(S0, K)) ** (-self.delta)
        w0 = {}
        for n in (self.coarse, self.fine):
            yg = bl.grid.uniform_grid(self.y_max, n)
            f, e = bl.params.eval_profile(yg, B0, params)
            psi = sum(di * amp * yg**i for i, di in enumerate(d))
            w0[n] = bl.grid.GridFunction(yg, f * (1.0 + e * psi))

        # the exact self-similar blowup u = (T - t)^{-1/(p-1)} f_b(x (T - t)^{-1/2k})
        ts = T - T * np.exp(-np.linspace(0.0, 6.0, 25))
        snaps = np.array([
            (T - t) ** (-1.0 / (P - 1.0))
            * bl.params.eval_profile(xg * (T - t) ** (-1.0 / (2 * K)), b_star, params)[0]
            for t in ts
        ])
        man = bl.direct.PdeRun(
            nodes=xg, times=ts, snapshots=snaps, sup_times=ts,
            sup_series=np.max(np.abs(snaps), axis=1), termination="blowup-threshold",
            frame="u",
        )
        return SimpleNamespace(params=params, T=T, u0=u0, w0=w0, b_star=b_star, man=man)

    def run_round(self, bl, inp, counter, between) -> Round:
        params, out, failed = inp.params, {}, 0

        def attempt(name, job):
            nonlocal failed
            between()
            try:
                out[name] = job()
            except Exception as exc:  # counted as a failed operation
                failed += 1
                _log(f"direct: {name} failed: {exc!r}")

        def u_job():
            urun = bl.direct.solve_u_physical(inp.u0, self.u_t_max, params)
            return urun, bl.direct.estimate_blowup_time(urun, params)

        def w_job(n):
            wrun = bl.direct.solve_w_direct(inp.w0[n], (S0, S0 + self.s_len), params)
            return wrun, bl.direct.profile_distance_series(wrun, params)

        attempt("u", u_job)
        attempt("coarse", lambda: w_job(self.coarse))
        attempt("fine", lambda: w_job(self.fine))
        attempt("manufactured", lambda: bl.direct.compare_profile(inp.man, inp.T, params))
        s_units = sum(
            float(out[n][0].times[-1] - out[n][0].times[0]) for n in ("coarse", "fine") if n in out
        )
        return Round(
            attempted=4, failed=failed, s_units=s_units, trajectories_needed=0,
            outputs=out,
        )

    def check(self, bl, inp, rnd: Round) -> list[str]:
        out, bad = rnd.outputs, []
        if "u" in out:
            urun, fit = out["u"]
            bad += checks.blowup_time(fit.T_hat, inp.T)
            bad += checks.sup_series(urun.sup_times, urun.sup_series, inp.T, P)
        if "coarse" in out and "fine" in out:
            a, b = out["coarse"][1], out["fine"][1]
            bad += checks.grid_convergence(a.times, a.distances, b.times, b.distances)
        if "manufactured" in out:
            man = out["manufactured"]
            bad += checks.manufactured(
                float(np.max(man.distances)), float(np.max(np.abs(man.b_series - inp.b_star))),
            )
        return bad


WORKLOADS = {w.name: w for w in (Ensemble(), Shoot(), Direct())}


# -- per-call medians at fixed states -----------------------------------------

def per_call_medians(bl, repeats: int = 60) -> dict[str, float]:
    """Median cost of single calls at two states of the ensemble's centre seed.

    The states sit at s = 20.1 (ten steps in, so the remainder is no longer
    zero) and s = 28; the medians pool both states.
    """
    ens = WORKLOADS["ensemble"]
    params = bl.params.make_params(P, K)
    opts = bl.dynamics.FlowOptions()
    quad = opts.quad()
    st = bl.dynamics.init_state(np.zeros(2 * K), ens.delta, B0, S0, params, opts)
    states = []
    for s_end in (S0 + 0.1, S0 + 8.0):
        st = bl.dynamics.run(st, s_end, ens.delta, B0, params, ds=DS, opts=opts).final_state
        states.append(st)

    def timed(fn, n):
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        return out

    samples: dict[str, list] = {k: [] for k in ("sources", "jets", "remainder", "step", "membership")}
    for st in states:
        I = float(bl.params.scale_factor(st.s, K))
        inner = bl.grid.GridFunction(bl.dynamics.inner_nodes() / I, st.inner_values())
        zero = bl.grid.GridFunction(inner.nodes, np.zeros_like(inner.values))
        modes, b, s = st.dec.modes, st.b, st.s
        proj = bl.projection.projected_sources(modes, inner, b, s, params, quad)
        bp = proj.bprime(params, opts.variant)
        samples["sources"] += timed(
            lambda: bl.projection.projected_sources(modes, inner, b, s, params, quad), repeats)
        samples["jets"] += timed(
            lambda: bl.projection.projected_sources(modes, zero, b, s, params, quad), repeats)
        samples["remainder"] += timed(
            lambda: bl.projection.remainder_source(proj, bp, modes, inner, b, s, params), repeats)
        samples["step"] += timed(lambda: bl.dynamics.step(st, DS, params, opts), repeats // 4)
        samples["membership"] += timed(
            lambda: bl.dynamics.membership(st, ens.delta, B0, params, opts), repeats)
    med = {k: float(np.median(v)) for k, v in samples.items()}
    return {
        "projection.projected_sources.us_per_call": 1e6 * med["sources"],
        "projection.jets.us_per_call": 1e6 * med["jets"],
        "projection.remainder_source.us_per_call": 1e6 * med["remainder"],
        "dynamics.step.ms_per_call": 1e3 * med["step"],
        "dynamics.membership.us_per_call": 1e6 * med["membership"],
    }
