"""Command-line entry points.

Subcommands: verify-spectral, simulate, shoot, direct, compare, each a
handler in COMMANDS. A handler writes its artifacts into the output
directory, and run_experiment writes the run's manifest (config echo,
version, wall time, artifact paths) beside them. Exit codes: 0 success,
2 config error, 3 numerical failure, 4 failed checks.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    DIRECT_N_NODES, DIRECT_S_LEN, DIRECT_Y_MAX, U_N_NODES, U_T_MAX, U_X_MAX, ConfigError, RunConfig,
    load_object,
)
from .direct import (
    PdeRun,
    ProfileComparison,
    compare_profile,
    estimate_blowup_time,
    profile_distance_series,
    solve_u_physical,
    solve_w_direct,
)
from .dynamics import init_state, run
from .grid import GridFunction, uniform_grid
from .params import eval_profile, scale_factor
from .serialize import fmt, save_json, write_trajectory_csv
from .shooting import SearchFailureError, search
from .verify import verify_mehler, verify_spectral

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECKS = 4

# a flag for each int, float and str key of RunConfig (its annotations are strings)
_OVERRIDE_KEYS = [
    (f.name, {"int": int, "float": float, "str": str}[f.type])
    for f in dataclasses.fields(RunConfig)
    if f.type in ("int", "float", "str")
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowlab",
        description="numerical laboratory for flat self-similar blowup",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file")
        for name, typ in _OVERRIDE_KEYS:
            sp.add_argument(f"--{name.replace('_', '-')}", type=typ, dest=name)
        sp.add_argument("--d", type=str, help="comma-separated seed coordinates")
        return sp

    add_common(sub.add_parser("verify-spectral", help="run the basis/propagator identity suites"))
    add_common(sub.add_parser("simulate", help="integrate one modulated trajectory"))
    shoot_p = add_common(sub.add_parser("shoot", help="search for a surviving seed"))
    shoot_p.add_argument("--even-only", action="store_true", dest="even_only")
    shoot_p.add_argument("--linear-only", action="store_true", dest="linear_only")
    add_common(sub.add_parser("direct", help="run the direct PDE solvers"))
    cmp_p = add_common(sub.add_parser("compare", help="profile-trend checks against a survivor"))
    cmp_p.add_argument("--from", dest="from_path", help="shoot manifest or certificate JSON")
    return parser


def _load_config(args) -> RunConfig:
    data = {}
    if args.config:  # the keys it sets, each checked with the file's own values
        data = load_object(args.config, "config")
        RunConfig.from_dict(data)
    for name, _ in _OVERRIDE_KEYS:
        val = getattr(args, name, None)
        if val is not None:
            data[name] = val
    for flag in ("even_only", "linear_only"):
        if getattr(args, flag, False):
            data[flag] = True
    if getattr(args, "d", None):
        data["d"] = [float(x) for x in args.d.split(",")]
    if getattr(args, "from_path", None):  # compare's survivor, under the checks of a seed
        data = _with_survivor(data, args.from_path)
    return RunConfig.from_dict(data)


# the keys of the shoot run that compare --from seeds its w-run with, besides d_star
_SURVIVOR_KEYS = ("p", "k", "b0", "delta", "s0")


def _with_survivor(data: dict, path: str) -> dict:
    """data with d_star and _SURVIVOR_KEYS of the shoot run at path: its manifest, or
    its certificate with manifest-shoot.json beside it. data may set none of them to
    another value, and no seed d at all."""
    if data.get("d") is not None:
        raise ConfigError("--from takes the seed d from the shoot run; give no --d with it")
    src = load_object(path, "a shoot manifest or certificate")
    if "artifacts" in src:  # a manifest; follow it to the certificate
        manifest, man_path = src, path
        named = src["artifacts"].get("certificate") if isinstance(src["artifacts"], dict) else None
        if not isinstance(named, str):
            raise ConfigError(f"{path}: the manifest names no certificate")
        # each command writes its artifacts beside its manifest
        path = Path(path).parent / Path(named).name
        cert = load_object(path, "a shoot certificate")
    else:  # a certificate; its run's manifest sits beside it
        cert, man_path = src, Path(path).parent / "manifest-shoot.json"
        if not man_path.is_file():
            raise ConfigError(f"{path}: no manifest-shoot.json beside the certificate")
        manifest = load_object(man_path, "a shoot manifest")
    config = manifest.get("config")
    if not (isinstance(config, dict) and all(key in config for key in _SURVIVOR_KEYS)):
        raise ConfigError(f"{man_path}: the manifest records no {', '.join(_SURVIVOR_KEYS)}")
    if cert.get("failed"):
        raise ConfigError(f"{path}: shoot run failed; no survivor to compare")
    if "d_star" not in cert:
        raise ConfigError(f"{path}: no d_star in a shoot certificate")
    for key in _SURVIVOR_KEYS:
        if key in data and data[key] != config[key]:
            raise ConfigError(f"--from takes {key} = {config[key]!r} from the shoot run, "
                              f"not {data[key]!r}")
    return {**data, **{key: config[key] for key in _SURVIVOR_KEYS}, "d": cert["d_star"]}


# Each command handler takes (cfg, out, args), writes its artifacts into out
# and returns (exit code, {artifact name: path}, extra manifest fields or None).


def _cmd_verify_spectral(cfg: RunConfig, out: Path, args):
    rep_s = verify_spectral()
    rep_m = verify_mehler(k=cfg.k)
    ok = rep_s.passed() and rep_m.passed()
    report = {"spectral": rep_s.to_dict(), "mehler": rep_m.to_dict(), "passed": ok}
    path = save_json(report, out / "spectral-report.json")
    print(f"max orthogonality relative error: {rep_s.orthogonality_rel_err:.3e}")
    print(f"max generator-action relative error: {rep_s.jordan_rel_err:.3e}")
    print(f"max product-identity error: {rep_s.product_identity_err:.3e}")
    print(f"max propagator multiplier error: {rep_m.multiplier_rel_err:.3e}")
    print(f"semigroup composition error: {rep_m.semigroup_err:.3e}")
    print(f"kernel mass relative error: {rep_m.mass_rel_err:.3e}")
    print("PASS" if ok else "FAIL")
    return (EXIT_OK if ok else EXIT_CHECKS), {"report": str(path)}, None


def _cmd_simulate(cfg: RunConfig, out: Path, args):
    params = cfg.params()
    d = np.asarray(cfg.seed_vector())
    opts = cfg.flow_options()
    state0 = init_state(d, cfg.delta, cfg.b0, cfg.s0, params, opts)
    record = run(
        state0, cfg.s0 + cfg.horizon, cfg.delta, cfg.b0, params, ds=cfg.ds, opts=opts
    )
    csv_path = write_trajectory_csv(record, params, out / "trajectory.csv")
    ex = record.exit
    if ex is None:
        print(f"survived to s = {record.samples[-1].s:.4f}")
    else:
        print(f"exited at s = {ex.s_star:.4f} through {ex.bound}")
    exit_info = None if ex is None else {
        "s_star": ex.s_star,
        "bound": ex.bound,
        "mode": ex.mode,
        "omega": ex.omega,
        "reason": ex.reason,
    }
    return EXIT_OK, {"trajectory": str(csv_path)}, {"exit": exit_info}


def _cmd_shoot(cfg: RunConfig, out: Path, args):
    params = cfg.params()
    shoot_cfg = cfg.shoot_config()
    try:
        d_star, cert = search(shoot_cfg, params)
    except SearchFailureError as exc:
        info = {
            "failed": True,
            "message": str(exc),
            "best_d": [float(x) for x in exc.best_d],
            "best_s_star": exc.best_result.s_star,
        }
        path = save_json(info, out / "certificate.json")
        print(f"search failed: {exc}")
        return EXIT_NUMERICAL, {"certificate": str(path)}, None

    csv_path = write_trajectory_csv(
        cert.survivor.record, params, out / "survivor-trajectory.csv"
    )
    cert_path = save_json({"failed": False, **cert.to_dict()}, out / "certificate.json")
    print(f"survivor d* = {[f'{x:.3e}' for x in d_star]} after {cert.n_trajectories} trajectories")
    print(f"b drift over last half horizon: {cert.b_drift:.3e}")
    return EXIT_OK, {"certificate": str(cert_path), "trajectory": str(csv_path)}, None


def _cmd_direct(cfg: RunConfig, out: Path, args):
    params = cfg.params()

    # physical-frame blowup experiment from space-independent data
    xg = uniform_grid(U_X_MAX, U_N_NODES)
    amp = params.kappa * cfg.u_T ** (-1.0 / (params.p - 1.0))
    u0 = GridFunction(xg, np.full_like(xg, amp))
    urun = solve_u_physical(u0, U_T_MAX, params)
    fit = estimate_blowup_time(urun, params)
    _write_series_csv(out / "u-sup-series.csv", ("t", "sup_u"), urun.sup_times, urun.sup_series)

    # self-similar-frame run seeded by the configured d
    wrun, series = _seeded_w_run(np.asarray(cfg.seed_vector()), cfg, params)
    _write_series_csv(
        out / "w-profile-series.csv", ("s", "b_fit", "sup_distance"),
        series.times, series.b_series, series.distances,
    )

    report = {
        "blowup_fit": {
            "T_hat": fit.T_hat,
            "T_true": cfg.u_T,
            "rel_err": abs(fit.T_hat - cfg.u_T) / cfg.u_T,
            "slope": fit.slope,
            "residual": fit.residual,
        },
        "w_run": {
            "termination": wrun.termination,
            "n_snapshots": int(len(wrun.times)),
            "loglog_slope": series.loglog_slope,
        },
    }
    rep_path = save_json(report, out / "direct-report.json")
    print(f"blowup time recovered: {fit.T_hat:.6f} (true {cfg.u_T}, rel err {abs(fit.T_hat-cfg.u_T)/cfg.u_T:.2e})")
    print(f"w-run termination: {wrun.termination}; profile distance slope {series.loglog_slope:.3f}")
    return EXIT_OK, {
        "report": str(rep_path),
        "u_sup_series": str(out / "u-sup-series.csv"),
        "w_profile_series": str(out / "w-profile-series.csv"),
    }, None


def _seeded_w_run(d: np.ndarray, cfg: RunConfig, params) -> tuple[PdeRun, ProfileComparison]:
    """The w-run from f_b0 (1 + e_b0 sum_i d_i I^{-delta}(s0) y^i) over DIRECT_S_LEN
    units of s, and its profile series."""
    yg = uniform_grid(DIRECT_Y_MAX, DIRECT_N_NODES)
    f, e = eval_profile(yg, cfg.b0, params)
    # I^{-delta}(s0) as gamma_map forms it; where I(s0) overflows, its power is 0
    with np.errstate(over="ignore"):
        amp = float(scale_factor(cfg.s0, params.k)) ** -cfg.delta
    psi = np.zeros_like(yg)
    for i, di in enumerate(d):
        psi += di * amp * yg**i
    w0 = GridFunction(yg, f * (1.0 + e * psi))
    wrun = solve_w_direct(w0, (cfg.s0, cfg.s0 + DIRECT_S_LEN), params)
    return wrun, profile_distance_series(wrun, params)


def _cmd_compare(cfg: RunConfig, out: Path, args):
    params = cfg.params()

    d = np.asarray(cfg.seed_vector())  # d_star under --from, at its run's p, k, b0, delta, s0
    source = args.from_path or "config"

    # (a) manufactured solution: distances and fitted b must be exact
    T, b_star = cfg.u_T, cfg.b0
    xg = uniform_grid(U_X_MAX, U_N_NODES)
    ts = T - T * np.exp(-np.linspace(0.0, 6.0, 25))
    snaps = np.array(
        [
            (T - t) ** (-1.0 / (params.p - 1.0))
            * eval_profile(xg * (T - t) ** (-1.0 / (2 * params.k)), b_star, params)[0]
            for t in ts
        ]
    )
    man_run = PdeRun(
        nodes=xg, times=ts, snapshots=snaps, sup_times=ts,
        sup_series=np.array([float(np.max(np.abs(s))) for s in snaps]),
        termination="blowup-threshold", frame="u",
    )
    man = compare_profile(man_run, T, params)
    man_dist = float(np.max(man.distances))
    man_berr = float(np.max(np.abs(man.b_series - b_star)))

    # (b) survivor-seeded self-similar run: trend checks; DIRECT_S_LEN
    # covers the five dyadic b increments below
    _, series = _seeded_w_run(d, cfg, params)

    half = cfg.s0 + DIRECT_S_LEN / 2.0
    mask = series.times >= half - 1e-9
    ds_half = series.distances[mask]
    checkpoints = np.linspace(half, cfg.s0 + DIRECT_S_LEN, 6)
    d_checks = np.interp(checkpoints, series.times, series.distances)
    non_increasing = bool(np.all(np.diff(d_checks) <= 1e-12))

    s_dyadic = cfg.s0 + np.log(2.0) * np.arange(6)
    b_dyadic = np.interp(s_dyadic, series.times, series.b_series)
    increments = np.abs(np.diff(b_dyadic))
    shrinking = bool(np.all(np.diff(increments) <= 1e-15))

    report = {
        "survivor_source": source,
        "d": [float(x) for x in d],
        "manufactured": {
            "max_distance": man_dist,
            "max_b_error": man_berr,
            "passed": man_dist < 1e-6 and man_berr < 1e-6,
        },
        "survivor_trend": {
            "distance_checkpoints": [float(x) for x in d_checks],
            "non_increasing": non_increasing,
            "b_dyadic_increments": [float(x) for x in increments],
            "increments_shrinking": shrinking,
            "n_half_window_points": int(ds_half.size),
        },
    }
    ok = report["manufactured"]["passed"] and non_increasing and shrinking
    report["passed"] = ok
    rep_path = save_json(report, out / "compare-report.json")
    print(f"manufactured: max distance {man_dist:.2e}, max b error {man_berr:.2e}")
    print(f"survivor trend: non-increasing={non_increasing}, shrinking increments={shrinking}")
    print("PASS" if ok else "FAIL")
    return (EXIT_OK if ok else EXIT_CHECKS), {"report": str(rep_path)}, None


COMMANDS = {
    "verify-spectral": _cmd_verify_spectral,
    "simulate": _cmd_simulate,
    "shoot": _cmd_shoot,
    "direct": _cmd_direct,
    "compare": _cmd_compare,
}


def _write_series_csv(path, header, *columns) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([fmt(v) for v in row])


def _is_number_list(text: str) -> bool:
    try:
        [float(x) for x in text.split(",")]
    except ValueError:
        return False
    return True


def _attach_seed_values(argv) -> list[str]:
    """Rewrite `--d <list>` as `--d=<list>`.

    argparse takes a separate token that starts with '-' for an option unless
    it is a single negative number, so `--d -0.87,0.55,-0.77,-0.32` would
    leave --d without its value.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--d" and _is_number_list(tok):
            out[-1] = f"--d={tok}"
        else:
            out.append(tok)
    return out


def run_experiment(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_seed_values(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args)
        out = Path(cfg.outdir)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    t0 = time.time()
    try:
        code, artifacts, extra = COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SearchFailureError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    manifest = {
        "command": args.command,
        "config": cfg.to_dict(),
        "version": __version__,
        "wall_time_s": time.time() - t0,
        "artifacts": artifacts,
        **(extra or {}),
    }
    save_json(manifest, out / f"manifest-{args.command}.json")
    return code


def main() -> None:
    sys.exit(run_experiment(sys.argv[1:]))


if __name__ == "__main__":
    main()
