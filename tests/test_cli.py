import argparse
import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from blowlab.cli import COMMANDS, _seeded_w_run, build_parser, run_experiment
from blowlab.config import DIRECT_N_NODES, DIRECT_Y_MAX, ConfigError, RunConfig, load_object
from blowlab.dynamics import FlowOptions, init_state, run
from blowlab.grid import uniform_grid
from blowlab.params import eval_profile, scale_factor
from blowlab.serialize import load_json, save_json, write_trajectory_csv


def test_config_defaults_and_round_trip():
    cfg = RunConfig()
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    integral = RunConfig.from_dict({"k": 3.0, "shoot_depth": 12.0})
    assert (integral.k, integral.shoot_depth) == (3, 12)
    assert type(integral.k) is int and type(integral.shoot_depth) is int


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: not_a_key"):
        RunConfig.from_dict({"not_a_key": 1})


# settings with one value in use, now constants of the flow and the direct
# experiments; a config that still names one is rejected, not ignored
RETIRED_KEYS = [
    "y_max", "n_nodes", "sem_floor", "blowup_threshold", "y_fit", "y_window",
    "direct_y_max", "direct_n_nodes", "direct_s_len", "u_x_max", "u_n_nodes", "u_t_max",
]


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_config_rejects_retired_keys(key):
    assert key not in RunConfig().to_dict()
    with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
        RunConfig.from_dict({key: 1})


@pytest.mark.parametrize(
    "patch",
    [
        {"p": 1.0},
        {"k": 1},
        {"delta": 0.0},
        {"ds": 0.2},
        {"variant": "bogus"},
        {"d": [1.0, 2.0]},
        {"shoot_depth": 0},
        {"d": [0.0, 2.5, 0.0, 0.0]},
        {"k": 2.5},
        {"shoot_depth": True},
        {"shoot_depth": 64.5},
        {"shoot_depth": 3.5},
        {"u_T": 1.0},
        {"u_T": 2.0},
        # float keys take finite numbers only: no bools, no infinities
        {"horizon": float("inf")},
        {"p": float("inf")},
        {"b0": float("inf")},
        {"s0": float("inf")},
        {"horizon": True},
        {"b0": True},
        {"delta": True},
        {"shoot_box": True},
        {"d": [True, 0.0, 0.0, 0.0]},
        # bool keys take JSON true and false only, outdir a string only
        {"linear_only": "false"},
        {"linear_only": 1},
        {"even_only": 0.0},
        {"outdir": 5},
    ],
)
def test_config_rejects_bad_values(patch):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(patch)


def test_cli_rejects_an_infinite_horizon(tmp_path, capsys):
    # an infinite horizon is a config error (exit 2), not a crash in the run
    rc = run_experiment(["simulate", "--horizon", "inf", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "horizon must be a finite number" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_simulate_with_a_sample_count_beyond_the_floats_is_a_numerical_failure(
    tmp_path, capsys,
):
    # (s_max - s0) / ds overflows to inf: exit 3, not an OverflowError
    rc = run_experiment(["simulate", "--horizon", "1e308", "--outdir", str(tmp_path)])
    assert rc == 3
    assert "finite sample count" in capsys.readouterr().err


def test_cli_simulate_past_the_projection_scale_limit_is_a_numerical_failure(tmp_path, capsys):
    # I(s)^{M_floor} overflows past s = 567.8: exit 3 with the limit named,
    # not a "nonfinite" exit recorded at s0 with exit 0
    rc = run_experiment(["simulate", "--s0", "1000", "--horizon", "0.2", "--outdir", str(tmp_path)])
    assert rc == 3
    assert "past s = 567.8" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"p\": 3.0,\n  oops\n}\n")
    with pytest.raises(ConfigError, match="line 3"):
        RunConfig.from_dict(load_object(str(bad), "config"))

    good = tmp_path / "good.json"
    good.write_text(json.dumps({"p": 2.5, "k": 2, "horizon": 1.0}))
    cfg = RunConfig.from_dict(load_object(str(good), "config"))
    assert cfg.p == 2.5


def test_trajectory_csv_round_trip(tmp_path, params3):
    opts = FlowOptions()
    st = init_state(np.array([0.0, 1.9, 0.0, 0.0]), 0.1, 1.0, 20.0, params3, opts)
    rec = run(st, 21.0, 0.1, 1.0, params3, ds=0.01, opts=opts)
    path = write_trajectory_csv(rec, params3, tmp_path / "t.csv")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "s", "b", "bprime", "q_0", "q_1", "q_2", "q_3", "q_4", "q_5",
        "qminus_seminorm", "inside", "exit_mode",
    ]
    assert len(rows) == len(rec.samples) + 1
    # full round-trip precision on numeric fields
    assert float(rows[1][3]) == rec.samples[0].modes[0]
    assert float(rows[-1][4]) == rec.samples[-1].modes[1]
    assert rows[-1][-1] == "1"  # exit through mode 1


def test_json_round_trip_bit_exact(tmp_path):
    record = {
        "d_star": [0.1 + 0.2, -1.2345678912345678e-7, 3.0],
        "margins": {"mode_0": 0.4050512315124, "b_high": 1.0},
        "n": 17,
        "nested": {"ok": True},
    }
    p = save_json(record, tmp_path / "r.json")
    back = load_json(p)
    assert back == record


def test_cli_unknown_and_bad_config(tmp_path):
    assert run_experiment(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"mystery": 1}))
    assert run_experiment(["simulate", "--config", str(cfgfile)]) == 2
    cfgfile.write_text(json.dumps({"shoot_depth": 200.5}))
    assert run_experiment(["simulate", "--config", str(cfgfile)]) == 2
    # a string is not a bool: "false" would otherwise run the linear-only flow
    cfgfile.write_text(json.dumps({"linear_only": "false", "outdir": str(tmp_path / "s")}))
    assert run_experiment(["shoot", "--config", str(cfgfile)]) == 2
    cfgfile.write_text(json.dumps({"outdir": 5}))
    assert run_experiment(["simulate", "--config", str(cfgfile)]) == 2
    assert not (tmp_path / "s").exists()
    assert run_experiment(["shoot", "--outdir", str(tmp_path), "--jobs", "2"]) == 2


def test_cli_outdir_that_cannot_be_created_is_a_config_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    argv = ["simulate", "--outdir", str(afile / "x"), "--horizon", "0.05"]
    assert run_experiment(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert afile.read_text() == "not a directory"
    assert list(tmp_path.iterdir()) == [afile]  # no manifest anywhere


def test_cli_direct_rejects_blowup_time_past_the_run(tmp_path):
    # the u-run ends at t = 1, so a blowup time of 2 is a config error, not a
    # run that integrates to its end and then fails to find the blowup
    assert run_experiment(["direct", "--outdir", str(tmp_path), "--u-T", "2"]) == 2
    assert not (tmp_path / "u-sup-series.csv").exists()


def test_cli_direct_runs_at_a_scale_time_whose_tau_underflows(tmp_path, capfd):
    # at s0 = 1e5, tau = e^{-s} underflows to 0 and I(s0) overflows: the
    # w-run's fit takes log tau = -s, and its seed I^{-delta}(s0) as one
    # exponential; no overflow or log(0) warning, no LAPACK complaint
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_experiment(["direct", "--s0", "1e5", "--outdir", str(tmp_path)])
    err = capfd.readouterr().err
    assert rc == 0, err
    assert "DLASCL" not in err and "RuntimeWarning" not in err
    assert (tmp_path / "w-profile-series.csv").exists()


def test_the_direct_w_run_starts_from_criterion_8s_seed():
    # direct and compare seed the w-run with I^{-delta}(s0) as gamma_map and
    # criterion 8 form it, float(scale_factor(s0, k)) ** -delta; at k = 3,
    # s0 = 20, delta = 0.1 the one exponential exp(-delta s0 (1 - 1/k) / 2)
    # differs from it in the last bit
    cfg = RunConfig.from_dict({"k": 3, "d": [0.1, -0.05, 0.08, 0.02, 0.01, -0.03]})
    params = cfg.params()
    wrun, _ = _seeded_w_run(np.asarray(cfg.seed_vector()), cfg, params)
    yg = uniform_grid(DIRECT_Y_MAX, DIRECT_N_NODES)
    f, e = eval_profile(yg, cfg.b0, params)
    amp = float(scale_factor(cfg.s0, params.k)) ** -cfg.delta
    psi = np.zeros_like(yg)
    for i, di in enumerate(cfg.d):
        psi += di * amp * yg**i
    assert np.array_equal(wrun.snapshots[0], f * (1.0 + e * psi))


def test_cli_simulate_out_of_box(tmp_path):
    code = run_experiment(
        ["simulate", "--outdir", str(tmp_path), "--d", "3.5,0,0,0", "--horizon", "0.5"]
    )
    assert code == 2


def test_cli_simulate_writes_artifacts_and_is_deterministic(tmp_path):
    args = [
        "simulate", "--outdir", str(tmp_path / "a"), "--horizon", "0.2",
        "--d", "0.1,0.2,0,0",
    ]
    assert run_experiment(args) == 0
    args2 = [
        "simulate", "--outdir", str(tmp_path / "b"), "--horizon", "0.2",
        "--d", "0.1,0.2,0,0",
    ]
    assert run_experiment(args2) == 0
    csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert csv_a == csv_b

    man = load_json(tmp_path / "a" / "manifest-simulate.json")
    assert man["command"] == "simulate"
    assert man["config"]["d"] == [0.1, 0.2, 0.0, 0.0]
    assert "trajectory" in man["artifacts"]


def test_cli_shoot_then_compare_chain(tmp_path, monkeypatch):
    # shoot runs in a/ with a relative --outdir, so its manifest names the
    # certificate relative to a/; compare follows that manifest from tmp_path
    (tmp_path / "a").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    code = run_experiment(["shoot", "--outdir", "shoot", "--horizon", "2.0", "--shoot-depth", "12"])
    assert code == 0
    out_shoot = tmp_path / "a" / "shoot"
    man = load_json(out_shoot / "manifest-shoot.json")
    assert man["artifacts"]["certificate"] == str(Path("shoot") / "certificate.json")
    cert = load_json(out_shoot / "certificate.json")
    assert cert["failed"] is False
    assert "d_star" in cert

    monkeypatch.chdir(tmp_path)
    code2 = run_experiment(
        ["compare", "--outdir", "cmp", "--from", str(Path("a") / "shoot" / "manifest-shoot.json")]
    )
    report = load_json(tmp_path / "cmp" / "compare-report.json")
    assert report["manufactured"]["passed"] is True
    assert report["survivor_source"].endswith("manifest-shoot.json")
    assert report["d"] == cert["d_star"]
    assert code2 in (0, 4)  # trend checks are exercised by the acceptance suite


# a --from file compare cannot take a survivor from, by what it holds, and
# the check it fails
BAD_SURVIVORS = {
    "missing": (None, "No such file"),
    "unparsable": ("{\"d_star\": [0.0,", "line 1, column"),
    "list": ([0.0, 0.0, 0.0, 0.0], "must be a JSON object"),
    "no_d_star": ({"failed": False, "n_trajectories": 6}, "no d_star"),
    "manifest_without_certificate": (
        {"command": "simulate", "artifacts": {"trajectory": "trajectory.csv"}},
        "names no certificate",
    ),
    "d_star_of_wrong_length": ({"failed": False, "d_star": [0.0, 0.0, 0.0]}, "length 2k"),
    "d_star_outside_the_box": ({"failed": False, "d_star": [0.0, 2.5, 0.0, 0.0]}, r"\|d_i\| <= 2"),
}


def _write_shoot_manifest(directory: Path, config=None) -> None:
    """A valid shoot manifest beside a certificate in directory."""
    save_json({
        "command": "shoot", "config": RunConfig().to_dict() if config is None else config,
        "artifacts": {"certificate": str(directory / "certificate.json")},
    }, directory / "manifest-shoot.json")


@pytest.mark.parametrize("content, message", BAD_SURVIVORS.values(), ids=BAD_SURVIVORS.keys())
def test_cli_compare_rejects_a_bad_survivor_file(tmp_path, capsys, content, message):
    # a bare certificate has its run's manifest beside it, so each file
    # fails on its own check
    _write_shoot_manifest(tmp_path)
    src = tmp_path / "from.json"
    if isinstance(content, str):
        src.write_text(content)
    elif content is not None:
        src.write_text(json.dumps(content))
    out = tmp_path / "cmp"
    assert run_experiment(["compare", "--outdir", str(out), "--from", str(src)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and re.search(message, err), err
    assert not out.exists()


def test_cli_compare_from_a_certificate_needs_its_runs_manifest(tmp_path, capsys):
    # the seed's delta, s0, b0, p and k are the shoot run's, which a bare
    # certificate does not record
    cert = tmp_path / "certificate.json"
    save_json({"failed": False, "d_star": [0.0, 0.0, 0.0, 0.0]}, cert)
    out = tmp_path / "cmp"
    assert run_experiment(["compare", "--outdir", str(out), "--from", str(cert)]) == 2
    assert "no manifest-shoot.json beside the certificate" in capsys.readouterr().err
    _write_shoot_manifest(tmp_path, config={"p": 3.0, "k": 2})
    assert run_experiment(["compare", "--outdir", str(out), "--from", str(cert)]) == 2
    assert "records no p, k, b0, delta, s0" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def shoot_delta_1(tmp_path_factory):
    """The output directory of shoot --delta 1 --horizon 5."""
    out = tmp_path_factory.mktemp("shoot") / "s"
    assert run_experiment(["shoot", "--delta", "1", "--horizon", "5", "--outdir", str(out)]) == 0
    return out


def test_cli_compare_from_seeds_at_the_shoot_runs_configuration(tmp_path, shoot_delta_1):
    # compare --from reads d_star with the shoot run's delta = 1, so its
    # trend is that of compare --delta 1 --d d_star, from the manifest or
    # from the certificate beside it
    d_star = load_json(shoot_delta_1 / "certificate.json")["d_star"]
    seed = ",".join(repr(x) for x in d_star)
    runs = {
        "manifest": ["--from", str(shoot_delta_1 / "manifest-shoot.json")],
        "certificate": ["--from", str(shoot_delta_1 / "certificate.json")],
        "flags": ["--delta", "1", "--d", seed],
    }
    reports = {}
    for name, argv in runs.items():
        assert run_experiment(["compare", "--outdir", str(tmp_path / name), *argv]) in (0, 4)
        reports[name] = load_json(tmp_path / name / "compare-report.json")
        assert reports[name]["d"] == d_star
        config = load_json(tmp_path / name / "manifest-compare.json")["config"]
        assert config["delta"] == 1.0 and config["d"] == d_star
    trend = reports["flags"]["survivor_trend"]
    assert reports["manifest"]["survivor_trend"] == trend
    assert reports["certificate"]["survivor_trend"] == trend


def test_cli_compare_from_refuses_a_conflicting_setting(tmp_path, capsys, shoot_delta_1):
    # --from sets d, p, k, b0, delta and s0; another value for one of them,
    # by a flag or by --config, or any --d, is a config error: nothing written
    manifest = str(shoot_delta_1 / "manifest-shoot.json")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"delta": 0.1}))
    out = tmp_path / "cmp"
    for extra, message in (
        (["--delta", "0.1"], "takes delta = 1.0 from the shoot run, not 0.1"),
        (["--config", str(cfg)], "takes delta = 1.0 from the shoot run, not 0.1"),
        (["--d", "0,0,0,0"], "no --d"),
        (["--s0", "21"], "takes s0 = 20.0"),
    ):
        assert run_experiment(["compare", "--outdir", str(out), "--from", manifest, *extra]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # the shoot run's own value is no conflict
    argv = ["compare", "--outdir", str(out), "--from", manifest, "--delta", "1", "--k", "2"]
    assert run_experiment(argv) in (0, 4)


def test_cli_verify_spectral(tmp_path):
    code = run_experiment(["verify-spectral", "--outdir", str(tmp_path)])
    assert code == 0
    rep = load_json(tmp_path / "spectral-report.json")
    assert rep["passed"] is True
    assert rep["spectral"]["orthogonality_rel_err"] < 1e-8


def test_cli_simulate_records_modulation_breakdown(tmp_path):
    args = [
        "simulate", "--outdir", str(tmp_path), "--horizon", "8.0",
        "--d=-0.87,0.55,-0.77,-0.32",
    ]
    assert run_experiment(args) == 0
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[-1][-1] == "modulation"
    assert all(row[-1] == "" for row in rows[1:-1])
    man = load_json(tmp_path / "manifest-simulate.json")
    assert man["exit"]["bound"] == "modulation"
    assert man["exit"]["omega"] == -1
    assert "denominator" in man["exit"]["reason"]


def test_cli_shoot_search_failure_reports_the_best_candidate(tmp_path):
    # at depth 1 a coordinate's second cut ends the search; the first exit
    # has already set the best candidate, which the certificate reports
    args = ["shoot", "--outdir", str(tmp_path), "--delta", "1", "--horizon", "5",
            "--shoot-depth", "1"]
    assert run_experiment(args) == 3
    cert = load_json(tmp_path / "certificate.json")
    assert cert["failed"] is True
    assert "exceeded search depth 1" in cert["message"]
    assert isinstance(cert["best_s_star"], float)
    assert len(cert["best_d"]) == 4
    assert not (tmp_path / "survivor-trajectory.csv").exists()
    # the failed search still gets its manifest, naming the certificate
    man = load_json(tmp_path / "manifest-shoot.json")
    assert man["command"] == "shoot"
    assert man["artifacts"] == {"certificate": str(tmp_path / "certificate.json")}


def test_cli_commands_are_the_parsers_subcommands(tmp_path, monkeypatch):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(COMMANDS) == set(sub.choices)

    # a handler that raises gets its exit code and no manifest
    def failing(cfg, out, args):
        raise ValueError("step produced non-finite values")

    monkeypatch.setitem(COMMANDS, "direct", failing)
    assert run_experiment(["direct", "--outdir", str(tmp_path)]) == 3
    assert not (tmp_path / "manifest-direct.json").exists()


def test_cli_simulate_accepts_negative_first_seed_coordinate(tmp_path):
    seed = "-0.87,0.55,-0.77,-0.32"
    spaced = ["simulate", "--outdir", str(tmp_path / "a"), "--horizon", "0.05", "--d", seed]
    joined = ["simulate", "--outdir", str(tmp_path / "b"), "--horizon", "0.05", f"--d={seed}"]
    assert run_experiment(spaced) == 0
    assert run_experiment(joined) == 0
    man = load_json(tmp_path / "a" / "manifest-simulate.json")
    assert man["config"]["d"] == [-0.87, 0.55, -0.77, -0.32]
    csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "trajectory.csv").read_bytes()


def test_cli_shoot_writes_the_searched_survivor(tmp_path):
    # the survivor CSV comes from the search's own trajectory, and matches a
    # fresh integration of d* byte for byte; at delta = 1 the centre seed
    # exits before s0 + 4.5, so the survivor is not the first trajectory
    from blowlab.shooting import exit_map

    overrides = {
        "delta": 1.0, "horizon": 4.5, "ds": 0.05, "shoot_depth": 12,
        "outdir": str(tmp_path / "s"),
    }
    argv = ["shoot"] + [
        tok for key, val in overrides.items()
        for tok in (f"--{key.replace('_', '-')}", str(val))
    ]
    assert run_experiment(argv) == 0
    cert = load_json(tmp_path / "s" / "certificate.json")
    assert cert["n_trajectories"] > 1
    assert "survivor" not in cert
    # the trail lists every trajectory, the survivor last
    assert len(cert["trail"]) == cert["n_trajectories"]
    assert cert["trail"][-1]["bound"] is None

    cfg = RunConfig.from_dict(overrides)
    fresh = exit_map(np.array(cert["d_star"]), cfg.shoot_config(), cfg.params())
    assert fresh.survived
    path = write_trajectory_csv(fresh.record, cfg.params(), tmp_path / "fresh.csv")
    assert path.read_bytes() == (tmp_path / "s" / "survivor-trajectory.csv").read_bytes()
    # sample times come from an integer count, so the last is s0 + horizon
    s = [row.s for row in fresh.record.samples]
    assert s == [20.0 + i * 0.05 for i in range(len(s))]
    assert s[-1] == 20.0 + 4.5

    # a rerun writes the same certificate and survivor CSV, byte for byte
    argv[argv.index("--outdir") + 1] = str(tmp_path / "again")
    assert run_experiment(argv) == 0
    for name in ("certificate.json", "survivor-trajectory.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "s" / name).read_bytes()
