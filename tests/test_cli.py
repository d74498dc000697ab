import csv
import json

import numpy as np
import pytest

from blowlab.cli import run_experiment
from blowlab.config import ConfigError, RunConfig
from blowlab.dynamics import FlowOptions, init_state, run
from blowlab.params import make_params
from blowlab.serialize import load_json, save_json, write_trajectory_csv


def test_config_defaults_and_round_trip():
    cfg = RunConfig()
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: not_a_key"):
        RunConfig.from_dict({"not_a_key": 1})


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
    ],
)
def test_config_rejects_bad_values(patch):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(patch)


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"p\": 3.0,\n  oops\n}\n")
    with pytest.raises(ConfigError, match="line 3"):
        RunConfig.from_file(str(bad))

    good = tmp_path / "good.json"
    good.write_text(json.dumps({"p": 2.5, "k": 2, "horizon": 1.0}))
    cfg = RunConfig.from_file(str(good))
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


def test_cli_shoot_then_compare_chain(tmp_path):
    out_shoot = tmp_path / "shoot"
    code = run_experiment(
        ["shoot", "--outdir", str(out_shoot), "--horizon", "2.0", "--shoot-depth", "12"]
    )
    assert code == 0
    cert = load_json(out_shoot / "certificate.json")
    assert cert["failed"] is False
    assert "d_star" in cert

    out_cmp = tmp_path / "cmp"
    code2 = run_experiment(
        [
            "compare", "--outdir", str(out_cmp),
            "--from", str(out_shoot / "manifest-shoot.json"),
        ]
    )
    report = load_json(out_cmp / "compare-report.json")
    assert report["manufactured"]["passed"] is True
    assert report["survivor_source"].endswith("manifest-shoot.json")
    assert code2 in (0, 4)  # trend checks are exercised by the acceptance suite


def test_cli_verify_spectral(tmp_path):
    code = run_experiment(["verify-spectral", "--outdir", str(tmp_path), "--quad_order".replace("_", "-"), "64"])
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


def test_cli_shoot_failure_without_best_result(tmp_path, monkeypatch):
    # an exhausted trajectory budget before any exit leaves no best candidate
    import blowlab.cli as cli
    from blowlab.shooting import SearchFailureError

    def no_candidate(cfg, params):
        raise SearchFailureError("trajectory budget exhausted", np.zeros(4), None)

    monkeypatch.setattr(cli, "search", no_candidate)
    assert run_experiment(["shoot", "--outdir", str(tmp_path)]) == 3
    cert = load_json(tmp_path / "certificate.json")
    assert cert["failed"] is True
    assert cert["best_s_star"] is None
    assert cert["best_d"] == [0.0, 0.0, 0.0, 0.0]


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

    cfg = RunConfig.from_dict(overrides)
    fresh = exit_map(np.array(cert["d_star"]), cfg.shoot_config(), cfg.params())
    assert fresh.survived
    path = write_trajectory_csv(fresh.record, cfg.params(), tmp_path / "fresh.csv")
    assert path.read_bytes() == (tmp_path / "s" / "survivor-trajectory.csv").read_bytes()
