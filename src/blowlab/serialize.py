"""File artifacts: trajectory CSV and structured JSON records.

CSV numeric fields use shortest round-trip decimal formatting (repr), so a
re-parse recovers the exact doubles; JSON records round-trip bit-exactly for
the same reason. Outputs carry no timestamps, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .dynamics import TrajectoryRecord
from .params import ModelParams

__all__ = ["fmt", "write_trajectory_csv", "save_json", "load_json"]


def fmt(x) -> str:
    return repr(float(x))


def write_trajectory_csv(record: TrajectoryRecord, params: ModelParams, path) -> Path:
    """Columns: s, b, bprime, q_0..q_{M_floor}, qminus_seminorm, inside, exit_mode.

    exit_mode is empty except on the final row of an exiting trajectory,
    where it carries the violated bound's mode index (or bound name for the
    non-mode bounds).
    """
    path = Path(path)
    header = (
        ["s", "b", "bprime"]
        + [f"q_{n}" for n in range(params.n_modes)]
        + ["qminus_seminorm", "inside", "exit_mode"]
    )
    n_rows = len(record.samples)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, smp in enumerate(record.samples):
            exit_field = ""
            if record.exit is not None and i == n_rows - 1:
                exit_field = (
                    str(record.exit.mode) if record.exit.mode is not None else record.exit.bound
                )
            writer.writerow(
                [fmt(smp.s), fmt(smp.b), fmt(smp.bprime)]
                + [fmt(v) for v in smp.modes]
                + [fmt(smp.qminus_seminorm), int(smp.inside), exit_field]
            )
    return path


def save_json(obj, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
