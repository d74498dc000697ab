"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 benchmarks/steadiness.py --workload ensemble --seeds 1-10

Runs the benchmark once per seed, one run after another, with the run
length of BENCHMARK.json, and prints for each end-to-end metric the median,
the quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound;
a spread above a third of its bound is flagged. The unscaled round times
(before the speed probe's correction) get the same summary, for comparison.
Every run's result line is appended to .bench_out/steadiness-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = ROOT / ".bench_out" / f"steadiness-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)

    values: dict[str, list[float]] = {name: [] for name in bounds}
    raw_walls: list[float] = []
    shares = set()
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        raw = [float(x.split()[3]) for x in lines if x.startswith("  measured mean round")]
        raw_walls.extend(raw)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)

    print(f"(failed share, correct) over the runs: {sorted(shares)}")
    for name, vals in values.items():
        med, q1, q3, spread = quartiles(vals)
        flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"{name:28s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread:.4f}  bound {bounds[name]}{flag}")
    if len(raw_walls) >= 2:
        med, q1, q3, spread = quartiles(raw_walls)
        print(f"{'(measured round, unscaled)':28s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread:.4f}")
    return 0


def quartiles(vals: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


if __name__ == "__main__":
    sys.exit(main())
