"""The blowlab benchmark: one workload, one process, one thread.

    python3 benchmarks/run.py --workload ensemble --seed 1 --seconds 35 --trace 0

With --trace 0 it sets up several times, then repeats timed rounds of the
workload until the next round would end past --seconds (at least one
round), checks every round's outputs, and reports the end-to-end metrics.
With --trace 1 it runs an untraced, a traced and another untraced round,
reports the per-layer metrics from the traced one, and writes its spans to
.bench_out/trace-<workload>.jsonl. It prints each metric by name with its
unit, then, as its last line, one JSON object with the keys correct,
attempted, failed and metrics; a failed output check sets correct to false
and is described on standard error. It exits 0 when it prints a result and
2, printing none, when the program's sources are not beside it.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark measures one single-threaded process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

SETUPS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "scale_time_per_s": "s/s",
    "trajectories_per_survivor": "count",
    "peak_rss_mb": "MB",
}

# layer name -> the public functions it stands for
LAYERS = {
    "dynamics.run": [("blowlab.dynamics", "run")],
    "dynamics.membership": [("blowlab.dynamics", "membership")],
    "projection.projected_sources": [("blowlab.projection", "projected_sources")],
    "projection.remainder_source": [("blowlab.projection", "remainder_source")],
    "hermite.project_modes_from_samples": [("blowlab.hermite", "project_modes_from_samples")],
    "hermite.hermite_series": [("blowlab.hermite", "hermite_series")],
    "hermite.remainder_seminorm": [("blowlab.hermite", "remainder_seminorm")],
    "grid.sample": [("blowlab.grid", "sample")],
    "grid.laplacian_compact": [("blowlab.grid", "laplacian_compact")],
    "grid.upwind_gradient": [("blowlab.grid", "upwind_gradient")],
    "grid.derivative": [("blowlab.grid", "derivative")],
    "operators.pointwise": [
        ("blowlab.operators", f) for f in
        ("nonlinear_values", "drift_values", "residual_values", "modulation_values")
    ],
    "direct.solve_w_direct": [("blowlab.direct", "solve_w_direct")],
    "direct.solve_u_physical": [("blowlab.direct", "solve_u_physical")],
    "direct.fits": [
        ("blowlab.direct", f) for f in
        ("estimate_blowup_time", "profile_distance_series", "compare_profile")
    ],
    "shooting.exit_map": [("blowlab.shooting", "exit_map")],
    "shooting.search": [("blowlab.shooting", "search")],
    "serialize": [("blowlab.serialize", f) for f in ("write_trajectory_csv", "save_json")],
}

# layers reported with both calls and self time
CALL_LAYERS = (
    "projection.projected_sources", "projection.remainder_source",
    "hermite.project_modes_from_samples", "hermite.hermite_series", "grid.sample",
    "operators.pointwise", "dynamics.membership", "hermite.remainder_seminorm",
    "grid.laplacian_compact", "grid.upwind_gradient", "grid.derivative",
)
SELF_LAYERS = (
    "dynamics.run", "direct.solve_w_direct", "direct.solve_u_physical", "direct.fits",
    "shooting.search", "serialize",
)


def _hook_run(record, counters):
    counters["steps"] += len(record.samples) - 1


def _hook_w(run, counters):
    counters["w_steps"] += len(run.sup_times) - 1


def _hook_u(run, counters):
    counters["u_steps"] += len(run.sup_times) - 1


def _hook_bytes(path, counters):
    counters["bytes"] += Path(path).stat().st_size


HOOKS = {
    "dynamics.run": _hook_run,
    "direct.solve_w_direct": _hook_w,
    "direct.solve_u_physical": _hook_u,
    "serialize": _hook_bytes,
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer in SELF_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "dynamics.steps": "count",
        "dynamics.stages": "count",
        "dynamics.stages_per_step": "ratio",
        "direct.w_steps": "count",
        "direct.u_steps": "count",
        "shooting.exit_map.calls": "count",
        "shooting.useful_trajectory_ratio": "ratio",
        "serialize.bytes": "bytes",
        "projection.projected_sources.us_per_call": "us",
        "projection.jets.us_per_call": "us",
        "projection.remainder_source.us_per_call": "us",
        "dynamics.step.ms_per_call": "ms",
        "dynamics.membership.us_per_call": "us",
        "trace.overhead_s": "s",
    })
    return units


def timed(probe, job):
    """(seconds, seconds at the reference speed, result) of job(between).

    Speed-probe chunks run before and after the job and wherever the job
    calls `between`; the time of those inside the job is taken out of it.
    """
    mark = probe.mark()
    probe.chunk()
    inside = probe.elapsed
    t0 = time.perf_counter()
    result = job(probe.chunk)
    raw = time.perf_counter() - t0 - (probe.elapsed - inside)
    probe.chunk()
    return raw, raw * probe.factor_since(mark), result


def layer_metrics(tracer, rnd, overhead_s: float, per_call: dict) -> dict[str, float]:
    summ = tracer.summary()
    c = tracer.counters
    m: dict[str, float] = {}
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = summ[layer]["calls"]
        m[f"{layer}.self_s"] = summ[layer]["self_s"]
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = summ[layer]["self_s"]
    steps = c["steps"]
    stages = summ["projection.projected_sources"]["by_binding"].get("blowlab.dynamics", 0)
    integrated = summ["dynamics.run"]["calls"]
    m.update({
        "dynamics.steps": steps,
        "dynamics.stages": stages,
        "dynamics.stages_per_step": stages / steps if steps else 0.0,
        "direct.w_steps": c["w_steps"],
        "direct.u_steps": c["u_steps"],
        "shooting.exit_map.calls": summ["shooting.exit_map"]["calls"],
        # 0 where the workload integrates no trajectory
        "shooting.useful_trajectory_ratio": rnd.trajectories_needed / integrated if integrated else 0.0,
        "serialize.bytes": c["bytes"],
        "trace.overhead_s": overhead_s,
    })
    m.update(per_call)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ensemble", "shoot", "direct"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "blowlab" / "__init__.py").is_file():
        print(f"no blowlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        import workloads
        from speed import SpeedProbe
        from tracing import ScaleCounter, Tracer
        workloads.import_blowlab()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    # the traced run reports raw times; the probe would sit inside its spans
    probe = SpeedProbe(enabled=not args.trace)
    setup_times = []

    def set_up(_between):
        fresh = workloads.import_blowlab()
        return fresh, wl.setup(fresh, args.seed, out_dir)

    for _ in range(SETUPS):
        _, norm, (bl, inp) = timed(probe, set_up)
        setup_times.append(norm)

    counter = ScaleCounter()
    counter.install(bl.dynamics)
    problems: list[str] = []
    raw_walls, walls, rounds = [], [], []

    def one_round(tracer=None):
        if tracer is not None:
            tracer.install()
        try:
            raw, wall, rnd = timed(
                probe, lambda between: wl.run_round(bl, inp, counter, between))
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems.extend(wl.check(bl, inp, rnd))
        rnd.outputs.clear()  # keep one round's outputs alive at a time
        raw_walls.append(raw)
        walls.append(wall)
        rounds.append(rnd)
        return wall, rnd

    if args.trace:
        # untraced rounds on both sides of the traced one, so that a drift of
        # the machine's speed during the three cancels to first order
        before, _ = one_round()
        tracer = Tracer(LAYERS, HOOKS)
        traced_wall, rnd = one_round(tracer)
        after, _ = one_round()
        counter.uninstall()
        metrics = layer_metrics(
            tracer, rnd, traced_wall - 0.5 * (before + after),
            workloads.per_call_medians(bl),
        )
        units = per_layer_units()
        path = tracer.dump(OUT / f"trace-{args.workload}.jsonl")
        print(f"spans: {len(tracer.spans)} written to {path}", file=sys.stderr)
    else:
        start = time.perf_counter()
        while True:
            one_round()
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(raw_walls) > args.seconds:
                break
        counter.uninstall()
        per_survivor = (
            rounds[0].trajectories_needed if args.workload == "shoot"
            else 1  # every trajectory or w-run is its own result
        )
        # times are at the reference speed (speed.py), and means over the
        # run rather than medians of rounds: within a run the machine's speed
        # still drifts by 10-15% over a few seconds, and over 30 s windows of
        # one 150 s record the mean of short jobs spread less than their
        # median (CV 4.0% against 6.2%)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(walls) / len(walls),
            "scale_time_per_s": sum(r.s_units for r in rounds) / sum(walls),
            "trajectories_per_survivor": per_survivor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    if probe.enabled:
        print(f"  measured mean round {sum(raw_walls) / len(raw_walls):.6g} s; "
              f"the speed probe ran at {sum(raw_walls) / sum(walls):.4f} of its reference time")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
