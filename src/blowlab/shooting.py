"""Finite-dimensional search for initial data that never leaves the set.

The seed family q(s0) = sum_i d_i I^{-delta}(s0) y^i is parameterized by the
2k coordinates d (the tracked modes above 2k-1 and the remainder start at
zero). Modes 0..2k-1 are linearly unstable with distinct rates 1 - j/2k, so
a trajectory that exits does so (generically) through one of them, and the
exiting mode/sign says which mode coordinate was too large and in which
direction. The search exploits that: integrate from the box center, bisect
the exiting mode's coordinate against the exit sign, repeat until a
trajectory survives to the horizon. It bisects the rescaled seed modes
gamma_map(d) / I^{-delta}(s0) rather than d itself, since d_j also feeds
mode j - 2 through I^{-2} corrections. Survivors come with a certificate
(final margins, b drift, bracket history); persistent exits through
non-mode bounds or an exhausted budget raise SearchFailureError carrying the
best candidate seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    BOUND_MODULATION,
    D_BOX_LIMIT,
    FlowOptions,
    TrajectoryRecord,
    gamma_map,
    init_state,
    membership,
    run,
)
from .params import ModelParams, scale_factor

__all__ = [
    "ShootConfig",
    "ExitMapResult",
    "SurvivorCertificate",
    "SearchFailureError",
    "gamma_map",
    "exit_map",
    "search",
]


@dataclass(frozen=True)
class ShootConfig:
    delta: float = 0.1
    b0: float = 1.0
    s0: float = 20.0
    horizon: float = 10.0
    box: float = D_BOX_LIMIT
    depth: int = 40
    ds: float = 0.01
    even_only: bool = False
    max_trajectories: int = 400
    flow: FlowOptions = field(default_factory=FlowOptions)

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("survival horizon must be positive")
        if self.depth < 1:
            raise ValueError("bisection depth must be >= 1")


@dataclass(frozen=True)
class ExitMapResult:
    survived: bool
    s_star: float
    phi: np.ndarray | None
    record: TrajectoryRecord


@dataclass(frozen=True)
class SurvivorCertificate:
    """A surviving seed and the evidence for it.

    survivor is the search's own integration of d_star, so callers write its
    trajectory without running it again; to_dict leaves it out.
    """

    d_star: np.ndarray
    s_end: float
    final_margins: dict[str, float]
    b_drift: float
    brackets: list[tuple[float, float]]
    n_trajectories: int
    anomalies: list[dict]
    breakdowns: list[dict] = field(default_factory=list)
    survivor: ExitMapResult | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "d_star": [float(x) for x in self.d_star],
            "s_end": self.s_end,
            "final_margins": {k: float(v) for k, v in self.final_margins.items()},
            "b_drift": self.b_drift,
            "brackets": [[float(a), float(b)] for a, b in self.brackets],
            "n_trajectories": self.n_trajectories,
            "anomalies": self.anomalies,
            "breakdowns": self.breakdowns,
        }


class SearchFailureError(RuntimeError):
    """No survivor at the configured depth; carries the best candidate."""

    def __init__(
        self, message: str, best_d: np.ndarray, best_result: ExitMapResult | None,
    ):
        super().__init__(message)
        self.best_d = best_d
        self.best_result = best_result


def exit_map(d, cfg: ShootConfig, params: ModelParams) -> ExitMapResult:
    """Run the trajectory from seed d; report exit data or survival.

    On exit the rescaled low-mode vector Phi = I^{delta}(s*) (q_0..q_{2k-1})
    is returned; the exiting coordinate of Phi sits on the unit box boundary.
    """
    state0 = init_state(d, cfg.delta, cfg.b0, cfg.s0, params, cfg.flow)
    record = run(
        state0, cfg.s0 + cfg.horizon, cfg.delta, cfg.b0, params,
        ds=cfg.ds, opts=cfg.flow,
    )
    if record.exit is None:
        return ExitMapResult(
            survived=True, s_star=cfg.s0 + cfg.horizon, phi=None, record=record
        )
    s_star = record.exit.s_star
    amp = float(scale_factor(s_star, params.k)) ** cfg.delta
    phi = amp * record.samples[-1].modes[: 2 * params.k]
    return ExitMapResult(survived=False, s_star=s_star, phi=phi, record=record)


def search(cfg: ShootConfig, params: ModelParams) -> tuple[np.ndarray, SurvivorCertificate]:
    """Exit-mode bisection over the seed box.

    Returns the surviving seed and its certificate, whose brackets are those
    of the rescaled mode coordinates. Raises SearchFailureError when a
    coordinate's refinement budget is exhausted or too many exits happen
    through bounds that do not identify a coordinate.
    """
    dim = 2 * params.k
    lo = np.full(dim, -cfg.box)
    hi = np.full(dim, cfg.box)
    if cfg.even_only:
        lo[1::2] = 0.0
        hi[1::2] = 0.0
    center = 0.5 * (lo + hi)
    # bisect the rescaled mode coordinates c = gamma_map(d) / I^{-delta}(s0):
    # each unstable mode then depends on its own coordinate alone to first
    # order, while d_j feeds mode j - 2 through the I^{-2} corrections
    A = np.column_stack([gamma_map(e, cfg.s0, cfg.delta, params) for e in np.eye(dim)])
    A /= float(scale_factor(cfg.s0, params.k)) ** (-cfg.delta)  # unit diagonal

    def seed(c: np.ndarray) -> np.ndarray:
        return np.clip(np.linalg.solve(A, c), -cfg.box, cfg.box)

    halvings = np.zeros(dim, dtype=int)
    reopened = np.zeros(dim, dtype=int)
    anomalies: list[dict] = []
    breakdowns: list[dict] = []
    best: tuple[float, np.ndarray, ExitMapResult] | None = None
    n_traj = 0
    WIDTH_FLOOR = 1e-13

    def cut(mode: int, omega: int) -> None:
        # a collapsed bracket means the optimum shifted (coupling from other
        # coordinates refined later); reopen around the center, escalating
        if hi[mode] - lo[mode] <= max(WIDTH_FLOOR, 8e-16 * abs(center[mode])):
            reopened[mode] += 1
            R = max(1e-12, hi[mode] - lo[mode]) * 16.0 ** reopened[mode]
            lo[mode] = max(center[mode] - R, -cfg.box)
            hi[mode] = min(center[mode] + R, cfg.box)
            halvings[mode] = max(0, halvings[mode] - 4 * reopened[mode])
        if omega > 0:
            hi[mode] = center[mode]
        else:
            lo[mode] = center[mode]
        halvings[mode] += 1

    while True:
        if n_traj >= cfg.max_trajectories:
            if best is None:
                raise SearchFailureError("trajectory budget exhausted", seed(center), None)
            raise SearchFailureError(
                f"no survivor within {cfg.max_trajectories} trajectories",
                best[1], best[2],
            )
        n_traj += 1
        d = seed(center)
        result = exit_map(d, cfg, params)
        if result.survived:
            arr = result.record.arrays()
            s = arr["s"]
            b = arr["b"]
            i_mid = int(np.searchsorted(s, cfg.s0 + cfg.horizon / 2.0))
            b_drift = abs(float(b[-1] - b[min(i_mid, len(b) - 1)]))
            final = membership(
                result.record.final_state, cfg.delta, cfg.b0, params, cfg.flow
            )
            cert = SurvivorCertificate(
                d_star=d,
                s_end=float(s[-1]),
                final_margins=final.margins,
                b_drift=b_drift,
                brackets=list(zip(lo.tolist(), hi.tolist())),
                n_trajectories=n_traj,
                anomalies=anomalies,
                breakdowns=breakdowns,
                survivor=result,
            )
            return d, cert

        if best is None or result.s_star > best[0]:
            best = (result.s_star, d, result)

        info = result.record.exit
        mode = info.mode
        omega = info.omega
        if info.bound == BOUND_MODULATION:
            # the modulation denominator degenerates as q_0 is driven far
            # from zero, so coordinate 0 is cut in the direction of its sign
            breakdowns.append({"d": d.tolist(), "error": info.reason})
            mode = 0
        elif mode is None or mode >= dim or (cfg.even_only and mode % 2 == 1):
            # a q_-, b, or high-mode breach is a downstream symptom of the
            # largest unstable mode; bisect that coordinate instead
            anomalies.append(
                {"d": d.tolist(), "s_star": info.s_star, "bound": info.bound}
            )
            final = result.record.samples[-1].modes[:dim]
            ranking = np.abs(final)
            if cfg.even_only:
                ranking = ranking.copy()
                ranking[1::2] = -1.0
            mode = int(np.argmax(ranking))
            omega = 1 if final[mode] >= 0 else -1

        cut(mode, omega)
        if halvings[mode] > cfg.depth:
            raise SearchFailureError(
                f"coordinate {mode} exceeded bisection depth {cfg.depth}",
                best[1], best[2],
            )
        center = 0.5 * (lo + hi)

