"""Run configuration: one flat record, strict validation, JSON round-trip."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .dynamics import D_BOX_LIMIT, FlowOptions
from .params import ModelParams, make_params
from .shooting import ShootConfig

__all__ = ["RunConfig", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration file or key."""


@dataclass(frozen=True)
class RunConfig:
    # model
    p: float = 3.0
    k: int = 2
    b0: float = 1.0
    delta: float = 0.1
    # modulated flow
    s0: float = 20.0
    ds: float = 0.01
    horizon: float = 10.0
    d: list[float] | None = None
    y_max: float = 0.15
    n_nodes: int = 257
    quad_order: int = 96
    sem_floor: float = 1e-10
    # shooting
    shoot_box: float = D_BOX_LIMIT
    shoot_depth: int = 40
    even_only: bool = False
    linear_only: bool = False
    # direct solvers
    direct_y_max: float = 6.0
    direct_n_nodes: int = 1201
    direct_s_len: float = 7.0
    u_x_max: float = 10.0
    u_n_nodes: int = 1001
    u_t_max: float = 1.0
    u_T: float = 0.1
    blowup_threshold: float = 1e8
    y_fit: float = 2.0
    y_window: float = 3.0
    # bookkeeping
    outdir: str = "runs"

    def __post_init__(self):
        checks = [
            (self.p > 1, "p must be > 1"),
            (isinstance(self.k, int) and self.k >= 2, "k must be an integer >= 2"),
            (self.b0 > 0, "b0 must be > 0"),
            (0 < self.delta <= 1, "delta must lie in (0, 1]"),
            (self.s0 > 0, "s0 must be > 0"),
            (0 < self.ds <= 0.05, "ds must lie in (0, 0.05]"),
            (self.horizon > 0, "horizon must be > 0"),
            (self.y_max > 0, "y_max must be > 0"),
            (self.n_nodes >= 16, "n_nodes must be >= 16"),
            (self.quad_order >= 8, "quad_order must be >= 8"),
            (self.sem_floor >= 0, "sem_floor must be >= 0"),
            (0 < self.shoot_box <= D_BOX_LIMIT, f"shoot_box must lie in (0, {D_BOX_LIMIT}]"),
            (self.shoot_depth >= 1, "shoot_depth must be >= 1"),
            (self.direct_y_max > 0, "direct_y_max must be > 0"),
            (self.direct_n_nodes >= 16, "direct_n_nodes must be >= 16"),
            (self.direct_s_len > 0, "direct_s_len must be > 0"),
            (self.u_x_max > 0, "u_x_max must be > 0"),
            (self.u_n_nodes >= 16, "u_n_nodes must be >= 16"),
            (self.u_t_max > 0, "u_t_max must be > 0"),
            (0 < self.u_T < self.u_t_max + 1e300, "u_T must be > 0"),
            (self.blowup_threshold > 1, "blowup_threshold must be > 1"),
            (self.y_fit > 0, "y_fit must be > 0"),
            (self.y_window > 0, "y_window must be > 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        if self.d is not None:
            if len(self.d) != 2 * self.k:
                raise ConfigError(f"d must have length 2k = {2 * self.k}")
            if not all(abs(x) <= D_BOX_LIMIT + 1e-12 for x in self.d):
                raise ConfigError(f"seed d must satisfy |d_i| <= {D_BOX_LIMIT}")

    # -- derived objects ----------------------------------------------------

    def params(self) -> ModelParams:
        return make_params(self.p, self.k)

    def flow_options(self, linear_only: bool | None = None) -> FlowOptions:
        return FlowOptions(
            y_max=self.y_max,
            n_nodes=self.n_nodes,
            quad_order=self.quad_order,
            linear_only=self.linear_only if linear_only is None else linear_only,
            sem_floor=self.sem_floor,
        )

    def shoot_config(self) -> ShootConfig:
        return ShootConfig(
            delta=self.delta,
            b0=self.b0,
            s0=self.s0,
            horizon=self.horizon,
            box=self.shoot_box,
            depth=self.shoot_depth,
            ds=self.ds,
            even_only=self.even_only,
            flow=self.flow_options(),
        )

    def seed_vector(self) -> list[float]:
        return list(self.d) if self.d is not None else [0.0] * (2 * self.k)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if "k" in data:
            data = dict(data)
            data["k"] = int(data["k"])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)
