"""Run configuration: one flat record, strict validation, JSON round-trip."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .dynamics import D_BOX_LIMIT, MAX_DS, FlowOptions
from .params import ModelParams, make_params
from .shooting import ShootConfig

__all__ = ["RunConfig", "ConfigError"]

# the fixed grids of the direct and compare experiments: the w-run over
# DIRECT_S_LEN units of s, the u-run up to t = U_T_MAX, before which u_T lies
DIRECT_Y_MAX = 6.0
DIRECT_N_NODES = 1201
DIRECT_S_LEN = 7.0
U_X_MAX = 10.0
U_N_NODES = 1001
U_T_MAX = 1.0


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
    # shooting
    shoot_box: float = D_BOX_LIMIT
    shoot_depth: int = 40
    even_only: bool = False
    linear_only: bool = False
    # direct solvers
    u_T: float = 0.1
    # bookkeeping
    outdir: str = "runs"

    def __post_init__(self):
        checks = [
            (self.p > 1, "p must be > 1"),
            (isinstance(self.k, int) and self.k >= 2, "k must be an integer >= 2"),
            (self.b0 > 0, "b0 must be > 0"),
            (0 < self.delta <= 1, "delta must lie in (0, 1]"),
            (self.s0 > 0, "s0 must be > 0"),
            (0 < self.ds <= MAX_DS, f"ds must lie in (0, {MAX_DS}]"),
            (self.horizon > 0, "horizon must be > 0"),
            (0 < self.shoot_box <= D_BOX_LIMIT, f"shoot_box must lie in (0, {D_BOX_LIMIT}]"),
            (self.shoot_depth >= 1, "shoot_depth must be >= 1"),
            # bools take JSON true and false only: the string "false" is truthy
            (isinstance(self.even_only, bool), "even_only must be true or false"),
            (isinstance(self.linear_only, bool), "linear_only must be true or false"),
            (isinstance(self.outdir, str), "outdir must be a string"),
            (0 < self.u_T < U_T_MAX, f"u_T must lie in (0, {U_T_MAX})"),
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

    def flow_options(self) -> FlowOptions:
        return FlowOptions(linear_only=self.linear_only)

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
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(types))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        checks = {"int": _integer, "float": _finite}
        data = {
            key: checks[types[key]](key, val) if types[key] in checks else val
            for key, val in data.items()
        }
        if data.get("d") is not None:
            if not isinstance(data["d"], list):
                raise ConfigError(f"d must be a list of numbers, got {data['d']!r}")
            data["d"] = [_finite("d", x) for x in data["d"]]
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def load_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; what names it in the error if it is none."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return data


def _integer(key: str, value) -> int:
    """An int field's value: integral numbers such as 2.0 convert, nothing else does."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _finite(key: str, value):
    """A float field's value: a finite int or float; bools, NaN and infinities are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(f"{key} must be a finite number, got {value!r}")
