"""Numerical laboratory for flat self-similar blowup in the semilinear heat equation."""

__version__ = "0.1.0"

from .params import ModelParams, make_params, scale_factor, eval_profile  # noqa: F401
from .grid import GridFunction, uniform_grid  # noqa: F401
from .hermite import (  # noqa: F401
    SpectralDecomposition,
    decompose,
    gauss_rule,
    recompose,
)
from .dynamics import FlowOptions, SimState, gamma_map, init_state, membership, run, step  # noqa: F401
from .shooting import ShootConfig, exit_map, search  # noqa: F401
