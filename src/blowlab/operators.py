"""Right-hand side of the modulated perturbation flow, and its cross-checks.

With w = f_b (1 + e_b q) and b = b(s), the perturbation solves

    d_s q = L_s q + N(q) + D_s(grad q) + R_s(q) + b'(s) M(q),

where L_s q = I^{-2} q'' - (y/2k) q' + q is the drift-diffusion generator,
N is the superlinear remainder of the reaction term, D_s a profile-induced
transport correction, R_s the profile-curvature source, and M the sensitivity
of q to the profile parameter. b'(s) is solved for at every evaluation so the
neutral-mode projection q_{2k} stays zero.

Two candidate forms of the q-free part of M (and of the e_b weighting of the
q-part of R_s) circulate; re-deriving d_s q from q = w f_b^{-p} - (p-1+b y^{2k})
by the chain rule gives

    M(q) = y^{2k}/(p-1) * (1 + p e_b q),
    R_s(q) = I^{-2} y^{2k-2} (alpha1 + alpha2 y^{2k} e_b
                              + e_b (alpha3 + alpha4 y^{2k} e_b) q),

and consistency_residual() verifies numerically that exactly this variant
("derived", the default) matches the transformed w-equation; the alternative
("paper") form M = p/(p-1) y^{2k} (1 + e_b q) with no e_b on the q-part of
R_s is kept for comparison and for the q = 0 contracts it satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, derivative, sample, second_derivative
from .hermite import (
    QuadratureRule,
    SpectralDecomposition,
    hermite_series,
    project_modes_from_samples,
)
from .params import ModelParams, alpha_consts, eval_profile, q_to_w, scale_factor, signed_power

__all__ = [
    "ModulationBreakdownError",
    "RhsBundle",
    "apply_Ls",
    "eval_N",
    "eval_DR",
    "eval_M",
    "modulation_rate",
    "solve_bprime",
    "assemble_rhs",
    "w_rhs",
    "consistency_residual",
    "nonlinear_values",
    "drift_values",
    "residual_values",
    "modulation_values",
]

VARIANTS = ("derived", "paper")
DENOM_THRESHOLD = 0.1


class ModulationBreakdownError(RuntimeError):
    """Modulation solve denominator too close to zero to trust b'."""


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


@dataclass(frozen=True)
class RhsBundle:
    """All RHS terms of one state, on the state's grid."""

    linear: GridFunction
    nonlinear: GridFunction
    drift: GridFunction
    residual: GridFunction
    modulation: GridFunction
    bprime: float

    def total(self) -> GridFunction:
        vals = (
            self.linear.values
            + self.nonlinear.values
            + self.drift.values
            + self.residual.values
            + self.bprime * self.modulation.values
        )
        return self.linear.with_values(vals)


def apply_Ls(f: GridFunction, s: float, params: ModelParams) -> GridFunction:
    """I^{-2} f'' - (y/2k) f' + f by finite differences."""
    if len(f) < 5:
        raise ValueError("grid with < 5 nodes rejected")
    h = f.spacing
    I2inv = float(scale_factor(s, params.k)) ** -2
    vals = (
        I2inv * second_derivative(f.values, h)
        - f.nodes / (2.0 * params.k) * derivative(f.values, h)
        + f.values
    )
    return f.with_values(vals)


def nonlinear_values(q: np.ndarray, e: np.ndarray, p: float) -> np.ndarray:
    """|1+u|^{p-1}(1+u) - 1 - p u at u = e q, without small-u cancellation.

    On 1 + u > 0 this is expm1(p log1p(u)) - p u, whose rounding error scales
    with |u| instead of 1; the direct form is kept for the (far-out-of-set)
    sign-changed branch.
    """
    u = e * np.asarray(q, dtype=float)
    base = 1.0 + u
    out = np.where(
        base > 0.0,
        np.expm1(p * np.log1p(np.where(base > 0.0, u, 0.0))) - p * u,
        signed_power(base, p) - 1.0 - p * u,
    )
    return out


def eval_N(q: GridFunction, b: float, params: ModelParams) -> GridFunction:
    """Superlinear reaction remainder |1+e_b q|^{p-1}(1+e_b q) - 1 - p e_b q."""
    _, e = eval_profile(q.nodes, b, params)
    return q.with_values(nonlinear_values(q.values, e, params.p))


def drift_values(
    dq: np.ndarray, y: np.ndarray, e: np.ndarray, b: float, I2inv: float, params: ModelParams
) -> np.ndarray:
    p, k = params.p, params.k
    # |y|^{2k-2} y: a power of a negative base takes libm's slow path
    return -4.0 * p * k * b / (p - 1.0) * I2inv * e * (np.abs(y) ** (2 * k - 2) * y) * dq


def residual_values(
    q: np.ndarray, y: np.ndarray, e: np.ndarray, b: float, I2inv: float,
    params: ModelParams, variant: str,
) -> np.ndarray:
    a = alpha_consts(b, params)
    y2k = np.abs(y) ** (2 * params.k)
    qweight = e if variant == "derived" else 1.0
    return I2inv * y ** (2 * params.k - 2) * (
        a.alpha1 + a.alpha2 * y2k * e + qweight * (a.alpha3 + a.alpha4 * y2k * e) * q
    )


def eval_DR(
    q: GridFunction, b: float, s: float, params: ModelParams, variant: str = "derived"
) -> tuple[GridFunction, GridFunction]:
    """Transport correction D_s (via grad q) and curvature source R_s."""
    _check_variant(variant)
    I2inv = float(scale_factor(s, params.k)) ** -2
    _, e = eval_profile(q.nodes, b, params)
    dq = derivative(q.values, q.spacing)
    d_vals = drift_values(dq, q.nodes, e, b, I2inv, params)
    r_vals = residual_values(q.values, q.nodes, e, b, I2inv, params, variant)
    return q.with_values(d_vals), q.with_values(r_vals)


def modulation_values(
    q: np.ndarray, y: np.ndarray, e: np.ndarray, params: ModelParams, variant: str
) -> np.ndarray:
    p = params.p
    y2k = np.abs(y) ** (2 * params.k)
    if variant == "derived":
        return y2k / (p - 1.0) * (1.0 + p * e * q)
    return p / (p - 1.0) * y2k * (1.0 + e * q)


def eval_M(
    q: GridFunction, b: float, params: ModelParams, variant: str = "paper"
) -> GridFunction:
    """Profile-parameter sensitivity term; defaults to the literal form."""
    _check_variant(variant)
    _, e = eval_profile(q.nodes, b, params)
    return q.with_values(modulation_values(q.values, q.nodes, e, params, variant))


def _state_at_quad(
    state: SpectralDecomposition | GridFunction, s: float, params: ModelParams,
    quad: QuadratureRule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y_quad, q, grad q) at the quadrature nodes."""
    I = float(scale_factor(s, params.k))
    y = quad.nodes / I
    if isinstance(state, SpectralDecomposition):
        q = hermite_series(state.modes, y, s, params.k)
        dq = _series_derivative(state.modes, y, s, params.k)
        rem = state.remainder
        q = q + sample(rem.nodes, rem.values, y)
        drem = derivative(rem.values, rem.spacing)
        dq = dq + sample(rem.nodes, drem, y)
    else:
        q = sample(state.nodes, state.values, y)
        dq_grid = derivative(state.values, state.spacing)
        dq = sample(state.nodes, dq_grid, y)
    return y, q, dq


def _series_derivative(coeffs: np.ndarray, y: np.ndarray, s: float, k: int) -> np.ndarray:
    shifted = np.asarray(coeffs, dtype=float)[1:] * np.arange(1, len(coeffs))
    return hermite_series(shifted, y, s, k)


def _project_single(f_quad: np.ndarray, s: float, k: int, n: int, quad: QuadratureRule) -> float:
    return float(project_modes_from_samples(f_quad, s, k, n + 1, quad)[n])


def modulation_rate(
    P_sum: float, P_coupling: float, p: float, variant: str, threshold: float,
) -> float:
    """b' from P_2k of N + D_s + R_s (P_sum) and of y^{2k} e_b q (P_coupling).

    P_2k(M) = (1 + p P_coupling)/(p - 1) in the derived form and
    p (1 + P_coupling)/(p - 1) in the paper form; b' cancels the rest of
    dq_{2k}/ds. Raises ModulationBreakdownError when the denominator (the
    bracket of P_2k(M)) is below threshold in magnitude.
    """
    if variant == "derived":
        denom = 1.0 + p * P_coupling
        scale = -(p - 1.0)
    else:
        denom = 1.0 + P_coupling
        scale = -(p - 1.0) / p
    if abs(denom) < threshold:
        raise ModulationBreakdownError(
            f"modulation denominator {denom:.3g} below threshold {threshold}"
        )
    return scale * P_sum / denom


def solve_bprime(
    state: SpectralDecomposition | GridFunction,
    b: float,
    s: float,
    params: ModelParams,
    quad: QuadratureRule,
    variant: str = "derived",
    denom_threshold: float = DENOM_THRESHOLD,
) -> float:
    """b'(s) that keeps the neutral mode q_{2k} = 0 to first order.

    Projects the non-modulation RHS terms on H_{2k} and divides by the
    projected modulation coefficient. Raises ModulationBreakdownError when
    the denominator wanders too close to zero.
    """
    _check_variant(variant)
    p, k = params.p, params.k
    n = 2 * k
    I2inv = float(scale_factor(s, params.k)) ** -2
    y, q, dq = _state_at_quad(state, s, params, quad)
    _, e = eval_profile(y, b, params)

    proj_sum = (
        _project_single(nonlinear_values(q, e, p), s, k, n, quad)
        + _project_single(drift_values(dq, y, e, b, I2inv, params), s, k, n, quad)
        + _project_single(residual_values(q, y, e, b, I2inv, params, variant), s, k, n, quad)
    )
    coupling = _project_single(np.abs(y) ** (2 * k) * e * q, s, k, n, quad)
    return modulation_rate(proj_sum, coupling, p, variant, denom_threshold)


def assemble_rhs(
    q: GridFunction,
    b: float,
    s: float,
    params: ModelParams,
    quad: QuadratureRule,
    variant: str = "derived",
    bprime: float | None = None,
) -> RhsBundle:
    """Evaluate every RHS term on q's grid; b' solved unless supplied."""
    _check_variant(variant)
    linear = apply_Ls(q, s, params)
    nonlinear = eval_N(q, b, params)
    drift, residual = eval_DR(q, b, s, params, variant)
    modulation = eval_M(q, b, params, variant)
    if bprime is None:
        bprime = solve_bprime(q, b, s, params, quad, variant)
    return RhsBundle(
        linear=linear,
        nonlinear=nonlinear,
        drift=drift,
        residual=residual,
        modulation=modulation,
        bprime=float(bprime),
    )


def w_rhs(w: GridFunction, s: float, params: ModelParams) -> GridFunction:
    """I^{-2} w'' - (y/2k) w' - w/(p-1) + |w|^{p-1} w."""
    if len(w) < 5:
        raise ValueError("grid with < 5 nodes rejected")
    h = w.spacing
    I2inv = float(scale_factor(s, params.k)) ** -2
    vals = (
        I2inv * second_derivative(w.values, h)
        - w.nodes / (2.0 * params.k) * derivative(w.values, h)
        - w.values / (params.p - 1.0)
        + signed_power(w.values, params.p)
    )
    return w.with_values(vals)


def consistency_residual(
    q: GridFunction,
    b: float,
    s: float,
    params: ModelParams,
    bprime: float = 0.0,
    variant: str = "derived",
    n_edge: int = 4,
) -> float:
    """Max-norm gap between the assembled q-RHS and the transformed w-RHS.

    Route A assembles L_s q + N + D_s + R_s + b' M with the requested variant.
    Route B maps q -> w, evaluates the w-equation RHS with the same stencils,
    and transforms back with b frozen plus the chain-rule b' term (which is
    the "derived" modulation form by construction). The gap over the grid
    interior is the derivation-consistency residual.
    """
    _check_variant(variant)
    bundle = assemble_rhs(q, b, s, params, quad=None, variant=variant, bprime=bprime)
    assembled = bundle.total().values

    w = q.with_values(q_to_w(q.values, q.nodes, b, params))
    wr = w_rhs(w, s, params)
    f, e = eval_profile(q.nodes, b, params)
    chain = modulation_values(q.values, q.nodes, e, params, "derived")
    direct = f ** (-params.p) * wr.values + bprime * chain

    sl = slice(n_edge, len(q) - n_edge)
    return float(np.max(np.abs(assembled[sl] - direct[sl])))
