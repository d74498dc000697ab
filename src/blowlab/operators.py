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
("derived") matches the transformed w-equation. The flow and both b' solves
use it alone; the alternative ("paper") form M = p/(p-1) y^{2k} (1 + e_b q)
with no e_b on the q-part of R_s is kept only in the pointwise operators
residual_values and modulation_values, for the oracle to measure against.
Both default to the derived form.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, derivative, sample, second_derivative
from .hermite import (
    QuadratureRule,
    SpectralDecomposition,
    hermite_series,
    project_modes_from_samples,
)
from .params import (
    ModelParams, NodePowers, alpha_consts, eval_profile, node_powers, q_to_w, scale_factor,
    signed_power,
)

__all__ = [
    "ModulationBreakdownError",
    "apply_Ls",
    "modulation_rate",
    "solve_bprime",
    "w_rhs",
    "consistency_residual",
    "nonlinear_values",
    "drift_values",
    "residual_values",
    "modulation_values",
]

VARIANTS = ("derived", "paper")
DENOM_THRESHOLD = 0.1
# the nodes at each edge that consistency_residual leaves out, where the
# finite differences are one-sided
N_EDGE = 4


class ModulationBreakdownError(RuntimeError):
    """Modulation solve denominator too close to zero to trust b'."""


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


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
    pos = base > 0.0
    out = np.expm1(p * np.log1p(np.where(pos, u, 0.0))) - p * u
    if not pos.all():
        neg = ~pos
        out[neg] = signed_power(base[neg], p) - 1.0 - p * u[neg]
    return out


def drift_values(
    dq: np.ndarray, pw: NodePowers, e: np.ndarray, b: float, I2inv: float, params: ModelParams
) -> np.ndarray:
    p, k = params.p, params.k
    return -4.0 * p * k * b / (p - 1.0) * I2inv * e * pw.ydrift * dq


def residual_values(
    q: np.ndarray, pw: NodePowers, e: np.ndarray, b: float, I2inv: float,
    params: ModelParams, variant: str = "derived",
) -> np.ndarray:
    a = alpha_consts(b, params)
    qweight = e if variant == "derived" else 1.0
    return I2inv * pw.yres * (
        a.alpha1 + a.alpha2 * pw.y2k * e + qweight * (a.alpha3 + a.alpha4 * pw.y2k * e) * q
    )


def modulation_values(
    q: np.ndarray, pw: NodePowers, e: np.ndarray, params: ModelParams,
    variant: str = "derived",
) -> np.ndarray:
    p = params.p
    if variant == "derived":
        return pw.y2k / (p - 1.0) * (1.0 + p * e * q)
    return p / (p - 1.0) * pw.y2k * (1.0 + e * q)


def modulation_rate(P_sum: float, P_coupling: float, p: float) -> float:
    """b' from P_2k of N + D_s + R_s (P_sum) and of y^{2k} e_b q (P_coupling).

    In the derived form P_2k(M) = (1 + p P_coupling)/(p - 1), and b' cancels
    the rest of dq_{2k}/ds. Raises ModulationBreakdownError when the
    denominator (the bracket of P_2k(M)) is below DENOM_THRESHOLD in
    magnitude.
    """
    denom = 1.0 + p * P_coupling
    if abs(denom) < DENOM_THRESHOLD:
        raise ModulationBreakdownError(
            f"modulation denominator {denom:.3g} below threshold {DENOM_THRESHOLD}"
        )
    return -(p - 1.0) * P_sum / denom


def solve_bprime(
    state: SpectralDecomposition,
    b: float,
    s: float,
    params: ModelParams,
    quad: QuadratureRule,
) -> float:
    """b'(s) that keeps the neutral mode q_{2k} = 0 to first order.

    The pointwise route: q and grad q at the quadrature nodes, and the
    projections of N + D_s + R_s and of the coupling y^{2k} e_b q on H_{2k},
    in one call, for modulation_rate. Raises ModulationBreakdownError when
    the denominator wanders too close to zero.
    """
    p, k = params.p, params.k
    I = float(scale_factor(s, k))
    y = quad.nodes / I
    modes, rem = np.asarray(state.modes, dtype=float), state.remainder
    q = hermite_series(modes, y, s, k) + sample(rem.nodes, rem.values, y)
    dq = hermite_series(modes[1:] * np.arange(1, modes.size), y, s, k) + sample(
        rem.nodes, derivative(rem.values, rem.spacing), y)
    _, e = eval_profile(y, b, params)
    pw = node_powers(y, k)
    sources = np.array((
        nonlinear_values(q, e, p), drift_values(dq, pw, e, b, I**-2, params),
        residual_values(q, pw, e, b, I**-2, params), pw.y2k * e * q,
    ))
    P = project_modes_from_samples(sources, s, k, 2 * k + 1, quad)[:, 2 * k]
    return modulation_rate(P[0] + P[1] + P[2], P[3], p)


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
) -> float:
    """Max-norm gap between the assembled q-RHS and the transformed w-RHS.

    Route A assembles L_s q + N + D_s + R_s + b' M with the requested variant.
    Route B maps q -> w, evaluates the w-equation RHS with the same stencils,
    and transforms back with b frozen plus the chain-rule b' term (which is
    the "derived" modulation form by construction). The gap over the grid
    interior is the derivation-consistency residual.
    """
    _check_variant(variant)
    p = params.p
    I2inv = float(scale_factor(s, params.k)) ** -2
    f, e = eval_profile(q.nodes, b, params)
    pw = node_powers(q.nodes, params.k)
    dq = derivative(q.values, q.spacing)
    assembled = (
        apply_Ls(q, s, params).values
        + nonlinear_values(q.values, e, p)
        + drift_values(dq, pw, e, b, I2inv, params)
        + residual_values(q.values, pw, e, b, I2inv, params, variant)
        + bprime * modulation_values(q.values, pw, e, params, variant)
    )

    w = q.with_values(q_to_w(q.values, q.nodes, b, params))
    chain = modulation_values(q.values, pw, e, params)
    direct = f ** (-p) * w_rhs(w, s, params).values + bprime * chain

    sl = slice(N_EDGE, len(q) - N_EDGE)
    return float(np.max(np.abs(assembled[sl] - direct[sl])))
