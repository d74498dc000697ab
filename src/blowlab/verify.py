"""Identity suites for the spectral basis and the Gaussian propagator.

Everything here has two independent routes: closed forms on one side and
Gauss quadrature (or direct kernel integration) on the other. The reports
collect worst-case errors so the CLI and the acceptance suite can assert
against fixed thresholds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .hermite import (
    eval_scaled_hermite,
    gauss_rule,
    inner_product,
    mode_norm_sq,
    multiply_identity,
)
from .mehler import kernel_eval, mode_multiplier, propagate
from .params import scale_factor

__all__ = ["SpectralReport", "MehlerReport", "verify_spectral", "verify_mehler"]


@dataclass(frozen=True)
class SpectralReport:
    orthogonality_rel_err: float
    jordan_rel_err: float
    product_identity_err: float
    weight_mass_err: float

    def passed(self) -> bool:
        return (
            self.orthogonality_rel_err < 1e-8
            and self.jordan_rel_err < 1e-8
            and self.product_identity_err < 1e-10
            and self.weight_mass_err < 1e-12
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MehlerReport:
    multiplier_rel_err: float
    semigroup_err: float
    mass_rel_err: float

    def passed(self) -> bool:
        return (
            self.multiplier_rel_err < 1e-5
            and self.semigroup_err < 1e-4
            and self.mass_rel_err < 1e-8
        )

    def to_dict(self) -> dict:
        return asdict(self)


def verify_spectral(k_values=(2, 3), s_values=(2.0, 10.0, 30.0), n_max: int = 12) -> SpectralReport:
    """Orthogonality, generator action, and product identities of the basis."""
    quad = gauss_rule()
    worst_orth = 0.0
    worst_jordan = 0.0
    worst_prod = 0.0
    worst_mass = 0.0
    for k in k_values:
        for s in s_values:
            I2inv = float(scale_factor(s, k)) ** -2

            one = lambda y: np.ones_like(y)
            mass = inner_product(one, one, s, k, quad)
            worst_mass = max(worst_mass, abs(mass - 1.0))

            basis = [
                (lambda y, m=m: eval_scaled_hermite(m, y, s, k)) for m in range(n_max + 1)
            ]
            norms = [mode_norm_sq(n, s, k) for n in range(n_max + 1)]
            for n in range(n_max + 1):
                for m in range(n, n_max + 1):
                    val = inner_product(basis[n], basis[m], s, k, quad)
                    exact = norms[n] if n == m else 0.0
                    scale = math.sqrt(norms[n] * norms[m])
                    worst_orth = max(worst_orth, abs(val - exact) / scale)

            for m in range(n_max + 1):
                def gen(y, m=m):
                    d2 = m * (m - 1) * eval_scaled_hermite(max(m - 2, 0), y, s, k) if m >= 2 else 0.0
                    d1 = m * eval_scaled_hermite(m - 1, y, s, k) if m >= 1 else 0.0
                    return I2inv * d2 - y / (2.0 * k) * d1 + eval_scaled_hermite(m, y, s, k)

                def pred(y, m=m):
                    out = (1.0 - m / (2.0 * k)) * eval_scaled_hermite(m, y, s, k)
                    if m >= 2:
                        out = out + m * (m - 1) * (1.0 - 1.0 / k) * I2inv * eval_scaled_hermite(m - 2, y, s, k)
                    return out

                diff = lambda y, g=gen, p=pred: g(y) - p(y)
                num = inner_product(diff, diff, s, k, quad)
                den = inner_product(pred, pred, s, k, quad)
                worst_jordan = max(worst_jordan, math.sqrt(max(num, 0.0) / den))

            for ell in (1, 2):
                for n in range(n_max - ell + 1):
                    closed = multiply_identity(ell, n, s, k)
                    f = lambda y, n=n, ell=ell: y**ell * eval_scaled_hermite(n, y, s, k)
                    for j, c in closed.items():
                        proj = inner_product(
                            f, lambda y, j=j: eval_scaled_hermite(j, y, s, k), s, k, quad
                        ) / norms[j]
                        worst_prod = max(worst_prod, abs(proj - c))
    return SpectralReport(
        orthogonality_rel_err=float(worst_orth),
        jordan_rel_err=float(worst_jordan),
        product_identity_err=float(worst_prod),
        weight_mass_err=float(worst_mass),
    )


def verify_mehler(
    k: int = 2,
    sigma: float = 4.0,
    gaps=(0.1, 0.5, 1.0, 2.0, 3.0),
    n_max: int = 8,
) -> MehlerReport:
    """Mode multipliers, semigroup composition, and kernel mass."""
    quad = gauss_rule()
    wq = quad.weights / math.sqrt(4.0 * math.pi)
    worst_mult = 0.0
    for gap in gaps:
        s = sigma + gap
        I_s = float(scale_factor(s, k))
        y_q = quad.nodes / I_s
        for n in range(n_max + 1):
            f = lambda y, n=n: eval_scaled_hermite(n, y, sigma, k)
            target = mode_multiplier(n, sigma, s, k) * eval_scaled_hermite(n, y_q, s, k)
            prop = propagate(f, sigma, s, k, out_nodes=y_q, quad_order=160).values
            num = float(np.sum(wq * (prop - target) ** 2))
            den = float(np.sum(wq * target**2))
            worst_mult = max(worst_mult, math.sqrt(num / den))

    # semigroup: sigma -> tau -> s against sigma -> s on a smooth test function
    tau, s = sigma + 0.7, sigma + 1.8
    I_s = float(scale_factor(s, k))
    out_nodes = np.linspace(-25.0 / I_s, 25.0 / I_s, 1201)
    bump = lambda y: np.exp(-(y**2)) * (1.0 + y + 0.5 * y**3)
    one_hop = propagate(bump, sigma, s, k, out_nodes=out_nodes, quad_order=160)
    I_tau = float(scale_factor(tau, k))
    mid_nodes = np.linspace(-25.0 / I_tau, 25.0 / I_tau, 2401)
    mid = propagate(bump, sigma, tau, k, out_nodes=mid_nodes, quad_order=160)
    two_hop = propagate(mid, tau, s, k, out_nodes=out_nodes, quad_order=160)
    semi_err = float(
        np.max(np.abs(two_hop.values - one_hop.values)) / np.max(np.abs(one_hop.values))
    )

    # kernel mass by direct dense integration (independent of the Gauss rule)
    worst_mass = 0.0
    for gap in (0.1, 1.0, 3.0):
        s2 = sigma + gap
        L = float(scale_factor(sigma, k)) / math.sqrt(1.0 - math.exp(-gap))
        for y0 in (0.0, 0.4):
            mu = math.exp(-gap / (2 * k)) * y0
            z = np.linspace(mu - 40.0 / L, mu + 40.0 / L, 40001)
            vals = kernel_eval(y0, z, s2, sigma, k)
            mass = np.trapezoid(vals, z)
            worst_mass = max(worst_mass, abs(mass - math.exp(gap)) / math.exp(gap))
    return MehlerReport(
        multiplier_rel_err=float(worst_mult),
        semigroup_err=float(semi_err),
        mass_rel_err=float(worst_mass),
    )
