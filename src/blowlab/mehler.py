"""Fundamental solution of d_s = L_s as an explicit Gaussian kernel.

The propagator from scale sigma to scale s > sigma acts by

    (K f)(y) = e^{s-sigma} * integral F(e^{-(s-sigma)/2k} y - z) f(z) dz,
    F(xi)   = L / sqrt(4 pi) * exp(-L^2 xi^2 / 4),
    L       = I(sigma) / sqrt(1 - e^{-(s-sigma)}),

and multiplies the basis polynomial H_n by e^{(s-sigma)(1 - n/2k)}: modes
below 2k grow, the 2k mode is neutral, higher modes decay. This module is a
verification and diagnostics tool; the time integration in the flow module
does not go through the kernel.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .grid import GridFunction
from .hermite import _values_at
from .params import scale_factor

__all__ = ["kernel_eval", "mode_multiplier", "propagate"]


def _kernel_width(sigma: float, s: float, k: int) -> float:
    if not s > sigma:
        raise ValueError("propagation requires s > sigma")
    I_sigma = float(scale_factor(sigma, k))
    return I_sigma / math.sqrt(-math.expm1(-(s - sigma)))


def kernel_eval(y, z, s: float, sigma: float, k: int):
    """Kernel value K_{s,sigma}(y, z); positive, mass e^{s-sigma} in z."""
    L = _kernel_width(sigma, s, k)
    xi = math.exp(-(s - sigma) / (2 * k)) * np.asarray(y, dtype=float) - np.asarray(z, dtype=float)
    gauss = L / math.sqrt(4.0 * math.pi) * np.exp(-(L * xi) ** 2 / 4.0)
    return math.exp(s - sigma) * gauss


def mode_multiplier(n: int, sigma: float, s: float, k: int) -> float:
    """Amplitude factor e^{(s-sigma)(1 - n/2k)} of H_n under propagation."""
    if s < sigma:
        raise ValueError("requires s >= sigma")
    return math.exp((s - sigma) * (1.0 - n / (2.0 * k)))


def propagate(
    f, sigma: float, s: float, k: int,
    out_nodes: np.ndarray | None = None,
    quad_order: int = 80,
):
    """Apply the propagator to f (GridFunction or callable of y).

    The z-integral uses a Gauss rule centered on the kernel's own Gaussian
    (nodes at e^{-(s-sigma)/2k} y + 2 x_i / L), so accuracy is uniform in the
    gap s - sigma, down to the smallest. s must exceed sigma.
    """
    if out_nodes is None:
        if not isinstance(f, GridFunction):
            raise ValueError("out_nodes required for callable input")
        out_nodes = f.nodes
    out_nodes = np.asarray(out_nodes, dtype=float)
    L = _kernel_width(sigma, s, k)
    mu = math.exp(-(s - sigma) / (2 * k)) * out_nodes
    x, wq = hermgauss(quad_order)
    pts = mu[:, None] + (2.0 / L) * x[None, :]
    vals = _values_at(f, pts.ravel()).reshape(pts.shape)
    integral = vals @ wq / math.sqrt(math.pi)
    return GridFunction(out_nodes, math.exp(s - sigma) * integral)
