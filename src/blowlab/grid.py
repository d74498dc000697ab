"""Sampled functions on a shared node set, finite differences, interpolation.

Fields (q, w, remainders, kernels) are represented as values on a strictly
increasing node vector. Differentiation assumes uniform spacing: 4th-order
centered stencils in the interior, 4th-order biased stencils at the two nodes
nearest each boundary. Interpolation is local 4-point Lagrange; query points
outside the node range are clamped to the edge cell (callers only do this
where a Gaussian weight has already killed the integrand).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridFunction",
    "uniform_grid",
    "derivative",
    "upwind_gradient",
    "second_derivative",
    "laplacian_compact",
    "sample",
    "sample_matrix",
    "band",
    "probed_band",
    "RK4_TRANSPORT_CFL",
    "RK4_DIFFUSION_CFL",
    "RK4_TRANSPORT_ALONE_CFL",
]

_MIN_NODES = 6

# The step ceilings of classical RK4 on this module's explicit kernels, as
# fractions of h / max|wind| for upwind_gradient and of h^2 / diffusivity for
# laplacian_compact. From each interior stencil's symbol and the RK4
# stability region (Hairer-Norsett-Wanner, Solving ODEs I, sec. IV.2) the
# limits are 1.745 and 0.696; these values keep 31% and 35% of them in
# hand. A solver that steps both kernels explicitly steps at the smaller
# ceiling. Where the two ceilings meet, their sum leaves the region for
# grid-scale modes near outflow edges, where the wind is largest; the wind
# carries those out within a few steps, so grid noise grows there no faster
# than at a third of the step.
RK4_TRANSPORT_CFL = 1.2
RK4_DIFFUSION_CFL = 0.45
# The ceiling of RK4 on upwind_gradient's transport alone, where the
# diffusion is integrated exactly and no ceiling of its own meets this one.
# The interior stencil (f[i-2] - 6 f[i-1] + 3 f[i] + 2 f[i+1]) / 6h has the
# symbol g(t) = (e^{-2it} - 6 e^{-it} + 3 + 2 e^{it}) / 6, and
# |R(-c g(t))| <= 1 for every t, R RK4's stability polynomial, holds up to
# c = 1.7453; this value keeps 8% of it in hand. The powers of RK4's
# amplification matrix of the whole discrete transport -(y/2k) d/dy, edge
# rows included, stay bounded there; at 0.06 of the flow's default outer
# grid (c = 1.92) they no longer do.
RK4_TRANSPORT_ALONE_CFL = 1.6
PROBE_REACH = 3  # how far laplacian_compact, upwind_gradient and derivative read (probed_band)


@dataclass(frozen=True)
class GridFunction:
    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or values.ndim != 1:
            raise ValueError("nodes and values must be one-dimensional")
        if nodes.size != values.size:
            raise ValueError("nodes and values must have equal length")
        if nodes.size >= 2 and not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.nodes.size

    @property
    def spacing(self) -> float:
        if self.nodes.size < 2:
            raise ValueError("operation requires at least 2 nodes")
        h = np.diff(self.nodes)
        if not np.allclose(h, h[0], rtol=1e-9, atol=0.0):
            raise ValueError("operation requires a uniform grid")
        return float(h[0])

    def with_values(self, values) -> "GridFunction":
        """The same nodes with other values; the nodes are not checked again."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.nodes.shape:
            raise ValueError("nodes and values must have equal length")
        out = object.__new__(GridFunction)
        object.__setattr__(out, "nodes", self.nodes)
        object.__setattr__(out, "values", values)
        return out


def uniform_grid(y_max: float, n: int) -> np.ndarray:
    """n nodes spanning [-y_max, y_max]; use odd n to include the origin."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return np.linspace(-y_max, y_max, n)


def derivative(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative along axis 0, 4th order (centered interior, biased at boundaries)."""
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    if n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes for differentiation")
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return out


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative along axis 0, 4th order (centered interior, biased at boundaries)."""
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    if n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes for differentiation")
    h2 = 12.0 * h * h
    out = np.empty_like(f)
    out[2:-2] = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / h2
    out[0] = (45.0 * f[0] - 154.0 * f[1] + 214.0 * f[2] - 156.0 * f[3] + 61.0 * f[4] - 10.0 * f[5]) / h2
    out[1] = (10.0 * f[0] - 15.0 * f[1] - 4.0 * f[2] + 14.0 * f[3] - 6.0 * f[4] + f[5]) / h2
    out[-2] = (10.0 * f[-1] - 15.0 * f[-2] - 4.0 * f[-3] + 14.0 * f[-4] - 6.0 * f[-5] + f[-6]) / h2
    out[-1] = (45.0 * f[-1] - 154.0 * f[-2] + 214.0 * f[-3] - 156.0 * f[-4] + 61.0 * f[-5] - 10.0 * f[-6]) / h2
    return out


def upwind_gradient(values: np.ndarray, h: float, wind: np.ndarray) -> np.ndarray:
    """3rd-order upwind-biased first derivative along axis 0; 2nd-order one-sided edges.

    wind >= 0 biases the stencil to the left (information moves right). The
    built-in O(h^3) dissipation keeps transport-dominated explicit stepping
    stable where diffusion is too weak to damp grid noise. The wind must be
    non-decreasing, as y/2k and z/2 are, so that it changes sign at most
    once: each interior node then takes one stencil, split at that change.
    """
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    if n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes for differentiation")
    out = np.empty_like(f)
    # the interior nodes before c have wind < 0, the rest wind >= 0; the
    # wind is sorted, so a binary search finds c
    c = 2 + int(np.asarray(wind)[2:-2].searchsorted(0.0))
    out[2:c] = (
        -2.0 * f[1 : c - 1] - 3.0 * f[2:c] + 6.0 * f[3 : c + 1] - f[4 : c + 2]
    ) / (6.0 * h)
    out[c:-2] = (
        f[c - 2 : -4] - 6.0 * f[c - 1 : -3] + 3.0 * f[c:-2] + 2.0 * f[c + 1 : -1]
    ) / (6.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[1] = (f[2] - f[0]) / (2.0 * h)
    out[-2] = (f[-1] - f[-3]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def laplacian_compact(values: np.ndarray, h: float) -> np.ndarray:
    """3-point second derivative along axis 0, with 2nd-order one-sided edges.

    Lower order than second_derivative() but free of the high-order edge
    closures that destabilize transport-dominated explicit stepping.
    """
    f = np.asarray(values, dtype=float)
    if f.shape[0] < 4:
        raise ValueError("need at least 4 nodes")
    out = np.empty_like(f)
    out[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / (h * h)
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h)
    return out


def _cubic_stencil(nodes: np.ndarray, pts: np.ndarray):
    """Base index and the four Lagrange weights of sample()'s local cubic."""
    n = nodes.size
    if n < 4:
        raise ValueError("need at least 4 nodes to interpolate")
    h = (nodes[-1] - nodes[0]) / (n - 1)
    # base index of the 4-point stencil; target cell is [base+1, base+2]
    base = np.floor((pts - nodes[0]) / h).astype(int) - 1
    np.minimum(np.maximum(base, 0, out=base), n - 4, out=base)
    t = (pts - nodes[base]) / h
    t1, t2, t3 = t - 1.0, t - 2.0, t - 3.0
    w0 = -t1 * t2 * t3 / 6.0
    w1 = t * t2 * t3 / 2.0
    w2 = -t * t1 * t3 / 2.0
    w3 = t * t1 * t2 / 6.0
    return base, (w0, w1, w2, w3)


def sample(nodes: np.ndarray, values: np.ndarray, points) -> np.ndarray:
    """Evaluate grid data at arbitrary points by local cubic Lagrange.

    Assumes uniform nodes. Out-of-range points are clamped to the boundary
    cell (nearest-edge cubic extension).
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    base, (w0, w1, w2, w3) = _cubic_stencil(nodes, np.asarray(points, dtype=float))
    return (
        w0 * values[base]
        + w1 * values[base + 1]
        + w2 * values[base + 2]
        + w3 * values[base + 3]
    )


def sample_matrix(nodes: np.ndarray, points) -> np.ndarray:
    """The linear map values -> sample(nodes, values, points) as a dense matrix."""
    nodes = np.asarray(nodes, dtype=float)
    pts = np.asarray(points, dtype=float).ravel()
    base, weights = _cubic_stencil(nodes, pts)
    out = np.zeros((pts.size, nodes.size))
    rows = np.arange(pts.size)
    for c, w in enumerate(weights):
        out[rows, base + c] = w
    return out


def _windows(nz: np.ndarray, offset, n_cols: int) -> np.ndarray:
    """band's windows, (width, rows), of the nonzeros nz[i, t] at columns offset[i] + t."""
    first = nz.argmax(axis=1)  # 0 in a zero row
    span = nz.shape[1] - nz[:, ::-1].argmax(axis=1) - first
    width = int(np.max(span, where=nz.any(axis=1), initial=1))
    return np.minimum(offset + first, n_cols - width) + np.arange(width)[:, None]


def band(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A matrix's rows as windows of one width over its columns: (columns, weights).

    Each row's window starts at its first nonzero column, moved left where
    it would run past the last column, and is as wide as the widest span of
    nonzeros in a row; a zero row takes the first window, with zero weights.
    Then A @ v = einsum("jn,jn->n", weights, v[columns]).
    """
    columns = _windows(A != 0.0, 0, A.shape[1])
    return columns, A[np.arange(A.shape[0]), columns]


def probed_band(kernels, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(columns, weights) of linear kernels on n nodes, from 2 PROBE_REACH + 1 probes.

    The columns are band's windows over the nonzeros of all the kernels'
    matrices, and weights[i] holds kernel i's entries on them. Each kernel
    acts along axis 0 of an (n, m) array, m = min(2 PROBE_REACH + 1, n), and
    row i of its matrix must vanish outside the m columns from
    clip(i - PROBE_REACH, 0, n - m): derivative's one-sided rows 0 and n - 1
    read 4 nodes inward, past PROBE_REACH but inside them. Probe j is 1 on
    nodes j, j + m, j + 2m, ..., so row i of a kernel's image of it is the
    entry of the one such node in the row's m columns. No n x n array is
    formed, and the weights are C-contiguous.
    """
    m = min(2 * PROBE_REACH + 1, n)
    rows = np.arange(n)
    offset = np.clip(rows - PROBE_REACH, 0, n - m)  # m columns from here hold row i's reach
    probes = np.equal.outer(rows % m, np.arange(m)).astype(float)
    cols = (offset[:, None] + np.arange(m)) % m
    local = np.stack([K(probes)[rows[:, None], cols] for K in kernels])
    columns = _windows((local != 0.0).any(axis=0), offset, n)
    t = columns - offset  # >= 0; past its m columns a row is zero
    weights = np.where(t < m, local[:, rows, np.minimum(t, m - 1)], 0.0)
    return columns, np.ascontiguousarray(weights)
