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
]

_MIN_NODES = 6


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
        h = np.diff(self.nodes)
        if not np.allclose(h, h[0], rtol=1e-9, atol=0.0):
            raise ValueError("operation requires a uniform grid")
        return float(h[0])

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.nodes, values)


def uniform_grid(y_max: float, n: int) -> np.ndarray:
    """n nodes spanning [-y_max, y_max]; use odd n to include the origin."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return np.linspace(-y_max, y_max, n)


def derivative(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative, 4th order (centered interior, biased at boundaries)."""
    f = np.asarray(values, dtype=float)
    n = f.size
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
    """Second derivative, 4th order (centered interior, biased at boundaries)."""
    f = np.asarray(values, dtype=float)
    n = f.size
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
    """3rd-order upwind-biased first derivative; 2nd-order one-sided edges.

    wind > 0 biases the stencil to the left (information moves right). The
    built-in O(h^3) dissipation keeps transport-dominated explicit stepping
    stable where diffusion is too weak to damp grid noise.
    """
    f = np.asarray(values, dtype=float)
    n = f.size
    if n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes for differentiation")
    out = np.empty_like(f)
    pos = (f[:-4] - 6.0 * f[1:-3] + 3.0 * f[2:-2] + 2.0 * f[3:-1]) / (6.0 * h)
    neg = (-2.0 * f[1:-3] - 3.0 * f[2:-2] + 6.0 * f[3:-1] - f[4:]) / (6.0 * h)
    out[2:-2] = np.where(np.asarray(wind)[2:-2] >= 0.0, pos, neg)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[1] = (f[2] - f[0]) / (2.0 * h)
    out[-2] = (f[-1] - f[-3]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def laplacian_compact(values: np.ndarray, h: float) -> np.ndarray:
    """3-point second derivative with 2nd-order one-sided edges.

    Lower order than second_derivative() but free of the high-order edge
    closures that destabilize transport-dominated explicit stepping.
    """
    f = np.asarray(values, dtype=float)
    if f.size < 4:
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
    j = np.floor((pts - nodes[0]) / h).astype(int)
    base = np.clip(j - 1, 0, n - 4)
    t = (pts - nodes[base]) / h
    w0 = -(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0
    w1 = t * (t - 2.0) * (t - 3.0) / 2.0
    w2 = -t * (t - 1.0) * (t - 3.0) / 2.0
    w3 = t * (t - 1.0) * (t - 2.0) / 6.0
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
