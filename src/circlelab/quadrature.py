"""Nested tensor-product quadrature over the support cube of a bump weight.

Integrands here are C-infinity and vanish to all orders on the boundary of
the cube circumscribing the weight's support ball, so the trapezoidal rule
on nested dyadic grids is spectrally accurate (every Euler-Maclaurin
boundary correction vanishes).  Each refinement doubles the per-axis
resolution; the difference between successive levels is the error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .util import CapExceededError

__all__ = ["QuadResult", "tensor_integral", "axis_nodes_weights"]

MAX_DIM = 4
MIN_LEVEL = 3
DEFAULT_MAX_LEVEL = 12
POINT_CAP = 2**24


class QuadratureError(RuntimeError):
    """Raised when refinement reaches the depth limit without converging."""


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    level: int


def axis_nodes_weights(center: float, half: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes/weights with m intervals on [center-half, center+half]."""
    nodes = np.linspace(center - half, center + half, m + 1)
    w = np.full(m + 1, 2.0 * half / m)
    w[0] *= 0.5
    w[-1] *= 0.5
    return nodes, w


def _level_value(
    f: Callable[[list[np.ndarray]], np.ndarray],
    centers: Sequence[float],
    half: float,
    m: int,
) -> complex:
    ndim = len(centers)
    axes = []
    weights = []
    for i, c in enumerate(centers):
        nodes, w = axis_nodes_weights(c, half, m)
        shape = [1] * ndim
        shape[i] = m + 1
        axes.append(nodes.reshape(shape))
        weights.append(w)
    vals = np.asarray(f(axes))
    for w in reversed(weights):
        vals = np.tensordot(vals, w, axes=([vals.ndim - 1], [0]))
    return complex(vals)


def tensor_integral(
    f: Callable[[list[np.ndarray]], np.ndarray],
    centers: Sequence[float],
    half: float,
    tol: float,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> QuadResult:
    """Integrate f over the cube prod_i [c_i - half, c_i + half].

    f receives one broadcastable coordinate array per axis and must return
    the integrand on the implied tensor grid.  Refines until successive
    levels differ by less than tol (absolute).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ndim = len(centers)
    if ndim > MAX_DIM:
        raise ValueError(f"quadrature supports n <= {MAX_DIM}, got n = {ndim}")
    prev = None
    for level in range(MIN_LEVEL, max_level + 1):
        m = 2**level
        if (m + 1) ** ndim > POINT_CAP:
            raise CapExceededError(
                f"quadrature grid {(m + 1)}^{ndim} exceeds point cap {POINT_CAP}"
            )
        val = _level_value(f, centers, half, m)
        if prev is not None:
            err = abs(val - prev)
            if err < tol:
                return QuadResult(val, err, level)
        prev = val
    raise QuadratureError(
        f"no convergence to tol={tol} within depth {max_level} (last value {prev})"
    )
