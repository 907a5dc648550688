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

from .util import DEFAULT_CAP, CapExceededError, chunk_ranges

__all__ = ["QuadResult", "tensor_integral", "grid_contract", "axis_nodes_weights"]

MIN_LEVEL = 3
DEFAULT_MAX_LEVEL = 12
# integrand values times matrix rows per slab of grid_contract
SLAB_POINTS = 2**22


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


def grid_contract(
    f: Callable[[list[np.ndarray]], np.ndarray],
    centers: Sequence[float],
    half: float,
    m: int,
    ks: np.ndarray | None = None,
    step: float = 1.0,
) -> np.ndarray:
    """Trapezoid sums of f(x) e(-step k.x) over the tensor grid with m intervals per axis.

    Without ks this is the single sum for k = 0, a 0-d array.  With ks it
    is the whole family k in ks^n, an array indexed like ks along every
    axis.  Each axis is contracted with its weight vector, or with its
    (len(ks), m+1) phase-times-weight matrix, from the last axis to the
    first.  f is evaluated in slabs along axis 0 whose size times the
    number of matrix rows stays within SLAB_POINTS (one row of axis 0 at
    least), so memory is set by the slab and the result, not by the grid.
    """
    n = len(centers)
    grid = [axis_nodes_weights(c, half, m) for c in centers]

    def matrix(i: int, lo: int, hi: int) -> np.ndarray:
        nodes, w = grid[i]
        if ks is None:
            return w[lo:hi]
        return np.exp(-2j * np.pi * step * np.outer(ks, nodes[lo:hi])) * w[lo:hi]

    rest = [matrix(i, 0, m + 1) for i in range(1, n)]
    rest_axes = [grid[i][0].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i)) for i in range(1, n)]
    rows = 1 if ks is None else len(ks)
    slab = max(1, SLAB_POINTS // ((m + 1) ** (n - 1) * rows))
    total = None
    for lo, hi in chunk_ranges(0, m + 1, slab):
        vals = np.asarray(f([grid[0][0][lo:hi].reshape((-1,) + (1,) * (n - 1))] + rest_axes))
        # axis i stays at position i: every later axis was summed away or
        # replaced by its frequency axis at the end
        for i in range(n - 1, -1, -1):
            mat = rest[i - 1] if i else matrix(0, lo, hi)
            vals = np.tensordot(vals, mat, axes=([i], [mat.ndim - 1]))
        if total is None:
            total = vals
        else:
            total += vals
    # the frequency axes came out last axis first
    return np.transpose(total)


def tensor_integral(
    f: Callable[[list[np.ndarray]], np.ndarray],
    centers: Sequence[float],
    half: float,
    tol: float,
    max_level: int = DEFAULT_MAX_LEVEL,
    cap: int = DEFAULT_CAP,
) -> QuadResult:
    """Integrate f over the cube prod_i [c_i - half, c_i + half].

    f receives one broadcastable coordinate array per axis and must return
    the integrand on the implied tensor grid.  Refines until successive
    levels differ by less than tol (absolute); each level's (2^level + 1)^n
    grid is charged to cap.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ndim = len(centers)
    prev = None
    for level in range(MIN_LEVEL, max_level + 1):
        m = 2**level
        if (m + 1) ** ndim > cap:
            raise CapExceededError(f"quadrature grid {(m + 1)}^{ndim} exceeds point cap {cap}")
        val = complex(grid_contract(f, centers, half, m))
        if prev is not None:
            err = abs(val - prev)
            if err < tol:
                return QuadResult(val, err, level)
        prev = val
    raise QuadratureError(
        f"no convergence to tol={tol} within depth {max_level} (last value {prev})"
    )
