"""Nested tensor-product quadrature over the support cube of a bump weight.

Integrands here are C-infinity and vanish to all orders on the boundary of
the cube circumscribing the weight's support ball, so the trapezoidal rule
on nested dyadic grids is spectrally accurate (every Euler-Maclaurin
boundary correction vanishes).  Each refinement doubles the per-axis
resolution; the difference between successive levels is the error estimate.
Integrands vanish outside the ball, so they are evaluated only on the
support boxes that the direct Weyl sums use too (weightfn.support_chunks),
about pi/6 of the cube at n = 3; the nodes outside are exact zeros that the
rule loses nothing by skipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .util import DEFAULT_CAP, CapExceededError, chunk_ranges
from .weightfn import Weight, support_chunks

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
    weight: Weight,
    m: int,
    ks: np.ndarray | None = None,
    step: float = 1.0,
) -> np.ndarray:
    """Trapezoid sums of f(x) e(-step k.x) over the tensor grid with m
    intervals per axis on the weight's support cube.

    Without ks this is the single sum for k = 0, a 0-d array.  With ks it
    is the whole family k in ks^n, an array indexed like ks along every
    axis.  The grid is streamed in slabs along axis 0 whose size times the
    number of matrix rows stays within SLAB_POINTS (one row of axis 0 at
    least), so memory is set by the slab and the result, not by the grid.
    f is called only on the boxes of weightfn.support_chunks that cover the
    slab's nodes in the support ball (node k of axis i is c_i - xi + k/P
    with P = m / (2 xi)); the rest of the slab is 0, so f must vanish
    wherever omega does, as omega times a finite factor does.  Each axis of
    the slab is then contracted with its weight vector, or with its
    (len(ks), m+1) phase-times-weight matrix, from the last axis to the
    first, exactly as on values of f over the whole slab.
    """
    n = weight.n
    grid = [axis_nodes_weights(c, weight.xi, m) for c in weight.center]
    origin = [c - weight.xi for c in weight.center]
    P = m / (2.0 * weight.xi)

    def matrix(i: int, lo: int, hi: int) -> np.ndarray:
        nodes, w = grid[i]
        if ks is None:
            return w[lo:hi]
        return np.exp(-2j * np.pi * step * np.outer(ks, nodes[lo:hi])) * w[lo:hi]

    def axis(i: int, lo: int, hi: int) -> np.ndarray:
        return grid[i][0][lo : hi + 1].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))

    rest = [matrix(i, 0, m + 1) for i in range(1, n)]
    rows = 1 if ks is None else len(ks)
    slab = max(1, SLAB_POINTS // ((m + 1) ** (n - 1) * rows))
    total = None
    for lo, hi in chunk_ranges(0, m + 1, slab):
        vals = None
        for box in support_chunks(weight, P, [(lo, hi - 1)] + [(0, m)] * (n - 1), origin):
            part = np.asarray(f([axis(i, a, b) for i, (a, b) in enumerate(box)]))
            if vals is None:
                vals = np.zeros((hi - lo,) + (m + 1,) * (n - 1), dtype=part.dtype)
            cut = [slice(a, b + 1) for a, b in box]
            cut[0] = slice(box[0][0] - lo, box[0][1] - lo + 1)
            vals[tuple(cut)] = part
        if vals is None:
            continue  # no node of this slab lies in the support
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
    weight: Weight,
    tol: float,
    max_level: int = DEFAULT_MAX_LEVEL,
    cap: int = DEFAULT_CAP,
) -> QuadResult:
    """Integrate f over the weight's support cube prod_i [c_i - xi, c_i + xi].

    f receives one broadcastable coordinate array per axis and must return
    the integrand on the implied tensor grid; it must vanish wherever omega
    does, since grid_contract calls it on the support boxes only.  Refines
    until successive levels differ by less than tol (absolute); each
    level's whole (2^level + 1)^n grid is charged to cap.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ndim = weight.n
    prev = None
    for level in range(MIN_LEVEL, max_level + 1):
        m = 2**level
        if (m + 1) ** ndim > cap:
            raise CapExceededError(f"quadrature grid {(m + 1)}^{ndim} exceeds point cap {cap}")
        val = complex(grid_contract(f, weight, m))
        if prev is not None:
            err = abs(val - prev)
            if err < tol:
                return QuadResult(val, err, level)
        prev = val
    raise QuadratureError(
        f"no convergence to tol={tol} within depth {max_level} (last value {prev})"
    )
