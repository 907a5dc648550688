"""Nested tensor-product quadrature over the support cube of a bump weight.

Integrands here are C-infinity and vanish to all orders on the boundary of
the cube circumscribing the weight's support ball, so the trapezoidal rule
on nested dyadic grids is spectrally accurate (every Euler-Maclaurin
boundary correction vanishes).  Each refinement doubles the per-axis
resolution; the difference between successive levels is the error estimate.
Integrands vanish outside the support ball, so on the cube's boundary, the
only nodes whose trapezoid weight is not h = 2 xi / m per axis: the rule is
h^n times the sum over the support boxes of the direct Weyl sums
(weightfn.support_chunks), box by box, about pi/6 of the cube at n = 3.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .util import DEFAULT_CAP, CapExceededError, fsum_complex
from . import weightfn
from .weightfn import Weight, support_chunks

__all__ = ["QuadResult", "QuadratureError", "tensor_integral", "grid_contract"]

MIN_LEVEL = 3
MAX_LEVEL = 12


class QuadratureError(RuntimeError):
    """Raised when refinement reaches the depth limit without converging."""


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    level: int


def _phase_matrix(x: np.ndarray, ks: np.ndarray, step: float, h: float) -> np.ndarray:
    """h e(-step k x) with a row per node x and a column per k in ks.

    The column of -k is the conjugate of the column of k bit for bit: its
    argument only changes sign, cos is even and sin odd.  So only the
    distinct |k| take an exp, and the columns of negative k are conjugated
    copies."""
    absk, col = np.unique(np.abs(ks), return_inverse=True)
    # take keeps the rows contiguous, as grid_contract needs; [:, col] would not
    mat = np.take(h * np.exp(-2j * np.pi * step * np.outer(x, absk)), col, axis=1)
    return np.conjugate(mat, out=mat, where=np.asarray(ks) < 0)


def grid_contract(
    f: Callable[[list[np.ndarray]], np.ndarray],
    weight: Weight,
    m: int,
    ks: np.ndarray | None = None,
    step: float = 1.0,
) -> np.ndarray:
    """Trapezoid sums of f(x) e(-step k.x) over the tensor grid with m
    intervals per axis on the weight's support cube.

    Without ks this is the single sum for k = 0, a 0-d array: h^n times the
    fsum_complex of the box sums.  With ks it is the family k in ks^n, an
    array indexed like ks along every axis: each box contracted axis by
    axis with its rows of the matrix h e(-step k x_i), the boxes added up.
    f is called only on the support boxes of the grid (node k of axis i is
    c_i - xi + k/P with P = m / (2 xi)), so it must vanish wherever omega
    does, as omega times a finite factor does.  Memory is set by one box
    and the result.
    """
    n = weight.n
    nodes = [np.linspace(c - weight.xi, c + weight.xi, m + 1) for c in weight.center]
    origin = [c - weight.xi for c in weight.center]
    h = 2.0 * weight.xi / m
    if ks is not None:
        # node-major, so that a box's rows of it are one contiguous block
        mats = [_phase_matrix(x, ks, step, h) for x in nodes]
        total = np.zeros((len(ks),) * n, dtype=complex)
    sums = []
    for box in support_chunks(weight, m / (2.0 * weight.xi), [(0, m)] * n, origin, weightfn.CHUNK):
        axes = [
            nodes[i][a : b + 1].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            for i, (a, b) in enumerate(box)
        ]
        vals = np.broadcast_to(f(axes), tuple(b - a + 1 for a, b in box))
        if ks is None:
            sums.append(complex(vals.sum()))
            continue
        # axis i stays at position i: every later axis was already replaced
        # by its frequency axis at the end
        for i in range(n - 1, -1, -1):
            a, b = box[i]
            vals = np.tensordot(vals, mats[i][a : b + 1], axes=([i], [0]))
        total += vals
    if ks is None:
        return np.asarray(h**n * fsum_complex(sums))
    # the frequency axes came out last axis first
    return np.transpose(total)


def tensor_integral(
    f: Callable[[list[np.ndarray]], np.ndarray],
    weight: Weight,
    tol: float,
    cap: int = DEFAULT_CAP,
    start: int = MIN_LEVEL,
) -> QuadResult:
    """Integrate f over the weight's support cube prod_i [c_i - xi, c_i + xi].

    f receives one broadcastable coordinate array per axis and must return
    the integrand on the implied tensor grid; it must vanish wherever omega
    does, since grid_contract calls it on the support boxes only.  Refines
    from level start (MIN_LEVEL by default) to MAX_LEVEL until successive
    levels differ by less than tol (absolute); each level's whole
    (2^level + 1)^n grid is charged to cap.  A level whose value is not
    finite, as when f overflows, ends the refinement with a QuadratureError
    that names it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ndim = weight.n
    prev = None
    for level in range(start, MAX_LEVEL + 1):
        m = 2**level
        if (m + 1) ** ndim > cap:
            raise CapExceededError(f"quadrature grid {(m + 1)}^{ndim} exceeds point cap {cap}")
        # an overflow in f shows as a level value that is not finite, and
        # no later level can converge from one
        with np.errstate(over="ignore", invalid="ignore"):
            val = complex(grid_contract(f, weight, m))
        if not cmath.isfinite(val):
            raise QuadratureError(f"quadrature level {level} ({m + 1}^{ndim} nodes) gave the non-finite value {val}")
        if prev is not None:
            err = abs(val - prev)
            if err < tol:
                return QuadResult(val, err, level)
        prev = val
    raise QuadratureError(
        f"no convergence to tol={tol} within depth {MAX_LEVEL} (last value {prev})"
    )
