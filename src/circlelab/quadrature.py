"""Nested tensor-product quadrature over the support cube of a bump weight.

Integrands here are C-infinity and vanish to all orders on the boundary of
the cube circumscribing the weight's support ball, so the trapezoidal rule
on nested dyadic grids is spectrally accurate (every Euler-Maclaurin
boundary correction vanishes).  Each refinement doubles the per-axis
resolution; the difference between successive levels is the error estimate.
Integrands vanish outside the support ball, so on the cube's boundary, the
only nodes whose trapezoid weight is not h = 2 xi / m per axis: the rule is
h^n times the sum over the support boxes that the direct Weyl sums also
stream (weightfn.support_chunks, weightfn.BOX points), about pi/6 of the
cube at n = 3, each added by its sub-boxes of weightfn.CHUNK points.
For the same reason the rule is spectrally accurate on any uniform grid
that covers the support, so the family of integrals against e(-step k.x)
takes a spacing h with step h = r/N (periodic_turn): on it each phase
depends on the node index only mod N, and the boxes fold mod N before one
N-periodic phase table contracts them (grid_contract).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .util import DEFAULT_CAP, CapExceededError, check_cap, fsum_complex, parallel_map
from . import weightfn
from .weightfn import Weight, support_chunks

__all__ = ["QuadResult", "QuadratureError", "periodic_turn", "tensor_integral", "grid_contract"]

MIN_LEVEL = 3
MAX_LEVEL = 12


class QuadratureError(RuntimeError):
    """Raised when refinement reaches the depth limit without converging."""


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    level: int


def _simplest(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction of least denominator in [lo, hi], 0 < lo <= hi: the
    least integer in it, or else the floor of lo plus the reciprocal of the
    simplest fraction in the reciprocal of what is left (continued
    fractions)."""
    whole = math.ceil(lo)
    if whole <= hi:
        return Fraction(whole)
    whole -= 1
    return whole + 1 / _simplest(1 / (hi - whole), 1 / (lo - whole))


def periodic_turn(y) -> Fraction:
    """The fraction r/N of least N in [y (1 - 2^-6), y], for a rational y > 0;
    of several integers, the largest.

    As the turns per node of e(-step k x) on a grid of spacing h, step h =
    r/N makes the phase of every integer k periodic in the node index with
    period N, on a grid no coarser than step h = y and at most 1/64 finer;
    an integer y is kept."""
    hi = Fraction(y)
    lo = hi * (1 - Fraction(1, 64))
    if math.floor(hi) >= lo:
        return Fraction(math.floor(hi))
    return _simplest(lo, hi)


def _phase_table(turn: Fraction, rows: int, ks: np.ndarray, h: float) -> np.ndarray:
    """h e(-k r t / N) for turn = r/N, with a row per t < rows and a column
    per k in ks: k r t is reduced mod N exactly, each factor first (t r <
    N^2), and picks one of the N exponentials e(-u / N)."""
    period = turn.denominator
    turns = np.arange(rows) % period * (turn.numerator % period) % period
    return h * np.exp(-2j * np.pi * np.arange(period) / period)[np.outer(turns, ks % period) % period]


def _fold(vals: np.ndarray, axis: int, period: int) -> np.ndarray:
    """vals summed along axis over the indices congruent mod period: a row
    of L entries becomes min(L, period) sums, sum t holding the entries t,
    t + period, ... of the row."""
    length = vals.shape[axis]
    if length <= period:
        return vals
    vals = np.moveaxis(vals, axis, -1)
    folded = vals[..., :period].copy()
    for start in range(period, length, period):
        part = vals[..., start : start + period]
        folded[..., : part.shape[-1]] += part
    return np.moveaxis(folded, -1, axis)


def grid_contract(
    f: Callable[[list[np.ndarray]], np.ndarray],
    weight: Weight,
    m: int,
    cap: int = DEFAULT_CAP,
    step: Fraction | None = None,
    M: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """Trapezoid sums of f over a tensor grid from the corner c - xi of the
    weight's support cube.

    The support is streamed in the boxes of weightfn.support_chunks, of at
    most weightfn.BOX points, and f is evaluated once per box.  Without
    step this is the single sum on m intervals per axis, h = 2 xi / m, a
    0-d array: each box is cut again into sub-boxes of at most
    weightfn.CHUNK points (support_chunks inside the box), each sub-box is
    summed from a contiguous copy of its values, and h^n times the
    fsum_complex of all the sub-box sums in order is the result.  A grid
    whose support fits in one box has the sub-boxes that support_chunks
    cuts from the whole grid at weightfn.CHUNK.  The boxes run over
    util.parallel_map on threads; neither they nor the sub-boxes depend on
    threads, so neither does the sum.

    With step it is the family of sums of f(x) e(-step k.x) for every k in
    [-M, M]^n, an array indexed by k + M along every axis, on a grid sized
    from m: its spacing h has step h = r/N, the periodic_turn of y = 2 xi
    step / m (the turns per node on m intervals), and it has the J + 1
    nodes x_j = c_i - xi + j h per axis, J = floor(2 xi / h) >= m; the
    nodes past J, like those before 0, lie off the support, where f
    vanishes.  There e(-step k x_j) = e(-step k x_0) e(-k r j / N), so each
    box is contracted last axis first, each axis folded mod N (_fold) and
    then contracted with its rows of the one table h e(-k r t / N)
    (_phase_table); the origin phase e(-step k x_0) of each axis multiplies
    the total of the boxes once.  The table has a row per t < N + min(J, N
    - 1), one period and the wrap of the longest folded row, so the rows of
    every axis are one slice of it.  The family runs on the calling thread:
    its contractions are BLAS matrix products, which two Python threads
    issuing them at once made slower.

    f is called only on the support boxes of the grid, so it must vanish
    wherever omega does, as omega times a finite factor does.  Memory is
    set by one box per thread, the table and the result.  This is the one
    place that charges a quadrature grid: before anything is built, the
    (J+1)^n grid (J = m for the single sum), and for a family also its
    table, are each charged to cap.
    """
    n = weight.n
    origin = [c - weight.xi for c in weight.center]
    # nodes per unit length, 1/h, as support_chunks reads the index grid
    if step is None:
        h, density = 2.0 * weight.xi / m, m / (2.0 * weight.xi)
    else:
        turn = periodic_turn(2 * Fraction(weight.xi) * step / m)
        m = math.floor(2 * Fraction(weight.xi) * step / turn)
        h, density = float(turn / step), float(step / turn)
    if (m + 1) ** n > cap:
        raise CapExceededError(f"quadrature grid {m + 1}^{n} exceeds point cap {cap}")
    if step is None:
        nodes = [np.linspace(c - weight.xi, c + weight.xi, m + 1) for c in weight.center]
    else:
        period, ks = turn.denominator, np.arange(-M, M + 1)
        rows = period + min(m, period - 1)
        check_cap(rows * len(ks), cap, f"quadrature phase table {rows} x {len(ks)}")
        nodes = [o + h * np.arange(m + 1) for o in origin]
        table = _phase_table(turn, rows, ks, h)
        total = np.zeros((len(ks),) * n, dtype=complex)
    boxes = support_chunks(weight, density, [(0, m)] * n, origin, weightfn.BOX)

    def values(box: list[tuple[int, int]]) -> np.ndarray:
        axes = [
            nodes[i][a : b + 1].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            for i, (a, b) in enumerate(box)
        ]
        return np.broadcast_to(f(axes), tuple(b - a + 1 for a, b in box))

    if step is None:
        def sums(box: list[tuple[int, int]]) -> list[complex]:
            vals = values(box)
            out = []
            for sub in support_chunks(weight, density, box, origin, weightfn.CHUNK):
                cut = tuple(slice(a - lo, b - lo + 1) for (a, b), (lo, _) in zip(sub, box))
                out.append(complex(np.ascontiguousarray(vals[cut]).sum()))
            return out

        parts = parallel_map(sums, boxes, threads)
        return np.asarray(h**n * fsum_complex(s for part in parts for s in part))
    for box in boxes:
        vals = values(box)
        # axis i stays at position i: every later axis was already replaced
        # by its frequency axis at the end
        for i in range(n - 1, -1, -1):
            vals = _fold(vals, i, period)
            start = box[i][0] % period
            rows = table[start : start + vals.shape[i]]
            if vals.size == vals.shape[i] or len(ks) == 1:  # matrix-vector: einsum (util.BLAS_SERIAL)
                vals = np.einsum(vals, list(range(n)), rows, [i, n], [*range(i), *range(i + 1, n + 1)])
            else:
                vals = np.tensordot(vals, rows, axes=([i], [0]))
        total += vals
    # the frequency axes came out last axis first; step x_0 is reduced mod 1
    # exactly before k multiplies it
    total = np.transpose(total)
    for i, o in enumerate(origin):
        shift = float(step * Fraction(o) % 1)
        total *= np.exp(-2j * np.pi * shift * ks).reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
    return total


def tensor_integral(
    f: Callable[[list[np.ndarray]], np.ndarray],
    weight: Weight,
    tol: float,
    cap: int = DEFAULT_CAP,
    start: int = MIN_LEVEL,
    threads: int = 1,
) -> QuadResult:
    """Integrate f over the weight's support cube prod_i [c_i - xi, c_i + xi].

    f receives one broadcastable coordinate array per axis and must return
    the integrand on the implied tensor grid; it must vanish wherever omega
    does, since grid_contract calls it on the support boxes only.  Refines
    from level start (MIN_LEVEL by default) to MAX_LEVEL until successive
    levels differ by less than tol (absolute); grid_contract charges each
    level's whole (2^level + 1)^n grid to cap and sums its boxes on
    threads, and no level's value depends on threads.  A level whose value
    is not finite, as when f overflows, ends the refinement with a
    QuadratureError that names it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ndim = weight.n
    prev = None
    for level in range(start, MAX_LEVEL + 1):
        m = 2**level
        # an overflow in f shows as a level value that is not finite, and
        # no later level can converge from one
        with np.errstate(over="ignore", invalid="ignore"):
            val = complex(grid_contract(f, weight, m, cap=cap, threads=threads))
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
