"""The smooth compactly supported bump weight used by all counts and integrals.

omega(x) = nu(|x - x0| / xi) with nu(t) = exp(-1/(1 - t^2)) for |t| < 1 and 0
otherwise, so omega is C-infinity, radially decreasing, supported on the
closed Euclidean ball of radius xi about x0, and bounded by e^{-1}.
omega_grid is its one evaluator.  Counts and sums at scale P run over the
integer points of weight_box, which admits only a finite real P >= 1
(check_scale).  cut_box cuts every grid of the package into boxes of at
most BOX points, and support_chunks is cut_box clipped to the ball in such
a box: the boxes on which the direct Weyl sums and the quadrature evaluate
their integrands.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .util import chunk_ranges

__all__ = ["Weight", "nu_grid", "omega_grid", "check_scale", "weight_box", "cut_box", "box_axes", "support_chunks"]

# the most points in one box of every grid that cut_box cuts: the residue
# scans (gridsum.scan), the x- and y-boxes of n(R) (weyldiag), and the
# support of the direct Weyl sums (expsums.weyl_sums) and of the quadrature
# (quadrature.grid_contract).  Each numpy call of a box releases and
# retakes the GIL, and small boxes make a second thread hand it back and
# forth.  One alpha of a Weyl sum at 2 threads against 1, on a 2-core Xeon
# VM with numpy 2.4: at 2^11 points per box 110 vs 87 ms (a diagonal pair,
# n = 3, P = 200) and 729 vs 339 ms (a pair of one block, n = 4, P = 60);
# at 2^14, 48 vs 36 and 156 vs 107 ms; at 2^16, 21 vs 23 and 70 vs 96 ms.
# A residue scan holds a few int64 arrays of its box per thread: against 2^18
# points, phase_histogram at n = 1, q = 1 000 003 peaks at 10.6, not 21.6 MiB.
BOX = 1 << 16

# the most points in one sub-box of a quadrature box whose sum is rounded
# on its own before fsum_complex adds them (quadrature.grid_contract): it
# sets the last bits of every single quadrature sum, and the benchmark's
# reference holds one of them, the quad_error of sum --mode integral, to
# 10^-9 of itself.  Also the most values of a whole-box phase table of the
# Weyl sums' block kernel (expsums._block_tables).  Its 128 KB float
# arrays are reused by the allocator from box to box.
CHUNK = 1 << 14

# Below 1 - t^2 <= this guard the true value is under double precision
# underflow anyway, so we return exactly 0 instead of risking overflow.
_EXP_GUARD = 1e-12


@dataclass(frozen=True)
class Weight:
    """Bump weight with center x0 and radius xi in (0, 1]."""

    center: tuple[float, ...]
    xi: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not (0.0 < self.xi <= 1.0):
            raise ValueError(f"xi must lie in (0, 1], got {self.xi}")
        if any(abs(c) + self.xi >= 0.5 for c in self.center):
            warnings.warn(
                "weight support is not contained in (-1/2, 1/2)^n; "
                "counts remain well defined but the unit-box normalization is lost",
                stacklevel=3,
            )

    @property
    def n(self) -> int:
        return len(self.center)

    def support_box(self) -> list[tuple[float, float]]:
        """Per-coordinate bounding intervals of the support ball."""
        return [(c - self.xi, c + self.xi) for c in self.center]


def nu_grid(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The one-dimensional profile exp(-1/(1-t^2)) on |t| < 1, else 0, on an array.

    Below the guard u = 1 - t^2 is raised to the guard itself, where
    exp(-1 / u) = exp(-10^12) is exactly 0, so the exponential runs on every
    point without a mask; fmax also sends a NaN to the guard, and so to 0.
    The values are written into out, a new array by default, which may be t
    itself."""
    t = np.asarray(t, dtype=float)
    u = np.multiply(t, t, out=np.empty_like(t) if out is None else out)
    np.subtract(1.0, u, out=u)
    np.fmax(u, _EXP_GUARD, out=u)
    np.divide(-1.0, u, out=u)
    return np.exp(u, out=u)


def omega_grid(weight: Weight, axes: Sequence[np.ndarray]) -> np.ndarray:
    """omega(x) = nu(|x - x0|_2 / xi) on broadcastable coordinate arrays (one per axis).

    The axes' squares are added in axis order, and the root, the scaling
    and the profile are taken in place in their sum, a new float array of
    the axes' broadcast shape; the only other arrays are the squares and
    the running sums before it."""
    if len(axes) != weight.n:
        raise ValueError(f"got {len(axes)} coordinate arrays, expected {weight.n}")
    dist2 = np.asarray(functools.reduce(np.add, [(np.asarray(arr, dtype=float) - c) ** 2
                                                 for arr, c in zip(axes, weight.center)]))
    t = np.sqrt(dist2, out=dist2)
    t /= weight.xi
    return nu_grid(t, out=t)


def check_scale(P: float) -> None:
    """Refuse, as a ValueError, a scale P that is not a finite real >= 1."""
    if not math.isfinite(P):
        raise ValueError(f"P must be finite, got {P}")
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")


def weight_box(weight: Weight, P: float) -> list[tuple[int, int]]:
    """Integer box circumscribing P times the support ball of the weight (finite P >= 1)."""
    check_scale(P)
    out = []
    for lo, hi in weight.support_box():
        out.append((math.ceil(lo * P), math.floor(hi * P)))
    return out


def cut_box(box: Sequence[tuple[int, int]], size: int, clip: Callable | None = None) -> list[list[tuple[int, int]]]:
    """Boxes of at most size points that cover an index box in C order: the
    one cutter of every grid, residue, lattice or quadrature.

    The box is cut along axis 0 into runs of as many slices as fit in size
    points, a larger slice along axis 1 the same way, and so on down the
    axes.  clip maps the ranges fixed so far to those of the remaining axes
    (by default their ranges in box); an empty range drops the boxes below.
    """
    out = []

    def cut(fixed: list[tuple[int, int]]) -> None:
        rest = list(box[len(fixed):]) if clip is None else clip(fixed)
        if any(lo > hi for lo, hi in rest):
            return
        if math.prod(hi - lo + 1 for lo, hi in rest) <= size:
            out.append(fixed + rest)
            return
        lo, hi = rest[0]
        inner = math.prod(h - l + 1 for l, h in rest[1:])
        for a, b in chunk_ranges(lo, hi + 1, max(1, size // inner)):
            cut(fixed + [(a, b - 1)])

    cut([])
    return out


def box_axes(box: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """The int64 coordinates of a box, one broadcastable array per axis."""
    n = len(box)
    return [np.arange(lo, hi + 1, dtype=np.int64).reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            for i, (lo, hi) in enumerate(box)]


def support_chunks(weight: Weight, P: float, box: Sequence[tuple[int, int]], origin: Sequence[float],
                   size: int) -> list[list[tuple[int, int]]]:
    """Boxes of at most size points that cover, in order, the points of an
    index box that lie in the weight's support ball.

    Index k on axis i stands for the point origin_i + k/P: the lattice
    points of P times the ball for the direct Weyl sums (origin 0), a
    trapezoid grid for the quadrature.  The boxes are cut_box's, with the
    remaining axes clipped before each cut to the bounding box of the
    ball's section over the ranges fixed so far.  A point that rounding
    cuts off lies within rounding error of the sphere, where omega is
    exactly 0.
    """
    # the centre in index coordinates divided by P; c - 0.0 is c exactly
    centre = [c - o for c, o in zip(weight.center, origin)]

    def clip(fixed: list[tuple[int, int]]) -> list[tuple[int, int]]:
        # d2: squared distance from the centre to the fixed ranges, in units of the weight
        d2 = 0.0
        for d in (max(0.0, a / P - c, c - b / P) for (a, b), c in zip(fixed, centre)):
            d2 += d * d
        rho = math.sqrt(max(weight.xi**2 - d2, 0.0))
        k = len(fixed)
        return [(max(lo, math.ceil((c - rho) * P)), min(hi, math.floor((c + rho) * P)))
                for (lo, hi), c in zip(box[k:], centre[k:])]

    return cut_box(box, size, clip)
