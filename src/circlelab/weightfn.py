"""The smooth compactly supported bump weight used by all counts and integrals.

omega(x) = nu(|x - x0| / xi) with nu(t) = exp(-1/(1 - t^2)) for |t| < 1 and 0
otherwise, so omega is C-infinity, radially decreasing, supported on the
closed Euclidean ball of radius xi about x0, and bounded by e^{-1}.
omega_grid is its one evaluator.  Counts and sums at scale P run over the
integer points of weight_box, which admits only a finite real P >= 1
(check_scale); support_chunks cuts the ball in such a box into the boxes on
which the direct Weyl sums and the quadrature evaluate their integrands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .util import chunk_ranges

__all__ = ["Weight", "nu_grid", "omega_grid", "check_scale", "weight_box", "support_chunks"]

# the most points in one support box.  Its 128 KB float arrays are reused by
# the allocator from box to box; whole x0-slices of up to 1 MB each raised
# the peak memory of direct Weyl sums over two threads.
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


def nu_grid(t: np.ndarray) -> np.ndarray:
    """The one-dimensional profile exp(-1/(1-t^2)) on |t| < 1, else 0, on an array.

    Below the guard u = 1 - t^2 is raised to the guard itself, where
    exp(-1 / u) = exp(-10^12) is exactly 0, so the exponential runs on every
    point without a mask; fmax also sends a NaN to the guard, and so to 0."""
    t = np.asarray(t, dtype=float)
    u = np.multiply(t, t, out=np.empty_like(t))
    np.subtract(1.0, u, out=u)
    np.fmax(u, _EXP_GUARD, out=u)
    np.divide(-1.0, u, out=u)
    return np.exp(u, out=u)


def omega_grid(weight: Weight, axes: Sequence[np.ndarray]) -> np.ndarray:
    """omega(x) = nu(|x - x0|_2 / xi) on broadcastable coordinate arrays (one per axis)."""
    if len(axes) != weight.n:
        raise ValueError(f"got {len(axes)} coordinate arrays, expected {weight.n}")
    dist2 = None
    for arr, c in zip(axes, weight.center):
        d = (np.asarray(arr, dtype=float) - c) ** 2
        dist2 = d if dist2 is None else dist2 + d
    t = np.sqrt(dist2)
    t /= weight.xi
    return nu_grid(t)


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


def support_chunks(
    weight: Weight,
    P: float,
    box: Sequence[tuple[int, int]],
    origin: Sequence[float],
) -> list[list[tuple[int, int]]]:
    """Boxes of at most CHUNK points that cover, in order, the points of an
    index box that lie in the weight's support ball.

    Index k on axis i stands for the point origin_i + k/P: the lattice
    points of P times the ball for the direct Weyl sums (origin 0), a
    trapezoid grid for the quadrature.  The box is cut along x0 into runs
    of as many slices as fit in CHUNK points; a slice larger than that is
    cut along x1 the same way, and so on down the axes.  Before each cut,
    the remaining axes are clipped to the bounding box of the ball's section
    over the ranges fixed so far.  A point that rounding cuts off lies
    within rounding error of the sphere, where omega is exactly 0.
    """
    # the centre in index coordinates divided by P; c - 0.0 is c exactly
    centre = [c - o for c, o in zip(weight.center, origin)]
    out = []

    def cut(fixed: list[tuple[int, int]], d2: float) -> None:
        # d2: squared distance from the centre to the fixed ranges, in units of the weight
        k = len(fixed)
        rho = math.sqrt(max(weight.xi**2 - d2, 0.0))
        rest = [
            (max(lo, math.ceil((c - rho) * P)), min(hi, math.floor((c + rho) * P)))
            for (lo, hi), c in zip(box[k:], centre[k:])
        ]
        if any(lo > hi for lo, hi in rest):
            return
        if math.prod(hi - lo + 1 for lo, hi in rest) <= CHUNK:
            out.append(fixed + rest)
            return
        (lo, hi), c = rest[0], centre[k]
        inner = math.prod(h - l + 1 for l, h in rest[1:])
        for a, b in chunk_ranges(lo, hi + 1, max(1, CHUNK // inner)):
            d = max(0.0, a / P - c, c - (b - 1) / P)
            cut(fixed + [(a, b - 1)], d2 + d * d)

    cut([], 0.0)
    return out
