"""The smooth compactly supported bump weight used by all counts and integrals.

omega(x) = nu(|x - x0| / xi) with nu(t) = exp(-1/(1 - t^2)) for |t| < 1 and 0
otherwise, so omega is C-infinity, radially decreasing, supported on the
closed Euclidean ball of radius xi about x0, and bounded by e^{-1}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Weight", "nu", "nu_grid", "omega", "omega_grid"]

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
                stacklevel=2,
            )

    @property
    def n(self) -> int:
        return len(self.center)

    def support_box(self) -> list[tuple[float, float]]:
        """Per-coordinate bounding intervals of the support ball."""
        return [(c - self.xi, c + self.xi) for c in self.center]


def nu(t: float) -> float:
    """The one-dimensional profile exp(-1/(1-t^2)) on |t| < 1, else 0."""
    u = 1.0 - t * t
    if u <= _EXP_GUARD:
        return 0.0
    return math.exp(-1.0 / u)


def nu_grid(t: np.ndarray) -> np.ndarray:
    """Vectorized nu for numpy arrays.

    Below the guard u = 1 - t^2 is raised to the guard itself, where
    exp(-1 / u) = exp(-10^12) is exactly 0, so the exponential runs on every
    point without a mask and gives nu's values bit for bit; fmax also sends a
    NaN to the guard, and so to 0."""
    t = np.asarray(t, dtype=float)
    u = np.multiply(t, t, out=np.empty_like(t))
    np.subtract(1.0, u, out=u)
    np.fmax(u, _EXP_GUARD, out=u)
    np.divide(-1.0, u, out=u)
    return np.exp(u, out=u)


def omega(weight: Weight, x: Sequence[float]) -> float:
    """omega(x) = nu(|x - x0|_2 / xi)."""
    if len(x) != weight.n:
        raise ValueError(f"vector has length {len(x)}, expected {weight.n}")
    dist2 = sum((float(v) - c) ** 2 for v, c in zip(x, weight.center))
    return nu(math.sqrt(dist2) / weight.xi)


def omega_grid(weight: Weight, axes: Sequence[np.ndarray]) -> np.ndarray:
    """omega evaluated on broadcastable coordinate arrays (one per axis)."""
    if len(axes) != weight.n:
        raise ValueError(f"got {len(axes)} coordinate arrays, expected {weight.n}")
    dist2 = None
    for arr, c in zip(axes, weight.center):
        d = (np.asarray(arr, dtype=float) - c) ** 2
        dist2 = d if dist2 is None else dist2 + d
    t = np.sqrt(dist2)
    t /= weight.xi
    return nu_grid(t)
