"""The truncated singular integral and the main-term prediction.

Integrating the phase e(gamma u) over gamma in [-R, R] gives the kernel
K_R(u) = sin(2 pi R u) / (pi u), so the truncated singular integral
collapses to a single n-dimensional integral

    J(R) = integral of omega(x) K_R(C(x)) K_R(Q(x)) dx,

which is what we evaluate (the raw double-gamma integral survives as a test
oracle at small R).  The main-term prediction for the weighted count is
S(R_q) * J(R_gamma) * P^{n-5}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import FormPair, eval_cubic, eval_quadratic
from .localdens import singular_series_truncated
from .quadrature import QuadResult, tensor_integral
from .util import DEFAULT_CAP
from .weightfn import Weight, omega_grid

__all__ = [
    "sin_kernel_grid",
    "singular_integral_truncated",
    "main_term",
    "MainTerm",
]

# below this |u| the kernel switches to its even power series in u
_SERIES_SWITCH = 1e-8


def sin_kernel_grid(R: float, u: np.ndarray) -> np.ndarray:
    """K_R(u) = sin(2 pi R u) / (pi u) elementwise, continuous with K_R(0) = 2R.

    The quotient is taken on the whole array (0/0 at u = 0 is overwritten),
    then the entries with |u| below _SERIES_SWITCH get the even power series
    in u.  A 0-d u gives a 0-d array."""
    u = np.asarray(u, dtype=float)
    out = np.sin(2.0 * np.pi * R * u, out=np.empty_like(u))
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= np.pi * u
    small = np.abs(u) < _SERIES_SWITCH
    w = 2.0 * np.pi * R * u[small]
    out[small] = 2.0 * R * (1.0 - w * w / 6.0 + w**4 / 120.0)
    return out


def singular_integral_truncated(
    pair: FormPair,
    weight: Weight,
    R: float,
    tol: float = 1e-8,
    cap: int = DEFAULT_CAP,
) -> QuadResult:
    """J(R) via the sin-kernel form, by nested tensor quadrature charged to cap."""
    if R <= 0:
        raise ValueError("R must be positive")
    if weight.n != pair.n:
        raise ValueError("weight dimension does not match the form pair")

    def f(axes: list[np.ndarray]) -> np.ndarray:
        return (
            omega_grid(weight, axes)
            * sin_kernel_grid(R, eval_cubic(pair.cubic, axes))
            * sin_kernel_grid(R, eval_quadratic(pair.quadric, axes))
        )

    res = tensor_integral(f, weight, tol, cap=cap)
    return QuadResult(float(res.value.real), res.error, res.level)


@dataclass(frozen=True)
class MainTerm:
    sing_series: float
    sing_integral: float
    prediction: float


def main_term(
    pair: FormPair,
    weight: Weight,
    R_series: int,
    R_integral: float,
    P: float,
    tol: float = 1e-8,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> MainTerm:
    """Prediction S(R_series) * J(R_integral) * P^{n-5} for the weighted count."""
    series = singular_series_truncated(pair, R_series, cap=cap, threads=threads)
    integral = singular_integral_truncated(pair, weight, R_integral, tol=tol, cap=cap)
    value = series.value * integral.value * P ** (pair.n - 5)
    return MainTerm(series.value, float(integral.value), value)
