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

import math
from dataclasses import dataclass

import numpy as np

from .expsums import RationalApprox, complete_sum, osc_integral, weyl_sum_direct
from .forms import FormPair, eval_cubic, eval_quadratic
from .localdens import singular_series_truncated
from .quadrature import QuadResult, tensor_integral
from .util import DEFAULT_CAP
from .weightfn import Weight, omega_grid

__all__ = [
    "sin_kernel",
    "sin_kernel_grid",
    "singular_integral_truncated",
    "major_arc_approx_check",
    "MajorArcCheck",
    "main_term",
    "MainTerm",
]

# below this |u| the kernel switches to its even power series in u
_SERIES_SWITCH = 1e-8
# soft pass bound on the major-arc replacement error, in units of its scale
RATIO_BOUND = 50.0


def sin_kernel(R: float, u: float) -> float:
    """K_R(u) = sin(2 pi R u) / (pi u), continuous with K_R(0) = 2R."""
    if abs(u) < _SERIES_SWITCH:
        w = 2.0 * math.pi * R * u
        return 2.0 * R * (1.0 - w * w / 6.0 + w**4 / 120.0)
    return math.sin(2.0 * math.pi * R * u) / (math.pi * u)


def sin_kernel_grid(R: float, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = np.abs(u) < _SERIES_SWITCH
    w = 2.0 * np.pi * R * u[small]
    out[small] = 2.0 * R * (1.0 - w * w / 6.0 + w**4 / 120.0)
    ub = u[~small]
    out[~small] = np.sin(2.0 * np.pi * R * ub) / (np.pi * ub)
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

    res = tensor_integral(f, weight.center, weight.xi, tol, cap=cap)
    return QuadResult(float(res.value.real), res.error, res.level)


@dataclass(frozen=True)
class MajorArcCheck:
    lhs: complex
    main: complex
    error: float
    scale: float
    ratio: float
    ok: bool


def major_arc_approx_check(
    pair: FormPair,
    weight: Weight,
    P: float,
    approx: RationalApprox,
    tol: float = 1e-8,
    cap: int = DEFAULT_CAP,
) -> MajorArcCheck:
    """Compare the direct sum against its major-arc main term.

    main = q^{-n} P^n S(a, q) I(theta3 P^3, theta2 P^2; 0); the replacement
    error is measured against the scale q P^{n-1} + |theta3| q P^{n+2}
    + |theta2| q P^{n+1}, with a soft pass flag at ratio <= RATIO_BOUND.
    """
    n = pair.n
    q = approx.q
    lhs = weyl_sum_direct(pair, P, weight, approx.alpha3, approx.alpha2, cap=cap)
    s_aq = complete_sum(pair, q, approx.a3, approx.a2, [0] * n, cap=cap)
    integral = osc_integral(
        pair, weight, approx.theta3 * P**3, approx.theta2 * P**2, 0.0, tol=tol, cap=cap
    )
    main = P**n / q**n * s_aq * integral.value
    error = abs(lhs - main)
    scale = (
        q * P ** (n - 1)
        + abs(approx.theta3) * q * P ** (n + 2)
        + abs(approx.theta2) * q * P ** (n + 1)
    )
    floor = 1e-9 * P**n
    ratio = error / scale
    ok = error <= floor or ratio <= RATIO_BOUND
    return MajorArcCheck(lhs, main, error, scale, ratio, ok)


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
