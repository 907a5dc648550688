"""The truncated singular integral and the main-term prediction.

Integrating the phase e(gamma u) over gamma in [-R, R] gives the kernel
K_R(u) = sin(2 pi R u) / (pi u), so the truncated singular integral
collapses to a single n-dimensional integral

    J(R) = integral of omega(x) K_R(C(x)) K_R(Q(x)) dx,

which is what we evaluate (the raw double-gamma integral survives as a test
oracle at small R).  For a pair whose variables split into several blocks
(forms.separable_blocks), C = sum_b C_b and Q = sum_b Q_b with each part in
its own variables, so sin(2 pi R C) = Im prod_b e(R C_b): the exponentials
are taken on each block's own axes of a quadrature box and only products
and the quotient run on the whole box.  On a diagonal n = 3 pair that is
three short rows per box in place of one sine per node.  The main-term
prediction for the weighted count is S(R_q) * J(R_gamma) * P^{n-5}.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import FormPair, block_values, eval_cubic, eval_quadratic, separable_blocks
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

# K_R takes its even power series in u where |u| < _SERIES_SWITCH and also
# |2 pi R u| < _SERIES_PHASE: there the first term it leaves out, w^6/5040,
# is below 10^-21 of its value.  For |R| <= 10^4 the first bound implies the
# second, so there the series covers exactly |u| < _SERIES_SWITCH.
_SERIES_SWITCH = 1e-8
_SERIES_PHASE = 1e-3


def _sine_quotient(R: float, u: np.ndarray, sine: np.ndarray) -> np.ndarray:
    """K_R(u) from float arrays u and sin(2 pi R u) of one shape, in place in sine.

    The quotient is taken on the whole array (0/0 at u = 0 is overwritten),
    then the entries with |u| below min(_SERIES_SWITCH, _SERIES_PHASE /
    (2 pi |R|)) get the even power series in u (at R = 0, below
    _SERIES_SWITCH)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sine /= np.pi * u
    switch = _SERIES_SWITCH if R == 0 else min(_SERIES_SWITCH, _SERIES_PHASE / (2.0 * np.pi * abs(R)))
    small = np.abs(u) < switch
    w = 2.0 * np.pi * R * u[small]
    sine[small] = 2.0 * R * (1.0 - w * w / 6.0 + w**4 / 120.0)
    return sine


def sin_kernel_grid(R: float, u: np.ndarray) -> np.ndarray:
    """K_R(u) = sin(2 pi R u) / (pi u) elementwise, continuous with K_R(0) = 2R.

    One sine per entry, then _sine_quotient.  A 0-d u gives a 0-d array."""
    u = np.asarray(u, dtype=float)
    return _sine_quotient(R, u, np.sin(2.0 * np.pi * R * u, out=np.empty_like(u)))


def _block_kernel(R: float, parts: list) -> np.ndarray:
    """K_R(u) for u the sum of parts, broadcast float arrays (or 0) on separate axes.

    The sine is Im prod_b e(R u_b): one complex exponential per entry of each
    part, on the part's own axes, then products on the broadcast shape, the
    last of them only in its imaginary part.  The quotient and the series
    take u = sum_b u_b (_sine_quotient).  parts holds at least one part."""
    parts = [np.asarray(p, dtype=float) for p in parts]
    *heads, last = [np.exp(2j * np.pi * R * p) for p in parts]
    head = functools.reduce(operator.mul, heads) if heads else np.complex128(1.0)
    sine = np.multiply(head.real, last.imag, out=np.empty(np.broadcast_shapes(head.shape, last.shape)))
    sine += head.imag * last.real
    return _sine_quotient(R, sum(parts[1:], parts[0]), sine)


def _integrand(pair: FormPair, weight: Weight, R: float) -> Callable[[list[np.ndarray]], np.ndarray]:
    """omega(x) K_R(C(x)) K_R(Q(x)) as a function of broadcast coordinate arrays.

    A pair of one block (forms.separable_blocks) takes sin_kernel_grid of C
    and of Q, two sines per node.  A pair of several blocks takes the sines
    as _block_kernel of the blocks' values (forms.block_values), so a box
    costs sum over blocks b of prod over i in b of (side of axis i) complex
    exponentials per form."""
    blocks = separable_blocks(pair)
    if len(blocks) == 1:
        def f(axes: list[np.ndarray]) -> np.ndarray:
            return (
                omega_grid(weight, axes)
                * sin_kernel_grid(R, eval_cubic(pair.cubic, axes))
                * sin_kernel_grid(R, eval_quadratic(pair.quadric, axes))
            )
        return f
    values = block_values(pair, blocks)

    def f(axes: list[np.ndarray]) -> np.ndarray:
        parts = values(axes)
        return (
            omega_grid(weight, axes)
            * _block_kernel(R, [c for c, _ in parts])
            * _block_kernel(R, [q for _, q in parts])
        )
    return f


def singular_integral_truncated(
    pair: FormPair,
    weight: Weight,
    R: float,
    tol: float = 1e-8,
    cap: int = DEFAULT_CAP,
) -> QuadResult:
    """J(R) via the sin-kernel form (_integrand), by nested tensor quadrature charged to cap."""
    if R <= 0:
        raise ValueError("R must be positive")
    if weight.n != pair.n:
        raise ValueError("weight dimension does not match the form pair")
    res = tensor_integral(_integrand(pair, weight, R), weight, tol, cap=cap)
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
