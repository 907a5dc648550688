"""The truncated singular integral.

Integrating the phase e(gamma u) over gamma in [-R, R] gives the kernel
K_R(u) = sin(2 pi R u) / (pi u), so the truncated singular integral
collapses to a single n-dimensional integral

    J(R) = integral of omega(x) K_R(C(x)) K_R(Q(x)) dx,

which is what we evaluate (the raw double-gamma integral survives as a test
oracle at small R).  For a pair whose variables split into several blocks
(forms.separable_blocks), C = sum_b C_b and Q = sum_b Q_b with each part in
its own variables, so sin(2 pi R C) = Im prod_b e(R C_b): the integrand hands
the block values of forms.block_values(pair) to sin_kernel_grid(R, *parts),
which takes the exponentials on each block's own axes of a quadrature box,
and only products and the quotient on the whole box.  On a diagonal n = 3
pair that is three short rows per box in place of one sine per node; a pair
of one block takes one np.sin per node.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable

import numpy as np

from .expsums import check_phase
from .forms import FormPair, block_values
from .quadrature import QuadResult, tensor_integral
from .util import DEFAULT_CAP
from .weightfn import Weight, omega_grid

__all__ = ["sin_kernel_grid", "singular_integral_truncated"]

# K_R takes its even power series in u where |u| < _SERIES_SWITCH and also
# |2 pi R u| < _SERIES_PHASE: there the first term it leaves out, w^6/5040,
# is below 10^-21 of its value.  For |R| <= 10^4 the first bound implies the
# second, so there the series covers exactly |u| < _SERIES_SWITCH.
_SERIES_SWITCH = 1e-8
_SERIES_PHASE = 1e-3


def sin_kernel_grid(R: float, *parts: np.ndarray) -> np.ndarray:
    """K_R(u) = sin(2 pi R u) / (pi u) elementwise for u the sum of one or
    more parts, broadcast float arrays (or numbers) on separate axes;
    continuous with K_R(0) = 2R, and 0-d for a 0-d u.

    One part takes one sine per entry (measured faster than the exponential
    of one part, ROADMAP item 3).  Several take the sine as Im prod_b
    e(R u_b): one complex exponential per entry of each part on its own
    axes, then products on the broadcast shape, the last only in its
    imaginary part.  The quotient is taken on the whole array (0/0 at u = 0
    is overwritten), then the entries with |u| below min(_SERIES_SWITCH,
    _SERIES_PHASE / (2 pi |R|)) get the even power series in u (at R = 0,
    below _SERIES_SWITCH)."""
    parts = [np.asarray(p, dtype=float) for p in parts]
    u = sum(parts[1:], parts[0])
    if len(parts) == 1:
        sine = np.multiply(2.0 * np.pi * R, u, out=np.empty_like(u))
        np.sin(sine, out=sine)
    else:
        *heads, last = [np.exp(2j * np.pi * R * p) for p in parts]
        head = functools.reduce(operator.mul, heads)
        sine = np.multiply(head.real, last.imag, out=np.empty(np.broadcast_shapes(head.shape, last.shape)))
        sine += head.imag * last.real
    # one array of u's shape holds pi u and then |u|
    held = np.multiply(np.pi, u, out=np.empty_like(sine))
    with np.errstate(divide="ignore", invalid="ignore"):
        sine /= held
    switch = _SERIES_SWITCH if R == 0 else min(_SERIES_SWITCH, _SERIES_PHASE / (2.0 * np.pi * abs(R)))
    small = np.abs(u, out=held) < switch
    w = 2.0 * np.pi * R * u[small]
    sine[small] = 2.0 * R * (1.0 - w * w / 6.0 + w**4 / 120.0)
    return sine


def _integrand(pair: FormPair, weight: Weight, R: float) -> Callable[[list[np.ndarray]], np.ndarray]:
    """omega(x) K_R(C(x)) K_R(Q(x)) as a function of broadcast coordinate arrays.

    Each K_R takes the values of the blocks (forms.block_values) as its
    parts (sin_kernel_grid).  A pair of one block takes one sine per node
    and form; a pair of several blocks costs sum over blocks b of prod over
    i in b of (side of axis i) complex exponentials per form and box.  The
    products are formed in omega's array, of the axes' broadcast shape, in
    the order of omega * K_R(C) * K_R(Q); the values of C are dropped once
    K_R(C) is taken, before omega is evaluated."""
    values = block_values(pair)

    def f(axes: list[np.ndarray]) -> np.ndarray:
        cs, qs = zip(*values(axes))
        kernel = sin_kernel_grid(R, *cs)
        del cs
        out = omega_grid(weight, axes)
        out *= kernel
        del kernel
        out *= sin_kernel_grid(R, *qs)
        return out

    return f


def singular_integral_truncated(
    pair: FormPair,
    weight: Weight,
    R: float,
    tol: float = 1e-8,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> QuadResult:
    """J(R) via the sin-kernel form (_integrand), by nested tensor quadrature
    charged to cap, with each level's boxes on threads (tensor_integral);
    the result does not depend on threads.

    The phases 2 pi R C and 2 pi R Q are those of I(gamma; 0) at gamma =
    (R, R), and sin(2 pi R C) sin(2 pi R Q) turns as e(R (C + Q)) and e(R (C
    - Q)) do, so J(R) takes the guard of I((R, R); 0), expsums.check_phase:
    an R whose phase may reach 2^52 on the support, or turn faster than the
    finest quadrature grid resolves, is refused.  The refinement starts
    where that guard starts it, at MIN_LEVEL."""
    if R <= 0:
        raise ValueError("R must be positive")
    if weight.n != pair.n:
        raise ValueError("weight dimension does not match the form pair")
    name = f"J(R) at R = {R}"
    start = check_phase(pair, weight, R, R, [0.0] * pair.n, name)
    res = tensor_integral(_integrand(pair, weight, R), weight, tol, cap=cap, start=start, threads=threads)
    return QuadResult(float(res.value.real), res.error, res.level)
