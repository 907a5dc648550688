"""Weyl sums, complete exponential sums mod q, and their Poisson-side partners.

The direct sum is S(alpha3, alpha2) = sum_x omega(x/P) e(alpha3 C(x) +
alpha2 Q(x)) over the lattice points of the weight's support.  Writing
alpha_i = a_i/q + theta_i, Poisson summation turns it into

    (P/q)^n  sum_m  S(a, q; m) I(theta3 P^3, theta2 P^2; P m / q),

where S(a, q; m) is the complete sum of e_q(a3 C(y) + a2 Q(y) + m.y) over
residue vectors y mod q and I(gamma; z) is the oscillatory integral of
omega(x) e(gamma3 C(x) + gamma2 Q(x) - z.x).  Complete sums are evaluated
from exact integer residues (histogram over the numerator mod q), so the
only rounding is in the final complex exponentials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counting import weight_box
from .forms import FormPair, eval_cubic, eval_quadratic, int64_bound
from .gridsum import phase_histogram, scan
from .quadrature import DEFAULT_MAX_LEVEL, QuadResult, grid_contract, tensor_integral
from .util import (
    CapExceededError,
    DEFAULT_CAP,
    check_cap,
    chunk_ranges,
    factorize,
    fsum_complex,
    next_pow2,
    parallel_map,
)
from .weightfn import Weight, omega_grid

__all__ = [
    "RationalApprox",
    "ThetaHeight",
    "CrtFactor",
    "theta_height",
    "default_truncation",
    "weyl_sum_direct",
    "weyl_sums",
    "complete_sum",
    "complete_sum_crt",
    "crt_decomposition",
    "osc_integral",
    "poisson_reconstruct",
]

# the most points in one chunk of a direct Weyl sum.  Its 128 KB float
# arrays are reused by the allocator from chunk to chunk; whole x0-slices
# of up to 1 MB each raised the peak memory of sums over two threads.
CHUNK = 1 << 14
# the Poisson total is accepted once two grid sizes agree to this relative tolerance
POISSON_REL_TOL = 1e-9


@dataclass(frozen=True)
class RationalApprox:
    """Arc datum alpha_i = a_i/q + theta_i with a_i normalized to [1, q]."""

    q: int
    a3: int
    a2: int
    theta3: float
    theta2: float

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q}")
        if not (1 <= self.a3 <= self.q and 1 <= self.a2 <= self.q):
            raise ValueError("a3 and a2 must lie in [1, q]")
        if math.gcd(self.q, math.gcd(self.a3, self.a2)) != 1:
            warnings.warn(
                f"gcd(q, gcd(a3, a2)) != 1 for q={self.q}, a=({self.a3},{self.a2})",
                stacklevel=2,
            )

    @property
    def alpha3(self) -> float:
        return self.a3 / self.q + self.theta3

    @property
    def alpha2(self) -> float:
        return self.a2 / self.q + self.theta2


@dataclass(frozen=True)
class ThetaHeight:
    """Height 1 + |theta3| P^3 + |theta2| P^2 of an arc datum."""

    value: float

    def __post_init__(self):
        if self.value < 1.0:
            raise ValueError("height is always >= 1")


def theta_height(approx: RationalApprox, P: float) -> ThetaHeight:
    return ThetaHeight(1.0 + abs(approx.theta3) * P**3 + abs(approx.theta2) * P**2)


def default_truncation(approx: RationalApprox, P: float) -> int:
    """Default m-sum radius: past |m| ~ q*Theta/P the integrals are negligible."""
    theta = theta_height(approx, P).value
    return math.ceil(4.0 * approx.q * theta / P) + 8


def _support_chunks(weight: Weight, P: float, box: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Boxes of at most CHUNK points that cover, in order, the lattice points
    of P times the weight's support ball.

    The box is cut along x0 into runs of as many slices as fit in CHUNK
    points; a slice larger than that is cut along x1 the same way, and so on
    down the axes.  Before each cut, the remaining axes are clipped to the
    bounding box of the ball's section over the ranges fixed so far.  A point
    that rounding cuts off lies within rounding error of the sphere, where
    omega is exactly 0.
    """
    out = []

    def cut(fixed: list[tuple[int, int]], d2: float) -> None:
        # d2: squared distance from the centre to the fixed ranges, in units of the weight
        k = len(fixed)
        rho = math.sqrt(max(weight.xi**2 - d2, 0.0))
        rest = [
            (max(lo, math.ceil((c - rho) * P)), min(hi, math.floor((c + rho) * P)))
            for (lo, hi), c in zip(box[k:], weight.center[k:])
        ]
        if any(lo > hi for lo, hi in rest):
            return
        if math.prod(hi - lo + 1 for lo, hi in rest) <= CHUNK:
            out.append(fixed + rest)
            return
        (lo, hi), c = rest[0], weight.center[k]
        inner = math.prod(h - l + 1 for l, h in rest[1:])
        for a, b in chunk_ranges(lo, hi + 1, max(1, CHUNK // inner)):
            d = max(0.0, a / P - c, c - (b - 1) / P)
            cut(fixed + [(a, b - 1)], d2 + d * d)

    cut([], 0.0)
    return out


def weyl_sums(
    pair: FormPair,
    P: float,
    weight: Weight,
    alphas: Sequence[tuple[float, float]],
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> list[complex]:
    """The weighted exponential sum S(alpha3, alpha2) at every (alpha3, alpha2) of alphas.

    The weight's box is charged to cap once, whatever the number of alphas.
    Its support is streamed in the chunks of _support_chunks; on each, C, Q
    and omega are evaluated once, the points where omega > 0 are kept, and
    every alpha is summed over them.  The chunks never depend on threads,
    and each alpha's chunk sums are added by fsum_complex, so the result
    does not depend on threads either.
    """
    box = weight_box(weight, P)
    if weight.n != pair.n:
        raise ValueError("weight dimension does not match the form pair")
    n = pair.n
    alphas = [(float(a3), float(a2)) for a3, a2 in alphas]
    if any(lo > hi for lo, hi in box):
        return [0.0 + 0.0j] * len(alphas)
    check_cap(math.prod(hi - lo + 1 for lo, hi in box), cap, "lattice box")
    bound, fits = int64_bound(pair, [max(abs(lo), abs(hi)) for lo, hi in box])
    if not fits:
        raise CapExceededError(f"lattice box too large for int64-exact form evaluation (bound {bound})")

    def work(sub: list[tuple[int, int]]) -> list[complex]:
        coords = [
            np.arange(lo, hi + 1, dtype=np.int64).reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            for i, (lo, hi) in enumerate(sub)
        ]
        w = omega_grid(weight, [c.astype(float) / P for c in coords])
        keep = w > 0
        w = w[keep]
        c_vals = np.broadcast_to(eval_cubic(pair.cubic, coords), keep.shape)[keep].astype(float)
        q_vals = np.broadcast_to(eval_quadratic(pair.quadric, coords), keep.shape)[keep].astype(float)
        arg, tmp = np.empty_like(w), np.empty_like(w)
        out = []
        for alpha3, alpha2 in alphas:
            np.multiply(c_vals, alpha3, out=arg)
            arg += np.multiply(q_vals, alpha2, out=tmp)
            arg -= np.round(arg, out=tmp)
            arg *= 2 * np.pi
            # einsum, not BLAS: OpenBLAS splits long dot products over its
            # own threads, which would change the last bits with their number
            re = np.einsum("i,i->", w, np.cos(arg, out=tmp))
            out.append(complex(re, np.einsum("i,i->", w, np.sin(arg, out=tmp))))
        return out

    parts = parallel_map(work, _support_chunks(weight, P, box), threads)
    return [fsum_complex(part[i] for part in parts) for i in range(len(alphas))]


def weyl_sum_direct(
    pair: FormPair,
    P: float,
    weight: Weight,
    alpha3: float,
    alpha2: float,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> complex:
    """Direct evaluation of the weighted exponential sum at (alpha3, alpha2).

    The one-alpha call of weyl_sums: it visits the lattice points of the
    support ball, about 0.52 (2 xi P)^3 of them at n = 3 and 0.31 (2 xi P)^4
    at n = 4, and charges the whole box to cap.
    """
    return weyl_sums(pair, P, weight, [(alpha3, alpha2)], cap=cap, threads=threads)[0]


def complete_sum(
    pair: FormPair,
    q: int,
    a3: int,
    a2: int,
    m: Sequence[int] | int,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> complex:
    """Complete sum of e_q(a3 C(y) + a2 Q(y) + m.y) over y mod q.

    The numerator is reduced mod q in exact integer arithmetic and counted
    in a histogram over its q values (gridsum.phase_histogram), which scans
    only the prime powers p^e exactly dividing q, sum p^{en} points, and
    composes them by the CRT with the same a3, a2, m.  It equals the
    histogram of a scan of all q^n residues entry for entry, so the result
    carries only the rounding of the final exponentials.
    """
    n = pair.n
    if isinstance(m, int):
        m = [m] * n
    if len(m) != n:
        raise ValueError(f"m has length {len(m)}, expected {n}")
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    if q == 1:
        return 1.0 + 0.0j
    if math.gcd(q, math.gcd(a3, a2)) != 1:
        warnings.warn(f"gcd(q, gcd(a3, a2)) > 1 for q={q}", stacklevel=2)
    hist = phase_histogram(pair, q, a3, a2, m, cap=cap, threads=threads)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    return complex(hist @ roots)


@dataclass(frozen=True)
class CrtFactor:
    """One prime-power factor of a complete sum split by multiplicativity."""

    modulus: int
    a3: int
    a2: int
    value: complex


def crt_decomposition(
    pair: FormPair,
    q: int,
    a3: int,
    a2: int,
    m: Sequence[int] | int,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> list[CrtFactor]:
    """Prime-power factors of S(a, q; m) with twisted numerators.

    For q = r s with gcd(r, s) = 1 the sum factors as
    S(a, rs; m) = S((s^2 a3, s a2), r; m) * S((r^2 a3, r a2), s; m);
    applied across the full factorization the factor for p^e uses the
    cofactor t = q / p^e and numerators (t^2 a3, t a2) reduced mod p^e.
    """
    if isinstance(m, int):
        m = [m] * pair.n
    factors = []
    for p, e in factorize(q):
        pe = p**e
        t = q // pe
        a3t = (t * t * a3) % pe
        a2t = (t * a2) % pe
        val = complete_sum(pair, pe, a3t, a2t, m, cap=cap, threads=threads)
        factors.append(CrtFactor(pe, a3t, a2t, val))
    return factors


def complete_sum_crt(
    pair: FormPair,
    q: int,
    a3: int,
    a2: int,
    m: Sequence[int] | int,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> complex:
    """S(a, q; m) assembled from its prime-power factors."""
    if q == 1:
        return 1.0 + 0.0j
    out = 1.0 + 0.0j
    for factor in crt_decomposition(pair, q, a3, a2, m, cap=cap, threads=threads):
        out *= factor.value
    return out


def _smooth_phase(
    pair: FormPair,
    weight: Weight,
    gamma3: float,
    gamma2: float,
    axes: list[np.ndarray],
    z: Sequence[float] | None = None,
) -> np.ndarray:
    """omega(x) e(gamma3 C(x) + gamma2 Q(x) - z.x) on broadcast coordinate arrays."""
    arg = gamma3 * eval_cubic(pair.cubic, axes) + gamma2 * eval_quadratic(pair.quadric, axes)
    if z is not None:
        for zi, ax in zip(z, axes):
            if zi:
                arg = arg - zi * ax
    return omega_grid(weight, axes) * np.exp(2j * np.pi * arg)


def osc_integral(
    pair: FormPair,
    weight: Weight,
    gamma3: float,
    gamma2: float,
    z: Sequence[float] | float = 0.0,
    tol: float = 1e-8,
    max_level: int = DEFAULT_MAX_LEVEL,
    cap: int = DEFAULT_CAP,
) -> QuadResult:
    """I(gamma; z): adaptive tensor quadrature over the weight's support cube."""
    n = pair.n
    if weight.n != n:
        raise ValueError("weight dimension does not match the form pair")
    if isinstance(z, (int, float)):
        z = [float(z)] * n
    if len(z) != n:
        raise ValueError(f"z has length {len(z)}, expected {n}")

    def f(axes: list[np.ndarray]) -> np.ndarray:
        return _smooth_phase(pair, weight, gamma3, gamma2, axes, z)

    return tensor_integral(f, weight.center, weight.xi, tol, max_level=max_level, cap=cap)


def _alias_start_level(
    pair: FormPair, weight: Weight, gamma3: float, gamma2: float, zmax: float
) -> int:
    """Per-axis grid size from which the aliased spectrum is negligible."""
    r = max(abs(c) for c in weight.center) + weight.xi
    grad_c = 3.0 * pair.cubic.coefficient_norm() * r * r
    grad_q = 2.0 * pair.quadric.coefficient_norm() * r
    poly_freq = abs(gamma3) * grad_c + abs(gamma2) * grad_q
    length = 2.0 * weight.xi
    bump_freq = 32.0 / length
    return next_pow2(max(64.0, length * (zmax + poly_freq + bump_freq) + 32.0))


def poisson_reconstruct(
    pair: FormPair,
    P: float,
    weight: Weight,
    approx: RationalApprox,
    M: int,
    cap: int = DEFAULT_CAP,
) -> complex:
    """Truncated Poisson-summation reconstruction of the direct Weyl sum.

    Sums (P/q)^n S(a, q; m) I(theta3 P^3, theta2 P^2; P m / q) over
    |m|_inf <= M.  All complete sums mod q are obtained at once as the
    inverse DFT of the residue phase grid, and the m-family of oscillatory
    integrals shares one alias-resolved quadrature grid whose resolution is
    doubled until the total stabilizes to POISSON_REL_TOL.  The residue
    grid q^n, the m-grid (2M+1)^n and each quadrature grid are charged to
    cap; refinement ends at the cap.
    """
    if M < 0:
        raise ValueError("truncation radius M must be >= 0")
    n = pair.n
    q = approx.q

    def phases(coords, c, qq):
        return ((approx.a3 % q) * c + (approx.a2 % q) * qq) % q

    # scan() runs coordinate 1 fastest, hence the Fortran-order reshape
    t = np.concatenate(scan(pair, q, phases, cap)).reshape((q,) * n, order="F")
    gamma3 = approx.theta3 * P**3
    gamma2 = approx.theta2 * P**2
    f = np.exp(2j * np.pi * t / q)
    sums_mod = q**n * np.fft.ifftn(f)

    ms = np.arange(-M, M + 1)
    check_cap((2 * M + 1) ** n, cap, f"poisson m-grid (2M+1)^n = {2 * M + 1}^{n}")
    sums_big = sums_mod[np.ix_(*([ms % q] * n))]

    def smooth(axes: list[np.ndarray]) -> np.ndarray:
        return _smooth_phase(pair, weight, gamma3, gamma2, axes)

    # I(gamma; freq_step * m) for every m is one contraction of the smooth
    # factor with the separable oscillation e(-freq_step m.x), which is
    # exact on the grid
    freq_step = P / q
    grid_n = _alias_start_level(pair, weight, gamma3, gamma2, freq_step * M)
    prev = None
    while True:
        check_cap((grid_n + 1) ** n, cap, f"poisson quadrature grid {grid_n + 1}^{n}")
        tensor = grid_contract(smooth, weight.center, weight.xi, grid_n, ms, freq_step)
        total = (P / q) ** n * complex(np.sum(sums_big * tensor))
        if prev is not None and abs(total - prev) <= POISSON_REL_TOL * (1.0 + abs(total)):
            return total
        prev = total
        grid_n *= 2
