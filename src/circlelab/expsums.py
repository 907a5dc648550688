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

Both the direct sums and the Poisson m-family follow forms.separable_blocks:
for a pair of several blocks the phase e(alpha3 C + alpha2 Q) is the product
of one factor per block, each taken on the block's own axes from the block
values of forms.block_values(pair), so the complex exponentials per box are
sum over blocks of the block's points, not one per point.  A direct sum on
a pair of one block takes a cos and a sin per point of the ball, and a
single I(gamma; z) (osc_integral) one exponential per node of the whole
phase.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .forms import (
    FormPair,
    block_values,
    eval_cubic,
    eval_quadratic,
    int64_bound,
    separable_blocks,
)
from .gridsum import phase_histogram, scan
from .quadrature import QuadResult, grid_contract, tensor_integral
from .util import (
    CapExceededError,
    DEFAULT_CAP,
    check_cap,
    factorize,
    fsum_complex,
    next_pow2,
    parallel_map,
)
from . import weightfn
from .weightfn import Weight, check_scale, omega_grid, support_chunks, weight_box

__all__ = [
    "RationalApprox",
    "CrtFactor",
    "theta_height",
    "default_truncation",
    "weyl_sum_direct",
    "weyl_sums",
    "complete_sum",
    "crt_decomposition",
    "check_phase_size",
    "osc_integral",
    "poisson_reconstruct",
]

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


def _power(x: float, k: int, name: str) -> float:
    """x**k as a float; one that overflows is a ValueError naming x."""
    try:
        return x**k
    except OverflowError:
        raise ValueError(f"{name} = {x} is too large: {name}**{k} overflows a float") from None


def theta_height(approx: RationalApprox, P: float) -> float:
    """Height 1 + |theta3| P^3 + |theta2| P^2 of an arc datum, always >= 1."""
    return 1.0 + abs(approx.theta3) * _power(P, 3, "P") + abs(approx.theta2) * _power(P, 2, "P")


def default_truncation(approx: RationalApprox, P: float) -> int:
    """Default m-sum radius: past |m| ~ q*Theta/P the integrals are negligible.
    P must be a finite real >= 1 (weightfn.check_scale)."""
    check_scale(P)
    theta = theta_height(approx, P)
    return math.ceil(4.0 * approx.q * theta / P) + 8


def _box_axes(box: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """The int64 coordinates of a box, one broadcastable array per axis."""
    n = len(box)
    return [
        np.arange(lo, hi + 1, dtype=np.int64).reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
        for i, (lo, hi) in enumerate(box)
    ]


def _point_chunk_sums(
    pair: FormPair, P: float, weight: Weight, alphas: list[tuple[float, float]], sub: list[tuple[int, int]]
) -> list[complex]:
    """Every alpha's sum over one chunk, with a phase per point and alpha.

    C, Q and omega are evaluated once on the chunk, the points where
    omega > 0 are kept, and each alpha takes a cos and a sin at each of them.
    """
    coords = _box_axes(sub)
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


def _block_tables(
    pair: FormPair, box: list[tuple[int, int]], a3: np.ndarray, a2: np.ndarray
) -> Callable[[list[tuple[int, int]]], list[tuple[tuple[int, ...], np.ndarray]]]:
    """The phase factors of a pair of several blocks at the alphas (a3, a2),
    as a function of a chunk sub of box: [(b, e(alpha3 C_b + alpha2 Q_b) on
    sub's side of b, alpha first)] for each block b of forms.separable_blocks.

    A block's table is built once on its side of box, and cut to each chunk,
    when it holds at most weightfn.CHUNK values (alphas times points), and
    on each chunk's side otherwise; the two give the same values, since
    every entry is computed by the same elementwise arithmetic.
    """
    blocks = separable_blocks(pair)
    values = block_values(pair)

    def table(sub: list[tuple[int, int]], k: int) -> np.ndarray:
        # the other blocks' axes shrink to one point, so that only block k's
        # forms are evaluated on its side of sub
        sub = [side if i in blocks[k] else (side[0], side[0]) for i, side in enumerate(sub)]
        shape = [hi - lo + 1 for lo, hi in sub]
        sides = [shape[i] for i in blocks[k]]
        # C order, as einsum's loop order, and so its sums, follow the layout
        c, q = (np.ascontiguousarray(np.broadcast_to(v, shape).reshape(sides), dtype=float)
                for v in values(_box_axes(sub))[k])
        arg = np.multiply.outer(a3, c)
        arg += np.multiply.outer(a2, q)
        arg -= np.round(arg)
        arg *= 2 * np.pi
        return np.cos(arg) + 1j * np.sin(arg)

    whole = {k: table(box, k) for k, b in enumerate(blocks)
             if len(a3) * math.prod(box[i][1] - box[i][0] + 1 for i in b) <= weightfn.CHUNK}

    def tables(sub: list[tuple[int, int]]) -> list[tuple[tuple[int, ...], np.ndarray]]:
        cut = [slice(lo - o, hi - o + 1) for (lo, hi), (o, _) in zip(sub, box)]
        return [(b, np.ascontiguousarray(whole[k][(slice(None), *(cut[i] for i in b))]) if k in whole
                 else table(sub, k)) for k, b in enumerate(blocks)]

    return tables


def _block_chunk_sums(
    tables: list[tuple[tuple[int, ...], np.ndarray]], P: float, weight: Weight, sub: list[tuple[int, int]]
) -> list[complex]:
    """Every alpha's sum over one chunk of a pair with several separable blocks.

    The phase is a sum of one phase per block, so e(alpha3 C + alpha2 Q) is
    a product of per-block factors.  Omega is evaluated once on the chunk's
    box and contracted against the blocks' factor tables (_block_tables) one
    block at a time, the largest table first, with alpha as a batch axis:
    the first contraction takes the real omega against the cos and sin of
    its block, the others are complex.  The contraction is einsum, not BLAS:
    OpenBLAS splits long dot products over its own threads, which would
    change the last bits with their number.  Each alpha's row of a table and
    of every contraction is computed by the same elementwise and per-row
    arithmetic whatever the other alphas, so many alphas give each one's sum
    bit for bit.
    """
    n = len(sub)
    w = omega_grid(weight, [c.astype(float) / P for c in _box_axes(sub)])
    alpha = n  # the einsum label of the alpha axis
    (axes, table), *later = sorted(tables, key=lambda t: -t[1].size)
    count = len(table)
    left = [i for i in range(n) if i not in axes]
    trig = np.concatenate([table.real, table.imag])
    part = np.einsum(w, list(range(n)), trig, [alpha, *axes], [alpha, *left])
    total = np.empty(part[:count].shape, complex)
    total.real, total.imag = part[:count], part[count:]
    for axes, table in later:
        rest = [i for i in left if i not in axes]
        total = np.einsum(total, [alpha, *left], table, [alpha, *axes], [alpha, *rest])
        left = rest
    return [complex(v) for v in total]


def weyl_sums(
    pair: FormPair,
    P: float,
    weight: Weight,
    alphas: Sequence[tuple[float, float]],
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> list[complex]:
    """The weighted exponential sum S(alpha3, alpha2) at every (alpha3, alpha2) of alphas.

    The weight's box is charged to cap once, whatever the number of alphas,
    and its support is streamed in the chunks of weightfn.support_chunks.
    The kernel follows forms.separable_blocks.  A pair whose one block
    spans all n variables evaluates C, Q and omega once per chunk and takes
    a cos and a sin per kept point and alpha (_point_chunk_sums).  A pair
    with several blocks evaluates each block's forms only on the block's
    side of the box (forms.block_values), into a table of cos and sin per
    point and alpha (_block_tables), and on each chunk evaluates omega once
    and contracts it against the tables (_block_chunk_sums).  The chunks
    never depend on threads, and each alpha's chunk sums are added by
    fsum_complex, so the result does not depend on threads either.
    """
    box = weight_box(weight, P)
    if weight.n != pair.n:
        raise ValueError("weight dimension does not match the form pair")
    alphas = [(float(a3), float(a2)) for a3, a2 in alphas]
    if any(lo > hi for lo, hi in box):
        return [0.0 + 0.0j] * len(alphas)
    check_cap(math.prod(hi - lo + 1 for lo, hi in box), cap, "lattice box")
    bound, fits = int64_bound(pair, [max(abs(lo), abs(hi)) for lo, hi in box])
    if not fits:
        raise CapExceededError(f"lattice box too large for int64-exact form evaluation (bound {bound})")
    if not alphas:
        return []
    blocks = separable_blocks(pair)
    # einsum names axes by integers below 52: one per variable and one for
    # alpha.  One block keeps the point kernel, which skips the points where
    # omega = 0 and was measured faster there than block tables (ROADMAP item 3)
    if 1 < len(blocks) and pair.n < 52:
        tables = _block_tables(pair, box, np.array([a for a, _ in alphas]), np.array([a for _, a in alphas]))

        def work(sub: list[tuple[int, int]]) -> list[complex]:
            return _block_chunk_sums(tables(sub), P, weight, sub)
    else:
        def work(sub: list[tuple[int, int]]) -> list[complex]:
            return _point_chunk_sums(pair, P, weight, alphas, sub)

    parts = parallel_map(work, support_chunks(weight, P, box), threads)
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

    The one-alpha call of weyl_sums, which charges the whole box to cap.
    Omega is evaluated at every lattice point of the support ball, about
    0.52 (2 xi P)^3 of them at n = 3 and 0.31 (2 xi P)^4 at n = 4.  A pair
    with one block takes a cos and a sin at each of them; a pair with
    several separable blocks takes them only on each block's side of the
    box, sum over blocks b of prod over i in b of (2 xi P + 1) points.
    """
    return weyl_sums(pair, P, weight, [(alpha3, alpha2)], cap=cap, threads=threads)[0]


def complete_sum(
    pair: FormPair,
    q: int,
    a3: int,
    a2: int,
    m: Sequence[int],
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
    m: Sequence[int],
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> list[CrtFactor]:
    """Prime-power factors of S(a, q; m) with twisted numerators.

    For q = r s with gcd(r, s) = 1 the sum factors as
    S(a, rs; m) = S((s^2 a3, s a2), r; m) * S((r^2 a3, r a2), s; m);
    applied across the full factorization the factor for p^e uses the
    cofactor t = q / p^e and numerators (t^2 a3, t a2) reduced mod p^e.
    Their scans, sum p^{en} points, are charged to cap before the first.
    """
    if len(m) != pair.n:
        raise ValueError(f"m has length {len(m)}, expected {pair.n}")
    parts = factorize(q)
    check_cap(sum(p ** (e * pair.n) for p, e in parts), cap, f"residue grids mod {len(parts)} prime powers")
    factors = []
    for p, e in parts:
        pe = p**e
        t = q // pe
        a3t = (t * t * a3) % pe
        a2t = (t * a2) % pe
        val = complete_sum(pair, pe, a3t, a2t, m, cap=cap, threads=threads)
        factors.append(CrtFactor(pe, a3t, a2t, val))
    return factors


def _smooth_phase(
    pair: FormPair,
    weight: Weight,
    gamma3: float,
    gamma2: float,
    axes: list[np.ndarray],
    z: Sequence[float],
) -> np.ndarray:
    """omega(x) e(gamma3 C(x) + gamma2 Q(x) - z.x) on broadcast coordinate arrays."""
    arg = gamma3 * eval_cubic(pair.cubic, axes) + gamma2 * eval_quadratic(pair.quadric, axes)
    for zi, ax in zip(z, axes):
        if zi:
            arg = arg - zi * ax
    return omega_grid(weight, axes) * np.exp(2j * np.pi * arg)


def _smooth_factor(
    pair: FormPair, weight: Weight, gamma3: float, gamma2: float
) -> Callable[[list[np.ndarray]], np.ndarray]:
    """x -> omega(x) e(gamma3 C(x) + gamma2 Q(x)), the smooth factor of the Poisson m-family.

    The factor multiplies the phases e(gamma3 C_b + gamma2 Q_b) of the
    pair's blocks (forms.separable_blocks, forms.block_values), each
    evaluated on its block's own axes, so a box costs sum over blocks b of
    prod over i in b of (side of axis i) exponentials.  A pair of one block
    takes the same operations, in the same order, as _smooth_phase.
    """
    values = block_values(pair)

    def smooth(axes: list[np.ndarray]) -> np.ndarray:
        factors = [np.exp(2j * np.pi * (gamma3 * c + gamma2 * q)) for c, q in values(axes)]
        return omega_grid(weight, axes) * functools.reduce(operator.mul, factors)

    return smooth


def check_phase_size(
    pair: FormPair, weight: Weight, gamma3: float, gamma2: float, z: Sequence[float], name: str
) -> None:
    """Refuse, as a ValueError naming name, a phase gamma3 C(x) + gamma2 Q(x)
    - z.x that may reach 2^52 on the weight's support: a double holds it
    there only to within 1, so e(phase) has no correct digit and quadrature
    would refine rounding noise to its depth limit.  The phase is majorized
    by |gamma3| B + |gamma2| B + sum |z_i| m_i, where m_i = |x0_i| + xi and
    B = forms.int64_bound(pair, m) bounds |C| and |Q| on the support."""
    m = [abs(c) + weight.xi for c in weight.center]
    bound = int64_bound(pair, m)[0]
    size = (abs(gamma3) + abs(gamma2)) * bound + sum(abs(zi) * mi for zi, mi in zip(z, m))
    if not size < 2.0**52:
        raise ValueError(f"the phase of {name} may reach {size:.3g} >= 2^52 on the weight's support, "
                         "where it has no correct digit")


def osc_integral(
    pair: FormPair,
    weight: Weight,
    gamma3: float,
    gamma2: float,
    z: Sequence[float] | float = 0.0,
    tol: float = 1e-8,
    cap: int = DEFAULT_CAP,
) -> QuadResult:
    """I(gamma; z): adaptive tensor quadrature over the weight's support cube.

    A phase that may reach 2^52 on the support is refused (check_phase_size)."""
    n = pair.n
    if weight.n != n:
        raise ValueError("weight dimension does not match the form pair")
    if isinstance(z, (int, float)):
        z = [float(z)] * n
    if len(z) != n:
        raise ValueError(f"z has length {len(z)}, expected {n}")
    check_phase_size(pair, weight, gamma3, gamma2, z, f"I(gamma; z) at gamma = ({gamma3}, {gamma2}), z = {z}")

    def f(axes: list[np.ndarray]) -> np.ndarray:
        return _smooth_phase(pair, weight, gamma3, gamma2, axes, z)

    return tensor_integral(f, weight, tol, cap=cap)


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
    doubled until the total stabilizes to POISSON_REL_TOL; on it the smooth
    factor (_smooth_factor) is contracted with the phase matrices of every
    m at once (quadrature.grid_contract).  The residue
    grid q^n, the m-grid (2M+1)^n and each quadrature grid are charged to
    cap; refinement ends at the cap.  A P that is not a finite real >= 1
    (weightfn.check_scale), or whose powers P^3 or (P/q)^n overflow a
    float, is a ValueError.
    """
    check_scale(P)
    if M < 0:
        raise ValueError("truncation radius M must be >= 0")
    n = pair.n
    q = approx.q

    def phases(coords, c, qq):
        return ((approx.a3 % q) * c + (approx.a2 % q) * qq) % q

    # scan() runs coordinate 1 fastest, hence the Fortran-order reshape
    t = np.concatenate(scan(pair, q, phases, cap)).reshape((q,) * n, order="F")
    gamma3 = approx.theta3 * _power(P, 3, "P")
    gamma2 = approx.theta2 * _power(P, 2, "P")
    scale = _power(P / q, n, "(P/q)")
    f = np.exp(2j * np.pi * t / q)
    sums_mod = q**n * np.fft.ifftn(f)

    ms = np.arange(-M, M + 1)
    check_cap((2 * M + 1) ** n, cap, f"poisson m-grid (2M+1)^n = {2 * M + 1}^{n}")
    sums_big = sums_mod[np.ix_(*([ms % q] * n))]

    smooth = _smooth_factor(pair, weight, gamma3, gamma2)
    # I(gamma; freq_step * m) for every m is one contraction of the smooth
    # factor with the separable oscillation e(-freq_step m.x), which is
    # exact on the grid
    freq_step = P / q
    grid_n = _alias_start_level(pair, weight, gamma3, gamma2, freq_step * M)
    prev = None
    while True:
        check_cap((grid_n + 1) ** n, cap, f"poisson quadrature grid {grid_n + 1}^{n}")
        tensor = grid_contract(smooth, weight, grid_n, ms, freq_step)
        total = scale * complex(np.sum(sums_big * tensor))
        if prev is not None and abs(total - prev) <= POISSON_REL_TOL * (1.0 + abs(total)):
            return total
        prev = total
        grid_n *= 2
