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

The direct sums have exact phases: each alpha becomes a 64-bit
fixed-point turn A = round(frac(alpha) 2^64) once (_turn), the phase A3 C(x)
+ A2 Q(x) mod 2^64 is exact in wrapping uint64 arithmetic on the int64 form
values, and e(phase / 2^64) is read off three 4096-entry tables of e(j /
2^12), e(j / 2^24) and e(j / 2^36) (_TURN_TABLES), times 1 + 2 pi i delta
for the low 28 bits.  So a term's rounding is a few ulp whatever the size
of the phase, where a phase alpha3 C(x) in doubles lost |alpha3 C(x)| 2^-53.

Both the direct sums and the Poisson m-family follow forms.separable_blocks:
for a pair of several blocks the phase e(alpha3 C + alpha2 Q) is the product
of one factor per block, each taken on the block's own axes from the block
values of forms.block_values(pair), so the phase factors per box are sum
over blocks of the block's points, not one per point.  A direct sum on a
pair of one block reads the tables at every point of the ball, and a
single I(gamma; z) (osc_integral) takes one exponential per node of the
whole phase.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .forms import (
    CubicForm,
    FormPair,
    QuadraticForm,
    block_values,
    eval_cubic,
    eval_quadratic,
    gradient_cubic,
    gradient_quadratic,
    int64_bound,
    separable_blocks,
)
from .gridsum import phase_histogram, scan
from .quadrature import MAX_LEVEL, MIN_LEVEL, QuadResult, grid_contract, tensor_integral
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
    "check_phase",
    "check_phase_size",
    "osc_integral",
    "poisson_reconstruct",
]

# the Poisson total is accepted once two grid sizes agree to this relative tolerance
POISSON_REL_TOL = 1e-9

# check_phase refuses a phase whose slope majorant puts more than this
# many times 2^MAX_LEVEL cycles along an axis of the support, the intervals
# per axis of the finest quadrature grid.  The majorant takes every
# coefficient positive at the corner of the support cube, so it overstates
# the slope on the ball: random integrals in one and two variables driven by
# gamma converged up to 3.2 times 2^MAX_LEVEL majorant cycles, and none past 8
RESOLUTION_MARGIN = 16


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
                stacklevel=3,
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


def _turn(alpha: float) -> int:
    """alpha mod 1 as a 64-bit fixed-point turn: round(frac(alpha) 2^64) mod 2^64.

    The conversion is exact in Fraction arithmetic, so A / 2^64 equals alpha
    mod 1 whenever that is a multiple of 2^-64, as it is for every double
    with |alpha| >= 2^-12, and lies within 2^-65 of it otherwise.  A
    non-finite alpha is a ValueError."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return round(Fraction(alpha) % 1 * 2**64) % 2**64


# e(K / 2^64) for a phase K in 64-bit turns is T0[d0] T1[d1] T2[d2] (1 + 2 pi i
# delta) with the digits d0 = K >> 52, d1 = (K >> 40) & 4095 and d2 = (K >>
# 28) & 4095 (_digit), table Tk holding e(j / 2^(12 (k + 1))) for j < 4096,
# and delta = d3 / 2^64 < 2^-36 for the low 28 bits d3 = K & (2^28 - 1).  The
# dropped part of e(delta) is below (2 pi delta)^2 / 2 < 4.2e-21.  A table
# index lies in [0, 4096), so np.take's wrap mode never wraps one; it only
# skips the bounds check of the default mode
_TURN_TABLES = [np.exp(2j * np.pi * (np.arange(4096) / 2.0 ** (12 * k))) for k in (1, 2, 3)]
_DIGIT_SHIFTS = [np.uint64(s) for s in (52, 40, 28, 0)]
_DIGIT_MASKS = [np.uint64(m) for m in (4095, 4095, 4095, (1 << 28) - 1)]
_LOW_TO_RADIANS = 2.0 * np.pi / 2.0**64


def _digit(turns: np.ndarray, k: int, index: np.ndarray) -> np.ndarray:
    """Digit k of the uint64 turns (k = 0, 1, 2: the turn-table indices;
    k = 3: the low 28 bits), written into the uint64 array index, which may
    be turns itself, and returned as its int64 view: the digits fit, so
    they are read in place, with no copy."""
    np.right_shift(turns, _DIGIT_SHIFTS[k], out=index)
    index &= _DIGIT_MASKS[k]
    return index.view(np.int64)


def _phase_factors(turns: np.ndarray) -> np.ndarray:
    """e(K / 2^64) at every uint64 turn K of an array, from the turn tables.

    The products are taken in real arithmetic, one rounding per numpy call,
    so each entry depends on its K alone and not on its place in the array:
    numpy's complex multiply may fuse a multiply and an add in its vector
    loop and not in its scalar one."""
    index = np.empty_like(turns)
    first = np.take(_TURN_TABLES[0], _digit(turns, 0, index), mode="wrap")
    re, im = first.real, first.imag
    for k in (1, 2):
        f = np.take(_TURN_TABLES[k], _digit(turns, k, index), mode="wrap")
        re, im = re * f.real - im * f.imag, re * f.imag + im * f.real
    delta = _digit(turns, 3, index) * _LOW_TO_RADIANS
    out = np.empty(turns.shape, complex)
    out.real, out.imag = re - im * delta, im + re * delta
    return out


def _point_chunk_sums(
    pair: FormPair,
    P: float,
    weight: Weight,
    turns: list[tuple[int, int]],
    sub: list[tuple[int, int]],
    buffers: threading.local,
) -> list[complex]:
    """Every alpha's sum over one chunk, with an exact phase per point and alpha.

    C, Q and omega are evaluated once on the chunk, and the points where
    omega > 0 are kept.  Each alpha, given as its turns (A3, A2) (_turn),
    forms K = A3 C + A2 Q mod 2^64 at each of them in wrapping uint64
    arithmetic, which is exact on the int64 values of the forms, and reads
    f = T0[d0] T1[d1] T2[d2] off the turn tables (_digit), with the factor
    1 + 2 pi i delta folded into two sums: sum w f + i sum (w 2 pi delta) f.
    Each alpha takes the same numpy calls on the same arrays whatever the
    other alphas, so its sum is the same bit for bit.  The per-alpha arrays
    are the leading parts of the arrays that buffers keeps per thread for the
    whole weyl_sums call, so that their pages are not faulted in afresh for
    every chunk: that cost a one-alpha sum about a third of its time.
    """
    coords = _box_axes(sub)
    w = omega_grid(weight, [c.astype(float) / P for c in coords])
    keep = w > 0
    w = w[keep]
    c_vals, q_vals = (np.ascontiguousarray(np.broadcast_to(v, keep.shape)[keep], dtype=np.int64).view(np.uint64)
                      for v in (eval_cubic(pair.cubic, coords), eval_quadratic(pair.quadric, coords)))
    if getattr(buffers, "size", -1) < len(w):
        buffers.size = max(len(w), 2 * weightfn.CHUNK)
        buffers.turns = np.empty((2, buffers.size), np.uint64)
        buffers.factors = np.empty((2, buffers.size), complex)
    phase, index = buffers.turns[:, :len(w)]
    table, factor = buffers.factors[:, :len(w)]
    # once its digits are read, the phase's memory holds 2 pi delta w
    low = phase.view(float)
    out = []
    for a3, a2 in turns:
        np.multiply(c_vals, np.uint64(a3), out=phase)
        phase += np.multiply(q_vals, np.uint64(a2), out=index)
        np.take(_TURN_TABLES[0], _digit(phase, 0, index), out=table, mode="wrap")
        for k in (1, 2):
            table *= np.take(_TURN_TABLES[k], _digit(phase, k, index), out=factor, mode="wrap")
        np.multiply(_digit(phase, 3, phase), _LOW_TO_RADIANS, out=low)
        low *= w
        # einsum, not BLAS: OpenBLAS splits long dot products over its
        # own threads, which would change the last bits with their number
        whole, fine = np.einsum("i,i->", w, table), np.einsum("i,i->", low, table)
        out.append(complex(whole.real - fine.imag, whole.imag + fine.real))
    return out


def _block_tables(
    pair: FormPair, box: list[tuple[int, int]], a3: np.ndarray, a2: np.ndarray
) -> Callable[[list[tuple[int, int]]], list[tuple[tuple[int, ...], np.ndarray]]]:
    """The phase factors of a pair of several blocks at the alphas, given as
    uint64 arrays of turns (a3, a2) (_turn), as a function of a chunk sub of
    box: [(b, e(alpha3 C_b + alpha2 Q_b) on sub's side of b, alpha first)]
    for each block b of forms.separable_blocks.  Each factor is e(K / 2^64)
    for the exact turn K = A3 C_b + A2 Q_b mod 2^64 (_phase_factors).

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
        c, q = (np.ascontiguousarray(np.broadcast_to(v, shape).reshape(sides), dtype=np.int64).view(np.uint64)
                for v in values(_box_axes(sub))[k])
        phase = np.multiply.outer(a3, c)
        phase += np.multiply.outer(a2, q)
        return _phase_factors(phase)

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
    the first contraction takes the real omega against the real and
    imaginary parts of its block's factors, the others are complex.  The
    contraction is einsum, not BLAS: OpenBLAS splits long dot products over
    its own threads, which would change the last bits with their number.  Each alpha's row of a table and
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

    Each alpha is converted once to a 64-bit fixed-point turn A =
    round(frac(alpha) 2^64) (_turn): exactly when alpha mod 1 is a multiple
    of 2^-64, as for every double with |alpha| >= 2^-12, and within 2^-65
    otherwise; a non-finite alpha is a ValueError.  The phase A3 C(x) + A2
    Q(x) mod 2^64 is then exact in wrapping uint64 arithmetic on the int64
    form values that forms.int64_bound guarantees, and e(phase) is read off
    three tables of 4096 entries, so every term carries a few ulp of
    rounding whatever the size of the phase.

    The weight's box is charged to cap once, whatever the number of alphas,
    and its support is streamed in the boxes of weightfn.support_chunks.
    The kernel follows forms.separable_blocks.  A pair whose one block
    spans all n variables evaluates C, Q and omega once per box of 2
    weightfn.CHUNK points and takes a phase per kept point and alpha
    (_point_chunk_sums).  A pair with several blocks evaluates each block's
    forms only on the block's side of the box (forms.block_values), into a
    table of phase factors per point and alpha (_block_tables), and on each
    box of weightfn.CHUNK points evaluates omega once and contracts it
    against the tables (_block_chunk_sums).  The boxes never depend on
    threads, and each alpha's box sums are added by fsum_complex, so the
    result does not depend on threads either.
    """
    box = weight_box(weight, P)
    if weight.n != pair.n:
        raise ValueError("weight dimension does not match the form pair")
    turns = [(_turn(float(a3)), _turn(float(a2))) for a3, a2 in alphas]
    if any(lo > hi for lo, hi in box):
        return [0.0 + 0.0j] * len(turns)
    check_cap(math.prod(hi - lo + 1 for lo, hi in box), cap, "lattice box")
    bound, fits = int64_bound(pair, [max(abs(lo), abs(hi)) for lo, hi in box])
    if not fits:
        raise CapExceededError(f"lattice box too large for int64-exact form evaluation (bound {bound})")
    if not turns:
        return []
    blocks = separable_blocks(pair)
    # einsum names axes by integers below 52: one per variable and one for
    # alpha.  One block keeps the point kernel, which skips the points where
    # omega = 0 and was measured faster there than block tables (ROADMAP item 3)
    if 1 < len(blocks) and pair.n < 52:
        a3, a2 = (np.array(a, dtype=np.uint64) for a in zip(*turns))
        tables = _block_tables(pair, box, a3, a2)
        size = weightfn.CHUNK

        def work(sub: list[tuple[int, int]]) -> list[complex]:
            return _block_chunk_sums(tables(sub), P, weight, sub)
    else:
        size, buffers = 2 * weightfn.CHUNK, threading.local()

        def work(sub: list[tuple[int, int]]) -> list[complex]:
            return _point_chunk_sums(pair, P, weight, turns, sub, buffers)

    parts = parallel_map(work, support_chunks(weight, P, box, [0.0] * pair.n, size), threads)
    return [fsum_complex(part[i] for part in parts) for i in range(len(turns))]


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
    with one block reads an exact phase factor off the turn tables at each
    of them; a pair with several separable blocks reads them only on each
    block's side of the box, sum over blocks b of prod over i in b of
    (2 xi P + 1) points.
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


def _majorants(pair: FormPair, weight: Weight) -> tuple[list[float], CubicForm, QuadraticForm]:
    """The corner m of the weight's support cube, m_i = |x0_i| + xi, and C+
    and Q+, the forms with the absolute values of the coefficients: at m they
    majorize |C| and |Q|, and their gradients the slopes of C and Q, on the
    support."""
    return ([abs(c) + weight.xi for c in weight.center],
            CubicForm(pair.n, {k: abs(c) for k, c in pair.cubic.monomials.items()}),
            QuadraticForm(pair.n, {k: abs(c) for k, c in pair.quadric.monomials.items()}))


def check_phase_size(
    pair: FormPair, weight: Weight, gamma3: float, gamma2: float, z: Sequence[float], name: str
) -> None:
    """Refuse, as a ValueError naming name, a phase gamma3 C(x) + gamma2 Q(x)
    - z.x that may reach 2^52 on the weight's support: a double holds it
    there only to within 1, so e(phase) has no correct digit and quadrature
    would refine rounding noise to its depth limit.  The phase is majorized
    by |gamma3| C+(m) + |gamma2| Q+(m) + sum |z_i| m_i (_majorants), so a
    form with no monomials adds nothing whatever its gamma."""
    m, cubic, quadric = _majorants(pair, weight)
    size = (abs(gamma3) * eval_cubic(cubic, m) + abs(gamma2) * eval_quadratic(quadric, m)
            + sum(abs(zi) * mi for zi, mi in zip(z, m)))
    if not size < 2.0**52:
        raise ValueError(f"the phase of {name} may reach {size:.3g} >= 2^52 on the weight's support, "
                         "where it has no correct digit")


def check_phase(
    pair: FormPair, weight: Weight, gamma3: float, gamma2: float, z: Sequence[float], name: str
) -> int:
    """The guard of a quadrature of omega(x) e(gamma3 C(x) + gamma2 Q(x) -
    z.x) to depth MAX_LEVEL: three rules in turn, each refusing as a
    ValueError naming name; returns the level the refinement starts at.

    - Size: the phase may reach 2^52 on the support (check_phase_size).
    - Slope: the phase may run through more than RESOLUTION_MARGIN
      2^MAX_LEVEL cycles along an axis of the support cube, and the
      trapezoid rule of step h resolves only slopes below 1/h.  The slope
      along x_i is majorized by |gamma3| dC+/dx_i + |gamma2| dQ+/dx_i + |z_i|
      at m (_majorants), and the cycles by 2 xi times its largest value.
    - Start: the first level with at least two intervals per cycle of
      e(-z_i x_i) along every axis, |z_i| 2 xi cycles; at least MIN_LEVEL.
      On a coarser grid the linear phase aliases: when |z_i| 2 xi / 2^level
      is an integer, every node of that level sits at the same phase of it,
      and levels that all do agree on the mass of omega, not on
      omega-hat(z).  A level that leaves no finer one within MAX_LEVEL to
      compare it with is refused.
    """
    check_phase_size(pair, weight, gamma3, gamma2, z, name)
    m, cubic, quadric = _majorants(pair, weight)
    cycles = 2.0 * weight.xi * max(abs(gamma3) * gc + abs(gamma2) * gq + abs(zi)
                                   for gc, gq, zi in zip(gradient_cubic(cubic, m), gradient_quadratic(quadric, m), z))
    if cycles > RESOLUTION_MARGIN * 2**MAX_LEVEL:
        raise ValueError(f"the phase of {name} may run through {cycles:.3g} cycles along an axis of the "
                         f"weight's support, more than {RESOLUTION_MARGIN} times the {2**MAX_LEVEL} intervals "
                         f"per axis of the depth-{MAX_LEVEL} quadrature grid")
    cycles = 2.0 * weight.xi * max((abs(zi) for zi in z), default=0.0)
    level = max(MIN_LEVEL, (next_pow2(2.0 * cycles) - 1).bit_length())
    if level >= MAX_LEVEL:
        raise ValueError(f"z in {name} runs through {cycles:.3g} cycles along an axis of the weight's support; "
                         f"two grid intervals per cycle take quadrature level {level}, and the refinement "
                         f"compares levels only up to depth {MAX_LEVEL}")
    return level


def osc_integral(
    pair: FormPair,
    weight: Weight,
    gamma3: float,
    gamma2: float,
    z: Sequence[float],
    tol: float = 1e-8,
    cap: int = DEFAULT_CAP,
) -> QuadResult:
    """I(gamma; z) at a frequency vector z of length n: adaptive tensor
    quadrature over the weight's support cube, from the level at which
    check_phase starts it.  That guard refuses a phase that may reach 2^52
    on the support, or turn faster than the finest grid resolves, and a z
    that no level below MAX_LEVEL resolves."""
    n = pair.n
    if weight.n != n:
        raise ValueError("weight dimension does not match the form pair")
    if len(z) != n:
        raise ValueError(f"z has length {len(z)}, expected {n}")
    name = f"I(gamma; z) at gamma = ({gamma3}, {gamma2}), z = {z}"
    start = check_phase(pair, weight, gamma3, gamma2, z, name)

    def f(axes: list[np.ndarray]) -> np.ndarray:
        return _smooth_phase(pair, weight, gamma3, gamma2, axes, z)

    return tensor_integral(f, weight, tol, cap=cap, start=start)


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
    m at once (quadrature.grid_contract).  A phase that may reach 2^52 on
    the support, with z_i = (P/q) M, is refused first (check_phase_size);
    only that rule of check_phase applies, since the grid refines until the
    cap stops it.  The m-grid (2M+1)^n and the residue grid q^n are charged
    to cap before they are built, and grid_contract charges each quadrature
    grid and its phase matrices.  A P that is not a finite real >= 1
    (weightfn.check_scale), or whose powers P^3 or (P/q)^n overflow a
    float, is a ValueError.
    """
    check_scale(P)
    if M < 0:
        raise ValueError("truncation radius M must be >= 0")
    n = pair.n
    q = approx.q
    gamma3 = approx.theta3 * _power(P, 3, "P")
    gamma2 = approx.theta2 * _power(P, 2, "P")
    scale = _power(P / q, n, "(P/q)")
    # I(gamma; freq_step * m) for every m is one contraction of the smooth
    # factor with the separable oscillation e(-freq_step m.x), which is
    # exact on the grid
    freq_step = P / q
    check_phase_size(pair, weight, gamma3, gamma2, [freq_step * M] * n,
                     f"I(gamma; (P/q) m) at gamma = ({gamma3}, {gamma2}), |m|_inf <= {M}")
    check_cap((2 * M + 1) ** n, cap, f"poisson m-grid (2M+1)^n = {2 * M + 1}^{n}")

    def phases(coords, c, qq):
        return ((approx.a3 % q) * c + (approx.a2 % q) * qq) % q

    # scan() runs coordinate 1 fastest, hence the Fortran-order reshape
    t = np.concatenate(scan(pair, q, phases, cap)).reshape((q,) * n, order="F")
    f = np.exp(2j * np.pi * t / q)
    sums_mod = q**n * np.fft.ifftn(f)
    ms = np.arange(-M, M + 1)
    sums_big = sums_mod[np.ix_(*([ms % q] * n))]

    smooth = _smooth_factor(pair, weight, gamma3, gamma2)
    grid_n = _alias_start_level(pair, weight, gamma3, gamma2, freq_step * M)
    prev = None
    while True:
        tensor = grid_contract(smooth, weight, grid_n, ms, freq_step, cap)
        total = scale * complex(np.sum(sums_big * tensor))
        if prev is not None and abs(total - prev) <= POISSON_REL_TOL * (1.0 + abs(total)):
            return total
        prev = total
        grid_n *= 2
