"""Empirical diagnostics for the Weyl-differencing route.

A large Weyl sum forces many solutions of the doubled bilinear system
B_i(x; y) = 0, so the count

    n(R) = #{(x, y) : |x| < R, |y| < R, B_i(x; y) = 0 for all i}

(sup norm throughout) is the basic hardness measure; for fixed x the system
is linear in y, M(x) y = 0, so each x contributes the lattice points of
the kernel of M(x) inside the box.  count_bilinear reads the rank and, for
rank n - 1, the kernel line off exact integer minors, computed for every
x of a box at once by fraction-free elimination (int64 where
forms.minor_bound allows it, Python-int object arrays otherwise); the rare
x of rank at most n - 2 share few kernels, and the y-box is scanned once
per distinct kernel.  The heights T3, T2 defined by
|S| = P^n T3^{-h} = P^n T2^{-rho} convert an observed sum into the scale at
which the two Weyl lemmas bite, and the witness searches below replay those
lemmas' conclusions (a good rational approximation to alpha3 with
s(1 + P^3 |phi3|) small, then either a small u with ||s u alpha2|| tiny or
a lower bound on T2).  All "<<" checks use logged constants and soft flags.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import weightfn
from .arcs import DEFAULT_DELTA, Q_BLOCK, grid_approx, jittered_grid, major_arc_test, q3q2
from .forms import (CubicForm, FormPair, QuadraticForm, bilinear_matrix, block_pair, h_parameter, minor_bound,
                    separable_blocks, signature_quadratic)
from .util import DEFAULT_CAP, check_cap
from .weightfn import Weight
from .expsums import weyl_sums

__all__ = [
    "WeylHeights",
    "count_bilinear",
    "heights_from_sum",
    "alpha3_witness",
    "Alpha3Witness",
    "minor_arc_scan",
]

SOFT_CONSTANT = 10.0
# the epsilon of the dichotomy's P^eps losses
EPS = 0.05
# the most denominators s that alpha3_witness tries
WITNESS_BUDGET = 10**7


@dataclass(frozen=True)
class WeylHeights:
    """Heights with |S| = P^n T3^{-h} = P^n T2^{-rho}, so T2 = T3^{h/rho}."""

    t3: float
    t2: float
    h: int
    rho: int


def heights_from_sum(s_abs: float, P: float, n: int, h: int, rho: int) -> WeylHeights:
    if s_abs < 0:
        raise ValueError("|S| cannot be negative")
    if h <= 0 or rho <= 0:
        raise ValueError("h and rho must be positive")
    if s_abs == 0.0:
        return WeylHeights(math.inf, math.inf, h, rho)
    log_ratio = n * math.log(P) - math.log(s_abs)
    return WeylHeights(math.exp(log_ratio / h), math.exp(log_ratio / rho), h, rho)


def _reduce_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fraction-free Gauss-Jordan elimination of b integer n x n matrices.

    a has shape (n, n, b), entry (i, k) of every matrix in a[i, k], and is
    reduced in place: in each column the first row at or below the current
    rank with a nonzero entry is the pivot, and every update is divided
    exactly by the previous pivot (Bareiss), so each entry stays a minor of
    the input.  Returns (rank, pivot_columns, d): afterwards the top rank
    rows of each matrix are d times its reduced row echelon form and the
    other rows are zero; d is the last pivot, +-det for full rank.
    """
    n, _, b = a.shape
    rows = np.arange(n)[:, None]
    rank = np.zeros(b, dtype=np.intp)
    pivot_columns = np.zeros((n, b), dtype=bool)
    d = np.ones(b, dtype=a.dtype)
    for c in range(n):
        candidates = (a[:, c] != 0) & (rows >= rank)
        found = candidates.any(axis=0)
        src = candidates.argmax(axis=0)
        move = np.flatnonzero(found & (src != rank))
        s, r = src[move], rank[move]
        a[s, :, move], a[r, :, move] = a[r, :, move], a[s, :, move]
        # a matrix without a pivot here takes the update with p = d and a
        # zero pivot row, which leaves it as it is
        top = np.take_along_axis(a, rank[None, None, :], axis=0)[0]
        p = np.where(found, top[c], d)
        new = p * a
        new -= a[:, c, None] * (top * found)
        new //= d
        np.put_along_axis(new, rank[None, None, :], top[None], axis=0)
        a[...] = new
        d = p
        pivot_columns[c] = found
        rank += found
    return rank, pivot_columns, d


def count_bilinear(cubic: CubicForm, R: int, cap: int = DEFAULT_CAP) -> int:
    """n(R) as the product of n_b(R) over the blocks b of the cubic.

    The blocks are forms.separable_blocks of (C, 0), which no monomial of C
    joins.  M(x) is then block-diagonal, B_i(x; y) for i in b reading only
    x_b and y_b, so the solutions (x, y) are the products of each block's,
    and n(R) = prod_b n_b(R), each n_b(R) counted by _count_whole on the
    block's cubic in its |b| variables; a variable in no monomial counts
    (2R - 1)^2.  The x-ranges, sum_b (2R - 1)^|b| points, are charged to
    cap before any block is counted.
    """
    if R < 1:
        raise ValueError("R must be a positive integer")
    pair = FormPair(cubic, QuadraticForm(cubic.n, {}))
    blocks = separable_blocks(pair)
    check_cap(sum((2 * R - 1) ** len(b) for b in blocks), cap, "bilinear count x-range")
    return math.prod(_count_whole(block_pair(pair, b).cubic, R, cap) for b in blocks)


def _count_whole(cubic: CubicForm, R: int, cap: int = DEFAULT_CAP) -> int:
    """n(R) from one batched exact elimination of M(x) over the whole x-box.

    The x-box is streamed in the boxes of weightfn.cut_box, of at most
    weightfn.BOX points; on each box bilinear_matrix builds M(x) on its
    broadcast axes and _reduce_rows brings every M(x) to d times its
    reduced row echelon form, in int64 where forms.minor_bound allows it
    and on Python-int object arrays otherwise, so the count is exact for
    any coefficients.  Rank n contributes only
    y = 0 and M(x) = 0 every y.  Rank n - 1 contributes the points of the
    kernel line inside the box; its integer spanning vector is made of
    (n-1)-minors, a column of adj M(x) up to sign, and divided by its gcd
    it steps by its largest entry.  Rank 1 to n - 2 is rare: such x are
    keyed by their row space (echelon rows divided by their gcd), and the
    y-box is scanned once per distinct kernel, each scan charged to cap
    before any runs.
    """
    if R < 1:
        raise ValueError("R must be a positive integer")
    n = cubic.n
    side = 2 * R - 1
    check_cap(side**n, cap, "bilinear count x-range")
    dtype = np.int64 if minor_bound(cubic, R - 1)[1] else object
    boxes = [[x.astype(dtype) for x in weightfn.box_axes(box)]
             for box in weightfn.cut_box([(1 - R, R - 1)] * n, weightfn.BOX)]
    total = 0
    kernels: Counter = Counter()
    for xs in boxes:
        a = np.empty((n, n) + np.broadcast_shapes(*(x.shape for x in xs)), dtype=dtype)
        for i, row in enumerate(bilinear_matrix(cubic, xs)):
            for k, entry in enumerate(row):
                a[i, k] = entry
        a = a.reshape(n, n, -1)
        rank, pivot_columns, d = _reduce_rows(a)
        total += int(np.count_nonzero(rank == n)) + side**n * int(np.count_nonzero(rank == 0))
        line = np.flatnonzero((rank == n - 1) & (rank > 0))
        if line.size:
            # entry j of the kernel vector: d at the free column f, else minus
            # the entry in column f of the row whose pivot is in column j
            free = pivot_columns[:, line].argmin(axis=0)
            row_of = np.cumsum(pivot_columns[:, line], axis=0) - 1
            v = -a[row_of, free, line]
            v[free, np.arange(line.size)] = d[line]
            step = np.abs(v).max(axis=0) // np.gcd.reduce(v, axis=0)
            total += int(np.sum(2 * ((R - 1) // step) + 1))
        rest = np.flatnonzero((rank > 0) & (rank < n - 1))
        if rest.size:
            g = np.gcd.reduce(a[:, :, rest], axis=1)
            sign = np.where(d[rest] < 0, -1, 1)
            echelon = a[:, :, rest] // np.where(g == 0, 1, g)[:, None] * sign
            kernels.update(tuple(map(tuple, mat[:r]))
                           for mat, r in zip(echelon.transpose(2, 0, 1).tolist(), rank[rest].tolist()))
    check_cap(side**n * len(kernels), cap, "bilinear count y-scan")
    for rows, multiplicity in kernels.items():
        hits = 0
        for ys in boxes:
            zero = np.ones(np.broadcast_shapes(*(y.shape for y in ys)), dtype=bool)
            for row in rows:
                zero &= sum(c * y for c, y in zip(row, ys) if c) == 0
            hits += int(np.count_nonzero(zero))
        total += multiplicity * hits
    return total


def _distance_to_int(t: float) -> float:
    return abs(t - round(t))


@dataclass(frozen=True)
class Alpha3Witness:
    s: int
    b3: int
    phi3: float
    lhs: float
    rhs_scale: float
    ok: bool


def alpha3_witness(alpha3: float, P: float, t3: float) -> Alpha3Witness:
    """Best rational witness alpha3 = b3/s + phi3 with s(1 + P^3 |phi3|) small.

    Exhaustive over s up to ~SOFT_CONSTANT * P^EPS * T3^8 (at most
    WITNESS_BUDGET); ok flags whether the minimized objective stays below
    SOFT_CONSTANT times that scale.  The objective s + P^3 ||s alpha3|| is
    screened in numpy blocks of arcs.Q_BLOCK denominators, in the same
    IEEE arithmetic as a loop over s: each block's first minimum replaces
    the incumbent only if strictly smaller, so the least s attaining the
    minimum wins, and the scan stops at a block whose first s exceeds the
    incumbent (the objective is at least s).
    """
    if not math.isfinite(t3):
        raise ValueError("T3 must be finite (the sum was nonzero)")
    rhs_scale = P**EPS * t3**8
    s_max = max(1, min(int(math.ceil(SOFT_CONSTANT * rhs_scale)), WITNESS_BUDGET))
    p3 = P**3
    best = None
    # blocks are made as the scan reaches them: the scan mostly stops in the
    # first, while s_max can allow 10^7 / Q_BLOCK of them
    for lo in range(1, s_max + 1, Q_BLOCK):
        if best is not None and lo > best[0]:
            break
        s = np.arange(lo, min(lo + Q_BLOCK, s_max + 1), dtype=float)
        t = s * alpha3
        objective = s + p3 * np.abs(t - np.rint(t))
        i = int(np.argmin(objective))
        if best is None or objective[i] < best[0]:
            best = (float(objective[i]), lo + i)
    s = best[1]
    b3 = round(s * alpha3)
    g = math.gcd(s, abs(b3)) if b3 else s
    if g > 1:
        s //= g
        b3 //= g
    phi3 = alpha3 - b3 / s
    lhs = s * (1.0 + P**3 * abs(phi3))
    return Alpha3Witness(s, b3, phi3, lhs, rhs_scale, lhs <= SOFT_CONSTANT * rhs_scale)


def _u_search(alpha2: float, s: int, phi3: float, P: float, t2: float) -> int | None:
    """Smallest u <= SOFT_CONSTANT T2^2 with ||s u alpha2|| within the lemma bound."""
    if not math.isfinite(t2):
        return None
    u_max = int(math.ceil(SOFT_CONSTANT * t2 * t2))
    bound = SOFT_CONSTANT * P ** (-2 + EPS) * s * (1.0 + P**3 * abs(phi3)) * t2 * t2
    for u in range(1, min(u_max, 10**6) + 1):
        if _distance_to_int(s * u * alpha2) <= bound:
            return u
    return None


def minor_arc_scan(
    pair: FormPair,
    P: float,
    weight: Weight,
    grid_k: int,
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> list[dict]:
    """Classify a jittered k x k grid of (alpha3, alpha2) and test the Weyl
    dichotomy at each point.  Report-only: no assertions are made here.

    All k^2 direct Weyl sums come from one expsums.weyl_sums call, which
    evaluates the forms and the weight once for every point, on the support
    ball only, split over threads; each row is then classified on its own.
    The k^2 grid charges cap, and so does the whole box of the sums, once,
    exactly as a single direct sum does; each point's major-arc test charges
    it on its own, and the pigeonhole scans of all points share it
    (arcs.grid_approx)."""
    h = h_parameter(pair)
    rho = signature_quadratic(pair.quadric).rank
    n = pair.n
    points = jittered_grid(grid_k, seed, cap=cap)
    Q3, Q2 = q3q2(P)
    sums = weyl_sums(pair, P, weight, points, cap=cap, threads=threads)
    approxes = grid_approx(points, Q3, Q2, cap=cap)

    def classify(pt: tuple[float, float], s_val: complex) -> dict:
        alpha3, alpha2 = pt
        s_abs = abs(s_val)
        is_major, witness = major_arc_test(alpha3, alpha2, P, delta, cap=cap)
        approx = next(approxes)
        row = {
            "alpha3": alpha3,
            "alpha2": alpha2,
            "abs_S": s_abs,
            "is_major": is_major,
            "major_q": witness[0] if witness else None,
            "pigeon_q": approx.q,
            "pigeon_a3": approx.a3,
            "pigeon_a2": approx.a2,
        }
        if s_abs == 0.0:
            row.update(
                t3=math.inf, t2=math.inf, s=None, b3=None, phi3=None,
                witness_ok=None, u=None, alt=None,
            )
            return row
        heights = heights_from_sum(s_abs, P, n, h, rho)
        wit = alpha3_witness(alpha3, P, heights.t3)
        row.update(
            t3=heights.t3, t2=heights.t2, s=wit.s, b3=wit.b3, phi3=wit.phi3,
            witness_ok=wit.ok,
        )
        if wit.s > P:
            # the dichotomy was derived under s <= P; mark rather than force
            row.update(u=None, alt="unclassifiable")
            return row
        u = _u_search(alpha2, wit.s, wit.phi3, P, heights.t2)
        alt_ii = heights.t2**2 >= P ** (1 - EPS) / (wit.s + P**3 * abs(wit.phi3)) / SOFT_CONSTANT
        row["u"] = u
        if u is not None and alt_ii:
            row["alt"] = "both"
        elif u is not None:
            row["alt"] = "i"
        elif alt_ii:
            row["alt"] = "ii"
        else:
            row["alt"] = "none"
        return row

    return [classify(pt, s_val) for pt, s_val in zip(points, sums)]
