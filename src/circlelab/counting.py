"""Enumeration of integer solutions of C = Q = 0 and the weighted count.

Enumeration is exact (Python integers, no overflow) and yields points in
lexicographic order so outputs are reproducible and diffable.  Every
quadric goes through one loop over the first n - 1 coordinates: at each
prefix, Q is a polynomial of degree at most 2 in the last coordinate, whose
integer roots come from an exact integer square root (or one exact division
when Q has no x_n^2 term), and only those roots are tested on the cubic.

Every enumeration charges the points it visits to the work cap: the
(n - 1)-dimensional prefix box when Q has an x_n^2 term, and the whole box
otherwise, because a prefix at which Q vanishes identically in x_n takes
every value of the last side.

The weighted count N(P) = sum over solutions of omega(x/P) needs only the
integer points of weightfn.weight_box, the box circumscribing P times the
support ball, visited once.  omega is evaluated at all the solutions in one
weightfn.omega_grid call, and the values are added by one math.fsum.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .forms import FormPair, eval_cubic
from .util import DEFAULT_CAP, check_cap
from .weightfn import Weight, omega_grid, weight_box

__all__ = [
    "check_box",
    "enumerate_solutions",
    "count_weighted",
    "weighted_sum",
]

Box = Sequence[tuple[int, int]]


def check_box(n: int, box: Box) -> list[tuple[int, int]]:
    """The n (lo, hi) ranges of box as ints; a box of another length is a ValueError."""
    if len(box) != n:
        raise ValueError(f"box has length {len(box)}, expected {n}")
    out = []
    for lo, hi in box:
        lo, hi = int(lo), int(hi)
        out.append((lo, hi))
    return out


def enumerate_solutions(
    pair: FormPair, box: Box, cap: int = DEFAULT_CAP
) -> Iterator[tuple[int, ...]]:
    """Yield every integer point of the box with C(x) = Q(x) = 0, once, in
    lexicographic order.

    Q(x', t) = a t^2 + b(x') t + c(x') is solved for the last coordinate t
    at each prefix x' of the first n - 1 coordinates, and each root t in
    the last side is kept when C(x', t) = 0.  The points visited (all but
    the last side of the box when a != 0, the whole box otherwise) are
    charged to cap before the first is yielded.
    """
    n = pair.n
    box = check_box(n, box)
    ranges = [range(lo, hi + 1) for lo, hi in box]
    a = pair.quadric.monomials.get((n, n), 0)
    # b(x') = sum of q_in x_i over i < n, c(x') = Q(x', 0)
    linear = [(i - 1, coeff) for (i, j), coeff in pair.quadric.monomials.items() if i < j == n]
    const = [(i - 1, j - 1, coeff) for (i, j), coeff in pair.quadric.monomials.items() if j < n]
    scanned = ranges[:-1] if a else ranges
    check_cap(math.prod(len(r) for r in scanned), cap, "lattice box")

    last = ranges[-1]
    for prefix in itertools.product(*ranges[:-1]):
        b = c = 0
        for i, coeff in linear:
            b += coeff * prefix[i]
        for i, j, coeff in const:
            c += coeff * prefix[i] * prefix[j]
        if a:
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            # t = (-b -+ r) / 2a in ascending order, a double root when r = 0
            nums = (-b,) if r == 0 else (-b - r, -b + r) if a > 0 else (-b + r, -b - r)
            roots = [num // (2 * a) for num in nums if num % (2 * a) == 0]
        elif b:
            roots = [-c // b] if c % b == 0 else []
        else:
            roots = last if c == 0 else ()
        for t in roots:
            if t in last:
                x = prefix + (t,)
                if eval_cubic(pair.cubic, x) == 0:
                    yield x


def weighted_sum(solutions: Iterable[tuple[int, ...]], P: float, weight: Weight) -> float:
    """Sum of omega(x/P) over solutions: one omega_grid call on the (k, n)
    array of the k solutions, added by one math.fsum."""
    # no solutions make a (0, n) array, whose omega_grid is empty
    x = np.array(list(solutions) or np.empty((0, weight.n)), dtype=float) / P
    return math.fsum(omega_grid(weight, x.T))


def count_weighted(pair: FormPair, P: float, weight: Weight, cap: int = DEFAULT_CAP) -> float:
    """N(P) = sum of omega(x/P) over integer solutions of C = Q = 0."""
    box = weight_box(weight, P)
    if weight.n != pair.n:
        raise ValueError("weight dimension does not match the form pair")
    return weighted_sum(enumerate_solutions(pair, box, cap), P, weight)
