"""Two-dimensional rational approximation and major/minor arc dissection.

For a cutoff pair Q3 = [P^{4/3}], Q2 = [P^{1/3}] the pigeonhole principle
guarantees, for any (alpha3, alpha2), a modulus q <= Q3 Q2 and numerators
with gcd(q, gcd(a3, a2)) = 1 such that |alpha_i - a_i/q| <= 1/(q Q_i).
The search returns the smallest qualifying modulus.  It screens q upward in
numpy blocks, with a slack that covers the float error so that no
qualifying q is dropped, and verifies the defining inequalities of the
survivors, in ascending order, in exact rational arithmetic (floats are
rationals, so nothing is lost).

Major arcs are the boxes |alpha_i - a_i/q| <= P^{-i+delta} around rationals
with q <= P^delta; everything is taken mod 1 with a_i normalized to [1, q]
and theta measured as the wrapped (torus) difference.  For delta in
(0, 1/3) they are pairwise disjoint: two distinct centres differ by at
least 1/(q q') >= P^{-2 delta} in some coordinate i, while boxes overlap
there only within 2 P^{-i+delta} <= 2 P^{-2+delta}, which is smaller once
P^{2-3 delta} > 2, so for every P >= 2; below 2 only the q = 1 arc exists.

Every scan here charges the moduli it screens to a work cap: the two
P^delta loops charge floor(P^delta) before they start, and the pigeonhole
search stops at q = cap.  The pigeonhole searches of a grid share one cap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from .expsums import RationalApprox
from .util import CapExceededError, DEFAULT_CAP, InvariantError, check_cap, jordan_totient2

__all__ = [
    "floor_power",
    "q3q2",
    "simultaneous_approx",
    "grid_approx",
    "major_arc_test",
    "major_arc_measure",
    "jittered_grid",
    "DEFAULT_DELTA",
]

DEFAULT_DELTA = 1.0 / 7.0


def floor_power(P: float, num: int, den: int) -> int:
    """Exact floor(P^(num/den)) for real P >= 1 (P read as an exact rational).

    An integer k has k^den <= P^num exactly when k^den <= x = floor(P^num),
    so this is the integer den-th root of x, by Newton's iteration from
    above; no float power is formed, so no P overflows."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    x = math.floor(Fraction(P) ** num)
    k = 1 << -(-x.bit_length() // den)
    while True:
        step = ((den - 1) * k + x // k ** (den - 1)) // den
        if step >= k:
            return k
        k = step


def q3q2(P: float) -> tuple[int, int]:
    """Dirichlet cutoffs (floor(P^{4/3}), floor(P^{1/3}))."""
    return floor_power(P, 4, 3), floor_power(P, 1, 3)


def _delta_cutoff(P: float, delta: float) -> int:
    """floor(P^delta), exact when delta is (close to) a small rational."""
    frac = Fraction(delta).limit_denominator(64)
    if abs(float(frac) - delta) < 1e-12:
        return floor_power(P, frac.numerator, frac.denominator)
    return int(P**delta)


def _major_moduli(P: float, delta: float, cap: int) -> int:
    """floor(P^delta), the largest modulus of a major arc, charged to cap;
    a delta outside (0, 1/3), where the arcs are not disjoint, is a ValueError."""
    if not (0 < delta < 1.0 / 3.0):
        raise ValueError(f"delta must lie in (0, 1/3), got {delta}")
    qmax = _delta_cutoff(P, delta)
    check_cap(qmax, cap, "major arc moduli q <= P^delta")
    return qmax


def _normalize_unit(alpha: float) -> float:
    """Representative of alpha mod 1 in (0, 1]."""
    a = alpha - math.floor(alpha)
    return 1.0 if a == 0.0 else a


def _nearest_numerator(q: int, alpha: float) -> int:
    """a in [1, q] with a/q nearest to alpha mod 1.

    The rounding floor(q alpha + 1/2) is taken in exact integer arithmetic
    on alpha = m / d: the float product q alpha can round onto a half
    integer (15 fl(1/6) = 2.5) and pick the farther numerator."""
    m, d = alpha.as_integer_ratio()
    a = (2 * q * m + d) // (2 * d)
    return (a - 1) % q + 1


def _torus_theta(alpha: float, a: int, q: int) -> float:
    """alpha - a/q wrapped into [-1/2, 1/2)."""
    d = alpha - a / q
    return (d + 0.5) % 1.0 - 0.5


def _exact_torus_bound(alpha: float, a: int, q: int, bound: Fraction) -> bool:
    """Exact check that the wrapped distance |alpha - a/q| is <= bound."""
    d = Fraction(alpha) - Fraction(a, q)
    d -= round(d)
    return abs(d) <= bound


# q values screened per numpy block: no array of the scan exceeds this size
Q_BLOCK = 1 << 12


def _screen(qs: np.ndarray, alpha: float, cutoff: int, slack: float) -> np.ndarray:
    """The q of qs (exact float64 integers) with ||q alpha|| <= 1/cutoff + slack."""
    d = qs * alpha
    d -= np.rint(d)
    return qs[np.abs(d) <= 1.0 / cutoff + slack]


def _check_modulus(
    alpha3: float, alpha2: float, Q3: int, Q2: int, q: int
) -> RationalApprox | None:
    """The approximation with modulus q if its nearest numerators qualify, else None."""
    a3 = _nearest_numerator(q, alpha3)
    a2 = _nearest_numerator(q, alpha2)
    if not _exact_torus_bound(alpha3, a3, q, Fraction(1, q * Q3)):
        return None
    if not _exact_torus_bound(alpha2, a2, q, Fraction(1, q * Q2)):
        return None
    if math.gcd(q, math.gcd(a3, a2)) != 1:
        raise InvariantError(f"unreduced fraction at minimal q = {q}: a = ({a3}, {a2})")
    return RationalApprox(q, a3, a2, _torus_theta(alpha3, a3, q), _torus_theta(alpha2, a2, q))


def simultaneous_approx(
    alpha3: float, alpha2: float, Q3: int, Q2: int, cap: int = DEFAULT_CAP
) -> RationalApprox:
    """Smallest q <= Q3 Q2 with |alpha_i - a_i/q| <= 1/(q Q_i) and coprime data.

    The moduli are screened Q_BLOCK at a time: a q stays a candidate while
    ||q alpha_i|| <= 1/Q_i + slack in both coordinates.  The float product
    q alpha_i is off by at most q 2^-53, which the slack 1e-9 + q_max 2^-50
    covers, so every q that passes the exact check is a candidate.  The
    candidates then go, in ascending order, through the exact verification.

    The scan screens no q beyond cap: if none up to cap qualifies while
    Q3 Q2 > cap, CapExceededError.  The worst case Q3 Q2 is not charged up
    front, since the smallest q of a random point averages about Q3 Q2 / 5.
    Existence is a pigeonhole guarantee; failure of a scan that reached
    Q3 Q2 indicates a bug, not bad input, and raises InvariantError.
    """
    if Q3 < 1 or Q2 < 1:
        raise ValueError("cutoffs must be positive integers")
    alpha3 = _normalize_unit(alpha3)
    alpha2 = _normalize_unit(alpha2)
    qmax = Q3 * Q2
    last = min(qmax, cap)
    for lo in range(1, last + 1, Q_BLOCK):
        hi = min(lo + Q_BLOCK - 1, last)
        slack = 1e-9 + hi * 2.0**-50
        qs = np.arange(lo, hi + 1, dtype=np.float64)
        qs = _screen(_screen(qs, alpha3, Q3, slack), alpha2, Q2, slack)
        for q in qs.tolist():
            approx = _check_modulus(alpha3, alpha2, Q3, Q2, int(q))
            if approx is not None:
                return approx
    if qmax > cap:
        raise CapExceededError(
            f"pigeonhole scan: no q <= {cap} qualifies, and Q3 Q2 = {qmax} exceeds cap {cap}"
        )
    raise InvariantError(
        "pigeonhole guarantee violated; simultaneous approximation scan is buggy"
    )


def grid_approx(
    points: list[tuple[float, float]], Q3: int, Q2: int, cap: int = DEFAULT_CAP
) -> Iterator[RationalApprox]:
    """simultaneous_approx of each grid point in turn, all scans within one cap.

    A point's scan screens the moduli up to its q, so each scan gets cap
    minus the q of the earlier points; when that is not enough,
    CapExceededError names the grid and the cap."""
    spent = 0
    for i, (alpha3, alpha2) in enumerate(points):
        try:
            approx = simultaneous_approx(alpha3, alpha2, Q3, Q2, cap=cap - spent)
        except CapExceededError:
            raise CapExceededError(
                f"grid of {len(points)} points: pigeonhole scans exceed cap {cap} in total "
                f"({spent} moduli screened by the first {i} points)"
            ) from None
        spent += approx.q
        yield approx


def major_arc_test(
    alpha3: float,
    alpha2: float,
    P: float,
    delta: float = DEFAULT_DELTA,
    cap: int = DEFAULT_CAP,
) -> tuple[bool, tuple[int, int, int] | None]:
    """Membership of (alpha3, alpha2) mod 1 in the union of major arcs.

    Scans all moduli q <= P^delta, charged to cap first; for each q only the
    nearest numerators can qualify since the arc half-widths are below
    1/(2q).  Returns the witness (q, a3, a2) of the first (smallest-q)
    containing arc.
    """
    qmax = _major_moduli(P, delta, cap)
    alpha3 = _normalize_unit(alpha3)
    alpha2 = _normalize_unit(alpha2)
    for q in range(1, qmax + 1):
        a3 = _nearest_numerator(q, alpha3)
        a2 = _nearest_numerator(q, alpha2)
        if math.gcd(q, math.gcd(a3, a2)) != 1:
            continue
        if abs(_torus_theta(alpha3, a3, q)) <= P ** (-3 + delta) and abs(
            _torus_theta(alpha2, a2, q)
        ) <= P ** (-2 + delta):
            return True, (q, a3, a2)
    return False, None


def major_arc_measure(P: float, delta: float = DEFAULT_DELTA, cap: int = DEFAULT_CAP) -> float:
    """Total area of the major arc boxes, ignoring overlap.

    Each coprime pair contributes a (2 P^{-3+delta}) x (2 P^{-2+delta}) box;
    the number of coprime numerator pairs mod q is the Jordan totient J_2(q).
    The moduli q <= P^delta are charged to cap first, and delta must lie in
    (0, 1/3), as for major_arc_test.
    """
    qmax = _major_moduli(P, delta, cap)
    pairs = sum(jordan_totient2(q) for q in range(1, qmax + 1))
    return pairs * 4.0 * P ** (-5 + 2 * delta)


def jittered_grid(k: int, seed: int, cap: int = DEFAULT_CAP) -> list[tuple[float, float]]:
    """One seeded uniform point (alpha3, alpha2) in each cell of the k x k grid
    on [0, 1)^2, row by row (alpha3 cell i, then alpha2 cell j).  The k^2
    points are charged to cap before the grid is built."""
    if k < 1:
        raise ValueError(f"grid must be a positive integer, got {k}")
    check_cap(k * k, cap, f"grid {k}^2")
    jitter = np.random.default_rng(seed).random((k, k, 2))
    return [
        ((i + jitter[i, j, 0]) / k, (j + jitter[i, j, 1]) / k)
        for i in range(k)
        for j in range(k)
    ]
