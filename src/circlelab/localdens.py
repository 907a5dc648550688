"""p-adic densities, Q_p solubility certificates, and the truncated singular series.

Densities are normalized by p^{k(n-2)} (two equations in n variables):
delta_p(k) = N(p^k) / p^{k(n-2)} for the full count N.  The full count
always picks up extra mass from vectors divisible by p, so the quantity
that actually stabilizes under smooth reduction is the primitive density
delta*_p(k) = N*(p^k) / p^{k(n-2)}, where N* counts solutions with some
unit coordinate: every smooth primitive solution mod p lifts to exactly
p^{n-2} solutions mod p^{k+1}, making delta* constant from k = 1 on.
Both are reported; stabilization is judged on the primitive density.
Each level k >= 2 of hensel_stable comes from p^{ceil(k/2) n} points by the
p-adic lift of gridsum.lift; level 1 and the first smooth solution mod p,
the certificate of a Q_p point, are read off the lift to level 2.

The truncated singular series is

    S(R) = sum_{q <= R} q^{-n} sum*_{a mod q} S(a, q),

with the inner sum over pairs (a3, a2) coprime to q as a pair; its p-part
partial sums reproduce delta_p(k) exactly, which the tests exploit as a
cross-check between complete sums and residue counts.  All S(a, q) come
from the joint histogram of (C mod q, Q mod q) (gridsum.joint_histograms):
each prime is computed once, at its top power p^K <= R, as the exact 2-D
cyclic convolution of the histograms of the separable blocks of variables,
each block lifted in its own variables (a pair of one block is lifted
whole); every lower p^e is folded off it, and the histogram of a composite
q is the exact CRT product of its prime-power parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .forms import (
    FormPair,
    QuadraticForm,
    eval_cubic,
    eval_quadratic,
    gradient_cubic,
    gradient_quadratic,
    jacobian_minors,
)
from .gridsum import joint_histogram, joint_histograms, lift
from .util import CapExceededError, DEFAULT_CAP, InvariantError, factorize, is_prime

__all__ = [
    "hensel_stable",
    "HenselReport",
    "singular_series_truncated",
    "SeriesResult",
    "a_of_q",
    "q_factorization",
    "SolubilityReport",
]


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")


@dataclass(frozen=True)
class SolubilityReport:
    """The Q_p certificate search of a HenselReport, which holds p; the
    search is partial exactly when the report reached no level.  `local`
    prints the fields in the order they are declared."""

    verdict: str  # smooth_liftable | only_singular | none_found
    point: tuple[int, ...] | None
    level: int
    solutions_mod_p: int


@dataclass(frozen=True)
class HenselReport:
    p: int
    kmax: int
    reached: int
    stable: bool
    level: int | None
    densities: tuple[Fraction, ...]
    primitive_densities: tuple[Fraction, ...]
    partial: bool
    solubility: SolubilityReport


def _lifted_level(
    pair: FormPair, p: int, k: int, cap: int, threads: int
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, ...] | None]:
    """((N(p^k), N*(p^k)), (N(p^j), N*(p^j)), certificate) for k >= 2 from
    one gridsum.lift, whose points u are the solutions mod p^j.

    Over each u the points mod p^k take the values (C, Q)(u) + p^j G_u;
    when these hold (0, 0) (Span.solves), p^fibre of them are solutions,
    primitive exactly when u is.  The certificate is the first primitive u
    in grid order (the same for any thread count) with ea = ed = 0, or
    None: at k = 2, a solution mod p whose Jacobian has rank 2 mod p.
    """

    def per_chunk(coords, cvals, qvals, span):
        prim = np.any([y % p != 0 for y in coords], axis=0)
        hit = span.solves(cvals, qvals)
        fibre = span.fibre()
        # exact Python ints: the sum over f of (number of u with fibre f) p^f
        lifted = tuple(
            sum(int(c) * p**f for f, c in enumerate(np.bincount(fibre[sel]))) for sel in (hit, hit & prim)
        )
        smooth = np.flatnonzero(prim & (span.ea == 0) & (span.ed == 0))
        cert = tuple(int(y[smooth[0]]) for y in coords) if smooth.size else None
        return lifted, (prim.size, int(np.count_nonzero(prim))), cert

    parts = lift(pair, p, k, per_chunk, zeros_only=True, cap=cap, threads=threads)
    lifted, base, certs = zip(*parts)
    return (
        tuple(map(sum, zip(*lifted))),
        tuple(map(sum, zip(*base))),
        next((x for x in certs if x is not None), None),
    )


def hensel_stable(
    pair: FormPair, p: int, kmax: int, cap: int = DEFAULT_CAP, threads: int = 1
) -> HenselReport:
    """Track delta_p(k) and delta*_p(k) for k = 1..kmax, flag stabilization,
    and search for a certificate of a Q_p point on C = Q = 0.

    Level k >= 2 is lifted from the grid mod p^ceil(k/2) (_lifted_level),
    and level 1 is read off the lift to level 2, which runs for every kmax;
    each counts all solutions and the primitive ones (some coordinate a
    unit mod p).  stable is True when the primitive density is constant
    from some level k* < reached onward; the full density is reported
    alongside but never stabilizes at finite level (imprimitive vectors
    keep feeding it).  The lift to level k is charged
    gridsum.lift_points(p, k, n); if the cap cuts the levels short, or the
    lift refuses p (p^2 >= 2^62), the report is marked partial.

    The lift to level 2 also yields the solubility report: the first
    primitive solution mod p in grid order whose Jacobian has rank 2 mod p
    is a smooth point, Hensel-lifted to mod p^min(kmax, 3) and returned as
    a certificate.  If there are solutions but none smooth (the zero vector
    always solves, with rank-0 Jacobian) the verdict is only_singular.
    none_found is only reachable when the lift to level 2 is refused, which
    leaves the report partial at reached = 0; it is never a proof of
    insolubility.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    _require_prime(p)
    counts: list[tuple[int, int]] = []
    partial = False
    n_mod_p, smooth = 0, None
    for k in range(2, max(kmax, 2) + 1):
        try:
            level_k, level_j, cert = _lifted_level(pair, p, k, cap, threads)
        except CapExceededError:
            partial = True
            break
        if k == 2:
            counts.append(level_j)
            n_mod_p, smooth = level_j[0], cert
        counts.append(level_k)
    counts = counts[:kmax]
    reached = len(counts)
    dens, prim = (
        [Fraction(c[i]) / Fraction(p) ** (k * (pair.n - 2)) for k, c in enumerate(counts, 1)]
        for i in (0, 1)
    )
    level = None
    stable = False
    # a zero primitive density is vacuously constant but certifies nothing
    if reached >= 2 and prim[reached - 1] > 0:
        k_star = reached
        while k_star > 1 and prim[k_star - 2] == prim[reached - 1]:
            k_star -= 1
        if k_star < reached:
            stable = True
            level = k_star
    if smooth is None:
        verdict, lift, point = ("only_singular" if n_mod_p else "none_found"), 1, None
    else:
        lift = min(kmax, 3)
        verdict, point = "smooth_liftable", _hensel_lift(pair, smooth, p, lift)
    sol = SolubilityReport(verdict, point, lift, n_mod_p)
    return HenselReport(
        p, kmax, reached, stable, level, tuple(dens), tuple(prim), partial, sol
    )


def _coprime_pair_mask(q: int) -> np.ndarray:
    """q x q boolean mask of (a3, a2) indices coprime to q as a pair."""
    g = np.gcd.outer(np.arange(q), np.arange(q))
    return np.gcd(g, q) == 1


def _complete_sums(hist: np.ndarray) -> np.ndarray:
    """S(a, q) for all numerator pairs a mod q from the joint histogram H_q."""
    q = hist.shape[0]
    # sum_{c,r} H[c,r] e_q(a3 c + a2 r) for all (a3, a2)
    return q * q * np.fft.ifft2(hist)


@dataclass(frozen=True)
class SeriesResult:
    R: int
    value: float
    terms: tuple[tuple[int, float], ...]
    imag_residual: float
    a_values: tuple[tuple[int, float], ...]


def singular_series_truncated(
    pair: FormPair, R: int, cap: int = DEFAULT_CAP, threads: int = 1
) -> SeriesResult:
    """S(R) with its per-q trace of the terms T(q) and of A(q).

    Raises ValueError unless R is a positive integer, and InvariantError if
    the imaginary parts of the terms do not cancel.
    """
    if R < 1 or R != int(R):
        raise ValueError("R must be a positive integer")
    n = pair.n
    terms = []
    a_values = []
    real_acc = 0.0
    imag_acc = 0.0
    for q, hist in joint_histograms(pair, range(1, int(R) + 1), cap=cap, threads=threads):
        masked = _complete_sums(hist)[_coprime_pair_mask(q)]
        term = complex(masked.sum()) / q**n
        real_acc += term.real
        imag_acc += term.imag
        terms.append((q, term.real))
        a_values.append((q, float(np.abs(masked).sum())))
    imag_residual = abs(imag_acc)
    if not imag_residual < 1e-9:
        raise InvariantError(f"singular series picked up imaginary mass {imag_acc}")
    return SeriesResult(int(R), real_acc, tuple(terms), imag_residual, tuple(a_values))


def a_of_q(pair: FormPair, q: int, cap: int = DEFAULT_CAP, threads: int = 1) -> float:
    """A(q) = sum over coprime pairs a of |S(a, q)|; computes only the prime powers of q."""
    hist = joint_histogram(pair, q, cap=cap, threads=threads)
    return float(np.abs(_complete_sums(hist)[_coprime_pair_mask(q)]).sum())


def q_factorization(q: int, a3: int, quadric: QuadraticForm) -> tuple[int, int, int]:
    """Split q = q0 q1 q2 by the interaction of a3 with the quadric's diagonal.

    For each prime p let p^v be the largest power dividing any of
    2 d_1, ..., 2 d_{n-1}.  Primes p^e || q with p^{1+v} | a3 go to q0; of
    the rest, cube-full parts (e >= 3) go to q2 and the cube-free remainder
    is q1.  Requires a diagonal quadric with nonzero d_1..d_{n-1}.
    """
    if not quadric.is_diagonal:
        raise ValueError("q factorization requires a diagonal quadratic form")
    diag = quadric.diagonal()[: quadric.n - 1]
    if any(d == 0 for d in diag):
        raise ValueError("diagonal coefficients d_1..d_{n-1} must be nonzero")
    q0 = q1 = q2 = 1
    for p, e in factorize(q):
        v = 0
        for d in diag:
            t = 2 * abs(d)
            vp = 0
            while t % p == 0:
                t //= p
                vp += 1
            v = max(v, vp)
        if a3 % p ** (1 + v) == 0:
            q0 *= p**e
        elif e >= 3:
            q2 *= p**e
        else:
            q1 *= p**e
    return q0, q1, q2


def _hensel_lift(pair: FormPair, x: Sequence[int], p: int, kmax: int) -> tuple[int, ...]:
    """Lift a smooth solution mod p to a solution mod p^kmax (Newton steps).

    The steps move only x_i and x_j, for the first pair i < j (in
    jacobian_minors order) whose 2x2 minor is a unit mod p; every other
    coordinate stays fixed.  Each step solves for (delta_i, delta_j) by
    Cramer's rule mod p with the inverse of that minor, taken once: x only
    moves by multiples of p, so its gradients and minors mod p never change.
    Raises InvariantError when no minor is a unit or a step leaves a
    non-solution.
    """
    x = [int(v) % p for v in x]
    minors = zip(itertools.combinations(range(pair.n), 2), jacobian_minors(pair, x))
    unit = next(((ij, m) for ij, m in minors if m % p), None)
    if unit is None:
        raise InvariantError(f"Hensel lift needs a Jacobian minor that is a unit mod {p}")
    (i, j), minor = unit
    inv = pow(minor, -1, p)
    gc = gradient_cubic(pair.cubic, x)
    gq = gradient_quadratic(pair.quadric, x)
    for k in range(1, kmax):
        pk = p**k
        fc = eval_cubic(pair.cubic, x)
        fq = eval_quadratic(pair.quadric, x)
        if fc % pk or fq % pk:
            raise InvariantError(f"Hensel lift left a non-solution mod {p}^{k}")
        # gc_i d_i + gc_j d_j = -fc / p^k and gq_i d_i + gq_j d_j = -fq / p^k mod p
        bc, bq = -(fc // pk), -(fq // pk)
        x[i] += pk * ((bc * gq[j] - gc[j] * bq) * inv % p)
        x[j] += pk * ((gc[i] * bq - bc * gq[i]) * inv % p)
    return tuple(x)
