"""The one scan over residue vectors mod q, the p-adic lift that replaces it
mod p^k for k >= 2, and the CRT that builds composite moduli from prime powers.

Every residue scan goes through scan(): the grid {0, ..., q-1}^n is
traversed in chunks of flat indices; each chunk is decoded into coordinate
arrays, and forms.eval_cubic/eval_quadratic evaluate C and Q there with
coefficients replaced by their centred residues mod a modulus, q or a
multiple of it; each value is then reduced mod that modulus once.  This
runs in int64 when forms.int64_bound, the bound of the lattice side too,
allows it on [0, q-1]^n, and on Python-int object arrays otherwise (at the
default cap only for n = 1 and q above about 1.66 * 10^6), so every residue
is exact.

lift() serves the prime powers p^k, k >= 2: with j = ceil(k/2) it scans
the grid mod p^j, with values mod p^k, and hands each chunk the subgroup
of (Z/p^{k-j})^2 spanned by the Jacobian at each point (Span).  That is all
the residues mod p^k carry: p^{jn} evaluations stand for p^{kn}.  The
joint histogram mod p^k is built from it; the phase histogram with its
linear term m.y still scans the grid mod p^k.

crt_histograms() composes the histogram mod a composite q from those of
the prime powers exactly dividing it, each computed once, so no histogram
is scanned mod a composite q.

Consumers either aggregate chunk results with order-independent integer
operations (histograms, counts), take the first hit in grid order, or
concatenate the chunks back into the grid, so the outputs are exactly
deterministic regardless of chunking or thread count.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .forms import (INT64_LIMIT, CubicForm, FormPair, QuadraticForm, eval_cubic, eval_quadratic,
                    gradient_cubic, gradient_quadratic, int64_bound)
from .util import CapExceededError, DEFAULT_CAP, check_cap, chunk_ranges, factorize, parallel_map

__all__ = [
    "scan",
    "Span",
    "lift",
    "lift_points",
    "crt_histograms",
    "phase_histogram",
    "joint_histograms",
    "joint_histogram",
    "cubic_singular_points_mod_p",
]

CHUNK = 1 << 18

T = TypeVar("T")


def _decode(flat: np.ndarray, q: int, n: int) -> list[np.ndarray]:
    """Coordinate arrays (values in [0, q)) for flat indices in [0, q^n)."""
    return [(flat // q**j) % q for j in range(n)]


def _centred(pair: FormPair, q: int) -> FormPair:
    """The pair with each coefficient c replaced by (c + q//2) % q - q//2."""
    h = q // 2
    return FormPair(
        CubicForm(pair.n, {key: (c + h) % q - h for key, c in pair.cubic.monomials.items()}),
        QuadraticForm(pair.n, {key: (c + h) % q - h for key, c in pair.quadric.monomials.items()}),
    )


def scan(
    pair: FormPair,
    q: int,
    per_chunk: Callable[[list[np.ndarray], np.ndarray, np.ndarray], T],
    cap: int = DEFAULT_CAP,
    threads: int = 1,
    modulus: int | None = None,
) -> list[T]:
    """per_chunk(coords, C mod modulus, Q mod modulus) on each chunk of the residue grid mod q.

    modulus defaults to q; lift() passes a multiple of it.  The grid
    {0, ..., q-1}^n is cut into chunks of CHUNK flat indices (coordinate 1
    varies fastest); the results come back in grid order, so a caller that
    keeps the first hit of an ordered search gets the same answer for any
    thread count.
    """
    n = pair.n
    total = q**n
    if total > cap:
        raise CapExceededError(f"residue grid q^n = {q}^{n} = {total} exceeds cap {cap}")
    modulus = q if modulus is None else modulus

    reduced = _centred(pair, modulus)
    _, fits = int64_bound(reduced, [q - 1] * n)

    def work(rng: tuple[int, int]) -> T:
        coords = _decode(np.arange(*rng, dtype=np.int64), q, n)
        xs = coords if fits else [x.astype(object) for x in coords]
        # an empty form evaluates to the scalar 0, hence the broadcast
        c, qq = (np.broadcast_to(v % modulus, coords[0].shape).astype(np.int64)
                 for v in (eval_cubic(reduced.cubic, xs), eval_quadratic(reduced.quadric, xs)))
        return per_chunk(coords, c, qq)

    return parallel_map(work, chunk_ranges(0, total, CHUNK), threads)


def _valuation(z: np.ndarray, p: int, m: int) -> np.ndarray:
    """min(m, v_p(z)) elementwise, for z in [0, p^m)."""
    v = np.zeros(np.shape(z), dtype=np.int64)
    pt = 1
    for _ in range(m):
        pt *= p
        v += z % pt == 0
    return v


def _split(k: int) -> tuple[int, int]:
    """(j, m): level k is lifted from the grid mod p^j, j = ceil(k/2), m = k - j."""
    j = (k + 1) // 2
    return j, k - j


def lift_points(p: int, k: int, n: int) -> int:
    """Points evaluated for the residues mod p^k: p^{jn}, j = ceil(k/2) (p^n at k = 1)."""
    return p ** (_split(k)[0] * n)


class Span(NamedTuple):
    """The subgroup G_u of (Z/p^m)^2 spanned by the n columns of the Jacobian
    J(u) mod p^m, for each point u mod p^j of a chunk of lift() at level
    k = j + m, in Hermite normal form:

        G_u = <(p^ea, 0)> + <(gx, gy)>,  gy = p^ed w with w a unit mod p,

    or gx = gy = 0 and w = 1 where ed = m (every column has gy = 0).  The
    elements i (p^ea, 0) + t (gx, gy) with 0 <= i < p^(m-ea) and
    0 <= t < p^(m-ed) are distinct and exhaust G_u, so
    |G_u| = p^(2m - ea - ed).
    """

    p: int
    n: int
    j: int
    m: int
    ea: np.ndarray
    ed: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    w: np.ndarray

    def contains(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Whether (s, t), with entries in [0, p^m), lies in G_u.

        t must be t' gy for some t' mod p^(m-ed), which is t = 0 mod p^ed;
        then w s = (t / p^ed) gx mod p^ea, because p^ea divides
        p^(m-ed) gx, the first coordinate of p^(m-ed) (gx, gy).
        """
        d = np.power(self.p, self.ed)
        return (t % d == 0) & ((self.w * s - t // d * self.gx) % np.power(self.p, self.ea) == 0)

    def solves(self, c: np.ndarray, qq: np.ndarray) -> np.ndarray:
        """Whether (0, 0) mod p^k is among the values (C, Q)(u) + p^j G_u,
        for c, qq the values (C, Q)(u) mod p^k, both 0 mod p^j (the points
        lift passes on with zeros_only): whether -(C, Q)(u) / p^j lies in G_u."""
        pj, pm = self.p**self.j, self.p**self.m
        return self.contains(-(c // pj) % pm, -(qq // pj) % pm)

    def fibre(self) -> np.ndarray:
        """f such that each value of (C, Q)(u) + p^j G_u mod p^k is taken by
        p^f of the p^{mn} points over u: p^{mn} / |G_u| = p^(mn - 2m + ea + ed)."""
        return self.m * self.n - 2 * self.m + self.ea + self.ed


def _span(jac_c: list, jac_q: list, p: int, j: int, m: int, shape: tuple[int, ...]) -> Span:
    """The Span of the columns (jac_c[i], jac_q[i]) mod p^m, i = 1..n.

    The pivot is the first column whose second entry has the least
    valuation ed.  Eliminating that entry from every column by the pivot
    (times the units w and y_i / p^ed, so no inverse is needed), and from
    (0, p^m), leaves first coordinates whose least valuation is ea.
    """
    big = p**m
    xs = np.stack([np.broadcast_to(g % big, shape) for g in jac_c])
    ys = np.stack([np.broadcast_to(g % big, shape) for g in jac_q])
    vy = _valuation(ys, p, m)
    star = vy.argmin(axis=0)[None]
    ed = np.take_along_axis(vy, star, 0)[0]
    full = ed == m
    gx = np.where(full, 0, np.take_along_axis(xs, star, 0)[0])
    gy = np.where(full, 0, np.take_along_axis(ys, star, 0)[0])
    d = np.power(p, ed)
    w = np.where(full, 1, gy // d)
    cleared = _valuation((w * xs - ys // d * gx) % big, p, m).min(axis=0)
    ea = np.minimum(cleared, _valuation(big // d * gx % big, p, m))
    return Span(p, len(jac_c), j, m, ea, ed, gx, gy, w)


def lift(
    pair: FormPair,
    p: int,
    k: int,
    per_chunk: Callable[[list[np.ndarray], np.ndarray, np.ndarray, Span], T],
    zeros_only: bool = False,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> list[T]:
    """per_chunk(u, C(u) mod p^k, Q(u) mod p^k, span) on the chunks of the grid
    of u mod p^j, for k >= 2 with (j, m) = _split(k); span is the Span of
    J(u) mod p^m.

    Every y mod p^k is u + p^j v for one u mod p^j and one v mod p^m, and
    (C, Q)(u + p^j v) = (C, Q)(u) + p^j J(u) v mod p^k: the rest of the
    Taylor expansion has integer coefficients (also at p = 2: the quadratic
    term (1/2) v^T H v of an integer form is an integer) times p^{2j}.  So
    the p^{mn} points over u take the values (C, Q)(u) + p^j G_u, each
    p^span.fibre() times.  With zeros_only, only the points u with
    (C, Q)(u) = 0 mod p^j, the only ones over which a solution mod p^k can
    lie, are passed on, and the Jacobian is computed only there.  The scan
    mod p^j is charged to cap: lift_points(p, k, n) points.
    """
    n = pair.n
    j, m = _split(k)
    if p**k >= INT64_LIMIT:
        raise CapExceededError(f"residues mod {p}^{k} overflow int64")
    jac_pair = _centred(pair, p**m)
    # the bound at |x_i| <= max(p^j - 1, 3) majorizes the gradients too
    # (3 |c| x^2 <= |c| M^3 and 2 |c| x <= |c| M^2 for M >= max(x, 3)), and
    # the span multiplies two residues mod p^m
    _, fits = int64_bound(jac_pair, [max(p**j - 1, 3)] * n)
    fits = fits and p ** (2 * m) < INT64_LIMIT
    pj = p**j

    def chunk(coords, c, qq):
        if zeros_only:
            idx = np.flatnonzero((c % pj == 0) & (qq % pj == 0))
            coords, c, qq = [x[idx] for x in coords], c[idx], qq[idx]
        xs = coords if fits else [x.astype(object) for x in coords]
        jac_c = gradient_cubic(jac_pair.cubic, xs)
        jac_q = gradient_quadratic(jac_pair.quadric, xs)
        return per_chunk(coords, c, qq, _span(jac_c, jac_q, p, j, m, c.shape))

    return scan(pair, pj, chunk, cap, threads, modulus=p**k)


def crt_histograms(
    n: int,
    moduli: Sequence[int],
    ndim: int,
    prime_power: Callable[[int, int], np.ndarray],
    cost: Callable[[int, int], int],
    cap: int = DEFAULT_CAP,
) -> Iterator[tuple[int, np.ndarray]]:
    """(q, H_q) for each q in moduli, composed from prime-power histograms.

    prime_power(p, e) is the int64 histogram mod p^e, of shape (p^e,)*ndim,
    of a quantity that is a fixed integer polynomial of y mod p^e in n
    variables (both forms, or one phase a3 C + a2 Q + m.y); it is called
    once per prime power p^e exactly dividing some modulus, and cost(p, e),
    the points it evaluates, is charged to cap for all of them up front.
    Before that, and before any modulus is factorized, the largest
    histogram, max(moduli)^ndim cells, is charged to cap on its own, so a
    modulus too large to hold is refused at once, however smooth it is.
    For coprime r, s the CRT gives H_{rs}[t] = H_r[t mod r] H_s[t mod s]
    along every axis, with the same polynomial on both sides, so composite
    H_q are exact integer products of their prime-power parts.
    """
    largest = max(moduli, default=1)
    check_cap(largest**ndim, cap, f"histogram mod {largest} of {largest}^{ndim} cells")
    factors = {q: factorize(q) for q in moduli}
    prime_powers = {pe for parts in factors.values() for pe in parts}
    work = sum(cost(p, e) for p, e in prime_powers)
    check_cap(work, cap, f"residue grids mod {len(prime_powers)} prime powers")
    too_big = [q for q in factors if q**n > np.iinfo(np.int64).max]
    if too_big:
        raise CapExceededError(f"counts mod {too_big[0]} in {n} variables overflow int64")
    done: dict[tuple[int, int], np.ndarray] = {}
    for q in moduli:
        hist, r = np.ones((1,) * ndim, dtype=np.int64), 1
        for p, e in factors[q]:
            if (p, e) not in done:
                done[p, e] = prime_power(p, e)
            s = p**e
            idx = np.arange(r * s)
            hist = hist[np.ix_(*[idx % r] * ndim)] * done[p, e][np.ix_(*[idx % s] * ndim)]
            r *= s
        yield q, hist


def phase_histogram(
    pair: FormPair,
    q: int,
    a3: int,
    a2: int,
    m: Sequence[int],
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> np.ndarray:
    """Histogram over t in [0, q) of a3 C(y) + a2 Q(y) + m.y mod q, y mod q.

    Each prime power p^e exactly dividing q is scanned, p^{en} points, and
    the histogram mod q is their CRT product.
    """

    def scanned(p: int, e: int) -> np.ndarray:
        pe = p**e

        def per_chunk(coords, c, qq):
            t = ((a3 % pe) * c + (a2 % pe) * qq + sum((mi % pe) * y for mi, y in zip(m, coords))) % pe
            return np.bincount(t, minlength=pe)

        return np.sum(scan(pair, pe, per_chunk, cap, threads), axis=0)

    n = pair.n
    ((_, hist),) = crt_histograms(n, [q], 1, scanned, lambda p, e: p ** (e * n), cap)
    return hist


def _joint_prime_power(pair: FormPair, p: int, k: int, cap: int, threads: int) -> np.ndarray:
    """p^k x p^k histogram of (C(y) mod p^k, Q(y) mod p^k) over all y mod p^k.

    k = 1 is a scan mod p.  For k >= 2 each point u of lift() adds
    p^{mn} / |G_u| to every cell of (C(u), Q(u)) + p^j G_u: the points of a
    chunk are grouped by (ea, ed), each group is spread along t (gx, gy) for
    t < p^(m-ed), and then summed along the first axis with period
    p^(j+ea), which spreads it over i (p^ea, 0).
    """
    pk = p**k

    def per_chunk_level_one(coords, c, qq):
        return np.bincount(c * pk + qq, minlength=pk * pk)

    if k == 1:
        return np.sum(scan(pair, p, per_chunk_level_one, cap, threads), axis=0).reshape(p, p)
    def per_chunk(coords, c, qq, span):
        pj = p**span.j
        hist = np.zeros(pk * pk, dtype=np.int64)
        fibre = span.fibre()
        for ea, ed in set(zip(span.ea.tolist(), span.ed.tolist())):
            sel = (span.ea == ea) & (span.ed == ed)
            cs, rs, gx, gy = c[sel], qq[sel], span.gx[sel], span.gy[sel]
            part = np.zeros(pk * pk, dtype=np.int64)
            for t in range(p ** (span.m - ed)):
                cell = (cs + pj * t * gx) % pk * pk + (rs + pj * t * gy) % pk
                part += np.bincount(cell.astype(np.int64), minlength=pk * pk)
            period = pj * p**ea
            folded = part.reshape(pk // period, period * pk).sum(axis=0)
            hist += p ** int(fibre[sel][0]) * np.tile(folded, pk // period)
        return hist

    return np.sum(lift(pair, p, k, per_chunk, cap=cap, threads=threads), axis=0).reshape(pk, pk)


def joint_histograms(
    pair: FormPair, moduli: Sequence[int], cap: int = DEFAULT_CAP, threads: int = 1
) -> Iterator[tuple[int, np.ndarray]]:
    """(q, H_q) for each q in moduli, H_q[c, r] = #{y mod q : C(y) = c, Q(y) = r mod q}.

    Each prime power p^e exactly dividing some modulus is computed once, from
    lift_points(p, e, n) points (a scan mod p, or lift()); cap is charged
    their sum up front, and composite H_q are CRT products (crt_histograms).
    """
    n = pair.n

    def prime_power(p: int, e: int) -> np.ndarray:
        return _joint_prime_power(pair, p, e, cap, threads)

    return crt_histograms(n, moduli, 2, prime_power, lambda p, e: lift_points(p, e, n), cap)


def joint_histogram(
    pair: FormPair, q: int, cap: int = DEFAULT_CAP, threads: int = 1
) -> np.ndarray:
    """q x q histogram of (C(y) mod q, Q(y) mod q) over all y mod q (joint_histograms)."""
    ((_, hist),) = joint_histograms(pair, [q], cap, threads)
    return hist


def cubic_singular_points_mod_p(
    cubic: CubicForm,
    primes: Sequence[int] = (2, 3, 5),
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> dict[int, tuple[int, ...] | None]:
    """Sanity scan for nonzero x mod p with C(x) = 0 and grad C(x) = 0 mod p.

    For each p the lexicographically smallest such x is reported (x_1 most
    significant), or None.  A hit does not disprove nonsingularity over Q,
    but flags the assertion as suspect.  Primes with p^n > cap are skipped.
    """
    n = cubic.n
    findings: dict[int, tuple[int, ...] | None] = {}
    for p in primes:
        if p**n > cap:
            continue
        pair = _centred(FormPair(cubic, QuadraticForm(n, {})), p)
        # a gradient entry is at most 3/(p-1) times the bound on C (and tiny for
        # p <= 3), so it is exact in int64 wherever C is
        _, fits = int64_bound(pair, [p - 1] * n)

        def per_chunk(coords, c, qq):
            hit = (c == 0) & np.any([x != 0 for x in coords], axis=0)
            xs = coords if fits else [x.astype(object) for x in coords]
            for g in gradient_cubic(pair.cubic, xs):
                hit &= g % p == 0
            idx = np.flatnonzero(hit)
            if idx.size == 0:
                return None
            first = idx[np.lexsort([x[idx] for x in reversed(coords)])[0]]
            return tuple(int(x[first]) for x in coords)

        hits = [h for h in scan(pair, p, per_chunk, cap, threads) if h is not None]
        findings[p] = min(hits, default=None)
    return findings
