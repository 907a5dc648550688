"""The one scan over residue vectors mod q, the p-adic lift that replaces it
mod p^k for k >= 2, and the CRT that builds composite moduli from prime powers.

Every residue scan goes through scan(): the grid {0, ..., q-1}^n is
traversed in chunks of contiguous flat indices, each a tensor block whose
first coordinates run over whole axes, so only the outer index is decoded;
forms.eval_cubic/eval_quadratic evaluate C and Q on the broadcast axes with
coefficients replaced by their centred residues mod a modulus, q or a
multiple of it; each value is then reduced mod that modulus once.  This
runs in int64 when forms.int64_bound, the bound of the lattice side too,
allows it on [0, q-1]^n, and on Python-int object arrays otherwise (at the
default cap only for n = 1 and q above about 1.66 * 10^6), so every residue
is exact.

The joint histogram mod a prime p is a count of lines: C(lam y) =
lam^3 C(y) and Q(lam y) = lam^2 Q(y), so scan(lines=True) visits one point
per line through the origin, the (p^n - 1)/(p - 1) vectors whose last
nonzero coordinate is 1, and _scaling_orbits spreads their histogram
exactly over the orbits of F_p^* on (C, Q) in O(p^2).  The line histogram
G has G[0, 0] = #V(F_p), for V the projective variety C = Q = 0 over F_p,
and the histogram of the grid has 1 + (p - 1) #V(F_p) there.

lift() serves the prime powers p^k, k >= 2: with j = ceil(k/2) it scans
the grid mod p^j, with values mod p^k, and hands each chunk the subgroup
of (Z/p^{k-j})^2 spanned by the Jacobian at each point (Span).  That is all
the residues mod p^k carry: p^{jn} evaluations stand for p^{kn}.  The
joint histogram mod p^k is built from it; the phase histogram with its
linear term m.y still scans the grid mod p^k.  lift() is the one place
that evaluates Jacobians on a residue grid, for localdens and info too.

crt_histograms() computes one histogram per prime p, at its top power p^K
among the moduli, folds every lower p^e off it, and composes the histogram
mod a composite q from those of the prime powers exactly dividing it, so no
histogram is scanned mod a composite q or below a top power.
joint_histograms() builds the histogram mod p^K of a pair with several
forms.separable_blocks as the exact 2-D cyclic convolution of the blocks'
own histograms, each line-scanned or lifted in the block's own variables;
reduction mod p^e commutes with the convolution, so only p^K is convolved.

Consumers either aggregate chunk results with order-independent integer
operations (histograms, counts), take the first hit in grid order, or
concatenate the chunks back into the grid, so the outputs are exactly
deterministic regardless of chunking or thread count.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .forms import (INT64_LIMIT, CubicForm, FormPair, QuadraticForm, block_pair, eval_cubic,
                    eval_quadratic, gradient_cubic, gradient_quadratic, int64_bound, separable_blocks)
from .util import CapExceededError, DEFAULT_CAP, check_cap, chunk_ranges, factorize, parallel_map

__all__ = [
    "scan",
    "Span",
    "lift",
    "lift_points",
    "line_points",
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
    lines: bool = False,
) -> list[T]:
    """per_chunk(coords, C mod modulus, Q mod modulus) on each chunk of the residue grid mod q.

    modulus defaults to q; lift() passes a multiple of it.  The grid
    {0, ..., q-1}^n is cut into contiguous ranges of flat indices
    (coordinate 1 varies fastest) of at most CHUNK points; the results come
    back in grid order, so a caller that keeps the first hit of an ordered
    search gets the same answer for any thread count.

    Each chunk is a tensor block: the first k coordinates run over whole
    axes, k the largest with q^k <= CHUNK, and the chunk holds CHUNK // q^k
    values of the outer index, the only part decoded from flat indices.  C
    and Q are evaluated on broadcast axes, so a monomial of the inner
    coordinates is computed on q^k values and one of the outer ones on a
    value per outer index; k = 0 decodes every point.

    With lines, only the line_points(q, n) vectors whose last nonzero
    coordinate is 1 are visited, one per line through the origin when q is
    prime: the flat ranges [q^(i-1), 2 q^(i-1)), i = 1..n, in that order,
    each cut into tensor blocks of its first min(i - 1, k) axes.  Those
    points are what is charged to cap.
    """
    n = pair.n
    total = line_points(q, n) if lines else q**n
    if total > cap:
        what = f"line scan mod {q}: ({q}^{n} - 1)/({q} - 1)" if lines else f"residue grid q^n = {q}^{n}"
        raise CapExceededError(f"{what} = {total} exceeds cap {cap}")
    modulus = q if modulus is None else modulus

    reduced = _centred(pair, modulus)
    _, fits = int64_bound(reduced, [q - 1] * n)
    k = 0
    while k < n and q ** (k + 1) <= CHUNK:
        k += 1
    # (inner axes a, outer range): the outer index decodes to x_{a+1}, ...,
    # x_n, and with a = min(i, k) the range [q^(i-a), 2 q^(i-a)) is
    # x_{i+1} = 1 after i free coordinates
    if lines:
        pieces = [(min(i, k), q ** max(i - k, 0), 2 * q ** max(i - k, 0)) for i in range(n)]
    else:
        pieces = [(k, 0, q ** (n - k))]
    tasks = [(a, rng) for a, lo, hi in pieces for rng in chunk_ranges(lo, hi, CHUNK // q**a)]
    # a chunk with a inner axes is a C-order array of shape (outer, x_a, ..., x_1)
    inner = [np.arange(q, dtype=np.int64).reshape((-1,) + (1,) * i) for i in range(k)]

    def work(task: tuple[int, tuple[int, int]]) -> T:
        a, rng = task
        outer = np.arange(*rng, dtype=np.int64).reshape((-1,) + (1,) * a)
        axes = inner[:a] + _decode(outer, q, n - a)
        shape = (rng[1] - rng[0],) + (q,) * a
        xs = axes if fits else [x.astype(object) for x in axes]

        def flat(v, mod: int | None = None) -> np.ndarray:
            # v broadcast to the chunk (an empty form evaluates to the scalar
            # 0), reduced mod mod on the way when given
            out = np.empty(shape, dtype=np.int64)
            if mod is None:
                out[...] = v
            else:
                np.remainder(v, mod, out=out, casting="unsafe")
            return out.reshape(-1)

        c = flat(eval_cubic(reduced.cubic, xs), modulus)
        qq = flat(eval_quadratic(reduced.quadric, xs), modulus)
        return per_chunk([flat(x) for x in axes], c, qq)

    # a scan of at most CHUNK points is one chunk, or one per range of a
    # line scan: too little work to start a thread pool for
    return parallel_map(work, tasks, threads if total > CHUNK else 1)


def line_points(p: int, n: int) -> int:
    """Points of a line scan mod p >= 2 in n variables: (p^n - 1)/(p - 1)."""
    return (p**n - 1) // (p - 1)


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

    def solves(self, c: np.ndarray, qq: np.ndarray) -> np.ndarray:
        """Whether (0, 0) mod p^k is among the values (C, Q)(u) + p^j G_u,
        for c, qq the values (C, Q)(u) mod p^k, both 0 mod p^j (the points
        lift passes on with zeros_only): whether (s, t) = -(C, Q)(u) / p^j
        mod p^m lies in G_u.

        t must be t' gy for some t' mod p^(m-ed), which is t = 0 mod p^ed;
        then w s = (t / p^ed) gx mod p^ea, because p^ea divides
        p^(m-ed) gx, the first coordinate of p^(m-ed) (gx, gy).
        """
        pj, pm = self.p**self.j, self.p**self.m
        s, t = -(c // pj) % pm, -(qq // pj) % pm
        d = np.power(self.p, self.ed)
        return (t % d == 0) & ((self.w * s - t // d * self.gx) % np.power(self.p, self.ea) == 0)

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
    """(q, H_q) for each q in moduli, composed from one histogram per prime.

    prime_power(p, e) is the int64 histogram mod p^e, of shape (p^e,)*ndim,
    of a quantity that is a fixed integer polynomial f of y mod p^e in n
    variables (both forms, or one phase a3 C + a2 Q + m.y).  It is called
    once per prime p dividing some modulus, at its top power p^K, K the
    largest e with p^e exactly dividing a modulus, and cost(p, K), the
    points it evaluates, is charged to cap for all primes up front.  Before
    that, and before any modulus is factorized, the largest histogram,
    max(moduli)^ndim cells, is charged to cap on its own, so a modulus too
    large to hold is refused at once, however smooth it is.

    Every lower H_{p^e} is the fold of H_{p^K}: f(y) mod p^e depends on y
    only mod p^e, and each y mod p^e has p^{(K-e)n} lifts mod p^K, so the
    sum of H_{p^K} over the p^{K-e} cells above each cell mod p^e, along
    every axis, is p^{(K-e)n} H_{p^e}[t], and the division is exact.  For
    coprime r, s the CRT gives H_{rs}[t] = H_r[t mod r] H_s[t mod s] along
    every axis, with the same polynomial on both sides, so composite H_q
    are exact integer products of their prime-power parts.
    """
    largest = max(moduli, default=1)
    check_cap(largest**ndim, cap, f"histogram mod {largest} of {largest}^{ndim} cells")
    factors = {q: factorize(q) for q in moduli}
    top: dict[int, int] = {}
    for parts in factors.values():
        for p, e in parts:
            top[p] = max(e, top.get(p, 0))
    work = sum(cost(p, k) for p, k in top.items())
    check_cap(work, cap, f"residue grids mod {len(top)} prime powers")
    too_big = [q for q in factors if q**n > np.iinfo(np.int64).max]
    if too_big:
        raise CapExceededError(f"counts mod {too_big[0]} in {n} variables overflow int64")
    done: dict[tuple[int, int], np.ndarray] = {}

    def power(p: int, e: int) -> np.ndarray:
        k = top[p]
        if (p, k) not in done:
            done[p, k] = prime_power(p, k)
        if (p, e) not in done:
            # axis t = a p^e + b of the histogram mod p^k becomes the axes (a, b)
            r = p ** (k - e)
            folded = done[p, k].reshape((r, p**e) * ndim).sum(axis=tuple(range(0, 2 * ndim, 2)))
            done[p, e] = folded // r**n
        return done[p, e]

    for q in moduli:
        hist, r = np.ones((1,) * ndim, dtype=np.int64), 1
        for p, e in factors[q]:
            s = p**e
            idx = np.arange(r * s)
            hist = hist[np.ix_(*[idx % r] * ndim)] * power(p, e)[np.ix_(*[idx % s] * ndim)]
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


def _line_histogram(pair: FormPair, p: int, cap: int, threads: int) -> np.ndarray:
    """The p x p histogram G of (C, Q) mod p over the line_points(p, n)
    vectors whose last nonzero coordinate is 1 (scan(lines=True))."""

    def per_chunk(coords, c, qq):
        return np.bincount(c * p + qq, minlength=p * p)

    return np.sum(scan(pair, p, per_chunk, cap, threads, lines=True), axis=0).reshape(p, p)


def _lifted_histogram(pair: FormPair, p: int, k: int, cap: int, threads: int) -> np.ndarray:
    """p^k x p^k histogram of (C(y) mod p^k, Q(y) mod p^k) over all y mod p^k, k >= 2.

    Each point u of lift() adds p^{mn} / |G_u| to every cell of
    (C(u), Q(u)) + p^j G_u: the points of a chunk are grouped by (ea, ed),
    each group is spread along t (gx, gy) for t < p^(m-ed), and then summed
    along the first axis with period p^(j+ea), which spreads it over
    i (p^ea, 0).
    """
    pk = p**k

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


def _primitive_root(p: int) -> int:
    """The least generator of F_p^* (1 at p = 2)."""
    factors = [ell for ell, _ in factorize(p - 1)]
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in factors))


def _scaling_orbits(p: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map from G, the line histogram of (C, Q) mod p (_line_histogram),
    to H, the p x p histogram over all y mod p.  Its tables depend on p
    alone, so one map serves every block of a pair.

    Every y != 0 is lam u for one line point u and one lam in F_p^*, and
    (C, Q)(lam u) = (lam^3 C(u), lam^2 Q(u)), so H[x] = [x = 0] +
    sum_lam G[lam^-1 . x] under the action lam . (c, r) = (lam^3 c, lam^2 r),
    which is |Stab(x)| times the sum of G over the orbit of x.  With
    c = g^a, r = g^b for a generator g: the orbit of (0, 0) is itself,
    stabilized by all p - 1; on the c axis the orbits are a mod d3 =
    gcd(3, p - 1), each stabilized by d3, and on the r axis b mod d2 =
    gcd(2, p - 1); off the axes 2a - 3b mod p - 1 labels the orbit, and
    each is free.  So H costs O(p^2) int64 operations.
    """
    g = _primitive_root(p)
    power = np.array([pow(g, t, p) for t in range(p - 1)], dtype=np.int64)
    log = np.zeros(p, dtype=np.int64)
    log[power] = np.arange(p - 1)
    d3, d2 = math.gcd(3, p - 1), math.gcd(2, p - 1)
    axis_c, axis_r = log[1:] % d3, log[1:] % d2
    # the orbit of label L is {(g^(3t - L), g^(2t - L)) : t mod p - 1}
    t = np.arange(p - 1)
    orbit_c, orbit_r = power[(3 * t - t[:, None]) % (p - 1)], power[(2 * t - t[:, None]) % (p - 1)]
    label = (2 * log[1:, None] - 3 * log[1:]) % (p - 1)

    def spread(lines: np.ndarray) -> np.ndarray:
        hist = np.empty((p, p), dtype=np.int64)
        hist[0, 0] = 1 + (p - 1) * lines[0, 0]
        hist[1:, 0] = d3 * lines[power, 0].reshape(-1, d3).sum(axis=0)[axis_c]
        hist[0, 1:] = d2 * lines[0, power].reshape(-1, d2).sum(axis=0)[axis_r]
        hist[1:, 1:] = lines[orbit_c, orbit_r].sum(axis=1)[label]
        return hist

    return spread


def _convolution_cost(p: int, e: int, sizes: Sequence[int]) -> int:
    """A bound on the cells that _convolve touches to combine the histograms
    mod p^e of blocks of these sizes, in this order: each block after the
    first adds one p^e x p^e copy of the running histogram per nonzero cell
    of its own, of which it has at most min(p^{2e}, p^{e |b|})."""
    s = p**e
    return sum(min(s * s, s**b) * s * s for b in sizes[1:])


def _convolve(acc: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """The exact 2-D cyclic convolution of two s x s int64 histograms:
    out[x, y] = sum of hist[i, j] acc[x - i, y - j], indices mod s, as one
    shifted copy of acc per nonzero cell of hist."""
    s = len(acc)
    tiled = np.tile(acc, (2, 2))
    out = np.zeros_like(acc)
    for i, j in zip(*np.nonzero(hist)):
        out += hist[i, j] * tiled[s - i:2 * s - i, s - j:2 * s - j]
    return out


def joint_histograms(
    pair: FormPair, moduli: Sequence[int], cap: int = DEFAULT_CAP, threads: int = 1
) -> Iterator[tuple[int, np.ndarray]]:
    """(q, H_q) for each q in moduli, H_q[c, r] = #{y mod q : C(y) = c, Q(y) = r mod q}.

    Each prime p dividing some modulus is computed once, at its top power
    p^K, every lower p^e is folded off H_{p^K}, and composite H_q are CRT
    products (crt_histograms).  C and Q are sums of forms in the separate
    blocks of forms.separable_blocks, so the values of (C, Q) are sums of
    independent block values and H_{p^K} is the 2-D cyclic convolution of
    the blocks' own histograms mod p^K, each from line_points(p, |b|)
    points at K = 1 (a line scan mod p, spread by one _scaling_orbits map
    per prime for all blocks) and lift_points(p, K, |b|) at K >= 2
    (lift()).  The largest block comes first and the others are convolved
    into it (_convolve); a pair of one block has nothing to convolve.  cap
    is charged up front with the points of every block plus
    _convolution_cost at every prime's top power.
    """
    blocks = sorted((block_pair(pair, axes) for axes in separable_blocks(pair)), key=lambda b: -b.n)
    sizes = [b.n for b in blocks]

    def prime_power(p: int, e: int) -> np.ndarray:
        if e == 1:
            spread = _scaling_orbits(p)
            hists = (spread(_line_histogram(b, p, cap, threads)) for b in blocks)
        else:
            hists = (_lifted_histogram(b, p, e, cap, threads) for b in blocks)
        return functools.reduce(_convolve, hists)

    def cost(p: int, e: int) -> int:
        points = sum(line_points(p, b) if e == 1 else lift_points(p, e, b) for b in sizes)
        return points + _convolution_cost(p, e, sizes)

    return crt_histograms(pair.n, moduli, 2, prime_power, cost, cap)


def joint_histogram(
    pair: FormPair, q: int, cap: int = DEFAULT_CAP, threads: int = 1
) -> np.ndarray:
    """q x q histogram of (C(y) mod q, Q(y) mod q) over all y mod q (joint_histograms)."""
    ((_, hist),) = joint_histograms(pair, [q], cap, threads)
    return hist


def cubic_singular_points_mod_p(
    cubic: CubicForm, cap: int = DEFAULT_CAP, threads: int = 1
) -> tuple[dict[int, tuple[int, ...] | None], list[int]]:
    """Sanity scan for nonzero x mod p with C(x) = 0 and grad C(x) = 0 mod p.

    Returns (findings, skipped): findings maps p = 2, 3, 5 to the
    lexicographically smallest such x (x_1 most significant), or None, and
    skipped lists the primes with p^n > cap, which are not scanned.  A hit
    does not disprove nonsingularity over Q, but flags the assertion as
    suspect.  p = 3 is left out when every monomial but the cubes x_i^3 has
    a coefficient divisible by 3: then grad C = 0 identically mod 3, and
    every zero there is singular.  Each p is one lift() of (C, 0) to p^2
    over the zeros of C mod p, whose span is <(p^ea, 0)>: ea = 1 exactly
    when grad C = 0 mod p.
    """
    n = cubic.n
    pair = FormPair(cubic, QuadraticForm(n, {}))

    def per_chunk(coords, c, qq, span):
        idx = np.flatnonzero((span.ea == 1) & np.any([x != 0 for x in coords], axis=0))
        if idx.size == 0:
            return None
        first = idx[np.lexsort([x[idx] for x in reversed(coords)])[0]]
        return tuple(int(x[first]) for x in coords)

    cubes_only_mod3 = all(c % 3 == 0 for (i, j, k), c in cubic.monomials.items() if not i == j == k)
    findings: dict[int, tuple[int, ...] | None] = {}
    skipped = []
    for p in (2, 5) if cubes_only_mod3 else (2, 3, 5):
        if p**n > cap:
            skipped.append(p)
            continue
        hits = lift(pair, p, 2, per_chunk, zeros_only=True, cap=cap, threads=threads)
        findings[p] = min((h for h in hits if h is not None), default=None)
    return findings, skipped
