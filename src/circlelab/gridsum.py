"""The one scan over residue vectors mod q.

Every residue scan goes through scan(): the grid {0, ..., q-1}^n is
traversed in chunks of flat indices; each chunk is decoded into coordinate
arrays, and forms.eval_cubic/eval_quadratic evaluate C and Q there with
coefficients replaced by their centred residues mod q; each value is then
reduced mod q once.  This runs in int64 when forms.int64_bound, the bound
of the lattice side too, allows it on [0, q-1]^n, and on Python-int object
arrays otherwise (at the default cap only for n = 1 and q above about
1.66 * 10^6), so every residue is exact.

Consumers either aggregate chunk results with order-independent integer
operations (histograms, counts), take the first hit in grid order, or
concatenate the chunks back into the grid, so the outputs are exactly
deterministic regardless of chunking or thread count.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from .forms import (CubicForm, FormPair, QuadraticForm, eval_cubic, eval_quadratic,
                    gradient_cubic, int64_bound)
from .util import CapExceededError, DEFAULT_CAP, chunk_ranges, parallel_map

__all__ = [
    "scan",
    "phase_histogram",
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
) -> list[T]:
    """per_chunk(coords, C mod q, Q mod q) on each chunk of the residue grid mod q.

    The grid {0, ..., q-1}^n is cut into chunks of CHUNK flat indices
    (coordinate 1 varies fastest); the results come back in grid order, so
    a caller that keeps the first hit of an ordered search gets the same
    answer for any thread count.
    """
    n = pair.n
    total = q**n
    if total > cap:
        raise CapExceededError(f"residue grid q^n = {q}^{n} = {total} exceeds cap {cap}")

    reduced = _centred(pair, q)
    _, fits = int64_bound(reduced, [q - 1] * n)

    def work(rng: tuple[int, int]) -> T:
        coords = _decode(np.arange(*rng, dtype=np.int64), q, n)
        xs = coords if fits else [x.astype(object) for x in coords]
        # an empty form evaluates to the scalar 0, hence the broadcast
        c, qq = (np.broadcast_to(v % q, coords[0].shape).astype(np.int64)
                 for v in (eval_cubic(reduced.cubic, xs), eval_quadratic(reduced.quadric, xs)))
        return per_chunk(coords, c, qq)

    return parallel_map(work, chunk_ranges(0, total, CHUNK), threads)


def phase_histogram(
    pair: FormPair,
    q: int,
    a3: int,
    a2: int,
    m: Sequence[int],
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> np.ndarray:
    """Histogram over t in [0, q) of a3 C(y) + a2 Q(y) + m.y mod q, y mod q."""

    def per_chunk(coords, c, qq):
        t = ((a3 % q) * c + (a2 % q) * qq + sum((mi % q) * y for mi, y in zip(m, coords))) % q
        return np.bincount(t, minlength=q)

    return np.sum(scan(pair, q, per_chunk, cap, threads), axis=0)


def joint_histogram(
    pair: FormPair, q: int, cap: int = DEFAULT_CAP, threads: int = 1
) -> np.ndarray:
    """q x q histogram of (C(y) mod q, Q(y) mod q) over all y mod q."""

    def per_chunk(coords, c, qq):
        return np.bincount(c * q + qq, minlength=q * q)

    return np.sum(scan(pair, q, per_chunk, cap, threads), axis=0).reshape(q, q)


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
