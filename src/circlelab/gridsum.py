"""The one scan over residue vectors mod q.

Every residue scan goes through scan(): the grid {0, ..., q-1}^n is
traversed in chunks of flat indices; each chunk is decoded into coordinate
arrays and the two forms are reduced mod q with intermediate reductions so
that all products stay far below the int64 limit (safe for q up to ~10^6,
well beyond the design range).

Consumers either aggregate chunk results with order-independent integer
operations (histograms, counts), take the first hit in grid order, or
concatenate the chunks back into the grid, so the outputs are exactly
deterministic regardless of chunking or thread count.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from .forms import CubicForm, FormPair, QuadraticForm, gradient_cubic
from .util import CapExceededError, DEFAULT_CAP, chunk_ranges, parallel_map

__all__ = [
    "scan",
    "phase_histogram",
    "joint_histogram",
    "count_solutions_mod",
    "cubic_singular_points_mod_p",
]

CHUNK = 1 << 18

T = TypeVar("T")


def _decode(flat: np.ndarray, q: int, n: int) -> list[np.ndarray]:
    """Coordinate arrays (values in [0, q)) for flat indices in [0, q^n)."""
    return [(flat // q**j) % q for j in range(n)]


def _eval_forms_mod(pair: FormPair, q: int, coords: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(C mod q, Q mod q) on coordinate arrays with entries in [0, q)."""
    cvals = np.zeros_like(coords[0])
    for (i, j, k), coeff in pair.cubic.monomials.items():
        term = (coords[i - 1] * coords[j - 1]) % q
        term = (term * coords[k - 1]) % q
        cvals = (cvals + (coeff % q) * term) % q
    qvals = np.zeros_like(coords[0])
    for (i, j), coeff in pair.quadric.monomials.items():
        term = (coords[i - 1] * coords[j - 1]) % q
        qvals = (qvals + (coeff % q) * term) % q
    return cvals, qvals


def _linear_mod(m: Sequence[int], q: int, coords: Sequence[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(coords[0])
    for mi, yi in zip(m, coords):
        out = (out + (mi % q) * yi) % q
    return out


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

    def work(rng: tuple[int, int]) -> T:
        coords = _decode(np.arange(*rng, dtype=np.int64), q, n)
        return per_chunk(coords, *_eval_forms_mod(pair, q, coords))

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
        t = ((a3 % q) * c + (a2 % q) * qq + _linear_mod(m, q, coords)) % q
        return np.bincount(t, minlength=q)

    return np.sum(scan(pair, q, per_chunk, cap, threads), axis=0)


def joint_histogram(
    pair: FormPair, q: int, cap: int = DEFAULT_CAP, threads: int = 1
) -> np.ndarray:
    """q x q histogram of (C(y) mod q, Q(y) mod q) over all y mod q."""

    def per_chunk(coords, c, qq):
        return np.bincount(c * q + qq, minlength=q * q)

    return np.sum(scan(pair, q, per_chunk, cap, threads), axis=0).reshape(q, q)


def count_solutions_mod(
    pair: FormPair,
    q: int,
    p: int | None = None,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> tuple[int, int]:
    """(all, primitive) counts of y mod q with C(y) = Q(y) = 0 mod q.

    Primitive means some coordinate of y is a unit mod p; pass p when q is a
    power of p, otherwise the primitive count is reported as 0.
    """

    def per_chunk(coords, c, qq) -> tuple[int, int]:
        sol = (c == 0) & (qq == 0)
        n_prim = 0
        if p is not None:
            divis = np.ones_like(sol)
            for y in coords:
                divis &= y % p == 0
            n_prim = int(np.count_nonzero(sol & ~divis))
        return int(np.count_nonzero(sol)), n_prim

    parts = scan(pair, q, per_chunk, cap, threads)
    return sum(a for a, _ in parts), sum(b for _, b in parts)


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
        # coefficients reduced mod p keep the gradient of a chunk in int64
        reduced = CubicForm(n, {key: coeff % p for key, coeff in cubic.monomials.items()})

        def per_chunk(coords, c, qq):
            hit = (c == 0) & np.any([x != 0 for x in coords], axis=0)
            for g in gradient_cubic(reduced, coords):
                hit &= g % p == 0
            idx = np.flatnonzero(hit)
            if idx.size == 0:
                return None
            first = idx[np.lexsort([x[idx] for x in reversed(coords)])[0]]
            return tuple(int(x[first]) for x in coords)

        pair = FormPair(reduced, QuadraticForm(n, {}))
        hits = [h for h in scan(pair, p, per_chunk, cap, threads) if h is not None]
        findings[p] = min(hits, default=None)
    return findings
