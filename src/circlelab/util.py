"""Small shared helpers: budget and invariant errors, factorization, deterministic reductions."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "InvariantError",
    "check_cap",
    "factorize",
    "is_prime",
    "jordan_totient2",
    "next_pow2",
    "chunk_ranges",
    "parallel_map",
    "fsum_complex",
]

T = TypeVar("T")
U = TypeVar("U")

DEFAULT_CAP = 10**8

# einsum, not BLAS: OpenBLAS splits matrix-vector products, and dot products
# of more than BLAS_SERIAL terms (0.3.31), over its threads, which moves the
# last bits with their number, so BLAS gets only matrix products and shorter
# dot products, and np.einsum, which calls no BLAS, the rest
BLAS_SERIAL = 10**4


class CapExceededError(RuntimeError):
    """Raised when a scan or sum would exceed the configured work budget."""


class InvariantError(RuntimeError):
    """Raised when a result fails an internal consistency check (a bug, not bad input)."""


def check_cap(work: int, cap: int, what: str) -> None:
    if work > cap:
        raise CapExceededError(f"{what}: {work} elements exceeds cap {cap}")


# Trial division runs over p <= TRIAL_BOUND; a cofactor left with no prime
# factor below it is proved prime by is_prime or split by Pollard-Brent rho.
TRIAL_BOUND = 1 << 10


def factorize(q: int) -> list[tuple[int, int]]:
    """Prime factorization of q >= 1, as (p, e) pairs in ascending p.

    A composite cofactor gets RHO_STEPS steps of Pollard-Brent rho, which
    take about sqrt(p) steps to find its least prime factor p; if they find
    no factor (typically once p exceeds about 10^13), CapExceededError names
    q."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    given = q
    out = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            out.append((p, e))
        elif p > TRIAL_BOUND:
            break
        p += 1 if p == 2 else 2
    else:
        if q > 1:
            out.append((q, 1))
        return out
    counts: dict[int, int] = {}
    stack = [q]
    while stack:
        m = stack.pop()
        prime, d = _primality(m)
        if prime:
            counts[m] = counts.get(m, 0) + 1
        else:
            d = d or _pollard_brent(m, steps=RHO_STEPS)
            if d is None:
                part = "" if m == given else f" (its composite factor {m})"
                raise CapExceededError(
                    f"cannot factorize {given}{part}: {RHO_STEPS} steps of "
                    f"Pollard-Brent rho found no factor"
                )
            stack += [d, m // d]
    return out + sorted(counts.items())


def _pollard_brent(n: int, steps: int) -> int | None:
    """A nontrivial factor of the composite n by Brent's variant of Pollard rho.
    The polynomials x^2 + c are tried for c = 1, 2, ... until one splits n,
    so the result is deterministic.  None is returned once the budget of
    `steps` iterations of the polynomial is spent; on a prime n that is the
    only way the search ends."""
    left = steps
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            # a round takes at most 2r steps: r to advance, r in batches
            left -= 2 * r
            if left < 0:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:
            # the batched product overshot: redo the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below MILLER_RABIN_LIMIT, the least odd composite that is a strong
# pseudoprime to all of them (OEIS A014233); the first 12 alone are fooled
# by 318665857834031151167461.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


# Steps of Pollard-Brent rho given to a strong probable prime past
# MILLER_RABIN_LIMIT, and to each composite that factorize splits; enough
# to split MILLER_RABIN_LIMIT itself (1287836182261 * 2575672364521)
RHO_STEPS = 1 << 22


def is_prime(n: int) -> bool:
    """Whether n is prime: deterministic Miller-Rabin below MILLER_RABIN_LIMIT.
    From there on a Miller-Rabin witness still proves n composite, and a
    strong probable prime is given RHO_STEPS steps of Pollard-Brent rho.
    If rho finds no factor, nothing here can decide n in reasonable time
    (trial division would take about sqrt(n) steps), so CapExceededError
    names it."""
    return _primality(n)[0]


def _primality(n: int) -> tuple[bool, int | None]:
    """(whether n is prime, the factor of n that rho found or None); see is_prime."""
    if n < 2:
        return False, None
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p, None
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False, None
    if n < MILLER_RABIN_LIMIT:
        return True, None
    factor = _pollard_brent(n, steps=RHO_STEPS)
    if factor is None:
        raise CapExceededError(
            f"cannot decide whether {n} is prime: it is a strong probable prime "
            f"to {len(MILLER_RABIN_BASES)} bases past MILLER_RABIN_LIMIT, and "
            f"{RHO_STEPS} steps of Pollard-Brent rho found no factor"
        )
    return False, factor


def jordan_totient2(q: int) -> int:
    """J_2(q) = number of pairs (a,b) mod q with gcd(q, gcd(a,b)) = 1."""
    out = q * q
    for p, _ in factorize(q):
        out = out // (p * p) * (p * p - 1)
    return out


def next_pow2(x: float) -> int:
    n = 1
    while n < x:
        n *= 2
    return n


def chunk_ranges(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Split [lo, hi) into consecutive half-open chunks of at most `size`."""
    if size <= 0:
        raise ValueError("chunk size must be positive")
    return [(a, min(a + size, hi)) for a in range(lo, hi, size)]


def parallel_map(fn: Callable[[T], U], items: Sequence[T], threads: int = 1) -> list[U]:
    """Map fn over items, optionally on a thread pool.

    The chunking of work is decided by the caller and never depends on the
    thread count, so results (a list in item order) are identical for any
    `threads` value.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def fsum_complex(values: Iterable[complex]) -> complex:
    """Correctly rounded complex sum (fsum on real and imaginary parts)."""
    vals = list(values)
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))
