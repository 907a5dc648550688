"""Factorization and primality in util: trial division, Pollard-Brent, Miller-Rabin."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import util
from circlelab.util import MILLER_RABIN_LIMIT, TRIAL_BOUND, factorize, is_prime


def trial_division(q):
    """Plain trial division over every p <= sqrt(q), as (p, e) pairs."""
    out = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            out.append((p, e))
        p += 1
    if q > 1:
        out.append((q, 1))
    return out


def test_factorize_matches_trial_division():
    assert all(factorize(q) == trial_division(q) for q in range(1, 10**5 + 1))


def test_factorize_past_the_trial_bound_matches_trial_division(monkeypatch):
    # with the bound at 3 nearly every cofactor goes to is_prime and rho
    monkeypatch.setattr(util, "TRIAL_BOUND", 3)
    assert all(factorize(q) == trial_division(q) for q in range(1, 2 * 10**4 + 1))


@pytest.mark.parametrize("q,factors", [
    (999999999999989, [(999999999999989, 1)]),  # 15-digit prime
    (998244353 * 1000000007, [(998244353, 1), (1000000007, 1)]),
    (2**40 * 1000003**2, [(2, 40), (1000003, 2)]),
    (1000003**3 * 1000033, [(1000003, 3), (1000033, 1)]),
    (318665857834031151167461, [(399165290221, 1), (798330580441, 1)]),
    (MILLER_RABIN_LIMIT, [(1287836182261, 1), (2575672364521, 1)]),
])
def test_factorize_large(q, factors):
    assert factorize(q) == factors


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# primes above the trial bound, so that products of them reach rho
BIG_PRIMES = st.integers(TRIAL_BOUND + 1, 10**7).map(next_prime)


@settings(max_examples=40, deadline=None)
@given(st.lists(BIG_PRIMES, min_size=1, max_size=3), st.integers(1, 10**3))
def test_factorize_products_of_large_primes(primes, small):
    q = small
    for p in primes:
        q *= p
    expected = dict(trial_division(small))
    for p in primes:
        expected[p] = expected.get(p, 0) + 1
    assert factorize(q) == sorted(expected.items())


def test_is_prime_above_the_limit_does_not_factorize(monkeypatch):
    def refuse(q):
        raise AssertionError("is_prime called factorize")

    monkeypatch.setattr(util, "factorize", refuse)
    # composites past MILLER_RABIN_LIMIT: a Miller-Rabin witness decides them
    assert (2**89 - 1) * (2**61 - 1) > MILLER_RABIN_LIMIT
    assert not is_prime((2**89 - 1) * (2**61 - 1))
    assert not is_prime(318665857834031151167461 * 1000003)


def test_pollard_brent_gives_up_on_a_prime():
    # on a prime no polynomial splits n, so only the step budget ends the search
    assert util._pollard_brent(2**61 - 1, steps=1 << 12) is None
    assert util._pollard_brent(MILLER_RABIN_LIMIT, steps=1 << 22) == 1287836182261
