"""Factorization and primality in util: trial division, Pollard-Brent, Miller-Rabin."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import util
from circlelab.cli import run
from circlelab.util import MILLER_RABIN_LIMIT, TRIAL_BOUND, CapExceededError, factorize, is_prime


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


# Mersenne primes past MILLER_RABIN_LIMIT: strong probable primes that rho
# cannot split, so nothing here can decide them in reasonable time
UNDECIDABLE_PRIMES = [2**89 - 1, 2**107 - 1]


@pytest.mark.parametrize("n", UNDECIDABLE_PRIMES)
def test_is_prime_refuses_a_prime_past_the_limit(n):
    # within the rho budget (about 3 s each), not after ~sqrt(n) trial divisions
    with pytest.raises(CapExceededError, match=f"cannot decide whether {n} is prime"):
        is_prime(n)


@pytest.mark.parametrize("n", UNDECIDABLE_PRIMES)
@pytest.mark.parametrize("argv", [["local", "--p", "{n}", "--kmax", "2"],
                                  ["qfactor", "--q", "{n}", "--a3", "1"]])
def test_cli_refuses_a_prime_past_the_limit(n, argv, tmp_path, monkeypatch, capsys):
    # the library test above runs the full budget; a short one keeps this
    # fast.  qfactor reaches is_prime through factorize
    monkeypatch.setattr(util, "RHO_STEPS", 1 << 10)
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"n": 2, "cubic": [[1, 1, 1, 1], [2, 2, 2, 1]],
                                "quadric": [[1, 1, 1], [2, 2, -1]]}))
    argv = [a.format(n=n) for a in argv[:1]] + ["--problem", str(path)] + [
        a.format(n=n) for a in argv[1:]]
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot decide whether {n} is prime")


# a composite past MILLER_RABIN_LIMIT whose two prime factors rho cannot
# reach within any reasonable budget
UNSPLITTABLE = (2**89 - 1) * (2**107 - 1)


def test_factorize_refuses_a_composite_that_rho_cannot_split(monkeypatch):
    monkeypatch.setattr(util, "RHO_STEPS", 1 << 10)
    with pytest.raises(CapExceededError, match=f"cannot factorize {UNSPLITTABLE}: 1024 steps"):
        factorize(UNSPLITTABLE)
    # a factor found by trial division leaves the composite cofactor named
    with pytest.raises(CapExceededError, match=f"cannot factorize {6 * UNSPLITTABLE} "
                                               f"\\(its composite factor {UNSPLITTABLE}\\)"):
        factorize(6 * UNSPLITTABLE)
    # within the budget rho still splits what it can
    assert factorize(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]


@pytest.mark.parametrize("argv", [["sum", "--mode", "crt", "--q", str(UNSPLITTABLE), "--a3", "1", "--a2", "1"],
                                  ["qfactor", "--q", str(UNSPLITTABLE), "--a3", "1"]])
def test_cli_refuses_a_modulus_that_rho_cannot_split(argv, tmp_path, monkeypatch, capsys):
    # both reach factorize; a short budget keeps this fast
    monkeypatch.setattr(util, "RHO_STEPS", 1 << 10)
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"n": 2, "cubic": [[1, 1, 1, 1], [2, 2, 2, 1]],
                                "quadric": [[1, 1, 1], [2, 2, -1]]}))
    assert run(argv[:1] + ["--problem", str(path)] + argv[1:]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot factorize {UNSPLITTABLE}: 1024 steps")


def test_factorize_runs_rho_once_on_a_strong_pseudoprime(monkeypatch):
    # is_prime's budgeted rho finds the factor, and factorize keeps it
    calls = []
    pollard_brent = util._pollard_brent

    def counted(n, steps):
        calls.append(n)
        return pollard_brent(n, steps)

    monkeypatch.setattr(util, "_pollard_brent", counted)
    assert factorize(MILLER_RABIN_LIMIT) == [(1287836182261, 1), (2575672364521, 1)]
    assert calls == [MILLER_RABIN_LIMIT]
