"""Residue counts, densities, singular series, factorization, solubility."""

import itertools
import math
import random
import sys
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circlelab.expsums import complete_sum, crt_decomposition
from circlelab import forms, gridsum, weightfn
from circlelab.forms import CubicForm, FormPair, QuadraticForm, eval_cubic, eval_quadratic
from circlelab.gridsum import (
    cubic_singular_points_mod_p,
    joint_histogram,
    joint_histograms,
    phase_histogram,
    scan,
)
from circlelab.localdens import (
    _hensel_lift,
    a_of_q,
    hensel_stable,
    q_factorization,
    singular_series_truncated,
)
from circlelab.util import DEFAULT_CAP, CapExceededError, InvariantError, factorize, is_prime

from conftest import flat_scan, make_pair, scan_joint_histogram, scan_phase_histogram, separable_pairs


def brute_count_mod(pair, q):
    n = pair.n
    cnt = 0
    for y in itertools.product(range(q), repeat=n):
        if eval_cubic(pair.cubic, y) % q == 0 and eval_quadratic(pair.quadric, y) % q == 0:
            cnt += 1
    return cnt


def direct_count(pair, q, cap=10**8):
    """N(q) read off one direct scan mod q (not the CRT product at composite q)."""
    return int(scan_joint_histogram(pair, q, cap=cap)[0, 0])


def counts(rep, n):
    """(N(p^k), N*(p^k)) for k = 1..reached, from the densities of a HenselReport."""
    scales = [Fraction(rep.p) ** (k * (n - 2)) for k in range(1, rep.reached + 1)]
    return [
        (d * s, d_prim * s)
        for s, d, d_prim in zip(scales, rep.densities, rep.primitive_densities)
    ]


# ------------------------------------------------------------- counts mod q

def test_count_mod_q1(pair_line):
    assert direct_count(pair_line, 1) == 1


def test_count_mod_example(pair_n3):
    assert direct_count(pair_n3, 2) == 2
    assert direct_count(pair_n3, 2) == brute_count_mod(pair_n3, 2)


def test_count_mod_multiplicative_spot(pair_n3):
    assert direct_count(pair_n3, 6) == direct_count(pair_n3, 2) * direct_count(pair_n3, 3)


def test_count_mod_multiplicative_random():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(1, 3)
        pair = make_pair(
            n,
            {tuple(sorted(rng.randint(1, n) for _ in range(3))): rng.randint(-4, 4)},
            {tuple(sorted(rng.randint(1, n) for _ in range(2))): rng.randint(-4, 4)},
        )
        while True:
            r, s = rng.randint(2, 8), rng.randint(2, 8)
            if math.gcd(r, s) == 1:
                break
        assert direct_count(pair, r * s) == direct_count(pair, r) * direct_count(pair, s)


def test_count_mod_matches_brute(pair_n3):
    for q in (3, 4, 5):
        assert direct_count(pair_n3, q) == brute_count_mod(pair_n3, q)


def test_count_mod_cap(pair_n3):
    with pytest.raises(CapExceededError):
        direct_count(pair_n3, 10**4, cap=10**6)


# ------------------------------------------------------------ local density

def test_local_density_example(pair_n3):
    # N(2) = 2 and p^{k(n-2)} = 2 for n = 3, k = 1
    assert hensel_stable(pair_n3, 2, 1).densities == (Fraction(1),)
    # delta_p(0) = N(1) = 1
    assert direct_count(pair_n3, 1) == 1


def test_local_density_n1_normalization(pair_n1):
    # N(5) = 1 (only x = 0) and the n = 1 normalization is p^{k(n-2)} = 1/5
    assert hensel_stable(pair_n1, 5, 1).densities == (Fraction(5),)


# -------------------------------------------------------------- stabilization

def test_hensel_designated_fixture(pair_hensel7):
    rep = hensel_stable(pair_hensel7, 7, 2)
    assert rep.stable and rep.level == 1
    assert rep.primitive_densities[0] == rep.primitive_densities[1] == Fraction(6, 7)
    # the full-count density keeps absorbing imprimitive vectors
    assert rep.densities[0] != rep.densities[1]


def test_hensel_degenerate_not_stable():
    # both forms divisible by p: counts balloon and never settle
    pair = make_pair(2, {(1, 1, 1): 7}, {(1, 1): 7, (2, 2): 7})
    rep = hensel_stable(pair, 7, 2)
    assert not rep.stable


def test_hensel_n1_report(pair_n1):
    # N(5^k) = 5^{floor(k/2)}: x must be divisible by 5^{ceil(k/2)}
    rep = hensel_stable(pair_n1, 5, 3)
    assert counts(rep, 1) == [(1, 0), (5, 0), (5, 0)]
    assert [direct_count(pair_n1, 5**k) for k in (1, 2, 3)] == [1, 5, 5]
    assert not rep.stable


def test_hensel_partial_on_cap(pair_n3):
    rep = hensel_stable(pair_n3, 7, 9, cap=10**5)
    assert rep.partial and rep.reached < 9


# ---------------------------------------------------------- singular series

def test_series_r1(pair_line):
    assert singular_series_truncated(pair_line, 1).value == 1.0


def test_series_r2_hand_case(pair_n1):
    # q = 2 admissible pairs (1,1), (1,2), (2,1); S = 2, 0, 0 so the q = 2
    # term is 2^{-1} * 2 = 1 and S(2) = 2 (hand enumeration oracle)
    res = singular_series_truncated(pair_n1, 2)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.terms[1] == (2, pytest.approx(1.0, abs=1e-12))


def test_series_p_part_matches_density(pair_n3):
    # sum_{e <= k} p^{-en} sum*_a S(a, p^e) telescopes to delta_p(k) exactly;
    # this ties the complete-sum route to the residue-count route
    for p, k in ((2, 2), (3, 2), (5, 1)):
        acc = 1.0
        for e in range(1, k + 1):
            q = p**e
            term = 0j
            for a3 in range(1, q + 1):
                for a2 in range(1, q + 1):
                    if math.gcd(q, math.gcd(a3, a2)) != 1:
                        continue
                    term += complete_sum(pair_n3, q, a3, a2, [0, 0, 0])
            acc += term.real / q**3
        assert acc == pytest.approx(float(hensel_stable(pair_n3, p, k).densities[-1]), abs=1e-8)


def test_series_crt_agreement(pair_line):
    # the q-terms computed through either complete-sum route agree
    for q in range(2, 7):
        direct = 0j
        crt = 0j
        for a3 in range(1, q + 1):
            for a2 in range(1, q + 1):
                if math.gcd(q, math.gcd(a3, a2)) != 1:
                    continue
                direct += complete_sum(pair_line, q, a3, a2, [0, 0])
                crt += math.prod(f.value for f in crt_decomposition(pair_line, q, a3, a2, [0, 0]))
        assert abs(direct - crt) <= 1e-8 * q**2


def test_series_euler_consistency_report(pair_hensel7, capsys):
    # side-by-side comparison of S(R) and the product of local densities;
    # report-only, the two truncations differ by composite cross terms
    series = singular_series_truncated(pair_hensel7, 7)
    prod = 1.0
    for p, k in ((2, 2), (3, 1), (5, 1), (7, 1)):
        prod *= float(hensel_stable(pair_hensel7, p, k).densities[-1])
    print(f"S(7) = {series.value:.6f} vs product of local densities = {prod:.6f}")
    assert series.value > 0 and prod > 0


def test_series_budget(pair_n3):
    with pytest.raises(CapExceededError):
        singular_series_truncated(pair_n3, 500, cap=10**6)


def test_series_cap_charges_prime_powers_only(pair_n3):
    # pair_n3 is three one-variable blocks.  R = 12: sum_{q <= 12} q^3 = 6084,
    # but only the top power p^K <= 12 of each prime is computed, 8, 9, 5, 7
    # and 11, and 2, 4, 3 are folded from it.  Each costs its blocks' points:
    # at K = 1 the one line point (p - 1)/(p - 1) = 1 of each block, 3 per
    # prime (9 for 5, 7, 11), at K >= 2 the lift's p^ceil(K/2), 3 (4 + 3) =
    # 21 for 8 and 9, 30 points; plus two convolutions of p^K x p^K
    # histograms, each adding a shifted copy per cell of a block's at most
    # p^K nonzero ones: 2 p^{3K}, 2 (512 + 729 + 125 + 343 + 1331) = 6080
    res = singular_series_truncated(pair_n3, 12, cap=6110)
    assert [q for q, _ in res.a_values] == list(range(1, 13))
    with pytest.raises(CapExceededError, match="prime powers"):
        singular_series_truncated(pair_n3, 12, cap=6109)
    # q = 12 costs 4 and 3: 3 (2 + 1) + 2 (4^3 + 3^3) = 191; its histogram
    # has 12^2 = 144 cells, which are charged first
    assert a_of_q(pair_n3, 12, cap=191) == dict(res.a_values)[12]
    with pytest.raises(CapExceededError, match="prime powers"):
        a_of_q(pair_n3, 12, cap=190)
    with pytest.raises(CapExceededError, match="histogram mod 12"):
        a_of_q(pair_n3, 12, cap=143)
    # at n = 5, five one-variable blocks: 5 (2 + 1) + 4 (4^3 + 3^3) = 379
    pair_n5 = make_pair(5, {(i, i, i): 1 for i in range(1, 6)}, {(i, i): 1 for i in range(1, 6)})
    a_of_q(pair_n5, 12, cap=379)
    with pytest.raises(CapExceededError, match="prime powers"):
        a_of_q(pair_n5, 12, cap=378)


def test_series_cap_charges_one_block_as_one_scan():
    # one block in all three variables: only the top power p^K <= 12 of
    # each prime is computed.  8 is lifted from the grid mod 2^2, 4^3 = 64
    # points, and 9 from the grid mod 3, 3^3 = 27; 5, 7 and 11 take their
    # line scans, (p^3 - 1)/(p - 1) = p^2 + p + 1 points, 31 + 57 + 133;
    # 64 + 27 + 31 + 57 + 133 = 312, with nothing to convolve
    pair = make_pair(3, {(1, 1, 1): 1, (2, 2, 2): 2, (3, 3, 3): -1, (1, 2, 3): 1},
                     {(1, 1): 1, (1, 2): 1, (3, 3): -1, (2, 3): 2})
    res = singular_series_truncated(pair, 12, cap=312)
    assert [q for q, _ in res.a_values] == list(range(1, 13))
    with pytest.raises(CapExceededError, match="prime powers"):
        singular_series_truncated(pair, 12, cap=311)
    # q = 12 evaluates the grid mod 2 (lifting to 4) and the lines mod 3:
    # 2^3 + 13 = 21 points, but its histogram has 12^2 = 144 cells, which
    # are charged first
    assert a_of_q(pair, 12, cap=144) == dict(res.a_values)[12]
    with pytest.raises(CapExceededError, match="histogram mod 12"):
        a_of_q(pair, 12, cap=143)
    # at n = 5 the points, 2^5 + (3^5 - 1)/2 = 153, outnumber the cells
    pair_n5 = make_pair(5, {**{(i, i, i): 1 for i in range(1, 6)}, (1, 2, 3): 1, (3, 4, 5): -1},
                        {**{(i, i): 1 for i in range(1, 6)}, (1, 2): 1, (4, 5): 1})
    a_of_q(pair_n5, 12, cap=153)
    with pytest.raises(CapExceededError, match="prime powers"):
        a_of_q(pair_n5, 12, cap=152)


def test_a_of_q_charges_its_histogram_first(pair_n3, monkeypatch):
    # 510510 = 2 * 3 * ... * 17 costs sum p^3 < 10^4 points, but its
    # histogram has 510510^2 cells; it is refused before q is factorized
    def factorize(q):
        raise AssertionError(f"factorized {q}")

    monkeypatch.setattr(gridsum, "factorize", factorize)
    with pytest.raises(CapExceededError, match="histogram mod 510510 of 510510\\^2 cells"):
        a_of_q(pair_n3, 510510)


def test_a_of_q_refuses_int64_overflow():
    # 2^9 + 3^9 + 5^9 + 7^9 is within the default cap, but 210^9 counts are not int64
    pair = make_pair(9, {(1, 1, 1): 1}, {(1, 1): 1})
    with pytest.raises(CapExceededError, match="overflow"):
        a_of_q(pair, 210)


# composite moduli q <= 36 with at least two distinct prime factors
CRT_MODULI = [q for q in range(6, 37) if len(factorize(q)) >= 2]


@st.composite
def sparse_pairs(draw):
    n = draw(st.integers(1, 3))
    diagonal = draw(st.booleans())
    if diagonal:
        cubic_keys = [(i, i, i) for i in range(1, n + 1)]
        quad_keys = [(i, i) for i in range(1, n + 1)]
    else:
        cubic_keys = list(itertools.combinations_with_replacement(range(1, n + 1), 3))
        quad_keys = list(itertools.combinations_with_replacement(range(1, n + 1), 2))
    coeff = st.integers(-6, 6).filter(bool)
    cubic = draw(st.dictionaries(st.sampled_from(cubic_keys), coeff, min_size=1, max_size=3))
    quadric = draw(st.dictionaries(st.sampled_from(quad_keys), coeff, min_size=1, max_size=3))
    return make_pair(n, cubic, quadric)


@settings(max_examples=40, deadline=None)
@given(sparse_pairs(), st.lists(st.sampled_from(CRT_MODULI), min_size=1, max_size=3))
def test_crt_joint_histograms_match_scan(pair, moduli):
    # the CRT-composed H_q is the scanned integer array, entry for entry
    for q, hist in joint_histograms(pair, moduli):
        oracle = scan_joint_histogram(pair, q)
        assert hist.dtype == oracle.dtype
        assert (hist == oracle).all(), q


@settings(max_examples=40, deadline=None)
@given(sparse_pairs(), st.integers(1, 32))
# a two-variable block beside a one-variable one: at R = 32 the powers 2, 4,
# 8, 16 are folded from 32 and 3, 9 from 27, each after its convolution
@example(make_pair(3, {(1, 1, 2): 1, (2, 2, 2): -2, (3, 3, 3): 3}, {(1, 2): 1, (3, 3): -1}), 32)
def test_series_histograms_folded_from_top_powers_match_scan(pair, R):
    # every H_q, q <= R, of the series, with each p^e below the top power
    # p^K <= R folded from H_{p^K}, is the scanned integer array
    for q, hist in joint_histograms(pair, range(1, R + 1)):
        oracle = scan_joint_histogram(pair, q)
        assert hist.dtype == oracle.dtype
        assert np.array_equal(hist, oracle), q


@settings(max_examples=40, deadline=None)
@given(sparse_pairs(), st.sampled_from(CRT_MODULI), st.integers(0, 40), st.integers(0, 40),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_crt_phase_histogram_matches_scan(pair, q, a3, a2, m):
    # the same numerators mod each prime power, no twist: H_q is the scanned array
    m = m[: pair.n]
    hist = phase_histogram(pair, q, a3, a2, m)
    oracle = scan_phase_histogram(pair, q, a3, a2, m)
    assert hist.dtype == oracle.dtype
    assert np.array_equal(hist, oracle), q


# (p, k, n) of the lifted levels, kept to full scans of at most 2^16 residues
# and histograms of at most 243^2 cells
LIFT_SHAPES = [
    (p, k, n) for p in (2, 3, 5) for k in range(2, 6) for n in range(1, 5)
    if p ** (k * n) <= 1 << 16 and p**k <= 243
]


@st.composite
def lift_cases(draw):
    """A pair, (p, k) and a thread count.  Coefficients are +-c p^e with
    c <= 6 and e <= 3, so the Jacobian often loses rank mod p^m; either
    form may have no monomials."""
    p, k, n = draw(st.sampled_from(LIFT_SHAPES))
    coeff = st.builds(lambda c, e, sign: sign * c * p**e,
                      st.integers(1, 6), st.integers(0, 3), st.sampled_from([1, -1]))

    def monomials(degree):
        keys = list(itertools.combinations_with_replacement(range(1, n + 1), degree))
        return draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=5))

    pair = FormPair(CubicForm(n, monomials(3)), QuadraticForm(n, monomials(2)))
    return pair, p, k, draw(st.sampled_from([1, 2]))


def scan_level_counts(pair, p, k):
    """(N(p^k), N*(p^k)) from one direct scan of all p^{kn} residues."""

    def per_chunk(coords, c, qq):
        sol = (c == 0) & (qq == 0)
        prim = sol & np.any([y % p != 0 for y in coords], axis=0)
        return int(np.count_nonzero(sol)), int(np.count_nonzero(prim))

    parts = flat_scan(pair, p**k, per_chunk)
    return sum(a for a, _ in parts), sum(b for _, b in parts)


@pytest.mark.parametrize("path", ["int64", "object"])
@settings(max_examples=60, deadline=None)
@given(case=lift_cases())
# J(u) = (3u^2, 2u): at odd u mod 2^4 the span mod 4 is cyclic of order 4,
# and it needs (2, 0) = 2 (3u^2, 2u) - (0, 4u), not just the one column
@example(case=(make_pair(1, {(1, 1, 1): 1}, {(1, 1): 1}), 2, 4, 1))
def test_lifted_levels_match_full_scan(path, case):
    # every level k >= 2 and the histogram mod p^k come from the grid mod
    # p^ceil(k/2), in boxes of 7; "object" forces the Python-int path
    pair, p, k, threads = case

    def object_bound(reduced, m):
        return forms.int64_bound(reduced, m)[0], False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weightfn, "BOX", 7)
        if path == "object":
            mp.setattr(gridsum, "int64_bound", object_bound)
        rep = hensel_stable(pair, p, k, threads=threads)
        hist = joint_histogram(pair, p**k, threads=threads)
    assert counts(rep, pair.n) == [scan_level_counts(pair, p, e) for e in range(1, k + 1)]
    oracle = scan_joint_histogram(pair, p**k)
    assert hist.dtype == oracle.dtype
    assert np.array_equal(hist, oracle)


# ------------------------------------------------------------------- A(q)

def test_a_of_q_basics(pair_n3):
    assert a_of_q(pair_n3, 1) == 1.0
    for p in (3, 5):
        bound = (p * p - 1) * p**3
        assert a_of_q(pair_n3, p) <= bound
    # brute-force oracle at q = 3
    brute = 0.0
    for a3 in range(1, 4):
        for a2 in range(1, 4):
            if math.gcd(3, math.gcd(a3, a2)) == 1:
                brute += abs(complete_sum(pair_n3, 3, a3, a2, [0, 0, 0]))
    assert a_of_q(pair_n3, 3) == pytest.approx(brute, rel=1e-12)


# ----------------------------------------------------------- q factorization

def test_q_factorization_examples():
    ones = QuadraticForm(3, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
    assert q_factorization(8, 8, ones) == (8, 1, 1)
    assert q_factorization(12, 1, ones) == (1, 12, 1)
    assert q_factorization(27, 1, ones) == (1, 1, 27)


def test_q_factorization_requires_diagonal():
    skew = QuadraticForm(2, {(1, 2): 1})
    with pytest.raises(ValueError, match="diagonal"):
        q_factorization(4, 1, skew)
    degenerate = QuadraticForm(2, {(2, 2): 1})  # d_1 = 0
    with pytest.raises(ValueError, match="nonzero"):
        q_factorization(4, 1, degenerate)


def _is_cubefree(x):
    return all(e < 3 for _, e in _factor(x))


def _is_cubefull(x):
    return all(e >= 3 for _, e in _factor(x))


def _factor(x):
    from circlelab.util import factorize

    return factorize(x) if x > 1 else []


def test_q_factorization_random_structure():
    rng = random.Random(61)
    quad = QuadraticForm(3, {(1, 1): 2, (2, 2): 6, (3, 3): 1})
    for _ in range(100):
        q = rng.randint(1, 4000)
        a3 = rng.randint(0, 4000)
        q0, q1, q2 = q_factorization(q, a3, quad)
        assert q0 * q1 * q2 == q
        assert _is_cubefree(q1)
        assert _is_cubefull(q2)
        for p, e in _factor(q0):
            v = 0
            for d in (4, 12):  # 2 d_i for d_i in (2, 6)
                t, vp = d, 0
                while t % p == 0:
                    t //= p
                    vp += 1
                v = max(v, vp)
            assert a3 % p ** (1 + v) == 0


# ------------------------------------------------------------- Qp solubility

def test_solubility_smooth_certificate(pair_smooth5):
    rep = hensel_stable(pair_smooth5, 5, 3).solubility
    assert rep.verdict == "smooth_liftable"
    assert rep.level == 3
    x = rep.point
    assert eval_cubic(pair_smooth5.cubic, x) % 5**3 == 0
    assert eval_quadratic(pair_smooth5.quadric, x) % 5**3 == 0
    assert any(v % 5 for v in x)


def test_solubility_certificate_is_pinned(pair_smooth5):
    # the mod-5 certificate (4, 1, 0) has its first unit minor at columns
    # (1, 3), so the lift moves x_1 and x_3 and keeps x_2 = 1
    assert hensel_stable(pair_smooth5, 5, 3).solubility.point == (124, 1, 0)


@st.composite
def small_pairs(draw):
    """A pair in 3 <= n <= 4 variables with small nonzero coefficients, a
    prime p <= 7 and a thread count; about two in five have a smooth zero
    mod p."""
    n = draw(st.integers(3, 4))
    coeff = st.integers(-6, 6).filter(bool)

    def monomials(degree):
        keys = list(itertools.combinations_with_replacement(range(1, n + 1), degree))
        return draw(st.dictionaries(st.sampled_from(keys), coeff, min_size=1, max_size=6))

    pair = FormPair(CubicForm(n, monomials(3)), QuadraticForm(n, monomials(2)))
    return pair, draw(st.sampled_from([2, 3, 5, 7])), draw(st.sampled_from([1, 2]))


@settings(max_examples=80, deadline=None)
@given(pair_p=small_pairs())
def test_hensel_lift_solves_mod_every_level(pair_p):
    pair, p, threads = pair_p
    cert = hensel_stable(pair, p, 1, threads=threads).solubility.point
    if cert is None:
        return
    for k in range(1, 6):
        x = _hensel_lift(pair, cert, p, k)
        assert eval_cubic(pair.cubic, x) % p**k == 0
        assert eval_quadratic(pair.quadric, x) % p**k == 0
        assert all(0 <= v < p**k for v in x)
        assert [v % p for v in x] == list(cert)


def brute_level_one(pair, p):
    """(N(p), N*(p), first primitive solution with a unit Jacobian minor mod p),
    scanning y mod p in grid order with coordinate 1 varying fastest."""
    n_all = n_prim = 0
    cert = None
    for y in itertools.product(range(p), repeat=pair.n):
        x = y[::-1]
        if eval_cubic(pair.cubic, x) % p or eval_quadratic(pair.quadric, x) % p:
            continue
        n_all += 1
        if any(x):
            n_prim += 1
            if cert is None and any(m % p for m in forms.jacobian_minors(pair, x)):
                cert = x
    return n_all, n_prim, cert


@settings(max_examples=80, deadline=None)
@given(pair_p=small_pairs(), kmax=st.sampled_from([1, 2, 3]))
def test_level_one_scan_matches_brute_force(pair_p, kmax):
    # the lift to level 2 gives the counts mod p and the certificate, in
    # boxes of 7, whatever kmax is; level 3 scans p^{2n} points, so only
    # small grids run it
    pair, p, threads = pair_p
    assume(kmax < 3 or p ** (2 * pair.n) <= 3**8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weightfn, "BOX", 7)
        rep = hensel_stable(pair, p, kmax, threads=threads)
    n_all, n_prim, cert = brute_level_one(pair, p)
    assert rep.reached == kmax
    assert counts(rep, pair.n)[0] == (n_all, n_prim)
    sol = rep.solubility
    assert sol.solutions_mod_p == n_all
    if cert is None:
        assert sol.verdict == "only_singular" and sol.point is None
    else:
        assert sol.verdict == "smooth_liftable" and sol.level == min(kmax, 3)
        assert tuple(v % p for v in sol.point) == cert


def test_hensel_lift_needs_a_unit_minor(pair_smooth5):
    with pytest.raises(InvariantError, match="unit mod 5"):
        _hensel_lift(pair_smooth5, (0, 0, 0), 5, 3)


def test_solubility_only_singular(pair_n1):
    rep = hensel_stable(pair_n1, 7, 2).solubility
    assert rep.verdict == "only_singular"
    assert rep.solutions_mod_p == 1  # just the zero residue


def test_solubility_none_found_on_partial_scan(pair_n3):
    # a cap too small for even the first chunk leaves the scan inconclusive
    rep = hensel_stable(pair_n3, 5, 1, cap=10)
    assert rep.solubility.verdict == "none_found"
    assert rep.partial and rep.reached == 0


@pytest.mark.parametrize("p", [1, 4, 9])
def test_local_scans_need_a_prime(pair_n3, p):
    with pytest.raises(ValueError, match="p must be a prime"):
        hensel_stable(pair_n3, p, 2)


# ------------------------------------------------------- residue scan chunks

def _scan_results(pairs, threads):
    out = []
    for pair in pairs:
        out.append(joint_histogram(pair, 12, threads=threads).tolist())
        out.append(phase_histogram(pair, 12, 5, 7, [1, 2, 3], threads=threads).tolist())
        out.extend(hensel_stable(pair, p, 2, threads=threads) for p in (5, 7))
    return out


@pytest.mark.parametrize("threads", [1, 2])
def test_scan_results_do_not_depend_on_chunking(
    pair_n3, pair_hensel7, pair_smooth5, monkeypatch, threads
):
    pairs = (pair_n3, pair_hensel7, pair_smooth5)
    expected = _scan_results(pairs, threads=1)
    monkeypatch.setattr(weightfn, "BOX", 7)
    # boxes come back in grid order; 5 <= BOX < 5^2, so each box is one
    # whole x1-axis (BOX // 5 = 1 slice of x2) and box c starts at 5c
    firsts = scan(pair_n3, 5, lambda y, c, q: int(y[0][0] + 5 * y[1][0] + 25 * y[2][0]),
                  threads=threads)
    assert firsts == list(range(0, 125, 5))
    assert _scan_results(pairs, threads) == expected
    # the mod-5 certificate of pair_smooth5 is (4, 1, 0), flat index 9: box 1 of 25
    point = hensel_stable(pair_smooth5, 5, 2, threads=threads).solubility.point
    assert tuple(v % 5 for v in point) == (4, 1, 0)


@pytest.mark.parametrize("threads", [1, 4])
def test_phase_histogram_chunks_add_into_one_array(pair_n3, monkeypatch, threads):
    # many boxes per prime power: each box's counts are added into one
    # histogram as it finishes, from any thread, and the sum is the scanned
    # array.  More threads than cores, switching every microsecond: a lost
    # update would leave a count short
    monkeypatch.setattr(weightfn, "BOX", 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for q in (11, 13, 22):
            hist = phase_histogram(pair_n3, q, 2, 5, [1, 0, 3], threads=threads)
            assert np.array_equal(hist, scan_phase_histogram(pair_n3, q, 2, 5, [1, 0, 3])), q
    finally:
        sys.setswitchinterval(interval)


def test_phase_histogram_memory_holds_the_histogram_once():
    # n = 1, q = 1 000 003, each box shorter than the histogram.  In four
    # chunks of 2^18 points: one bincount of q cells per chunk, stacked and
    # then summed, peaked at 84 MiB, 11 histograms of 8 q bytes; added into
    # one array as each chunk finishes, with the CRT composition's index
    # arrays, at 43 MiB; yielded as scanned, the histogram, one chunk's
    # bincount and its scan peak at 27.3 MiB, 3.6 histograms; counted
    # straight into the histogram, with no bincount, at 21.6 MiB, 2.8
    # histograms.  In 16 boxes of weightfn.BOX = 2^16 points, the scan of
    # one box holds less than half a histogram
    pair, q = make_pair(1, {(1, 1, 1): 2}, {(1, 1): 3}), 1_000_003
    tracemalloc.start()
    try:
        hist = phase_histogram(pair, q, 1, 1, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(hist, scan_phase_histogram(pair, q, 1, 1, [0]))
    assert peak < 2 * 8 * q


def test_phase_histogram_memory_over_two_threads_holds_one_histogram(monkeypatch):
    # n = 1, q = 1 000 003 in boxes of 2^12 points, so that a box's scan
    # is small beside the histogram.  A bincount of q cells per box put a
    # second histogram on each thread, 3.1 histograms in all at threads = 2;
    # counted straight into the histogram, the peak is 1.12 histograms
    pair, q = make_pair(1, {(1, 1, 1): 2}, {(1, 1): 3}), 1_000_003
    monkeypatch.setattr(weightfn, "BOX", 1 << 12)
    tracemalloc.start()
    try:
        hist = phase_histogram(pair, q, 1, 1, [0], threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(hist, phase_histogram(pair, q, 1, 1, [0], threads=1))
    assert np.array_equal(hist, scan_phase_histogram(pair, q, 1, 1, [0]))
    assert peak < 1.5 * 8 * q


@pytest.mark.parametrize("threads", [1, 2])
def test_lifted_histogram_memory_does_not_grow_with_the_boxes(monkeypatch, threads):
    # the histogram mod 5^4 of a pair in two variables lifts the 625 points
    # mod 25, here in 40 boxes of 2^4 points, beside a histogram of 5^8
    # cells.  Tables of 5^8 cells per chunk, kept until np.sum, peaked at 81
    # histograms in such chunks (gridsum.CHUNK = 16) and at 4.07 in one
    # chunk; one table per ea for all boxes, each at most a histogram,
    # peaks at 2.04 on 1 and 2 threads
    pair = make_pair(2, {(1, 1, 1): 1, (1, 1, 2): 5, (2, 2, 2): 10}, {(1, 2): 5, (2, 2): 1})
    oracle = scan_joint_histogram(pair, 5**4)
    monkeypatch.setattr(weightfn, "BOX", 1 << 4)
    tracemalloc.start()
    try:
        hist = gridsum._lifted_histogram(pair, 5, 4, 10**8, threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(hist, oracle)
    assert peak < 3 * 8 * 5**8


def test_phase_histogram_counts_survive_thread_switches(monkeypatch):
    # four threads on many boxes of 2^8 points, switching every
    # microsecond: a count lost between two threads' adds would show
    pair, q = make_pair(2, {(1, 1, 2): 1, (2, 2, 2): -3}, {(1, 2): 2}), 101
    monkeypatch.setattr(weightfn, "BOX", 1 << 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hist = phase_histogram(pair, q, 3, 5, [1, 2], threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(hist, scan_phase_histogram(pair, q, 3, 5, [1, 2]))


def test_joint_histogram_counts_survive_thread_switches(monkeypatch, pair_n3):
    # the line scan mod 5 and the lifts to 5^2 and 5^3 count their boxes of
    # 2^4 points into shared tables, on four threads switching every
    # microsecond: a count lost between two threads' adds would show
    oracles = {q: scan_joint_histogram(pair_n3, q) for q in (5, 25, 125)}
    monkeypatch.setattr(weightfn, "BOX", 1 << 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hists = {q: joint_histogram(pair_n3, q, threads=4) for q in oracles}
    finally:
        sys.setswitchinterval(interval)
    for q, oracle in oracles.items():
        assert np.array_equal(hists[q], oracle), q


def test_complete_sum_memory_holds_the_histogram_once():
    # the sum of hist e(t/q) over blocks of util.BLAS_SERIAL cells adds no
    # q-cell table to the histogram's peak; a table of all q roots and its
    # temporaries took 16 bytes per cell more
    pair, q = make_pair(1, {(1, 1, 1): 2}, {(1, 1): 3}), 1_000_003
    tracemalloc.start()
    try:
        complete_sum(pair, q, 1, 1, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * q


def test_crt_histograms_yield_a_prime_power_as_built():
    # f(y) = y in one variable: every H_{p^e} is all ones.  The top power is
    # yielded as built and read-only, since the lower powers fold from it
    built = []

    def prime_power(p, e):
        built.append(np.ones(p**e, dtype=np.int64))
        return built[-1]

    hists = dict(gridsum.crt_histograms(1, [8, 4, 24, 1], 1, prime_power, lambda p, e: p**e))
    assert hists[8] is built[0]
    assert not hists[8].flags.writeable and not hists[4].flags.writeable
    assert [h.tolist() for h in hists.values()] == [[1] * 8, [1] * 4, [1] * 24, [1]]


class _LastOnly(Sequence):
    """Moduli 1..last whose iteration fails: only len and indexing work."""

    def __init__(self, last):
        self.last = last

    def __len__(self):
        return self.last

    def __getitem__(self, i):
        if not -self.last <= i < self.last:
            raise IndexError(i)
        return i % self.last + 1

    def __iter__(self):
        raise AssertionError("the moduli were iterated")


def test_histogram_cap_reads_the_last_modulus_without_iterating():
    # the largest histogram of ascending moduli is refused before any pass
    # over them, however many there are
    pair = make_pair(1, {(1, 1, 1): 1}, {(1, 1): 1})
    with pytest.raises(CapExceededError) as err:
        next(joint_histograms(pair, _LastOnly(10**12)))
    assert str(err.value) == f"histogram mod {10**12} of {10**12}^2 cells: {10**24} elements exceeds cap {DEFAULT_CAP}"


@st.composite
def wide_pairs(draw):
    """A pair in n <= 3 variables with coefficients up to 2^70 in size; either
    form may have no monomials."""
    n = draw(st.integers(1, 3))
    coeff = st.integers(-(2**70), 2**70)

    def monomials(degree):
        keys = list(itertools.combinations_with_replacement(range(1, n + 1), degree))
        return draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=4))

    return FormPair(CubicForm(n, monomials(3)), QuadraticForm(n, monomials(2)))


@pytest.mark.parametrize("limit", [forms.INT64_LIMIT, 1], ids=["int64", "object"])
@settings(max_examples=30, deadline=None)
@given(pair=wide_pairs(), q=st.integers(1, 40))
def test_scan_values_are_exact_residues(limit, pair, q):
    # limit 1 forces the Python-int object path on every grid
    def rows(coords, c, qq):
        assert {x.dtype for x in coords + [c, qq]} == {np.dtype(np.int64)}
        return [(tuple(int(x[i]) for x in coords), int(c[i]), int(qq[i])) for i in range(c.size)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weightfn, "BOX", 7)
        mp.setattr(forms, "INT64_LIMIT", limit)
        got = [row for part in scan(pair, q, rows) for row in part]
    # coordinate 1 varies fastest
    points = [y[::-1] for y in itertools.product(range(q), repeat=pair.n)]
    assert got == [
        (y, eval_cubic(pair.cubic, y) % q, eval_quadratic(pair.quadric, y) % q) for y in points
    ]


# the grids of the differential scan test hold at most this many points
SCAN_POINTS = 2000


@st.composite
def scan_cases(draw):
    """A pair in n <= 4 variables with coefficients up to 2^70 in size (either
    form may have no monomials), q <= 40 with q^n <= SCAN_POINTS, a BOX
    below q, between q and q^n or at least q^n, a modulus that q divides (up
    to about 2^55, which sends most grids to the Python-int path) and a
    thread count."""
    n = draw(st.integers(1, 4))
    q = draw(st.integers(1, max(v for v in range(1, 41) if v**n <= SCAN_POINTS)))
    coeff = st.integers(-(2**70), 2**70)

    def monomials(degree):
        keys = list(itertools.combinations_with_replacement(range(1, n + 1), degree))
        return draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=4))

    pair = FormPair(CubicForm(n, monomials(3)), QuadraticForm(n, monomials(2)))
    chunks = [st.integers(q**n, q**n + 3)]
    if q > 1:
        chunks.append(st.integers(1, q - 1))
    if q < q**n:
        chunks.append(st.integers(q, q**n - 1))
    chunk = draw(st.one_of(chunks))
    modulus = q * draw(st.one_of(st.integers(1, 4), st.integers(1, 2**55 // q)))
    return pair, q, chunk, modulus, draw(st.sampled_from([1, 2]))


@settings(max_examples=80, deadline=None)
@given(case=scan_cases())
@example(case=(make_pair(3, {(1, 2, 3): 2**70}, {(3, 3): -1}), 5, 7, 5, 2))
def test_box_scan_matches_flat_decode(case):
    # the boxes of weightfn.cut_box hand out the points of the flat-decode
    # oracle in the same order with the same residues, at most BOX at a
    # time, in contiguous ranges of grid order
    pair, q, chunk, modulus, threads = case

    def rows(coords, c, qq):
        assert c.size <= chunk
        assert all(x.dtype == np.int64 and x.shape == c.shape for x in coords + [c, qq])
        return np.stack(coords + [c, qq])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weightfn, "BOX", chunk)
        got = scan(pair, q, rows, threads=threads, modulus=modulus)
        want = flat_scan(pair, q, rows, modulus=modulus)
    assert np.array_equal(np.concatenate(got, axis=1), np.concatenate(want, axis=1))


@st.composite
def block_cases(draw):
    """A separable pair (conftest.separable_pairs), p^e with p in {2, 3, 5}
    and e <= 3 such that the full grid mod p^e has at most 20000 points, and
    a thread count."""
    p, e = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3))
    nmax = max(m for m in range(1, 7) if p ** (e * m) <= 20000)
    pair = draw(separable_pairs(nmax, st.one_of(st.integers(-6, 6), st.integers(-(2**70), 2**70))))
    return pair, p, e, draw(st.sampled_from([1, 2]))


@settings(max_examples=60, deadline=None)
@given(case=block_cases())
# x2 is in no monomial: its block histogram is 5 points at (0, 0)
@example(case=(make_pair(3, {(1, 1, 1): 1, (3, 3, 3): 2}, {(1, 1): 1, (3, 3): -1}), 5, 1, 1))
@example(case=(make_pair(4, {}, {(1, 2): 1, (3, 3): 2, (4, 4): 3}), 2, 3, 2))
def test_block_convolved_histograms_match_full_scan(case):
    # H_{p^e} convolved from the blocks' own histograms is the histogram of
    # one scan of all p^{en} residues, entry for entry
    pair, p, e, threads = case
    hist = joint_histogram(pair, p**e, threads=threads)
    oracle = scan_joint_histogram(pair, p**e)
    assert hist.dtype == oracle.dtype
    assert np.array_equal(hist, oracle)


@settings(max_examples=60, deadline=None)
@given(case=scan_cases())
def test_line_scan_visits_one_point_per_line(case):
    # scan(lines=True) hands out exactly the points of the flat-decode
    # oracle whose last nonzero coordinate is 1, in grid order, with the
    # same residues, at most BOX at a time
    pair, q, chunk, modulus, threads = case
    assume(q >= 2)

    def rows(coords, c, qq):
        return np.stack(coords + [c, qq])

    def chunk_rows(coords, c, qq):
        assert c.size <= chunk
        return rows(coords, c, qq)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weightfn, "BOX", chunk)
        got = scan(pair, q, chunk_rows, threads=threads, modulus=modulus, lines=True)
    got = np.concatenate(got, axis=1)
    grid = np.concatenate(flat_scan(pair, q, rows, modulus=modulus), axis=1)
    last = np.zeros(grid.shape[1], dtype=np.int64)
    for x in grid[: pair.n]:
        last = np.where(x != 0, x, last)
    assert got.shape[1] == gridsum.line_points(q, pair.n)
    assert np.array_equal(got, grid[:, last == 1])


# (p, n) of the level-one tests: n <= 5 with p^n <= 30000 for the oracle.
# gcd(3, p - 1) is 3 at p = 7, 13, 31 and 1 at p = 2, 3, 5; gcd(2, p - 1)
# is 1 only at p = 2
LINE_SHAPES = [(p, n) for p in (2, 3, 5, 7, 13, 31) for n in range(1, 6) if p**n <= 30000]


@st.composite
def line_cases(draw):
    """p and a pair in n variables with p^n in LINE_SHAPES: either a
    conftest.separable_pairs pair, or a pair whose monomials may join any
    variables (either form may be empty, a variable may be in none)."""
    p, n = draw(st.sampled_from(LINE_SHAPES))
    coeff = st.one_of(st.integers(-6, 6), st.integers(-(2**70), 2**70))
    if draw(st.booleans()):
        pair = draw(separable_pairs(n, coeff))
        return pair.n, p, pair  # separable_pairs may draw fewer variables

    def monomials(degree):
        keys = list(itertools.combinations_with_replacement(range(1, n + 1), degree))
        return draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=5))

    return n, p, FormPair(CubicForm(n, monomials(3)), QuadraticForm(n, monomials(2)))


@settings(max_examples=80, deadline=None)
@given(case=line_cases())
# p = 7: C alone takes the c axis, where orbits are stabilized by gcd(3, 6) = 3
@example(case=(3, 7, make_pair(3, {(1, 1, 2): 1, (3, 3, 3): 2}, {})))
@example(case=(2, 13, make_pair(2, {}, {(1, 1): 1, (2, 2): 3})))
# x4 is in no monomial
@example(case=(4, 5, make_pair(4, {(1, 2, 3): 1, (1, 1, 1): 2}, {(1, 1): 1, (2, 3): -2})))
@example(case=(5, 2, make_pair(5, {(1, 2, 3): 1, (3, 4, 5): -1}, {(1, 1): 1, (4, 5): 1})))
def test_level_one_histogram_from_lines_matches_full_scan(case):
    # the histogram mod p spread from one point per line over the scaling
    # orbits is that of all p^n residues, entry for entry, for the whole
    # pair as one scan and block by block, with boxes of 7 on 1 and 2 threads
    n, p, pair = case
    oracle = scan_joint_histogram(pair, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weightfn, "BOX", 7)
        for threads in (1, 2):
            whole = gridsum._scaling_orbits(p)(gridsum._line_histogram(pair, p, 10**8, threads))
            assert whole.dtype == oracle.dtype
            assert np.array_equal(whole, oracle), threads
            assert np.array_equal(joint_histogram(pair, p, threads=threads), oracle), threads


@pytest.fixture
def eval_dtypes(monkeypatch):
    """The dtypes of the coordinates that gridsum hands to eval_cubic."""
    seen = set()

    def spy(cubic, x):
        seen.add(x[0].dtype)
        return eval_cubic(cubic, x)

    monkeypatch.setattr(gridsum, "eval_cubic", spy)
    return seen


def test_object_path_matches_int64_path(pair_n3, pair_hensel7, pair_smooth5, monkeypatch, eval_dtypes):
    pairs = (pair_n3, pair_hensel7, pair_smooth5)

    def results():
        return _scan_results(pairs, threads=1) + [
            cubic_singular_points_mod_p(pair.cubic) for pair in pairs
        ]

    expected = results()
    assert eval_dtypes == {np.dtype(np.int64)}
    eval_dtypes.clear()
    monkeypatch.setattr(forms, "INT64_LIMIT", 1)
    assert results() == expected
    assert eval_dtypes == {np.dtype(object)}


def test_centred_coefficients_keep_the_int64_path(eval_dtypes):
    # C = -x^3 mod 50 000: the coefficient is reduced to -1, not to q - 1, so
    # the bound (q - 1)^3 fits in int64 where (q - 1)^4 would not
    q = 50_000
    firsts = scan(make_pair(1, {(1, 1, 1): -1}, {}), q, lambda y, c, qq: int(c[1]))
    assert firsts[0] == q - 1 and eval_dtypes == {np.dtype(np.int64)}


def test_primitive_counts(pair_hensel7):
    [(n_all, n_prim)] = counts(hensel_stable(pair_hensel7, 7, 1), pair_hensel7.n)
    assert n_all == direct_count(pair_hensel7, 7)
    assert n_all == n_prim + 1  # zero vector is the only imprimitive solution


# ----------------------------------------------------------- primality test

def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 50_000) if is_prime(n)] == [
        n for n in range(2, 50_000) if factorize(n) == [(n, 1)]
    ]


@pytest.mark.parametrize("n,prime", [
    (2047, False),  # strong pseudoprime to base 2
    (3215031751, False),  # to the bases 2, 3, 5, 7
    (3825123056546413051, False),  # to the first 9 prime bases
    (318665857834031151167461, False),  # to the first 12 prime bases
    (3317044064679887385961981, False),  # to the first 13: rho splits it
    (999999999999989, True),
    (2**61 - 1, True),
    (999999999999989 * 1000003, False),
])
def test_is_prime_on_strong_pseudoprimes(n, prime):
    assert is_prime(n) is prime
