"""Weyl sums, complete sums, CRT multiplicativity, quadrature, Poisson."""

import cmath
import itertools
import math
import random
import warnings
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelab import expsums, gridsum, weightfn
from circlelab.expsums import (
    RationalApprox,
    complete_sum,
    crt_decomposition,
    osc_integral,
    poisson_reconstruct,
    theta_height,
    weyl_sum_direct,
    weyl_sums,
)
from circlelab.forms import separable_blocks
from circlelab.quadrature import MAX_LEVEL, MIN_LEVEL
from circlelab.util import CapExceededError
from circlelab.weightfn import Weight, nu_grid, omega_grid, support_chunks, weight_box

from conftest import (axis_nodes_weights, form_magnitudes, make_pair, omega, one_block_pairs, seeded_grid,
                      separable_pairs, smooth_factor)


def _trapezoid(y, x):
    """Trapezoid rule on the sample points x (np.trapezoid needs numpy 2)."""
    return np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2


def brute_complete_sum(pair, q, a3, a2, m):
    """Independent oracle: literal sum over residue vectors with cmath."""
    n = pair.n
    total = 0j
    for y in itertools.product(range(q), repeat=n):
        c = sum(
            coeff * y[i - 1] * y[j - 1] * y[k - 1]
            for (i, j, k), coeff in pair.cubic.monomials.items()
        )
        qv = sum(
            coeff * y[i - 1] * y[j - 1]
            for (i, j), coeff in pair.quadric.monomials.items()
        )
        t = a3 * c + a2 * qv + sum(mi * yi for mi, yi in zip(m, y))
        total += cmath.exp(2j * math.pi * (t % q) / q)
    return total


def brute_weight_mass(pair, P, weight):
    box = [
        (math.ceil((c - weight.xi) * P), math.floor((c + weight.xi) * P))
        for c in weight.center
    ]
    return sum(
        omega(weight, [v / P for v in x])
        for x in itertools.product(*[range(lo, hi + 1) for lo, hi in box])
    )


# ------------------------------------------------------------ direct sums

def test_direct_sum_zero_phase(pair_line, broad_weight):
    val = weyl_sum_direct(pair_line, 16, broad_weight, 0.0, 0.0)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real == pytest.approx(brute_weight_mass(pair_line, 16, broad_weight), rel=1e-12)


def test_direct_sum_single_lattice_point(pair_n1):
    w = Weight((0.25,), 0.05)
    # P * support = [1.6, 2.4] contains only x = 2
    val = weyl_sum_direct(pair_n1, 8, w, 0.37, 0.11)
    phase = cmath.exp(2j * math.pi * (0.37 * 8 + 0.11 * 4))
    assert val == pytest.approx(omega(w, [0.25]) * phase, abs=1e-13)
    assert abs(val) == pytest.approx(omega(w, [0.25]), abs=1e-13)


def test_direct_sum_hand_case(pair_n1):
    w = Weight((0.25,), 0.1)
    val = weyl_sum_direct(pair_n1, 8, w, 1.0 / 3.0, 0.0)
    expected = math.exp(-1) * cmath.exp(2j * math.pi * 8.0 / 3.0)
    assert val == pytest.approx(expected, abs=1e-13)


def test_direct_sum_modulus_bound(pair_line, broad_weight):
    rng = random.Random(31)
    mass = brute_weight_mass(pair_line, 12, broad_weight)
    for _ in range(20):
        val = weyl_sum_direct(
            pair_line, 12, broad_weight, rng.uniform(0, 1), rng.uniform(0, 1)
        )
        assert abs(val) <= mass + 1e-9


def test_direct_sum_thread_determinism(pair_line, pair_n3, broad_weight):
    a3, a2 = 0.311, 0.729
    base = weyl_sum_direct(pair_line, 24, broad_weight, a3, a2, threads=1)
    for threads in (2, 5):
        assert weyl_sum_direct(pair_line, 24, broad_weight, a3, a2, threads=threads) == base
    # the 33^3 box at P = 40 exceeds one support box of either kernel
    w = Weight((0.0, 0.0, 0.0), 0.4)
    assert len(support_chunks(w, 40, weight_box(w, 40), [0.0] * 3, 2 * weightfn.CHUNK)) > 1
    # a diagonal pair (three blocks), a pair with blocks {x1, x2} and {x3},
    # and a non-diagonal pair that is one block
    two_blocks = make_pair(3, {(1, 1, 1): 1, (1, 2, 2): -2, (3, 3, 3): 3}, {(1, 2): 1, (3, 3): -1})
    one_block = make_pair(3, {(1, 1, 1): 1, (2, 2, 2): 2, (3, 3, 3): -1, (1, 2, 3): 1},
                          {(1, 1): 1, (2, 2): 1, (3, 3): -2, (1, 2): 1, (2, 3): 1})
    assert [len(separable_blocks(p)) for p in (pair_n3, two_blocks, one_block)] == [3, 2, 1]
    for pair in (pair_n3, two_blocks, one_block):
        base = weyl_sum_direct(pair, 40, w, a3, a2, threads=1)
        for threads in (2, 3):
            assert weyl_sum_direct(pair, 40, w, a3, a2, threads=threads) == base


def oracle_weyl_sum(pair, P, weight, alpha3, alpha2):
    """(S, mass): the literal sum of omega(x/P) e(alpha3 C(x) + alpha2 Q(x))
    over the weight's box, and the sum of the weights.  The forms are
    Python ints and the phase is reduced mod 1 in Fraction arithmetic, so
    the only rounding is float() of the reduced phase, math.cos, math.sin
    and the products with omega; the terms are added by math.fsum."""
    box = [
        (math.ceil((c - weight.xi) * P), math.floor((c + weight.xi) * P))
        for c in weight.center
    ]
    a3, a2 = Fraction(alpha3), Fraction(alpha2)
    re, im, mass = [], [], []
    for x in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        w = omega(weight, [v / P for v in x])
        if w == 0.0:
            continue
        c = sum(coeff * x[i - 1] * x[j - 1] * x[k - 1] for (i, j, k), coeff in pair.cubic.monomials.items())
        q = sum(coeff * x[i - 1] * x[j - 1] for (i, j), coeff in pair.quadric.monomials.items())
        t = a3 * c + a2 * q
        angle = 2 * math.pi * float(t - round(t))
        re.append(w * math.cos(angle))
        im.append(w * math.sin(angle))
        mass.append(w)
    return complex(math.fsum(re), math.fsum(im)), math.fsum(mass)


@st.composite
def block_monomials(draw):
    """(n, cubic, quadric) built block by block: n in {3, 4} variables, in
    random order, cut into a block of two and blocks of one or two.  A
    monomial in both variables joins each block of two; the other monomials
    stay within their block."""
    n = draw(st.integers(3, 4))
    order = draw(st.permutations(range(1, n + 1)))
    sizes = [2] + (draw(st.sampled_from([[1, 1], [2]])) if n == 4 else [1])
    cubic, quad = {}, {}
    nonzero = st.integers(1, 3).flatmap(lambda c: st.sampled_from([c, -c]))
    start = 0
    for size in sizes:
        block = sorted(order[start:start + size])
        start += size
        if size == 2:
            i, j = block
            join = draw(st.sampled_from([(i, i, j), (i, j, j), (i, j)]))
            (cubic if len(join) == 3 else quad)[join] = draw(nonzero)
        var = st.sampled_from(block)
        for _ in range(draw(st.integers(0, 2))):
            key = tuple(sorted(draw(st.lists(var, min_size=2, max_size=3))))
            (cubic if len(key) == 3 else quad).setdefault(key, draw(st.integers(-3, 3)))
    return n, cubic, quad


@st.composite
def weyl_cases(draw):
    """A pair (random monomials with n <= 3 and P <= 12, or built block by
    block with n <= 4 and P <= 8), a weight (free, with its support's edge
    on lattice points, or with an empty box), a chunk size and three alphas."""
    if draw(st.booleans()):
        n, cubic, quad = draw(block_monomials())
        P = draw(st.integers(1, 8))
    else:
        n = draw(st.integers(1, 3))
        P = draw(st.integers(1, 12))
        coeff = st.integers(-3, 3)
        index = st.integers(1, n)
        cubic = draw(st.dictionaries(st.tuples(index, index, index).map(lambda t: tuple(sorted(t))), coeff, max_size=4))
        quad = draw(st.dictionaries(st.tuples(index, index).map(lambda t: tuple(sorted(t))), coeff, max_size=4))
    kind = draw(st.sampled_from(["free", "edge", "empty"]))
    if kind == "free":
        xi = draw(st.floats(0.05, 0.45))
        center = draw(st.lists(st.floats(-0.45, 0.45), min_size=n, max_size=n))
    elif kind == "edge":
        # centre a/P and radius r/P: the ends of every axis are lattice points
        r = draw(st.integers(1, max(1, P // 2)))
        center = [a / P for a in draw(st.lists(st.integers(-r, r), min_size=n, max_size=n))]
        xi = r / P
    else:
        # the first axis [P c0 - 0.2, P c0 + 0.2] holds no integer
        xi = 0.2 / P
        center = [(draw(st.integers(-P, P)) + 0.5) / P] + draw(st.lists(st.floats(-0.4, 0.4), min_size=n - 1, max_size=n - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # supports outside (-1/2, 1/2)^n are fine here
        weight = Weight(tuple(center), xi)
    chunk = draw(st.sampled_from([1, 5, 64, weightfn.CHUNK]))
    alphas = draw(st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), min_size=3, max_size=3))
    return make_pair(n, cubic, quad), P, weight, chunk, alphas


@settings(max_examples=150, deadline=None)
@given(weyl_cases())
def test_weyl_sums_match_the_scalar_oracle(case):
    pair, P, weight, chunk, alphas = case
    with patch.object(weightfn, "CHUNK", chunk):
        sums = weyl_sums(pair, P, weight, alphas)
        singles = [weyl_sum_direct(pair, P, weight, a3, a2) for a3, a2 in alphas]
    # one call for many alphas gives each alpha's sum bit for bit
    assert sums == singles
    for (a3, a2), value in zip(alphas, sums):
        expected, mass = oracle_weyl_sum(pair, P, weight, a3, a2)
        # relative to the weight mass, the scale of every term's size
        assert abs(value - expected) <= 1e-12 * mass
        if mass == 0.0:
            assert value == 0.0


@pytest.mark.parametrize("chunk", [16, 256])
def test_block_tables_over_the_box_and_per_chunk_agree(chunk):
    # blocks {x1, x3} and {x2}.  With CHUNK = 256 the 11 x 11 table of the
    # first block covers the whole box for one alpha, and for three alphas
    # each chunk's sub-box, two x1-slices wide; with CHUNK = 16 every table
    # is per chunk.  Either way each alpha's sum is the same bit for bit.
    # The block's cubic -x3^3 is constant along x1, so its values are
    # broadcast along the block's first axis
    pair = make_pair(3, {(3, 3, 3): -1, (2, 2, 2): 1}, {(1, 3): 1, (1, 1): 2, (2, 2): 3})
    assert separable_blocks(pair) == [(0, 2), (1,)]
    w = Weight((0.01, -0.01, 0.0), 0.4)
    alphas = [(0.3141, 0.2718), (-1.618, 0.5772), (2.5029, -0.6931)]
    with patch.object(weightfn, "CHUNK", chunk):
        assert all(hi - lo + 1 == 11 for lo, hi in weight_box(w, 13))
        sums = weyl_sums(pair, 13, w, alphas)
        assert sums == [weyl_sum_direct(pair, 13, w, a3, a2) for a3, a2 in alphas]
    for (a3, a2), value in zip(alphas, sums):
        expected, mass = oracle_weyl_sum(pair, 13, w, a3, a2)
        assert abs(value - expected) <= 1e-12 * mass


# a one-block pair (the point kernel) and a diagonal pair (the block tables)
# at P = 150 on a weight away from the origin: alpha3 C + alpha2 Q reaches
# about 10^6 on its support, where a double holds it only to about 10^-10,
# and float phases put these sums 4.9e-13 to 4.1e-12 times the weight mass off
@pytest.mark.parametrize("pair,blocks", [
    (make_pair(3, {(1, 1, 1): 2, (2, 2, 2): -3, (3, 3, 3): 1, (1, 2, 3): -2},
               {(1, 1): 1, (2, 2): -2, (3, 3): 3, (1, 2): 2, (2, 3): -1}), 1),
    (make_pair(3, {(1, 1, 1): 2, (2, 2, 2): -3, (3, 3, 3): 1}, {(1, 1): 1, (2, 2): -2, (3, 3): 3}), 3),
], ids=["one_block", "diagonal"])
def test_direct_sums_have_exact_phases_at_large_P(pair, blocks):
    assert len(separable_blocks(pair)) == blocks
    w = Weight((0.3, -0.25, 0.2), 0.08)
    for a3, a2 in ((0.731058579, 0.268941421), (0.5772156649, -0.6931471806)):
        expected, mass = oracle_weyl_sum(pair, 150, w, a3, a2)
        assert abs(weyl_sum_direct(pair, 150, w, a3, a2) - expected) <= 1e-13 * mass


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.25)
@example(1.5)
@example(-3.0)
@example(2.0**-12)
@example(-(2.0**-12))
@example(2.0**-13 + 2.0**-70)
@example(5e-324)
@example(-5e-324)
@example(1e300)
def test_alpha_is_a_64_bit_turn(alpha):
    # A / 2^64 is alpha mod 1 exactly when that is a multiple of 2^-64, as
    # for every double with |alpha| >= 2^-12, and within 2^-65 of it otherwise
    turn = expsums._turn(alpha)
    assert 0 <= turn < 2**64
    frac = Fraction(alpha) % 1
    if abs(alpha) >= 2.0**-12:
        assert (frac * 2**64).denominator == 1
    if (frac * 2**64).denominator == 1:
        assert Fraction(turn, 2**64) == frac
    else:
        gap = abs(Fraction(turn, 2**64) - frac)
        assert min(gap, 1 - gap) <= Fraction(1, 2**65)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_a_non_finite_alpha_is_refused(pair_n3, alpha):
    w = Weight((0.0, 0.0, 0.0), 0.4)
    with pytest.raises(ValueError, match="alpha must be finite"):
        weyl_sum_direct(pair_n3, 10, w, alpha, 0.1)
    with pytest.raises(ValueError, match="alpha must be finite"):
        weyl_sums(pair_n3, 10, w, [(0.1, 0.2), (0.3, alpha)])
    # also where the box holds no lattice point
    with pytest.raises(ValueError, match="alpha must be finite"):
        weyl_sum_direct(pair_n3, 1, Weight((0.25, 0.0, 0.0), 0.05), alpha, 0.1)


@st.composite
def support_cases(draw):
    """A weight, a box size and an index box whose index k on axis i
    stands for origin_i + k/P: either the lattice box of P times the
    support ball (origin 0), or the whole quadrature grid with m intervals
    per axis (origin c - xi, P = m/(2 xi)), which quadrature.grid_contract
    cuts, or its rows [lo, hi] of axis 0, with the grid's own nodes as the
    points.  The sizes include both that the callers pass: weightfn.CHUNK
    (the quadrature and the block kernel) and 2 weightfn.CHUNK (the point
    kernel of the Weyl sums)."""
    n = draw(st.integers(1, 4))
    center = draw(st.lists(st.floats(-0.45, 0.45), min_size=n, max_size=n))
    xi = draw(st.floats(0.02, 0.45))
    chunk = draw(st.sampled_from([1, 17, 300, weightfn.CHUNK, 2 * weightfn.CHUNK]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        weight = Weight(tuple(center), xi)
    if draw(st.booleans()):
        return _lattice_case(weight, chunk, draw(st.integers(1, 60 if n < 4 else 12)))
    m = draw(st.integers(2, 64 if n < 4 else 16))
    box = [(0, m)] * n
    if draw(st.booleans()):
        lo = draw(st.integers(0, m))
        box[0] = (lo, draw(st.integers(lo, m)))
    return _grid_case(weight, chunk, m, box)


def _lattice_case(weight, chunk, P):
    box = weight_box(weight, P)
    points = [np.arange(lo, hi + 1) / P for lo, hi in box]
    return weight, chunk, P, box, [0.0] * weight.n, points


def _grid_case(weight, chunk, m, box):
    nodes = [axis_nodes_weights(c, weight.xi, m)[0] for c in weight.center]
    points = [x[a : b + 1] for x, (a, b) in zip(nodes, box)]
    return weight, chunk, m / (2.0 * weight.xi), box, [c - weight.xi for c in weight.center], points


@settings(max_examples=300, deadline=None)
@given(support_cases())
# the whole grid of a quadrature level at n = 3, cut into many boxes
@example(_grid_case(Weight((0.05, -0.05, 0.05), 0.3), 300, 32, [(0, 32)] * 3))
# the lattice box of a one-block direct sum at P = 60, 49^3 points, cut
# into the point kernel's boxes of 2 CHUNK
@example(_lattice_case(Weight((0.02, -0.03, 0.01), 0.4), 2 * weightfn.CHUNK, 60))
def test_support_chunks_cover_the_support(case):
    # the chunks hold at most the given size of points each, lie in the box
    # and cover every point of it where omega > 0 exactly once
    weight, chunk, P, box, origin, points = case
    if any(lo > hi for lo, hi in box):
        return
    n = len(box)
    axes = [x.reshape((1,) * i + (-1,) + (1,) * (n - 1 - i)) for i, x in enumerate(points)]
    inside = omega_grid(weight, axes) > 0
    subs = support_chunks(weight, P, box, origin, chunk)
    covered = np.zeros(inside.shape, dtype=int)
    for sub in subs:
        assert math.prod(hi - lo + 1 for lo, hi in sub) <= chunk
        assert all(blo <= lo <= hi <= bhi for (lo, hi), (blo, bhi) in zip(sub, box))
        covered[tuple(slice(lo - blo, hi - blo + 1) for (lo, hi), (blo, _) in zip(sub, box))] += 1
    assert covered.max(initial=0) <= 1
    assert covered[inside].all()


def test_weyl_sums_charge_the_box_once(pair_n3):
    w = Weight((0.0, 0.0, 0.0), 0.4)
    alphas = [(0.1 * i, 0.2 * i) for i in range(9)]
    assert len(weyl_sums(pair_n3, 10, w, alphas, cap=9**3)) == 9
    with pytest.raises(CapExceededError, match="lattice box: 729 elements exceeds cap 728"):
        weyl_sums(pair_n3, 10, w, alphas, cap=9**3 - 1)


# ---------------------------------------------------------- complete sums

def test_complete_sum_q1(pair_line):
    assert complete_sum(pair_line, 1, 1, 1, [0, 0]) == 1.0 + 0.0j


def test_complete_sum_cubic_quadric_q3(pair_n1):
    val = complete_sum(pair_n1, 3, 1, 1, [0])
    expected = 1.5 - math.sqrt(3) / 2 * 1j  # oracle-verified hand value
    assert val == pytest.approx(expected, abs=1e-12)
    assert abs(val) == pytest.approx(math.sqrt(3), abs=1e-12)


def test_complete_sum_gauss(pair_n1):
    # a3 = q kills the cubic phase; the quadratic Gauss sum has |S| = sqrt(q)
    val = complete_sum(pair_n1, 5, 5, 1, [0])
    assert val == pytest.approx(math.sqrt(5) + 0j, abs=1e-12)


def test_complete_sum_matches_brute_force():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 3)
        cubic = {
            tuple(sorted(rng.randint(1, n) for _ in range(3))): rng.randint(-4, 4)
            for _ in range(2)
        }
        quad = {
            tuple(sorted(rng.randint(1, n) for _ in range(2))): rng.randint(-4, 4)
            for _ in range(2)
        }
        pair = make_pair(n, cubic, quad)
        q = rng.randint(2, 9)
        a3, a2 = rng.randint(1, q), rng.randint(1, q)
        m = [rng.randint(-5, 5) for _ in range(n)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = complete_sum(pair, q, a3, a2, m)
        assert got == pytest.approx(brute_complete_sum(pair, q, a3, a2, m), abs=1e-9)


def test_complete_sum_modulus_bound_and_periodicity(pair_n3):
    q = 6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = complete_sum(pair_n3, q, 2, 3, [1, 0, 2])
        assert abs(base) <= q**3
        assert complete_sum(pair_n3, q, 2 + q, 3, [1, 0, 2]) == pytest.approx(base, abs=1e-12)
        assert complete_sum(pair_n3, q, 2, 3 + q, [1, 0, 2]) == pytest.approx(base, abs=1e-12)
        assert complete_sum(pair_n3, q, 2, 3, [1 + q, 0, 2]) == pytest.approx(base, abs=1e-12)


def test_complete_sum_conjugation(pair_n3):
    q = 7
    a3, a2 = 3, 5
    m = [2, 6, 1]
    lhs = complete_sum(pair_n3, q, q - a3, q - a2, [(-v) % q for v in m])
    rhs = complete_sum(pair_n3, q, a3, a2, m)
    assert lhs == pytest.approx(rhs.conjugate(), abs=1e-12)


def test_complete_sum_gcd_warning(pair_n1):
    with pytest.warns(UserWarning, match="gcd"):
        complete_sum(pair_n1, 4, 2, 2, [0])


# ---------------------------------------------------------------- CRT route

def crt_product(pair, q, a3, a2, m):
    """S(a, q; m) as the product of its crt_decomposition factors."""
    return math.prod(f.value for f in crt_decomposition(pair, q, a3, a2, m))


def test_crt_prime_power_identical(pair_n1):
    for q in (2, 4, 9, 27):
        a3, a2 = 1, 1
        assert crt_product(pair_n1, q, a3, a2, [0]) == pytest.approx(
            complete_sum(pair_n1, q, a3, a2, [0]), abs=1e-12
        )


def test_crt_q6_example(pair_n1):
    lhs = complete_sum(pair_n1, 6, 1, 1, [1])
    rhs = crt_product(pair_n1, 6, 1, 1, [1])
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_crt_twist_q12(pair_n1):
    # factor 4 of q = 12 gets the cofactor t = 3 twist (9 a3 mod 4, 3 a2 mod 4)
    a3, a2 = 1, 1
    factors = {f.modulus: f for f in crt_decomposition(pair_n1, 12, a3, a2, [0])}
    assert factors[4].a3 == 9 * a3 % 4
    assert factors[4].a2 == 3 * a2 % 4
    assert factors[3].a3 == 16 * a3 % 3
    assert factors[3].a2 == 4 * a2 % 3


def test_crt_random_instances():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 3)
        pair = make_pair(
            n,
            {tuple(sorted(rng.randint(1, n) for _ in range(3))): rng.randint(-3, 3)},
            {tuple(sorted(rng.randint(1, n) for _ in range(2))): rng.randint(-3, 3)},
        )
        q = rng.randint(2, 60)
        a3, a2 = rng.randint(1, q), rng.randint(1, q)
        m = [rng.randint(-2, 2)] * n
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            direct = complete_sum(pair, q, a3, a2, m)
            via_crt = crt_product(pair, q, a3, a2, m)
        assert abs(direct - via_crt) <= 1e-9 * q**n


# ------------------------------------------------------ oscillatory integral

def test_osc_integral_positive_mass(pair_n1):
    w = Weight((0.25,), 0.1)
    res = osc_integral(pair_n1, w, 0.0, 0.0, [0.0], tol=1e-10)
    assert res.value.real > 0
    assert abs(res.value.imag) < 1e-10
    assert res.error < 1e-10


def test_osc_integral_even_symmetry(pair_n1):
    # omega even about 0 and pure z-phase: the integral is real
    w = Weight((0.0,), 0.2)
    res = osc_integral(pair_n1, w, 0.0, 0.0, [3.0], tol=1e-10)
    assert abs(res.value.imag) < 1e-10


def test_osc_integral_riemann_oracle(pair_n1):
    w = Weight((0.25,), 0.1)
    res = osc_integral(pair_n1, w, 2.0, -1.0, [0.0], tol=1e-8)
    xs = np.linspace(0.15, 0.35, 10**6 + 1)
    vals = nu_grid(np.abs(xs - 0.25) / 0.1) * np.exp(2j * np.pi * (2 * xs**3 - xs**2))
    oracle = _trapezoid(vals, xs)
    assert res.value == pytest.approx(oracle, abs=1e-6)


def test_osc_integral_in_five_dimensions():
    # at gamma = z = 0 the integral is the mass of the bump, a radial
    # integral: xi^5 |S^4| int_0^1 nu(t) t^4 dt with |S^4| = 8 pi^2 / 3
    pair = make_pair(5, {(1, 1, 1): 1}, {(1, 1): 1})
    w = Weight((0.0,) * 5, 0.2)
    res = osc_integral(pair, w, 0.0, 0.0, [0.0] * 5, tol=1e-6)
    t = np.linspace(0.0, 1.0, 200001)
    mass = 0.2**5 * 8 * math.pi**2 / 3 * _trapezoid(nu_grid(t) * t**4, t)
    assert res.error < 1e-6
    assert res.value == pytest.approx(mass, rel=1e-6)


def test_osc_integral_no_convergence(pair_n1):
    # a phase faster than the finest grid resolves cannot stabilize within
    # the depth limit: the slope majorant 3 m^2 |gamma3| = 0.6075 * 2.5e4 runs
    # through 6075 cycles across 2 xi = 0.4, under the refusal's 16 * 4096
    from circlelab.quadrature import QuadratureError

    w = Weight((0.25,), 0.2)
    with pytest.raises(QuadratureError, match="no convergence"):
        osc_integral(pair_n1, w, 2.5e4, 0.0, [0.0], tol=1e-12)
    # an absurdly fast one is refused before any level is computed
    with pytest.raises(ValueError, match="cycles along an axis"):
        osc_integral(pair_n1, w, 5.0e7, 0.0, [0.0], tol=1e-12)


def test_poisson_cap(pair_n1):
    from circlelab.util import CapExceededError

    w = Weight((0.25,), 0.2)
    approx = RationalApprox(101, 1, 1, 0.0, 0.0)
    # the residue grid is charged by gridsum.scan, in its wording
    message = r"^residue grid q\^n = 101\^1 = 101 exceeds cap 50$"
    with pytest.raises(CapExceededError, match=message):
        poisson_reconstruct(pair_n1, 8, w, approx, 4, cap=50)
    # the m-grid (2M+1)^n is charged before any quadrature grid
    approx = RationalApprox(2, 1, 1, 0.0, 0.0)
    message = r"^poisson m-grid \(2M\+1\)\^n = 9\^1: 9 elements exceeds cap 8$"
    with pytest.raises(CapExceededError, match=message):
        poisson_reconstruct(pair_n1, 8, w, approx, 4, cap=8)


@pytest.mark.parametrize("P", [0.0, -3.0, 0.5, math.nan])
def test_poisson_needs_a_finite_P_of_at_least_one(pair_n1, P):
    # the rule of weightfn.weight_box, before any scan or division by P
    approx = RationalApprox(2, 1, 1, 0.0, 0.0)
    with pytest.raises(ValueError, match="^P must be "):
        expsums.default_truncation(approx, P)
    with pytest.raises(ValueError, match="^P must be "):
        poisson_reconstruct(pair_n1, P, Weight((0.25,), 0.2), approx, 2)


# -------------------------------------------------------------- theta height

def test_theta_height_examples():
    assert theta_height(RationalApprox(1, 1, 1, 0.0, 0.0), 10) == 1.0
    assert theta_height(RationalApprox(1, 1, 1, 10.0**-3, 0.0), 10) == pytest.approx(2.0)
    assert theta_height(
        RationalApprox(1, 1, 1, 2e-3, 1e-2), 10
    ) == pytest.approx(4.0)


def test_rational_approx_validation():
    with pytest.raises(ValueError):
        RationalApprox(0, 1, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        RationalApprox(3, 4, 1, 0.0, 0.0)
    with pytest.warns(UserWarning, match="gcd") as record:
        RationalApprox(4, 2, 2, 0.0, 0.0)
    # the warning names the line that built the approximation, not the dataclass's __init__
    assert [w.filename for w in record] == [__file__]


# ------------------------------------------------------ Poisson reconstruction

def test_poisson_pure_bump(pair_n1):
    # q = 1, theta = 0: the reconstruction resums the smooth bump exactly
    w = Weight((0.25,), 0.1)
    approx = RationalApprox(1, 1, 1, 0.0, 0.0)
    val = poisson_reconstruct(pair_n1, 8, w, approx, 48)
    mass = brute_weight_mass(pair_n1, 8, w)
    assert val == pytest.approx(mass + 0j, abs=1e-6)


def test_poisson_matches_direct(pair_n1):
    w = Weight((0.2,), 0.25)
    approx = RationalApprox(2, 1, 1, 1e-3, 0.0)
    direct = weyl_sum_direct(pair_n1, 8, w, approx.alpha3, approx.alpha2)
    recon = poisson_reconstruct(pair_n1, 8, w, approx, 64)
    assert abs(direct - recon) / (1 + abs(direct)) < 1e-4


def test_poisson_m0_reproduces_main_term(pair_n1):
    w = Weight((0.2,), 0.25)
    approx = RationalApprox(2, 1, 1, 1e-3, 2e-3)
    P = 8.0
    recon = poisson_reconstruct(pair_n1, P, w, approx, 0)
    s_aq = complete_sum(pair_n1, 2, 1, 1, [0])
    integral = osc_integral(pair_n1, w, approx.theta3 * P**3, approx.theta2 * P**2, [0.0], tol=1e-10)
    main = P / 2 * s_aq * integral.value
    assert recon == pytest.approx(main, rel=1e-6)


def test_poisson_grid_does_not_depend_on_chunking(monkeypatch):
    # the phase grid is concatenated from gridsum.scan chunks: 7^2 = 49
    # residues of an asymmetric pair in chunks of 5, the last one short
    pair = make_pair(2, {(1, 1, 1): 1, (1, 1, 2): 2, (2, 2, 2): -1}, {(1, 2): 1, (2, 2): 3})
    w = Weight((0.1, -0.1), 0.3)
    approx = RationalApprox(7, 3, 5, 1e-4, 1e-3)
    expected = poisson_reconstruct(pair, 8, w, approx, 4)
    monkeypatch.setattr(gridsum, "CHUNK", 5)
    assert poisson_reconstruct(pair, 8, w, approx, 4) == expected


def test_poisson_error_decreases_with_m(pair_line):
    w = Weight((0.1, -0.1), 0.3)
    approx = RationalApprox(2, 1, 1, 1e-4, 1e-3)
    direct = weyl_sum_direct(pair_line, 8, w, approx.alpha3, approx.alpha2)
    errs = []
    for M in (16, 32, 64):
        recon = poisson_reconstruct(pair_line, 8, w, approx, M)
        errs.append(abs(direct - recon))
    assert errs[1] <= errs[0] + 1e-9
    assert errs[2] <= errs[1] + 1e-9


def test_phase_size_is_refused_from_2_to_the_52():
    # C = 4 x1^3 and Q = x1^2 on |x1| <= 1/4: C+(m) = Q+(m) = 1/16 and m =
    # 1/4, so each phase below reaches exactly 2^52 at its refused value
    pair, w = make_pair(1, {(1, 1, 1): 4}, {(1, 1): 1}), Weight((0.0,), 0.25)
    below = np.nextafter(2.0**56, 0.0)
    for gamma3, gamma2, z in ((2.0**56, 0.0, [0.0]), (0.0, -(2.0**56), [0.0]), (2.0**55, 2.0**55, [0.0]),
                              (0.0, 0.0, [2.0**54])):
        with pytest.raises(ValueError, match=r"the phase of I\(gamma; z\) .* may reach 4\.5e\+15 >= 2\^52"):
            expsums.check_phase_size(pair, w, gamma3, gamma2, z, "I(gamma; z) at gamma")
        with pytest.raises(ValueError, match="2\\^52"):
            osc_integral(pair, w, gamma3, gamma2, z)
    expsums.check_phase_size(pair, w, below, 0.0, [0.0], "I")
    expsums.check_phase_size(pair, w, 0.0, 0.0, [np.nextafter(2.0**54, 0.0)], "I")
    # a form with no monomials adds nothing, whatever its gamma: on Q =
    # x1^2 with an empty cubic, gamma3 C is identically 0
    quadric_only = make_pair(1, {}, {(1, 1): 1})
    expsums.check_phase_size(quadric_only, w, 2.0**56, 0.0, [0.0], "I")
    expsums.check_phase_size(quadric_only, w, 1e300, below, [0.0], "I")
    with pytest.raises(ValueError, match="2\\^52"):
        expsums.check_phase_size(quadric_only, w, 0.0, 2.0**56, [0.0], "I")
    # a pair with no monomials has no phase but that of z
    expsums.check_phase_size(make_pair(1, {}, {}), w, 1e300, 1e300, [0.0], "I")


def test_osc_integral_starts_where_the_grid_resolves_z():
    # z = (4e4, 0) runs through 16000 cycles across 2 xi = 0.4, and 16000 /
    # 2^L is an integer for L <= 7: every node of levels 3-7 sits at the
    # same phase of z.x, so those levels agreed on the mass of omega
    # (0.018660495726 at level 7), not on omega-hat(z), which is about 0.
    # Two intervals per cycle take level 15, past the depth limit
    pair, w = make_pair(2, {(1, 1, 1): 1}, {}), Weight((0.1, -0.05), 0.2)
    with pytest.raises(ValueError, match=r"z in I\(gamma; z\) at gamma = \(0\.0, 0\.0\), z = \[40000\.0, 0\.0\] "
                       r"runs through 1\.6e\+04 cycles along an axis of the weight's support; two grid intervals "
                       r"per cycle take quadrature level 15"):
        osc_integral(pair, w, 0.0, 0.0, [4.0e4, 0.0])
    # where the grid can resolve z it starts there.  z = (1280, 0) runs
    # through 512 cycles, an integer number per interval up to level 9, so
    # a refinement from level 3 returned the mass at level 8; from level 10
    # it finds I(0; z) = omega-hat(z), which is about 0 this far out
    res = osc_integral(pair, w, 0.0, 0.0, [1280.0, 0.0], tol=1e-10)
    assert res.level == 11
    mass = osc_integral(pair, w, 0.0, 0.0, [0.0, 0.0], tol=1e-10).value.real
    assert mass == pytest.approx(0.018660495727, rel=1e-10)
    assert abs(res.value) < 1e-12 * mass


def test_unresolvable_phase_is_refused_past_the_margin():
    # Q = x1^2 on |x1| <= 1/4: the slope majorant of gamma2 Q - z x1 is
    # 2 m |gamma2| + |z| = |gamma2|/2 + |z| across 2 xi = 1/2, so the phase
    # runs through |gamma2|/4 + |z|/2 cycles; the refusal starts past
    # RESOLUTION_MARGIN 2^MAX_LEVEL = 16 * 4096 = 2^16 of them
    pair, w = make_pair(1, {}, {(1, 1): 1}), Weight((0.0,), 0.25)
    assert expsums.RESOLUTION_MARGIN * 2**MAX_LEVEL == 2**16
    for gamma2, z in ((2.0**18, 0.0), (-(2.0**18), 0.0), (0.0, 2.0**17), (2.0**17, -(2.0**16))):
        if z:
            # at the slope's edge z.x runs through |z|/2 >= 2^15 cycles: the
            # start-level rule, which check_phase applies after the slope
            # rule, refuses it
            with pytest.raises(ValueError, match=r"two grid intervals per cycle take quadrature level 1[67]"):
                expsums.check_phase(pair, w, 0.0, gamma2, [z], "I")
        else:
            assert expsums.check_phase(pair, w, 0.0, gamma2, [z], "I") == MIN_LEVEL
        with pytest.raises(ValueError, match=r"the phase of I may run through 6\.55e\+04 cycles along an axis "
                           r"of the weight's support, more than 16 times the 4096 intervals per axis of the "
                           r"depth-12 quadrature grid"):
            expsums.check_phase(pair, w, 0.0, gamma2 * (1 + 1e-12), [z * (1 + 1e-12)], "I")
    # gamma3 turns with the slope of C+ alone, 3 m^2 = 3/16: Q adds nothing to it
    pair3 = make_pair(1, {(1, 1, 1): -1}, {(1, 1): 1})
    edge = 2.0**16 / (0.5 * 3.0 / 16.0)
    assert expsums.check_phase(pair3, w, edge, 0.0, [0.0], "I") == MIN_LEVEL
    with pytest.raises(ValueError, match="cycles along an axis"):
        expsums.check_phase(pair3, w, edge * (1 + 1e-12), 0.0, [0.0], "I")
    # osc_integral runs both checks: far below 2^52, and refused for its slope
    with pytest.raises(ValueError, match="cycles along an axis"):
        osc_integral(pair3, w, 2 * edge, 0.0, [0.0])


@settings(max_examples=80, deadline=None)
@given(pair=separable_pairs(4, st.integers(-6, 6)), gamma3=st.floats(-60.0, 60.0), gamma2=st.floats(-60.0, 60.0),
       seed=st.integers(0, 2**32 - 1))
# diagonal, and x2 in no monomial with an empty Q
@example(pair=make_pair(3, {(1, 1, 1): 1, (2, 2, 2): -1, (3, 3, 3): 2}, {(1, 1): 1, (2, 2): -1, (3, 3): 3}),
         gamma3=1.5, gamma2=-2.0, seed=0)
@example(pair=make_pair(3, {(1, 1, 3): 2, (3, 3, 3): -1}, {}), gamma3=40.0, gamma2=3.0, seed=1)
def test_block_smooth_factor_matches_whole_pair(pair, gamma3, gamma2, seed):
    # omega prod_b e(gamma3 C_b + gamma2 Q_b) on the blocks' own axes equals
    # omega e(gamma3 C + gamma2 Q) from the whole forms, node by node, up to
    # the rounding of phases of total size s: about eps (1 + 2 pi s)
    w, axes = seeded_grid(pair.n, seed)
    got = expsums._smooth_factor(pair, w, gamma3, gamma2)(axes)
    want = smooth_factor(pair, w, gamma3, gamma2)(axes)
    size_c, size_q = form_magnitudes(pair, axes)
    size = abs(gamma3) * size_c + abs(gamma2) * size_q
    bound = 64 * np.finfo(float).eps * omega_grid(w, axes) * (1 + 2 * np.pi * size)
    assert np.all(np.abs(got - want) <= bound)


@one_block_pairs
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_block_smooth_factor_is_the_whole_phase(pair, seed):
    # a pair of one block goes through the block path with the whole forms,
    # so its factor is the whole-pair phase bit for bit
    assert len(separable_blocks(pair)) == 1
    w, axes = seeded_grid(pair.n, seed)
    got = expsums._smooth_factor(pair, w, 37.5, -11.25)(axes)
    assert np.array_equal(got, expsums._smooth_phase(pair, w, 37.5, -11.25, axes, [0.0] * pair.n))
    assert np.array_equal(got, smooth_factor(pair, w, 37.5, -11.25)(axes))


# ------------------------------------- square-root cancellation scan (report)

def test_sqrt_cancellation_scan(pair_n3, capsys):
    # report-only: the implied constants are not ours to assert, but the
    # normalized complete sums should sit near q^{n/2}, far below q^n
    from circlelab.gridsum import joint_histogram
    from circlelab.localdens import _complete_sums, _coprime_pair_mask

    worst = 0.0
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        sums = _complete_sums(joint_histogram(pair_n3, q))
        ratio = float(np.abs(sums[_coprime_pair_mask(q)]).max()) / q ** (3 / 2)
        worst = max(worst, ratio)
    print(f"sqrt-cancellation scan: max |S(a,q;0)| / q^(n/2) = {worst:.3f}")
    assert worst < 31 ** (3 / 2)  # trivially below q^n / q^(n/2)


def test_complete_sum_gcd_bound_scan(pair_n3, capsys):
    # empirical scan of the two Weyl-flavored bounds on S(a, q): normalized
    # by q^n (q/gcd(q,a3))^{-h/8} and by q^n gcd(q,a3)^{-rho/2}; the logged
    # constants should stay modest, the min of the two routes especially
    import math as m
    from circlelab.gridsum import joint_histogram
    from circlelab.localdens import _complete_sums

    h_inv = rho = 3  # diagonal nonsingular fixture in 3 variables
    worst = 0.0
    for q in range(2, 21):
        sums = _complete_sums(joint_histogram(pair_n3, q))
        for a3 in range(1, q + 1):
            for a2 in range(1, q + 1):
                if m.gcd(q, m.gcd(a3, a2)) != 1:
                    continue
                mag = abs(sums[a3 % q, a2 % q])
                g = m.gcd(q, a3)
                route1 = mag / (q**3 * (q / g) ** (-h_inv / 8))
                route2 = mag / (q**3 * g ** (-rho / 2))
                worst = max(worst, min(route1, route2))
    print(f"gcd-bound scan: max over (a, q <= 20) of min(route1, route2) = {worst:.3f}")
    assert worst < 40.0  # soft logged constant, far below the trivial q^n scale


def test_a_of_q_growth_report(pair_n3, capsys):
    # A(q) q^{-n} trace: convergence of the singular series needs dimensions
    # far beyond desk scale, so this only logs the observed sizes
    from circlelab.localdens import a_of_q

    rows = [(q, a_of_q(pair_n3, q) / q**3) for q in range(1, 16)]
    text = ", ".join(f"{q}:{v:.3f}" for q, v in rows)
    print(f"A(q)/q^n for q <= 15: {text}")
    assert all(v >= 0 for _, v in rows)
