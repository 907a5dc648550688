"""Solution enumeration, weighted counts, and growth fits, against brute force."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab.counting import count_weighted, enumerate_solutions, weighted_sum
from circlelab.forms import eval_cubic, eval_quadratic
from circlelab.weightfn import Weight, weight_box

from conftest import fit_log_power, make_pair, omega


def brute_solutions(pair, box):
    """Independent oracle: full scan of the box."""
    out = []
    for x in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        if eval_cubic(pair.cubic, x) == 0 and eval_quadratic(pair.quadric, x) == 0:
            out.append(x)
    return out


def test_line_fixture_box(pair_line):
    box = [(-10, 10), (-10, 10)]
    sols = list(enumerate_solutions(pair_line, box))
    assert len(sols) == 21
    assert all(b == -a for a, b in sols)
    assert sols == brute_solutions(pair_line, box)
    assert sols == sorted(sols)  # lexicographic order


def test_empty_range(pair_line):
    assert list(enumerate_solutions(pair_line, [(3, 2), (0, 1)])) == []


def test_origin_only(pair_n1):
    assert list(enumerate_solutions(pair_n1, [(-5, 5)])) == [(0,)]


def test_fast_path_matches_full_scan():
    rng = random.Random(5)
    for trial in range(25):
        n = rng.randint(1, 3)
        cubic = {}
        for _ in range(rng.randint(1, 3)):
            idx = tuple(sorted(rng.randint(1, n) for _ in range(3)))
            cubic[idx] = cubic.get(idx, 0) + rng.randint(-3, 3)
        # diagonal quadric with a nonzero x_n^2 term: at most two roots per prefix
        quad = {(i, i): rng.randint(-3, 3) for i in range(1, n + 1)}
        quad[(n, n)] = rng.choice([-2, -1, 1, 2])
        pair = make_pair(n, cubic, quad)
        box = [(rng.randint(-6, 0), rng.randint(0, 6)) for _ in range(n)]
        assert list(enumerate_solutions(pair, box)) == brute_solutions(pair, box)


def test_nondiagonal_fallback():
    pair = make_pair(2, {(1, 1, 2): 1}, {(1, 2): 1})
    box = [(-4, 4), (-4, 4)]
    assert list(enumerate_solutions(pair, box)) == brute_solutions(pair, box)


@st.composite
def pairs_and_boxes(draw):
    """Pairs with n <= 4 whose quadric may have an x_n^2 term (of either
    sign), cross terms on x_n, or no monomial at all, in boxes that may be
    empty."""
    n = draw(st.integers(1, 4))
    coeff = st.integers(-3, 3)
    index = st.integers(1, n)
    triples = st.tuples(index, index, index).map(lambda t: tuple(sorted(t)))
    pairs = st.tuples(index, index).map(lambda t: tuple(sorted(t)))
    cubic = draw(st.dictionaries(triples, coeff, max_size=3))
    quad = draw(st.dictionaries(pairs, coeff, max_size=4))
    quad.update(draw(st.dictionaries(st.tuples(index, st.just(n)), coeff, max_size=2)))
    box = draw(st.lists(st.tuples(st.integers(-4, 2), st.integers(-2, 4)), min_size=n, max_size=n))
    return make_pair(n, cubic, quad), box


@settings(max_examples=300, deadline=None)
@given(pairs_and_boxes())
def test_enumeration_matches_brute_force(pair_box):
    pair, box = pair_box
    assert list(enumerate_solutions(pair, box)) == brute_solutions(pair, box)


def test_negation_symmetry(pair_line):
    # C odd and Q even under x -> -x, so the solution set is symmetric
    box = [(-8, 8), (-8, 8)]
    sols = set(enumerate_solutions(pair_line, box))
    assert sols == {tuple(-v for v in s) for s in sols}


@pytest.mark.parametrize("P", [0.5, math.inf, -math.inf, math.nan])
def test_weight_box_needs_a_finite_size(P):
    with pytest.raises(ValueError, match="P must be"):
        weight_box(Weight((0.0, 0.0), 0.4), P)


def test_count_weighted_single_point(pair_line):
    w = Weight((0.125, -0.125), 0.05)
    # only (2, -2)/16 lands in the support ball
    assert count_weighted(pair_line, 16, w) == pytest.approx(math.exp(-1), abs=1e-15)


def test_count_weighted_origin(pair_line, broad_weight):
    assert count_weighted(pair_line, 1, broad_weight) == pytest.approx(
        math.exp(-1), abs=1e-15
    )


def test_count_weighted_empty_support(pair_line):
    w = Weight((0.37, 0.29), 0.01)  # ball straddles no scaled solutions
    assert count_weighted(pair_line, 8, w) == 0.0


def test_count_weighted_matches_oracle(pair_line, broad_weight):
    P = 12.0
    box = [(-12, 12), (-12, 12)]
    oracle = sum(
        omega(broad_weight, [v / P for v in x])
        for x in brute_solutions(pair_line, box)
    )
    assert count_weighted(pair_line, P, broad_weight) == pytest.approx(oracle, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_weighted_sum_is_the_reference_sum_within_4_ulp(data):
    n = data.draw(st.integers(1, 4))
    w = Weight(data.draw(st.lists(st.floats(-0.2, 0.2), min_size=n, max_size=n)), data.draw(st.floats(0.05, 0.25)))
    P = data.draw(st.floats(1.0, 64.0))
    # points of the weight's box and one step beyond it on each side, where omega is 0
    point = st.tuples(*(st.integers(lo - 1, hi + 1) for lo, hi in weight_box(w, P)))
    solutions = data.draw(st.lists(point, max_size=60))
    want = math.fsum(omega(w, [v / P for v in x]) for x in solutions)
    assert abs(weighted_sum(solutions, P, w) - want) <= 4 * math.ulp(want)
    assert weighted_sum(iter(solutions), P, w) == weighted_sum(solutions, P, w)
    assert weighted_sum([], P, w) == 0.0


def test_fit_log_power_exact_square():
    ps = [8.0, 16.0, 32.0, 64.0]
    fit = fit_log_power(ps, [p * p for p in ps])
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.residual < 1e-12


def test_fit_log_power_constant():
    fit = fit_log_power([8.0, 16.0, 32.0], [5.0, 5.0, 5.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_errors():
    with pytest.raises(ValueError, match="at least 3"):
        fit_log_power([8.0, 16.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="nonzero"):
        fit_log_power([8.0, 16.0, 32.0], [1.0, 0.0, 2.0])


def test_growth_fit_line_fixture(pair_line, broad_weight):
    # the solution locus is the line t(1,-1): a 1-parameter family, so the
    # weighted count grows linearly (slope 1), not like P^{n-5}
    ps = [8.0, 16.0, 32.0, 64.0]
    fit = fit_log_power(ps, [count_weighted(pair_line, P, broad_weight) for P in ps])
    assert fit.slope == pytest.approx(1.0, abs=0.15)
