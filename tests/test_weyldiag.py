"""Bilinear counts n(R), Weyl heights, approximation witnesses, grid scan."""

import math
import random

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circlelab import expsums, forms, weightfn, weyldiag
from circlelab.forms import CubicForm, bilinear_matrix, gradient_cubic
from circlelab.util import CapExceededError
from circlelab.weightfn import Weight, weight_box
from circlelab.weyldiag import (
    alpha3_witness,
    count_bilinear,
    heights_from_sum,
    minor_arc_scan,
)

from conftest import bilinear_forms, fit_log_power, full_scan_oracle, make_pair, separable_pairs


# --------------------------------------------------------------------- n(R)

def test_nr_single_cube():
    cubic = CubicForm(1, {(1, 1, 1): 1})
    assert count_bilinear(cubic, 5) == 17  # 4R - 3 axis pairs
    assert count_bilinear(cubic, 5) == full_scan_oracle(cubic, 5)


def test_nr_r1_only_origin():
    cubic = CubicForm(2, {(1, 1, 1): 1, (2, 2, 2): -3})
    assert count_bilinear(cubic, 1) == 1


def test_nr_zero_slab_lower_bound():
    # x = 0 contributes all (2R-1)^n vectors y, and symmetrically y = 0
    cubic = CubicForm(2, {(1, 1, 2): 2, (2, 2, 2): 1})
    R = 4
    side = (2 * R - 1) ** 2
    assert count_bilinear(cubic, R) >= 2 * side - 1


def test_nr_matches_full_scan():
    rng = random.Random(71)
    fixtures = [
        CubicForm(1, {(1, 1, 1): 2}),
        CubicForm(2, {(1, 1, 1): 1, (1, 1, 2): 1, (2, 2, 2): -2}),
        CubicForm(2, {(1, 2, 2): 3}),
        CubicForm(3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1}),
        CubicForm(3, {(1, 2, 3): 1, (1, 1, 1): 2}),
    ]
    for cubic in fixtures:
        for R in (2, 3, 4):
            if (2 * R - 1) ** (2 * cubic.n) > 10**6:
                continue
            assert count_bilinear(cubic, R) == full_scan_oracle(cubic, R)


@st.composite
def sparse_cubics(draw):
    """A sparse cubic (possibly zero) in n = 1..3 variables with R <= 4, or n = 4 with R = 2."""
    n = draw(st.integers(1, 4))
    keys = list(itertools.combinations_with_replacement(range(1, n + 1), 3))
    monomials = draw(st.dictionaries(st.sampled_from(keys), st.integers(-4, 4), max_size=4))
    return CubicForm(n, monomials), 2 if n == 4 else draw(st.integers(1, 4))


def _spy_dtypes(monkeypatch):
    """Record the dtype of every coordinate array count_bilinear builds M(x) from."""
    dtypes = set()

    def spy(cubic, x):
        dtypes.update(v.dtype for v in x if isinstance(v, np.ndarray))
        return bilinear_matrix(cubic, x)

    monkeypatch.setattr(weyldiag, "bilinear_matrix", spy)
    return dtypes


@pytest.mark.parametrize("limit,dtype", [(forms.INT64_LIMIT, np.int64), (1, object)],
                         ids=["int64", "object"])
@settings(max_examples=60, deadline=None)
@given(case=sparse_cubics())
@example(case=(CubicForm(3, {}), 4))
@example(case=(CubicForm(3, {(1, 1, 2): 1}), 4))
@example(case=(CubicForm(4, {(1, 1, 2): -3, (3, 4, 4): 2}), 2))
def test_nr_matches_full_scan_on_random_cubics(limit, dtype, case):
    # the zero cubic, rank-deficient ones such as x1^2 x2 and negative
    # coefficients, in int64 and, with INT64_LIMIT forced down, on objects
    cubic, R = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "INT64_LIMIT", limit)
        dtypes = _spy_dtypes(mp)
        assert count_bilinear(cubic, R) == full_scan_oracle(cubic, R)
    assert dtypes == {np.dtype(dtype)}


def test_nr_large_coefficient_takes_the_object_path(monkeypatch):
    cubic = CubicForm(3, {(1, 1, 2): 2**40, (2, 3, 3): -1, (3, 3, 3): 5})
    dtypes = _spy_dtypes(monkeypatch)
    assert count_bilinear(cubic, 3) == full_scan_oracle(cubic, 3)
    assert dtypes == {np.dtype(object)}


def test_nr_is_independent_of_chunking(monkeypatch):
    # BOX = 7 splits the x-box and every y-scan into many boxes
    monkeypatch.setattr(weightfn, "BOX", 7)
    for cubic in (
        CubicForm(3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1}),
        CubicForm(3, {(1, 2, 3): 1, (1, 1, 1): 2}),
        CubicForm(4, {(1, 1, 2): 1, (3, 3, 4): -2}),
    ):
        R = 2 if cubic.n == 4 else 3
        assert count_bilinear(cubic, R) == full_scan_oracle(cubic, R)


@settings(max_examples=60, deadline=None)
@given(pair=separable_pairs(6, st.integers(-4, 4)), R=st.integers(1, 4))
@example(pair=make_pair(6, {(i, i, i): 1 for i in range(1, 7)}, {}), R=3)
# blocks {x1, x2}, {x3} and {x4, x5} of the cubic, and x6 in no monomial
@example(pair=make_pair(6, {(1, 1, 2): 2, (2, 2, 2): -1, (3, 3, 3): 1, (4, 5, 5): 3}, {}), R=3)
def test_nr_is_the_product_over_the_cubic_blocks(pair, R):
    # the product of the blocks' counts is the count of one elimination
    # over the whole x-box, the oracle
    assume((2 * R - 1) ** pair.n <= 20_000)
    assert count_bilinear(pair.cubic, R) == weyldiag._count_whole(pair.cubic, R)


def test_nr_charges_the_blocks_x_ranges():
    # the diagonal cubic in 3 variables has three blocks of 19 x at R = 10
    cubic = CubicForm(3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1})
    assert count_bilinear(cubic, 10, cap=57) == 37**3
    with pytest.raises(CapExceededError, match=r"^bilinear count x-range: 57 elements exceeds cap 56$"):
        count_bilinear(cubic, 10, cap=56)


def test_nr_nondecreasing():
    cubic = CubicForm(2, {(1, 1, 1): 1, (2, 2, 2): 1})
    values = [count_bilinear(cubic, R) for R in (1, 2, 3, 4, 6, 8)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_nr_growth_exponent_soft():
    # nonsingular diagonal cubic in 3 variables: h = 3 so n(R) << R^{2n-h}
    cubic = CubicForm(3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1})
    rs = [4.0, 8.0, 16.0]
    counts = [float(count_bilinear(cubic, int(r))) for r in rs]
    fit = fit_log_power(rs, counts)
    print(f"n(R) growth exponent {fit.slope:.3f} (Davenport-Lewis scale 2n-h = 3)")
    assert fit.slope <= 3.5


def test_bilinear_matrix_consistency():
    rng = random.Random(73)
    cubic = CubicForm(3, {(1, 1, 2): 2, (1, 2, 3): -1, (3, 3, 3): 4})
    for _ in range(50):
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        y = [rng.randint(-5, 5) for _ in range(3)]
        m = bilinear_matrix(cubic, x)
        assert [sum(m[i][k] * y[k] for k in range(3)) for i in range(3)] == bilinear_forms(
            cubic, x, y
        )
        # independent of the tensor code: M(x) is the Hessian of C at x, and the
        # central difference of the gradient is exact for a cubic
        for k in range(3):
            step = [int(i == k) for i in range(3)]
            up = gradient_cubic(cubic, [a + b for a, b in zip(x, step)])
            down = gradient_cubic(cubic, [a - b for a, b in zip(x, step)])
            assert [2 * m[i][k] for i in range(3)] == [u - d for u, d in zip(up, down)]


# ------------------------------------------------------------------- heights

def test_heights_identities():
    h = heights_from_sum(32.0**1, 32.0, 1, 8, 4)
    assert h.t3 == pytest.approx(1.0) and h.t2 == pytest.approx(1.0)
    h = heights_from_sum(2.0**-8 * 32.0, 32.0, 1, 8, 4)
    assert h.t3 == pytest.approx(2.0, rel=1e-12)
    # T2 = T3^{h/rho} to 1e-12
    assert h.t2 == pytest.approx(h.t3 ** (8 / 4), rel=1e-12)
    h = heights_from_sum(0.0, 32.0, 1, 8, 4)
    assert math.isinf(h.t3) and math.isinf(h.t2)


def test_heights_relation_random():
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(1, 4)
        P = rng.uniform(4, 128)
        h_inv = rng.randint(1, 2 * n)
        rho = rng.randint(1, n)
        s_abs = rng.uniform(1e-6, P**n)
        heights = heights_from_sum(s_abs, P, n, h_inv, rho)
        assert heights.t2 == pytest.approx(heights.t3 ** (h_inv / rho), rel=1e-12)


# ------------------------------------------------------------------ witness

def test_witness_exact_rational():
    wit = alpha3_witness(3.0 / 7.0, 16.0, 1.5)
    assert (wit.s, wit.b3) == (7, 3)
    assert wit.phi3 == 0.0
    assert wit.lhs == 7.0


def test_witness_constructed_case():
    P = 32.0
    wit = alpha3_witness(0.5 + P**-3, P, 1.2)
    assert wit.s == 2 and wit.b3 == 1
    assert wit.phi3 == pytest.approx(P**-3, rel=1e-9)
    assert wit.lhs == pytest.approx(4.0, rel=1e-9)


def test_witness_golden_ratio_report():
    phi = (1 + math.sqrt(5)) / 2
    wit = alpha3_witness(phi % 1.0, 16.0, 2.0)
    print(f"golden-ratio witness: s={wit.s} lhs={wit.lhs:.2f} scale={wit.rhs_scale:.2f} ok={wit.ok}")
    assert wit.s >= 1 and math.isfinite(wit.lhs)


def test_witness_requires_finite_height():
    with pytest.raises(ValueError):
        alpha3_witness(0.3, 16.0, math.inf)


def loop_witness(alpha3, P, t3, eps=0.05):
    """(s, b3) of alpha3_witness by a Python loop over s, one at a time, the
    incumbent replaced only by a strictly smaller objective."""
    s_max = max(1, min(math.ceil(weyldiag.SOFT_CONSTANT * P**eps * t3**8), weyldiag.WITNESS_BUDGET))
    best = None
    for s in range(1, s_max + 1):
        if best is not None and s > best[0]:
            break
        objective = s + P**3 * abs(s * alpha3 - round(s * alpha3))
        if best is None or objective < best[0]:
            best = (objective, s, round(s * alpha3))
    _, s, b3 = best
    g = math.gcd(s, abs(b3)) if b3 else s
    return s // g, b3 // g


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.floats(0.0, 1.0),
        st.tuples(st.integers(0, 60), st.integers(1, 60), st.sampled_from([0.0, 1e-9, -3e-7, 2.0**-30]))
        .map(lambda t: t[0] / t[1] + t[2]),
    ),
    st.floats(1.0, 1000.0),
    st.floats(1.0, 4.5),
)
# the best objective sits past the first block of Q_BLOCK denominators
@example(0.5 ** 0.5, 1000.0, 4.0)
def test_witness_blocks_match_the_loop(alpha3, P, t3):
    wit = alpha3_witness(alpha3, P, t3)
    assert (wit.s, wit.b3) == loop_witness(alpha3, P, t3)


# ---------------------------------------------------------------- grid scan

def test_minor_arc_scan_rows(pair_line):
    pair = make_pair(
        2, dict(pair_line.cubic.monomials), dict(pair_line.quadric.monomials),
        cubic_nonsingular=True,
    )
    w = Weight((0.1, -0.1), 0.35)
    rows = minor_arc_scan(pair, 16.0, w, 3, seed=5)
    assert len(rows) == 9
    keys = {"alpha3", "alpha2", "abs_S", "is_major", "pigeon_q", "t3", "t2", "alt"}
    for row in rows:
        assert keys <= set(row)
        assert row["alt"] in ("i", "ii", "both", "none", "unclassifiable", None)


def test_minor_arc_scan_rational_alpha2(pair_line):
    # alpha2 with a tiny denominator should surface alternative (i) quickly
    pair = make_pair(
        2, dict(pair_line.cubic.monomials), dict(pair_line.quadric.monomials),
        cubic_nonsingular=True,
    )
    w = Weight((0.1, -0.1), 0.35)
    from circlelab.weyldiag import _u_search

    u = _u_search(alpha2=0.5, s=2, phi3=0.0, P=16.0, t2=4.0)
    assert u is not None and u <= 4


def test_minor_arc_scan_seed_determinism(pair_line):
    pair = make_pair(
        2, dict(pair_line.cubic.monomials), dict(pair_line.quadric.monomials),
        cubic_nonsingular=True,
    )
    w = Weight((0.1, -0.1), 0.35)
    rows_a = minor_arc_scan(pair, 8.0, w, 2, seed=9)
    rows_b = minor_arc_scan(pair, 8.0, w, 2, seed=9)
    assert rows_a == rows_b
    rows_c = minor_arc_scan(pair, 8.0, w, 2, seed=10)
    assert [r["alpha3"] for r in rows_a] != [r["alpha3"] for r in rows_c]


def test_minor_arc_scan_dichotomy_rows(pair_line, monkeypatch):
    # the rows that no sum of a desk-scale scan reaches: |S| = 0, and
    # alternative (i) alone, (ii) alone and neither.  The nonzero sums exceed
    # P^n = 256, so that T3 = T2 = (P^n / |S|)^(1/2) < 1 (h = rho = 2)
    pair = make_pair(
        2, dict(pair_line.cubic.monomials), dict(pair_line.quadric.monomials),
        cubic_nonsingular=True,
    )
    w = Weight((0.1, -0.1), 0.35)
    monkeypatch.setattr(weyldiag, "weyl_sums", lambda *args, **kwargs: [0j, 1e5 + 0j, -1e5j, 6e4 + 8e4j])
    zero, *rows = minor_arc_scan(pair, 16.0, w, 2, seed=1)
    assert {k: zero[k] for k in ("abs_S", "t3", "t2", "s", "b3", "phi3", "witness_ok", "u", "alt")} == {
        "abs_S": 0.0, "t3": math.inf, "t2": math.inf, "s": None, "b3": None, "phi3": None,
        "witness_ok": None, "u": None, "alt": None,
    }
    assert [(r["abs_S"], r["s"], r["b3"], r["witness_ok"], r["u"], r["alt"]) for r in rows] == [
        (1e5, 1, 0, False, 1, "i"),
        (1e5, 1, 1, False, None, "ii"),
        (1e5, 1, 1, False, None, "none"),
    ]
    for row in rows:
        assert row["t3"] == row["t2"] == pytest.approx(math.sqrt(256 / 1e5))
        assert row["phi3"] == row["alpha3"] - row["b3"]


def test_minor_arc_scan_thread_determinism(pair_n3):
    # the 57^3 box at P = 70 is three Weyl boxes, and each row's |S| is the
    # single-alpha direct sum at its point, bit for bit
    pair = make_pair(
        3, dict(pair_n3.cubic.monomials), dict(pair_n3.quadric.monomials),
        cubic_nonsingular=True,
    )
    w, P = Weight((0.0, 0.0, 0.0), 0.4), 70.0
    assert len(weightfn.support_chunks(w, P, weight_box(w, P), [0.0] * 3, weightfn.BOX)) == 3
    rows = minor_arc_scan(pair, P, w, 3, seed=2, threads=1)
    for threads in (2, 3):
        assert minor_arc_scan(pair, P, w, 3, seed=2, threads=threads) == rows
    for row in rows:
        direct = expsums.weyl_sum_direct(pair, P, w, row["alpha3"], row["alpha2"])
        assert row["abs_S"] == abs(direct)
