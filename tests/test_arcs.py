"""Dirichlet cutoffs, simultaneous approximation, major-arc dissection."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab.arcs import (
    Q_BLOCK,
    _exact_torus_bound,
    _nearest_numerator,
    _normalize_unit,
    _torus_theta,
    floor_power,
    jittered_grid,
    major_arc_measure,
    major_arc_test,
    q3q2,
    simultaneous_approx,
)
from circlelab.expsums import RationalApprox
from circlelab.util import CapExceededError

from conftest import disjoint_oracle, verify_approx


def oracle_approx(alpha3, alpha2, Q3, Q2):
    """Independent exact scan: smallest q whose nearest fractions qualify."""
    a3f = Fraction(alpha3) - math.floor(alpha3)
    a2f = Fraction(alpha2) - math.floor(alpha2)
    if a3f == 0:
        a3f = Fraction(1)
    if a2f == 0:
        a2f = Fraction(1)
    for q in range(1, Q3 * Q2 + 1):
        ok = True
        for alpha, cutoff in ((a3f, Q3), (a2f, Q2)):
            d = alpha * q
            a = round(d)
            dist = abs(d - a)
            if dist > Fraction(1, cutoff):
                ok = False
                break
        if ok:
            return q
    raise AssertionError("oracle found no q: pigeonhole violated")


def scalar_approx(alpha3, alpha2, Q3, Q2):
    """The scalar scan simultaneous_approx replaced: every q in turn through the
    float screen and the exact checks, no block screen before them."""
    alpha3 = _normalize_unit(alpha3)
    alpha2 = _normalize_unit(alpha2)
    for q in range(1, Q3 * Q2 + 1):
        a3 = _nearest_numerator(q, alpha3)
        a2 = _nearest_numerator(q, alpha2)
        if abs(_torus_theta(alpha3, a3, q)) > 1.0 / (q * Q3) + 1e-12:
            continue
        if abs(_torus_theta(alpha2, a2, q)) > 1.0 / (q * Q2) + 1e-12:
            continue
        if not _exact_torus_bound(alpha3, a3, q, Fraction(1, q * Q3)):
            continue
        if not _exact_torus_bound(alpha2, a2, q, Fraction(1, q * Q2)):
            continue
        assert math.gcd(q, math.gcd(a3, a2)) == 1
        return RationalApprox(
            q, a3, a2, _torus_theta(alpha3, a3, q), _torus_theta(alpha2, a2, q)
        )
    raise AssertionError("scalar scan found no q: pigeonhole violated")


def test_q3q2_examples():
    assert q3q2(1) == (1, 1)
    assert q3q2(100) == (464, 4)
    assert q3q2(8) == (16, 2)  # 8^{4/3} and 8^{1/3} are exact


def test_floor_power_boundary_exactness():
    # perfect powers must not be lost to float rounding
    for base in (8, 27, 64, 125, 1000):
        assert floor_power(base, 1, 3) == round(base ** (1 / 3))
    assert floor_power(128, 1, 7) == 2
    assert floor_power(127.999, 1, 7) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.floats(1.0, 1e300), st.integers(1, 10**6).map(float)),
    st.sampled_from([(4, 3), (1, 3), (1, 7), (2, 7), (1, 1)]),
)
def test_floor_power_brackets_the_exact_power(P, exponent):
    # exact in rationals, and no overflow up to P = 1e300, where P^{4/3}
    # is beyond the largest float
    num, den = exponent
    k = floor_power(P, num, den)
    assert Fraction(k) ** den <= Fraction(P) ** num < Fraction(k + 1) ** den


def test_simultaneous_approx_exact_rationals():
    ap = simultaneous_approx(1 / 3, 1 / 2, 6, 6)
    assert (ap.q, ap.a3, ap.a2) == (6, 2, 3)
    assert ap.theta3 == 0.0 and ap.theta2 == 0.0


def test_simultaneous_approx_zero():
    ap = simultaneous_approx(0.0, 0.0, 6, 6)
    assert (ap.q, ap.a3, ap.a2) == (1, 1, 1)
    assert ap.theta3 == 0.0 and ap.theta2 == 0.0
    assert verify_approx(0.0, 0.0, 6, 6, ap)


def test_simultaneous_approx_vs_oracle():
    rng = random.Random(43)
    Q3, Q2 = 464, 4
    for _ in range(25):
        a3, a2 = rng.random(), rng.random()
        ap = simultaneous_approx(a3, a2, Q3, Q2)
        assert verify_approx(a3, a2, Q3, Q2, ap)
        assert ap.q == oracle_approx(a3, a2, Q3, Q2)


def test_simultaneous_approx_hard_constraints():
    rng = random.Random(47)
    for P in (16.0, 37.5):
        Q3, Q2 = q3q2(P)
        for _ in range(200):
            a3, a2 = rng.random(), rng.random()
            ap = simultaneous_approx(a3, a2, Q3, Q2)
            assert ap.q <= Q3 * Q2
            assert math.gcd(ap.q, math.gcd(ap.a3, ap.a2)) == 1
            assert verify_approx(a3, a2, Q3, Q2, ap)


def test_major_arc_constructed_inside():
    # delta large enough that q = 2 arcs exist: P^delta = 100^0.3 ~ 3.98
    P, delta = 100.0, 0.3
    alpha3 = 0.5 + 0.5 * P ** (-3 + delta)
    ok, witness = major_arc_test(alpha3, 0.5, P, delta)
    assert ok and witness == (2, 1, 1)


def test_major_arc_q1_only_at_small_delta():
    # at delta = 1/7 and P = 100 only q = 1 arcs exist, so 1/2 is deep minor
    P, delta = 100.0, 1.0 / 7.0
    alpha3 = 0.5 + 0.5 * P ** (-3 + delta)
    ok, witness = major_arc_test(alpha3, 0.5, P, delta)
    assert not ok and witness is None
    # but a point hugging an integer is inside the q = 1 arc
    ok, witness = major_arc_test(
        1.0 - 0.5 * P ** (-3 + delta), 0.3 * P ** (-2 + delta), P, delta
    )
    assert ok and witness == (1, 1, 1)


def test_major_arc_outside_every_box():
    # distance 2 P^{-3+delta} from every a/q with q <= P^delta
    P, delta = 100.0, 1.0 / 7.0
    ok, _ = major_arc_test(2.0 * P ** (-3 + delta), 0.5, P, delta)
    assert not ok


def test_major_arc_tiny_p():
    ok, witness = major_arc_test(0.999999, 0.999999, 1.5, 0.2)
    assert ok and witness[0] == 1


def test_major_member_within_pigeonhole_ranges():
    # each major arc is contained in the corresponding Dirichlet range
    rng = random.Random(53)
    P, delta = 50.0, 1.0 / 7.0
    Q3, Q2 = q3q2(P)
    for _ in range(50):
        q, a3, a2 = 1, 1, 1
        alpha3 = a3 / q + rng.uniform(-1, 1) * P ** (-3 + delta)
        alpha2 = a2 / q + rng.uniform(-1, 1) * P ** (-2 + delta)
        ok, witness = major_arc_test(alpha3, alpha2, P, delta)
        assert ok
        wq, wa3, wa2 = witness
        assert abs(alpha3 - wa3 / wq) % 1.0 <= 1 / (wq * Q3) or (
            1 - abs(alpha3 - wa3 / wq) % 1.0
        ) <= 1 / (wq * Q3)


def test_major_arc_measure_values():
    # only q = 1 contributes at these parameters: 4 P^{-5+2 delta}
    assert major_arc_measure(100.0, 1.0 / 7.0) == pytest.approx(
        4 * 100.0 ** (-5 + 2.0 / 7.0)
    )
    assert major_arc_measure(100.0, 0.01) == pytest.approx(4 * 100.0 ** (-5 + 0.02))


def test_major_arc_measure_monotone_in_delta():
    values = [major_arc_measure(100.0, d) for d in (0.05, 0.15, 0.25, 0.32)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_major_arcs_disjoint():
    for P in (50.0, 100.0, 200.0, 1000.0):
        assert disjoint_oracle(P, 1.0 / 7.0)
    # sanity of the overlap detector itself: widths outside the legal delta
    # range make (2,1,1) and (2,1,2) collide in the alpha2 coordinate
    assert not disjoint_oracle(3.0, 0.9)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 400.0), st.floats(0.01, 0.33))
def test_major_arcs_disjoint_vs_oracle(P, delta):
    assert disjoint_oracle(P, delta)


def test_delta_validation():
    # major_arc_measure raised ZeroDivisionError at delta = -0.1 and returned
    # a measure at 0 and 1/2; both functions now refuse delta outside (0, 1/3)
    for delta in (-0.1, 0.0, 1.0 / 3.0, 0.5):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1/3\), got "):
            major_arc_test(0.1, 0.1, 100.0, delta)
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1/3\), got "):
            major_arc_measure(100.0, delta)


# ------------------------------------------------ block screen vs scalar scan

# cutoffs at small P, and products Q3 Q2 just below, at and just above one block
CUTOFFS = [q3q2(P) for P in (2, 5, 10, 37, 60)] + [
    (Q_BLOCK - 1, 1), (Q_BLOCK, 1), (Q_BLOCK + 1, 1),
    (Q_BLOCK // 2, 2), (Q_BLOCK // 3, 3), (Q_BLOCK // 3 + 1, 3),
]


ALPHAS = st.one_of(
    st.sampled_from([0.0, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 60).flatmap(lambda b: st.integers(0, b).map(lambda a: a / b)),
)


@settings(max_examples=150, deadline=None)
@given(ALPHAS, ALPHAS, st.sampled_from(CUTOFFS))
def test_simultaneous_approx_matches_scalar_scan(alpha3, alpha2, cutoffs):
    Q3, Q2 = cutoffs
    ap = simultaneous_approx(alpha3, alpha2, Q3, Q2)
    assert ap == scalar_approx(alpha3, alpha2, Q3, Q2)
    assert ap.q == oracle_approx(alpha3, alpha2, Q3, Q2)


def test_nearest_numerator_exact_at_float_half():
    # 15 fl(1/6) rounds to exactly 2.5 in floats, but fl(1/6) < 1/6, so the
    # nearest numerator is 2; with 3 the exact check rejected q = 15 and the
    # scan returned q = 30
    assert 15 * (1 / 6) == 2.5
    assert _nearest_numerator(15, 1 / 6) == 2
    assert simultaneous_approx(1 / 15, 1 / 6, 21, 2).q == 15
    assert oracle_approx(1 / 15, 1 / 6, 21, 2) == 15


@pytest.mark.parametrize("b", [Q_BLOCK - 1, Q_BLOCK, Q_BLOCK + 1])
def test_simultaneous_approx_at_block_edges(b):
    # ||q/b|| >= 1/b > 1/Q3 for every q < b, so the smallest modulus is b;
    # a cap of b screens it, and a cap of b - 1 stops the scan short of it
    Q3, Q2 = Q_BLOCK + 100, 1
    ap = simultaneous_approx(1.0 / b, 0.3, Q3, Q2)
    assert ap.q == b
    assert ap == scalar_approx(1.0 / b, 0.3, Q3, Q2)
    assert simultaneous_approx(1.0 / b, 0.3, Q3, Q2, cap=b) == ap
    message = f"^pigeonhole scan: no q <= {b - 1} qualifies, and Q3 Q2 = {Q3} exceeds cap {b - 1}$"
    with pytest.raises(CapExceededError, match=message):
        simultaneous_approx(1.0 / b, 0.3, Q3, Q2, cap=b - 1)


def test_major_arc_scans_charge_their_moduli():
    # floor(10^7^{1/7}) = 10 moduli q <= P^delta
    P, delta = 1e7, 1.0 / 7.0
    assert major_arc_test(0.1, 0.2, P, delta, cap=10) == major_arc_test(0.1, 0.2, P, delta)
    assert major_arc_measure(P, delta, cap=10) == major_arc_measure(P, delta)
    message = r"^major arc moduli q <= P\^delta: 10 elements exceeds cap 9$"
    with pytest.raises(CapExceededError, match=message):
        major_arc_test(0.1, 0.2, P, delta, cap=9)
    with pytest.raises(CapExceededError, match=message):
        major_arc_measure(P, delta, cap=9)


def test_simultaneous_approx_beyond_first_block_at_p250():
    Q3, Q2 = q3q2(250)
    far = []
    for a3, a2 in jittered_grid(20, 7):
        ap = simultaneous_approx(a3, a2, Q3, Q2)
        if ap.q > Q_BLOCK:
            far.append((a3, a2, ap))
    assert len(far) >= 5
    for a3, a2, ap in far[:5]:
        assert ap == scalar_approx(a3, a2, Q3, Q2)
        assert ap.q == oracle_approx(a3, a2, Q3, Q2)
