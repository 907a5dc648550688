"""Bump weight: profile values, support, smoothness proxy, monotonicity,
each on nu_grid and omega_grid against the closed-form reference of
conftest (nu and omega at one point)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import weightfn
from circlelab.weightfn import Weight, nu_grid, omega_grid

from conftest import nu, omega


def omega_at(weight, points):
    """omega_grid at each point of a list, one axis array per coordinate."""
    return omega_grid(weight, list(np.array(points, dtype=float).T))


def test_nu_values():
    # 0-d arrays, at 0, +-1, -2 and 1/2
    for t, want in ((0.0, math.exp(-1)), (1.0, 0.0), (-1.0, 0.0), (-2.0, 0.0), (0.5, math.exp(-4.0 / 3.0))):
        got = nu_grid(np.array(t))
        assert got.shape == ()
        assert float(got) == pytest.approx(want, abs=1e-15)
        assert float(got) == pytest.approx(nu(t), rel=1e-15, abs=0.0)


def gathered_nu_grid(t):
    """The gather-and-scatter form of nu_grid: exp(-1 / u) on the points with
    u = 1 - t^2 above the guard, written into zeros."""
    t = np.asarray(t, dtype=float)
    u = 1.0 - t * t
    inside = u > weightfn._EXP_GUARD
    out = np.zeros_like(u)
    out[inside] = np.exp(-1.0 / u[inside])
    return out


def _at_u(gaps):
    # t = sqrt(1 - g) puts u = 1 - t^2 within rounding of g; near t = 1
    # the values of u are spaced about 2^-53 apart
    return gaps.map(lambda g: math.sqrt(1.0 - g))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(
        st.floats(-1.5, 1.5),
        # near the edges t = +-1, inside and outside
        st.floats(0.0, 1e-6).map(lambda d: 1.0 - d),
        st.floats(0.0, 1e-6).map(lambda d: -1.0 - d),
        st.floats(0.0, 1e-6).map(lambda d: 1.0 + d),
        # u up to ten times the guard, and within a few spacings of it
        _at_u(st.floats(0.0, 10.0).map(lambda k: weightfn._EXP_GUARD * k)),
        _at_u(st.integers(-20, 20).map(lambda k: weightfn._EXP_GUARD + k * 2.0**-53)),
    ),
    min_size=1, max_size=300,
))
def test_nu_grid_equals_the_gathered_form_bit_for_bit(values):
    t = np.array(values)
    got, want = nu_grid(t), gathered_nu_grid(t)
    assert got.tobytes() == want.tobytes()
    # on a 2-D grid, as omega_grid passes it, and one value at a time
    grid = np.add.outer(t, t[::-1]) / 2
    assert nu_grid(grid).tobytes() == gathered_nu_grid(grid).tobytes()
    assert nu_grid(t[0]).tobytes() == gathered_nu_grid(t[0]).tobytes()


def test_nu_grid_sends_non_finite_values_to_zero():
    t = np.array([np.nan, np.inf, -np.inf, 0.0])
    assert nu_grid(t).tolist() == gathered_nu_grid(t).tolist() == [0.0, 0.0, 0.0, math.exp(-1)]


def test_nu_range():
    rng = random.Random(1)
    t = np.array([rng.uniform(-3, 3) for _ in range(1000)])
    got = nu_grid(t)
    assert np.all((0.0 <= got) & (got <= math.exp(-1) + 1e-16))
    # within an ulp or two of libm's exp, and 0 exactly where the reference is
    want = np.array([nu(v) for v in t])
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


def test_omega_values():
    w = Weight((0.1, -0.2), 0.15)
    # the centre, a point of the boundary sphere, and halfway out, which reduces to nu(1/2)
    points = [[0.1, -0.2], [0.1 + 0.15, -0.2], [0.1, -0.2 + 0.075]]
    got = omega_at(w, points)
    assert got.shape == (3,)
    assert got[0] == pytest.approx(math.exp(-1), abs=1e-15)
    assert got[1] == 0.0
    assert got[2] == pytest.approx(nu(0.5), abs=1e-15)
    assert got.tolist() == pytest.approx([omega(w, x) for x in points], rel=1e-15, abs=0.0)


def test_omega_dimension_check():
    w = Weight((0.0, 0.0), 0.3)
    with pytest.raises(ValueError):
        omega_grid(w, [np.array([0.0])])


def test_support_vanishing():
    rng = random.Random(2)
    w = Weight((0.05, -0.05, 0.1), 0.2)
    points = []
    for _ in range(500):
        # sample outside the ball: radial direction scaled past xi
        direction = [rng.gauss(0, 1) for _ in range(3)]
        norm = math.sqrt(sum(d * d for d in direction))
        scale = w.xi * rng.uniform(1.0, 3.0) / norm
        points.append([c + d * scale for c, d in zip(w.center, direction)])
    assert not omega_at(w, points).any()
    assert all(omega(w, x) == 0.0 for x in points)


def test_boundary_smoothness_proxy():
    # symmetric finite differences of orders 1..4 at t = 1 stay tiny and
    # shrink with the step: all derivatives vanish at the support edge
    coeffs = {
        1: [(-0.5, -1), (0.5, 1)],
        2: [(1, -1), (-2, 0), (1, 1)],
        3: [(-0.5, -2), (1, -1), (-1, 1), (0.5, 2)],
        4: [(1, -2), (-4, -1), (6, 0), (-4, 1), (1, 2)],
    }
    for order, stencil in coeffs.items():
        quotients = []
        for h in (1e-2, 1e-3, 1e-4):
            t = np.array([1.0 + k * h for _, k in stencil])
            values = nu_grid(t)
            assert values.tolist() == pytest.approx([nu(v) for v in t], rel=1e-15, abs=0.0)
            fd = sum(c * v for (c, _), v in zip(stencil, values.tolist())) / h**order
            quotients.append(abs(fd))
        assert quotients[1] <= quotients[0] + 1e-15
        assert quotients[2] <= quotients[1] + 1e-15
        assert quotients[-1] < 1e-8


def test_monotone_radial_decrease():
    rng = random.Random(3)
    w = Weight((0.0, 0.0), 0.4)
    inner, outer = [], []
    for _ in range(500):
        r1, r2 = sorted((rng.uniform(0, 0.6), rng.uniform(0, 0.6)))
        phi = rng.uniform(0, 2 * math.pi)
        inner.append([r1 * math.cos(phi), r1 * math.sin(phi)])
        outer.append([r2 * math.cos(phi), r2 * math.sin(phi)])
    assert np.all(omega_at(w, inner) >= omega_at(w, outer))
    assert all(omega(w, x) >= omega(w, y) for x, y in zip(inner, outer))


def test_xi_validation_and_box_warning():
    with pytest.raises(ValueError):
        Weight((0.0,), 0.0)
    with pytest.raises(ValueError):
        Weight((0.0,), 1.5)
    with pytest.warns(UserWarning, match="support") as record:
        Weight((0.3,), 0.3)  # 0.3 + 0.3 >= 1/2: ball leaves the unit box
    # the warning names the line that built the weight, not the dataclass's __init__
    assert [w.filename for w in record] == [__file__]
    # exploratory weights are allowed, only warned about
    with pytest.warns(UserWarning, match="support"):
        w = Weight((0.4,), 0.4)
    assert w.xi == 0.4
