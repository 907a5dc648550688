"""Bump weight: profile values, support, smoothness proxy, monotonicity."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import weightfn
from circlelab.weightfn import Weight, nu, nu_grid, omega


def test_nu_values():
    assert nu(0.0) == pytest.approx(math.exp(-1), abs=1e-15)
    assert nu(1.0) == 0.0
    assert nu(-2.0) == 0.0
    assert nu(0.5) == pytest.approx(math.exp(-4.0 / 3.0), abs=1e-15)


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
    for _ in range(1000):
        t = rng.uniform(-3, 3)
        assert 0.0 <= nu(t) <= math.exp(-1) + 1e-16


def test_omega_values():
    w = Weight((0.1, -0.2), 0.15)
    assert omega(w, [0.1, -0.2]) == pytest.approx(math.exp(-1), abs=1e-15)
    # on the boundary sphere
    assert omega(w, [0.1 + 0.15, -0.2]) == 0.0
    # halfway out reduces to nu(1/2)
    assert omega(w, [0.1, -0.2 + 0.075]) == pytest.approx(nu(0.5), abs=1e-15)


def test_omega_dimension_check():
    w = Weight((0.0, 0.0), 0.3)
    with pytest.raises(ValueError):
        omega(w, [0.0])


def test_support_vanishing():
    rng = random.Random(2)
    w = Weight((0.05, -0.05, 0.1), 0.2)
    for _ in range(500):
        # sample outside the ball: radial direction scaled past xi
        direction = [rng.gauss(0, 1) for _ in range(3)]
        norm = math.sqrt(sum(d * d for d in direction))
        scale = w.xi * rng.uniform(1.0, 3.0) / norm
        x = [c + d * scale for c, d in zip(w.center, direction)]
        assert omega(w, x) == 0.0


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
            fd = sum(c * nu(1.0 + k * h) for c, k in stencil) / h**order
            quotients.append(abs(fd))
        assert quotients[1] <= quotients[0] + 1e-15
        assert quotients[2] <= quotients[1] + 1e-15
        assert quotients[-1] < 1e-8


def test_monotone_radial_decrease():
    rng = random.Random(3)
    w = Weight((0.0, 0.0), 0.4)
    for _ in range(500):
        r1, r2 = sorted((rng.uniform(0, 0.6), rng.uniform(0, 0.6)))
        phi = rng.uniform(0, 2 * math.pi)
        x = [r1 * math.cos(phi), r1 * math.sin(phi)]
        y = [r2 * math.cos(phi), r2 * math.sin(phi)]
        assert omega(w, x) >= omega(w, y)


def test_xi_validation_and_box_warning():
    with pytest.raises(ValueError):
        Weight((0.0,), 0.0)
    with pytest.raises(ValueError):
        Weight((0.0,), 1.5)
    with pytest.warns(UserWarning, match="support"):
        Weight((0.3,), 0.3)  # 0.3 + 0.3 >= 1/2: ball leaves the unit box
    # exploratory weights are allowed, only warned about
    with pytest.warns(UserWarning, match="support"):
        w = Weight((0.4,), 0.4)
    assert w.xi == 0.4
