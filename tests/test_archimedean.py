"""Sin kernel, truncated singular integral, main-term composition."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelab.archimedean import _integrand, sin_kernel_grid, singular_integral_truncated
from circlelab.expsums import RationalApprox, osc_integral
from circlelab.forms import eval_cubic, eval_quadratic
from circlelab.weightfn import Weight, nu_grid, omega_grid

from conftest import (fit_log_power, form_magnitudes, kernel_integrand, major_arc_approx_check, make_pair,
                      one_block_pairs, seeded_grid, separable_pairs, sin_kernel)


# ------------------------------------------------------------------ kernel

def test_sin_kernel_values():
    # a 0-d u, as a form without monomials gives, returns a 0-d array
    assert sin_kernel_grid(4.0, 0.0).shape == ()
    assert sin_kernel_grid(4.0, 0.0) == 8.0
    assert sin_kernel_grid(1.0, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert sin_kernel_grid(2.0, 0.1) == pytest.approx(
        math.sin(0.4 * math.pi) / (0.1 * math.pi), abs=1e-12
    )


def test_sin_kernel_identities():
    rng = random.Random(67)
    for _ in range(500):
        R = rng.uniform(0.5, 16.0)
        u = rng.uniform(-4.0, 4.0)
        k, k_neg = sin_kernel_grid(R, np.array([u, -u]))
        assert k == pytest.approx(k_neg, abs=1e-12)  # even
        assert abs(k) <= 2.0 * R + 1e-12
        if u != 0:
            assert abs(k) <= 1.0 / (math.pi * abs(u)) + 1e-12


def test_sin_kernel_switch_continuity():
    # series and quotient branches agree at the switch point to 1e-12
    for R in (1.0, 4.0, 16.0):
        below, above = sin_kernel_grid(R, np.array([1e-8 * (1 - 1e-9), 1e-8 * (1 + 1e-9)]))
        assert abs(below - above) < 1e-12


def test_sin_kernel_grid_matches_scalar():
    # whatever the array's shape, strides and mix of series and quotient entries
    rng = np.random.default_rng(71)
    us = np.concatenate([[0.0, -0.0, 1e-12, -1e-12, 1e-8, -1e-8, 0.3, -0.7],
                         rng.normal(size=300) * 10.0 ** rng.integers(-11, 2, size=300)])
    for arr in (us, us[::3], us.reshape(-1, 2)):
        grid = sin_kernel_grid(3.0, arr)
        assert grid.shape == arr.shape
        for u, g in zip(arr.ravel(), grid.ravel()):
            assert g == pytest.approx(sin_kernel(3.0, float(u)), abs=1e-14)


def test_sin_kernel_series_needs_a_small_phase():
    # |u| < 1e-8 alone once put R = 1e8, u = 5e-9 on the series (3.3e7);
    # there the quotient is taken, as at every |2 pi R u| >= 1e-3
    for R, u in ((1e8, 5e-9), (1e7, 5e-9), (1e7, -9e-9), (1e6, 2e-9)):
        assert sin_kernel_grid(R, u) == math.sin(2.0 * math.pi * R * u) / (math.pi * u)
    assert sin_kernel_grid(1e8, 5e-9) == pytest.approx(7.8e-9, rel=1e-2)


@pytest.mark.parametrize("R", [0.5, 4.0, 100.0, 1e4])
def test_sin_kernel_series_covers_small_u_up_to_R_1e4(R):
    # for R <= 1e4 the phase bound always holds below the switch, so the
    # series covers exactly |u| < 1e-8
    below = np.array([0.0, 5e-9, -9.999e-9, 1e-8 * (1 - 1e-15)])
    w = 2.0 * np.pi * R * below
    assert np.array_equal(sin_kernel_grid(R, below), 2.0 * R * (1.0 - w * w / 6.0 + w**4 / 120.0))
    assert sin_kernel_grid(R, 1e-8) == math.sin(2.0 * math.pi * R * 1e-8) / (math.pi * 1e-8)


def test_sin_kernel_at_zero_and_negative_R():
    # K_0 is 0 everywhere, and K_{-R} = -K_R with the series at the same u
    us = np.array([0.0, -0.0, 5e-9, -2e-9, 1e-8, 0.3, -7.0])
    assert sin_kernel_grid(0.0, 0.0) == 0.0
    assert np.array_equal(sin_kernel_grid(0.0, us), np.zeros_like(us))
    for R in (0.5, 4.0, 1e8):
        assert np.array_equal(sin_kernel_grid(-R, us), -sin_kernel_grid(R, us))
    assert sin_kernel_grid(-4.0, 0.0) == -8.0


@pytest.mark.parametrize("R", [0.5, 4.0, 64.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sin_kernel_of_parts_is_the_kernel_of_their_sum(R, sign):
    # parts on separate axes give K_R of their sum u, the sine Im prod_b
    # e(R u_b) in place of sin(2 pi R u); the parts share a sign, so their
    # phases add up to that of u, and the series entries, taken from u
    # alone, are equal
    rng = np.random.default_rng(89)

    def part(size):
        head = [0.0, 1e-9, 2.5e-9, 5e-9]
        return sign * np.concatenate([head, np.abs(rng.normal(size=size)) * 10.0 ** rng.integers(-7, 2, size=size)])

    parts = [part(30).reshape(-1, 1, 1), part(20).reshape(1, -1, 1), part(10).reshape(1, 1, -1)]
    u = parts[0] + parts[1] + parts[2]
    got, want = sin_kernel_grid(R, *parts), sin_kernel_grid(R, u)
    assert got.shape == u.shape
    small = np.abs(u) < 1e-8
    assert small.sum() > 4 and np.array_equal(got[small], want[small])
    bound = 8 * np.finfo(float).eps * (1 + 2 * np.pi * R * np.abs(u)) / (np.pi * np.maximum(np.abs(u), 1e-8))
    assert np.all(np.abs(got - want) <= bound)


# ------------------------------------------------------- singular integral

CASE = st.tuples(separable_pairs(4, st.integers(-6, 6)), st.floats(0.25, 64.0), st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(case=CASE)
# diagonal: three blocks of one variable, nodes on C = 0 and on Q = 0
@example(case=(make_pair(3, {(1, 1, 1): 1, (2, 2, 2): -1, (3, 3, 3): 2}, {(1, 1): 1, (2, 2): -1, (3, 3): 3}),
               4.0, 0))
# x2 in no monomial, and an empty C
@example(case=(make_pair(3, {}, {(1, 3): 2, (3, 3): -1}), 16.0, 1))
def test_block_integrand_matches_whole_pair(case):
    # the integrand of J(R) with each sine as Im prod_b e(R u_b) on the
    # blocks' own axes equals omega K_R(C) K_R(Q) from the whole forms,
    # node by node, up to the rounding of the phases: a sine taken from
    # block phases of total size s is off by about eps (1 + 2 pi R s), and
    # its quotient by pi |u|
    pair, R, seed = case
    weight, axes = seeded_grid(pair.n, seed)
    got = _integrand(pair, weight, R)(axes)
    want = kernel_integrand(pair, weight, R)(axes)
    eps = np.finfo(float).eps

    def error(u, size):
        u = np.abs(np.asarray(u, dtype=float))
        return 64 * eps * ((1 + 2 * np.pi * R * size) / (np.pi * np.maximum(u, 1e-8))
                           + 2 * np.pi * R * R * size + 2 * R)

    c, q = eval_cubic(pair.cubic, axes), eval_quadratic(pair.quadric, axes)
    (size_c, size_q), kc, kq = form_magnitudes(pair, axes), sin_kernel_grid(R, c), sin_kernel_grid(R, q)
    ec, eq = error(c, size_c), error(q, size_q)
    bound = omega_grid(weight, axes) * (ec * np.abs(kq) + eq * np.abs(kc) + ec * eq)
    assert np.all(np.abs(got - want) <= bound)


@one_block_pairs
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("R", [0.5, 4.0, 1e4, 1e8])
def test_one_block_integrand_is_the_whole_pair_kernel(pair, seed, R):
    # a pair of one block takes its whole forms through the block path, and
    # each K_R one np.sin per node, so the integrand is the whole-pair one
    # bit for bit
    weight, axes = seeded_grid(pair.n, seed)
    assert np.array_equal(_integrand(pair, weight, R)(axes), kernel_integrand(pair, weight, R)(axes))


def _dense_grid_oracle(pair, weight, R, n_grid=2000):
    """Midpoint rule on an n_grid^2 mesh of the support square (n = 2)."""
    (c1, c2), xi = weight.center, weight.xi
    xs = c1 - xi + (np.arange(n_grid) + 0.5) * (2 * xi / n_grid)
    ys = c2 - xi + (np.arange(n_grid) + 0.5) * (2 * xi / n_grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    cvals = np.zeros_like(X)
    for (i, j, k), coeff in pair.cubic.monomials.items():
        arrs = [X, Y]
        cvals += coeff * arrs[i - 1] * arrs[j - 1] * arrs[k - 1]
    qvals = np.zeros_like(X)
    for (i, j), coeff in pair.quadric.monomials.items():
        arrs = [X, Y]
        qvals += coeff * arrs[i - 1] * arrs[j - 1]
    w = nu_grid(np.sqrt((X - c1) ** 2 + (Y - c2) ** 2) / xi)
    vals = w * sin_kernel_grid(R, cvals) * sin_kernel_grid(R, qvals)
    return float(np.sum(vals)) * (2 * xi / n_grid) ** 2


def test_singular_integral_dense_oracle(pair_line):
    w = Weight((0.3, -0.3), 0.1)
    res = singular_integral_truncated(pair_line, w, 4.0, tol=1e-8)
    oracle = _dense_grid_oracle(pair_line, w, 4.0)
    assert res.value == pytest.approx(oracle, abs=1e-4)


def test_singular_integral_bounded_when_support_off_variety(pair_line):
    # support where |C|, |Q| >= c > 0 forces |J(R)| <= mass / (pi^2 c^2)
    w = Weight((0.35, 0.1), 0.04)
    mass = osc_integral(pair_line, w, 0.0, 0.0, [0.0, 0.0], tol=1e-10).value.real
    lo_c, lo_q = np.inf, np.inf
    rng = np.random.default_rng(3)
    for _ in range(4000):
        v = rng.uniform(-1, 1, 2)
        r = np.hypot(*v)
        if r > 1:
            continue
        pt = [0.35 + 0.04 * v[0], 0.1 + 0.04 * v[1]]
        lo_c = min(lo_c, abs(pt[0] ** 3 + pt[1] ** 3))
        lo_q = min(lo_q, abs(pt[0] ** 2 - pt[1] ** 2))
    res = singular_integral_truncated(pair_line, w, 8.0, tol=1e-9)
    bound = mass / (math.pi**2 * lo_c * lo_q)
    assert abs(res.value) <= bound


def test_singular_integral_gamma_quadrature_oracle(pair_line):
    # the raw double integral over gamma in [-R, R]^2, done numerically per
    # grid point, must match the sin-kernel form (R = 1 keeps it cheap)
    w = Weight((0.3, -0.3), 0.1)
    res = singular_integral_truncated(pair_line, w, 1.0, tol=1e-9)
    n_grid = 400
    xi = w.xi
    xs = 0.3 - xi + (np.arange(n_grid) + 0.5) * (2 * xi / n_grid)
    ys = -0.3 - xi + (np.arange(n_grid) + 0.5) * (2 * xi / n_grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    cvals = X**3 + Y**3
    qvals = X**2 - Y**2
    wvals = nu_grid(np.sqrt((X - 0.3) ** 2 + (Y + 0.3) ** 2) / xi)
    # Gauss-Legendre in each gamma variable; the double integral factors
    nodes, wts = np.polynomial.legendre.leggauss(96)
    k3 = (np.cos(2 * np.pi * np.outer(cvals.ravel(), nodes)) @ wts).reshape(cvals.shape)
    k2 = (np.cos(2 * np.pi * np.outer(qvals.ravel(), nodes)) @ wts).reshape(qvals.shape)
    oracle = float(np.sum(wvals * k3 * k2)) * (2 * xi / n_grid) ** 2
    assert res.value == pytest.approx(oracle, abs=1e-3)


def test_singular_integral_validation(pair_line):
    w = Weight((0.0, 0.0), 0.2)
    with pytest.raises(ValueError):
        singular_integral_truncated(pair_line, w, -1.0)


# ------------------------------------------------------- major arc approx

def test_train_approx_q1_scaling(pair_line):
    w = Weight((0.3, -0.3), 0.1)
    approx = RationalApprox(1, 1, 1, 0.0, 0.0)
    errs = {}
    for P in (16.0, 32.0):
        chk = major_arc_approx_check(pair_line, w, P, approx)
        errs[P] = chk.error
        assert chk.ok and chk.ratio <= 50.0
    # replacement error is O(P^{n-1}) = O(P): the normalized error stays flat
    assert errs[32.0] / 32.0 <= (errs[16.0] / 16.0) * 4.0


def test_train_approx_error_shrinks_relative(pair_line):
    w = Weight((0.3, -0.3), 0.1)
    approx = RationalApprox(2, 1, 1, 0.0, 0.0)
    rel = {}
    for P in (32.0, 64.0):
        chk = major_arc_approx_check(pair_line, w, P, approx)
        rel[P] = chk.error / P**2
        assert chk.ratio <= 50.0
    assert rel[64.0] < rel[32.0]


def test_train_approx_tiny_support(pair_line):
    # degenerate weight: support so small that no lattice point lands in it
    # and the main term itself is below the absolute floor 1e-9 P^n
    w = Weight((0.21, 0.17), 2e-5)
    approx = RationalApprox(1, 1, 1, 0.0, 0.0)
    P = 16.0
    chk = major_arc_approx_check(pair_line, w, P, approx)
    assert chk.lhs == 0j
    assert chk.error <= 1e-9 * P**2
    assert chk.ok


def test_osc_integral_decay_scan(capsys):
    # |I(gamma3, 0; 0)| should decay as the cubic phase speeds up; the
    # fitted exponent is only soft-checked (negative), constants are logged
    pair = make_pair(1, {(1, 1, 1): 1}, {(1, 1): 1})
    w = Weight((0.25,), 0.2)
    gammas = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    mags = []
    for g in gammas:
        res = osc_integral(pair, w, g, 0.0, [0.0], tol=1e-10)
        mags.append(abs(res.value))
        assert abs(res.value) <= 1.0  # |I| <= integral of omega <= vol
    fit = fit_log_power(gammas, mags)
    print(f"osc-integral decay exponent in gamma3: {fit.slope:.3f}")
    assert fit.slope < 0.0
