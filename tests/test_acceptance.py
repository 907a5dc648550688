"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance below is fixed here, not configurable.
"""

import math
import random
import time
import warnings

import numpy as np
import pytest

from circlelab.arcs import q3q2, simultaneous_approx
from circlelab.archimedean import sin_kernel_grid, singular_integral_truncated
from circlelab.expsums import (
    RationalApprox,
    complete_sum,
    poisson_reconstruct,
    weyl_sum_direct,
)
from circlelab.forms import (
    CubicForm,
    QuadraticForm,
    eval_cubic,
    eval_quadratic,
    gradient,
)
from circlelab.localdens import (
    hensel_stable,
    q_factorization,
    singular_series_truncated,
)
from circlelab.util import factorize
from circlelab.weightfn import Weight, nu_grid
from circlelab.weyldiag import count_bilinear, heights_from_sum
from circlelab.cli import run as cli_run

from conftest import (
    bilinear_forms,
    disjoint_oracle,
    fit_log_power,
    full_scan_oracle,
    major_arc_approx_check,
    make_pair,
    scan_joint_histogram,
    verify_approx,
)


def report(number: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def random_sparse_pair(rng, n):
    cubic = {}
    for _ in range(rng.randint(1, 4)):
        idx = tuple(sorted(rng.randint(1, n) for _ in range(3)))
        cubic[idx] = cubic.get(idx, 0) + rng.randint(-5, 5)
    quad = {}
    for _ in range(rng.randint(1, 3)):
        idx = tuple(sorted(rng.randint(1, n) for _ in range(2)))
        quad[idx] = quad.get(idx, 0) + rng.randint(-5, 5)
    return make_pair(n, cubic, quad)


# -------------------------------------------------------------- criterion 1

def test_criterion_1_multiplicativity():
    rng = random.Random(101)
    start = time.time()
    ok = True
    for _ in range(100):
        n = rng.randint(1, 3)
        pair = random_sparse_pair(rng, n)
        while True:
            r, s = rng.randint(1, 12), rng.randint(1, 12)
            if math.gcd(r, s) == 1 and r * s > 1:
                break
        q = r * s
        a3, a2 = rng.randint(1, q), rng.randint(1, q)
        m = [rng.randint(-4, 4) for _ in range(n)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            whole = complete_sum(pair, q, a3, a2, m)
            # twisted factors straight from the multiplicativity statement
            left = complete_sum(pair, r, s * s * a3, s * a2, m)
            right = complete_sum(pair, s, r * r * a3, r * a2, m)
        ok &= abs(whole - left * right) <= 1e-9 * q**n
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    assert report(1, "complete-sum multiplicativity", ok)


# -------------------------------------------------------------- criterion 2

POISSON_FIXTURES = [
    # (n, cubic, quadric, P, q, a3, a2, theta3, theta2, center, xi)
    (1, {(1, 1, 1): 1}, {(1, 1): 1}, 8.0, 1, 1, 1, 1 / 600, 1 / 80, (0.15,), 0.30),
    (1, {(1, 1, 1): 1}, {(1, 1): 1}, 8.0, 2, 1, 1, -1 / 700, 1 / 90, (-0.10,), 0.34),
    (1, {(1, 1, 1): 2}, {(1, 1): 3}, 16.0, 3, 1, 2, 1 / 5000, 1 / 300, (0.10,), 0.30),
    (1, {(1, 1, 1): 1}, {(1, 1): 1}, 16.0, 4, 3, 1, -1 / 4200, -1 / 280, (0.0,), 0.30),
    (1, {(1, 1, 1): 1}, {(1, 1): 1}, 8.0, 3, 2, 1, 1 / 520, 1 / 70, (0.18,), 0.30),
    (2, {(1, 1, 1): 1, (2, 2, 2): 1}, {(1, 1): 1, (2, 2): -1}, 8.0, 1, 1, 1,
     1 / 520, 1 / 66, (0.10, -0.10), 0.30),
    (2, {(1, 1, 1): 1, (2, 2, 2): 1}, {(1, 1): 1, (2, 2): -1}, 8.0, 2, 1, 1,
     -1 / 600, 1 / 100, (0.15, 0.05), 0.30),
    (2, {(1, 1, 1): 1, (2, 2, 2): 2}, {(1, 1): 1, (2, 2): 1}, 8.0, 3, 1, 1,
     1 / 550, -1 / 90, (-0.12, 0.15), 0.30),
    (2, {(1, 1, 1): 1, (2, 2, 2): 1}, {(1, 1): 1, (2, 2): -1}, 16.0, 4, 3, 2,
     1 / 4500, 1 / 300, (0.10, 0.10), 0.30),
    (2, {(1, 1, 1): 1, (2, 2, 2): 2}, {(1, 1): 1, (2, 2): 1}, 16.0, 4, 1, 3,
     -1 / 4200, 1 / 280, (0.0, -0.15), 0.30),
]


def test_criterion_2_poisson_reconstruction():
    start = time.time()
    ok = True
    for n, cubic, quad, P, q, a3, a2, t3, t2, center, xi in POISSON_FIXTURES:
        assert abs(t3) <= P**-3 and abs(t2) <= P**-2
        pair = make_pair(n, cubic, quad)
        weight = Weight(center, xi)
        approx = RationalApprox(q, a3, a2, t3, t2)
        direct = weyl_sum_direct(pair, P, weight, approx.alpha3, approx.alpha2)
        recon64 = poisson_reconstruct(pair, P, weight, approx, 64)
        recon128 = poisson_reconstruct(pair, P, weight, approx, 128)
        err64 = abs(direct - recon64) / (1 + abs(direct))
        err128 = abs(direct - recon128) / (1 + abs(direct))
        ok &= err64 <= 1e-3
        ok &= err128 <= err64 + 1e-9
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    assert report(2, "poisson reconstruction", ok)


# -------------------------------------------------------------- criterion 3

def test_criterion_3_gauss_magnitude():
    ok = True
    for q in (3, 5, 7, 11, 13):
        pair1 = make_pair(1, {(1, 1, 1): 1}, {(1, 1): 1})
        pair2 = make_pair(2, {(1, 1, 1): 1, (2, 2, 2): 1}, {(1, 1): 1, (2, 2): 2})
        for pair in (pair1, pair2):
            n = pair.n
            val = complete_sum(pair, q, q, 1, [0] * n)
            ok &= abs(abs(val) - q ** (n / 2)) <= 1e-6 * q ** (n / 2)
    assert report(3, "quadratic Gauss-sum magnitude", ok)


# -------------------------------------------------------------- criterion 4

def test_criterion_4_euler_identities():
    rng = random.Random(103)
    ok = True
    fixtures = [random_sparse_pair(rng, n) for n in (1, 2, 3, 4)]
    for pair in fixtures:
        n = pair.n
        for _ in range(1000):
            x = [rng.randint(-50, 50) for _ in range(n)]
            b = bilinear_forms(pair.cubic, x, x)
            ok &= sum(v * w for v, w in zip(x, b)) == 6 * eval_cubic(pair.cubic, x)
            g = gradient(pair.quadric, x)
            ok &= sum(v * w for v, w in zip(x, g)) == 2 * eval_quadratic(pair.quadric, x)
    assert report(4, "Euler identities", ok)


# -------------------------------------------------------------- criterion 5

def test_criterion_5_dirichlet_approximation():
    rng = random.Random(107)
    ok = True
    for P in (16.0, 100.0):
        Q3, Q2 = q3q2(P)
        for _ in range(1000):
            a3, a2 = rng.random(), rng.random()
            approx = simultaneous_approx(a3, a2, Q3, Q2)
            ok &= approx.q <= Q3 * Q2
            ok &= math.gcd(approx.q, math.gcd(approx.a3, approx.a2)) == 1
            ok &= verify_approx(a3, a2, Q3, Q2, approx)
    for P in (50.0, 100.0, 200.0):
        ok &= disjoint_oracle(P, 1.0 / 7.0)
    assert report(5, "two-dimensional Dirichlet approximation", ok)


# -------------------------------------------------------------- criterion 6

def test_criterion_6_local_machinery(pair_hensel7):
    rng = random.Random(109)
    ok = True
    # exact multiplicativity of residue counts, each N(q) from a direct scan mod q
    def direct_count(pair, q):
        return scan_joint_histogram(pair, q)[0, 0]

    for _ in range(50):
        n = rng.randint(1, 3)
        pair = random_sparse_pair(rng, n)
        while True:
            r, s = rng.randint(2, 9), rng.randint(2, 9)
            if math.gcd(r, s) == 1:
                break
        ok &= direct_count(pair, r * s) == direct_count(pair, r) * direct_count(pair, s)
    # S(1) = 1 exactly
    ok &= singular_series_truncated(pair_hensel7, 1).value == 1.0
    # q0 q1 q2 structure on random inputs
    quad = QuadraticForm(3, {(1, 1): 2, (2, 2): 6, (3, 3): 1})
    for _ in range(200):
        q = rng.randint(1, 5000)
        a3 = rng.randint(0, 5000)
        q0, q1, q2 = q_factorization(q, a3, quad)
        ok &= q0 * q1 * q2 == q
        ok &= all(e < 3 for _, e in factorize(q1))
        ok &= all(e >= 3 for _, e in factorize(q2))
        for p, _ in factorize(q0):
            v = max(
                max((e for pp, e in factorize(2 * d) if pp == p), default=0)
                for d in (2, 6)
            )
            ok &= a3 % p ** (1 + v) == 0
    # designated nonsingular fixture mod 7: primitive density equal at k=1,2
    rep = hensel_stable(pair_hensel7, 7, 2)
    ok &= rep.stable and rep.level is not None and rep.level <= 2
    ok &= rep.primitive_densities[0] == rep.primitive_densities[1]
    assert report(6, "local densities and factorization", ok)


# -------------------------------------------------------------- criterion 7

def test_criterion_7_archimedean(pair_line):
    ok = True
    # J(R) against a dense midpoint-rule oracle at R = 4
    weight = Weight((0.3, -0.3), 0.1)
    res = singular_integral_truncated(pair_line, weight, 4.0, tol=1e-8)
    n_grid = 2000
    xi = weight.xi
    xs = 0.3 - xi + (np.arange(n_grid) + 0.5) * (2 * xi / n_grid)
    ys = -0.3 - xi + (np.arange(n_grid) + 0.5) * (2 * xi / n_grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    cvals, qvals = X**3 + Y**3, X**2 - Y**2
    wvals = nu_grid(np.sqrt((X - 0.3) ** 2 + (Y + 0.3) ** 2) / xi)

    def kernel(R, u):
        safe = np.where(u == 0, 1.0, u)
        return np.where(np.abs(u) < 1e-12, 2 * R, np.sin(2 * np.pi * R * u) / (np.pi * safe))

    oracle = float(np.sum(wvals * kernel(4.0, cvals) * kernel(4.0, qvals))) * (
        2 * xi / n_grid
    ) ** 2
    ok &= abs(res.value - oracle) <= 1e-4
    # kernel identities
    rng = random.Random(113)
    for _ in range(500):
        R = rng.uniform(0.5, 8.0)
        u = rng.uniform(-3.0, 3.0)
        at_zero, k, k_neg = sin_kernel_grid(R, np.array([0.0, u, -u]))
        ok &= at_zero == 2 * R
        ok &= abs(k - k_neg) <= 1e-12
        ok &= abs(k) <= 2 * R + 1e-12
    # major-arc replacement error against its predicted scale
    for P in (32.0, 64.0):
        for q, a3, a2 in ((1, 1, 1), (2, 1, 1)):
            approx = RationalApprox(q, a3, a2, 0.3 * P**-3, 0.4 * P**-2)
            chk = major_arc_approx_check(pair_line, weight, P, approx)
            ok &= chk.ratio <= 50.0
    assert report(7, "archimedean machinery", ok)


# -------------------------------------------------------------- criterion 8

def test_criterion_8_weyl_diagnostics():
    start = time.time()
    ok = True

    fixtures = [
        (CubicForm(1, {(1, 1, 1): 1}), 50),
        (CubicForm(2, {(1, 1, 1): 1, (1, 1, 2): 1, (2, 2, 2): -2}), 10),
        (CubicForm(2, {(1, 2, 2): 3}), 8),
        (CubicForm(3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1}), 4),
        (CubicForm(3, {(1, 2, 3): 1, (1, 1, 1): 2}), 4),
    ]
    for cubic, R in fixtures:
        assert (2 * R - 1) ** (2 * cubic.n) <= 10**7
        ok &= count_bilinear(cubic, R) == full_scan_oracle(cubic, R)
    # frozen value for the one-variable cube
    ok &= count_bilinear(CubicForm(1, {(1, 1, 1): 1}), 5) == 17
    # height relation
    rng = random.Random(127)
    for _ in range(100):
        h_inv, rho = rng.randint(1, 8), rng.randint(1, 8)
        heights = heights_from_sum(rng.uniform(1e-3, 10.0), 16.0, 3, h_inv, rho)
        ok &= abs(heights.t2 - heights.t3 ** (h_inv / rho)) <= 1e-12 * heights.t2
    # growth exponent for the nonsingular diagonal cubic (h = n = 3)
    diag = CubicForm(3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1})
    rs = [4.0, 8.0, 16.0, 32.0, 64.0]
    counts = [float(count_bilinear(diag, int(r))) for r in rs]
    fit = fit_log_power(rs, counts)
    print(f"  n(R) slope for diagonal n=3: {fit.slope:.3f} (bound 3.5)")
    ok &= fit.slope <= 3.5
    elapsed = time.time() - start
    ok &= elapsed < 120.0
    assert report(8, "Weyl-differencing diagnostics", ok)


# -------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(
        '{"n": 2, "cubic": [[1,1,1,1],[2,2,2,1]], "quadric": [[1,1,1],[2,2,-1]],'
        ' "cubic_nonsingular": true, "weight": {"x0": [0.0, 0.0], "xi": 0.4}}'
    )
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"out{threads}.csv"
        code = cli_run(
            ["compare", "--problem", str(problem), "--P", "8,16,32",
             "--Rq", "3", "--Rgamma", "2", "--seed", "0",
             "--threads", threads, "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_text())
    ok = outputs[0] == outputs[1]
    if not ok:
        # fall back to the stated tolerance if ever not byte-identical
        rows = [o.strip().splitlines()[1:] for o in outputs]
        ok = all(
            abs(float(a) - float(b)) <= 1e-12 * max(1.0, abs(float(a)))
            for ra, rb in zip(*rows)
            for a, b in zip(ra.split(","), rb.split(","))
        )
    assert report(9, "end-to-end determinism", ok)
