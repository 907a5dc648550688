"""Shared fixtures: small form pairs used across the suite, the n(R) oracle,
the direct residue-scan oracles, the scalar sin-kernel oracle, and the
hypothesis profile of CI."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import settings

from circlelab import gridsum
from circlelab.archimedean import _SERIES_SWITCH
from circlelab.forms import CubicForm, FormPair, QuadraticForm, bilinear_matrix
from circlelab.weightfn import Weight

# CI selects this profile (pytest --hypothesis-profile=ci) so that every run
# draws the same examples; local runs keep the default random draws
settings.register_profile("ci", derandomize=True)


def make_pair(n, cubic, quadric, **kwargs):
    return FormPair(CubicForm(n, cubic), QuadraticForm(n, quadric), **kwargs)


def full_scan_oracle(cubic, R):
    """n(R) by a double loop over (x, y) pairs in the open sup-norm box,
    testing B_i(x; y) = (M(x) y)_i = 0 for every i by plain integer sums."""
    box = list(itertools.product(range(-(R - 1), R), repeat=cubic.n))
    count = 0
    for x in box:
        m = bilinear_matrix(cubic, x)
        count += sum(1 for y in box if not any(sum(map(operator.mul, row, y)) for row in m))
    return count


def scan_joint_histogram(pair, q, cap=10**8, threads=1):
    """(C mod q, Q mod q) histogram from one direct scan of all q^n residues
    (also at prime powers and composite q): the oracle of the lift and the CRT."""

    def per_chunk(coords, c, qq):
        return np.bincount(c * q + qq, minlength=q * q)

    return np.sum(gridsum.scan(pair, q, per_chunk, cap, threads), axis=0).reshape(q, q)


def scan_phase_histogram(pair, q, a3, a2, m):
    """Histogram of a3 C + a2 Q + m.y mod q from one direct scan of all q^n residues."""

    def per_chunk(coords, c, qq):
        t = (a3 * c + a2 * qq + sum(mi * y for mi, y in zip(m, coords))) % q
        return np.bincount(t, minlength=q)

    return np.sum(gridsum.scan(pair, q, per_chunk), axis=0)


def sin_kernel(R, u):
    """K_R(u) = sin(2 pi R u) / (pi u) for one float, continuous with K_R(0) = 2R:
    the oracle of archimedean.sin_kernel_grid."""
    if abs(u) < _SERIES_SWITCH:
        w = 2.0 * math.pi * R * u
        return 2.0 * R * (1.0 - w * w / 6.0 + w**4 / 120.0)
    return math.sin(2.0 * math.pi * R * u) / (math.pi * u)


@pytest.fixture
def pair_n1():
    """C = x^3, Q = x^2 (only the origin solves both over Z)."""
    return make_pair(1, {(1, 1, 1): 1}, {(1, 1): 1})


@pytest.fixture
def pair_line():
    """C = x1^3 + x2^3, Q = x1^2 - x2^2: solutions form the line t(1, -1)."""
    return make_pair(2, {(1, 1, 1): 1, (2, 2, 2): 1}, {(1, 1): 1, (2, 2): -1})


@pytest.fixture
def pair_n3():
    """C = x1^3 + x2^3 + x3^3, Q = x1^2 - x2^2."""
    return make_pair(3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1}, {(1, 1): 1, (2, 2): -1})


@pytest.fixture
def pair_hensel7():
    """Diagonal pair whose mod-7 reduction has only smooth nonzero points."""
    return make_pair(
        3,
        {(1, 1, 1): 1, (2, 2, 2): 2, (3, 3, 3): 3},
        {(1, 1): 1, (2, 2): 1, (3, 3): -1},
    )


@pytest.fixture
def pair_smooth5():
    """Pair with the smooth common zero (1, -1, 0): Jacobian rank 2 mod 5."""
    return make_pair(
        3,
        {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1},
        {(1, 1): 1, (2, 2): -1, (2, 3): 1},
    )


@pytest.fixture
def broad_weight():
    return Weight((0.0, 0.0), 0.4)
