"""The support-box contraction against a full-grid oracle, the Poisson phase
matrices against direct exponentials, and the stop at a non-finite level."""

import itertools

import numpy as np
import pytest

from circlelab import weightfn
from circlelab.expsums import _smooth_phase
from circlelab.quadrature import QuadratureError, _phase_matrix, grid_contract, tensor_integral
from circlelab.weightfn import Weight, omega_grid

from conftest import axis_nodes_weights, make_pair


def full_grid_value(f, centers, half, m):
    """Oracle: f on the whole tensor grid at once, contracted axis by axis
    with the trapezoid weights, end weights halved."""
    ndim = len(centers)
    axes = []
    weights = []
    for i, c in enumerate(centers):
        nodes, w = axis_nodes_weights(c, half, m)
        shape = [1] * ndim
        shape[i] = m + 1
        axes.append(nodes.reshape(shape))
        weights.append(w)
    vals = np.asarray(f(axes))
    for w in reversed(weights):
        vals = np.tensordot(vals, w, axes=([vals.ndim - 1], [0]))
    return complex(vals)


# a pair with cross terms in every dimension, off-center weight
def _problem(n):
    cubic = {(1, 1, 1): 1, (1, 1, n): 2, (n, n, n): -1}
    quadric = {(1, 1): 1, (1, n): -1, (n, n): 2}
    center = tuple(0.05 * (-1) ** i for i in range(n))
    return make_pair(n, cubic, quadric), Weight(center, 0.3)


M_INTERVALS = 16
# boxes of at most 7 nodes: 3 of them at n = 1, 3 717 at n = 4
SMALL_CHUNK = 7


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contraction_matches_full_grid(monkeypatch, n):
    pair, weight = _problem(n)
    z = [0.7 * (i + 1) for i in range(n)]

    def f(axes):
        return _smooth_phase(pair, weight, 1.5, -2.0, axes, z)

    expected = full_grid_value(f, weight.center, weight.xi, M_INTERVALS)
    monkeypatch.setattr(weightfn, "CHUNK", SMALL_CHUNK)
    got = complex(grid_contract(f, weight, M_INTERVALS))
    assert abs(got - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frequency_family_matches_full_grid(monkeypatch, n):
    # the Poisson m-family: one contraction gives the sum for every
    # k in ks^n, each checked on its own full grid
    pair, weight = _problem(n)
    ks = np.arange(-1, 2)

    def smooth(axes):
        return _smooth_phase(pair, weight, 1.5, -2.0, axes, [0.0] * n)

    monkeypatch.setattr(weightfn, "CHUNK", SMALL_CHUNK)
    family = grid_contract(smooth, weight, M_INTERVALS, ks, 2.5)
    assert family.shape == (len(ks),) * n
    for idx in itertools.product(range(len(ks)), repeat=n):
        k = [2.5 * ks[i] for i in idx]
        expected = full_grid_value(
            lambda axes: _smooth_phase(pair, weight, 1.5, -2.0, axes, k),
            weight.center, weight.xi, M_INTERVALS,
        )
        assert abs(family[idx] - expected) <= 1e-13 * abs(expected), idx


@pytest.mark.parametrize("m", [8, 64, 512, 1024])
@pytest.mark.parametrize("ks", [np.arange(-64, 65), np.arange(0, 5), np.array([3, -1, 0, 1, -3, 2, 2])],
                         ids=["symmetric", "nonnegative", "shuffled"])
def test_phase_matrices_equal_the_direct_exponentials(m, ks):
    # the columns of negative k are conjugated copies, and equal the direct
    # exponentials bit for bit; the rows stay contiguous
    for centre, xi, step in ((0.0, 0.4, 1.0), (0.031, 0.4, 2.5), (-0.27, 0.2, 10 / 3), (0.1, 0.37, 5.0)):
        x = np.linspace(centre - xi, centre + xi, m + 1)
        h = 2.0 * xi / m
        mat = _phase_matrix(x, ks, step, h)
        assert np.array_equal(mat, h * np.exp(-2j * np.pi * step * np.outer(x, ks)))
        assert mat.flags.c_contiguous


def test_non_finite_level_ends_the_refinement():
    # an integrand that overflows to inf on the support stops the
    # refinement at its first level, with no warning
    weight = Weight((0.0, 0.0), 0.4)
    with pytest.raises(QuadratureError, match=r"^quadrature level 3 \(9\^2 nodes\) gave the non-finite value"):
        tensor_integral(lambda axes: omega_grid(weight, axes) * 1e300 * 1e300, weight, 1e-8)
