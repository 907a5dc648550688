"""The streamed tensor-grid contraction against a full-grid oracle."""

import itertools

import numpy as np
import pytest

from circlelab import quadrature
from circlelab.expsums import _smooth_phase
from circlelab.quadrature import axis_nodes_weights, grid_contract
from circlelab.weightfn import Weight

from conftest import make_pair


def full_grid_value(f, centers, half, m):
    """Oracle: f on the whole tensor grid at once, contracted axis by axis."""
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contraction_matches_full_grid(monkeypatch, n):
    pair, weight = _problem(n)
    z = [0.7 * (i + 1) for i in range(n)]

    def f(axes):
        return _smooth_phase(pair, weight, 1.5, -2.0, axes, z)

    expected = full_grid_value(f, weight.center, weight.xi, M_INTERVALS)
    # slabs of 5 rows along axis 0: four slabs, the last one short
    monkeypatch.setattr(quadrature, "SLAB_POINTS", 5 * (M_INTERVALS + 1) ** (n - 1))
    got = complex(grid_contract(f, weight, M_INTERVALS))
    assert abs(got - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("gammas", [(1.5, -2.0), (0.0, 0.0)])
def test_one_slab_equals_the_full_grid_exactly(n, gammas):
    # f is called on the support boxes only and the rest of the slab is 0,
    # where the full grid holds omega's exact zeros times finite values;
    # contracted the same way, the two agree bit for bit
    pair, weight = _problem(n)

    def f(axes):
        return _smooth_phase(pair, weight, *gammas, axes, [0.7] * n)

    assert (M_INTERVALS + 1) ** n <= quadrature.SLAB_POINTS
    got = complex(grid_contract(f, weight, M_INTERVALS))
    assert got == full_grid_value(f, weight.center, weight.xi, M_INTERVALS)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frequency_family_matches_full_grid(monkeypatch, n):
    # the Poisson m-family: one contraction gives the sum for every
    # k in ks^n, each checked on its own full grid
    pair, weight = _problem(n)
    ks = np.arange(-1, 2)

    def smooth(axes):
        return _smooth_phase(pair, weight, 1.5, -2.0, axes)

    monkeypatch.setattr(quadrature, "SLAB_POINTS", 5 * (M_INTERVALS + 1) ** (n - 1) * len(ks))
    family = grid_contract(smooth, weight, M_INTERVALS, ks, 2.5)
    assert family.shape == (len(ks),) * n
    for idx in itertools.product(range(len(ks)), repeat=n):
        k = [2.5 * ks[i] for i in idx]
        expected = full_grid_value(
            lambda axes: _smooth_phase(pair, weight, 1.5, -2.0, axes, k),
            weight.center, weight.xi, M_INTERVALS,
        )
        assert abs(family[idx] - expected) <= 1e-13 * abs(expected), idx
