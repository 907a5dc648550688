"""The support-box contraction against a full-grid oracle and against the
sum box by box of weightfn.CHUNK points, the independence of threads, the
periodic Poisson family against the direct sum on its nodes, its phase
table against direct exponentials, the rule that picks its period, and the
stop at a non-finite level."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circlelab import weightfn
from circlelab.archimedean import singular_integral_truncated
from circlelab.expsums import _smooth_phase, osc_integral
from circlelab.quadrature import QuadratureError, _phase_table, grid_contract, periodic_turn, tensor_integral
from circlelab.weightfn import Weight, omega_grid, support_chunks

from conftest import axis_nodes_weights, chunk_box_sum, make_pair


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
# boxes of at most 7 nodes: 3 of them at n = 1, 3 717 at n = 4; as the
# sub-boxes of boxes of at most 64 nodes, each box holds several
SMALL_CHUNK = 7
SMALL_BOX = 64


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contraction_matches_full_grid(monkeypatch, n):
    pair, weight = _problem(n)
    z = [0.7 * (i + 1) for i in range(n)]

    def f(axes):
        return _smooth_phase(pair, weight, 1.5, -2.0, axes, z)

    expected = full_grid_value(f, weight.center, weight.xi, M_INTERVALS)
    monkeypatch.setattr(weightfn, "BOX", SMALL_BOX)
    monkeypatch.setattr(weightfn, "CHUNK", SMALL_CHUNK)
    got = complex(grid_contract(f, weight, M_INTERVALS))
    assert abs(got - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_single_sum_equals_the_chunk_box_oracle(n):
    # at the real box sizes, every level whose support fits one box of
    # weightfn.BOX points has the sub-boxes of the whole grid at
    # weightfn.CHUNK, so its sum is the oracle's bit for bit; a level of
    # several boxes adds the same node values in another order
    pair, weight = _problem(n)
    z = [0.7 * (i + 1) for i in range(n)]

    def f(axes):
        return _smooth_phase(pair, weight, 1.5, -2.0, axes, z)

    boxes = []
    for level in range(3, 12):
        m = 2**level
        if (m + 1) ** n > 8 * weightfn.BOX:
            break
        density = m / (2.0 * weight.xi)
        origin = [c - weight.xi for c in weight.center]
        boxes.append(len(support_chunks(weight, density, [(0, m)] * n, origin, weightfn.BOX)))
        got, expected = complex(grid_contract(f, weight, m)), chunk_box_sum(f, weight, m)
        if boxes[-1] == 1:
            assert repr(got) == repr(expected)
        else:
            assert abs(got - expected) <= 1e-14 * abs(expected)
    assert boxes[0] == 1
    if n >= 3:
        assert boxes[-1] > 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("integral", ["tensor", "osc", "J"])
def test_single_sums_do_not_depend_on_threads(monkeypatch, n, integral):
    # the same value, error and level, bit for bit, whatever the threads
    pair, weight = _problem(n)
    z = [0.7 * (i + 1) for i in range(n)]
    run = {
        "tensor": lambda threads: tensor_integral(
            lambda axes: _smooth_phase(pair, weight, 1.5, -2.0, axes, z), weight, 1e-9, threads=threads),
        "osc": lambda threads: osc_integral(pair, weight, 1.5, -2.0, z, tol=1e-9, threads=threads),
        "J": lambda threads: singular_integral_truncated(pair, weight, 2.0, tol=1e-9, threads=threads),
    }[integral]
    # boxes of at most 16^n nodes, each cut into sub-boxes of at most
    # 2^(4n-3): the last level of each integral spans several boxes
    monkeypatch.setattr(weightfn, "BOX", 16**n)
    monkeypatch.setattr(weightfn, "CHUNK", 16**n // 8)
    one = run(1)
    m = 2**one.level
    density = m / (2.0 * weight.xi)
    origin = [c - weight.xi for c in weight.center]
    assert len(support_chunks(weight, density, [(0, m)] * n, origin, weightfn.BOX)) > 1
    for threads in (2, 3):
        other = run(threads)
        assert (repr(other.value), repr(other.error), other.level) == (repr(one.value), repr(one.error), one.level)


def test_single_sum_at_the_real_box_size_does_not_depend_on_threads():
    # the n = 3 grid of 129^3 nodes spans several boxes of weightfn.BOX points
    pair, weight = _problem(3)
    z = [0.7, 1.4, 2.1]
    m = 128
    origin = [c - weight.xi for c in weight.center]
    assert len(support_chunks(weight, m / (2.0 * weight.xi), [(0, m)] * 3, origin, weightfn.BOX)) > 1

    def f(axes):
        return _smooth_phase(pair, weight, 1.5, -2.0, axes, z)

    one = complex(grid_contract(f, weight, m))
    assert repr(complex(grid_contract(f, weight, m, threads=2))) == repr(one)


def family_nodes(weight, m, step):
    """The nodes x_j = c_i - xi + j h, j <= J, on each axis of the periodic
    grid that m intervals size at frequency step: step h is the
    periodic_turn of 2 xi step / m, and J = floor(2 xi / h)."""
    turn = periodic_turn(2 * Fraction(weight.xi) * step / m)
    h = float(turn / step)
    last = math.floor(2 * Fraction(weight.xi) * step / turn)
    return h, [c - weight.xi + h * np.arange(last + 1) for c in weight.center]


def direct_family(f, weight, m, step, M):
    """Oracle: h^n sum_j f(x_j) e(-step k.x_j) for every k in [-M, M]^n on
    the nodes of family_nodes, f on the whole grid at once, contracted axis
    by axis with the direct exponentials; step k x is taken in long double
    and reduced mod 1 before the exp, so that the oracle's phases are good
    to about 1e-18 turns.  Also returns h^n sum_j |f(x_j)|, the scale of
    every entry."""
    n = weight.n
    ks = np.arange(-M, M + 1)
    h, nodes = family_nodes(weight, m, step)
    vals = np.asarray(f([x.reshape((1,) * i + (-1,) + (1,) * (n - 1 - i)) for i, x in enumerate(nodes)]))
    scale = h**n * float(np.abs(vals).sum())
    for i in range(n - 1, -1, -1):
        turns = np.longdouble(step.numerator) * np.outer(nodes[i].astype(np.longdouble), ks)
        turns /= step.denominator
        turns -= np.round(turns)
        vals = np.tensordot(vals, h * np.exp(-2j * np.pi * turns.astype(float)), axes=([i], [0]))
    # the frequency axes came out last axis first
    return np.transpose(vals), scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frequency_family_matches_full_grid(monkeypatch, n):
    # the Poisson m-family: one contraction gives the sum for every k in
    # [-1, 1]^n on a periodic grid, each checked against the whole grid at
    # once.  The double nearest xi = 0.3 lies below it, so y = 2 xi (5/2) /
    # 16 is just below 3/32 and the grid turns by 4/43 per node (r = 4, N =
    # 43)
    pair, weight = _problem(n)
    step = Fraction(5, 2)
    assert periodic_turn(2 * Fraction(weight.xi) * step / M_INTERVALS) == Fraction(4, 43)

    def smooth(axes):
        return _smooth_phase(pair, weight, 1.5, -2.0, axes, [0.0] * n)

    expected, _ = direct_family(smooth, weight, M_INTERVALS, step, 1)
    monkeypatch.setattr(weightfn, "BOX", SMALL_CHUNK)
    got = grid_contract(smooth, weight, M_INTERVALS, step=step, M=1)
    assert got.shape == (3,) * n
    assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))


# centres and radii keep the support inside (-1/2, 1/2)^n, so no weight
# warns; grids of more than 40 000 nodes are not drawn
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    centre=st.lists(st.floats(-0.09, 0.09), min_size=3, max_size=3),
    xi=st.floats(0.05, 0.4),
    step=st.fractions(1, 12, max_denominator=7),
    M=st.integers(0, 12),
    m=st.integers(4, 60),
    chunk=st.sampled_from([7, 64, weightfn.CHUNK, weightfn.BOX]),
)
# N = 128 < 2M + 1 = 129, as on the first level of the benchmark's n = 2 jobs
@example(n=1, centre=[0.031] * 3, xi=0.4, step=Fraction(5), M=64, m=512, chunk=weightfn.BOX)
# turn 7/10: r > 1 and an N that is not a power of two, N < 2M + 1
@example(n=2, centre=[0.02, -0.03, 0.0], xi=0.4, step=Fraction(35, 4), M=6, m=10, chunk=weightfn.BOX)
# turn 1/3: rows of 33 nodes cut into boxes of 7 and of 64 nodes, each folded to 3 sums
@example(n=1, centre=[0.01] * 3, xi=0.4, step=Fraction(40, 3), M=2, m=32, chunk=7)
@example(n=2, centre=[0.01, 0.05, 0.0], xi=0.4, step=Fraction(40, 3), M=2, m=32, chunk=64)
# turn 1, N = 1: every node folds into one sum per box
@example(n=3, centre=[0.0] * 3, xi=0.4, step=Fraction(10), M=0, m=8, chunk=64)
def test_periodic_family_equals_the_direct_sum(n, centre, xi, step, M, m, chunk):
    pair, _ = _problem(n)
    weight = Weight(tuple(centre[:n]), xi)
    _, nodes = family_nodes(weight, m, step)
    assume(len(nodes[0]) ** n <= 40_000)

    def smooth(axes):
        return _smooth_phase(pair, weight, 1.5, -2.0, axes, [0.0] * n)

    expected, scale = direct_family(smooth, weight, m, step, M)
    # chunk is the box of the family; the sub-boxes serve single sums only
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weightfn, "BOX", chunk)
        got = grid_contract(smooth, weight, m, step=step, M=M)
    assert got.shape == (2 * M + 1,) * n
    assert np.max(np.abs(got - expected)) <= 1e-13 * scale


# on the levels of m intervals of a weight of radius 0.4 the grids turn by
# 4/m per node at P/q = 5, by 1/3, 1/24, 1/192 and 1/384 at 10/3, and by
# 7/8, 5/46, 1/73 and 1/146 at 703/80
@pytest.mark.parametrize("m", [8, 64, 512, 1024])
@pytest.mark.parametrize("step", [Fraction(5), Fraction(10, 3), Fraction(703, 80)],
                         ids=["step5", "step10_3", "step703_80"])
def test_phase_table_equals_the_direct_exponentials(m, step):
    # row t of the table is h e(-k t turn) to a few ulp, and the table
    # repeats with period N bit for bit
    turn = periodic_turn(Fraction(0.8) * step / m)
    period = turn.denominator
    ks = np.arange(-64, 65)
    h = float(turn / step)
    rows = 2 * period - 1
    table = _phase_table(turn, rows, ks, h)
    turns = np.outer(np.arange(rows), ks).astype(np.longdouble) * turn.numerator / period
    turns -= np.round(turns)
    assert np.max(np.abs(table - h * np.exp(-2j * np.pi * turns.astype(float)))) <= 4e-15 * h
    assert np.array_equal(table[period:], table[: period - 1])


@pytest.mark.parametrize("y, turn", [
    (Fraction(1, 128), Fraction(1, 128)),
    (0.703, Fraction(7, 10)),
    (93.75, Fraction(93)),
    # an integer is kept, though 124 also has N = 1
    (125, Fraction(125)),
    # the double nearest 1/96 lies below it, so 1/96 is out of [y (1 - 2^-6), y]
    (1 / 96, Fraction(1, 97)),
])
def test_periodic_turn(y, turn):
    assert periodic_turn(y) == turn


@settings(max_examples=200, deadline=None)
@given(st.fractions(Fraction(1, 300), 200, max_denominator=10**6))
def test_periodic_turn_has_the_least_period(y):
    # no fraction of a smaller denominator lies in [y (1 - 2^-6), y]
    turn = periodic_turn(y)
    lo = y * Fraction(63, 64)
    assert lo <= turn <= y
    for period in range(1, turn.denominator):
        assert math.ceil(lo * period) > y * period


def test_non_finite_level_ends_the_refinement():
    # an integrand that overflows to inf on the support stops the
    # refinement at its first level, with no warning
    weight = Weight((0.0, 0.0), 0.4)
    with pytest.raises(QuadratureError, match=r"^quadrature level 3 \(9\^2 nodes\) gave the non-finite value"):
        tensor_integral(lambda axes: omega_grid(weight, axes) * 1e300 * 1e300, weight, 1e-8)
