"""Exact form algebra: evaluation, bilinear forms, rank/signature, predicates."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import weightfn
from circlelab.forms import (
    CubicForm,
    FormPair,
    QuadraticForm,
    Signature,
    bilinear_matrix,
    block_pair,
    eval_cubic,
    eval_quadratic,
    gradient_cubic,
    gradient_quadratic,
    h_parameter,
    hypothesis_report,
    int64_bound,
    minor_bound,
    separable_blocks,
    signature_quadratic,
    smooth_point_test,
)
from circlelab.gridsum import cubic_singular_points_mod_p

from conftest import bilinear_forms, make_pair


def random_cubic(rng, n, terms=4, size=9):
    mono = {}
    for _ in range(terms):
        idx = tuple(sorted(rng.randint(1, n) for _ in range(3)))
        mono[idx] = mono.get(idx, 0) + rng.randint(-size, size)
    return CubicForm(n, mono)


def random_quadric(rng, n, terms=3, size=9):
    mono = {}
    for _ in range(terms):
        idx = tuple(sorted(rng.randint(1, n) for _ in range(2)))
        mono[idx] = mono.get(idx, 0) + rng.randint(-size, size)
    return QuadraticForm(n, mono)


# ---------------------------------------------------------------- evaluation

def test_eval_cubic_examples():
    cube = CubicForm(1, {(1, 1, 1): 1})
    assert eval_cubic(cube, [2]) == 8
    two_cubes = CubicForm(2, {(1, 1, 1): 1, (2, 2, 2): 1})
    assert eval_cubic(two_cubes, [0, 0]) == 0
    assert eval_cubic(two_cubes, [1, -1]) == 0


def test_eval_homogeneity():
    rng = random.Random(7)
    for _ in range(50):
        c = random_cubic(rng, 3)
        x = [rng.randint(-5, 5) for _ in range(3)]
        lam = rng.randint(-4, 4)
        assert eval_cubic(c, [lam * v for v in x]) == lam**3 * eval_cubic(c, x)


@st.composite
def broadcast_cases(draw):
    """A cubic and a quadric (possibly without monomials) and one value list per axis."""
    n = draw(st.integers(1, 3))
    coeff = st.integers(-9, 9).filter(bool)

    def monomials(degree):
        keys = list(itertools.combinations_with_replacement(range(1, n + 1), degree))
        return draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=4))

    cubic, quadric = CubicForm(n, monomials(3)), QuadraticForm(n, monomials(2))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    if dtype is np.int64:
        elements = st.integers(-50, 50)
    else:
        elements = st.floats(-3, 3, allow_nan=False, allow_subnormal=False)
    values = [draw(st.lists(elements, min_size=1, max_size=4)) for _ in range(n)]
    return cubic, quadric, dtype, values


@settings(max_examples=80, deadline=None)
@given(broadcast_cases())
def test_evaluators_broadcast_exactly_like_scalar_evaluation(case):
    # one value list per axis, each along its own numpy axis: every grid
    # point carries the bits of the scalar evaluation at that point
    cubic, quadric, dtype, values = case
    n = cubic.n
    axes = [
        np.array(v, dtype=dtype).reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
        for i, v in enumerate(values)
    ]
    shape = tuple(len(v) for v in values)
    for evaluate, form in ((eval_cubic, cubic), (eval_quadratic, quadric)):
        grid = evaluate(form, axes)
        if form.monomials:
            assert grid.dtype == dtype
        grid = np.broadcast_to(grid, shape)
        for idx in itertools.product(*map(range, shape)):
            point = [v[k] for v, k in zip(values, idx)]
            assert grid[idx] == evaluate(form, point), (idx, point)


def test_int64_bound():
    pair = make_pair(2, {(1, 1, 2): -3}, {(2, 2): 5})
    assert int64_bound(pair, [2, 7]) == (3 * 2 * 2 * 7 + 5 * 7 * 7, True)
    # the bound majorizes |C| and |Q| alike; fits is strict at 2^62
    assert int64_bound(make_pair(1, {(1, 1, 1): 2**62 - 1}, {}), [1]) == (2**62 - 1, True)
    assert int64_bound(make_pair(1, {}, {(1, 1): 2**60}), [2]) == (2**62, False)


def _det(m):
    """Exact determinant by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def test_minor_bound_majorizes_every_minor():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 3)
        cubic = random_cubic(rng, n, terms=rng.randint(0, 4))
        r = rng.randint(0, 2)
        bound, fits = minor_bound(cubic, r)
        assert fits and bound >= 2
        for x in itertools.product(range(-r, r + 1), repeat=n):
            m = bilinear_matrix(cubic, x)
            for k in range(1, n + 1):
                for rows in itertools.combinations(range(n), k):
                    for cols in itertools.combinations(range(n), k):
                        minor = _det([[m[i][j] for j in cols] for i in rows])
                        assert 2 * minor * minor <= bound
    # diagonal x1^3 + x2^3 on |x_i| <= 3: H = 18^2, bound 2 H^2; fits is strict at 2^62
    assert minor_bound(CubicForm(2, {(1, 1, 1): 1, (2, 2, 2): 1}), 3) == (2 * 18**4, True)
    assert minor_bound(CubicForm(1, {(1, 1, 1): 2**30}), 0)[1] is False


def test_separable_blocks():
    # diagonal: n blocks of one variable
    diag = make_pair(4, {(i, i, i): 1 for i in range(1, 5)}, {(i, i): i for i in range(1, 5)})
    assert separable_blocks(diag) == [(0,), (1,), (2,), (3,)]
    # the mixed N3 shape: x1 x2 x3 couples all three
    n3 = make_pair(3, {(1, 1, 1): 1, (2, 2, 2): 2, (3, 3, 3): -1, (1, 2, 3): 1},
                   {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 2): 1, (2, 3): 1})
    assert separable_blocks(n3) == [(0, 1, 2)]
    # a chain through both forms joins x1, x3, x4, x5; x2 is in no monomial
    chain = make_pair(5, {(4, 4, 5): 1}, {(1, 3): 1, (3, 4): -2})
    assert separable_blocks(chain) == [(0, 2, 3, 4), (1,)]
    # {x1, x2} coupled by the quadric alone, x3 alone
    assert separable_blocks(make_pair(3, {(1, 1, 1): 1, (3, 3, 3): 1}, {(1, 2): 1})) == [(0, 1), (2,)]
    # no monomials at all
    assert separable_blocks(make_pair(2, {}, {})) == [(0,), (1,)]


# (n, cubic keys, quadric keys) of a sparse pair in n <= 6 variables
SUPPORTS = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[st.integers(1, n)] * 3).map(lambda t: tuple(sorted(t))), max_size=4),
    st.lists(st.tuples(*[st.integers(1, n)] * 2).map(lambda t: tuple(sorted(t))), max_size=4),
))


@settings(max_examples=100, deadline=None)
@given(SUPPORTS)
def test_separable_blocks_split_the_forms(case):
    # the blocks partition the variables, every monomial lies in one block,
    # and no block splits into two that the monomials leave apart
    n, cubic, quadric = case
    pair = make_pair(n, {key: 1 for key in cubic}, {key: 1 for key in quadric})
    blocks = separable_blocks(pair)
    assert sorted(v for b in blocks for v in b) == list(range(n))
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    keys = list(pair.cubic.monomials) + list(pair.quadric.monomials)
    for block in blocks:
        assert all((k[0] - 1 in block) == all(v - 1 in block for v in k) for k in keys)
        for size in range(1, len(block)):
            for part in itertools.combinations(block, size):
                # some monomial meets both part and the rest of the block
                assert any({v - 1 for v in k} & set(part) and {v - 1 for v in k} - set(part) for k in keys)


@settings(max_examples=60, deadline=None)
@given(SUPPORTS, st.data())
def test_block_pairs_sum_to_the_pair(case, data):
    # each monomial lands in exactly one block pair, and C and Q at a point
    # are the sums of the block pairs' values at the block's coordinates
    n, cubic, quadric = case
    coeff = st.integers(-(2**70), 2**70)
    pair = make_pair(n, {key: data.draw(coeff) for key in cubic}, {key: data.draw(coeff) for key in quadric})
    x = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    parts = [(block, block_pair(pair, block)) for block in separable_blocks(pair)]
    assert all(own.n == len(block) for block, own in parts)
    assert sum(len(own.cubic.monomials) for _, own in parts) == len(pair.cubic.monomials)
    assert sum(len(own.quadric.monomials) for _, own in parts) == len(pair.quadric.monomials)
    xb = [[x[v] for v in block] for block, _ in parts]
    assert sum(eval_cubic(own.cubic, y) for (_, own), y in zip(parts, xb)) == eval_cubic(pair.cubic, x)
    assert sum(eval_quadratic(own.quadric, y) for (_, own), y in zip(parts, xb)) == eval_quadratic(pair.quadric, x)
    # the whole set of variables is the pair itself
    assert block_pair(pair, range(n)) == FormPair(pair.cubic, pair.quadric)


def test_dimension_mismatch():
    cube = CubicForm(2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        eval_cubic(cube, [1])
    with pytest.raises(ValueError):
        bilinear_matrix(cube, [1])


def test_bad_monomials_rejected():
    with pytest.raises(ValueError):
        CubicForm(2, {(2, 1, 1): 1})  # not ordered
    with pytest.raises(ValueError):
        CubicForm(2, {(1, 1, 3): 1})  # index out of range
    with pytest.raises(ValueError):
        QuadraticForm(2, {(2, 1): 1})


# ------------------------------------------------------------ bilinear forms

def test_bilinear_single_variable():
    cube = CubicForm(1, {(1, 1, 1): 1})
    assert bilinear_forms(cube, [2], [3]) == [36]


def test_bilinear_mixed_monomial():
    # C = x1^2 x2, tensor entries c_112 = c_121 = c_211 = 1/3.
    # B_1((1,0);(0,1)) = 3! (c_112 * 1 * 1) = 2, hand-expanded oracle.
    cube = CubicForm(2, {(1, 1, 2): 1})
    assert bilinear_forms(cube, [1, 0], [0, 1]) == [2, 0]
    assert bilinear_forms(cube, [1, 0], [1, 0]) == [0, 2]


def test_bilinear_zero_argument():
    rng = random.Random(3)
    cube = random_cubic(rng, 3)
    x = [rng.randint(-5, 5) for _ in range(3)]
    assert bilinear_forms(cube, x, [0, 0, 0]) == [0, 0, 0]


def test_bilinear_symmetry_and_euler():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        cube = random_cubic(rng, n, terms=5)
        for _ in range(100):
            x = [rng.randint(-9, 9) for _ in range(n)]
            y = [rng.randint(-9, 9) for _ in range(n)]
            bxy = bilinear_forms(cube, x, y)
            assert bxy == bilinear_forms(cube, y, x)
            bxx = bilinear_forms(cube, x, x)
            assert sum(v * b for v, b in zip(x, bxx)) == 6 * eval_cubic(cube, x)


def test_quadratic_euler_identity():
    rng = random.Random(13)
    for _ in range(200):
        quad = random_quadric(rng, 3)
        x = [rng.randint(-9, 9) for _ in range(3)]
        grad = gradient_quadratic(quad, x)
        assert sum(v * g for v, g in zip(x, grad)) == 2 * eval_quadratic(quad, x)


# ----------------------------------------------------------------- gradients

def test_gradient_examples():
    quad = QuadraticForm(2, {(1, 1): 1, (2, 2): -1})
    assert gradient_quadratic(quad, [3, 5]) == [6, -10]
    cube = CubicForm(3, {(1, 1, 1): 1})
    assert gradient_cubic(cube, [2, 0, 0]) == [12, 0, 0]
    assert gradient_quadratic(quad, [0, 0]) == [0, 0]


def test_gradient_vs_bilinear():
    # B_i(x; x) = 2 dC/dx_i is forced by the tensor symmetry
    rng = random.Random(17)
    for _ in range(100):
        cube = random_cubic(rng, 3)
        x = [rng.randint(-6, 6) for _ in range(3)]
        bxx = bilinear_forms(cube, x, x)
        grad = gradient_cubic(cube, x)
        assert bxx == [2 * g for g in grad]


def test_gram_matrix_identity():
    rng = random.Random(19)
    for _ in range(100):
        quad = random_quadric(rng, 4)
        g = quad.gram()
        x = [rng.randint(-6, 6) for _ in range(4)]
        xgx = sum(x[i] * g[i][j] * x[j] for i in range(4) for j in range(4))
        assert xgx == 2 * eval_quadratic(quad, x)


# ------------------------------------------------------------ rank/signature

def test_rank_examples():
    assert signature_quadratic(QuadraticForm(3, {(1, 1): 1, (2, 2): 1, (3, 3): -1})).rank == 3
    assert signature_quadratic(QuadraticForm(2, {(1, 1): 1})).rank == 1
    # hyperbolic plane x1 x2: Gram [[0,1],[1,0]] eliminates to rank 2
    assert signature_quadratic(QuadraticForm(2, {(1, 2): 1})).rank == 2


def test_rank_diagonal_counts_nonzero():
    rng = random.Random(23)
    for _ in range(50):
        diag = [rng.randint(-5, 5) for _ in range(5)]
        quad = QuadraticForm(5, {(i + 1, i + 1): d for i, d in enumerate(diag) if d})
        assert signature_quadratic(quad).rank == sum(1 for d in diag if d)


def test_signature_examples():
    assert signature_quadratic(
        QuadraticForm(3, {(1, 1): 1, (2, 2): 1, (3, 3): -1})
    ) == Signature(2, 1)
    # x1 x2 = ((x1+x2)^2 - (x1-x2)^2)/4, one positive one negative
    assert signature_quadratic(QuadraticForm(2, {(1, 2): 1})) == Signature(1, 1)
    assert signature_quadratic(QuadraticForm(2, {})) == Signature(0, 0)


def _congruent_transform(quad, t):
    """QuadraticForm of Q(T x) for an integer matrix T."""
    n = quad.n
    g = quad.gram()
    gt = [[sum(t[a][i] * g[a][b] * t[b][j] for a in range(n) for b in range(n))
           for j in range(n)] for i in range(n)]
    mono = {}
    for i in range(n):
        if gt[i][i]:
            assert gt[i][i] % 2 == 0
            mono[(i + 1, i + 1)] = gt[i][i] // 2
        for j in range(i + 1, n):
            if gt[i][j]:
                mono[(i + 1, j + 1)] = gt[i][j]
    return QuadraticForm(n, mono)


def _random_unimodular(rng, n):
    """Product of random integer shears and swaps (determinant +-1)."""
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            t[i][k] += c * t[j][k]
    return t


def test_signature_congruence_invariant():
    rng = random.Random(29)
    for _ in range(40):
        quad = random_quadric(rng, 4, terms=5)
        sig = signature_quadratic(quad)
        assert sig.rank == np.linalg.matrix_rank(np.array(quad.gram()))
        moved = _congruent_transform(quad, _random_unimodular(rng, 4))
        assert signature_quadratic(moved) == sig


def _charpoly(g):
    """Integer coefficients c_0..c_n of det(t I - G) by Faddeev-LeVerrier."""
    n = len(g)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(g[i][l] * m[l][j] for l in range(n)) + (coeffs[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        trace = sum(g[i][l] * m[l][i] for i in range(n) for l in range(n))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
    return coeffs


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _signature_oracle(quad):
    """(r, s) by Descartes' rule of signs on the characteristic polynomial of
    the Gram matrix, exact because a symmetric matrix has only real
    eigenvalues: r sign changes in p(t), s in p(-t)."""
    coeffs = _charpoly(quad.gram())
    flipped = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]
    return Signature(_sign_changes(coeffs), _sign_changes(flipped))


def _squares_quadric(rng, n):
    """Q = sum of +-L^2 over a few random integer linear forms L, often of rank < n."""
    g = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(0, n)):
        lin = [rng.randint(-2, 2) for _ in range(n)]
        sign = rng.choice((-1, 1))
        for a in range(n):
            for b in range(n):
                g[a][b] += sign * lin[a] * lin[b]
    mono = {(a + 1, a + 1): g[a][a] for a in range(n)}
    mono.update({(a + 1, b + 1): 2 * g[a][b] for a in range(n) for b in range(a + 1, n)})
    return QuadraticForm(n, mono)


def test_signature_matches_charpoly_oracle():
    rng = random.Random(31)
    for trial in range(300):
        n = rng.randint(1, 7)
        kind = trial % 3
        if kind == 0:
            quad = random_quadric(rng, n, terms=2 * n)
        elif kind == 1:  # zero diagonal
            quad = QuadraticForm(n, {key: c for key, c in random_quadric(rng, n, terms=2 * n)
                                     .monomials.items() if key[0] != key[1]})
        else:
            quad = _squares_quadric(rng, n)
        assert signature_quadratic(quad) == _signature_oracle(quad), quad


# ------------------------------------------------------------- smooth points

def test_smooth_point_proportional_gradients():
    pair = make_pair(
        3,
        {(1, 1, 1): 1, (2, 2, 2): 1},
        {(1, 1): 1, (2, 2): -1, (3, 3): 1},
    )
    # (1,-1,0): common zero but grad C = (3,3,0), grad Q = (2,2,0) proportional
    assert not smooth_point_test(pair, [1.0, -1.0, 0.0], 1e-9)
    assert not smooth_point_test(pair, [0.0, 0.0, 0.0], 1e-9)
    assert not smooth_point_test(pair, [2.0, 1.0, 1.0], 1e-9)  # C(x) >> tol


def test_smooth_point_positive_case(pair_smooth5):
    # (1,-1,0): grad C = (3,3,0), grad Q = (2,2,-1), minor_13 = -3
    assert smooth_point_test(pair_smooth5, [1.0, -1.0, 0.0], 1e-9)


# ------------------------------------------------------- hypothesis report

def test_hypothesis_report_examples():
    pair31 = make_pair(31, {(1, 1, 1): 1}, {(1, 1): 1})
    rep = hypothesis_report(pair31, None, Signature(17, 14))
    assert rep["large_dim_plane"] is True  # max = 17 <= 31 - 14

    pair37 = make_pair(37, {(1, 1, 1): 1}, {(1, 1): 1})
    rep = hypothesis_report(pair37, 37, Signature(20, 17))
    assert rep["h_rho_product"] is True  # (37-32)(37-4) = 165 > 128
    assert rep["h_rho_min37"] is True

    pair13 = make_pair(13, {(1, 1, 1): 1}, {(1, 1): 1})
    rep = hypothesis_report(pair13, None, Signature(7, 6))
    assert rep["d_plane_padic_max"] == 4  # 13 >= 5 + 2*4 but not 5 + 2*5

    with pytest.raises(ValueError):
        hypothesis_report(pair13, -1, Signature(7, 6))


def test_h_parameter():
    pair = make_pair(6, {(1, 1, 1): 1}, {(1, 1): 1}, cubic_nonsingular=True)
    assert h_parameter(pair) == 6
    pair = make_pair(6, {(1, 1, 1): 1}, {(1, 1): 1}, h_override=3)
    assert h_parameter(pair) == 3
    pair = make_pair(6, {(1, 1, 1): 1}, {(1, 1): 1})
    with pytest.raises(ValueError, match="h unavailable"):
        h_parameter(pair)


def test_form_pair_validation():
    with pytest.raises(ValueError):
        FormPair(CubicForm(2, {}), QuadraticForm(3, {}))


# ---------------------------------------------------- mod-p singularity scan

def test_cubic_singular_scan():
    diag = CubicForm(2, {(1, 1, 1): 1, (2, 2, 2): 1})
    assert cubic_singular_points_mod_p(diag) == ({2: None, 5: None}, [])
    # C = x1^3 in two variables is singular along x1 = 0
    degenerate = CubicForm(2, {(1, 1, 1): 1})
    scan, _ = cubic_singular_points_mod_p(degenerate)
    assert scan[5] is not None
    # a prime with p^n over the cap is listed as skipped, in scan order
    assert cubic_singular_points_mod_p(diag, cap=5**2 - 1) == ({2: None}, [5])


def test_cubic_singular_scan_mod_3():
    # without mixed monomials the gradient 3 c_i x_i^2 vanishes mod 3, so
    # every zero there is singular and the scan leaves p = 3 out ...
    diag = CubicForm(3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1})
    assert singular_points_oracle(diag, (3,)) == {3: (0, 1, 2)}
    assert cubic_singular_points_mod_p(diag, cap=26) == ({2: None}, [5])
    # ... but a mixed monomial can leave no singular point mod 3
    mixed = CubicForm(3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1, (1, 2, 3): 1})
    assert cubic_singular_points_mod_p(mixed)[0][3] is None
    assert cubic_singular_points_mod_p(mixed, cap=26) == ({2: (1, 1, 1)}, [3, 5])


def singular_points_oracle(cubic, primes):
    """Independent oracle: the first hit of a lexicographic itertools scan."""
    findings = {}
    for p in primes:
        findings[p] = next(
            (x for x in itertools.product(range(p), repeat=cubic.n)
             if any(x) and eval_cubic(cubic, x) % p == 0
             and all(g % p == 0 for g in gradient_cubic(cubic, x))),
            None,
        )
    return findings


def scan_primes_oracle(cubic):
    """2, 3 and 5, without 3 when grad C vanishes at every point mod 3."""
    grad_zero_mod_3 = all(g % 3 == 0 for x in itertools.product(range(3), repeat=cubic.n)
                          for g in gradient_cubic(cubic, x))
    return (2, 5) if grad_zero_mod_3 else (2, 3, 5)


@pytest.mark.parametrize("box", [weightfn.BOX, 7])
def test_cubic_singular_scan_matches_oracle(monkeypatch, box):
    # BOX = 7 splits every grid into many boxes, so the smallest hit of
    # each box must be reduced to the smallest hit over all of them
    monkeypatch.setattr(weightfn, "BOX", box)
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        cubic = random_cubic(rng, n, terms=rng.randint(0, 4), size=40)
        threads = rng.choice([1, 2])
        assert (cubic_singular_points_mod_p(cubic, threads=threads)
                == (singular_points_oracle(cubic, scan_primes_oracle(cubic)), []))
