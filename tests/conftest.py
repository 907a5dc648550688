"""Shared fixtures: small form pairs used across the suite, the strategy of
separable pairs, the closed-form reference of the weight (nu and omega at
one point, with libm's exp), the n(R) oracle, the bilinear-form oracle,
the flat residue scan and the direct residue-scan oracles on it, the
support boxes of weightfn.support_chunks by their own recursion, the
trapezoid nodes and weights of the full-grid quadrature oracle, the
single quadrature sum box by box of weightfn.CHUNK points, seeded
quadrature grids, the form magnitudes that bound phase rounding, the
scalar sin-kernel oracle, the whole-pair integrands of J(R) and of the
Poisson family with the one-block pairs they are compared on bit for bit,
the arc oracles (pigeonhole check, disjointness, major-arc replacement),
the log-log growth fit, and the hypothesis profile of CI."""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from circlelab import forms, weightfn
from circlelab.archimedean import _SERIES_PHASE, _SERIES_SWITCH, sin_kernel_grid
from circlelab.arcs import _delta_cutoff
from circlelab.expsums import complete_sum, osc_integral, weyl_sum_direct
from circlelab.forms import CubicForm, FormPair, QuadraticForm, bilinear_matrix, eval_cubic, eval_quadratic
from circlelab.util import CapExceededError, chunk_ranges, fsum_complex, parallel_map
from circlelab.weightfn import Weight, omega_grid, support_chunks

# CI selects this profile (pytest --hypothesis-profile=ci) so that every run
# draws the same examples; local runs keep the default random draws
settings.register_profile("ci", derandomize=True)


def make_pair(n, cubic, quadric, **kwargs):
    return FormPair(CubicForm(n, cubic), QuadraticForm(n, quadric), **kwargs)


@st.composite
def separable_pairs(draw, nmax, coeff):
    """A pair made of blocks of 1-3 variables at shuffled positions, n <= nmax,
    with coefficients drawn from coeff.  A block may have no monomials (its
    variables are in none), and C or Q may be empty."""
    sizes = []
    while not sizes or (sum(sizes) < nmax and draw(st.booleans())):
        sizes.append(draw(st.integers(1, min(3, nmax - sum(sizes)))))
    n = sum(sizes)
    order = draw(st.permutations(range(1, n + 1)))
    cubic, quadric = {}, {}
    start = 0
    for size in sizes:
        block = sorted(order[start:start + size])
        start += size
        for forms_dict, degree in ((cubic, 3), (quadric, 2)):
            keys = list(itertools.combinations_with_replacement(block, degree))
            forms_dict.update(draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=3)))
    empty = draw(st.sampled_from([None, "cubic", "quadric"]))
    return make_pair(n, {} if empty == "cubic" else cubic, {} if empty == "quadric" else quadric)


def full_scan_oracle(cubic, R):
    """n(R) by a double loop over (x, y) pairs in the open sup-norm box,
    testing B_i(x; y) = (M(x) y)_i = 0 for every i by plain integer sums."""
    box = list(itertools.product(range(-(R - 1), R), repeat=cubic.n))
    count = 0
    for x in box:
        m = bilinear_matrix(cubic, x)
        count += sum(1 for y in box if not any(sum(map(operator.mul, row, y)) for row in m))
    return count


def flat_scan(pair, q, per_chunk, cap=10**8, threads=1, modulus=None):
    """The residue scan of gridsum.scan with flat chunks, its oracle: chunks of
    weightfn.BOX flat indices (coordinate 1 fastest), every point's
    coordinates decoded with // and %, and C, Q evaluated on the decoded
    arrays with coefficients centred mod modulus (default q), in int64 where
    forms.int64_bound allows it and in Python ints otherwise."""
    n = pair.n
    total = q**n
    if total > cap:
        raise CapExceededError(f"residue grid q^n = {q}^{n} = {total} exceeds cap {cap}")
    modulus = q if modulus is None else modulus
    h = modulus // 2
    reduced = make_pair(n, {key: (c + h) % modulus - h for key, c in pair.cubic.monomials.items()},
                        {key: (c + h) % modulus - h for key, c in pair.quadric.monomials.items()})
    _, fits = forms.int64_bound(reduced, [q - 1] * n)

    def work(rng):
        flat = np.arange(*rng, dtype=np.int64)
        coords = [(flat // q**j) % q for j in range(n)]
        xs = coords if fits else [x.astype(object) for x in coords]
        c, qq = (np.broadcast_to(v % modulus, flat.shape).astype(np.int64)
                 for v in (eval_cubic(reduced.cubic, xs), eval_quadratic(reduced.quadric, xs)))
        return per_chunk(coords, c, qq)

    return parallel_map(work, chunk_ranges(0, total, weightfn.BOX), threads)


def support_chunks_oracle(weight, P, box, origin, size):
    """weightfn.support_chunks with its own recursion, as it stood before
    weightfn.cut_box: the box is cut along x0 into runs of as many slices as
    fit in size points, a slice larger than that along x1 the same way, and
    so on, with the remaining axes clipped before each cut to the bounding
    box of the ball's section over the ranges fixed so far, whose squared
    distance d2 from the centre is carried down the recursion."""
    centre = [c - o for c, o in zip(weight.center, origin)]
    out = []

    def cut(fixed, d2):
        k = len(fixed)
        rho = math.sqrt(max(weight.xi**2 - d2, 0.0))
        rest = [(max(lo, math.ceil((c - rho) * P)), min(hi, math.floor((c + rho) * P)))
                for (lo, hi), c in zip(box[k:], centre[k:])]
        if any(lo > hi for lo, hi in rest):
            return
        if math.prod(hi - lo + 1 for lo, hi in rest) <= size:
            out.append(fixed + rest)
            return
        (lo, hi), c = rest[0], centre[k]
        inner = math.prod(h - l + 1 for l, h in rest[1:])
        for a, b in chunk_ranges(lo, hi + 1, max(1, size // inner)):
            d = max(0.0, a / P - c, c - (b - 1) / P)
            cut(fixed + [(a, b - 1)], d2 + d * d)

    cut([], 0.0)
    return out


def scan_joint_histogram(pair, q, cap=10**8, threads=1):
    """(C mod q, Q mod q) histogram from one direct scan of all q^n residues
    (also at prime powers and composite q): the oracle of the lift, the CRT
    and the block convolutions."""

    def per_chunk(coords, c, qq):
        return np.bincount(c * q + qq, minlength=q * q)

    return np.sum(flat_scan(pair, q, per_chunk, cap, threads), axis=0).reshape(q, q)


def scan_phase_histogram(pair, q, a3, a2, m):
    """Histogram of a3 C + a2 Q + m.y mod q from one direct scan of all q^n residues."""

    def per_chunk(coords, c, qq):
        t = (a3 * c + a2 * qq + sum(mi * y for mi, y in zip(m, coords))) % q
        return np.bincount(t, minlength=q)

    return np.sum(flat_scan(pair, q, per_chunk), axis=0)


def axis_nodes_weights(center, half, m):
    """Trapezoid nodes and weights with m intervals on [center - half,
    center + half], the end weights halved: the rule of the full-grid
    quadrature oracle, whose nodes are those of quadrature.grid_contract."""
    nodes = np.linspace(center - half, center + half, m + 1)
    w = np.full(m + 1, 2.0 * half / m)
    w[0] *= 0.5
    w[-1] *= 0.5
    return nodes, w


def chunk_box_sum(f, weight, m):
    """The single trapezoid sum of quadrature.grid_contract on m intervals
    per axis, with f evaluated on each support box of weightfn.CHUNK points
    of the whole grid and each box's sum rounded on its own: h^n times the
    fsum_complex of the box sums.  Its oracle, equal to it bit for bit on a
    grid whose support fits one box of weightfn.BOX points."""
    n = weight.n
    origin = [c - weight.xi for c in weight.center]
    nodes = [np.linspace(c - weight.xi, c + weight.xi, m + 1) for c in weight.center]
    sums = []
    for box in support_chunks(weight, m / (2.0 * weight.xi), [(0, m)] * n, origin, weightfn.CHUNK):
        axes = [nodes[i][a : b + 1].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i)) for i, (a, b) in enumerate(box)]
        sums.append(complex(np.broadcast_to(f(axes), tuple(b - a + 1 for a, b in box)).sum()))
    return (2.0 * weight.xi / m) ** n * fsum_complex(sums)


def seeded_grid(n, seed):
    """A weight of n variables drawn from seed, and the nodes of a coarse grid
    on its support cube, one broadcastable array per axis, placed as
    quadrature.grid_contract places them."""
    rng = np.random.default_rng(seed)
    weight = Weight(tuple(rng.uniform(-0.1, 0.1, n)), rng.uniform(0.05, 0.39))
    m = int(rng.integers(2, 25 if n <= 2 else 11))
    return weight, [np.linspace(c - weight.xi, c + weight.xi, m + 1).reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
                    for i, c in enumerate(weight.center)]


def nu(t):
    """exp(-1/(1 - t^2)) for |t| < 1, else 0, for one float: the reference
    of weightfn.nu_grid, with libm's exp."""
    u = 1.0 - t * t
    return math.exp(-1.0 / u) if u > 0.0 else 0.0


def omega(weight, x):
    """omega(x) = nu(|x - x0|_2 / xi) at one point: the reference of
    weightfn.omega_grid, of the weighted count and of the literal Weyl sums."""
    dist2 = sum((float(v) - c) * (float(v) - c) for v, c in zip(x, weight.center))
    return nu(math.sqrt(dist2) / weight.xi)


def form_magnitudes(pair, axes):
    """C and Q with |coefficients| at |x|: bounds on sum_b |C_b| and
    sum_b |Q_b| over the blocks of any split of the pair."""
    absolute = make_pair(pair.n, {k: abs(c) for k, c in pair.cubic.monomials.items()},
                         {k: abs(c) for k, c in pair.quadric.monomials.items()})
    ax = [np.abs(a) for a in axes]
    return eval_cubic(absolute.cubic, ax), eval_quadratic(absolute.quadric, ax)


def sin_kernel(R, u):
    """K_R(u) = sin(2 pi R u) / (pi u) for one float, continuous with K_R(0) = 2R:
    the oracle of archimedean.sin_kernel_grid.  The power series in u is
    taken while both u and the phase 2 pi R u are small."""
    w = 2.0 * math.pi * R * u
    if abs(u) < _SERIES_SWITCH and abs(w) < _SERIES_PHASE:
        return 2.0 * R * (1.0 - w * w / 6.0 + w**4 / 120.0)
    return math.sin(w) / (math.pi * u)


def kernel_integrand(pair, weight, R):
    """omega(x) K_R(C(x)) K_R(Q(x)) from the whole forms, two sines per node:
    the oracle of the block-factored integrand of J(R)."""

    def f(axes):
        return (omega_grid(weight, axes) * sin_kernel_grid(R, eval_cubic(pair.cubic, axes))
                * sin_kernel_grid(R, eval_quadratic(pair.quadric, axes)))

    return f


# pairs of one block of forms.separable_blocks, on which the block paths of
# J(R) and of the Poisson family take the whole-pair values bit for bit
one_block_pairs = pytest.mark.parametrize("pair", [
    make_pair(1, {(1, 1, 1): 1}, {(1, 1): 1}),
    make_pair(2, {(1, 1, 2): 3, (2, 2, 2): -1}, {}),
    make_pair(3, {(1, 2, 3): 2, (1, 1, 1): 1}, {(3, 3): -1, (2, 2): 5}),
    make_pair(4, {(4, 4, 4): 1, (1, 1, 1): -2}, {(1, 2): 1, (3, 4): 1, (2, 3): -3}),
], ids=["n1", "no-quadric", "cross-cubic", "chain"])


def smooth_factor(pair, weight, gamma3, gamma2):
    """omega(x) e(gamma3 C(x) + gamma2 Q(x)) from the whole forms, one complex
    exponential per node: the oracle of the block-factored Poisson factor."""

    def f(axes):
        arg = gamma3 * eval_cubic(pair.cubic, axes) + gamma2 * eval_quadratic(pair.quadric, axes)
        return omega_grid(weight, axes) * np.exp(2j * np.pi * arg)

    return f


def bilinear_forms(cubic, x, y):
    """B_i(x; y) = 3! sum_{j,k} c_ijk x_j y_k over the symmetric tensor c of
    the cubic, built from its monomials: a monomial with d in {1, 3, 6}
    distinct orderings of its indices puts coeff/d on each of them."""
    n = cubic.n
    if len(x) != n or len(y) != n:
        raise ValueError(f"vectors of length {len(x)} and {len(y)}, expected {n}")
    out = [0] * n
    for key, coeff in cubic.monomials.items():
        orderings = set(itertools.permutations(key))
        for i, j, k in orderings:
            out[i - 1] += 6 // len(orderings) * coeff * x[j - 1] * y[k - 1]
    return out


def verify_approx(alpha3, alpha2, Q3, Q2, approx):
    """Exact check of the three defining constraints of a pigeonhole
    approximation: q <= Q3 Q2, gcd(q, a3, a2) = 1, and the wrapped distance
    |alpha_i - a_i/q| <= 1/(q Q_i) in both coordinates."""
    q = approx.q
    if q > Q3 * Q2 or math.gcd(q, math.gcd(approx.a3, approx.a2)) != 1:
        return False
    for alpha, a, cutoff in ((alpha3, approx.a3, Q3), (alpha2, approx.a2, Q2)):
        d = Fraction(alpha) - Fraction(a, q)
        d -= round(d)
        if abs(d) > Fraction(1, q * cutoff):
            return False
    return True


def disjoint_oracle(P, delta):
    """Exact pairwise comparison of the major arc boxes mod 1, any delta,
    over every coprime centre (q, a3, a2) with q <= P^delta."""
    qmax = _delta_cutoff(P, delta)
    centers = [
        (q, a3, a2)
        for q in range(1, qmax + 1)
        for a3 in range(1, q + 1)
        for a2 in range(1, q + 1)
        if math.gcd(q, math.gcd(a3, a2)) == 1
    ]
    # box half-widths are P^{-i+delta}; centre distances are exact rationals
    h3 = Fraction(2 * P ** (-3 + delta))
    h2 = Fraction(2 * P ** (-2 + delta))
    for idx, (q, a3, a2) in enumerate(centers):
        for (qq, b3, b2) in centers[idx + 1 :]:
            d3 = Fraction(a3, q) - Fraction(b3, qq)
            d3 -= round(d3)
            d2 = Fraction(a2, q) - Fraction(b2, qq)
            d2 -= round(d2)
            if d3 == 0 and d2 == 0:
                continue  # same centre mod 1, identical arc
            if abs(d3) <= h3 and abs(d2) <= h2:
                return False
    return True


# soft pass bound on the major-arc replacement error, in units of its scale
RATIO_BOUND = 50.0


@dataclass(frozen=True)
class MajorArcCheck:
    lhs: complex
    main: complex
    error: float
    scale: float
    ratio: float
    ok: bool


def major_arc_approx_check(pair, weight, P, approx, tol=1e-8):
    """Compare the direct sum against its major-arc main term.

    main = q^{-n} P^n S(a, q) I(theta3 P^3, theta2 P^2; 0); the replacement
    error is measured against the scale q P^{n-1} + |theta3| q P^{n+2}
    + |theta2| q P^{n+1}, with a soft pass flag at ratio <= RATIO_BOUND.
    """
    n = pair.n
    q = approx.q
    lhs = weyl_sum_direct(pair, P, weight, approx.alpha3, approx.alpha2)
    s_aq = complete_sum(pair, q, approx.a3, approx.a2, [0] * n)
    integral = osc_integral(pair, weight, approx.theta3 * P**3, approx.theta2 * P**2, [0.0] * n, tol=tol)
    main = P**n / q**n * s_aq * integral.value
    error = abs(lhs - main)
    scale = (
        q * P ** (n - 1)
        + abs(approx.theta3) * q * P ** (n + 2)
        + abs(approx.theta2) * q * P ** (n + 1)
    )
    ratio = error / scale
    ok = error <= 1e-9 * P**n or ratio <= RATIO_BOUND
    return MajorArcCheck(lhs, main, error, scale, ratio, ok)


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    residual: float


def fit_log_power(p_values, counts):
    """Least-squares slope of log(count) against log(P)."""
    if len(p_values) != len(counts):
        raise ValueError("P list and count list differ in length")
    if len(p_values) < 3:
        raise ValueError("need at least 3 values of P for a growth fit")
    if any(c <= 0 for c in counts):
        raise ValueError("insufficient nonzero counts for a growth fit")
    xs = [math.log(p) for p in p_values]
    ys = [math.log(c) for c in counts]
    k = len(xs)
    mx = math.fsum(xs) / k
    my = math.fsum(ys) / k
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("P values must not all coincide")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = math.sqrt(
        math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / k
    )
    return GrowthFit(slope, intercept, resid)


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
