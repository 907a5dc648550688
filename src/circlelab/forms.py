"""Exact integer cubic and quadratic forms.

A cubic form is stored sparsely as a map from ordered index triples
(i <= j <= k, 1-based) to integer coefficients, so that

    C(x) = sum over triples of coeff * x_i x_j x_k.

The associated symmetric tensor c_ijk assigns coeff / multiplicity to every
permutation of the triple, where the multiplicity is 1, 3 or 6; hence
6 * c_ijk is always an integer and all derived objects (bilinear forms,
gradients, Gram matrix) stay in exact integer arithmetic.  Rank and
signature of the quadric are computed over the rationals, never in floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

__all__ = [
    "CubicForm",
    "QuadraticForm",
    "FormPair",
    "Signature",
    "eval_cubic",
    "eval_quadratic",
    "INT64_LIMIT",
    "int64_bound",
    "minor_bound",
    "bilinear_matrix",
    "gradient_cubic",
    "gradient_quadratic",
    "signature_quadratic",
    "smooth_point_test",
    "jacobian_minors",
    "hypothesis_report",
    "h_parameter",
    "separable_blocks",
    "block_pair",
    "block_values",
]


def _triple_multiplicity(i: int, j: int, k: int) -> int:
    if i == j == k:
        return 1
    if i == j or j == k or i == k:
        return 3
    return 6


@dataclass(frozen=True)
class CubicForm:
    """Sparse integer cubic form in n variables."""

    n: int
    monomials: Mapping[tuple[int, int, int], int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        clean = {}
        for key, coeff in self.monomials.items():
            i, j, k = key
            if not (1 <= i <= j <= k <= self.n):
                raise ValueError(f"cubic index triple {key} not ordered within [1, {self.n}]")
            if int(coeff) != coeff:
                raise ValueError(f"cubic coefficient for {key} must be an integer")
            if coeff:
                clean[(int(i), int(j), int(k))] = int(coeff)
        object.__setattr__(self, "monomials", clean)


@dataclass(frozen=True)
class QuadraticForm:
    """Sparse integer quadratic form in n variables."""

    n: int
    monomials: Mapping[tuple[int, int], int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        clean = {}
        for key, coeff in self.monomials.items():
            i, j = key
            if not (1 <= i <= j <= self.n):
                raise ValueError(f"quadric index pair {key} not ordered within [1, {self.n}]")
            if int(coeff) != coeff:
                raise ValueError(f"quadric coefficient for {key} must be an integer")
            if coeff:
                clean[(int(i), int(j))] = int(coeff)
        object.__setattr__(self, "monomials", clean)

    def gram(self) -> list[list[int]]:
        """Integer Gram matrix G with x^T G x = 2 Q(x)."""
        g = [[0] * self.n for _ in range(self.n)]
        for (i, j), coeff in self.monomials.items():
            if i == j:
                g[i - 1][i - 1] = 2 * coeff
            else:
                g[i - 1][j - 1] = coeff
                g[j - 1][i - 1] = coeff
        return g

    @property
    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self.monomials)

    def diagonal(self) -> list[int]:
        """Coefficients d_i of x_i^2 (valid view for any form)."""
        return [self.monomials.get((i, i), 0) for i in range(1, self.n + 1)]


@dataclass(frozen=True)
class Signature:
    """Inertia indices (r positive, s negative) of a quadratic form."""

    r: int
    s: int

    @property
    def rank(self) -> int:
        return self.r + self.s


@dataclass(frozen=True)
class FormPair:
    """A cubic and a quadric in the same variables, plus user-asserted analytic data.

    The h-invariant of the cubic and nonsingularity of either form are not
    computed here; they are supplied by the user (h resolves to n when the
    cubic is asserted nonsingular).
    """

    cubic: CubicForm
    quadric: QuadraticForm
    cubic_nonsingular: bool | None = None
    h_override: int | None = None

    def __post_init__(self):
        if self.cubic.n != self.quadric.n:
            raise ValueError(
                f"dimension mismatch: cubic has n={self.cubic.n}, quadric has n={self.quadric.n}"
            )
        if self.h_override is not None and self.h_override <= 0:
            raise ValueError("h_override must be a positive integer")

    @property
    def n(self) -> int:
        return self.cubic.n


def separable_blocks(pair: FormPair) -> list[tuple[int, ...]]:
    """The blocks of variables that no monomial of C or Q joins.

    These are the connected components of the graph on the variables in
    which two variables are adjacent when some monomial of C or Q contains
    both.  Each block is a tuple of 0-based variable positions in ascending
    order, and the blocks are ordered by their least variable.  C and Q are
    then sums of forms in the separate blocks: a diagonal pair has n blocks
    of one variable, and a variable in no monomial is a block of its own.
    """
    parent = list(range(pair.n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for key in itertools.chain(pair.cubic.monomials, pair.quadric.monomials):
        for v in key[1:]:
            parent[root(v - 1)] = root(key[0] - 1)
    blocks: dict[int, list[int]] = {}
    for v in range(pair.n):
        blocks.setdefault(root(v), []).append(v)
    return [tuple(b) for b in blocks.values()]


def block_pair(pair: FormPair, axes: Sequence[int]) -> FormPair:
    """The forms of pair in the variables axes alone, renumbered 1..len(axes).

    axes holds 0-based variable positions in ascending order, one block of
    separable_blocks or all n of them, so every monomial has all its
    variables in axes or none; those with none are dropped.  C and Q are the
    sums of the block pairs of their blocks, each taken at its own variables.
    """
    pos = {v + 1: i + 1 for i, v in enumerate(axes)}

    def renumbered(monomials):
        return {tuple(pos[v] for v in key): c for key, c in monomials.items() if key[0] in pos}

    return FormPair(CubicForm(len(axes), renumbered(pair.cubic.monomials)),
                    QuadraticForm(len(axes), renumbered(pair.quadric.monomials)))


def block_values(pair: FormPair) -> Callable[[Sequence], list[tuple]]:
    """The function x -> [(C_b(x_b), Q_b(x_b)) for each block b of separable_blocks(pair)].

    x_b is the entries of x at b's positions, and C_b, Q_b are block_pair's
    forms of b, built once.  C(x) and Q(x) are the sums of the C_b and of
    the Q_b; on broadcast coordinate arrays each value spans only its
    block's axes.  A block with no monomial in a form gives 0 for it.  A
    pair of one block gives its whole forms, in their stored order.
    """
    parts = [(b, block_pair(pair, b)) for b in separable_blocks(pair)]

    def values(x: Sequence) -> list[tuple]:
        _check_vector(pair.n, x)
        return [(eval_cubic(own.cubic, [x[i] for i in b]), eval_quadratic(own.quadric, [x[i] for i in b]))
                for b, own in parts]

    return values


def _check_vector(n: int, x: Sequence) -> None:
    if len(x) != n:
        raise ValueError(f"vector has length {len(x)}, expected {n}")


def eval_cubic(cubic: CubicForm, x: Sequence):
    """C(x) = sum of coeff * (x_i x_j x_k) over the monomials, in stored order.

    x holds numbers (exact for int and Fraction entries) or broadcastable
    numpy coordinate arrays, one per variable. Terms are added out of
    place, so an int64 grid stays int64 (the caller bounds its values) and
    every point of a float grid is rounded exactly as the scalar
    evaluation at that point. A form without monomials returns 0.
    """
    _check_vector(cubic.n, x)
    total = 0
    for (i, j, k), coeff in cubic.monomials.items():
        total = total + coeff * (x[i - 1] * x[j - 1] * x[k - 1])
    return total


def eval_quadratic(quadric: QuadraticForm, x: Sequence):
    """Q(x) = sum of coeff * (x_i x_j) over the monomials; inputs as for eval_cubic."""
    _check_vector(quadric.n, x)
    total = 0
    for (i, j), coeff in quadric.monomials.items():
        total = total + coeff * (x[i - 1] * x[j - 1])
    return total


# int64 form evaluation is trusted while int64_bound stays below this
INT64_LIMIT = 2**62


def int64_bound(pair: FormPair, m: Sequence[int]) -> tuple[int, bool]:
    """(bound, fits): bound = sum |c| m_i m_j m_k + sum |c| m_i m_j over the two
    forms majorizes every partial sum of eval_cubic/eval_quadratic at |x_i| <= m_i,
    and fits = bound < INT64_LIMIT says that int64 evaluation there is exact."""
    bound = sum(abs(c) * m[i - 1] * m[j - 1] * m[k - 1] for (i, j, k), c in pair.cubic.monomials.items())
    bound += sum(abs(c) * m[i - 1] * m[j - 1] for (i, j), c in pair.quadric.monomials.items())
    return bound, bound < INT64_LIMIT


def minor_bound(cubic: CubicForm, r: int) -> tuple[int, bool]:
    """(bound, fits) for exact integer elimination on M(x) over the box |x_i| <= r.

    Row i of M(x) has l1 norm at most e_i, the row sum of M evaluated with
    every coefficient replaced by its absolute value at x = (s, ..., s),
    s = max(r, 1) so that e_i bounds the coefficients too; by Hadamard's
    inequality every minor of M(x) is at most H = prod max(1, e_i).
    bound = max(2 H^2, n H r) majorizes the difference of two products of
    minors formed by fraction-free elimination, and M y or a row of minors
    times y for |y_i| <= r; fits = bound < INT64_LIMIT says that all of
    them are exact in int64.
    """
    n = cubic.n
    absolute = CubicForm(n, {key: abs(c) for key, c in cubic.monomials.items()})
    h = 1
    for row in bilinear_matrix(absolute, [max(r, 1)] * n):
        h *= max(1, sum(row))
    bound = max(2 * h * h, n * h * r)
    return bound, bound < INT64_LIMIT


def bilinear_matrix(cubic: CubicForm, x: Sequence) -> list[list[int]]:
    """Integer matrix M(x) with B(x; y) = M(x) y; entries M[i][k] = 6 sum_j c_ijk x_j.

    Like eval_cubic it takes numbers or broadcastable numpy coordinate
    arrays; an entry that no monomial reaches stays the number 0."""
    n = cubic.n
    _check_vector(n, x)
    m = [[0] * n for _ in range(n)]
    for (i, j, k), coeff in cubic.monomials.items():
        six_c = 6 * coeff // _triple_multiplicity(i, j, k)
        for (p, q, r) in set(itertools.permutations((i, j, k))):
            # out of place: broadcast arrays of different shapes may meet
            m[p - 1][r - 1] = m[p - 1][r - 1] + six_c * x[q - 1]
    return m


def gradient_cubic(cubic: CubicForm, x: Sequence) -> list:
    """Exact gradient of the cubic at x."""
    n = cubic.n
    _check_vector(n, x)
    out = [0] * n
    for (i, j, k), coeff in cubic.monomials.items():
        if i == j == k:
            out[i - 1] += 3 * coeff * x[i - 1] * x[i - 1]
        elif i == j:
            out[i - 1] += 2 * coeff * x[i - 1] * x[k - 1]
            out[k - 1] += coeff * x[i - 1] * x[i - 1]
        elif j == k:
            out[i - 1] += coeff * x[j - 1] * x[j - 1]
            out[j - 1] += 2 * coeff * x[i - 1] * x[j - 1]
        else:
            out[i - 1] += coeff * x[j - 1] * x[k - 1]
            out[j - 1] += coeff * x[i - 1] * x[k - 1]
            out[k - 1] += coeff * x[i - 1] * x[j - 1]
    return out


def gradient_quadratic(quadric: QuadraticForm, x: Sequence) -> list:
    """Exact gradient of the quadric at x; equals G x for the Gram matrix G."""
    n = quadric.n
    _check_vector(n, x)
    out = [0] * n
    for (i, j), coeff in quadric.monomials.items():
        if i == j:
            out[i - 1] += 2 * coeff * x[i - 1]
        else:
            out[i - 1] += coeff * x[j - 1]
            out[j - 1] += coeff * x[i - 1]
    return out


def signature_quadratic(quadric: QuadraticForm) -> Signature:
    """Signature (r, s) of the Gram matrix by one exact rational Schur-complement pass.

    Each step pivots on a nonzero diagonal entry d of the active block,
    counts the sign of d, and replaces the block by its Schur complement
    a_xy - a_xi a_iy / d, which drops the pivot's row and column; by
    Sylvester's law of inertia the signs counted are the signature.  When
    every diagonal entry of the block is zero but some a_ij (i < j) is not,
    adding row and column j to row and column i (the substitution
    x_j -> x_j + x_i) first puts 2 a_ij on the diagonal at i.
    """
    a = [[Fraction(v) for v in row] for row in quadric.gram()]
    r = s = 0
    while a:
        m = len(a)
        piv = next((i for i in range(m) if a[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
            if off is None:
                break
            piv, j = off
            a[piv] = [u + v for u, v in zip(a[piv], a[j])]
            for row in a:
                row[piv] += row[j]
        d = a[piv][piv]
        if d > 0:
            r += 1
        else:
            s += 1
        rest = [k for k in range(m) if k != piv]
        a = [[a[x][y] - a[x][piv] * a[piv][y] / d for y in rest] for x in rest]
    return Signature(r, s)


def smooth_point_test(pair: FormPair, x: Sequence[float], tol: float) -> bool:
    """True when x is an approximate common zero at which the Jacobian has rank 2.

    Checks |C(x)| <= tol, |Q(x)| <= tol * (1 + |x|^2) (the quadric threshold
    is scaled to keep the two residuals commensurate away from |x| ~ 1), and
    that some 2x2 minor of [grad C; grad Q] exceeds tol in magnitude.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_vector(pair.n, x)
    norm2 = sum(float(v) * float(v) for v in x)
    if abs(eval_cubic(pair.cubic, x)) > tol:
        return False
    if abs(eval_quadratic(pair.quadric, x)) > tol * (1.0 + norm2):
        return False
    return any(abs(minor) > tol for minor in jacobian_minors(pair, x))


def jacobian_minors(pair: FormPair, x: Sequence) -> list:
    """The 2x2 minors of the Jacobian [grad C; grad Q] at x, pairs i < j in order.

    The Jacobian has rank 2 exactly when some minor is nonzero (exact for
    integer x, and mod p after reducing the minors).
    """
    gc = gradient_cubic(pair.cubic, x)
    gq = gradient_quadratic(pair.quadric, x)
    n = pair.n
    return [gc[i] * gq[j] - gc[j] * gq[i] for i in range(n) for j in range(i + 1, n)]


def hypothesis_report(pair: FormPair, h: int | None, signature: Signature) -> dict:
    """Evaluate the headline sufficient conditions as plain predicates.

    rho is the rank of the signature.  h may be None when unavailable;
    predicates needing it are then None.  Also reports the largest d for
    which the quadric is guaranteed a d-plane over every Q_p (n >= 5 + 2d)
    and over R (d <= n - 1 - max(r, s)).
    """
    if h is not None and h < 0:
        raise ValueError("h must be nonnegative")
    n, rho = pair.n, signature.rank
    big = max(signature.r, signature.s)
    report = {
        "n": n,
        "h": h,
        "rho": rho,
        "signature": (signature.r, signature.s),
        "large_dim_plane": n >= 31 and big <= n - 14,
        "h_rho_product": None if h is None else (h - 32) * (rho - 4) > 128,
        "h_rho_min37": None if h is None else min(h, rho) >= 37,
        "nonsingular_cubic_product": (
            (n - 32) * (rho - 4) > 128 if pair.cubic_nonsingular else None
        ),
        "nonsingular_n29": bool(pair.cubic_nonsingular) and n >= 29,
        "large_n49": n >= 49,
        "d_plane_padic_max": (n - 5) // 2 if n >= 5 else None,
        "d_plane_real_max": max(n - 1 - big, -1),
    }
    return report


def h_parameter(pair: FormPair) -> int:
    """h = n for an asserted-nonsingular cubic, else the user override."""
    if pair.cubic_nonsingular:
        return pair.n
    if pair.h_override is not None:
        return pair.h_override
    raise ValueError(
        "h unavailable: set cubic_nonsingular or provide h_override in the problem file"
    )
