"""Empirical diagnostics for the Weyl-differencing route.

A large Weyl sum forces many solutions of the doubled bilinear system
B_i(x; y) = 0, so the count

    n(R) = #{(x, y) : |x| < R, |y| < R, B_i(x; y) = 0 for all i}

(sup norm throughout) is the basic hardness measure; for fixed x the system
is linear in y, so each x contributes the lattice points of a kernel
subspace inside the box.  The heights T3, T2 defined by
|S| = P^n T3^{-h} = P^n T2^{-rho} convert an observed sum into the scale at
which the two Weyl lemmas bite, and the witness searches below replay those
lemmas' conclusions (a good rational approximation to alpha3 with
s(1 + P^3 |phi3|) small, then either a small u with ||s u alpha2|| tiny or
a lower bound on T2).  All "<<" checks use logged constants and soft flags.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arcs import DEFAULT_DELTA, jittered_grid, major_arc_test, q3q2, simultaneous_approx
from .forms import CubicForm, FormPair, bilinear_matrix, h_parameter, rank_quadratic
from .util import DEFAULT_CAP, check_cap, parallel_map
from .weightfn import Weight
from .expsums import weyl_sum_direct

__all__ = [
    "WeylHeights",
    "count_bilinear",
    "heights_from_sum",
    "alpha3_witness",
    "Alpha3Witness",
    "minor_arc_scan",
]

SOFT_CONSTANT = 10.0
# the most denominators s that alpha3_witness tries
WITNESS_BUDGET = 10**7


@dataclass(frozen=True)
class WeylHeights:
    """Heights with |S| = P^n T3^{-h} = P^n T2^{-rho}, so T2 = T3^{h/rho}."""

    t3: float
    t2: float
    h: int
    rho: int


def heights_from_sum(s_abs: float, P: float, n: int, h: int, rho: int) -> WeylHeights:
    if s_abs < 0:
        raise ValueError("|S| cannot be negative")
    if h <= 0 or rho <= 0:
        raise ValueError("h and rho must be positive")
    if s_abs == 0.0:
        return WeylHeights(math.inf, math.inf, h, rho)
    log_ratio = n * math.log(P) - math.log(s_abs)
    return WeylHeights(math.exp(log_ratio / h), math.exp(log_ratio / rho), h, rho)


def _kernel_basis(m: list[list[int]], n: int) -> list[list[Fraction]]:
    """Basis of the rational nullspace of m (n columns)."""
    a = [[Fraction(v) for v in row] for row in m]
    nrow = len(a)
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, nrow) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [v / inv for v in a[r]]
        for i in range(nrow):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == nrow:
            break
    free = [c for c in range(n) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def _primitive_int_vector(v: list[Fraction]) -> list[int]:
    lcm = 1
    for f in v:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in v]
    g = 0
    for t in ints:
        g = math.gcd(g, abs(t))
    return [t // g for t in ints]


def count_bilinear(cubic: CubicForm, R: int, cap: int = DEFAULT_CAP) -> int:
    """n(R), counting y along exact kernels of the per-x linear system.

    Kernel dimension 0 contributes only y = 0; dimension 1 contributes the
    lattice points on a primitive line inside the box; higher dimensions
    fall back to a vectorized scan of the y box.
    """
    if R < 1:
        raise ValueError("R must be a positive integer")
    n = cubic.n
    side = 2 * R - 1
    check_cap(side**n, cap, "bilinear count x-range")
    vals = range(-(R - 1), R)
    y_grid = None
    total = 0
    for x in itertools.product(vals, repeat=n):
        m = bilinear_matrix(cubic, x)
        basis = _kernel_basis(m, n)
        dim = len(basis)
        if dim == 0:
            total += 1
        elif dim == n:
            total += side**n
        elif dim == 1:
            v = _primitive_int_vector(basis[0])
            step = max(abs(t) for t in v)
            total += 2 * ((R - 1) // step) + 1
        else:
            if y_grid is None:
                check_cap(side**n * n, cap, "bilinear count y-scan")
                y_grid = np.array(
                    list(itertools.product(vals, repeat=n)), dtype=np.int64
                ).T
            mm = np.array(m, dtype=np.int64)
            total += int(np.count_nonzero((mm @ y_grid == 0).all(axis=0)))
    return total


def _distance_to_int(t: float) -> float:
    return abs(t - round(t))


@dataclass(frozen=True)
class Alpha3Witness:
    s: int
    b3: int
    phi3: float
    lhs: float
    rhs_scale: float
    ok: bool


def alpha3_witness(
    alpha3: float,
    P: float,
    t3: float,
    eps: float = 0.05,
) -> Alpha3Witness:
    """Best rational witness alpha3 = b3/s + phi3 with s(1 + P^3 |phi3|) small.

    Exhaustive over s up to ~SOFT_CONSTANT * P^eps * T3^8 (at most
    WITNESS_BUDGET); ok flags whether the minimized objective stays below
    SOFT_CONSTANT times that scale.
    """
    if not math.isfinite(t3):
        raise ValueError("T3 must be finite (the sum was nonzero)")
    rhs_scale = P**eps * t3**8
    s_max = min(int(math.ceil(SOFT_CONSTANT * rhs_scale)), WITNESS_BUDGET)
    if s_max < 1:
        s_max = 1
    best = None
    for s in range(1, s_max + 1):
        if best is not None and s > best[0]:
            break  # objective >= s can no longer beat the incumbent
        dist = _distance_to_int(s * alpha3)
        objective = s + P**3 * dist
        if best is None or objective < best[0]:
            best = (objective, s, round(s * alpha3))
    objective, s, b3 = best
    g = math.gcd(s, abs(b3)) if b3 else s
    if g > 1:
        s //= g
        b3 //= g
    phi3 = alpha3 - b3 / s
    lhs = s * (1.0 + P**3 * abs(phi3))
    return Alpha3Witness(s, b3, phi3, lhs, rhs_scale, lhs <= SOFT_CONSTANT * rhs_scale)


def _u_search(
    alpha2: float, s: int, phi3: float, P: float, t2: float, eps: float, constant: float
) -> int | None:
    """Smallest u <= constant T2^2 with ||s u alpha2|| within the lemma bound."""
    if not math.isfinite(t2):
        return None
    u_max = int(math.ceil(constant * t2 * t2))
    bound = constant * P ** (-2 + eps) * s * (1.0 + P**3 * abs(phi3)) * t2 * t2
    for u in range(1, min(u_max, 10**6) + 1):
        if _distance_to_int(s * u * alpha2) <= bound:
            return u
    return None


def minor_arc_scan(
    pair: FormPair,
    P: float,
    weight: Weight,
    grid_k: int,
    delta: float = DEFAULT_DELTA,
    eps: float = 0.05,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> list[dict]:
    """Classify a jittered k x k grid of (alpha3, alpha2) and test the Weyl
    dichotomy at each point.  Report-only: no assertions are made here.

    The k^2 grid and each point's direct Weyl sum charge cap."""
    h = h_parameter(pair)
    rho = rank_quadratic(pair.quadric)
    n = pair.n
    points = jittered_grid(grid_k, seed, cap=cap)
    Q3, Q2 = q3q2(P)

    def work(pt: tuple[float, float]) -> dict:
        alpha3, alpha2 = pt
        s_val = weyl_sum_direct(pair, P, weight, alpha3, alpha2, cap=cap)
        s_abs = abs(s_val)
        is_major, witness = major_arc_test(alpha3, alpha2, P, delta)
        approx = simultaneous_approx(alpha3, alpha2, Q3, Q2)
        row = {
            "alpha3": alpha3,
            "alpha2": alpha2,
            "abs_S": s_abs,
            "is_major": is_major,
            "major_q": witness[0] if witness else None,
            "pigeon_q": approx.q,
            "pigeon_a3": approx.a3,
            "pigeon_a2": approx.a2,
        }
        if s_abs == 0.0:
            row.update(
                t3=math.inf, t2=math.inf, s=None, b3=None, phi3=None,
                witness_ok=None, u=None, alt=None,
            )
            return row
        heights = heights_from_sum(s_abs, P, n, h, rho)
        wit = alpha3_witness(alpha3, P, heights.t3, eps=eps)
        row.update(
            t3=heights.t3, t2=heights.t2, s=wit.s, b3=wit.b3, phi3=wit.phi3,
            witness_ok=wit.ok,
        )
        if wit.s > P:
            # the dichotomy was derived under s <= P; mark rather than force
            row.update(u=None, alt="unclassifiable")
            return row
        u = _u_search(alpha2, wit.s, wit.phi3, P, heights.t2, eps, SOFT_CONSTANT)
        alt_ii = (
            heights.t2**2
            >= P ** (1 - eps) / (wit.s + P**3 * abs(wit.phi3)) / SOFT_CONSTANT
        )
        row["u"] = u
        if u is not None and alt_ii:
            row["alt"] = "both"
        elif u is not None:
            row["alt"] = "i"
        elif alt_ii:
            row["alt"] = "ii"
        else:
            row["alt"] = "none"
        return row

    return parallel_map(work, points, threads)
