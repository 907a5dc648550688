"""Seeded workload definitions: problem files and CLI job lists.

A workload is a session of ``circlelab`` commands, the way a researcher runs
them.  Within a workload the monomial supports, the dimensions and every
size parameter (R, P, q, p^k, grids) are fixed; the seed draws only the
coefficients, the numerators, the alpha/theta/gamma points, the weight
centres and the CLI's own --seed, so the work done per run does not depend
on the seed.

A run repeats the session, and every session draws its inputs afresh from
(seed, session index), so a cache that outlives one CLI call cannot answer
a later session from an earlier one.  Session 0 of seed 0 is the draw that
reference.json holds.

Two rules keep the work seed-independent:

- every weight has radius XI = 0.4 and every P is a multiple of 5, so each
  axis of the lattice box holds exactly 0.8 P points whatever the centre
  (a centre that would put a box edge on an integer is drawn again);
- problems whose cost depends on their coefficients (quadrature, Poisson
  and the non-diagonal n(R) cubics) are drawn as a signed permutation of
  the variables of a fixed base problem (coefficients, centre and z move
  together).  Integrals and n(R) are invariant under it and the tensor grid
  maps onto itself, so refinement levels and kernel dimensions cannot move
  with the seed.  The sessions of one run take distinct elements of the
  group while there are any left, and the checks require every session to
  give the same invariant values.

Every weight support stays inside (-1/2, 1/2)^n, so no job warns.  The
benchmark times input generation as part of set-up.  Apart from numpy's
generator, which reproduces the jittered weyl-scan grid and which
circlelab.cli has already imported, this module uses only the standard
library.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

THREADS = 2
XI = 0.4
CENTRE_SPREAD = 0.05
TOL = 1e-8

WHY = {
    "residue": (
        "Local side: series, local and sum --mode complete|crt on n=4,5 pairs, half "
        "diagonal. Nearly all time is in gridsum and localdens; none in counting, "
        "weyldiag or quadrature."
    ),
    "lattice": (
        "Global side: count, compare, sum --mode direct and weyl-scan on n=3,4 pairs. "
        "Time is in the counting box scan and in numpy Weyl sums on 2 threads."
    ),
    "diagnostics": (
        "Weyl differencing and archimedean side: nr, integral, sum --mode "
        "integral|poisson and arcs; the layers idle in the other two workloads."
    ),
}

@dataclass(frozen=True)
class Shape:
    """Fixed monomial supports of one problem; the seed draws coefficients."""

    n: int
    cubic: tuple[tuple[int, int, int], ...]
    quadric: tuple[tuple[int, int], ...]
    orbit: bool = False


def _diag_shape(n: int, orbit: bool = False) -> Shape:
    return Shape(
        n,
        tuple((i, i, i) for i in range(1, n + 1)),
        tuple((i, i) for i in range(1, n + 1)),
        orbit,
    )


def _mixed_shape(n: int, cubic_extra, quadric_extra, orbit: bool = False) -> Shape:
    diag = _diag_shape(n)
    return Shape(n, diag.cubic + tuple(cubic_extra), diag.quadric + tuple(quadric_extra), orbit)


D3, D4, D5 = _diag_shape(3), _diag_shape(4), _diag_shape(5)
N3 = _mixed_shape(3, [(1, 2, 3)], [(1, 2), (2, 3)])
N4 = _mixed_shape(4, [(1, 2, 3), (2, 3, 4)], [(1, 2), (3, 4)])
N5 = _mixed_shape(5, [(1, 2, 3), (3, 4, 5)], [(1, 2), (2, 3), (4, 5)])
O1, O2, O3 = _diag_shape(1, orbit=True), _diag_shape(2, orbit=True), _diag_shape(3, orbit=True)
O3N = _mixed_shape(3, [(1, 2, 3)], [(1, 2)], orbit=True)
O4N = _mixed_shape(4, [(1, 2, 3), (2, 3, 4)], [(1, 2), (3, 4)], orbit=True)


@dataclass
class Job:
    """One CLI invocation of a session.

    cmd names the per-command time it adds to (None: counted only in the
    session wall time).  check holds what the output checks need to know.
    """

    id: str
    cmd: str | None
    argv: list[str]
    fmt: str
    problem: str | None = None
    check: dict = field(default_factory=dict)


def _coeff(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _off_edge(centre: list[float], p_values: list[int]) -> bool:
    """True when no lattice-box edge (c +- XI) P lies within 1e-6 of an integer."""
    for c in centre:
        for P in p_values:
            for v in ((c - XI) * P, (c + XI) * P):
                if abs(v - round(v)) < 1e-6:
                    return False
    return True


def _problem(rng: random.Random, shape: Shape, p_values: list[int]) -> dict:
    cubic = [[i, j, k, _coeff(rng)] for i, j, k in shape.cubic]
    quadric = [[i, j, _coeff(rng)] for i, j in shape.quadric]
    while True:
        centre = [round(rng.uniform(-CENTRE_SPREAD, CENTRE_SPREAD), 6) for _ in range(shape.n)]
        if _off_edge(centre, p_values):
            break
    data = {"n": shape.n, "cubic": cubic, "quadric": quadric, "weight": {"x0": centre, "xi": XI}}
    if all(i == j == k for i, j, k in shape.cubic):
        data["cubic_nonsingular"] = True
    else:
        data["h"] = shape.n - 1
    return data


def _signed_permutation(rng: random.Random, n: int, index: int) -> tuple[list[int], list[int]]:
    """Element ``index`` (mod the group order) of a shuffled list of the
    2^n n! signed permutations of n variables."""
    group = [(list(perm), list(signs)) for perm in itertools.permutations(range(n))
             for signs in itertools.product((-1, 1), repeat=n)]
    rng.shuffle(group)
    return group[index % len(group)]


def _substitute(data: dict, perm: list[int], signs: list[int]) -> dict:
    """The problem in the variables y with x_i = signs[i] * y[perm[i]]."""

    def move(indices):
        sign = math.prod(signs[i - 1] for i in indices)
        return sorted(perm[i - 1] + 1 for i in indices), sign

    out = dict(data)
    out["cubic"] = sorted(idx + [c * s] for *ijk, c in data["cubic"] for idx, s in [move(ijk)])
    out["quadric"] = sorted(idx + [c * s] for *ij, c in data["quadric"] for idx, s in [move(ij)])
    out["weight"] = {"x0": _move_vector(data["weight"]["x0"], perm, signs), "xi": XI}
    return out


def _move_vector(v: list, perm: list[int], signs: list[int]) -> list:
    out = [0] * len(v)
    for i, (p, s) in enumerate(zip(perm, signs)):
        out[p] = s * v[i]
    return out


def _coprime_numerators(rng: random.Random, q: int) -> tuple[int, int]:
    while True:
        a3, a2 = rng.randint(1, q), rng.randint(1, q)
        if math.gcd(q, math.gcd(a3, a2)) == 1:
            return a3, a2


class _Builder:
    def __init__(self, workload: str, seed: int, session: int, workdir: str):
        self.run = f"{workload}:{seed}"
        self.session = session
        self.workdir = workdir
        self.rng = random.Random(f"{self.run}:{session}")
        self.cli_seed = self.rng.randrange(2**31)
        self.jobs: list[Job] = []
        self.problems: dict[str, dict] = {}

    def problem(self, name: str, shape: Shape, p_values: list[int] = ()) -> tuple[list[int], list[int]]:
        """Write a seeded problem; returns the signed permutation of an orbit draw."""
        move = (list(range(shape.n)), [1] * shape.n)
        if shape.orbit:
            data = _problem(random.Random(f"base:{name}"), shape, list(p_values))
            # one shuffle per run, so that its sessions take distinct elements
            move = _signed_permutation(random.Random(f"{self.run}:{name}"), shape.n, self.session)
            data = _substitute(data, *move)
        else:
            data = _problem(self.rng, shape, list(p_values))
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        self.problems[name] = data
        return move

    def scan_point(self, grid: int) -> tuple[int, float, float]:
        """A seeded point of the jittered grid that weyl-scan --grid visits:
        (row index, alpha3, alpha2), computed as weyldiag.minor_arc_scan does."""
        import numpy as np

        jitter = np.random.default_rng(self.cli_seed).random((grid, grid, 2))
        i, j = self.rng.randrange(grid), self.rng.randrange(grid)
        return i * grid + j, float((i + jitter[i, j, 0]) / grid), float((j + jitter[i, j, 1]) / grid)

    def job(self, cmd: str | None, name: str | None, args: list[str], fmt: str = "json", **check) -> Job:
        argv = [args[0]]
        if name is not None:
            argv += ["--problem", os.path.join(self.workdir, f"{name}.json")]
        for flag, value in zip(args[1::2], args[2::2]):
            # "--flag=value" keeps argparse from reading "-1,2" or "-5e-05" as a flag
            argv.append(f"{flag}={value}")
        argv += ["--threads", str(THREADS), "--seed", str(self.cli_seed)]
        label = "-".join([args[0]] + ([args[2]] if args[0] == "sum" else []) + ([name] if name else []))
        job = Job(f"{len(self.jobs):02d}-{label}", cmd, argv, fmt, name, dict(check))
        self.jobs.append(job)
        return job


# residue: uses the residue layer two ways.  series sweeps every modulus
# q <= R with a joint histogram and a 2-D FFT, which is where
# multiplicativity in q and memoisation would act; local counts a few deep
# prime powers with the primitive mask, where they would not.  The diagonal
# and non-diagonal halves show a separable path working on one half and
# bypassed on the other.
def _residue(b: _Builder) -> None:
    for name, shape, R, locals_, moduli in (
        ("r4d", D4, 24, [(2, 5), (3, 3)], [12, 30]),
        ("r4n", N4, 24, [(2, 5), (3, 3)], [12, 30]),
        ("r5d", D5, 14, [(2, 4), (3, 2)], [12, 15]),
        ("r5n", N5, 14, [(2, 4), (3, 2)], [12, 15]),
    ):
        b.problem(name, shape)
        b.job("series", name, ["series", "--R", R], R=R)
        for p, kmax in locals_:
            b.job("local", name, ["local", "--p", p, "--kmax", kmax], p=p, kmax=kmax)
        for q in moduli:
            a3, a2 = _coprime_numerators(b.rng, q)
            m = ",".join(str(b.rng.randint(-3, 3)) for _ in range(shape.n))
            key = f"{name}:{q}"
            for mode in ("complete", "crt"):
                b.job("sum_complete", name,
                      ["sum", "--mode", mode, "--q", q, "--a3", a3, "--a2", a2, "--m", m],
                      crt_key=key)


# lattice: diagonal quadrics take the isqrt fast path of the box scan and
# non-diagonal quadrics the full scan, so meet-in-the-middle and int64
# vectorisation can each be seen helping one path and not the other.  Two
# threads give count_weighted nothing and weyl_sum_direct about 2x, which
# is where a thread-pool decision shows.  The residue layer does almost
# nothing here.  compare runs only at n = 3, where the tensor quadrature of
# J(R) works, and each of its P values has a count job to check N against;
# each weyl-scan has a direct sum at one of its points to check |S| against.
def _lattice(b: _Builder) -> None:
    compare_p = [20, 40, 60]
    for name, shape in (("l3d", D3), ("l3n", N3)):
        b.problem(name, shape, compare_p + [200])
        for P in compare_p:
            b.job("count", name, ["count", "--P", P], P=P, compare_key=name)
        b.job("compare", name, ["compare", "--P", ",".join(map(str, compare_p)),
                                "--Rq", 3, "--Rgamma", 1, "--tol", 1e-6],
              fmt="csv", compare_key=name)
        b.job("sum_direct", name, ["sum", "--mode", "direct", "--P", 200,
                                   "--alpha3", round(b.rng.random(), 9),
                                   "--alpha2", round(b.rng.random(), 9)])
        _weyl_scan(b, name, 60)
    for name, shape in (("l4d", D4), ("l4n", N4)):
        b.problem(name, shape, [30, 60])
        b.job("count", name, ["count", "--P", 30], P=30)
        b.job("sum_direct", name, ["sum", "--mode", "direct", "--P", 60,
                                   "--alpha3", round(b.rng.random(), 9),
                                   "--alpha2", round(b.rng.random(), 9)])
        _weyl_scan(b, name, 30)


def _weyl_scan(b: _Builder, name: str, P: int, grid: int = 6) -> None:
    """A weyl-scan job, and a direct sum at one of its grid points to check
    that row's |S| against."""
    row, alpha3, alpha2 = b.scan_point(grid)
    key = f"{name}:{P}"
    b.job("weyl_scan", name, ["weyl-scan", "--P", P, "--grid", grid], fmt="csv", grid=grid, scan_key=key)
    b.job(None, name, ["sum", "--mode", "direct", "--P", P, "--alpha3", repr(alpha3), "--alpha2", repr(alpha2)],
          scan_key=key, row=row)


# diagnostics: nr on n = 3, 4 cubics exercises weyldiag; integral and
# sum --mode integral at n = 2, 3 the tensor quadrature; sum --mode poisson
# at n = 1, 2 the Poisson reconstruction, each beside the direct sum it must
# reproduce; arcs --grid the Dirichlet scan, on a 20 x 20 grid because the
# scan length per point is heavy-tailed and fewer points made the work
# depend on the seed.
def _diagnostics(b: _Builder) -> None:
    for name, shape, R in (("d3d", D3, 10), ("d3n", O3N, 10), ("d4d", D4, 5), ("d4n", O4N, 4)):
        b.problem(name, shape)
        invariant = {"invariant": ["n_R"]} if shape.orbit else {}
        b.job("nr", name, ["nr", "--R", R], R=R, n=shape.n, **invariant)
    for name, shape, R, g3, g2 in (("g2", O2, 4, 3.0, 2.0), ("g3", O3, 2, 1.5, 1.0), ("g3n", O3N, 2, 1.5, 1.0)):
        move = b.problem(name, shape)
        b.job("integral", name, ["integral", "--R", R, "--tol", TOL], tol=TOL, invariant=["value"])
        z = ",".join(str(v) for v in _move_vector([1, -1, 0][: shape.n], *move))
        b.job("integral", name, ["sum", "--mode", "integral", "--gamma3", g3,
                                 "--gamma2", g2, "--z", z, "--tol", TOL], tol=TOL, invariant=["re", "im"])
    for name, shape, P, q in (("p1", O1, 20, 3), ("p2", O2, 10, 2), ("p2b", O2, 20, 4)):
        b.problem(name, shape, [P])
        a3, a2 = _coprime_numerators(b.rng, q)
        theta3 = round(b.rng.uniform(-1, 1) * 0.8 / P**3, 12)
        theta2 = round(b.rng.uniform(-1, 1) * 0.8 / P**2, 12)
        key = f"{name}:{P}"
        b.job("poisson", name, ["sum", "--mode", "poisson", "--P", P, "--q", q, "--a3", a3,
                                "--a2", a2, "--theta3", theta3, "--theta2", theta2, "--M", 64],
              poisson_key=key)
        b.job(None, name, ["sum", "--mode", "direct", "--P", P,
                           "--alpha3", a3 / q + theta3, "--alpha2", a2 / q + theta2],
              poisson_key=key)
    b.job("arcs", None, ["arcs", "--P", 250, "--grid", 20], fmt="csv", grid=20, P=250)


# An n = 4 predict job probes a capability that fails today: the tensor
# quadrature of J(R) stops at its point cap.  It runs apart from the timed
# session, so the day it works shows as a drop in fail_frac, not as a slower
# wall time.
def _diagnostics_probes(b: _Builder) -> None:
    b.problem("probe4", D4)
    b.job(None, "probe4", ["predict", "--Rq", 4, "--Rgamma", 1, "--P", 40])


BUILDERS = {"residue": _residue, "lattice": _lattice, "diagnostics": _diagnostics}
PROBES = {"diagnostics": _diagnostics_probes}


def generate(workload: str, seed: int, workdir: str,
             session: int = 0) -> tuple[list[Job], list[Job], dict[str, dict]]:
    """Write the problem files of one session of a workload into workdir.

    Returns (session jobs, probe jobs, problems by name).  Probe jobs test a
    capability and run apart from the timed session.  The jobs of every
    session have the same ids and sizes; their inputs are drawn from
    (seed, session).
    """
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(BUILDERS)}")
    os.makedirs(workdir, exist_ok=True)
    b = _Builder(workload, seed, session, workdir)
    BUILDERS[workload](b)
    jobs, b.jobs = b.jobs, []
    if workload in PROBES:
        PROBES[workload](b)
    return jobs, b.jobs, b.problems
