"""Experiment runner: problem ingestion, subcommand dispatch, structured output.

Exit codes: 0 success, 2 input/usage error, 3 budget, convergence or internal
check failure.
Floats are printed with 17 significant digits so identical invocations are
byte-identical; randomized grids are driven entirely by --seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import arcs as arcs_mod
from . import archimedean, counting, expsums, localdens, weightfn, weyldiag
from .forms import (
    CubicForm,
    FormPair,
    QuadraticForm,
    eval_cubic,
    eval_quadratic,
    h_parameter,
    hypothesis_report,
    jacobian_minors,
    signature_quadratic,
    smooth_point_test,
)
from .gridsum import cubic_singular_points_mod_p
from .quadrature import QuadratureError
from .util import CapExceededError, DEFAULT_CAP, InvariantError
from .weightfn import Weight

__all__ = ["main", "run", "load_problem", "emit", "build_parser", "ProblemError"]


class ProblemError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A JSON number, not a boolean, that converts to a finite float."""
    if not (_is_int(v) or isinstance(v, float)):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def load_problem(path: str) -> tuple[FormPair, Weight]:
    """Load and validate a problem file, reporting every schema violation.

    Types are checked before values, so a violation never stops the checks
    that follow it; checks that need n are skipped when n itself is invalid.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ProblemError(["problem file must contain a JSON object"])
    known = {"n", "cubic", "quadric", "cubic_nonsingular", "h", "weight"}
    for key in data:
        if key not in known:
            errors.append(f"unknown key {key!r}")
    n = data.get("n")
    if not (_is_int(n) and n >= 1):
        errors.append("'n' must be a positive integer")
        n = None
    monomials = {}
    for name, arity, shape in (("cubic", 3, "[i, j, k, coeff]"), ("quadric", 2, "[i, j, coeff]")):
        entries = data.get(name, [])
        if not isinstance(entries, list):
            errors.append(f"'{name}' must be a list of {shape} entries")
            entries = []
        monomials[name] = {}
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == arity + 1):
                errors.append(f"{name} entry {json.dumps(entry)} must be {shape}")
                continue
            if not all(_is_int(v) for v in entry):
                errors.append(f"{name} entry {json.dumps(entry)} must be integers")
                continue
            idx, coeff = tuple(entry[:arity]), entry[arity]
            chain = (1,) + idx + (n,)
            if n is not None and any(a > b for a, b in zip(chain, chain[1:])):
                order = " <= ".join("ijk"[:arity])
                errors.append(
                    f"{name} indices {json.dumps(entry[:arity])} must satisfy 1 <= {order} <= n"
                )
                continue
            monomials[name][idx] = monomials[name].get(idx, 0) + coeff
    nonsing = data.get("cubic_nonsingular")
    if nonsing is not None and not isinstance(nonsing, bool):
        errors.append("'cubic_nonsingular' must be a boolean")
    h = data.get("h")
    if h is not None and not (_is_int(h) and h >= 1):
        errors.append("'h' must be a positive integer")
    wspec = data.get("weight", {})
    if not isinstance(wspec, dict):
        errors.append("'weight' must be an object {x0, xi}")
        wspec = {}
    x0 = wspec.get("x0", [0.0] * (n or 0))
    xi = wspec.get("xi", 0.4)
    if not (isinstance(x0, list) and n in (None, len(x0)) and all(_is_real(v) for v in x0)):
        errors.append("'weight.x0' must be a list of n reals")
    if not (_is_real(xi) and 0 < xi <= 1):
        errors.append("'weight.xi' must be a real in (0, 1]")
    if errors:
        raise ProblemError(errors)
    pair = FormPair(
        CubicForm(n, monomials["cubic"]),
        QuadraticForm(n, monomials["quadric"]),
        cubic_nonsingular=nonsing,
        h_override=h,
    )
    return pair, Weight(tuple(float(v) for v in x0), float(xi))


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _dump_json(obj, indent: int = 0) -> str:
    """A report as JSON with stable field order, walked once: dataclass
    records as the object of their fields in declaration order, Fractions as
    "p/q" strings, complex numbers as {re, im, abs}, numpy scalars as their
    Python values, tuples as lists, and NaN and infinities as strings."""
    pad = " " * indent
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag, "abs": abs(obj)}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_dump_json(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(_dump_json(v, indent) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj) or math.isinf(obj):
            return json.dumps(str(float(obj)))
        return _fmt_float(obj)
    if isinstance(obj, np.integer):
        return json.dumps(int(obj))
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit(report, fmt: str, out, header: list[str] | None = None) -> None:
    """Write a report to a stream: for json a dict or a library dataclass
    record, printed by _dump_json; for csv a list of dicts."""
    if fmt == "json":
        out.write(_dump_json(report) + "\n")
        return
    if fmt == "csv":
        rows = report
        writer = csv.writer(out, lineterminator="\n")
        if not rows:
            if header:
                writer.writerow(header)
            return
        header = header or list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    _fmt_float(v) if isinstance(v, float) else ("" if v is None else v)
                    for v in (row[h] for h in header)
                ]
            )
        return
    raise ValueError(f"unknown output format {fmt!r}")


def _parse_list(text: str, item) -> list:
    """The entries of a comma-separated flag value, each read by item; empty
    entries are skipped, and a value with no entry at all is refused."""
    values = [item(v) for v in text.split(",") if v != ""]
    if not values:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return values


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite float, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        # argparse's own wording for a flag of type float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_float_list(text: str) -> list[float]:
    values = _parse_list(text, float)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"expected finite numbers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    """argparse type of --threads: an integer of at least 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        # argparse's own wording for a flag of type int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _add_common(p: argparse.ArgumentParser, problem: bool = True) -> None:
    if problem:
        p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--tol", type=_finite_float, default=1e-8)
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="circlelab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dimensions, rank, signature, hypothesis predicates")
    _add_common(p)

    p = sub.add_parser("count", help="weighted count and box enumeration")
    _add_common(p)
    p.add_argument("--P", type=_finite_float, required=True)
    p.add_argument("--box", type=str, default=None, help="a:b,c:d,... inclusive ranges")
    p.add_argument("--emit", dest="emit_csv", default=None, help="write solutions CSV here")

    p = sub.add_parser("sum", help="exponential sums and oscillatory integrals")
    _add_common(p)
    p.add_argument("--mode", required=True, choices=["direct", "complete", "crt", "poisson", "integral"])
    p.add_argument("--P", type=_finite_float, default=None)
    p.add_argument("--alpha3", type=_finite_float, default=None)
    p.add_argument("--alpha2", type=_finite_float, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--a3", type=int, default=None)
    p.add_argument("--a2", type=int, default=None)
    p.add_argument("--m", type=str, default=None, help="comma-separated integer vector")
    p.add_argument("--M", type=int, default=None, help="poisson truncation radius")
    p.add_argument("--theta3", type=_finite_float, default=0.0)
    p.add_argument("--theta2", type=_finite_float, default=0.0)
    p.add_argument("--gamma3", type=_finite_float, default=0.0)
    p.add_argument("--gamma2", type=_finite_float, default=0.0)
    p.add_argument("--z", type=str, default=None, help="comma-separated frequency vector")

    p = sub.add_parser("arcs", help="major/minor classification of points or a grid")
    _add_common(p, problem=False)
    p.add_argument("--P", type=_finite_float, required=True)
    p.add_argument("--delta", type=_finite_float, default=arcs_mod.DEFAULT_DELTA)
    p.add_argument("--alpha3", type=_finite_float, default=None)
    p.add_argument("--alpha2", type=_finite_float, default=None)
    p.add_argument("--grid", type=int, default=None)

    p = sub.add_parser("series", help="truncated singular series")
    _add_common(p)
    p.add_argument("--R", type=int, required=True)

    p = sub.add_parser("local", help="local densities and stabilization at p")
    _add_common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)

    p = sub.add_parser("qfactor", help="q0 q1 q2 factorization of a modulus")
    _add_common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a3", type=int, required=True)

    p = sub.add_parser("integral", help="truncated singular integral")
    _add_common(p)
    p.add_argument("--R", type=_finite_float, required=True)

    p = sub.add_parser("predict", help="main-term prediction")
    _add_common(p)
    p.add_argument("--Rq", type=int, required=True)
    p.add_argument("--Rgamma", type=_finite_float, required=True)
    p.add_argument("--P", type=_finite_float, required=True)

    p = sub.add_parser("compare", help="counts vs prediction over a P grid (CSV)")
    _add_common(p)
    p.add_argument("--P", type=str, required=True, help="comma-separated P values")
    p.add_argument("--Rq", type=int, required=True)
    p.add_argument("--Rgamma", type=_finite_float, required=True)

    p = sub.add_parser("weyl-scan", help="Weyl dichotomy diagnostics on a grid (CSV)")
    _add_common(p)
    p.add_argument("--P", type=_finite_float, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--delta", type=_finite_float, default=arcs_mod.DEFAULT_DELTA)

    p = sub.add_parser("nr", help="bilinear system count n(R)")
    _add_common(p)
    p.add_argument("--R", type=int, required=True)

    return ap


def _cmd_info(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    sig = signature_quadratic(pair.quadric)
    try:
        h = h_parameter(pair)
    except ValueError:
        h = None
    # diagnostics at the weight center: is it (numerically) a smooth zero?
    x0 = list(weight.center)
    minor_max = max((abs(m) for m in jacobian_minors(pair, x0)), default=0.0)
    report = {
        "n": pair.n,
        "cubic_monomials": len(pair.cubic.monomials),
        "quadric_monomials": len(pair.quadric.monomials),
        "quadric_diagonal": pair.quadric.is_diagonal,
        "rank": sig.rank,
        "signature": [sig.r, sig.s],
        "h": h,
        "weight": {"x0": x0, "xi": weight.xi},
        "center": {
            "cubic_value": float(eval_cubic(pair.cubic, x0)),
            "quadric_value": float(eval_quadratic(pair.quadric, x0)),
            "jacobian_minor_max": float(minor_max),
            "smooth_zero": smooth_point_test(pair, x0, args.tol),
        },
        "hypotheses": hypothesis_report(pair, h, sig),
    }
    if pair.cubic_nonsingular:
        # sanity scan of the user assertion
        scan, skipped = cubic_singular_points_mod_p(pair.cubic, cap=args.cap, threads=args.threads)
        report["nonsingularity_scan"] = scan
        # primes with p^n > cap are not scanned; say so rather than drop them
        if skipped:
            report["nonsingularity_skipped"] = skipped
    return report, "json"


def _cmd_count(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    box = weightfn.weight_box(weight, args.P)
    # a --box of the wrong length is refused before any scan
    listed = None if args.box is None else counting.check_box(pair.n, _parse_list(args.box, _parse_range))
    solutions = list(counting.enumerate_solutions(pair, box, cap=args.cap))
    weighted = counting.weighted_sum(solutions, args.P, weight)
    if listed is not None:
        box = listed
        solutions = list(counting.enumerate_solutions(pair, box, cap=args.cap))
    report = {
        "P": args.P,
        "weighted_count": weighted,
        "box": [f"{lo}:{hi}" for lo, hi in box],
        "box_count": len(solutions),
    }
    if args.emit_csv:
        columns = [f"x{i+1}" for i in range(pair.n)]
        rows = [dict(zip(columns, sol)) for sol in solutions]
        with open(args.emit_csv, "w", encoding="utf-8") as fh:
            emit(rows, "csv", fh, header=columns)
    return report, "json"


def _cmd_sum(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    mode = args.mode
    if mode == "direct":
        if args.P is None or args.alpha3 is None or args.alpha2 is None:
            raise ValueError("direct mode needs --P --alpha3 --alpha2")
        val = expsums.weyl_sum_direct(
            pair, args.P, weight, args.alpha3, args.alpha2, cap=args.cap, threads=args.threads
        )
        meta = {"mode": mode, "P": args.P, "alpha3": args.alpha3, "alpha2": args.alpha2}
    elif mode in ("complete", "crt"):
        if args.q is None or args.a3 is None or args.a2 is None:
            raise ValueError(f"{mode} mode needs --q --a3 --a2")
        m = _parse_list(args.m, int) if args.m is not None else [0] * pair.n
        if mode == "complete":
            val = expsums.complete_sum(pair, args.q, args.a3, args.a2, m, cap=args.cap, threads=args.threads)
            meta = {"mode": mode, "q": args.q, "a3": args.a3, "a2": args.a2, "m": m}
        else:
            factors = expsums.crt_decomposition(pair, args.q, args.a3, args.a2, m, cap=args.cap, threads=args.threads)
            val = 1.0 + 0.0j
            for f in factors:
                val *= f.value
            meta = {"mode": mode, "q": args.q, "m": m, "factors": factors}
    elif mode == "poisson":
        if args.P is None or args.q is None or args.a3 is None or args.a2 is None:
            raise ValueError("poisson mode needs --P --q --a3 --a2")
        if args.q < 1:
            # before alpha is turned into theta, which divides by q
            raise ValueError(f"q must be a positive integer, got {args.q}")
        theta3, theta2 = args.theta3, args.theta2
        if args.alpha3 is not None:
            theta3 = args.alpha3 - args.a3 / args.q
        if args.alpha2 is not None:
            theta2 = args.alpha2 - args.a2 / args.q
        approx = expsums.RationalApprox(args.q, args.a3, args.a2, theta3, theta2)
        if args.M is None:
            args.M = expsums.default_truncation(pair, weight, approx, args.P)
        val = expsums.poisson_reconstruct(pair, args.P, weight, approx, args.M, cap=args.cap)
        meta = {
            "mode": mode,
            "P": args.P,
            "q": args.q,
            "a3": args.a3,
            "a2": args.a2,
            "theta3": theta3,
            "theta2": theta2,
            "M": args.M,
            "theta_height": expsums.theta_height(approx, args.P),
        }
    elif mode == "integral":
        z = _parse_float_list(args.z) if args.z is not None else [0.0] * pair.n
        res = expsums.osc_integral(
            pair, weight, args.gamma3, args.gamma2, z, tol=args.tol, cap=args.cap, threads=args.threads
        )
        val = res.value
        meta = {"mode": mode, "gamma3": args.gamma3, "gamma2": args.gamma2, "z": z,
                "quad_error": res.error, "quad_level": res.level}
    else:  # pragma: no cover
        raise ValueError(f"unknown mode {mode}")
    report = {"re": val.real, "im": val.imag, "abs": abs(val), "meta": meta}
    return report, "json"


def _cmd_arcs(args) -> tuple[object, str]:
    if args.grid is None:
        if args.alpha3 is None or args.alpha2 is None:
            raise ValueError("arcs needs either --alpha3/--alpha2 or --grid")
        is_major, witness = arcs_mod.major_arc_test(
            args.alpha3, args.alpha2, args.P, args.delta, cap=args.cap
        )
        Q3, Q2 = arcs_mod.q3q2(args.P)
        approx = arcs_mod.simultaneous_approx(args.alpha3, args.alpha2, Q3, Q2, cap=args.cap)
        report = {
            "P": args.P,
            "delta": args.delta,
            "alpha3": args.alpha3,
            "alpha2": args.alpha2,
            "is_major": is_major,
            "witness": witness,
            "pigeonhole": approx,
            "measure": arcs_mod.major_arc_measure(args.P, args.delta, cap=args.cap),
        }
        return report, "json"
    Q3, Q2 = arcs_mod.q3q2(args.P)
    points = arcs_mod.jittered_grid(args.grid, args.seed, cap=args.cap)
    approxes = arcs_mod.grid_approx(points, Q3, Q2, cap=args.cap)
    rows = []
    for a3, a2 in points:
        is_major, witness = arcs_mod.major_arc_test(a3, a2, args.P, args.delta, cap=args.cap)
        approx = next(approxes)
        rows.append(
            {
                "alpha3": a3,
                "alpha2": a2,
                "is_major": is_major,
                "q": witness[0] if witness else None,
                "a3": witness[1] if witness else None,
                "a2": witness[2] if witness else None,
                "pigeon_q": approx.q,
                "pigeon_a3": approx.a3,
                "pigeon_a2": approx.a2,
            }
        )
    return rows, "csv"


def _cmd_series(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    res = localdens.singular_series_truncated(pair, args.R, cap=args.cap, threads=args.threads)
    report = {
        "R": res.R,
        "value": res.value,
        "imag_residual": res.imag_residual,
        "terms": [{"q": q, "term": t} for q, t in res.terms],
        "a_of_q": [{"q": q, "A": a} for q, a in res.a_values],
    }
    return report, "json"


def _cmd_local(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    rep = localdens.hensel_stable(pair, args.p, args.kmax, cap=args.cap, threads=args.threads)
    return rep, "json"


def _cmd_qfactor(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    q0, q1, q2 = localdens.q_factorization(args.q, args.a3, pair.quadric)
    return {"q": args.q, "a3": args.a3, "q0": q0, "q1": q1, "q2": q2}, "json"


def _cmd_integral(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    res = archimedean.singular_integral_truncated(
        pair, weight, args.R, tol=args.tol, cap=args.cap, threads=args.threads
    )
    return {"R": args.R, "value": float(res.value), "error": res.error, "level": res.level}, "json"


def _main_term(
    args, pair: FormPair, weight: Weight, p_values: list[float]
) -> tuple[float, float, list[float]]:
    """S(R_q) and J(R_gamma), each computed once, and the main-term
    prediction S(R_q) * J(R_gamma) * P^{n-5} for the weighted count at each
    P of p_values, every one of which is first refused unless it is a finite
    real >= 1 (weightfn.check_scale)."""
    for P in p_values:
        weightfn.check_scale(P)
    series = localdens.singular_series_truncated(pair, args.Rq, cap=args.cap, threads=args.threads)
    integral = archimedean.singular_integral_truncated(
        pair, weight, args.Rgamma, tol=args.tol, cap=args.cap, threads=args.threads
    )
    main = series.value * integral.value
    return series.value, integral.value, [main * P ** (pair.n - 5) for P in p_values]


def _cmd_predict(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    sing_series, sing_integral, (prediction,) = _main_term(args, pair, weight, [args.P])
    return {
        "P": args.P,
        "Rq": args.Rq,
        "Rgamma": args.Rgamma,
        "sing_series": sing_series,
        "sing_integral": sing_integral,
        "prediction": prediction,
    }, "json"


def _cmd_compare(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    p_values = _parse_float_list(args.P)
    _, _, predictions = _main_term(args, pair, weight, p_values)
    rows = []
    for P, prediction in zip(p_values, predictions):
        count = counting.count_weighted(pair, P, weight, cap=args.cap)
        rows.append(
            {
                "P": P,
                "N": count,
                "prediction": prediction,
                "ratio": count / prediction if prediction else math.inf,
            }
        )
    return rows, "csv"


def _cmd_weyl_scan(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    rows = weyldiag.minor_arc_scan(
        pair, args.P, weight, args.grid,
        delta=args.delta, seed=args.seed, cap=args.cap, threads=args.threads,
    )
    return rows, "csv"


def _cmd_nr(args, pair: FormPair, weight: Weight) -> tuple[object, str]:
    value = weyldiag.count_bilinear(pair.cubic, args.R, cap=args.cap)
    return {"R": args.R, "n_R": value}, "json"


_HANDLERS = {
    "info": _cmd_info,
    "count": _cmd_count,
    "sum": _cmd_sum,
    "arcs": _cmd_arcs,
    "series": _cmd_series,
    "local": _cmd_local,
    "qfactor": _cmd_qfactor,
    "integral": _cmd_integral,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "weyl-scan": _cmd_weyl_scan,
    "nr": _cmd_nr,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of run(), built on the first run and shared by the later
    runs of the process: parse_args returns a new namespace each time and
    leaves the parser as it was, and every default is immutable."""
    return build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with warnings.catch_warnings():
            # a warning is one line of stderr, as an error is, with no source location
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            # every subcommand but arcs reads a problem file
            problem = load_problem(args.problem) if hasattr(args, "problem") else ()
            report, fmt = _HANDLERS[args.command](args, *problem)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except ProblemError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return 2
    except (CapExceededError, InvariantError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        # OverflowError: a coefficient beyond the float range met a float path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            emit(report, fmt, fh)
    else:
        emit(report, fmt, sys.stdout)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
