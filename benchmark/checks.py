"""Output checks for every job of a session.

Each job gets the checks its output allows on any seed: exit code 0, an
empty stderr (so nothing warned), structural bounds, and the cross-path
identities between jobs of one session:

- ``sum --mode crt`` equals ``sum --mode complete`` on the same (q, a, m);
- the ``series`` per-q terms and A(q) are multiplicative on coprime q, and
  the imaginary residual is below 1e-9;
- each ``compare`` row's N equals the ``count`` job at the same P;
- ``sum --mode poisson`` is within 1e-3 relative of ``sum --mode direct``
  (the bound of acceptance criterion 2);
- each ``weyl-scan`` has |S| at one of its grid points equal to a
  ``sum --mode direct`` job at that point;
- the quadrature error of ``integral`` and ``sum --mode integral`` is at
  most --tol;
- n(R) >= 2 (2R - 1)^n - 1 (the x = 0 and y = 0 slabs).

Across the sessions of a run, the outputs that a signed permutation of the
variables leaves unchanged (J(R), the oscillatory integral, n(R) of the
orbit problems) must agree: each session draws another element of the
group.  On the default seed the first session's outputs are also compared
with the reference values in reference.json.  Both comparisons take
integers and fractions exactly and floats to 1e-9 relative (scaled by the
largest float of the same record).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

REL = 1e-9
POISSON_REL = 1e-3


def parse(fmt: str, text: str):
    """The job's stdout as JSON (a dict) or CSV (a list of row dicts of strings)."""
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _cell(value):
    """A CSV cell as int, float or the string itself."""
    if not isinstance(value, str):
        return value
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _scale(record: dict) -> float:
    vals = [abs(v) for v in record.values() if isinstance(v, float) and math.isfinite(v)]
    return max(vals, default=0.0)


def compare_reference(got, want, path: str = "$", scale: float = 0.0, what: str = "reference") -> list[str]:
    """Differences between an output and its reference value (or another
    value, named by what)."""
    got, want = _cell(got), _cell(want)
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        inner = _scale({k: _cell(v) for k, v in want.items()})
        out = []
        for key in want:
            out += compare_reference(got[key], want[key], f"{path}.{key}", inner, what)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare_reference(g, w, f"{path}[{i}]", scale, what)
        return out
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=REL, abs_tol=REL * scale) or got == want:
            return []
        return [f"{path}: {got!r} != {what} {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {what} {want!r}"]
    return []


def _monomials(problem: dict):
    cubic = {(i, j, k): c for i, j, k, c in problem["cubic"]}
    quadric = {(i, j): c for i, j, c in problem["quadric"]}
    return cubic, quadric


def _eval(problem: dict, x) -> tuple[int, int]:
    cubic, quadric = _monomials(problem)
    c = sum(v * x[i - 1] * x[j - 1] * x[k - 1] for (i, j, k), v in cubic.items())
    q = sum(v * x[i - 1] * x[j - 1] for (i, j), v in quadric.items())
    return c, q


def _icbrt_floor(v: int) -> int:
    k = round(v ** (1.0 / 3.0))
    while k**3 > v:
        k -= 1
    while (k + 1) ** 3 <= v:
        k += 1
    return k


def _arg(job, flag: str) -> str:
    """Value of a "--flag=value" argument of the job."""
    return next(a.split("=", 1)[1] for a in job.argv if a.startswith(flag + "="))


def _complex(out: dict) -> complex:
    return complex(out["re"], out["im"])


def _flag(value) -> bool:
    return value in ("True", True)


def _multiplicative(values: dict[int, float], what: str, rel: float) -> list[str]:
    bad = []
    for a in values:
        for b in values:
            if 1 < a < b and math.gcd(a, b) == 1 and a * b in values:
                prod = values[a] * values[b]
                if abs(values[a * b] - prod) > rel * (1.0 + abs(prod)):
                    bad.append(f"{what}({a * b}) = {values[a * b]!r} but {what}({a}) {what}({b}) = {prod!r}")
    return bad


def _check_series(job, out, problem) -> list[str]:
    R = job.check["R"]
    bad = []
    if not out["imag_residual"] < 1e-9:
        bad.append(f"imag_residual {out['imag_residual']} >= 1e-9")
    terms = {t["q"]: t["term"] for t in out["terms"]}
    a_vals = {t["q"]: t["A"] for t in out["a_of_q"]}
    if sorted(terms) != list(range(1, R + 1)) or sorted(a_vals) != list(range(1, R + 1)):
        return bad + ["series trace does not cover q = 1..R"]
    if not math.isclose(out["value"], math.fsum(terms.values()), rel_tol=1e-12, abs_tol=1e-12):
        bad.append("series value is not the sum of its terms")
    bad += _multiplicative(terms, "T", 1e-9)
    bad += _multiplicative(a_vals, "A", 1e-9)
    return bad


def _check_local(job, out, problem) -> list[str]:
    p, kmax = job.check["p"], job.check["kmax"]
    bad = []
    if out["reached"] != kmax or out["partial"]:
        bad.append(f"scan stopped at level {out['reached']} of {kmax}")
    full = [Fraction(v) for v in out["densities"]]
    prim = [Fraction(v) for v in out["primitive_densities"]]
    if len(full) != out["reached"] or any(b > a for a, b in zip(full, prim)):
        bad.append("primitive density exceeds full density")
    sol = out["solubility"]
    if sol["verdict"] not in ("smooth_liftable", "only_singular"):
        bad.append(f"full scan mod {p} gave verdict {sol['verdict']}")
    if sol["verdict"] == "smooth_liftable":
        modulus = p ** sol["level"]
        c, q = _eval(problem, sol["point"])
        if c % modulus or q % modulus:
            bad.append(f"lifted point is not a solution mod {modulus}")
    return bad


def _check_count(job, out, problem) -> list[str]:
    side = round(0.8 * job.check["P"])
    bad = []
    for part in out["box"]:
        lo, hi = (int(v) for v in part.split(":"))
        if hi - lo + 1 != side:
            bad.append(f"box axis {part} does not hold {side} points")
    if out["box_count"] < 1 or not out["weighted_count"] > 0:
        bad.append("the origin solves C = Q = 0 but was not counted")
    return bad


def _check_compare(job, out, problem) -> list[str]:
    bad = []
    for row in out:
        N, pred, ratio = float(row["N"]), float(row["prediction"]), float(row["ratio"])
        if pred and not math.isclose(ratio, N / pred, rel_tol=1e-12):
            bad.append(f"ratio at P={row['P']} is not N / prediction")
    return bad


def _check_direct(job, out, problem) -> list[str]:
    n = problem["n"]
    P = float(_arg(job, "--P"))
    bound = (0.8 * P + 1) ** n * math.exp(-1.0)
    return [] if out["abs"] <= bound else [f"|S| = {out['abs']} exceeds the weight mass bound {bound}"]


def _check_weyl_scan(job, out, problem) -> list[str]:
    n = problem["n"]
    h = n if problem.get("cubic_nonsingular") else problem["h"]
    P = float(_arg(job, "--P"))
    bad = []
    if len(out) != job.check["grid"] ** 2:
        bad.append(f"{len(out)} rows for a {job.check['grid']}^2 grid")
    for row in out:
        s_abs, t3 = float(row["abs_S"]), float(row["t3"])
        if s_abs > 0 and not math.isclose(h * math.log(t3), n * math.log(P) - math.log(s_abs),
                                          rel_tol=1e-9, abs_tol=1e-9):
            bad.append(f"|S| = P^n T3^-h fails at alpha = ({row['alpha3']}, {row['alpha2']})")
    return bad


def _check_nr(job, out, problem) -> list[str]:
    R, n = job.check["R"], job.check["n"]
    side = 2 * R - 1
    if not 2 * side**n - 1 <= out["n_R"] <= side ** (2 * n):
        return [f"n(R) = {out['n_R']} outside [2(2R-1)^n - 1, (2R-1)^2n]"]
    return []


def _check_integral(job, out, problem) -> list[str]:
    error = out["error"] if "error" in out else out["meta"]["quad_error"]
    return [] if error <= job.check["tol"] else [f"quadrature error {error} > tol"]


def _check_arcs(job, out, problem) -> list[str]:
    P = job.check["P"]
    q3, q2 = _icbrt_floor(P**4), _icbrt_floor(P)
    qmax = int(P ** (1.0 / 7.0))
    bad = []
    if len(out) != job.check["grid"] ** 2:
        bad.append(f"{len(out)} rows for a {job.check['grid']}^2 grid")
    for row in out:
        if not 1 <= int(row["pigeon_q"]) <= q3 * q2:
            bad.append(f"pigeonhole q = {row['pigeon_q']} outside [1, Q3 Q2]")
        if _flag(row["is_major"]) and not 1 <= int(row["q"]) <= qmax:
            bad.append(f"major-arc witness q = {row['q']} exceeds P^delta")
    return bad


def _check_predict(job, out, problem) -> list[str]:
    n = problem["n"]
    P = float(_arg(job, "--P"))
    want = out["sing_series"] * out["sing_integral"] * P ** (n - 5)
    return [] if math.isclose(out["prediction"], want, rel_tol=1e-12) else ["prediction != S J P^(n-5)"]


def _checker(job):
    head = job.argv[0]
    if head == "sum":
        mode = _arg(job, "--mode")
        return {"direct": _check_direct, "integral": _check_integral}.get(mode)
    return {
        "series": _check_series,
        "local": _check_local,
        "count": _check_count,
        "compare": _check_compare,
        "weyl-scan": _check_weyl_scan,
        "nr": _check_nr,
        "integral": _check_integral,
        "arcs": _check_arcs,
        "predict": _check_predict,
    }.get(head)


KNOWN_PROBE_FAILURE = "exceeds point cap"


def probe_outcome(code, err: str) -> bool:
    """True when a probe failed the known way (exit 3 at the quadrature point cap)."""
    return code == 3 and KNOWN_PROBE_FAILURE in err


def check_session(results, problems: dict, reference: dict | None,
                  invariants: dict | None = None) -> dict[str, list[str]]:
    """Problems found per job id; a job with an empty list passed.

    results is a list of (job, exit code, stdout, stderr).  reference maps
    job ids to reference outputs, or is None on sessions without references.
    invariants holds, per job id, the invariant fields of the first session
    that reported them; pass the same dict for every session of a run.
    """
    found: dict[str, list[str]] = {}
    parsed = {}
    for job, code, stdout, stderr in results:
        bad = []
        if code != 0:
            bad.append(f"exit code {code}: {stderr.strip()[-300:]}")
        elif stderr:
            bad.append(f"unexpected stderr: {stderr.strip()[-300:]}")
        else:
            try:
                out = parse(job.fmt, stdout)
            except (ValueError, csv.Error) as exc:
                out = None
                bad.append(f"unparseable output: {exc}")
            if out is not None:
                parsed[job.id] = out
                check = _checker(job)
                try:
                    if check is not None:
                        bad += check(job, out, problems.get(job.problem))
                except (KeyError, ValueError, TypeError, IndexError) as exc:
                    bad.append(f"output lacks an expected field: {exc!r}")
                if reference is not None:
                    if job.id not in reference:
                        bad.append("no reference value for this job")
                    else:
                        bad += compare_reference(out, reference[job.id])[:5]
                if invariants is not None and "invariant" in job.check:
                    try:
                        values = {f: out[f] for f in job.check["invariant"]}
                    except KeyError as exc:
                        bad.append(f"output lacks an expected field: {exc!r}")
                    else:
                        first = invariants.setdefault(job.id, values)
                        bad += compare_reference(values, first, what="earlier session")
        found[job.id] = bad
    _cross_checks([r[0] for r in results], parsed, found)
    return found


def _cross_checks(jobs, parsed: dict, found: dict) -> None:
    by_key: dict[tuple, list] = {}
    for job in jobs:
        for key in ("crt_key", "compare_key", "poisson_key", "scan_key"):
            if key in job.check and job.id in parsed:
                by_key.setdefault((key, job.check[key]), []).append(job)
    for (key, _), group in by_key.items():
        try:
            _cross_check(key, group, parsed, found)
        except (KeyError, ValueError, TypeError, IndexError, StopIteration) as exc:
            for job in group:
                found[job.id].append(f"output lacks an expected field: {exc!r}")


def _cross_check(key: str, group, parsed: dict, found: dict) -> None:
    if key == "crt_key":
        vals = [_complex(parsed[j.id]) for j in group]
        ref = vals[0]
        for job, val in zip(group[1:], vals[1:]):
            if abs(val - ref) > REL * (1.0 + abs(ref)):
                found[job.id].append(f"crt {val} != complete {ref}")
    elif key == "poisson_key":
        direct = next((_complex(parsed[j.id]) for j in group if "--mode=direct" in j.argv), None)
        for job in group:
            if "--mode=poisson" in job.argv and direct is not None:
                diff = abs(_complex(parsed[job.id]) - direct)
                err = diff / abs(direct) if direct else diff
                if err > POISSON_REL:
                    found[job.id].append(f"poisson is {err:.3g} from direct (bound {POISSON_REL})")
    elif key == "scan_key":
        scan = next(j for j in group if j.argv[0] == "weyl-scan")
        for job in (j for j in group if j.argv[0] == "sum"):
            row = parsed[scan.id][job.check["row"]]
            at = (float(_arg(job, "--alpha3")), float(_arg(job, "--alpha2")))
            if (float(row["alpha3"]), float(row["alpha2"])) != at:
                found[job.id].append(f"weyl-scan row {job.check['row']} is not at alpha = {at}")
            elif not math.isclose(float(row["abs_S"]), parsed[job.id]["abs"], rel_tol=REL):
                found[scan.id].append(f"|S| = {row['abs_S']} at alpha = {at} but direct gives {parsed[job.id]['abs']}")
    else:
        counts = {float(j.check["P"]): parsed[j.id]["weighted_count"] for j in group if j.argv[0] == "count"}
        for job in (j for j in group if j.argv[0] == "compare"):
            for row in parsed[job.id]:
                P, N = float(row["P"]), float(row["N"])
                if P not in counts:
                    found[job.id].append(f"no count job at P={P}")
                elif not math.isclose(N, counts[P], rel_tol=1e-12):
                    found[job.id].append(f"compare N({P}) = {N} != count {counts[P]}")
