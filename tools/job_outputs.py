"""Every benchmark job of one source tree, run in-process, with its exit
code, stdout and stderr written to one JSON file.

    python3 tools/job_outputs.py TREE OUT.json

TREE is the root of a circlelab checkout; the package is imported from
TREE/src and nowhere else.  The jobs and probes of the three workloads come
from this checkout's benchmark/workloads.py, and each runs through the
benchmark's own in-process call (run._invoke); both are only imported.
Seeds 0 and 1, sessions 0, 1 and 2, each job at --threads 1 and 2: 816
runs.  Each session writes its problem files into a temporary directory,
whose path reads <workdir> in every recorded argv and output.

Two trees print the same outputs, byte for byte, exactly when the files
written for them are equal:

    python3 tools/job_outputs.py ../parent parent.json
    python3 tools/job_outputs.py . change.json
    cmp parent.json change.json

How far the outputs moved:

    python3 tools/job_outputs.py --against parent.json change.json

lists every run whose code, stdout or stderr differs, or that is in one
file only.  For a run whose stdout differs it gives the largest relative
change of any float, each change divided by the largest float of its
record as benchmark/checks.py scales them (a JSON object or a CSV row), and
it names every changed token that is not a float: an int, a string, a
key, a length.  The last line gives the largest float change of all runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")
SEEDS = (0, 1)
SESSIONS = (0, 1, 2)
THREADS = (1, 2)


def _import_cli(tree: str):
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    import circlelab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"circlelab was imported from {cli.__file__}, not from {src}")
    return cli


def job_outputs(cli, run, workloads) -> dict[str, dict]:
    """The record of every run, keyed workload:seed:session:threads:job; a
    crash reads code None, with its traceback as stderr."""
    records = {}
    for workload in workloads.BUILDERS:
        for seed in SEEDS:
            for session in SESSIONS:
                with tempfile.TemporaryDirectory() as workdir:
                    jobs, probes, _ = workloads.generate(workload, seed, workdir, session)
                    for threads in THREADS:
                        for job in jobs + probes:
                            argv = list(job.argv)
                            argv[argv.index("--threads") + 1] = str(threads)
                            code, out, err = run._invoke(cli, argv)
                            records[f"{workload}:{seed}:{session}:{threads}:{job.id}"] = {
                                "argv": [a.replace(workdir, "<workdir>") for a in argv],
                                "code": code,
                                "stdout": out.replace(workdir, "<workdir>"),
                                "stderr": err.replace(workdir, "<workdir>"),
                            }
    return records


def _parse(checks, text: str):
    """A run's stdout as JSON, or else as CSV rows with their cells read as
    int, float or string, as benchmark/checks.py reads them."""
    try:
        return json.loads(text)
    except ValueError:
        return [{k: checks._cell(v) for k, v in row.items()} for row in checks.parse("csv", text)]


def output_moves(checks, got, want, path: str = "$", scale: float = 0.0):
    """Walk two parsed outputs side by side and yield (path, change): for a
    float that changed, its change over the largest float of its record
    (the scale of checks.compare_reference); for any other changed token
    or shape, None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            yield path, None
            return
        inner = checks._scale(want)
        for key in want:
            yield from output_moves(checks, got[key], want[key], f"{path}.{key}", inner)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            yield path, None
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from output_moves(checks, g, w, f"{path}[{i}]", scale)
    elif type(got) is float and type(want) is float and math.isfinite(got) and math.isfinite(want):
        if got != want:
            yield path, abs(got - want) / max(scale, abs(want), abs(got))
    elif type(got) is not type(want) or (got != want and repr(got) != repr(want)):
        # repr, so that a NaN in the same place on both sides is no change
        yield path, None


def report_moves(checks, base: dict[str, dict], head: dict[str, dict]) -> list[str]:
    """The lines of the --against report of head against base."""
    lines, largest = [], []
    for key in sorted(set(head) & set(base)):
        rec, old = head[key], base[key]
        fields = [f for f in ("code", "stdout", "stderr") if rec[f] != old[f]]
        if not fields:
            continue
        line = f"{key}: {', '.join(fields)}"
        if "stdout" in fields:
            moves = list(output_moves(checks, _parse(checks, rec["stdout"]), _parse(checks, old["stdout"])))
            floats = [(change, path) for path, change in moves if change is not None]
            if floats:
                change, path = max(floats)
                line += f"; largest float change {change:.2g} at {path}"
                largest.append((change, key))
            others = [path for path, change in moves if change is None]
            if others:
                line += f"; non-float change at {', '.join(others)}"
        lines.append(line)
    unmatched = sorted(set(head) ^ set(base))
    head_line = f"{len(head)} runs: {len(lines)} differ from the base, {len(unmatched)} run on one side only"
    lines = [head_line] + lines + [f"{key}: only {'here' if key in head else 'in the base'}" for key in unmatched]
    if largest:
        change, key = max(largest, key=lambda t: t[0])
        lines.append(f"largest float change of all runs: {change:.2g} ({key})")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--against":
        sys.path.insert(0, BENCH)
        import checks

        with open(argv[1], encoding="utf-8") as fh:
            base = json.load(fh)
        with open(argv[2], encoding="utf-8") as fh:
            head = json.load(fh)
        print("\n".join(report_moves(checks, base, head)))
        return 0
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tree, path = argv
    cli = _import_cli(tree)
    sys.path.insert(0, BENCH)
    import run
    import workloads

    records = job_outputs(cli, run, workloads)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    failed = sum(r["code"] != 0 for r in records.values())
    print(f"{len(records)} runs, {failed} with a nonzero exit code, written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
