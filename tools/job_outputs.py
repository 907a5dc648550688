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
"""

from __future__ import annotations

import json
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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
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
