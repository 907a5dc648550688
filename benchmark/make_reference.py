"""Regenerate reference.json: every job's output on seed 0.

    python3 benchmark/make_reference.py

Run it only when a change to the program's output is intended; the
benchmark compares seed-0 outputs with these values.  Every job must first
pass its seed-independent checks.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checks
import workloads
from run import HERE, ROOT, import_cli, run_session


def main() -> int:
    cli = import_cli()
    reference = {}
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        for name in sorted(workloads.BUILDERS):
            jobs, _, problems = workloads.generate(name, 0, os.path.join(workdir, name))
            _, _, results = run_session(cli, jobs)
            found = checks.check_session(results, problems, None)
            bad = {k: v for k, v in found.items() if v}
            if bad:
                print(f"{name}: jobs fail their checks: {bad}", file=sys.stderr)
                return 1
            reference[name] = {job.id: checks.parse(job.fmt, out) for job, _, out, _ in results}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
