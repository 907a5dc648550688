"""circlelab benchmark: seeded CLI sessions, timed untraced, with a traced run.

    python3 benchmark/run.py --workload residue --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory and nowhere else.  Each workload (see workloads.py) is a
list of CLI jobs run in-process through circlelab.cli.run(argv) with
stdout and stderr captured, so the times cover argument parsing, problem
loading, every layer and output, and leave out interpreter start-up.

One run:

1. sessions back to back until --seconds have passed; each session draws
   its own inputs from the seed and its index (workloads.py), and every
   job's output is checked in every session (checks.py).  wall_s and the
   cmd.* times add up each job's median time over the sessions;
2. after each session (and at least MIN_SETUPS times), one set-up timed in
   a fresh interpreter: import of circlelab.cli plus writing the seeded
   problem files.  setup_s is their median;
3. with --trace 1, one more session, with inputs of its own, and the
   capability probes run under the tracer (tracer.py), which wraps each
   module of the package from outside.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  --trace 0 reports the end-to-end metrics (medians over the
timed sessions); --trace 1 reports the per-layer metrics of the traced
session, the per-command times of the untraced sessions, fail_frac with the
probes counted, and the tracing overhead.  The line before it records the
environment of the run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 5
# The per-command times, in the order of the workloads that run them.
CMDS = ("series", "local", "sum_complete", "count", "compare", "sum_direct",
        "weyl_scan", "nr", "integral", "poisson", "arcs")

# Times one set-up in a fresh interpreter: import of circlelab.cli plus the
# problem files of the workload.
_SETUP_PROBE = """
import sys, time
src, here, workload, seed, workdir = sys.argv[1:]
sys.path[:0] = [src, here]
import workloads
t0 = time.perf_counter()
import circlelab.cli
workloads.generate(workload, int(seed), workdir)
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here: no source tree, or a set-up failure."""


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "circlelab", "cli.py")):
        raise BenchError(f"no circlelab source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import circlelab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"circlelab was imported from {cli.__file__}, not from {SRC}")
    return cli


def _measure_setup(workload: str, seed: int, workdir: str) -> float:
    """Seconds of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC, HERE, workload, str(seed), workdir],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _invoke(cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception:  # a crash of the program is a failed job, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_session(cli, jobs, tracer=None):
    """Run the jobs in order; returns (wall seconds, per-job seconds, results)."""
    results, times = [], []
    start = perf_counter()
    for job in jobs:
        with tracer.job(job.id) if tracer is not None else nullcontext():
            t0 = perf_counter()
            code, out, err = _invoke(cli, job.argv)
            times.append(perf_counter() - t0)
        results.append((job, code, out, err))
    return perf_counter() - start, times, results


def _cmd_times(jobs, times) -> dict[str, float]:
    out = {c: 0.0 for c in CMDS}
    for job, t in zip(jobs, times):
        if job.cmd is not None:
            out[job.cmd] += t
    return out


def _load_reference(workload: str, seed: int):
    if seed != 0:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "threads": workloads.THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_layer(tracer_mod, traced_jobs, cmd_medians, probe_failures, session_failures,
               n_session, n_probes, overhead) -> dict:
    raw = tracer_mod.session_metrics(traced_jobs)
    metrics = {}
    for name, value in raw.items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_frac"):
            unit = "frac"
        elif name == "quadrature.max_level":
            unit = "level"
        else:
            unit = "count"
        metrics[name] = _metric(value, unit)
    for cmd in CMDS:
        metrics[f"cmd.{cmd}_s"] = _metric(cmd_medians[cmd], "s")
    metrics["fail_frac"] = _metric(
        (session_failures + probe_failures) / (n_session + n_probes), "frac")
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("CIRCLELAB_CAP", None)  # the jobs run at the default cap

    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        cli = import_cli()
        reference = _load_reference(args.workload, args.seed)
        invariants = {}

        def session_inputs(k: int):
            return workloads.generate(args.workload, args.seed, os.path.join(workdir, f"session-{k}"), k)

        attempted = failed = wrong_probes = 0

        def checked(results, problems, session):
            nonlocal attempted, failed
            found = checks.check_session(results, problems, reference if session == 0 else None, invariants)
            bad = {k: v for k, v in found.items() if v}
            for job_id, problems_found in bad.items():
                print(f"check failed: {job_id}: {problems_found[:3]}", file=sys.stderr)
            attempted += len(results)
            failed += len(bad)
            return len(bad)

        # The machine slows down for seconds at a time.  Set-up samples are
        # spread over the run, one after each session, and a median per job
        # over the sessions rejects slow stretches job by job.
        walls, job_times, setup = [], [], []
        t_measure = perf_counter()
        while not walls or perf_counter() - t_measure < args.seconds:
            jobs, _, problems = session_inputs(len(walls))
            wall, times, results = run_session(cli, jobs)
            checked(results, problems, len(walls))
            walls.append(wall)
            job_times.append(times)
            setup.append(_measure_setup(args.workload, args.seed, os.path.join(workdir, f"setup-{len(setup)}")))
        while len(setup) < MIN_SETUPS:
            setup.append(_measure_setup(args.workload, args.seed, os.path.join(workdir, f"setup-{len(setup)}")))
        job_medians = [statistics.median(col) for col in zip(*job_times)]
        wall_median = sum(job_medians)
        cmd_medians = _cmd_times(jobs, job_medians)

        if args.trace:
            import tracer as tracer_mod

            traced_jobs, probes, problems = session_inputs(len(walls))
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                _, traced_times, results = run_session(cli, traced_jobs, tr)
                session_failures = checked(results, problems, len(walls))
                _, _, probe_results = run_session(cli, probes, tr)
            finally:
                tr.uninstall()
            # a probe that fails the known way counts in fail_frac only; one
            # that fails any other way, or answers wrongly, makes the run incorrect
            probe_failures = 0
            for result in probe_results:
                if checks.probe_outcome(result[1], result[3]):
                    probe_failures += 1
                elif any(checks.check_session([result], problems, None).values()):
                    probe_failures += 1
                    wrong_probes += 1
                    print(f"probe failed: {result[0].id}: {result[3].strip()[-300:]}", file=sys.stderr)
            metrics = _per_layer(tracer_mod, tr.jobs, cmd_medians, probe_failures, session_failures,
                                 len(jobs), len(probes), sum(traced_times) - wall_median)
        else:
            metrics = {
                "setup_s": _metric(statistics.median(setup), "s"),
                "wall_s": _metric(wall_median, "s"),
                "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        env = _environment(args.workload, args.seed, args.seconds, args.trace)
        env.update(setup_samples=setup, session_walls=walls)
        print(json.dumps({"environment": env}))
        print(json.dumps({"correct": failed == 0 and wrong_probes == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
