"""Checks that the tracer is wired to the package correctly.

    python3 -m pytest benchmark/test_wiring.py

Two facts hold at the commit that introduced the benchmark and pin the
derived counts to the code they describe:

- a ``series --R R`` job builds the joint histogram of every q in 2..R
  twice, because the command calls a_of_q after the series, so its
  gridsum.repeat_frac is exactly 0.5;
- a ``count`` job visits its box twice, because the command enumerates
  again after count_weighted, so its counting.points is twice the box work.

A change that removes either repeat should update the matching test.
"""

from __future__ import annotations

import math

import pytest

import run
import tracer
import workloads


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _traced(cli, jobs):
    tr = tracer.Tracer()
    tr.install()
    try:
        _, _, results = run.run_session(cli, jobs, tr)
    finally:
        tr.uninstall()
    assert all(code == 0 for _, code, _, _ in results), [r[3] for r in results]
    return {job.id: tracer.job_metrics(jt) for job, jt in zip(jobs, tr.jobs)}


def test_series_rebuilds_every_joint_histogram(cli, tmp_path):
    jobs, _, _ = workloads.generate("residue", 0, str(tmp_path))
    series = [j for j in jobs if j.cmd == "series"]
    for job_id, m in _traced(cli, series).items():
        R = next(j.check["R"] for j in series if j.id == job_id)
        assert m["gridsum.scans"] == 2 * (R - 1)
        assert m["gridsum.repeats"] / m["gridsum.scans"] == 0.5


def test_count_visits_its_box_twice(cli, tmp_path):
    jobs, _, problems = workloads.generate("lattice", 0, str(tmp_path))
    counts = [j for j in jobs if j.cmd == "count"]
    for job in counts:
        problem = problems[job.problem]
        side = round(0.8 * job.check["P"])
        diagonal = all(i == j for i, j, _ in problem["quadric"])
        box_work = side ** (problem["n"] - 1 if diagonal else problem["n"])
        m = _traced(cli, [job])[job.id]
        assert m["counting.points"] == 2 * box_work, job.id


def test_self_times_add_up_to_job_time(cli, tmp_path):
    jobs, _, _ = workloads.generate("lattice", 0, str(tmp_path))
    threaded = [j for j in jobs if j.cmd in ("sum_direct", "weyl_scan")][:2]
    for job_id, m in _traced(cli, threaded).items():
        total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) + m["bench.self_s"]
        assert math.isclose(total, m["trace.job_s"], rel_tol=1e-9), job_id
        assert m["util.pool_items"] > 0
        for layer in tracer.LAYERS:
            assert m[f"{layer}.busy_s"] <= m["trace.job_s"] + 1e-9


def test_uninstall_restores_the_package(cli):
    import circlelab.localdens as localdens

    original = localdens.joint_histogram
    tr = tracer.Tracer()
    tr.install()
    try:
        assert localdens.joint_histogram is not original
        assert cli.counting.enumerate_solutions.__wrapped__.__module__ == "circlelab.counting"
    finally:
        tr.uninstall()
    assert localdens.joint_histogram is original


def test_overlapping_pool_spans_share_wall_time():
    # job [0, 10] -> parallel_map [1, 9] -> two items on two threads, [1, 7] and [2, 9]
    bench, util, counting = tracer.BENCH, tracer.LAYERS.index("util"), tracer.LAYERS.index("counting")
    spans = [
        (1, 0, bench, 0.0, 10.0),
        (2, 1, util, 1.0, 9.0),
        (3, 2, counting, 1.0, 7.0),
        (4, 2, counting, 2.0, 9.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[bench] == pytest.approx(2.0)
    assert selfs[util] == pytest.approx(0.0)
    assert selfs[counting] == pytest.approx(8.0)
    busy = tracer.busy_times(spans)
    assert busy[counting] == pytest.approx(8.0)
