"""Checks of the seeded workload generator.

    python3 -m pytest benchmark/test_workloads.py
"""

from __future__ import annotations

import json
import math

import pytest

import workloads


# The flags that set the amount of work; the seed draws every other value.
SIZES = {"--mode", "--R", "--P", "--q", "--p", "--kmax", "--grid", "--M", "--tol", "--Rq", "--Rgamma"}


def _sizes(job):
    return [job.argv[0]] + [a for a in job.argv if a.split("=", 1)[0] in SIZES]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_sessions_draw_their_own_inputs(name, tmp_path):
    """Every session runs the same jobs on inputs of its own, so no session
    can be answered from a cache that an earlier one filled.  A problem
    drawn from the signed permutations of a base problem repeats only once
    the 2^n n! of them are used up."""
    runs = [workloads.generate(name, 7, str(tmp_path / str(k)), k) for k in range(3)]
    again = workloads.generate(name, 7, str(tmp_path / "again"), 1)
    (jobs0, _, problems0), (jobs1, _, problems1), (jobs2, _, problems2) = runs
    assert [j.id for j in jobs0] == [j.id for j in jobs1] == [j.id for j in jobs2]
    assert [_sizes(j) for j in jobs0] == [_sizes(j) for j in jobs1] == [_sizes(j) for j in jobs2]
    assert json.dumps(again[2], sort_keys=True) == json.dumps(problems1, sort_keys=True)
    for key, problem in problems0.items():
        drawn = {json.dumps(p[key], sort_keys=True) for p in (problems0, problems1, problems2)}
        assert len(drawn) == min(3, 2 ** problem["n"] * math.factorial(problem["n"])), key
