"""The --against report of tools/job_outputs.py on hand-made run records."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, *parts):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *parts))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


job_outputs = _load("job_outputs", "tools", "job_outputs.py")
checks = _load("checks", "benchmark", "checks.py")


def _run(stdout, code=0, stderr=""):
    return {"argv": [], "code": code, "stdout": stdout, "stderr": stderr}


def _json(re, level):
    return json.dumps({"re": re, "abs": 2.0, "meta": {"level": level, "tol": 1e-8}}, indent=2) + "\n"


CSV = "alpha3,abs_S,alt\n0.25,4.0,both\n0.5,1e-3,none\n"


def test_floats_move_relative_to_their_record_and_other_tokens_are_named():
    base = {
        "w:0:0:1:json": _run(_json(1.0, 6)),
        "w:0:0:1:csv": _run(CSV),
        "w:0:0:1:same": _run("1\n"),
        "w:0:0:1:gone": _run("x\n"),
    }
    head = {
        # re moves by 2e-15, a record whose largest float is abs = 2.0
        "w:0:0:1:json": _run(_json(1.0 + 2e-15, 7)),
        # the small float of the second row moves by 1e-18, relative to that
        # row's largest float 0.5; alt of the first row changes
        "w:0:0:1:csv": _run(CSV.replace("both", "i").replace("1e-3", "0.001000000000000001")),
        "w:0:0:1:same": _run("1\n"),
        "w:0:0:1:new": _run("", code=2, stderr="error: no\n"),
    }
    lines = job_outputs.report_moves(checks, base, head)
    assert lines[0] == "4 runs: 2 differ from the base, 2 run on one side only"
    assert lines[1] == "w:0:0:1:csv: stdout; largest float change 2.2e-18 at $[1].abs_S; non-float change at $[0].alt"
    assert lines[2] == "w:0:0:1:json: stdout; largest float change 1e-15 at $.re; non-float change at $.meta.level"
    assert lines[3:5] == ["w:0:0:1:gone: only in the base", "w:0:0:1:new: only here"]
    assert lines[5] == "largest float change of all runs: 1e-15 (w:0:0:1:json)"


@pytest.mark.parametrize("got,want", [
    ({"a": 1.0}, {"a": 1.0, "b": 2.0}),
    ([1.0], [1.0, 2.0]),
    ({"a": 1}, {"a": 1.0}),
    ({"a": float("nan")}, {"a": 1.0}),
    ({"a": "x", "b": float("nan")}, {"a": "y", "b": float("nan")}),
])
def test_a_changed_shape_or_type_is_not_a_float_move(got, want):
    assert [change for _, change in job_outputs.output_moves(checks, got, want)] == [None]


def test_code_and_stderr_changes_are_listed():
    base = {"k": _run("1\n", code=0)}
    head = {"k": _run("1\n", code=3, stderr="error: cap\n")}
    assert job_outputs.report_moves(checks, base, head) == [
        "1 runs: 1 differ from the base, 0 run on one side only",
        "k: code, stderr",
    ]
