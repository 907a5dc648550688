"""The --against report and the --threads check of tools/job_outputs.py on hand-made run records."""

import importlib.util
import json
import os
import sys
import types

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


def test_crashed_runs_and_thread_differences_are_listed():
    records = {
        "w:0:0:1:same": _run("1\n"),
        "w:0:0:2:same": _run("1\n"),
        "w:0:0:1:out": _run("1\n"),
        "w:0:0:2:out": _run("2\n"),
        "w:0:0:1:err": _run("", code=3, stderr="error: cap\n"),
        "w:0:0:2:err": _run("", code=3, stderr="error: cap 2\n"),
        # a crash at --threads 2 only is also a difference at --threads 1
        "w:1:0:1:crash": _run("1\n"),
        "w:1:0:2:crash": _run("", code=None, stderr="Traceback\n"),
    }
    assert job_outputs.thread_faults(records) == [
        "w:1:0:2:crash: crashed",
        "w:0:0:1:out: differs at --threads 2",
        "w:0:0:1:err: differs at --threads 2",
        "w:1:0:1:crash: differs at --threads 2",
    ]
    assert job_outputs.thread_faults({k: v for k, v in records.items() if ":same" in k}) == []


def test_the_run_exits_1_on_a_fault(monkeypatch, tmp_path, capsys):
    # main writes the records, lists the faults after them and exits 1
    records = {"w:0:0:1:j": _run("1\n"), "w:0:0:2:j": _run("1\n", code=None)}
    # stubs for the tree's package and the benchmark modules main imports
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("run", "workloads"):
        monkeypatch.setitem(sys.modules, name, types.ModuleType(name))
    monkeypatch.setattr(job_outputs, "_import_cli", lambda tree: None)
    monkeypatch.setattr(job_outputs, "job_outputs", lambda cli, run, workloads: records)
    out = tmp_path / "out.json"
    assert job_outputs.main([ROOT, str(out)]) == 1
    assert json.loads(out.read_text()) == records
    assert capsys.readouterr().out.splitlines()[1:] == ["w:0:0:2:j: crashed", "w:0:0:1:j: differs at --threads 2"]
    records["w:0:0:2:j"]["code"] = 0
    assert job_outputs.main([ROOT, str(out)]) == 0
