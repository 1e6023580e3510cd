"""The small benchmark plans run through the CLI and pass their own output
checks, so a change to an output's shape fails here, not only in the
benchmark's self-test."""

import importlib.util
from pathlib import Path

import pytest

from expsample.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["profile", "study", "kernels"])
def test_small_plan_passes_its_checks(name, tmp_path, monkeypatch, capsys):
    workloads = _workloads()
    monkeypatch.chdir(tmp_path)
    plan = workloads.make_plan(name, 1, small=True)
    results = []
    for argv in plan["invocations"]:
        code = main(argv)
        results.append((code, capsys.readouterr().out, None))
    assert workloads.check_pass(plan, results) == {}
