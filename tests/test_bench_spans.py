"""The traced benchmark run patches library names that must exist, and
every small plan opens every span its workload expects, so no library
path bypasses a patched name."""

import importlib
import importlib.util
import operator
from pathlib import Path

import pytest

import expsample.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return [(key, module, name)
            for key, targets in _load("tracing").SPANS.items()
            for module, name in targets]


@pytest.mark.parametrize("key, module, name", _spans())
def test_span_target_resolves(key, module, name):
    # "Class.method" names a method on a class of the module
    target = operator.attrgetter(name)(importlib.import_module(module))
    assert callable(target), f"span {key}: {module}.{name}"


@pytest.mark.parametrize("name", ["profile", "study", "kernels"])
def test_small_plan_keeps_every_span(name, tmp_path, monkeypatch, capsys):
    # the second pass runs on warm caches, which must skip no span
    tracing = _load("tracing")
    plan = _load("workloads").make_plan(name, 1, small=True)
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            for argv in plan["invocations"]:
                assert expsample.cli.main(argv) == 0
        metrics = tracer.layer_metrics(name)
        assert metrics["trace.unmeasured"] == 0
        if name == "profile":
            # the fx column of the 21-point expression pass
            assert metrics["expr.points"] == 21
