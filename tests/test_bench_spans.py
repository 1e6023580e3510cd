"""The traced benchmark run patches library names that must exist, and
every small plan opens every span its workload expects, so no library
path bypasses a patched name."""

import dataclasses
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
    # the second pass runs on warm caches, which must skip no span; the
    # expr span counts every point an expression's evaluator is called
    # at (the engine's nodes, then the fx column of the 21-point pass)
    tracing = _load("tracing")
    plan = _load("workloads").make_plan(name, 1, small=True)
    monkeypatch.chdir(tmp_path)
    sizes = []

    def counting(spec, resolve=expsample.cli.function_from_spec):
        f = resolve(spec)
        if not spec.startswith("expr:"):
            return f

        def evaluator(x):
            sizes.append(x.size)
            return f.evaluator(x)
        return dataclasses.replace(f, evaluator=evaluator)

    monkeypatch.setattr(expsample.cli, "function_from_spec", counting)
    for _ in range(2):
        sizes.clear()
        tracer = tracing.Tracer()
        with tracer.installed():
            for argv in plan["invocations"]:
                assert expsample.cli.main(argv) == 0
        metrics = tracer.layer_metrics(name)
        assert metrics["trace.unmeasured"] == 0
        if name == "profile":
            assert sizes[-1] == 21
            assert metrics["expr.points"] == sum(sizes)
