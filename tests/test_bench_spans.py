"""The traced benchmark run patches library names that must exist."""

import importlib
import importlib.util
import operator
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(key, module, name) for key, targets in tracing.SPANS.items()
            for module, name in targets]


@pytest.mark.parametrize("key, module, name", _spans())
def test_span_target_resolves(key, module, name):
    # "Class.method" names a method on a class of the module
    target = operator.attrgetter(name)(importlib.import_module(module))
    assert callable(target), f"span {key}: {module}.{name}"
