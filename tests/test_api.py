"""The public names: what the package exports and what the benchmark traces."""

import inspect
import json
from pathlib import Path

import pytest

import allocflow

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TRACED = (".calls", ".busy_ms", ".self_ms")


def traced_functions():
    """(layer, function) of every per-layer metric in BENCHMARK.json that
    times or counts one function."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted(
        {
            tuple(name[: -len(suffix)].split("."))
            for name in names
            for suffix in TRACED
            if name.endswith(suffix) and name.count(".") == 2
        }
    )


def test_every_exported_name_resolves():
    missing = [name for name in allocflow.__all__ if not hasattr(allocflow, name)]
    assert missing == []


def test_benchmark_names_functions():
    assert traced_functions()  # the parametrized check below is not vacuous


@pytest.mark.parametrize("traced", traced_functions(), ids=".".join)
def test_benchmark_metric_still_names_a_function(traced):
    """A deleted or renamed function would make the benchmark report 0 for
    it, which reads as a gain."""
    layer, function = traced
    module = getattr(allocflow, layer)
    if (layer, function) == ("model", "resolve"):
        target = module.CommModel.resolve  # counted on the class, not traced by name
    else:
        target = getattr(module, function, None)
    assert inspect.isfunction(target), f"{layer}.{function} is not a function of allocflow.{layer}"
