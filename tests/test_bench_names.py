"""The names that bench/run.py traces and times still name parts of fingerloc.

The benchmark wraps functions and methods by name from outside the program, so a renamed or
deleted entry point does not fail a run: its metric is reported missing. These checks catch that
in the test suite, on bench/run.py as it is.
"""
import importlib
import importlib.util
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

from fingerloc import models

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = re.compile(r"nn\.bench\.(\w+)\.(\d+)-(\w+)\.(?:fwd|bwd)_ms")


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py loaded as a module; it imports its sibling modules by bare name."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return module


def traced_names(bench_run) -> set[str]:
    names = {"nn.backward", *bench_run.OPTIMIZER_STEPS, *bench_run.HOOKS}
    for _, spans in bench_run.SPAN_METRICS.values():
        names.update(spans)
    for spans in bench_run.COUNTER_METRICS.values():
        names.update(spans)
    return names


def resolve(name: str):
    """What the benchmark's tracer wraps under ``name``: a public function of a fingerloc module,
    or a public method defined on a public class of it."""
    short, *path = name.split(".")
    module = importlib.import_module(f"fingerloc.{short}")
    assert all(not part.startswith("_") for part in path), name
    obj = vars(module)[path[0]]
    assert getattr(obj, "__module__", None) == module.__name__, name
    for part in path[1:]:
        obj = vars(obj)[part]
    assert inspect.isfunction(obj), name
    return obj


def test_every_traced_name_resolves(bench_run):
    names = traced_names(bench_run)
    unresolved = []
    for name in sorted(names):
        try:
            resolve(name)
        except (AssertionError, KeyError, ModuleNotFoundError):
            unresolved.append(name)
    assert unresolved == []
    assert len(names) == 33


def test_every_timed_layer_has_its_kind(bench_run):
    layers = {PER_LAYER.fullmatch(m["name"]).groups()
              for m in bench_run.SPEC["per_layer"] if PER_LAYER.fullmatch(m["name"])}
    wrong = [(kind, int(i), expected) for kind, i, expected in sorted(layers)
             if models.build_model(kind, seed=0).layers[int(i)].spec()["kind"] != expected]
    assert wrong == []
    assert len(layers) == 25
