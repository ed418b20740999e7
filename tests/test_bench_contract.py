"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/layers.py`` wraps chowforms functions and methods by name, so a
renamed or moved one makes every traced benchmark run fail when the tracer
installs.  These tests load that file from the checkout and check each name
it lists; they skip when the checkout has no benchmark.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    if not LAYERS.is_file():
        pytest.skip("no perfbench/layers.py in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_on_its_owner(layers):
    for name, owner, attr in layers.SPANS:
        if isinstance(owner, type):
            # Methods are patched through the class dict, not inherited.
            assert attr in vars(owner), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_every_counter_resolves_on_its_class(layers):
    for name, cls, attr in layers.COUNTERS:
        assert attr in vars(cls), name
    assert "point" in vars(layers.curves.CurveMap)


def test_map_degree_keeps_an_int_trials_default(layers):
    trials = inspect.signature(layers.oracle.map_degree).parameters["trials"].default
    assert type(trials) is int


def test_tracer_installs_and_uninstalls(layers):
    before = layers.oracle.check_curve
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert layers.oracle.check_curve is not before
    finally:
        tracer.uninstall()
    assert layers.oracle.check_curve is before
