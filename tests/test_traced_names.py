"""Every function the benchmark's tracer instruments (``TRACED`` in
perfbench/layers.py, plus its counter-only targets) must still exist: the
tracer looks each one up by name, so a library deletion would otherwise only
show when a traced benchmark run fails."""

import importlib
import importlib.util
import os

import pytest

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = [(module, qualname) for _, module, qualname, *_ in layers.targets()]
    assert set(layers.TRACED) <= set(names)
    return names


@pytest.mark.parametrize("module,qualname", _targets())
def test_traced_name_resolves(module, qualname):
    obj = importlib.import_module(f"onebit_isac.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
