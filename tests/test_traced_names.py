"""Every function the benchmark's tracer instruments (``TRACED`` in
perfbench/layers.py, plus its counter-only targets) must still exist where
the tracer looks for it: a module function by name, a method in its class's
own ``__dict__``. A library deletion, or a method left to be inherited, would
otherwise only show when a traced benchmark run fails."""

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
    defining = importlib.import_module(f"onebit_isac.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:  # the tracer patches the class's own attribute
        owner = getattr(defining, owner_name)
        assert attr in vars(owner), f"{qualname} is not defined on {owner_name} itself"
        obj = vars(owner)[attr]
    else:
        obj = getattr(defining, attr)
    assert callable(obj)
