"""Every qaw name that the traced benchmark wraps still exists."""

import importlib
import os

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def test_traced_names_resolve(monkeypatch):
    # `Tracer.install` looks module functions up with getattr and methods
    # in their class's own __dict__; a missing name breaks `--trace 1`
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import LAYERS

    for name, (modname, attrs) in LAYERS.items():
        module = importlib.import_module(modname)
        for attr in attrs:
            if "." in attr:
                clsname, meth = attr.split(".")
                assert meth in vars(getattr(module, clsname)), (name, attr)
            else:
                assert callable(getattr(module, attr, None)), (name, attr)
