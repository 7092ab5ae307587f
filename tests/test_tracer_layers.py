"""Every qaw name that the benchmark wraps or calls still exists and binds."""

import ast
import importlib
import inspect
import os
import types

import pytest

import qaw

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


def qaw_use_problems(source: str, module) -> list[str]:
    """What of `qaw` the source uses that `module` lacks or refuses.

    Every `qaw.<name>` the source reads must resolve on `module`, and
    every call `qaw.<f>(...)` must bind to f's signature with its number
    of positional arguments and its keyword names.
    """
    problems = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if not (_is_qaw_attr(func) and hasattr(module, func.attr)):
                continue
            args = [None] * len(node.args)
            kwargs = {k.arg: None for k in node.keywords}
            try:
                inspect.signature(getattr(module, func.attr)).bind(*args, **kwargs)
            except TypeError as exc:
                problems.append("line %d: qaw.%s: %s" % (node.lineno, func.attr, exc))
        elif _is_qaw_attr(node) and not hasattr(module, node.attr):
            problems.append("line %d: qaw.%s does not resolve" % (node.lineno, node.attr))
    return sorted(problems)


def _is_qaw_attr(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "qaw"
    )


def test_worker_calls_resolve_and_bind():
    # the benchmark's worker reaches qaw only as `qaw.<name>`; a deleted
    # name or a changed signature would otherwise show only in a smoke run
    with open(os.path.join(PERFBENCH, "worker.py"), encoding="utf-8") as fh:
        source = fh.read()
    assert "qaw.numeric_crosscheck(" in source
    assert qaw_use_problems(source, qaw) == []


def test_worker_config_reads_resolve():
    # `extract_witness` reads `cfg.<name>` off `qaw.NumericConfig()`; rel_tol
    # is a class constant there, not a field that a caller can set
    with open(os.path.join(PERFBENCH, "worker.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (func,) = [
        f for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == "extract_witness"
    ]
    reads = {
        node.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cfg"
    }
    assert reads == {"q_samples", "x_samples", "rel_tol"}
    cfg = qaw.NumericConfig()
    assert all(hasattr(cfg, attr) for attr in reads)
    with pytest.raises(TypeError):
        qaw.NumericConfig(rel_tol=1e-9)


def test_the_worker_scan_sees_a_broken_use():
    fake = types.SimpleNamespace(f=lambda a, b=1: None)
    src = "qaw.f(1)\nqaw.f(1, b=2)\nqaw.f(1, 2, 3)\nqaw.f(1, c=2)\nqaw.g()\nqaw.h\n"
    lines = [p.split(":")[0] for p in qaw_use_problems(src, fake)]
    assert lines == ["line 3", "line 4", "line 5", "line 6"]
