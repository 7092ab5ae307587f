"""In-memory span recorder, installed around qaw's public calls from outside.

A span is (name, start, end, parent).  Spans live in flat arrays while the
workload runs and are written out only after the clock stops.  Self time is
a span's duration minus the time its direct children cover; the calls are
single-threaded, so children nest strictly inside their parent.

Wrappers are installed at the names callers look up: a module function is
replaced in every loaded `qaw` module that binds it (so `structure`'s
`from .zsym import x_to_z` is caught too), and a method is replaced on its
class, under every alias that class gives it (`__radd__ = __add__`).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# metric prefix -> (defining module, attribute paths) of the wrapped calls.
# __rsub__ and __rtruediv__ delegate to __sub__ and __truediv__, so only
# the latter are wrapped and every operator is counted once.
LAYERS = {
    "structure.bandwidth_scan": ("qaw.structure", ("bandwidth_scan",)),
    "structure.structure_relation": ("qaw.structure", ("structure_relation",)),
    "families.coeff_suite": ("qaw.families", ("coeff_suite",)),
    "families.poly": ("qaw.families", ("OPSFamily.poly",)),
    "families.zpoly": ("qaw.families", ("OPSFamily.zpoly",)),
    "families.aw_hyp_poly": ("qaw.families", ("aw_hyp_poly",)),
    "awcore.dq": ("qaw.awcore", ("OperatorContext.dq",)),
    "awcore.sq": ("qaw.awcore", ("OperatorContext.sq",)),
    "awcore.dq_sym": ("qaw.awcore", ("OperatorContext.dq_sym",)),
    "zsym.divide_exact": ("qaw.zsym", ("ZLaurent.divide_exact",)),
    "zsym.x_to_z": ("qaw.zsym", ("x_to_z",)),
    "zsym.z_to_x": ("qaw.zsym", ("z_to_x",)),
    "scalar.arith": (
        "qaw.scalar",
        ("Scalar.__add__", "Scalar.__sub__", "Scalar.__mul__"),
    ),
    "scalar.div": ("qaw.scalar", ("Scalar.__truediv__",)),
    "scalar.instantiate_n": ("qaw.scalar", ("Scalar.instantiate_n",)),
    "scalar.evaluate": ("qaw.scalar", ("Scalar.evaluate",)),
    "numeric.eval_poly": ("qaw.numeric", ("eval_poly",)),
    "numeric.lattice": ("qaw.numeric", ("lattice_dq", "lattice_sq")),
    "inductor.certificates": (
        "qaw.inductor",
        ("certify_sq_step", "certify_dq_step", "certify_base_case"),
    ),
    "inductor.instantiation_coherence": (
        "qaw.inductor",
        ("instantiation_coherence",),
    ),
    "textio.format_record": ("qaw.textio", ("format_record",)),
}

# spans that worker.py opens itself, around the sweep generator's next()
GENERATOR_SPANS = (
    "structure.sq_records",
    "structure.dq_records",
    "structure.top_index",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        for name in list(LAYERS) + list(GENERATOR_SPANS):
            self.name_id(name)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self) -> int:
        """Start an unnamed span; name it when it is closed."""
        idx = len(self.starts)
        self.name_ids.append(-1)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self.name_ids[idx] = self.name_id(name)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every call in LAYERS; qaw must already be imported."""
        for name, (modname, attrs) in LAYERS.items():
            module = sys.modules[modname]
            for attr in attrs:
                if "." in attr:
                    clsname, meth = attr.split(".")
                    cls = getattr(module, clsname)
                    orig = cls.__dict__[meth]
                    wrapped = self.wrap(name, orig)
                    for key, val in list(cls.__dict__.items()):
                        if val is orig:
                            setattr(cls, key, wrapped)
                else:
                    orig = getattr(module, attr)
                    wrapped = self.wrap(name, orig)
                    for mod in list(sys.modules.values()):
                        if not getattr(mod, "__name__", "").startswith("qaw"):
                            continue
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, key, wrapped)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """{name: {"self_s", "calls"}} for every known span name."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = {name: {"self_s": 0.0, "calls": 0} for name in self.names}
        for i in range(n):
            t = totals[self.names[self.name_ids[i]]]
            t["self_s"] += ends[i] - starts[i] - child[i]
            t["calls"] += 1
        return totals

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            names, nids = self.names, self.name_ids
            for i in range(len(self.starts)):
                fh.write(
                    "%d\t%s\t%.9f\t%.9f\t%d\n"
                    % (i, names[nids[i]], self.starts[i], self.ends[i], self.parents[i])
                )
