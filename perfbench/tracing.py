"""Outside-in tracing: spans around the public functions of each layer.

The program is not edited.  Each traced function is replaced by a wrapper
at every public module attribute it is bound to, because flexmech modules import
functions by name (``analyze`` is looked up through ``flexmech.cli``,
``flexmech.analysis`` and ``flexmech.mechanism``).  SpatialMatrix6
constructions are counted by wrapping ``SpatialMatrix6.__post_init__``.

Spans live in flat in-memory columns (op id, parent span, name, start, end)
and are written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> (module, public functions).  Helpers called only inside their own
# module (rot_z, s_matrix, the quadrature loop) are not wrapped: their time
# is self time of the wrapped caller in the same layer.
TRACED = {
    "kernels": ("flexmech.kernels", ("notch_kernels", "rect_torsion_constant")),
    "elements": ("flexmech.elements", ("hinge_compliance", "beam_compliance",
                                       "torsion_compliance_hinge")),
    "spatial": ("flexmech.spatial", ("invert", "amplification_displacement",
                                     "amplification_force", "transform_compliance",
                                     "transform_stiffness")),
    "mechanism": ("flexmech.mechanism", ("analyze", "mechanism_stiffness", "limb_compliance",
                                         "element_compliance", "center_of_compliance",
                                         "ideal_fourbar_center", "rotational_precision",
                                         "deviation_report")),
    "analysis": ("flexmech.analysis", ("run_sweep", "apply_parameters", "fit_creep")),
    "mechfile": ("flexmech.mechfile", ("parse_mechanism",)),
    "report": ("flexmech.report", ("build_report", "human_report", "machine_report",
                                   "sweep_table", "creep_report")),
    "cli": ("flexmech.cli", ("main",)),
}
MATRIX6_SPAN = "spatial.SpatialMatrix6"
ROOT_SPAN = "cli.main"


class Tracer:
    """Span recorder; install() patches the program, uninstall() restores it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.op = array("l")
        self.parent = array("l")
        self.name = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._patches = []      # (owner, attribute, original)

    def begin_op(self, op_id):
        self._op_id = op_id

    def _wrap(self, span_name, fn):
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        stack, op, parent, name, t0, t1 = (self._stack, self.op, self.parent,
                                           self.name, self.t0, self.t1)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(t0)
            op.append(tracer._op_id)
            parent.append(stack[-1])
            name.append(name_id)
            t1.append(0.0)
            stack.append(idx)
            t0.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        # private modules are skipped: _notchpure calls its own
        # rect_torsion_constant inside the quadrature loop, and that call is
        # kernel self time, not a layer boundary
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "flexmech" or n.startswith("flexmech."))
                   and not n.rpartition(".")[2].startswith("_")]
        for layer, (module_name, functions) in TRACED.items():
            module = sys.modules[module_name]
            for fname in functions:
                original = getattr(module, fname, None)
                if not callable(original):
                    continue        # renamed or deleted by a later version
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        matrix6 = getattr(sys.modules["flexmech.spatial"], "SpatialMatrix6", None)
        post_init = getattr(matrix6, "__post_init__", None)
        if post_init is not None:
            self._patches.append((matrix6, "__post_init__", post_init))
            matrix6.__post_init__ = self._wrap(MATRIX6_SPAN, post_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def columns(self):
        """Span columns as numpy arrays, plus each span's self time."""
        op, parent, name = (np.array(a, dtype=np.int64) for a in (self.op, self.parent, self.name))
        t0, t1 = np.array(self.t0), np.array(self.t1)
        dur = t1 - t0
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {"op": op, "parent": parent, "name": name, "t0": t0, "t1": t1,
                "self": dur - child_time}

    def write(self, path):
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names), **cols)
