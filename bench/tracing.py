"""Spans around the calls into each layer of `rncgeo`.

Wrappers go on every binding of a target function in every `rncgeo`
module, because consumers import names directly (`from .linalg import
nullspace`); patching only the defining module would miss those calls.
They are installed only for the traced pass and removed afterwards, so the
untraced runs execute the library untouched.

A span is (name, start, end, parent index, op id, outermost).  A layer's
self time is its span time minus the time of its direct child spans; its
`time_s` counts only spans not nested inside a span of the same name, so
recursion through a layer is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

from checks import bits

# metric group -> (module, attribute path) of every function it times
GROUPS = {
    "linalg.nullspace": [("linalg", "nullspace")],
    "linalg.linsolve": [("linalg", "linsolve")],
    "linalg.canonical_rowspace": [("linalg", "canonical_rowspace")],
    "linalg.ff_rank": [("linalg", "ff_rank")],
    "linalg.matrix_det_inverse": [
        ("linalg", "Matrix.det"),
        ("linalg", "Matrix.inverse"),
        ("linalg", "int_det"),
    ],
    "curves.curve_equals": [("curves", "curve_equals")],
    "curves.det_to_param": [("curves", "det_to_param")],
    "curves.param_to_det": [("curves", "param_to_det")],
    "curves.verify_datum": [("curves", "verify_datum")],
    "curves.secancy": [("curves", "secancy")],
    "curves.param_of_point": [("curves", "param_of_point")],
    "binforms.binary_gcd": [("binforms", "binary_gcd")],
    "binforms.is_squarefree": [("binforms", "is_squarefree")],
    "quadrics.space_rows": [
        ("quadrics", "containment_rows"),
        ("quadrics", "double_space_rows"),
    ],
    "quadrics.point_rows": [
        ("quadrics", "point_value_row"),
        ("quadrics", "point_derivative_rows"),
    ],
    "construct.through_points": [("construct", "construct_through_points")],
    "construct.np2_one_space": [("construct", "construct_np2_one_space")],
    "construct.three_points": [("construct", "construct_three_points")],
    "construct.two_points": [("construct", "construct_two_points")],
    "construct.one_point": [("construct", "construct_one_point")],
    "construct.certificate_make": [("construct", "ExistenceCertificate.make")],
    "obstruct.obstruction_quadric": [("obstruct", "obstruction_quadric")],
    "obstruct.nonexistence_certificate": [("obstruct", "nonexistence_certificate")],
    "equivalence.signature": [("equivalence", "signature")],
    "serialize.parse": [],  # filled from the module: public *_in and from_doc
    "serialize.emit": [],  # filled from the module: public *_out and to_doc
    "cli.main": [("cli", "main")],
    "postulation.hilbert_function": [("postulation", "hilbert_function")],
    "postulation.conditions_rows": [("postulation", "conditions_rows")],
}

LINALG_GROUPS = {name for name in GROUPS if name.startswith("linalg.")}

# per-layer metrics that are counters rather than timed groups
COUNTERS = {
    "linalg.cells": "count",
    "linalg.coeff_bits_max": "bits",
    "quadrics.space_rows.cache_hit_ratio": "1",
    "postulation.rank_cells": "count",
    "serialize.bytes_out": "B",
    "work.input_bits_max": "bits",
    "trace.overhead_ratio": "1",
}


def per_layer_metric_names() -> dict:
    """Every per-layer metric the traced run emits, with its unit."""
    out = {}
    for group in GROUPS:
        out[f"{group}.calls"] = "count"
        out[f"{group}.time_s"] = "s"
        out[f"{group}.self_s"] = "s"
    out.update(COUNTERS)
    return out


def _serialize_targets(module) -> tuple[list, list]:
    parse, emit = [], []
    for attr, value in vars(module).items():
        if attr.startswith("_") or not callable(value):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if attr.endswith("_in") or attr == "from_doc":
            parse.append(("serialize", attr))
        elif attr.endswith("_out") or attr == "to_doc":
            emit.append(("serialize", attr))
    return parse, emit


def _matrix_size(arg):
    """(cells, largest coefficient bits) of a matrix argument, without
    consuming iterators."""
    rows = getattr(arg, "entries", arg)
    if not isinstance(rows, (list, tuple)) or not rows:
        return 0, 0
    if not isinstance(rows[0], (list, tuple)):
        return 0, 0
    top = 0
    for row in rows:
        for x in row:
            if x:
                b = bits(x)
                if b > top:
                    top = b
    return len(rows) * len(rows[0]), top


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = {}
        self.op_id = -1
        self.cells = 0
        self.coeff_bits_max = 0
        self.rank_cells = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        outer = not self.active.get(name)
        self.active[name] = self.active.get(name, 0) + 1
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.active[name] -= 1
            self.spans[idx] = (name, start, end, parent, self.op_id, outer)

    def _wrap(self, name, fn):
        tracer = self
        if name in LINALG_GROUPS:

            def wrapper(*args, **kwargs):
                cells, top = _matrix_size(args[0]) if args else (0, 0)
                tracer.cells += cells
                tracer.coeff_bits_max = max(tracer.coeff_bits_max, top)
                return tracer.span(name, fn, *args, **kwargs)

        elif name == "postulation.conditions_rows":

            def wrapper(*args, **kwargs):
                rows = tracer.span(name, fn, *args, **kwargs)
                if rows:
                    tracer.rank_cells += len(rows) * len(rows[0])
                return rows

        else:

            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target function on every binding that refers to it."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "rncgeo" or name.startswith("rncgeo.")
        ]
        groups = dict(GROUPS)
        groups["serialize.parse"], groups["serialize.emit"] = _serialize_targets(
            importlib.import_module("rncgeo.serialize")
        )
        by_id = {}
        for group, targets in groups.items():
            for mod_name, path in targets:
                owner = importlib.import_module(f"rncgeo.{mod_name}")
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                if owner is None or attr not in vars(owner):
                    continue  # a later version may delete the function
                raw = vars(owner)[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(group, raw.__func__))
                    self._patch(owner, attr, raw, wrapped)
                elif cls_path:
                    self._patch(owner, attr, raw, self._wrap(group, raw))
                else:
                    by_id[id(raw)] = (raw, self._wrap(group, raw))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, time_s (outermost spans) and self_s for every group."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {g: [0, 0.0, 0.0] for g in GROUPS}
        for i, (name, start, end, _, _, outer) in enumerate(self.spans):
            entry = stats.get(name)
            if entry is None:
                continue  # the benchmark's own op spans
            entry[0] += 1
            if outer:
                entry[1] += end - start
            entry[2] += end - start - child_time[i]
        out = {}
        for group, (calls, total, self_time) in stats.items():
            out[f"{group}.calls"] = calls
            out[f"{group}.time_s"] = total
            out[f"{group}.self_s"] = self_time
        out["linalg.cells"] = self.cells
        out["linalg.coeff_bits_max"] = self.coeff_bits_max
        out["postulation.rank_cells"] = self.rank_cells
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "outermost"],
                    "spans": self.spans,
                },
                fh,
            )
