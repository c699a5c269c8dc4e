"""Spans around carom's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function or method by a wrapper
that records one span per call: layer name, start, end, parent span and
the benchmark op that caused it.  Every binding of a function is patched,
including the copies that ``from .x import f`` leaves in other carom
modules, so calls between modules are seen too.  Spans stay in memory and
are written out once, at the end of the run.  A layer's self time is its
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import defaultdict


def _pairs(reports):
    return sum(r.pair_count for r in reports)


def _bounces(result):
    return len(result.points) - 1


#: (module, attribute, layer, counter name, counter) for every traced
#: function.  The counter maps the function's result to a work count; only
#: the outermost span of a layer counts, so nested calls are not counted
#: twice (a merge gadget's walls are its split's walls, mirrored).
TARGETS = (
    ("encoding", "head_of", "encoding.head_of", None, None),
    ("encoding", "decode", "encoding.decode", None, None),
    ("encoding", "block_of", "encoding.block_of", None, None),
    ("encoding", "cantor_blocks_at", "encoding.cantor_blocks_at", None, None),
    ("machine", "run_machine", "machine.run_machine", None, None),
    ("machine", "step", "machine.step", None, None),
    ("machine", "check_reversible", "machine.check_reversible", None, None),
    ("gadgets", "PiecewiseTransfer.apply", "gadgets.transfer_apply", None, None),
    ("gadgets", "Gadget.walls", "gadgets.walls", "walls", len),
    ("gadgets", "check_separation", "gadgets.check_separation", "pairs", _pairs),
    ("geometry", "walls_clash", "geometry.walls_clash", None, None),
    ("table", "compile_table", "table.compile_table", None, None),
    ("table", "load_table", "table.load_table", None, None),
    ("table", "Corridor.apply", "table.corridor_apply", None, None),
    ("table", "BilliardTable.scene_walls", "table.scene_walls", "walls", len),
    ("table", "BilliardTable.verify_layout", "table.verify_layout", "pairs", int),
    ("table", "BilliardTable.to_json", "table.to_json", "bytes",
     lambda text: len(text.encode())),
    ("simulate", "run_symbolic", "simulate.run_symbolic", "steps",
     lambda outcome: outcome.steps),
    ("simulate", "run_numeric", "simulate.run_numeric", "bounces", _bounces),
    ("simulate", "verify_equivalence", "simulate.verify_equivalence", None, None),
    ("cli", "main", "cli.main", None, None),
)


class Tracer:
    """Span recorder plus per-(layer, tag) call counts, self times and work
    counts.  ``op`` and ``tag`` name the benchmark op now running; the tag
    selects the sweep bucket (head level ``k3``, audit ``K4``, ...)."""

    def __init__(self):
        self.layers = []
        self.span_layer = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.active = True     # off while the benchmark checks outputs
        self.op = -1
        self.tag = "setup"
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.work = defaultdict(int)
        self._open = []        # (span index, layer id) of spans not yet ended
        self._child_ns = []    # time covered by children, per open span
        self._patches = []

    # -- patching -------------------------------------------------------

    def install(self, package="carom"):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")}
        for mod_name, attr, layer, counter_name, counter in TARGETS:
            owner = modules[f"{package}.{mod_name}"]
            cls_name, _, func_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[func_name]
                self._patch(cls, func_name, original,
                            self._wrap(original, layer, counter_name, counter))
                continue
            original = getattr(owner, func_name)
            wrapper = self._wrap(original, layer, counter_name, counter)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def uninstall(self):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def _patch(self, obj, name, original, wrapper):
        self._patches.append((obj, name, original))
        setattr(obj, name, wrapper)

    def _wrap(self, fn, layer, counter_name, counter):
        layer_id = len(self.layers)
        self.layers.append(layer)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.span_start)
            outermost = all(lid != layer_id for _, lid in self._open)
            parent = self._open[-1][0] if self._open else -1
            self._open.append((index, layer_id))
            self._child_ns.append(0)
            self.span_layer.append(layer_id)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_end.append(0)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.span_end[index] = end
                self._open.pop()
                covered = self._child_ns.pop()
                if self._child_ns:
                    self._child_ns[-1] += end - start
                key = (layer, self.tag)
                self.calls[key] += 1
                self.self_ns[key] += end - start - covered
            if counter is not None and outermost:
                self.work[(f"{layer}.{counter_name}", self.tag)] += counter(result)
            return result

        return traced

    # -- results --------------------------------------------------------

    def total(self, table, name, tags=None):
        return sum(v for (n, t), v in table.items()
                   if n == name and (tags is None or t in tags))

    @property
    def span_count(self):
        return len(self.span_start)

    def write(self, stem):
        """Write the spans as ``<stem>.bin`` (five arrays, one after the
        other, in the order and byte order the header names) plus the JSON
        header ``<stem>.json``."""
        fields = (("layer", self.span_layer), ("start_ns", self.span_start),
                  ("end_ns", self.span_end), ("parent", self.span_parent),
                  ("op", self.span_op))
        with open(f"{stem}.bin", "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        header = {"spans": self.span_count, "layers": self.layers,
                  "fields": [[name, arr.typecode, arr.itemsize]
                             for name, arr in fields],
                  "byteorder": sys.byteorder}
        with open(f"{stem}.json", "w") as fh:
            json.dump(header, fh, indent=1)
