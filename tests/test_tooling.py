"""perfbench still runs against carom.

``perfbench/tracing.py`` patches each ``TARGETS`` entry by name when a
benchmark runs with ``--trace 1``; an entry a refactor left behind would
break that run.  ``perfbench/workloads.py`` calls carom and checks its
outputs against ``perfbench/reference.py``; an output it no longer accepts
would count every op as incorrect.  The files are loaded read-only, by
path.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for mod_name, attr, layer, _, _ in targets:
        owner = importlib.import_module(f"carom.{mod_name}")
        cls_name, _, func_name = attr.rpartition(".")
        if cls_name:
            # a method is patched on its class, so it must be defined there
            assert func_name in vars(getattr(owner, cls_name)), layer
        else:
            assert callable(getattr(owner, func_name)), layer


def test_perfbench_checks_accept_one_op(monkeypatch):
    # one seeded op of each workload that runs a carom simulator, and every
    # op of one lockstep cycle and of one numeric-long cycle (pacer's
    # 100-step run among them), through the workload's own run and check.
    # The numeric-long cycle runs twice on one state, as perfbench reuses
    # its tables: what one run leaves on a table must not fail the next
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("reference", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    api = SimpleNamespace(**{m: importlib.import_module(f"carom.{m}")
                             for m in ("machine", "table", "simulate")})
    specs, expected = reference.load_specs(), reference.load_expected()
    for name in ("lockstep", "numeric-deep", "numeric-long"):
        workload = workloads.WORKLOADS[name](specs, expected)
        state = workload.setup(api)
        ops = workload.cycle(random.Random(18))
        if name == "numeric-deep":
            ops = ops[:1]
        if name == "numeric-long":
            ops = ops * 2
        for op in ops:
            _, errors, _ = workload.check(op, workload.run(op, state, api), state, api)
            assert errors == [], (name, op)
