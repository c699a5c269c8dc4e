"""perfbench's span targets name real carom functions.

``perfbench/tracing.py`` patches each ``TARGETS`` entry by name when a
benchmark runs with ``--trace 1``; an entry a refactor left behind would
break that run.  The file is loaded read-only, by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
