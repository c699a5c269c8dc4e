"""Checks of the benchmark itself: ``python3 perfbench/run.py --self-test``.

1. A deliberately wrong reference makes ops fail, so ``error_rate`` rises
   above 0: on symbolic, numeric, compile and audit ops.  The right
   reference passes the same ops.
2. The same seed gives the same inputs and identical count metrics; another
   seed gives other inputs.
3. A run prints exactly the metrics, with the units, that BENCHMARK.json
   lists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random

import run
from reference import load_expected, load_specs
from workloads import WORKLOADS, Op, draw_op, level_is


def require(condition, what):
    """A check that holds under ``python -O`` too."""
    if not condition:
        raise SystemExit(f"self-test FAILED: {what}")


def error_rate(results):
    return len(run.failures(results)) / len(results)


def off_by_one(op, field):
    wrong = dataclasses.replace(op.expected, **{field: getattr(op.expected, field) + 1})
    return dataclasses.replace(op, expected=wrong)


def check_wrong_reference(specs, expected):
    lockstep = WORKLOADS["lockstep"](specs, expected)
    _, _, api, state = run.set_up(lockstep, 1)
    ops = lockstep.cycle(random.Random(1))[:6]
    require(error_rate(run.run_ops(lockstep, ops, state, api)) == 0, "lockstep ops pass")
    wrong = [off_by_one(op, "steps") for op in ops]
    require(error_rate(run.run_ops(lockstep, wrong, state, api)) == 1,
            "wrong step counts fail")

    numeric = WORKLOADS["numeric-long"](specs, expected)
    state = numeric.setup(api)
    op = draw_op(random.Random(1), "numeric", specs["bit-flipper"], 100, 8, level_is(1))
    require(error_rate(run.run_ops(numeric, [op], state, api)) == 0, "numeric op passes")
    require(error_rate(run.run_ops(numeric, [off_by_one(op, "final_head")], state, api)) == 1,
            "a wrong final head fails")

    ops = [Op("table", "rev-move"), Op("audit", K=2, tag="K2"),
           Op("mutated", K=2, tag="K2")]
    audit = WORKLOADS["table-audit"](specs, expected)
    state = audit.setup(api)
    require(error_rate(run.run_ops(audit, ops, state, api)) == 0, "audit ops pass")
    wrong = json.loads(json.dumps(expected))
    wrong["tables"]["rev-move"]["sha256"] = "0" * 64
    wrong["audit"]["2"]["pairs"] += 1
    wrong["mutated"]["2"]["min_slack"] = "4/6561"
    audit = WORKLOADS["table-audit"](specs, wrong)
    require(error_rate(run.run_ops(audit, ops, state, api)) == 1,
            "wrong pinned hash, pair count and slack fail")
    print("self-test: a wrong reference fails every op it touches")


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def counts(metrics):
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


def check_determinism(specs, expected):
    for name, cls in WORKLOADS.items():
        workload = cls(specs, expected)
        draw = lambda seed: [workload.cycle(random.Random(seed)) for _ in range(2)]
        require(draw(7) == draw(7), f"{name}: same seed, same inputs")
        require(draw(7) != draw(8), f"{name}: other seed, other inputs")
    for name, seconds in (("lockstep", 1), ("numeric-long", 3)):
        workload = WORKLOADS[name](specs, expected)
        first = quiet(run.per_layer, workload, 7, seconds)
        second = quiet(run.per_layer, workload, 7, seconds)
        require(first[1] == second[1] == 0, f"{name}: traced runs pass")
        require(counts(first[3]) == counts(second[3]), f"{name}: identical counts")
    print("self-test: same seed, same inputs and identical count metrics")


def check_metric_names(specs, expected):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS["lockstep"](specs, expected)
    for key, measure in (("end_to_end", run.end_to_end), ("per_layer", run.per_layer)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        printed = {n: unit for n, (_, unit) in quiet(measure, workload, 1, 0.5)[3].items()}
        require(printed == listed, f"{key} differs: {set(printed.items()) ^ set(listed.items())}")
    print("self-test: printed metrics match BENCHMARK.json")


def main():
    specs, expected = load_specs(), load_expected()
    check_wrong_reference(specs, expected)
    check_determinism(specs, expected)
    check_metric_names(specs, expected)
    print("self-test: passed")
    return 0
