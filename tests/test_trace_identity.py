"""Pinned digests of numeric traces.

Rewrites of the ray tracer must keep every traced event, point and gadget
hit bit for bit.  The digests hash what any correct tracer of these scenes
reports alike: the verdict, the step count, the event stream and the
traced points in floats; for gadgets, the hit ids and the out coordinate
in floats.  They were computed with the working-precision (60 digit)
tracer that the exact one replaced, and the exact tracer reproduces them.
A third digest hashes what the position filter decides on the numeric
runs, the walls built and the most walls one leg weighed.  It is pinned to
the tracer that walks one ray index per scene and stops at the nearest
hit; against the one before it, which weighed every static wall near the
ray and the mirrors up to the nearest static hit, no run's count rose:
the most walls one leg weighed fell from 5-17 to 2 on every run, and the
walls built fell on the walker, looper and pacer runs.
"""

import hashlib

from carom.encoding import encode_state, read_digit
from carom.gadgets import (
    build_merge_gadget,
    build_shift_stage,
    build_split_gadget,
    build_turn_gadget,
)
from carom.machine import enumerate_tapes, parse_tape
from carom.simulate import GadgetTracer, run_numeric
from carom.table import compile_table
from carom.zoo import get_machine

NUMERIC_TAPES = (
    ("rev-move", "{2:1}"), ("rev-move", "@0001"), ("rev-move", "@"),
    ("bit-flipper", "@01"), ("bit-flipper", "@011"),
    ("counter", "@11"), ("counter", "@1110"),
    ("walker", "@111"), ("walker", "@11"),
    ("looper", "@"),
    ("pacer", "@1"), ("pacer", "@"),
)

NUMERIC_SHA256 = "d76ec9f40e12dd70b3a27a04ba4820a9f75398c2ab98aaf2cd8806f265ee375b"
GADGET_SHA256 = "36f5822f0d744aecdc3af3a4d53c6afc4bebb06c7002a429455e9124d22f1f35"
COUNTER_SHA256 = "89f7902286b49d4c66c00b5af0a528ae5f8a8c6824d8431e479b689d2c34a918"


def numeric_runs():
    """run_numeric at K=4, budget 30, on NUMERIC_TAPES."""
    tables = {}
    for name, literal in NUMERIC_TAPES:
        if name not in tables:
            tables[name] = compile_table(get_machine(name), 4)
        yield run_numeric(tables[name], parse_tape(literal), 30)


def numeric_digest():
    """The verdict, steps, event stream and float points of numeric_runs."""
    h = hashlib.sha256()
    for res in numeric_runs():
        for part in (res.outcome.verdict, res.outcome.steps, res.outcome.trace,
                     res.points):
            h.update(repr(part).encode())
    return h.hexdigest()


def counter_digest():
    """walls_built and max_candidates of numeric_runs."""
    h = hashlib.sha256()
    for res in numeric_runs():
        h.update(repr((res.walls_built, res.max_candidates)).encode())
    return h.hexdigest()


def gadget_digest():
    """GadgetTracer's out coordinate (in floats) and hit ids for every tape
    with support in [-2, 2] at every head level in [-3, 3]: split and merge
    at levels -3..3, shift stage +1 and the quarter turn."""
    levels = range(-3, 4)
    split = build_split_gadget(3)
    merge = build_merge_gadget(build_split_gadget(3, name="m"), name="merge")
    tracers = {
        "split": GadgetTracer(split),
        "merge": GadgetTracer(merge),
        "stage": GadgetTracer(build_shift_stage(+1, K=3)),
        "turn": GadgetTracer(build_turn_gadget(+90)),
    }
    h = hashlib.sha256()
    for tape in enumerate_tapes(range(-2, 3)):
        for k in levels:
            p = encode_state(tape, k)
            branch = read_digit(p)
            w, _ = split.transfer.apply(p.value)
            runs = (tracers["split"].trace(p.value, out_port=f"b{branch}"),
                    tracers["merge"].trace(w, in_port=f"b{branch}"),
                    tracers["stage"].trace(p.value),
                    tracers["turn"].trace(p.value))
            for u_out, hits in runs:
                h.update(repr(float(u_out)).encode())
                h.update(repr(hits).encode())
    return h.hexdigest()


def test_numeric_traces_unchanged():
    assert numeric_digest() == NUMERIC_SHA256


def test_gadget_traces_unchanged():
    assert gadget_digest() == GADGET_SHA256


def test_float_shortlist_unchanged():
    assert counter_digest() == COUNTER_SHA256


def test_numeric_deviations_are_zero():
    # the trace is exact: every checkpoint reads its symbolic value
    for res in numeric_runs():
        assert res.max_deviation == 0.0
        assert res.deviations == [0.0] * (res.outcome.steps + 1)


if __name__ == "__main__":
    print("numeric", numeric_digest())
    print("gadget", gadget_digest())
    print("counter", counter_digest())
