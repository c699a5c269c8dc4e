"""Pinned digests of numeric traces.

Rewrites of the ray tracer must keep every traced event, point and
deviation bit for bit.  The digests below were computed before walls were
queried by position (when every run built all walls of the levels it
reached), so they pin the traces of that full scan.
"""

import hashlib

import mpmath

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

NUMERIC_SHA256 = "f7d19f5aca639ef130f11c79a98947b7a345bf5771a7f00176bedb258c2b9e3d"
GADGET_SHA256 = "275594dc8c829fed2948a8c62ab1ced88040332841fcce7c5ef3fbc7a1f3f509"


def numeric_digest():
    """run_numeric at K=4, budget 30, 40 and 60 digits, on NUMERIC_TAPES:
    the event stream and the reprs of points, deviations and max deviation."""
    h = hashlib.sha256()
    tables = {}
    for name, literal in NUMERIC_TAPES:
        if name not in tables:
            tables[name] = compile_table(get_machine(name), 4)
        for precision in (40, 60):
            res = run_numeric(tables[name], parse_tape(literal), 30,
                              precision=precision)
            for part in (res.outcome.verdict, res.outcome.steps, res.outcome.trace,
                         res.points, res.deviations, res.max_deviation):
                h.update(repr(part).encode())
    return h.hexdigest()


def gadget_digest():
    """GadgetTracer's out coordinate (60 digits) and hit ids for every tape
    with support in [-2, 2] at every head level in [-3, 3]: split and merge
    at levels -3..3, shift stage +1 and the quarter turn."""
    levels = range(-3, 4)
    split = build_split_gadget(3)
    merge = build_merge_gadget(build_split_gadget(3, name="m"), name="merge")
    tracers = {
        "split": GadgetTracer(split, 60),
        "merge": GadgetTracer(merge, 60),
        "stage": GadgetTracer(build_shift_stage(+1, K=3), 60),
        "turn": GadgetTracer(build_turn_gadget(+90), 60),
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
                h.update(mpmath.nstr(u_out, 60).encode())
                h.update(repr(hits).encode())
    return h.hexdigest()


def test_numeric_traces_unchanged():
    assert numeric_digest() == NUMERIC_SHA256


def test_gadget_traces_unchanged():
    assert gadget_digest() == GADGET_SHA256


if __name__ == "__main__":
    print("numeric", numeric_digest())
    print("gadget", gadget_digest())
