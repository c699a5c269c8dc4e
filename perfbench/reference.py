"""Independent reference for the benchmark's correctness checks.

Nothing here imports carom.  A short Turing-machine interpreter reads the
benchmark's own machine files and gives, for every tape, the verdict, step
count, final tape and head that a compiled table must replay.  The pinned
expectations for the table-audit workload live in ``expected.json``, which
was written by hand from the seed commit and is never regenerated by the
code under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
MACHINE_DIR = HERE / "machines"
EXPECTED_FILE = HERE / "expected.json"

#: The six fixture machines, in the order the workloads use them.
MACHINES = ("rev-move", "bit-flipper", "counter", "walker", "looper", "pacer")


@dataclass(frozen=True)
class Spec:
    """A binary Turing machine as the reference reads it."""

    name: str
    text: str
    states: tuple
    initial: str
    halting: frozenset
    delta: dict  # (state, symbol) -> (target, write, move)


def parse_spec(name, text):
    """Read the ``states/initial/halting`` header and one rule per line."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    header = {}
    for key, line in zip(("states", "initial", "halting"), lines[:3]):
        if not line.startswith(key + ":"):
            raise ValueError(f"{name}: expected '{key}:' header, got {line!r}")
        header[key] = line[len(key) + 1:].split()
    delta = {}
    for line in lines[3:]:
        q, a, arrow, q2, s, d = line.split()
        if arrow != "->" or d not in ("L", "R"):
            raise ValueError(f"{name}: bad rule {line!r}")
        delta[(q, int(a))] = (q2, int(s), -1 if d == "L" else 1)
    return Spec(name, text, tuple(header["states"]), header["initial"][0],
                frozenset(header["halting"]), delta)


def load_specs():
    return {name: parse_spec(name, (MACHINE_DIR / f"{name}.tm").read_text())
            for name in MACHINES}


@dataclass(frozen=True)
class Expected:
    """What one run of a machine on a tape must produce."""

    verdict: str               # halted | budget-exhausted | out-of-range
    steps: int
    final_tape: frozenset = None
    final_head: int = None
    beyond: int = None         # head the next move would reach (out-of-range)
    level: int = 0             # deepest |head| over the configurations visited


def interpret(spec, tape, budget, K):
    """Run ``spec`` from (tape, initial state, head 0).

    Mirrors the table's contract: a halting state ends the run (checked
    before the budget), the budget stops it, and a move whose source or
    target head lies beyond ``K`` ends it as out-of-range.
    """
    ones = set(tape)
    state, head, steps, level = spec.initial, 0, 0, 0
    while True:
        if state in spec.halting:
            return Expected("halted", steps, frozenset(ones), head, level=level)
        if steps == budget:
            return Expected("budget-exhausted", steps, level=level)
        read = 1 if head in ones else 0
        target, write, move = spec.delta[(state, read)]
        if abs(head) > K or abs(head + move) > K:
            return Expected("out-of-range", steps, beyond=head + move, level=level)
        if write:
            ones.add(head)
        else:
            ones.discard(head)
        state, head, steps = target, head + move, steps + 1
        level = max(level, abs(head))


def load_expected(path=EXPECTED_FILE):
    with open(path) as fh:
        return json.load(fh)
