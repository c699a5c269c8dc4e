"""Trajectory engines and the machine-equivalence verifier.

Two coupled modes:

* run_symbolic evolves the encoded value through the corridors' exact
  transfer maps.  It is the source of truth: every event (reflection
  sequence, checkpoint crossing, halt bounce) is derived from exact
  ternary-rational arithmetic.

* run_numeric re-traces the same trajectory by exact specular ray
  tracing over the placed walls and must reproduce the symbolic event
  stream, each checkpoint at exactly its symbolic value (see
  ``carom.numeric``).

This module holds the symbolic engine and the tracing errors:
``run_numeric``, ``GadgetTracer`` and ``NumericResult`` are read from
``carom.numeric`` on first access, so symbolic work does not pay for
loading the tracer.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .encoding import decode, encode_state
from .machine import ComputationState, run_machine, step
from .table import OutOfRange
from .ternary import TernaryRational

_NUMERIC = ("run_numeric", "GadgetTracer", "NumericResult")


def __getattr__(name):
    if name in _NUMERIC:
        from . import numeric
        value = globals()[name] = getattr(numeric, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class TraceEvent(NamedTuple):
    """One event of a run, a record: built at about a quarter of a frozen
    dataclass's cost, which counts where a closed orbit's trace makes a
    later event from the event a period before it."""

    kind: str                      # reflection | checkpoint | halt-bounce | out-of-range
    step: int                      # machine steps completed when it happened
    wall_id: Optional[str] = None
    state: Optional[str] = None
    value: Optional[TernaryRational] = None
    position: Optional[tuple] = None
    head: Optional[int] = None     # head position (out-of-range: the offender)


class Periodic(Sequence):
    """A read-only sequence of ``length`` items: ``head``, then ``cycle``
    over and over, its q-th repetition (q >= 1) made on access by
    ``repeat(item, q)``, or the item itself when ``repeat`` is None.  A
    closed orbit's trace, points and deviations, held in the memory of one
    period whatever the budget.  It equals, and reads as, the list of its
    items; a slice is a list."""

    __slots__ = ("head", "cycle", "length", "repeat")

    def __init__(self, head, cycle, length, repeat=None):
        self.head, self.cycle, self.length, self.repeat = head, cycle, length, repeat

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.length))]
        if i < 0:
            i += self.length
        if not 0 <= i < self.length:
            raise IndexError("periodic sequence index out of range")
        if i < len(self.head):
            return self.head[i]
        q, r = divmod(i - len(self.head), len(self.cycle))
        return self.cycle[r] if not q or self.repeat is None else self.repeat(self.cycle[r], q)

    def __iter__(self):
        yield from self.head[:self.length]
        left, q = self.length - len(self.head), 0
        while left > 0:
            copy = q and self.repeat     # each copy made as it is read
            for item in self.cycle[:left]:
                yield copy(item, q) if copy else item
            left, q = left - len(self.cycle), q + 1

    def __eq__(self, other):
        if not isinstance(other, (list, Periodic)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return repr(list(self))


@dataclass
class RunOutcome:
    verdict: str                   # halted | budget-exhausted | out-of-range
    steps: int
    trace: list                    # of TraceEvents; a Periodic once the launch recurs
    final_tape: Optional[frozenset] = None
    final_head: Optional[int] = None
    periodic: bool = False
    out_of_range_k: Optional[int] = None
    period_steps: Optional[int] = None   # steps until the launch recurs, if it did

    @property
    def crossings(self):
        return [e for e in self.trace if e.kind == "checkpoint"]


class TracingError(Exception):
    pass


class TracingDegeneracy(TracingError):
    """Two walls hit at the same point, a hit on a wall's end, or a grazing
    hit: a geometry bug."""


class TraceMismatch(TracingError):
    """The numeric trace does not replay the symbolic run (a wrong wall or
    event, a checkpoint off its value, an escape or an irrational hit)."""


def run_symbolic(table, tape, budget):
    """Exact billiard run from the initial checkpoint.

    Repeatedly selects the corridor whose split branch contains the
    current value and applies the composed transfer.  A value failing to
    decode at a checkpoint is a compiler bug and raises; exceeding the
    head range yields the out-of-range verdict.

    A run is determined by its (state, value), so once the launch pair
    recurs, at step P = ``period_steps``, every later step repeats the
    step P before it: the trace is then the first P steps' events as a
    Periodic, each later event made on access from the one P steps
    before it, sharing its value and position, not recomputed.  As
    compile certifies every corridor's transfer injective, the first pair
    to recur can only be the launch pair, so comparing with it alone finds
    every cycle.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    tape = frozenset(tape)
    value = launch = encode_state(tape, 0).value
    state = table.machine.initial
    trace = []
    steps = 0
    while True:
        if steps and state == table.machine.initial and value == launch:
            return _cycled(trace, steps, budget)
        trace.append(TraceEvent(
            "checkpoint", steps, state=state, value=value,
            position=table.checkpoint_point(state, value)))
        if table.machine.is_halting(state):
            t, k = decode(value)
            trace.append(TraceEvent(
                "halt-bounce", steps, state=state, value=value,
                wall_id=table.stations[state].checkpoint.wall.wall_id,
                position=table.checkpoint_point(state, value)))
            return RunOutcome("halted", steps, trace, final_tape=t,
                              final_head=k, periodic=True)
        if steps == budget:
            return RunOutcome("budget-exhausted", steps, trace)
        t, k = decode(value)  # loud failure on a non-code: compiler bug
        read = 1 if k in t else 0
        corridor = table.corridors[(state, read)]
        try:
            value, pieces = corridor.apply(value)
        except OutOfRange as oor:
            trace.append(TraceEvent("out-of-range", steps, value=value,
                                    head=oor.k))
            return RunOutcome("out-of-range", steps, trace,
                              out_of_range_k=oor.k)
        for piece in pieces:
            for wid in piece.wall_ids:
                trace.append(TraceEvent("reflection", steps, wall_id=wid))
        state = corridor.edge.target
        steps += 1


def _cycled(trace, period, budget):
    """The outcome of a run whose ``trace`` holds its first ``period``
    steps and that is back at its launch: each further event is the one
    ``period`` steps before it, up to the checkpoint of step ``budget``,
    with the same kind, wall id, state, value and position."""
    starts = [i for i, ev in enumerate(trace) if ev.kind == "checkpoint"]

    def later(ev, q):
        return TraceEvent(ev.kind, ev.step + q * period, ev.wall_id, ev.state,
                          ev.value, ev.position)

    length = budget // period * len(trace) + starts[budget % period] + 1
    return RunOutcome("budget-exhausted", budget, Periodic((), trace, length, later),
                      period_steps=period)


def replay_reverse(table, outcome):
    """Run a halted trajectory backwards through inverted transfer maps.

    Starts from the halt value and applies each corridor's exact inverse
    along the reversed crossing sequence; returns the recovered launch
    value, which reversibility forces to equal the original encoding.
    """
    crossings = outcome.crossings
    if outcome.verdict != "halted" or not crossings:
        raise ValueError("reverse replay needs a halted outcome")
    value = crossings[-1].value
    for ev in reversed(crossings[:-1]):
        t, k = decode(ev.value)
        read = 1 if k in t else 0
        corridor = table.corridors[(ev.state, read)]
        value = corridor.apply_inverse(value)
        if value != ev.value:
            raise AssertionError(
                f"reverse replay diverged at step {ev.step}: {value} != {ev.value}")
    return value


# ---------------------------------------------------------------------------
# equivalence verification
# ---------------------------------------------------------------------------

@dataclass
class Divergence:
    tape: frozenset
    step: int
    detail: str


@dataclass
class EquivalenceReport:
    passed: bool
    tapes_checked: int
    verdicts: dict                 # verdict string -> count
    first_divergence: Optional[Divergence] = None


def _diverges(machine, table, tape, budget, outcome):
    """The first Divergence of ``outcome`` from the machine's run, or None:
    each crossing against the machine's configuration at its step, then
    the verdict against ``run_machine``.  A closed orbit is checked up to
    the crossing of step P = ``period_steps`` alone, the launch pair: as
    the encoding is injective, the machine is then back at its launch
    configuration, and it never halts, as the verdict says."""
    conf = ComputationState(frozenset(tape), machine.initial, 0)
    period = outcome.period_steps
    crossings = list(itertools.islice((ev for ev in outcome.trace if ev.kind == "checkpoint"),
                                      None if period is None else period + 1))
    for i, ev in enumerate(crossings):
        if ev.state != conf.state:
            return Divergence(tape, i, f"state {ev.state} != {conf.state}")
        want = encode_state(conf.tape, conf.head).value
        if ev.value != want:
            return Divergence(tape, i, f"value {ev.value} != {want}")
        if ev.position != table.checkpoint_point(conf.state, want):
            return Divergence(tape, i, "checkpoint chart point mismatch")
        if i < len(crossings) - 1:
            conf = step(machine, conf)
    if period is not None:
        return None
    oracle = run_machine(machine, tape, budget)
    if outcome.verdict == "halted":
        if not (oracle.halted and oracle.final.tape == outcome.final_tape
                and oracle.final.head == outcome.final_head
                and oracle.steps == outcome.steps):
            return Divergence(tape, outcome.steps, "halted verdict mismatch")
    elif outcome.verdict == "budget-exhausted":
        if oracle.halted:
            return Divergence(tape, outcome.steps,
                              "billiard exhausted budget but machine halted")
    else:  # out-of-range
        beyond = step(machine, conf).head if not machine.is_halting(conf.state) else None
        if beyond is None or abs(beyond) <= table.K:
            return Divergence(tape, outcome.steps,
                              "billiard out-of-range but machine head in range")
    return None


def verify_equivalence(machine, table, tapes, budget):
    """Lockstep comparison of the machine against the billiard.

    Every checkpoint crossing must equal the chart image of the machine
    configuration at that step, and final verdicts must agree (halting
    with identical output, budget exhaustion, or a head move beyond the
    compiled range).  Divergence is reported, never raised.
    """
    tapes = [frozenset(t) for t in tapes]
    verdicts = {}
    first = None
    for tape in tapes:
        outcome = run_symbolic(table, tape, budget)
        div = _diverges(machine, table, tape, budget, outcome)
        verdicts[outcome.verdict] = verdicts.get(outcome.verdict, 0) + 1
        if div is not None and first is None:
            first = div
    return EquivalenceReport(passed=first is None, tapes_checked=len(tapes),
                             verdicts=verdicts, first_divergence=first)


def write_trace(outcome, stream):
    """Line-per-event text log with a machine-readable verdict block.  A
    closed orbit's log holds its first period's events, then one line,
    ``repeat: period_steps=P until_step=B``: from there on those events
    repeat, each copy P steps after the one before, up to the checkpoint
    of step B, so the log is one period long whatever the budget."""
    trace = outcome.trace
    if outcome.period_steps is not None:
        trace = trace[:len(trace.head) + len(trace.cycle)]
    for ev in trace:
        fields = [str(ev.step), ev.kind]
        if ev.wall_id:
            fields.append(ev.wall_id)
        if ev.state:
            fields.append(f"state={ev.state}")
        if ev.value is not None:
            fields.append(f"value={ev.value}")
        if ev.head is not None:
            fields.append(f"head={ev.head}")
        if ev.position is not None:
            fields.append(f"pos={float(ev.position[0]):.12g},{float(ev.position[1]):.12g}")
        stream.write(" ".join(fields) + "\n")
    if outcome.period_steps is not None:
        stream.write(f"repeat: period_steps={outcome.period_steps} until_step={outcome.steps}\n")
    stream.write(f"verdict: {outcome.verdict}\n")
    stream.write(f"steps: {outcome.steps}\n")
    if outcome.verdict == "halted":
        from .machine import format_tape
        stream.write(f"tape: {format_tape(outcome.final_tape)}\n")
        stream.write(f"head: {outcome.final_head}\n")
        stream.write(f"periodic: true\n")
    if outcome.out_of_range_k is not None:
        stream.write(f"out_of_range_k: {outcome.out_of_range_k}\n")
