"""Reversible binary Turing machines: parsing, validation, execution.

This module is the discrete ground truth that every billiard construction
is verified against.  Machines use a two-sided sparse tape over {0,1} and
a head that moves, so a configuration is (tape, state, head).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

LEFT = -1
RIGHT = +1


class MachineError(Exception):
    """Base class for machine-spec problems."""


class MachineSyntaxError(MachineError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MachineSemanticsError(MachineError):
    pass


class Transition(NamedTuple):
    state: str
    read: int
    target: str
    write: int
    shift: int  # LEFT or RIGHT


@dataclass(frozen=True)
class Machine:
    """A binary Turing machine (states, initial, halting, delta).

    delta maps (non-halting state, symbol) to (target, written symbol,
    shift).  Invariants are enforced by ``validate``: delta is total on
    (states \\ halting) x {0,1} and no transition leaves a halting state.
    """

    states: tuple
    initial: str
    halting: frozenset
    delta: dict  # (state, symbol) -> (target, write, shift)
    name: str = "machine"

    def validate(self):
        if self.initial not in self.states:
            raise MachineSemanticsError(f"initial state {self.initial!r} not declared")
        if not self.halting:
            raise MachineSemanticsError("at least one halting state required")
        if not self.halting < set(self.states):
            raise MachineSemanticsError("halting states must be a proper subset of states")
        for (q, a), (q2, s, e) in self.delta.items():
            if q in self.halting:
                raise MachineSemanticsError(f"transition from halting state {q!r}")
            for st in (q, q2):
                if st not in self.states:
                    raise MachineSemanticsError(f"unknown state {st!r} in transition")
            if a not in (0, 1) or s not in (0, 1) or e not in (LEFT, RIGHT):
                raise MachineSemanticsError(f"malformed transition {(q, a)} -> {(q2, s, e)}")
        for q in self.states:
            if q in self.halting:
                continue
            for a in (0, 1):
                if (q, a) not in self.delta:
                    raise MachineSemanticsError(f"delta not total: missing ({q!r}, {a})")
        return self

    def transitions(self):
        for (q, a), (q2, s, e) in sorted(self.delta.items()):
            yield Transition(q, a, q2, s, e)

    def is_halting(self, q):
        return q in self.halting

    def canonical_text(self):
        """Round-trippable machine-spec text (used for hashing table files)."""
        lines = [
            "states: " + " ".join(self.states),
            "initial: " + self.initial,
            "halting: " + " ".join(q for q in self.states if q in self.halting),
        ]
        for t in self.transitions():
            arrow = "L" if t.shift == LEFT else "R"
            lines.append(f"{t.state} {t.read} -> {t.target} {t.write} {arrow}")
        return "\n".join(lines) + "\n"


class ComputationState(NamedTuple):
    tape: frozenset  # cell indices holding symbol 1
    state: str
    head: int


def parse_machine(text, name="machine"):
    """Parse the line-oriented machine-spec format.

    Format::

        states: <id> <id> ...
        initial: <id>
        halting: <id> ...
        <id> <0|1> -> <id> <0|1> <L|R>     # one line per transition

    '#' starts a comment; blank lines are ignored.  Raises
    MachineSyntaxError with a line number, or MachineSemanticsError for
    structural problems (duplicate transition, transition from a halting
    state, missing transitions, unknown ids).
    """
    headers = {}
    delta = {}
    order = ["states", "initial", "halting"]
    seen = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if seen < 3:
            key = order[seen]
            if not line.startswith(key + ":"):
                raise MachineSyntaxError(line_no, f"expected '{key}:' header")
            headers[key] = line[len(key) + 1:].split()
            seen += 1
            continue
        tokens = line.split()
        if len(tokens) != 6 or tokens[2] != "->":
            raise MachineSyntaxError(line_no, "expected '<id> <0|1> -> <id> <0|1> <L|R>'")
        q, a, _, q2, s, d = tokens
        if a not in ("0", "1") or s not in ("0", "1"):
            raise MachineSyntaxError(line_no, f"symbols must be 0 or 1, got {a!r}/{s!r}")
        if d not in ("L", "R"):
            raise MachineSyntaxError(line_no, f"shift must be L or R, got {d!r}")
        if (q, int(a)) in delta:
            raise MachineSemanticsError(f"line {line_no}: duplicate transition for ({q}, {a})")
        delta[(q, int(a))] = (q2, int(s), LEFT if d == "L" else RIGHT)
    if seen < 3:
        raise MachineSyntaxError(len(text.splitlines()) or 1, "missing header lines")
    states = tuple(headers["states"])
    if len(set(states)) != len(states):
        raise MachineSemanticsError("duplicate state ids")
    if len(headers["initial"]) != 1:
        raise MachineSemanticsError("exactly one initial state required")
    machine = Machine(
        states=states,
        initial=headers["initial"][0],
        halting=frozenset(headers["halting"]),
        delta=delta,
        name=name,
    )
    return machine.validate()


def parse_tape(literal):
    """Parse a tape literal.

    Two forms: ``{<index>:<0|1>, ...}`` or a symbol string with '@' marking
    cell 0, e.g. ``11@001`` puts 1s at cells -2,-1 and a 1 at cell 2.
    Returns the frozenset of cells holding 1.
    """
    literal = literal.strip()
    ones = set()
    if literal.startswith("{"):
        if not literal.endswith("}"):
            raise ValueError("unterminated tape literal")
        body = literal[1:-1].strip()
        if body:
            for part in body.split(","):
                idx, _, sym = part.partition(":")
                if sym.strip() not in ("0", "1"):
                    raise ValueError(f"bad symbol in tape literal: {part!r}")
                if sym.strip() == "1":
                    ones.add(int(idx))
        return frozenset(ones)
    if "@" not in literal:
        raise ValueError("tape literal needs '{{...}}' or '@' form")
    left, _, right = literal.partition("@")
    for offset, ch in enumerate(reversed(left), start=1):
        if ch == "1":
            ones.add(-offset)
        elif ch != "0":
            raise ValueError(f"bad symbol {ch!r} in tape literal")
    for offset, ch in enumerate(right):
        if ch == "1":
            ones.add(offset)
        elif ch != "0":
            raise ValueError(f"bad symbol {ch!r} in tape literal")
    return frozenset(ones)


def format_tape(tape):
    """Inverse of parse_tape, '{...}' form with sorted cells."""
    return "{" + ", ".join(f"{i}:1" for i in sorted(tape)) + "}"


def step(machine, conf):
    """One application of the global transition map.

    Stepping a halting configuration is a caller bug, not a runtime value.
    """
    tape, q, k = conf
    if machine.is_halting(q):
        raise MachineError(f"step from halting state {q!r}")
    read = 1 if k in tape else 0
    q2, s, e = machine.delta[(q, read)]
    if s == read:
        new_tape = tape
    elif s == 1:
        new_tape = tape | {k}
    else:
        new_tape = tape - {k}
    return ComputationState(new_tape, q2, k + e)


class RunResult(NamedTuple):
    halted: bool
    final: ComputationState
    steps: int


def run_machine(machine, tape, max_steps):
    """Iterate ``step`` from (tape, initial, 0).

    Stops at the first halting state or when the budget runs out;
    ``halted`` distinguishes the two.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    conf = ComputationState(frozenset(tape), machine.initial, 0)
    for i in range(max_steps):
        if machine.is_halting(conf.state):
            return RunResult(True, conf, i)
        conf = step(machine, conf)
    if machine.is_halting(conf.state):
        return RunResult(True, conf, max_steps)
    return RunResult(False, conf, max_steps)


class ReversibilityWitness(NamedTuple):
    """Two transitions whose images can coincide on some configuration."""

    first: Transition
    second: Transition
    reason: str


def check_reversible(machine):
    """Decide injectivity of the global transition map.

    A successor (t', q', k') determines its predecessor by the choice of
    an incoming transition (q, a) -> (q', s, e): the predecessor head is
    k' - e and requires t'[k' - e] == s.  Two incoming transitions with
    equal shifts collide exactly when they also write the same symbol
    (same cell, same constraint); with different shifts they constrain
    different cells, so a tape satisfying both always exists and yields
    two distinct predecessors.  Hence the machine is reversible iff, for
    every target state, all incoming transitions share one shift and have
    pairwise distinct written symbols.

    Returns None when reversible, else a ReversibilityWitness.  The
    criterion is validated against brute-force injectivity checks in the
    test suite.
    """
    incoming = {}
    for t in machine.transitions():
        incoming.setdefault(t.target, []).append(t)
    for target, ts in sorted(incoming.items()):
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                a, b = ts[i], ts[j]
                if a.shift != b.shift:
                    return ReversibilityWitness(
                        a, b,
                        f"transitions into {target!r} with opposite shifts both "
                        f"admit predecessors for tapes matching both written cells")
                if a.write == b.write:
                    return ReversibilityWitness(
                        a, b,
                        f"transitions into {target!r} share written symbol "
                        f"{a.write} and shift; successor cannot distinguish them")
    return None


@dataclass(frozen=True)
class MachineGraph:
    """Finite-state-machine view: one labelled edge per (state, read symbol)."""

    vertices: tuple
    edges: tuple  # of Transition

    def in_degree(self, q):
        return sum(1 for e in self.edges if e.target == q)

    def in_edges(self, q):
        return tuple(e for e in self.edges if e.target == q)


def build_graph(machine):
    return MachineGraph(vertices=tuple(machine.states),
                        edges=tuple(machine.transitions()))


def enumerate_tapes(cells):
    """All sparse tapes with support inside the given cell list."""
    cells = list(cells)
    for mask in range(1 << len(cells)):
        yield frozenset(c for i, c in enumerate(cells) if mask >> i & 1)


def brute_force_reversible(machine, bound=2):
    """Exhaustive injectivity check of the step map on configurations with
    tape support and head inside [-bound, bound].

    Independent oracle for check_reversible; returns a colliding
    configuration pair or None.
    """
    cells = range(-bound, bound + 1)
    seen = {}
    for q in machine.states:
        if machine.is_halting(q):
            continue
        for k in range(-bound, bound + 1):
            for tape in enumerate_tapes(cells):
                conf = ComputationState(tape, q, k)
                image = step(machine, conf)
                if image in seen and seen[image] != conf:
                    return seen[image], conf
                seen[image] = conf
    return None
