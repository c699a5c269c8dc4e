"""The four workloads: seeded inputs, one op at a time, checked outputs.

Each workload hands carom only generated inputs (machine files, tapes,
budgets, K) and checks every output against ``reference``.  Ops come in
cycles: one cycle is a fixed list of op classes in a seeded order, each
class with its own seeded input, so every run measures the same mix of
costs whatever the seed.  Runs end on a cycle boundary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from reference import HERE, MACHINE_DIR, interpret

OUT_DIR = HERE / "out"
PRECISION = 60
TOLERANCE = 10.0 ** (-PRECISION / 2)


@dataclass(frozen=True)
class Op:
    kind: str
    machine: str = ""
    tape: tuple = ()        # cells holding 1, sorted
    budget: int = 0
    K: int = 8
    tag: str = "op"         # sweep bucket: head level k1..k4, audit K2..K4
    expected: object = None


def draw_tape(rng, lo, hi):
    return tuple(c for c in range(lo, hi + 1) if rng.random() < 0.5)


def draw_op(rng, kind, spec, budget, K, accept):
    """First seeded tape with support in [-4, 4] whose reference run
    ``accept``s; the reference decides, never the code under test."""
    for _ in range(10_000):
        tape = draw_tape(rng, -4, 4)
        exp = interpret(spec, tape, budget, K)
        if accept(exp):
            return Op(kind, spec.name, tape, budget, K, f"k{exp.level}", exp)
    raise RuntimeError(f"no tape for {spec.name} found")


def outcome_errors(op, outcome):
    """Compare a carom RunOutcome with the reference expectation."""
    exp = op.expected
    got = (outcome.verdict, outcome.steps)
    want = (exp.verdict, exp.steps)
    errors = [] if got == want else [f"verdict/steps {got} != {want}"]
    if exp.verdict == "halted" and (outcome.final_tape != exp.final_tape
                                    or outcome.final_head != exp.final_head):
        errors.append(f"final tape/head {sorted(outcome.final_tape)}/"
                      f"{outcome.final_head} != {sorted(exp.final_tape)}/"
                      f"{exp.final_head}")
    if exp.verdict == "out-of-range" and outcome.out_of_range_k != exp.beyond:
        errors.append(f"out-of-range head {outcome.out_of_range_k} != {exp.beyond}")
    return errors


def outcome_summary(outcome):
    tape = tuple(sorted(outcome.final_tape)) if outcome.final_tape is not None else None
    return (outcome.verdict, outcome.steps, tape, outcome.final_head,
            outcome.out_of_range_k)


class Workload:
    """Base: ``setup`` builds the state ops share, ``cycle`` draws one
    cycle of ops, ``run`` is the timed call, ``check`` (untimed) returns
    (summary, errors, exact values seen) for one output."""

    name = ""
    #: wall seconds one cycle took at the seed commit, checks included;
    #: sizes the traced run
    cycle_seconds = 1.0

    def __init__(self, specs, expected):
        self.specs = specs
        self.expected = expected

    def parsed(self, api, names):
        return {m: api.machine.parse_machine(self.specs[m].text, name=m)
                for m in names}


class Lockstep(Workload):
    name = "lockstep"
    cycle_seconds = 0.5
    K8_PER_CYCLE = 4

    def setup(self, api):
        machines = self.parsed(api, self.specs)
        tables = {(m, 8): api.table.compile_table(machines[m], 8) for m in machines}
        for m in ("looper", "rev-move"):
            tables[(m, 60)] = api.table.compile_table(machines[m], 60)
        return {"machines": machines, "tables": tables}

    def cycle(self, rng):
        ops = []
        for name, spec in self.specs.items():
            for _ in range(self.K8_PER_CYCLE):
                ops.append(draw_op(rng, "lockstep", spec, rng.randint(8, 24), 8,
                                   lambda exp: True))
        looper, rev = self.specs["looper"], self.specs["rev-move"]
        ops.append(draw_op(rng, "lockstep", looper, rng.randint(61, 70), 60,
                           lambda exp: exp.verdict == "out-of-range"))
        j = rng.randint(30, 59)
        tape = draw_tape(rng, -4, -1) + (j,) + draw_tape(rng, j + 1, j + 4)
        ops.append(Op("lockstep", "rev-move", tape, 70, 60, "op",
                      interpret(rev, tape, 70, 60)))
        rng.shuffle(ops)
        return ops

    def run(self, op, state, api):
        return api.simulate.verify_equivalence(
            state["machines"][op.machine], state["tables"][(op.machine, op.K)],
            [frozenset(op.tape)], op.budget)

    def check(self, op, report, state, api):
        errors = []
        if not report.passed or report.tapes_checked != 1:
            errors.append(f"lockstep divergence: {report.first_divergence}")
        if report.verdicts != {op.expected.verdict: 1}:
            errors.append(f"verdicts {report.verdicts} != {op.expected.verdict}")
        # the report carries no steps or final tape: replay them untimed
        outcome = api.simulate.run_symbolic(
            state["tables"][(op.machine, op.K)], frozenset(op.tape), op.budget)
        errors += outcome_errors(op, outcome)
        values = [ev.value for ev in outcome.crossings]
        return (report.verdicts, report.passed) + outcome_summary(outcome), errors, values


class Numeric(Workload):
    """Shared check for the two ray-tracing workloads."""

    def check(self, op, result, state, api):
        errors = outcome_errors(op, result.outcome)
        if not result.max_deviation <= TOLERANCE:
            errors.append(f"max deviation {result.max_deviation} > {TOLERANCE}")
        if len(result.deviations) != op.expected.steps + 1:
            errors.append(f"{len(result.deviations)} checkpoint crossings for "
                          f"{op.expected.steps} steps")
        values = [ev.value for ev in result.outcome.crossings]
        summary = outcome_summary(result.outcome) + (
            len(result.points) - 1, repr(result.max_deviation))
        return summary, errors, values


def level_is(level):
    return lambda exp: exp.verdict == "halted" and exp.level == level


class NumericDeep(Numeric):
    name = "numeric-deep"
    cycle_seconds = 6.5
    #: (machine, head level) classes of one cycle; odd count, so the median
    #: op falls inside a class (the level-3 group), not between two
    CLASSES = (("rev-move", 1), ("bit-flipper", 1), ("rev-move", 2),
               ("walker", 2), ("rev-move", 3), ("bit-flipper", 3),
               ("counter", 3), ("rev-move", 4), ("counter", 4))

    def setup(self, api):
        return {"machines": self.parsed(api, sorted({m for m, _ in self.CLASSES}))}

    def cycle(self, rng):
        ops = [draw_op(rng, "numeric", self.specs[m], 100, 8, level_is(k))
               for m, k in self.CLASSES]
        rng.shuffle(ops)
        return ops

    def run(self, op, state, api):
        table = api.table.compile_table(state["machines"][op.machine], op.K)
        return api.simulate.run_numeric(table, frozenset(op.tape), op.budget,
                                        precision=PRECISION)


class NumericLong(Numeric):
    name = "numeric-long"
    cycle_seconds = 4.5
    MACHINES = ("pacer", "walker", "bit-flipper")

    def setup(self, api):
        machines = self.parsed(api, self.MACHINES)
        return {"tables": {m: api.table.compile_table(machines[m], 8)
                           for m in machines}}

    def cycle(self, rng):
        """Three short ops, three pacer runs of 50 steps and one of 100: the
        median op is a 50-step pacer run, whatever tapes the seed draws."""
        pacer, walker, flip = (self.specs[m] for m in self.MACHINES)
        ops = [draw_op(rng, "numeric", pacer, budget, 8, lambda exp: True)
               for budget in (50, 50, 50, 100)]
        ops.append(draw_op(rng, "numeric", walker, 100, 8, level_is(2)))
        ops += [draw_op(rng, "numeric", flip, 100, 8, level_is(k)) for k in (1, 2)]
        rng.shuffle(ops)
        return ops

    def run(self, op, state, api):
        return api.simulate.run_numeric(state["tables"][op.machine],
                                        frozenset(op.tape), op.budget,
                                        precision=PRECISION)


def _shift_k0_read0_left(k, symbol, index, lo, hi):
    """The mutation of the acceptance test: slide the k=0 read-0 blocks
    left by 1/3, into the k=-1 family."""
    if k == 0 and symbol == 0:
        return lo - Fraction(1, 3), hi - Fraction(1, 3)
    return lo, hi


class TableAudit(Workload):
    name = "table-audit"
    cycle_seconds = 12.5
    AUDIT_K = (2, 3, 4)
    MUTATED_K = (2, 3)

    def setup(self, api):
        OUT_DIR.mkdir(exist_ok=True)
        return {}

    def cycle(self, rng):
        """One ``table`` op per machine, the audits and the mutated audits:
        11 ops, so the median op falls inside the cluster of the three
        two-state tables and the K=3 audits."""
        ops = [Op("table", m) for m in self.specs]
        ops += [Op("audit", K=K, tag=f"K{K}") for K in self.AUDIT_K]
        ops += [Op("mutated", K=K, tag=f"K{K}") for K in self.MUTATED_K]
        rng.shuffle(ops)
        return ops

    def run(self, op, state, api):
        if op.kind == "table":
            # carom compile, then load_table's deterministic recompile and
            # byte-for-byte comparison, then the exact layout check
            path = OUT_DIR / f"{op.machine}.json"
            code, _ = _cli(api, ["compile", str(MACHINE_DIR / f"{op.machine}.tm"),
                                 "-o", str(path), "--K", "8"])
            data = path.read_bytes()
            table = api.table.load_table(data.decode())
            return code, data, table, table.verify_layout()
        if op.kind == "audit":
            return _cli(api, ["audit", "--K", str(op.K), "--json"])
        return api.gadgets.check_separation(op.K, perturb=_shift_k0_read0_left)

    def check(self, op, out, state, api):
        pinned = self.expected
        if op.kind == "table":
            code, data, table, pairs = out
            want = pinned["tables"][op.machine]
            spec = self.specs[op.machine]
            got = (code, hashlib.sha256(data).hexdigest(), len(data), table.K,
                   tuple(table.machine.states), table.machine.initial, pairs)
            expect = (0, want["sha256"], want["bytes"], 8, spec.states, spec.initial,
                      want["layout_pairs"])
            errors = [] if got == expect else [f"{op.machine}: table {got} != {expect}"]
            return got, errors, _piece_values(api, data)
        if op.kind == "audit":
            code, text = out
            doc = json.loads(text)
            want = pinned["audit"][str(op.K)]
            got = (code, doc["passed"], doc["pairs"], doc["min_slack"])
            expect = (0, True, want["pairs"], want["min_slack"])
            return got, ([] if got == expect else [f"audit {got} != {expect}"]), []
        slacks = [r.min_slack for r in out if r.min_slack is not None]
        got = (all(r.passed for r in out), str(min(slacks)))
        expect = (False, pinned["mutated"][str(op.K)]["min_slack"])
        return got, ([] if got == expect else [f"mutated audit {got} != {expect}"]), []


def _cli(api, argv):
    """Run ``carom <argv>`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue()


def _piece_values(api, data):
    """The exact transfer-piece endpoints a compiled table file stores."""
    doc = json.loads(data)
    return [api.ternary.TernaryRational.parse(p[key]) for c in doc["corridors"]
            for p in c["pieces"] for key in ("lo", "hi")]


WORKLOADS = {cls.name: cls for cls in (Lockstep, NumericDeep, NumericLong, TableAudit)}


def headroom_digits(max_deviation):
    """Digits to spare: log10(tolerance / deviation), the deviation floored
    at one unit of the working precision."""
    return math.log10(TOLERANCE / max(max_deviation, 10.0 ** -PRECISION))
