"""Cycling runs closed by exact return.

Pacer keeps its tape and returns to its launch configuration every two
machine steps.  ``run_symbolic`` notices the launch (state, value) recur
and returns the first period's events as a periodic sequence of the
budget's length; ``run_numeric`` traces one period, compares the first
hit after the return crossing with the launch leg's first hit exactly,
and counts the rest of the run out from the recorded period.  The oracles here are the
runs done the long way: the symbolic run one ``Corridor.apply`` per step,
and the numeric one every leg through ``_trace``.
"""

import dataclasses
import itertools
import json
import random
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from carom import numeric, simulate
from carom.cli import main
from carom.encoding import decode, encode_state
from carom.geometry import integers
from carom.machine import enumerate_tapes, parse_machine, parse_tape, step
from carom.numeric import TraceScene, _trace, _Walls
from carom.simulate import (
    NumericResult,
    TraceEvent,
    TraceMismatch,
    run_numeric,
    run_symbolic,
    verify_equivalence,
)
from carom.table import compile_table
from carom.zoo import MACHINE_TEXTS, get_machine

PERIOD = 2            # pacer's steps per period, on every tape
BOUNCES = 20          # its hits per period at K=8
TAPES = ("@1", "@", "@11", "1@01")
# below, at, just past and far past the period
BUDGETS = (0, 1, PERIOD, PERIOD + 1, 100)


# pacer's value recurs every two steps, but its configuration only every
# four: in state C, then A
PACER4 = """\
states: A B C D H
initial: A
halting: H
A 0 -> B 0 R
A 1 -> B 1 R
B 0 -> C 0 L
B 1 -> C 1 L
C 0 -> D 0 R
C 1 -> D 1 R
D 0 -> A 0 L
D 1 -> A 1 L
"""


@pytest.fixture(scope="module")
def table():
    return compile_table(get_machine("pacer"), 8)


@pytest.fixture(scope="module")
def pacer4():
    return compile_table(parse_machine(PACER4, name="pacer4"), 4)


def _stepwise(table, tape, budget):
    """run_symbolic's events, one Corridor.apply per step (pacer never
    halts and keeps its head in range)."""
    state, value, events = table.machine.initial, encode_state(tape, 0).value, []
    for step in range(budget + 1):
        events.append(TraceEvent("checkpoint", step, state=state, value=value,
                                 position=table.checkpoint_point(state, value)))
        if step == budget:
            return events
        t, k = decode(value)
        corridor = table.corridors[(state, 1 if k in t else 0)]
        value, pieces = corridor.apply(value)
        events += [TraceEvent("reflection", step, wall_id=wid)
                   for piece in pieces for wid in piece.wall_ids]
        state = corridor.edge.target


def _traced(table, outcome):
    """What run_numeric must report, from every leg through _trace: the
    crossing values, hit ids and points up to the hit that ends the run,
    each checkpoint's distance from its symbolic value, and the walls'
    counters once that hit is traced."""
    walls = _Walls(TraceScene(table.static_walls, table.mirror_families,
                              table.marked_segments()))
    pos = outcome.trace[0].position
    values = [ev.value.as_fraction() for ev in outcome.crossings]
    reflections = sum(ev.kind == "reflection" for ev in outcome.trace)
    crossings, ids, points = [], [], [pos]
    w, x, y = integers(*pos)
    # a run of no steps ends on its launch, before any leg
    for kind, obj, point, u, _ in _trace(walls, (x, y, w), (0, 1)) if outcome.steps else ():
        if kind == "cross":
            crossings.append(Fraction(*u))
        elif len(ids) == reflections:
            break
        else:
            ids.append(obj.wall_id)
            points.append((Fraction(point[0], point[2]), Fraction(point[1], point[2])))
    return {"crossings": crossings, "ids": ids,
            "points": [(float(x), float(y)) for x, y in points],
            "deviations": [0.0] + [float(abs(u - v)) for u, v in zip(crossings, values[1:])],
            "walls_built": len({w.wall_id for w in table.static_walls}) + len(walls.mirror_ids),
            "max_candidates": walls.max_candidates,
            "denominator_bits": walls.denominator_bits}


def _reported(outcome, res):
    return {"crossings": [ev.value.as_fraction() for ev in outcome.crossings[1:]],
            "ids": [ev.wall_id for ev in outcome.trace if ev.kind == "reflection"],
            "points": res.points, "deviations": res.deviations,
            "walls_built": res.walls_built, "max_candidates": res.max_candidates,
            "denominator_bits": res.denominator_bits}


@pytest.mark.parametrize("budget", BUDGETS + (1000,))
@pytest.mark.parametrize("literal", TAPES)
def test_symbolic_return_equals_stepwise_run(table, literal, budget):
    out = run_symbolic(table, parse_tape(literal), budget)
    assert (out.verdict, out.steps, out.periodic) == ("budget-exhausted", budget, False)
    assert out.trace == _stepwise(table, parse_tape(literal), budget)
    assert out.period_steps == (PERIOD if budget >= PERIOD else None)
    # later periods share the first period's values and positions
    crossings = out.crossings
    assert all(ev.value is crossings[ev.step % PERIOD].value
               and ev.position is crossings[ev.step % PERIOD].position for ev in crossings)


def _budgets(period):
    """Every residue mod the period, from no step to just past two
    periods, and the budgets of numeric-long's runs."""
    return tuple(range(2 * period + 2)) + (49, 50, 99, 100)


def _reads_as_the_stepwise_list(table, literal, budget):
    out = run_symbolic(table, parse_tape(literal), budget)
    want = _stepwise(table, parse_tape(literal), budget)
    n = len(want)
    assert len(out.trace) == n and list(out.trace) == want
    assert out.trace == want and want == out.trace
    assert out.trace != want[:-1] and want[:-1] != out.trace
    assert out.trace != want[:-1] + [want[-1]._replace(step=budget + 1)]
    for i in {0, n // 2, n - 1, -1, -(n // 2) - 1, -n}:
        assert out.trace[i] == want[i], i
    for cut in (slice(None), slice(-30, None), slice(5, -3, 4), slice(None, None, -7),
                slice(n - 2, n + 5), slice(n, None)):
        assert out.trace[cut] == want[cut], cut
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            out.trace[i]


@pytest.mark.parametrize("literal", TAPES)
def test_a_closed_trace_reads_as_the_stepwise_list(table, literal):
    # a closed orbit's trace holds one period and makes the rest on access:
    # as a list, by index and by slice it is the run done step by step
    for budget in _budgets(PERIOD) + (1000,):
        _reads_as_the_stepwise_list(table, literal, budget)


@pytest.mark.parametrize("literal", ("@1", "1@"))
def test_a_closed_pacer4_trace_reads_as_the_stepwise_list(pacer4, literal):
    for budget in _budgets(2 * PERIOD):
        _reads_as_the_stepwise_list(pacer4, literal, budget)


@pytest.mark.parametrize("literal", TAPES)
def test_a_closed_trace_copies_only_what_is_read(table, literal):
    # iterating a closed orbit's trace makes each later event's copy as it
    # is read: the first P + 2 events, P those before the second period,
    # cost at most two repeat calls, not a whole period of them
    trace = run_symbolic(table, parse_tape(literal), 10 ** 6).trace
    calls, repeat = [], trace.repeat
    trace.repeat = lambda item, q: calls.append(q) or repeat(item, q)
    period = len(trace.head) + len(trace.cycle)
    read = list(itertools.islice(trace, period + 2))
    assert len(read) == period + 2 and len(calls) <= 2, calls
    assert read == trace[:period + 2]


def test_a_closed_orbit_costs_its_period_not_its_budget(table, tmp_path, capsys):
    # pacer @1 closes after one period: its run, its trace, points and
    # deviations cost that period, whatever the budget
    budget, tape = 10 ** 12, parse_tape("@1")
    start = time.perf_counter()
    out = run_symbolic(table, tape, budget)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    res = run_numeric(table, tape, budget)
    assert time.perf_counter() - start < 1
    # 10 hits a step, each a reflection, and a checkpoint a step
    assert len(out.trace) == len(res.outcome.trace) == 11 * budget + 1
    assert len(res.points) == 10 * budget + 1 and len(res.deviations) == budget + 1
    last, launch = out.trace[-1], out.trace[0]
    assert (last.kind, last.step, last.state) == ("checkpoint", budget, "A")
    assert last.value is launch.value and last.position is launch.position
    assert res.points[-1] == res.points[-1 - BOUNCES] and res.deviations[-1] == 0.0
    path = tmp_path / "pacer.tm"
    path.write_text(MACHINE_TEXTS["pacer"])
    assert main(["run", str(path), "--tape", "@1", "--mode", "numeric",
                 "--budget", str(budget), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["steps"], doc["period_steps"], doc["period_bounces"]) == (budget, PERIOD, BOUNCES)


def test_one_tables_runs_do_not_leak_into_each_other():
    # a table reads its static walls once, on its first run, and keeps
    # them: every run on it, in a seeded mix of closed orbits, open orbits
    # and halting runs, reports what the same run on a fresh table reports
    rng, kinds = random.Random(25), set()
    for name in ("pacer", "walker"):
        table = compile_table(get_machine(name), 8)
        for _ in range(14):
            tape = frozenset(c for c in range(-4, 5) if rng.random() < 0.5)
            budget = rng.choice((0, 1, 2, 3, 5, 30, 100))
            reused = run_numeric(table, tape, budget)
            fresh = run_numeric(compile_table(get_machine(name), 8), tape, budget)
            for field in fields(NumericResult):
                assert getattr(reused, field.name) == getattr(fresh, field.name), (
                    name, sorted(tape), budget, field.name)
            kinds.add("halted" if reused.outcome.verdict == "halted"
                      else "open" if reused.period_bounces is None else "closed")
    assert kinds == {"halted", "open", "closed"}


def _reports_what_full_tracing_reports(table, literal, budget, period):
    res = run_numeric(table, parse_tape(literal), budget)
    closed = budget >= period
    assert res.outcome.period_steps == (period if closed else None)
    assert res.period_bounces == (period // PERIOD * BOUNCES if closed else None)
    # the hits of one period are the traced ids of its steps
    assert res.period_bounces == (sum(ev.kind == "reflection" and ev.step < period
                                      for ev in res.outcome.trace) if closed else None)
    assert res.deviations == [0.0] * (budget + 1) and res.max_deviation == 0.0
    assert _reported(res.outcome, res) == _traced(table, res.outcome)


# a budget of thousands traced leg by leg takes seconds: one tape runs it
@pytest.mark.parametrize("literal, budget",
                         [(lit, b) for lit in TAPES for b in _budgets(PERIOD)]
                         + [("@1", 1000), ("@1", 5000)])
def test_closed_orbit_reports_what_full_tracing_reports(table, literal, budget):
    _reports_what_full_tracing_reports(table, literal, budget, PERIOD)


@pytest.mark.parametrize("literal, budget",
                         [(lit, b) for lit in ("@1", "1@") for b in _budgets(2 * PERIOD)]
                         + [("1@", 5000)])
def test_closed_pacer4_orbit_reports_what_full_tracing_reports(pacer4, literal, budget):
    _reports_what_full_tracing_reports(pacer4, literal, budget, 2 * PERIOD)


@pytest.mark.parametrize("literal", ("@1", "1@"))
def test_a_recurring_value_in_another_state_is_no_return(literal):
    table = compile_table(parse_machine(PACER4, name="pacer4"), 4)
    out = run_symbolic(table, parse_tape(literal), 30)
    assert out.period_steps == 4
    assert out.trace == _stepwise(table, parse_tape(literal), 30)
    res = run_numeric(table, parse_tape(literal), 30)
    assert res.period_bounces == 2 * BOUNCES
    assert _reported(res.outcome, res) == _traced(table, res.outcome)


def test_a_longer_closed_run_reads_no_more_values(table, monkeypatch):
    # after the first period, a run traces no leg and checks no checkpoint
    # crossing: its rest is counted out, whatever its length
    tape = parse_tape("@1")
    legs, crossings, trace = _legs(monkeypatch), [0], numeric._trace

    def counted(*args):
        for item in trace(*args):
            crossings[0] += item[0] == "cross"
            yield item

    monkeypatch.setattr(numeric, "_trace", counted)
    counts = []
    for budget in (51, 5000):
        legs[0] = crossings[0] = 0
        run_numeric(table, tape, budget)
        counts.append((legs[0], crossings[0]))
    assert counts[0] == counts[1] and min(counts[0]) > 0


def _legs(monkeypatch):
    """A count of the legs traced from here on."""
    count, nearest = [0], _Walls.nearest

    def counted(walls, *args):
        count[0] += 1
        return nearest(walls, *args)

    monkeypatch.setattr(_Walls, "nearest", counted)
    return count


def test_closure_traces_one_period(table, monkeypatch):
    legs = _legs(monkeypatch)
    res = run_numeric(table, parse_tape("@1"), 100)
    # the launch leg, one period, and the leg that meets the launch's
    # first hit again
    assert legs[0] == BOUNCES + 1 and res.period_bounces == BOUNCES


def test_replayed_points_are_read_into_floats_once(table, monkeypatch):
    # a replayed period repeats its point objects: each is read into floats
    # once, the launch point and one period's hits
    calls, read = [], numeric._float_pt
    monkeypatch.setattr(numeric, "_float_pt", lambda p: calls.append(p) or read(p))
    res = run_numeric(table, parse_tape("@1"), 100)
    assert res.period_bounces == BOUNCES
    assert len(calls) <= BOUNCES + 1 < len(res.points)


def test_a_first_hit_that_does_not_recur_is_traced_on(table, monkeypatch):
    # the first hit is recorded with its direction doubled: the same ray,
    # but not the primitive direction the return is compared on, so the
    # orbit never closes and every leg is traced, with the same report
    tape = parse_tape("@11")
    want = run_numeric(table, tape, 100)
    trace = numeric._trace

    def doubled_first_hit(walls, pos, direction):
        items = trace(walls, pos, direction)
        for item in items:
            if item[0] == "hit":
                kind, wall, point, u, (dx, dy) = item
                yield kind, wall, point, u, (2 * dx, 2 * dy)
                break
            yield item
        yield from items

    monkeypatch.setattr(numeric, "_trace", doubled_first_hit)
    legs = _legs(monkeypatch)
    got = run_numeric(table, tape, 100)
    assert got.period_bounces is None and legs[0] == 100 * BOUNCES // PERIOD + 1
    assert got.outcome.trace == want.outcome.trace
    assert _reported(got.outcome, got) == _reported(want.outcome, want)


def _moved_turn_mirror():
    """Pacer at K=8 with the last turn mirror of its B-reads-0 corridor,
    the one that turns the ray of @1 back up to A, moved right by 1/9."""
    table = compile_table(get_machine("pacer"), 8)
    corridor = table.corridors[("B", 0)]
    corridor.turns = corridor.turns[:3] + (corridor.turns[3].translated(Fraction(1, 9), 0),)
    return table


def _mismatch(table, tape, budget):
    with pytest.raises(TraceMismatch) as err:
        run_numeric(table, tape, budget)
    return str(err.value)


@pytest.mark.parametrize("budget", (PERIOD, 100))
def test_moved_turn_mirror_fails_where_full_tracing_fails(monkeypatch, budget):
    tape = parse_tape("@1")
    closing = _mismatch(_moved_turn_mirror(), tape, budget)
    # the same run with no return to close on: traced leg by leg

    def no_return(table, tape, budget):
        out = run_symbolic(table, tape, budget)
        out.period_steps = None
        return out

    monkeypatch.setattr(numeric, "run_symbolic", no_return)
    assert closing == _mismatch(_moved_turn_mirror(), tape, budget)
    # the ray misses A's merge at the end of the first period
    assert closing.startswith("reflection.wall_id: expected premerge:A:")
    assert closing.endswith(f"(event 20/{budget * BOUNCES // PERIOD + budget + 1})")


EVENTS = BOUNCES + PERIOD     # pacer's events per period


# a copied event: the first (the return checkpoint), the first copied
# reflection, one mid-run, the last reflection and the last checkpoint
@pytest.mark.parametrize("drop", (EVENTS, EVENTS + 1, 25 * EVENTS + 7, -2, -1))
def test_a_tail_short_of_one_event_fails(table, monkeypatch, tmp_path, capsys, drop):
    cycled = simulate._cycled

    def dropping(trace, period, budget):
        out = cycled(trace, period, budget)
        out.trace = list(out.trace)
        del out.trace[drop]
        return out

    monkeypatch.setattr(simulate, "_cycled", dropping)
    assert "(event " in _mismatch(table, parse_tape("@1"), 100)
    path = tmp_path / "pacer.tm"
    path.write_text(MACHINE_TEXTS["pacer"])
    assert main(["run", str(path), "--tape", "@1", "--budget", "100",
                 "--mode", "numeric"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal verification failure:") and "(event " in err


# --- verify_equivalence on a closed orbit: one period ----------------------

def _stepwise_outcome(out):
    """``out`` as the per-step path reads it: its trace a list, with no
    period, so every crossing is checked and the machine is run."""
    return dataclasses.replace(out, trace=list(out.trace), period_steps=None)


@pytest.mark.parametrize("budget", (0, 1, 2, 3, 4, 5, 49, 50, 1000))
def test_verify_of_a_closed_orbit_reports_what_the_stepwise_path_reports(
        table, pacer4, monkeypatch, budget):
    machines = ((table.machine, table), (pacer4.machine, pacer4))
    tapes = list(enumerate_tapes(range(-1, 2)))
    closed = [verify_equivalence(m, t, tapes, budget) for m, t in machines]
    monkeypatch.setattr(simulate, "run_symbolic",
                        lambda *args: _stepwise_outcome(run_symbolic(*args)))
    assert closed == [verify_equivalence(m, t, tapes, budget) for m, t in machines]
    assert all(report.passed for report in closed)


def test_verify_of_a_closed_orbit_runs_one_period(table, monkeypatch):
    # past the period, verify reads P + 1 crossings and never runs the
    # machine, whatever the budget
    steps = []
    monkeypatch.setattr(simulate, "step", lambda m, c: steps.append(c) or step(m, c))
    monkeypatch.setattr(simulate, "run_machine", None)    # never called
    report = verify_equivalence(table.machine, table, [parse_tape("@1")], 10 ** 5)
    assert report.passed and report.verdicts == {"budget-exhausted": 1}
    assert len(steps) == PERIOD


def test_verify_of_a_doctored_return_diverges(pacer4):
    # B's corridors doctored to lead to A, not C: the billiard is back at
    # its launch (state, value) after two steps and closes its orbit, but
    # the machine is in C, and verify reports it at that crossing
    table = compile_table(parse_machine(PACER4, name="pacer4"), 4)
    for (state, _), corridor in table.corridors.items():
        if state == "B":
            corridor.edge = corridor.edge._replace(target="A")
    tape = parse_tape("@1")
    assert run_symbolic(table, tape, 100).period_steps == PERIOD
    report = verify_equivalence(pacer4.machine, table, [tape], 100)
    assert not report.passed
    d = report.first_divergence
    assert (d.step, d.detail) == (PERIOD, "state A != C")


def test_verify_cli_on_closed_orbits_costs_one_period(capsys):
    # every pacer tape of support 1 closes its orbit: a budget of 10^12
    # is verified in the time of a period per tape
    path = Path(__file__).resolve().parent.parent / "demos" / "machines" / "pacer.tm"
    start = time.perf_counter()
    assert main(["verify", str(path), "--support", "1", "--budget", str(10 ** 12)]) == 0
    assert time.perf_counter() - start < 2
    assert "equivalence verified on 8 tapes" in capsys.readouterr().out
