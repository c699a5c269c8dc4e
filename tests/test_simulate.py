import io
import time
from fractions import Fraction

import pytest

from carom import encoding, gadgets, table as table_module
from carom.encoding import encode_state
from carom.gadgets import _BlockMirrors
from carom.machine import enumerate_tapes, parse_tape, run_machine
from carom.simulate import (
    GadgetTracer,
    TraceEvent,
    TraceMismatch,
    TracingDegeneracy,
    TracingError,
    _diverges,
    replay_reverse,
    run_numeric,
    run_symbolic,
    verify_equivalence,
    write_trace,
)
from carom.table import compile_table
from carom.ternary import T, TernaryRational
from carom.zoo import fixture_machines, get_machine


def test_rev_move_halts_like_the_machine():
    table = compile_table(get_machine("rev-move"), 4)
    out = run_symbolic(table, parse_tape("{2:1}"), 10)
    assert out.verdict == "halted"
    assert out.steps == 3
    assert out.final_tape == frozenset({2})
    assert out.final_head == 3
    assert out.periodic
    states = [e.state for e in out.crossings]
    assert states == ["A", "A", "A", "H"]


def test_symbolic_step_makes_no_align(monkeypatch):
    # decode, block_of, tau, the transfer pieces and the corridor's lane
    # test compute on integers: with head_of stubbed (its level walk runs
    # on TernaryRational's comparisons), run_symbolic steps and _diverges
    # crossings make no TernaryRational._align call.  The stub answers
    # from a first pass's real calls
    runs = [(m, compile_table(m, 8), tape) for m in fixture_machines().values()
            for tape in (frozenset(), frozenset({0}), frozenset({-1, 1}))]

    def run_all():
        for m, table, tape in runs:
            for budget in (1, 3):
                outcome = run_symbolic(table, tape, budget)
                assert _diverges(m, table, tape, budget, outcome) is None

    real, levels = encoding.head_of, {}

    def recording(x):
        levels[x] = real(x)
        return levels[x]

    modules = (encoding, gadgets, table_module)
    for module in modules:
        monkeypatch.setattr(module, "head_of", recording)
    run_all()
    for module in modules:
        monkeypatch.setattr(module, "head_of", levels.__getitem__)
    aligns, align = [], TernaryRational._align
    monkeypatch.setattr(TernaryRational, "_align",
                        lambda a, b: aligns.append((a, b)) or align(a, b))
    run_all()
    assert aligns == []


def test_trace_events_are_records():
    # a NamedTuple with the fields, defaults and repr of the frozen
    # dataclass it replaced: the pinned trace digests hash that repr
    assert TraceEvent._fields == ("kind", "step", "wall_id", "state", "value",
                                  "position", "head")
    assert TraceEvent._field_defaults == dict.fromkeys(
        ("wall_id", "state", "value", "position", "head"))
    table = compile_table(get_machine("pacer"), 2)
    checkpoint, reflection = run_symbolic(table, parse_tape("@1"), 1).trace[:2]
    assert repr(checkpoint) == (
        "TraceEvent(kind='checkpoint', step=0, wall_id=None, state='A', "
        "value=TernaryRational(5, 2), position=(Fraction(5, 9), Fraction(0, 1)), "
        "head=None)")
    assert repr(reflection) == (
        "TraceEvent(kind='reflection', step=0, wall_id='split:A:k0:d1:s1:b1:W', "
        "state=None, value=None, position=None, head=None)")


def test_zero_budget():
    table = compile_table(get_machine("rev-move"), 4)
    out = run_symbolic(table, frozenset(), 0)
    assert out.verdict == "budget-exhausted"
    assert out.steps == 0
    assert len(out.crossings) == 1


def test_out_of_range_reports_offending_head():
    table = compile_table(get_machine("rev-move"), 4)
    out = run_symbolic(table, frozenset(), 100)  # all-zero: walks right forever
    assert out.verdict == "out-of-range"
    assert out.out_of_range_k == 5
    assert out.steps == 4


def test_pacer_exhausts_budget_in_range():
    table = compile_table(get_machine("pacer"), 4)
    out = run_symbolic(table, frozenset(), 100)
    assert out.verdict == "budget-exhausted"
    assert out.steps == 100
    assert len(out.crossings) == 101


def test_crossing_values_track_the_machine():
    m = get_machine("walker")
    table = compile_table(m, 4)
    tape = parse_tape("@111")
    out = run_symbolic(table, tape, 50)
    assert out.verdict == "halted"
    # walks right over three ones, bounces, walks back, halts at -2
    assert out.final_head == -2
    assert out.final_tape == tape
    oracle = run_machine(m, tape, 50)
    assert oracle.halted and oracle.steps == out.steps


def test_counter_increments():
    m = get_machine("counter")
    table = compile_table(m, 5)
    out = run_symbolic(table, parse_tape("@1101"), 20)  # LSB-first 1101 = 11
    assert out.verdict == "halted"
    # 11 + 1 = 12 = 0011 LSB-first
    assert out.final_tape == frozenset({2, 3})


def test_periodicity_certificate():
    # a halted run ends on its halt bounce, which makes its orbit periodic;
    # an exhausted one claims no periodicity
    table = compile_table(get_machine("rev-move"), 4)
    halted = run_symbolic(table, parse_tape("{2:1}"), 10)
    assert halted.periodic and halted.trace[-1].kind == "halt-bounce"
    exhausted = run_symbolic(table, frozenset(), 2)
    assert exhausted.verdict == "budget-exhausted" and not exhausted.periodic


def test_reverse_replay_returns_to_launch():
    for name in ("rev-move", "bit-flipper", "counter", "walker"):
        m = get_machine(name)
        table = compile_table(m, 5)
        for tape in (frozenset({0}), frozenset({0, 1}), frozenset({1, 2})):
            out = run_symbolic(table, tape, 50)
            if out.verdict != "halted":
                continue
            back = replay_reverse(table, out)
            assert back == encode_state(tape, 0).value


def test_verify_equivalence_rev_move_exhaustive():
    m = get_machine("rev-move")
    table = compile_table(m, 8)
    tapes = list(enumerate_tapes([0, 1, 2]))
    report = verify_equivalence(m, table, tapes, 200)
    assert report.passed
    assert report.tapes_checked == 8


def test_verify_equivalence_catches_flipped_write():
    # a table whose (A,0) corridor writes 1 instead of 0
    flipped = get_machine("rev-move")
    import carom.machine as M
    bad = M.Machine(states=flipped.states, initial=flipped.initial,
                    halting=flipped.halting,
                    delta={("A", 0): ("A", 1, 1), ("A", 1): ("H", 1, 1)})
    bad.validate()
    bad_table = compile_table(bad, 6)
    report = verify_equivalence(get_machine("rev-move"), bad_table,
                                [frozenset(), frozenset({1})], 50)
    assert not report.passed
    assert report.first_divergence is not None
    assert report.first_divergence.step == 1  # first step using the flipped edge


def test_verify_equivalence_empty_tapes_vacuous():
    table = compile_table(get_machine("rev-move"), 4)
    report = verify_equivalence(get_machine("rev-move"), table, [], 10)
    assert report.passed and report.tapes_checked == 0


def test_trace_file_format():
    table = compile_table(get_machine("rev-move"), 4)
    out = run_symbolic(table, parse_tape("{2:1}"), 10)
    buf = io.StringIO()
    write_trace(out, buf)
    text = buf.getvalue()
    assert "verdict: halted" in text
    assert "steps: 3" in text
    assert "periodic: true" in text
    # determinism: a rerun produces the identical log
    buf2 = io.StringIO()
    write_trace(run_symbolic(table, parse_tape("{2:1}"), 10), buf2)
    assert buf2.getvalue() == text


# --- numeric ---------------------------------------------------------------

def test_numeric_matches_symbolic_rev_move():
    table = compile_table(get_machine("rev-move"), 4)
    res = run_numeric(table, parse_tape("{2:1}"), 10)
    assert res.outcome.verdict == "halted"
    assert res.max_deviation == 0.0


def test_numeric_budget_and_out_of_range_runs():
    table = compile_table(get_machine("pacer"), 3)
    res = run_numeric(table, frozenset(), 6)
    assert res.outcome.verdict == "budget-exhausted"
    table2 = compile_table(get_machine("rev-move"), 3)
    res2 = run_numeric(table2, frozenset(), 50)
    assert res2.outcome.verdict == "out-of-range"


def test_rewriting_edges_into_a_merge():
    # both edges into B rewrite, so the corridor leaves on one lane and
    # must arrive on the opposite one (sigma_in != sigma_out)
    from carom.machine import parse_machine
    toggler = parse_machine(
        "states: A B H\ninitial: A\nhalting: H\n"
        "A 0 -> B 1 R\nA 1 -> B 0 R\nB 0 -> H 0 R\nB 1 -> H 1 R\n",
        name="toggler")
    table = compile_table(toggler, 4)
    assert table.stations["B"].merge is not None
    c = table.corridors[("A", 0)]
    assert c.sigma_in == -2 and c.sigma_out == 2
    report = verify_equivalence(toggler, table,
                                list(enumerate_tapes(range(-2, 3))), 50)
    assert report.passed
    res = run_numeric(table, frozenset(), 20)
    assert res.outcome.verdict == "halted"
    assert res.outcome.final_tape == frozenset({0})
    assert res.max_deviation == 0.0
    table.verify_layout(levels=range(-2, 3))


def test_halt_bounce_on_a_state_id_with_a_colon():
    # the halt bounce is named by the halting checkpoint's own wall, so a
    # state id holding ':' still names it, and the numeric trace finds it
    from carom.machine import parse_machine
    machine = parse_machine(
        "states: A H:1\ninitial: A\nhalting: H:1\n"
        "A 0 -> H:1 0 R\nA 1 -> H:1 1 R\n", name="colon")
    table = compile_table(machine, 3)
    wall = table.stations["H:1"].checkpoint.wall
    out = run_symbolic(table, parse_tape("@1"), 5)
    assert out.verdict == "halted" and out.trace[-1].kind == "halt-bounce"
    assert out.trace[-1].wall_id == wall.wall_id
    assert wall in table.static_walls
    res = run_numeric(table, parse_tape("@1"), 5)
    assert res.outcome.verdict == "halted" and res.max_deviation == 0.0

def test_numeric_fixture_sweep_monotone():
    # every fixture machine, one representative tape, K <= 4: every
    # checkpoint reads exactly its symbolic value
    tapes = {
        "rev-move": "{2:1}", "bit-flipper": "@01", "counter": "@11",
        "walker": "@11", "looper": "@", "pacer": "@1",
    }
    for name, literal in tapes.items():
        table = compile_table(get_machine(name), 4)
        res = run_numeric(table, parse_tape(literal), 12)
        assert res.deviations == [0.0] * len(res.outcome.crossings), name


def test_numeric_reaches_the_default_K():
    # walls are queried by position over all |k| <= 8, so a run whose head
    # walks to level 8 is certified like a shallow one
    table = compile_table(get_machine("rev-move"), 8)
    for literal, head in (("@00001", 5), ("@00000001", 8)):
        t0 = time.perf_counter()
        res = run_numeric(table, parse_tape(literal), 100)
        print(f"  rev-move {literal} (head {head}): {time.perf_counter() - t0:.3f} s, "
              f"{res.walls_built} walls built")
        assert res.outcome.verdict == "halted"
        assert res.outcome.final_head == head
        assert res.max_deviation == 0.0
        # only walls near the ray are built: level 8 alone holds 2^18
        # mirrors per split gadget
        assert res.walls_built < 100


def test_numeric_certifies_past_double_resolution():
    # from head level about 10 on, a split mirror (length about 3^-(3k+2)) is
    # shorter than a double resolves at its coordinates; its hits are
    # weighed exactly, so the certificate still holds
    table = compile_table(get_machine("rev-move"), 16)
    for zeros in (9, 11, 13, 15):
        t0 = time.process_time()
        res = run_numeric(table, parse_tape("@" + "0" * zeros + "1"), 100)
        elapsed = time.process_time() - t0
        assert res.outcome.verdict == "halted"
        assert res.outcome.final_head == zeros + 1
        assert res.max_deviation == 0.0
        assert res.walls_built < 100
        assert elapsed < 1.0, (zeros, elapsed)


def test_gadget_tracer_lands_a_beam_below_float_resolution():
    # a split mirror of level 10 spans a few float steps at its
    # coordinates, and its ends share one float height: the exact test
    # lands the beam on the split's transfer, hits and all
    from carom.gadgets import build_split_gadget
    from carom.geometry import Leg
    x = T(3 ** 33 - 2 * 3 ** 22 + 1, 33)    # 1 - 2/3^11 + 1/3^33, in I_10's first block
    split = build_split_gadget(12)
    beam = Leg.of((x.as_fraction(), Fraction(0)), (Fraction(0), Fraction(1)), Fraction(11))
    row, = split.mirrors.walls_in(beam)
    assert ":k10:" in row.wall_id
    assert row.p0[1] != row.p1[1] and float(row.p0[1]) == float(row.p1[1])
    want, piece = split.transfer.apply(x)
    u_out, hits = GadgetTracer(split).trace(x, out_port="b" + piece.tag[-1])
    assert u_out == want.as_fraction() and hits == list(piece.wall_ids)
    assert row.wall_id in hits


@pytest.mark.parametrize("name, literal", [
    ("pacer", "@1"), ("walker", "@111"), ("rev-move", "@00000001"), ("bit-flipper", "@011")])
def test_max_candidates_counts_the_walls_weighed(name, literal):
    # a leg weighs only the static walls and the mirrors its walk meets
    # before its nearest hit: on no leg all the static walls
    table = compile_table(get_machine(name), 8)
    res = run_numeric(table, parse_tape(literal), 100)
    assert 0 < res.max_candidates < len(table.static_walls)


#: What the tracer reports of these K=8 runs: walls_built, max_candidates,
#: denominator_bits and period_bounces.  A leg weighs the walls its walk
#: meets before its nearest hit, whatever the walk costs; these figures
#: pin what the legs weigh and read.
TRACE_COUNTERS = [
    ("pacer", "@1", 100, (42, 2, 12, 20)),
    ("counter", "@1111111", 100, (34, 2, 111, None)),
    ("walker", "@111", 100, (58, 2, 31, None)),
    ((1, 4), "1@01", 30, (99, 2, 92, None)),
    ((4, 8), "@1", 30, (150, 2, 40, None)),
]


@pytest.mark.parametrize("machine, literal, budget, counters", TRACE_COUNTERS)
def test_trace_counters_are_pinned(machine, literal, budget, counters):
    # a machine is a zoo name or the (seed, states) of zoo.random_reversible
    import random
    from carom.zoo import random_reversible
    machine = (get_machine(machine) if isinstance(machine, str)
               else random_reversible(random.Random(machine[0]), machine[1]))
    res = run_numeric(compile_table(machine, 8), parse_tape(literal), budget)
    assert (res.walls_built, res.max_candidates, res.denominator_bits,
            res.period_bounces) == counters


def test_trace_without_static_walls():
    # a bare split gadget has mirrors and no static walls: its scene's
    # index holds the family alone, and the walk still finds the mirror
    # (test_gadget_tracer_sees_the_split_levels traces the same gadget)
    from carom.gadgets import build_split_gadget
    from carom.numeric import TraceScene, _Walls
    split = build_split_gadget(3)
    assert split.static_walls == ()
    walls = _Walls(TraceScene(split.static_walls, (split.mirrors,)))
    assert walls.scene.static == []
    assert [entry[4].kind for entry in walls.scene.index.entries] == ["family"]
    x = encode_state(frozenset(), 0).value.as_fraction()
    xyw = (x.numerator, 0, x.denominator)
    t, wall, second, _, _ = walls.nearest(xyw, (0, 1), None)
    assert walls.max_candidates == 1 and wall.wall_id.endswith(":W") and second is None


def test_numeric_gadget_shift():
    from carom.gadgets import build_shift_stage
    g = build_shift_stage(+1)
    u_out, hits = GadgetTracer(g).trace(T(1, 1))
    assert u_out == Fraction(7, 9)
    assert hits == ["shift:pos:in", "shift:pos:out"]


def test_gadget_tracer_sees_the_split_levels():
    # a split gadget's tracer needs no level list: its mirror family
    # covers its own levels, and each branch lands on transfer.apply
    from carom.encoding import read_digit
    from carom.gadgets import build_split_gadget
    split = build_split_gadget(3)
    assert split.static_walls == ()     # mirrors only: no static box
    tracer = GadgetTracer(split)
    for tape in enumerate_tapes(range(-1, 2)):
        for k in range(-3, 4):
            p = encode_state(tape, k)
            want, piece = split.transfer.apply(p.value)
            u_out, hits = tracer.trace(p.value, out_port=f"b{read_digit(p)}")
            assert u_out == want.as_fraction()
            assert hits == list(piece.wall_ids)


# --- tracer failure paths ----------------------------------------------------

def test_gadget_trace_duplicated_mirror_is_degenerate():
    from dataclasses import replace
    from carom.gadgets import build_turn_gadget
    turn = build_turn_gadget(+90)
    mirror, = turn.static_walls
    doubled = replace(turn, static_walls=(mirror, mirror._replace(wall_id="dup:mirror")))
    with pytest.raises(TracingDegeneracy):
        GadgetTracer(doubled).trace(T(1, 1))


def test_gadget_trace_without_walls_escapes():
    from dataclasses import replace
    from carom.gadgets import build_shift_stage
    bare = replace(build_shift_stage(+1, K=3), static_walls=())
    with pytest.raises(TracingError):
        GadgetTracer(bare).trace(T(1, 1))


def test_numeric_missing_split_mirror_is_a_trace_mismatch(monkeypatch, tmp_path):
    from carom.cli import main
    from carom.zoo import MACHINE_TEXTS
    table = compile_table(get_machine("rev-move"), 4)
    tape = parse_tape("{2:1}")
    dropped = next(ev.wall_id for ev in run_symbolic(table, tape, 10).trace
                   if ev.kind == "reflection" and ev.wall_id.startswith("split:"))
    block_rows = _BlockMirrors.block_rows

    def without_mirror(self, *args):
        return [row for row in block_rows(self, *args) if row[5] != dropped]

    # the tracer gets its split mirrors only through this per-region query
    monkeypatch.setattr(_BlockMirrors, "block_rows", without_mirror)
    # the exact trace then takes a wrong wall, and the error names it
    with pytest.raises(TraceMismatch, match=f"reflection.wall_id: expected {dropped}"):
        run_numeric(table, tape, 10)
    path = tmp_path / "rev-move.tm"
    path.write_text(MACHINE_TEXTS["rev-move"])
    argv = ["run", str(path), "--tape", "{2:1}", "--K", "4", "--budget", "10",
            "--mode", "numeric"]
    assert main(argv) == 3
