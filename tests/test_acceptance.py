"""Acceptance suite: the seven exit criteria, one test each, and the
envelope they must hold in.

Every test prints a single PASS line with its runtime (visible with
pytest -s); the stated runtime ceilings are asserted.
"""

import io
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

from carom.encoding import (
    decode,
    encode_state,
    head_interval,
    k_max_cap,
    read_digit,
    shift_point,
)
from carom.gadgets import (
    build_merge_gadget,
    build_shift_stage,
    build_split_gadget,
    build_turn_gadget,
    check_separation,
)
from carom.machine import (
    Machine,
    brute_force_reversible,
    check_reversible,
    enumerate_tapes,
    parse_tape,
)
from carom.simulate import (
    GadgetTracer,
    replay_reverse,
    run_numeric,
    run_symbolic,
    verify_equivalence,
    write_trace,
)
from carom.table import compile_table, load_table, to_svg
from carom.ternary import T
from carom.zoo import fixture_machines, get_machine


def _report(name, t0, limit):
    elapsed = time.time() - t0
    print(f"PASS {name}: {elapsed:.2f}s (limit {limit}s)")
    assert elapsed < limit, f"{name} exceeded its runtime budget"


def test_criterion_1_encoding_laws():
    t0 = time.time()
    # interval length, disjointness, ordering, and the shift relations
    intervals = [head_interval(k) for k in range(-12, 13)]
    for iv in intervals:
        assert iv.length == T(1, 1 + abs(iv.k))
    for a, b in zip(intervals, intervals[1:]):
        assert a.hi < b.lo
    rng = random.Random(42)
    tapes = [frozenset(), frozenset({0}), frozenset({-1, 1})] + [
        frozenset(c for c in range(-5, 6) if rng.random() < 0.4) for _ in range(5)]
    for k in range(-12, 12):
        for tape in tapes:
            p = encode_state(tape, k)
            nxt = encode_state(tape, k + 1).value
            if k < 0:
                assert nxt == p.value.mul3()
            else:
                assert nxt == p.value.div3() + T(2, 1)
            assert shift_point(p, +1).value == nxt
    # decode o encode = identity, exhaustively then randomized
    for tape in enumerate_tapes(range(-4, 5)):
        for k in range(-4, 5):
            assert decode(encode_state(tape, k).value) == (tape, k)
    for _ in range(1000):
        tape = frozenset(c for c in range(-10, 11) if rng.random() < 0.35)
        k = rng.randint(-10, 10)
        assert decode(encode_state(tape, k).value) == (tape, k)
    _report("criterion 1 (encoding laws)", t0, 5)


def test_criterion_2_separation_geometry():
    t0 = time.time()
    from carom.encoding import cantor_blocks
    assert len(cantor_blocks(4, 0)) == 2 ** 8  # top-level block count
    reports = check_separation(4)
    assert all(r.passed for r in reports)
    slacks = [r.min_slack for r in reports if r.min_slack is not None]
    assert min(slacks) > 0
    # mutation: sliding the k=0 read-0 wall left by 3^-(3k+1) = 1/3 rams
    # the k=-1 family and must produce a negative slack
    def perturb(k, symbol, index, lo, hi):
        if k == 0 and symbol == 0:
            return lo - Fraction(1, 3), hi - Fraction(1, 3)
        return lo, hi

    mutated = check_separation(2, perturb=perturb)
    assert any(r.min_slack is not None and r.min_slack < 0 for r in mutated)
    _report("criterion 2 (separation inequalities)", t0, 30)


def _soundness_samples():
    out = []
    for tape in enumerate_tapes(range(-3, 4)):
        for k in range(-3, 4):
            out.append(encode_state(tape, k))
    return out


def test_criterion_3_gadget_soundness():
    t0 = time.time()
    samples = _soundness_samples()
    split = build_split_gadget(3)
    resplit = build_split_gadget(3, writes=(1, 0), name="resplit")
    merge = build_merge_gadget(build_split_gadget(3, name="m"), name="merge")
    stage_fwd = build_shift_stage(+1, K=3)
    stage_bwd = build_shift_stage(-1, K=3)
    turn = build_turn_gadget(+90)

    tracers = {name: GadgetTracer(gadget) for name, gadget in (
        ("split", split), ("resplit", resplit), ("merge", merge),
        ("stage+1", stage_fwd), ("stage-1", stage_bwd), ("turn", turn))}
    # the exact trace lands on each transfer output exactly
    for p in samples:
        v = p.value
        branch = read_digit(p)
        for name, gadget in (("split", split), ("resplit", resplit)):
            want, piece = gadget.transfer.apply(v)
            u_out, hits = tracers[name].trace(v, out_port=f"b{branch}")
            assert u_out == want.as_fraction() and hits == list(piece.wall_ids)
        # merge: invert the plain split's branch images
        w, _ = split.transfer.apply(v)
        u_out, hits = tracers["merge"].trace(w, in_port=f"b{branch}")
        assert u_out == v.as_fraction()
        for name, stage in (("stage+1", stage_fwd), ("stage-1", stage_bwd)):
            want, piece = stage.transfer.apply(v)
            u_out, hits = tracers[name].trace(v)
            assert u_out == want.as_fraction() and hits == list(piece.wall_ids)
        u_out, hits = tracers["turn"].trace(v)
        assert u_out == v.as_fraction() and len(hits) == 1
    _report("criterion 3 (gadget soundness)", t0, 60)


def test_criterion_4_theorem_1_desk_scale():
    t0 = time.time()
    machines = fixture_machines()
    assert len(machines) >= 5
    tapes = list(enumerate_tapes(range(-3, 4)))
    assert len(tapes) == 128
    for name, m in machines.items():
        table = compile_table(m, 8)
        report = verify_equivalence(m, table, tapes, budget=200)
        assert report.passed, (name, report.first_divergence)
        assert report.tapes_checked == 128
    _report("criterion 4 (machine/billiard equivalence)", t0, 120)


def test_criterion_5_halting_iff_periodicity():
    t0 = time.time()
    halted_seen = other_seen = 0
    for name, m in fixture_machines().items():
        table = compile_table(m, 8)
        for tape in enumerate_tapes(range(-2, 3)):
            outcome = run_symbolic(table, tape, 200)
            if outcome.verdict == "halted":
                # the orbit turns back at its halt bounce and retraces itself
                halted_seen += 1
                assert outcome.periodic and outcome.trace[-1].kind == "halt-bounce"
                back = replay_reverse(table, outcome)
                assert back == encode_state(tape, 0).value
            else:
                other_seen += 1
                assert not outcome.periodic
    assert halted_seen and other_seen
    # a run that does not halt may still return: pacer's launch recurs
    # after 2 steps, and the numeric orbit closes exactly after 20 bounces
    res = run_numeric(compile_table(get_machine("pacer"), 8), parse_tape("@1"), 100)
    assert res.outcome.verdict == "budget-exhausted"
    assert res.outcome.period_steps == 2 and res.period_bounces == 20
    _report("criterion 5 (halting iff periodic certificate)", t0, 120)


def test_criterion_6_reversibility_checker():
    t0 = time.time()
    rng = random.Random(2024)
    names = ["A", "B", "C", "H"]
    reversible = nonreversible = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        states = names[:n] + ["H"]
        delta = {}
        for q in states[:-1]:
            for a in (0, 1):
                delta[(q, a)] = (rng.choice(states), rng.randint(0, 1),
                                 rng.choice((-1, +1)))
        m = Machine(states=tuple(states), initial=states[0],
                    halting=frozenset({"H"}), delta=delta).validate()
        verdict = check_reversible(m) is None
        oracle = brute_force_reversible(m, bound=2) is None
        assert verdict == oracle, m.delta
        reversible += verdict
        nonreversible += not verdict
    assert reversible and nonreversible
    _report("criterion 6 (reversibility checker vs brute force)", t0, 10)


def test_criterion_7_determinism_and_serialization():
    t0 = time.time()
    m = get_machine("rev-move")
    t1 = compile_table(m, 3)
    t2 = compile_table(m, 3)
    blob = t1.to_json()
    assert blob == t2.to_json()
    loaded = load_table(blob)
    tape = parse_tape("{2:1}")

    def run_all(table):
        out = run_symbolic(table, tape, 50)
        buf = io.StringIO()
        write_trace(out, buf)
        num = run_numeric(table, tape, 50)
        return buf.getvalue(), out.verdict, num.deviations

    trace1, verdict1, devs1 = run_all(t1)
    trace2, verdict2, devs2 = run_all(loaded)
    assert (trace1, verdict1, devs1) == (trace2, verdict2, devs2)
    # svg and trace byte-stability across repeated runs
    svg1 = to_svg(t1, levels=range(-2, 3))
    svg2 = to_svg(load_table(blob), levels=range(-2, 3))
    assert svg1 == svg2
    ET.fromstring(svg1)
    _report("criterion 7 (determinism and serialization)", t0, 60)


def test_envelope():
    # the guarantees at the advertised envelope, K = k_max_cap() (64)
    t0 = time.time()
    K = k_max_cap()
    assert K == 64
    for name, m in fixture_machines().items():
        assert compile_table(m, K).K == K, name
    # exact certificates of deep heads, each with its verdict, steps and
    # the bits of the largest common denominator a leg carried: rev-move
    # walks through head 64 and leaves the range at 65
    for name, table_K, literal, budget, verdict, steps, bits in (
            ("rev-move", K, "@" + "0" * 64, 140, "out-of-range", 64, 301),
            ("walker", 24, "@" + "1" * 18, 200, "halted", 38, 174),
            ("rev-move", 40, "@" + "0" * 20 + "1", 100, "halted", 21, 202)):
        res = run_numeric(compile_table(get_machine(name), table_K),
                          parse_tape(literal), budget)
        out = res.outcome
        assert (out.verdict, out.steps, res.denominator_bits) == (verdict, steps, bits), name
        assert out.out_of_range_k == (K + 1 if verdict == "out-of-range" else None)
    _report("envelope (K=64 compiles, exact deep-head certificates)", t0, 10)
