import random

import pytest

from carom.machine import (
    ComputationState,
    Machine,
    MachineSemanticsError,
    MachineSyntaxError,
    brute_force_reversible,
    build_graph,
    check_reversible,
    enumerate_tapes,
    parse_machine,
    parse_tape,
    run_machine,
    step,
)
from carom.zoo import counter_ring

REV_MOVE = """\
# scan right over zeros, halt on the first one
states: A H
initial: A
halting: H
A 0 -> A 0 R
A 1 -> H 1 R
"""


def test_parse_rev_move():
    m = parse_machine(REV_MOVE, name="rev-move")
    assert m.states == ("A", "H")
    assert m.initial == "A"
    assert m.halting == frozenset({"H"})
    assert len(m.delta) == 2
    assert m.delta[("A", 1)] == ("H", 1, +1)


def test_parse_rejects_transition_from_halting():
    bad = REV_MOVE + "H 0 -> H 0 R\n"
    with pytest.raises(MachineSemanticsError):
        parse_machine(bad)


def test_parse_rejects_partial_delta():
    bad = "states: A H\ninitial: A\nhalting: H\nA 0 -> A 0 R\n"
    with pytest.raises(MachineSemanticsError):
        parse_machine(bad)


def test_parse_rejects_duplicate_transition():
    bad = REV_MOVE + "A 1 -> A 0 L\n"
    with pytest.raises(MachineSemanticsError):
        parse_machine(bad)


def test_parse_rejects_unknown_state():
    bad = "states: A H\ninitial: A\nhalting: H\nA 0 -> B 0 R\nA 1 -> H 1 R\n"
    with pytest.raises(MachineSemanticsError):
        parse_machine(bad)


def test_syntax_error_carries_line_number():
    bad = "states: A H\ninitial: A\nhalting: H\nA 0 -> A 0\n"
    with pytest.raises(MachineSyntaxError) as err:
        parse_machine(bad)
    assert err.value.line_no == 4


def test_parse_tape_forms():
    assert parse_tape("{2:1}") == frozenset({2})
    assert parse_tape("{-1:1, 1:1, 3:0}") == frozenset({-1, 1})
    assert parse_tape("@001") == frozenset({2})
    assert parse_tape("11@001") == frozenset({-2, -1, 2})
    assert parse_tape("@") == frozenset()
    with pytest.raises(ValueError):
        parse_tape("001")


def test_step_examples():
    m = parse_machine(REV_MOVE)
    c = ComputationState(frozenset({2}), "A", 0)
    c1 = step(m, c)
    assert c1 == ComputationState(frozenset({2}), "A", 1)
    c2 = step(m, ComputationState(frozenset({2}), "A", 2))
    assert c2 == ComputationState(frozenset({2}), "H", 3)


def test_step_writes_only_head_cell():
    m = parse_machine(REV_MOVE)
    for tape in enumerate_tapes(range(-2, 3)):
        for k in range(-2, 3):
            out = step(m, ComputationState(tape, "A", k))
            for cell in range(-3, 4):
                if cell != k:
                    assert (cell in out.tape) == (cell in tape)


def test_step_from_halting_raises():
    m = parse_machine(REV_MOVE)
    with pytest.raises(Exception):
        step(m, ComputationState(frozenset(), "H", 0))


def test_run_machine_halts():
    m = parse_machine(REV_MOVE)
    res = run_machine(m, {2}, 10)
    assert res.halted
    assert res.steps == 3
    assert res.final == ComputationState(frozenset({2}), "H", 3)
    # budget equal to the halting time gives the identical result
    assert run_machine(m, {2}, 3) == res


def test_run_machine_budget_zero():
    m = parse_machine(REV_MOVE)
    res = run_machine(m, frozenset(), 0)
    assert not res.halted
    assert res.final == ComputationState(frozenset(), "A", 0)


def test_run_machine_closed_form_head():
    looper = parse_machine(
        "states: A H\ninitial: A\nhalting: H\nA 0 -> A 0 R\nA 1 -> A 1 R\n")
    res = run_machine(looper, frozenset(), 1000)
    assert not res.halted
    assert res.final.head == 1000


def out_degree(graph, q):
    return sum(1 for e in graph.edges if e.state == q)


def first_betti_number(graph):
    """E - V + number of weakly connected components."""
    parent = {v: v for v in graph.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in graph.edges:
        ra, rb = find(e.state), find(e.target)
        if ra != rb:
            parent[ra] = rb
    components = len({find(v) for v in graph.vertices})
    return len(graph.edges) - len(graph.vertices) + components


def test_build_graph_counts():
    m = parse_machine(REV_MOVE)
    g = build_graph(m)
    assert len(g.vertices) == 2
    assert len(g.edges) == 2
    assert out_degree(g, "A") == 2
    assert out_degree(g, "H") == 0
    assert g.in_degree("A") == 1

    single = parse_machine(
        "states: A H\ninitial: A\nhalting: H\nA 0 -> A 1 R\nA 1 -> A 0 R\n")
    gs = build_graph(single)
    assert out_degree(gs, "A") == 2

    three = parse_machine(
        "states: P Q H\ninitial: P\nhalting: H\n"
        "P 1 -> P 1 R\nP 0 -> Q 0 L\nQ 1 -> Q 1 L\nQ 0 -> H 0 L\n")
    gt = build_graph(three)
    assert len(gt.vertices) == 3
    assert len(gt.edges) == 4


def test_betti_number():
    m = parse_machine(REV_MOVE)
    # 2 edges, 2 vertices, 1 component -> one independent cycle (the self loop)
    assert first_betti_number(build_graph(m)) == 1


def test_check_reversible_rev_move():
    assert check_reversible(parse_machine(REV_MOVE)) is None


def test_check_reversible_same_write_shift_collision():
    m = parse_machine(
        "states: A B H\ninitial: A\nhalting: H\n"
        "A 0 -> B 0 R\nA 1 -> B 0 R\nB 0 -> H 0 R\nB 1 -> H 1 R\n")
    w = check_reversible(m)
    assert w is not None
    assert {w.first.read, w.second.read} == {0, 1}
    assert w.first.target == "B"


def test_check_reversible_distinct_writes_ok():
    m = parse_machine(
        "states: A B H\ninitial: A\nhalting: H\n"
        "A 0 -> B 0 R\nA 1 -> B 1 R\nB 0 -> H 0 R\nB 1 -> H 1 R\n")
    assert check_reversible(m) is None


def test_check_reversible_opposite_shifts_collide():
    # Both transitions enter B, one moving right and one moving left; a
    # tape matching both written cells yields two distinct predecessors.
    m = parse_machine(
        "states: A B H\ninitial: A\nhalting: H\n"
        "A 0 -> B 0 R\nA 1 -> B 1 L\nB 0 -> H 0 R\nB 1 -> H 1 R\n")
    w = check_reversible(m)
    assert w is not None
    assert brute_force_reversible(m) is not None


def _random_machine(rng, n_states):
    names = [chr(ord("A") + i) for i in range(n_states)] + ["H"]
    delta = {}
    for q in names[:-1]:
        for a in (0, 1):
            delta[(q, a)] = (rng.choice(names), rng.randint(0, 1),
                             rng.choice((-1, +1)))
    return Machine(states=tuple(names), initial=names[0],
                   halting=frozenset({"H"}), delta=delta).validate()


def test_checker_agrees_with_brute_force():
    rng = random.Random(2024)
    reversible_seen = nonreversible_seen = 0
    for _ in range(50):
        m = _random_machine(rng, rng.randint(1, 3))
        verdict = check_reversible(m) is None
        oracle = brute_force_reversible(m, bound=2) is None
        assert verdict == oracle, m.delta
        reversible_seen += verdict
        nonreversible_seen += not verdict
    assert reversible_seen and nonreversible_seen


def test_brute_force_exhaustive_injectivity_of_rev_move():
    m = parse_machine(REV_MOVE)
    assert brute_force_reversible(m, bound=3) is None


@pytest.mark.parametrize("w", range(2, 11))
def test_counter_ring_is_reversible_and_cycles_through_every_count(w):
    # 2w + ceil(w/2) states, reversible by construction, and from the empty
    # tape the launch first recurs after 4 (2^w - 1) steps, never halting,
    # the head within -1..w-1; run_machine lands on it after that many
    machine = counter_ring(w)
    assert check_reversible(machine) is None
    assert len(machine.states) == 2 * w + (w + 1) // 2
    launch = ComputationState(frozenset(), machine.initial, 0)
    conf, steps = step(machine, launch), 1
    while conf != launch:
        assert not machine.is_halting(conf.state) and -1 <= conf.head < w
        conf, steps = step(machine, conf), steps + 1
    period = 4 * (2 ** w - 1)
    assert steps == period
    assert run_machine(machine, frozenset(), period) == (False, launch, period)
