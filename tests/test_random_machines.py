"""Seeded random reversible machines (``zoo.random_reversible``) through the
whole chain: the reversibility criterion and its brute-force oracle,
compile, the layout check, lockstep equivalence, the exact trace and a
table file's round trip; a one-transition edit that breaks reversibility
is refused.  They also give the nearest-hit query its scaling gate: the
walls one leg weighs, counted, must not grow with the table."""

import random

import pytest

from carom.machine import brute_force_reversible, check_reversible, parse_tape
from carom.simulate import run_numeric, verify_equivalence
from carom.table import NotReversible, compile_table, load_table
from carom.zoo import random_reversible

TAPES = ("@", "@1", "1@01", "@0110", "11@1")


@pytest.mark.parametrize("seed", range(12))
def test_random_machines_run_the_whole_chain(seed):
    rng = random.Random(seed)
    machine = random_reversible(rng, 1 + seed % 8)
    assert check_reversible(machine) is None and brute_force_reversible(machine) is None
    table = compile_table(machine, 6)
    assert table.verify_layout() > 0
    tapes = [parse_tape(literal) for literal in TAPES]
    report = verify_equivalence(machine, table, tapes, 30)
    assert report.passed, report.first_divergence
    for tape in tapes:
        # the exact trace replays the symbolic run, every checkpoint exact
        res = run_numeric(table, tape, 30)
        assert res.max_deviation == 0.0
        assert len(res.outcome.crossings) == res.outcome.steps + 1
    assert load_table(table.to_json()).to_json() == table.to_json()
    # one transition copied onto another: two transitions into one state
    # with one shift now write one symbol, and compile refuses the machine
    edited = dict(machine.delta)
    first, second = rng.sample(sorted(edited), 2)
    edited[first] = edited[second]
    broken = type(machine)(machine.states, machine.initial, machine.halting, edited,
                           name="broken")
    with pytest.raises(NotReversible):
        compile_table(broken, 6)


def test_a_leg_weighs_no_more_on_a_larger_table():
    # the nearest-hit query's scaling gate, as a count, which cannot flake
    # with the host's speed: the most walls one leg weighs tracing a
    # seeded 128-state table is at most twice a 4-state table's
    most = {}
    for n in (4, 128):
        table = compile_table(random_reversible(random.Random(n), n), 8)
        runs = [run_numeric(table, parse_tape(literal), 40) for literal in TAPES]
        assert sum(res.outcome.steps for res in runs) >= 20
        most[n] = max(res.max_candidates for res in runs)
    assert 0 < most[128] <= 2 * most[4], most
