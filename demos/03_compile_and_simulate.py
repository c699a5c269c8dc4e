#!/usr/bin/env python3
"""Compile a machine to a billiard table and watch the two engines agree.

The symbolic engine pushes the encoded value through exact piecewise
affine transfer maps; the numeric engine re-traces the same trajectory by
specular reflection off the placed walls in exact rationals.  The halting
run ends with an orthogonal bounce, which makes the orbit periodic.
"""

from carom.machine import enumerate_tapes, parse_tape
from carom.simulate import (
    replay_reverse,
    run_numeric,
    run_symbolic,
    verify_equivalence,
)
from carom.table import compile_table
from carom.zoo import get_machine

machine = get_machine("rev-move")
table = compile_table(machine, K=4)
print(f"compiled {machine.name}: {len(table.stations)} stations, "
      f"{len(table.corridors)} corridors, "
      f"{len(table.scene_walls(range(-2, 3)))} walls at 2 levels of detail")

# --- a halting run -------------------------------------------------------------

tape = parse_tape("{2:1}")
out = run_symbolic(table, tape, budget=50)
print(f"\nsymbolic run on {{2:1}}: {out.verdict} in {out.steps} steps, "
      f"head {out.final_head}")
for ev in out.crossings:
    print(f"  step {ev.step}: checkpoint {ev.state} at value {ev.value}")

res = run_numeric(table, tape, budget=50)
print(f"exact numeric trace reproduces all {len(res.outcome.trace)} events; "
      f"every checkpoint reads its exact value")

# --- halting <-> periodicity ----------------------------------------------------

print(f"\nthe halting run's orbit is periodic: {out.periodic}")
back = replay_reverse(table, out)
print(f"time-reversed replay lands exactly on the launch value: {back}")

loop = run_symbolic(compile_table(get_machine("pacer"), K=4), frozenset(), 40)
print(f"pacer run: {loop.verdict}, back at its launch every {loop.period_steps} steps")

# --- exhaustive equivalence -----------------------------------------------------

report = verify_equivalence(machine, table, list(enumerate_tapes(range(-2, 3))),
                            budget=100)
print(f"\nequivalence sweep over {report.tapes_checked} tapes: "
      f"passed={report.passed} verdicts={report.verdicts}")
