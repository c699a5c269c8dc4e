#!/usr/bin/env python3
"""Per-leg cost of the exact trace against machine size.

Seeded random reversible machines (``zoo.random_reversible``) of 4, 16, 64
and 128 working states are compiled at K=8 and traced on the same seeded
tapes.  Per table it prints its static walls, the CPU time of
``compile_table`` (placing every wall and chart, in integers), the CPU
time to build its trace scene (the ray index, once per table; the first table's also fills
the per-key level records the others share), the legs traced, the CPU time
per traced leg (``run_numeric`` process time, its symbolic run included,
the least of three passes over the tapes after a first that fills the
index's lazily sorted strips), the same less the least CPU of three
``run_symbolic`` passes on the same tapes (``trace us/leg``: the bounce
layer alone) and ``max_candidates``,
the most walls one leg weighed exactly.  None of the last three should
grow with the table: a leg walks the scene's ray index only up to its
nearest hit.  ``fresh ms`` is what one traced tape costs on a table of its
own: the least CPU of three passes that each compile a fresh table, build
its trace scene and run ``run_numeric`` on the first tape, the cost a
``carom run``, ``verify`` or ``svg`` pays before and while its first leg is
traced.
"""

import random
import time

from carom.simulate import run_numeric, run_symbolic
from carom.table import compile_table
from carom.zoo import random_reversible

TAPES = 12
BUDGET = 40
PASSES = 3

rng = random.Random(1)
tapes = [frozenset(i for i in range(-3, 4) if rng.random() < 0.5) for _ in range(TAPES)]


def least_cpu(run, table):
    """The least process time of PASSES passes of ``run`` over the tapes."""
    times = []
    for _ in range(PASSES):
        start = time.process_time()
        for tape in tapes:
            run(table, tape, BUDGET)
        times.append(time.process_time() - start)
    return min(times)


def fresh_cpu(machine):
    """The least process time of PASSES fresh tables of ``machine``, each
    compiled, its trace scene built and the first tape traced."""
    times = []
    for _ in range(PASSES):
        start = time.process_time()
        table = compile_table(machine, 8)
        table.trace_scene
        run_numeric(table, tapes[0], BUDGET)
        times.append(time.process_time() - start)
    return min(times)


print(f"{'states':>6} {'walls':>6} {'compile ms':>10} {'index ms':>8} {'legs':>5} "
      f"{'us/leg':>7} {'trace us/leg':>12} {'max_candidates':>14} {'fresh ms':>8}")
for n in (4, 16, 64, 128):
    machine = random_reversible(random.Random(n), n)
    start = time.process_time()
    table = compile_table(machine, 8)
    compiled = time.process_time() - start
    start = time.process_time()
    table.trace_scene
    build = time.process_time() - start
    legs = most = 0
    for tape in tapes:
        res = run_numeric(table, tape, BUDGET)
        # a closed orbit traces its launch leg, one period and the return
        legs += len(res.points) - 1 if res.period_bounces is None else res.period_bounces + 1
        most = max(most, res.max_candidates)
    cpu, symbolic = least_cpu(run_numeric, table), least_cpu(run_symbolic, table)
    print(f"{n:>6} {len(table.static_walls):>6} {1e3 * compiled:>10.1f} {1e3 * build:>8.1f} {legs:>5} "
          f"{1e6 * cpu / legs:>7.0f} {1e6 * (cpu - symbolic) / legs:>12.0f} {most:>14} "
          f"{1e3 * fresh_cpu(machine):>8.1f}")
