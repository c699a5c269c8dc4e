#!/usr/bin/env python3
"""Per-leg cost of the exact trace against machine size.

Seeded random reversible machines (``zoo.random_reversible``) of 4, 16, 64
and 128 working states are compiled at K=8 and traced on the same seeded
tapes.  Per table it prints its static walls, the CPU time of
``compile_table`` (placing every wall and chart, in integers), the CPU
time to build its trace scene (the ray index, once per table; the first table's also fills
the per-key level records the others share), the legs traced, the CPU time
per traced leg (``run_numeric`` process time, its symbolic run included,
timed on a second pass over the tapes, once the index's lazily sorted
strips are filled) and ``max_candidates``, the most walls one leg weighed
exactly.  Neither of the last two should grow with the table: a leg walks
the scene's ray index only up to its nearest hit.
"""

import random
import time

from carom.simulate import run_numeric
from carom.table import compile_table
from carom.zoo import random_reversible

TAPES = 12
BUDGET = 40

rng = random.Random(1)
tapes = [frozenset(i for i in range(-3, 4) if rng.random() < 0.5) for _ in range(TAPES)]
print(f"{'states':>6} {'walls':>6} {'compile ms':>10} {'index ms':>8} {'legs':>5} "
      f"{'us/leg':>7} {'max_candidates':>14}")
for n in (4, 16, 64, 128):
    machine = random_reversible(random.Random(n), n)
    start = time.process_time()
    table = compile_table(machine, 8)
    compiled = time.process_time() - start
    start = time.process_time()
    table.trace_scene
    build = time.process_time() - start
    for tape in tapes:
        run_numeric(table, tape, BUDGET)
    legs, most, start = 0, 0, time.process_time()
    for tape in tapes:
        res = run_numeric(table, tape, BUDGET)
        # a closed orbit traces its launch leg, one period and the return
        legs += len(res.points) - 1 if res.period_bounces is None else res.period_bounces + 1
        most = max(most, res.max_candidates)
    cpu = time.process_time() - start
    print(f"{n:>6} {len(table.static_walls):>6} {1e3 * compiled:>10.1f} {1e3 * build:>8.1f} {legs:>5} "
          f"{1e6 * cpu / legs:>7.0f} {most:>14}")
