#!/usr/bin/env python3
"""Render compiled tables to SVG, with a traced trajectory overlaid.

Writes rev-move.svg and walker.svg next to this script.  Walls are black
(parabola arcs are exact quadratic Beziers), checkpoints dashed green,
hard boundary charts dashed red, and the traced beam blue.
"""

import pathlib

from carom.machine import parse_tape
from carom.simulate import run_numeric
from carom.table import compile_table, to_svg
from carom.zoo import get_machine

here = pathlib.Path(__file__).parent

for name, literal, K in [("rev-move", "{2:1}", 4), ("walker", "@11", 4)]:
    machine = get_machine(name)
    table = compile_table(machine, K=K)
    result = run_numeric(table, parse_tape(literal), budget=100)
    svg = to_svg(table, levels=range(-2, 3), trace_points=result.points)
    out = here / f"{name}.svg"
    out.write_text(svg)
    print(f"{out.name}: verdict {result.outcome.verdict}, "
          f"{len(result.points)} traced points, "
          f"{svg.count('<path')} svg paths")
