"""Exact planar primitives for billiard scenes.

Coordinates are Fractions throughout.  Walls are straight segments (any
rational slope) or parabola arcs with a vertical axis; grid routing keeps
every arc axis-aligned, so no other curve type is needed.  Segment
intersection is decided exactly; pairs involving an arc fall back to a
conservative bounding-box test (see ``walls_clash``).  One ``Chart`` type
describes every place a coordinate is read off a line: gadget ports,
station checkpoints and the launch pad, the last two (when hard) also
walls.  The numeric tracer in ``numeric`` re-derives reflections exactly
and is checked against the exact transfer maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property


Point = tuple  # (Fraction, Fraction)


@dataclass(frozen=True)
class Segment:
    """Straight wall between two exact endpoints."""

    p0: Point
    p1: Point
    wall_id: str

    def __post_init__(self):
        if self.p0 == self.p1:
            raise ValueError(f"degenerate segment {self.wall_id}")

    @property
    def kind(self):
        return "segment"

    def bbox(self):
        (x0, y0), (x1, y1) = self.p0, self.p1
        return (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))

    def translated(self, dx, dy):
        return Segment((self.p0[0] + dx, self.p0[1] + dy),
                       (self.p1[0] + dx, self.p1[1] + dy), self.wall_id)


@dataclass(frozen=True)
class ParabolaArc:
    """Arc of y = apex_y + sign * (x - axis_x)**2 / (4 p), x in [x_lo, x_hi].

    sign +1 opens upward, -1 downward.  The focus sits at
    (axis_x, apex_y + sign * p).
    """

    axis_x: Fraction
    apex_y: Fraction
    p: Fraction
    sign: int
    x_lo: Fraction
    x_hi: Fraction
    wall_id: str

    def __post_init__(self):
        if self.p <= 0 or self.sign not in (-1, 1) or self.x_lo >= self.x_hi:
            raise ValueError(f"degenerate arc {self.wall_id}")

    @property
    def kind(self):
        return "parabola_arc"

    def y_at(self, x):
        return self.apex_y + self.sign * (x - self.axis_x) ** 2 / (4 * self.p)

    def bbox(self):
        ys = [self.y_at(self.x_lo), self.y_at(self.x_hi)]
        if self.x_lo < self.axis_x < self.x_hi:
            ys.append(self.apex_y)
        return (self.x_lo, min(ys), self.x_hi, max(ys))

    def translated(self, dx, dy):
        return replace(self, axis_x=self.axis_x + dx, apex_y=self.apex_y + dy,
                       x_lo=self.x_lo + dx, x_hi=self.x_hi + dx)


@dataclass(frozen=True)
class Chart:
    """A transverse chart: where gadgets join, checkpoints are read and the
    launch pad sits.

    chart(u) = origin + u * tangent; the window [lo, hi] is the coordinate
    range beams may occupy, and ``beam`` is the crossing direction of
    forward trajectories (both unit and axis-aligned, perpendicular).  Two
    gadgets are connected by making their port charts literally identical.
    ``hard`` marks a chart that is also a wall, ``wall``, with the id
    "wall:<name>": the halt checkpoint, on which a ray bounces
    orthogonally, and the launch pad.
    """

    origin: Point
    tangent: Point
    beam: Point
    lo: Fraction = Fraction(0)
    hi: Fraction = Fraction(1)
    name: str = ""
    hard: bool = False

    def chart(self, u):
        return (self.origin[0] + u * self.tangent[0],
                self.origin[1] + u * self.tangent[1])

    @cached_property
    def wall(self):
        """The segment over the window that a hard chart bounces on."""
        return Segment(self.chart(self.lo), self.chart(self.hi), f"wall:{self.name}")


class Leg:
    """One straight flight of a ray: origin + t * direction for
    0 <= t <= t_max, or the whole ray when t_max is None.

    Exact, like the walls it is queried against (``_BlockMirrors.walls_in``),
    which decides every block window on its exact values.  ``floats`` is
    (x, y, dx, dy, t_max) in floats, t_max inf for a whole ray, each within
    a few units in the last place of its exact value relative to the
    coordinates involved: the input of the float pre-rejects alone, which
    only drop what the leg cannot reach.
    A query places a leg in a gadget's frame where it reads it; the leg
    itself is never moved.
    """

    __slots__ = ("origin", "direction", "t_max", "floats")

    def __init__(self, origin, direction, t_max=None, floats=None):
        self.origin, self.direction, self.t_max = origin, direction, t_max
        if floats is None:
            floats = (float(origin[0]), float(origin[1]),
                      float(direction[0]), float(direction[1]),
                      math.inf if t_max is None else float(t_max))
        self.floats = floats


def _orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def segments_intersect(s1, s2):
    """Exact closed-segment intersection test."""
    a, b, c, d = s1.p0, s1.p1, s2.p0, s2.p1
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True

    def on(p, q, r):  # r collinear with pq, inside bbox
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and
                min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    if o1 == 0 and on(a, b, c):
        return True
    if o2 == 0 and on(a, b, d):
        return True
    if o3 == 0 and on(c, d, a):
        return True
    if o4 == 0 and on(c, d, b):
        return True
    return False


def bboxes_disjoint(b1, b2):
    return b1[2] < b2[0] or b2[2] < b1[0] or b1[3] < b2[1] or b2[3] < b1[1]


def walls_clash(w1, w2):
    """Exact where cheap, conservative otherwise.

    Segment/segment is exact; anything involving an arc falls back to
    bounding boxes (a disjoint verdict is certain, overlap is only
    'possible'), which the layout avoids by spacing cells.
    """
    if bboxes_disjoint(w1.bbox(), w2.bbox()):
        return False
    if w1.kind == "segment" and w2.kind == "segment":
        return segments_intersect(w1, w2)
    return True
