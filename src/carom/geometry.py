"""Exact planar primitives for billiard scenes.

A wall is an integer record over one denominator: a straight ``Segment``
(any rational slope) or a ``ParabolaArc`` with a vertical axis; grid
routing keeps every arc axis-aligned, so no other curve type is needed.
The tracer, the layout check and the table file read the records as they
are; their ``Fraction`` views (``p0``, ``axis_x``, ``bbox``, ...) serve the
rest.  Segment intersection is decided exactly; pairs involving an arc
fall back to a conservative bounding-box test (see ``walls_clash``).  One
``Chart`` record, over one denominator too, describes every place a
coordinate is read off a line: gadget ports, station checkpoints and the
launch pad, the last two (when hard) also walls.  A ray's ``Leg`` is an
integer record as well.  The numeric tracer in ``numeric`` reads every
record as it is, re-derives reflections exactly and is checked against the
exact transfer maps.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

_numerator, _denominator = operator.attrgetter("numerator"), operator.attrgetter("denominator")

#: A record of a tuple of its fields, made by tuple.__new__ in C, where the
#: NamedTuple's own constructor is Python code.
_new = tuple.__new__


def integers(*values):
    """(den, n_0, n_1, ...): the rationals ``values`` over their least
    common denominator; ints, and Fractions over 1, as they are."""
    den = math.lcm(*map(_denominator, values))
    if den == 1:
        return (1, *map(_numerator, values))
    return (den, *[v.numerator * (den // v.denominator) for v in values])


def _ratio(i):
    """The view of a record's field i over its den, field 0, as a Fraction."""
    return property(lambda wall: Fraction(wall[i], wall[0]))


class Segment(NamedTuple):
    """Straight wall from (x0, y0) / den to (x1, y1) / den, den > 0.

    A mirror row is built by its fields; every other segment by ``of``,
    over its ends' least common denominator."""

    den: int
    x0: int
    y0: int
    x1: int
    y1: int
    wall_id: str

    kind = "segment"

    @classmethod
    def of(cls, p0, p1, wall_id):
        """The segment between the rational points p0 and p1."""
        if p0 == p1:
            raise ValueError(f"degenerate segment {wall_id}")
        return cls(*integers(*p0, *p1), wall_id)

    p0 = property(lambda s: (Fraction(s.x0, s.den), Fraction(s.y0, s.den)))
    p1 = property(lambda s: (Fraction(s.x1, s.den), Fraction(s.y1, s.den)))

    def bbox(self):
        (x0, y0), (x1, y1) = self.p0, self.p1
        return (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))

    def translated(self, dx, dy):
        """The segment moved by (dx, dy), over den times the least common
        denominator of dx and dy: the same den for an integer move."""
        e, ex, ey = integers(dx, dy)
        den, x0, y0, x1, y1, wall_id = self
        ex, ey = ex * den, ey * den
        return _new(Segment, (den * e, x0 * e + ex, y0 * e + ey, x1 * e + ex, y1 * e + ey,
                              wall_id))


class ParabolaArc(NamedTuple):
    """Arc of y = apex_y + sign * (x - axis_x)**2 / (4 p), x in [x_lo, x_hi],
    with axis_x, apex_y, p, x_lo and x_hi the integers axis, apex, focal, lo
    and hi over den > 0.

    sign +1 opens upward, -1 downward.  The focus sits at
    (axis_x, apex_y + sign * p).  Built by ``of``.
    """

    den: int
    axis: int
    apex: int
    focal: int
    sign: int
    lo: int
    hi: int
    wall_id: str

    kind = "parabola_arc"

    @classmethod
    def of(cls, axis_x, apex_y, p, sign, x_lo, x_hi, wall_id):
        """The arc of these rationals, over their least common denominator."""
        if p <= 0 or sign not in (-1, 1) or x_lo >= x_hi:
            raise ValueError(f"degenerate arc {wall_id}")
        den, axis, apex, focal, lo, hi = integers(axis_x, apex_y, p, x_lo, x_hi)
        return cls(den, axis, apex, focal, sign, lo, hi, wall_id)

    axis_x, apex_y, p, x_lo, x_hi = _ratio(1), _ratio(2), _ratio(3), _ratio(5), _ratio(6)

    def y_at(self, x):
        return self.apex_y + self.sign * (x - self.axis_x) ** 2 / (4 * self.p)

    def bbox(self):
        ys = [self.y_at(self.x_lo), self.y_at(self.x_hi)]
        if self.lo < self.axis < self.hi:
            ys.append(self.apex_y)
        return (self.x_lo, min(ys), self.x_hi, max(ys))

    def translated(self, dx, dy):
        """The arc moved by (dx, dy), as ``Segment.translated``."""
        e, ex, ey = integers(dx, dy)
        den, axis, apex, focal, sign, lo, hi, wall_id = self
        ex, ey = ex * den, ey * den
        return _new(ParabolaArc, (den * e, axis * e + ex, apex * e + ey, focal * e, sign,
                                  lo * e + ex, hi * e + ex, wall_id))


class Chart(NamedTuple):
    """A transverse chart: where gadgets join, checkpoints are read and the
    launch pad sits.  Built by ``of``.

    chart(u) = origin + u * tangent, the origin (ox, oy) / den; the window
    [u0, u1] / den, den > 0, is the coordinate range beams may occupy, and
    ``beam`` is the crossing direction of forward trajectories (both
    integer, unit and axis-aligned, perpendicular).  Two gadgets are
    connected by making their port charts literally identical.  ``hard``
    marks a chart that is also a wall, ``wall``, with the id
    "wall:<name>": the halt checkpoint, on which a ray bounces
    orthogonally, and the launch pad.
    """

    den: int
    ox: int
    oy: int
    u0: int
    u1: int
    tangent: tuple
    beam: tuple
    name: str = ""
    hard: bool = False

    kind = "chart"

    @classmethod
    def of(cls, origin, tangent, beam, lo=0, hi=1, name="", hard=False):
        """The chart of these rationals, over their least common denominator."""
        return _new(cls, (*integers(*origin, lo, hi), tuple(map(int, tangent)),
                          tuple(map(int, beam)), name, hard))

    origin = property(lambda c: (Fraction(c.ox, c.den), Fraction(c.oy, c.den)))
    lo, hi = _ratio(3), _ratio(4)

    def chart(self, u):
        """The point at the rational u, in Fractions."""
        x, y, w = self.point(u.numerator, u.denominator)
        return Fraction(x, w), Fraction(y, w)

    def point(self, n, m):
        """(x, y, w), w = den m: the point (x, y) / w at u = n / m, m > 0."""
        (tx, ty), den = self.tangent, self.den
        return self.ox * m + n * tx * den, self.oy * m + n * ty * den, den * m

    def u_at(self, xyw):
        """(U, V), V > 0: the coordinate U / V of the point (x, y) / w."""
        x, y, w = xyw
        (tx, ty), den = self.tangent, self.den
        return (x * den - self.ox * w) * tx + (y * den - self.oy * w) * ty, den * w

    @property
    def wall(self):
        """The segment over the window that a hard chart bounces on."""
        (tx, ty), ox, oy, u0, u1 = self.tangent, self.ox, self.oy, self.u0, self.u1
        return Segment(self.den, ox + u0 * tx, oy + u0 * ty, ox + u1 * tx, oy + u1 * ty,
                       f"wall:{self.name}")


class Leg(NamedTuple):
    """One straight flight of a ray, in integers: from the ``origin`` (x, y,
    w), w > 0, along the ``direction`` (dx, dy), (x + t dx, y + t dy) / w
    for 0 <= t <= n / m, ``t_max`` (n, m), m > 0, or the whole ray when
    t_max is None."""

    origin: tuple
    direction: tuple
    t_max: tuple | None

    @classmethod
    def of(cls, origin, direction, t_max=None):
        """The leg from the rational point ``origin`` along the rational
        ``direction`` for 0 <= t <= t_max, along its primitive integer
        multiple, t_max scaled to keep the segment."""
        (w, x, y), (s, dx, dy) = integers(*origin), integers(*direction)
        g = math.gcd(dx, dy)        # the direction times s / g is (dx, dy) / g
        return cls((x, y, w), (dx // g, dy // g),
                   None if t_max is None else (Fraction(t_max) * g / s).as_integer_ratio())


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
