"""Numeric ray tracing: run_numeric and GadgetTracer.

run_numeric re-traces a symbolic run (``simulate.run_symbolic``) by exact
specular reflection over the placed walls, in integers, and must
reproduce its event stream with every checkpoint at exactly its symbolic
value: this certifies that the geometry implements the transfer maps.
Every hit a leg weighs is decided by the integer tests.  Floats only
choose what a leg weighs, by position: each leg walks one index of the
scene's boxes (the static walls, the charts and each mirror family's
level regions) from its origin, clipped exactly to the scene first, and
stops once the next box lies past its nearest hit; they drop only walls
the leg cannot reach before it.  An arc met at an irrational point is
compared with the rational hits exactly, in Q(sqrt D); a trace whose next
hit is irrational raises TracingError.

A leg pays for its hit tests and little else: ``_Walls.nearest`` keeps
the nearest hit, the runner-up and the walk's bound as locals of one loop
over the walk; a leg along one strip, as most are, walks it with no set
of the boxes met; the wall the leg leaves is counted but not tested again;
an arc's rational root is read off integer signs; and a region's blocks
are listed from the Cantor indices in its integer window
(``encoding.blocks_in``).
``demos/05_machine_size.py`` reads 20 / 23 / 23 / 24.5 us of CPU per
traced leg without its symbolic run, against 27 / 28.5 / 30 / 31 before
this loop, on 4- / 16- / 64- / 128-state tables (medians of 16
alternating runs on a shared 2-core host, CPython 3.11).

What a trace reads is per key or per table.  A mirror family's index
(``_family_index``) is one per family key, shared across tables; a
table's ``TraceScene`` is its own: one float box per static wall and
chart and one per family, filed in one ray index on its first
run_numeric, each strip's lane sorted the first time a leg walks it.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .gadgets import _exact_leg, _family_levels
from .simulate import (
    Periodic,
    RunOutcome,
    TraceMismatch,
    TracingDegeneracy,
    TracingError,
    run_symbolic,
)


@dataclass
class NumericResult:
    outcome: RunOutcome            # the verified symbolic outcome
    max_deviation: float           # 0.0: every checkpoint reads its exact value
    deviations: Periodic           # per checkpoint crossing, each 0.0
    points: list                   # polyline of traced positions (floats); a
                                   # Periodic for a closed orbit
    walls_built: int = 0           # distinct walls materialized
    max_candidates: int = 0        # walls one leg weighed exactly
    denominator_bits: int = 0      # bits of the largest common denominator of a leg
    period_bounces: int | None = None   # hits per period of an exactly closed orbit


def _float_pt(xyw):
    """The point (x, y) / w of ``xyw`` in floats, each correctly rounded."""
    x, y, w = xyw
    return (x / w, y / w)


# --- exact hits ---------------------------------------------------------------
#
# A leg runs from the point (x / w, y / w), ``xyw``, along an integer
# direction d.  A wall's hit test, read off its record as it is, returns t =
# n / m as (n, m, corner), m > 0, corner whether the hit lies on an end of
# the wall, compared by cross-multiplication (_before), or an arc's
# irrational root as a surd (a, b, D, m), t = (a + b sqrt(D)) / m, compared
# by sign tests (_surd_sign).

def _surd_sign(a, b, d):
    """The sign of a + b sqrt(d), for integers a, b and a d > 0 that is not
    a square where b != 0: where a and b differ in sign, a^2 against b^2 d
    (never equal, as sqrt(d) is irrational)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * d else sb


def _before(t, u):
    """Whether the rational t comes before u."""
    return t[0] * u[1] < u[0] * t[1]


def _seg_hit(wall, xyw, d):
    """The exact t > 0 at which the ray from ``xyw`` along d meets the
    Segment ``wall`` (den, x0, y0, x1, y1, id), ends included."""
    den, x0, y0, x1, y1, _ = wall
    x, y, w = xyw
    dx, dy = d
    rx, ry = x0 * w - x * den, y0 * w - y * den     # (x0, y0) - origin, over den w
    ex, ey = x1 - x0, y1 - y0
    dd = dx * ey - dy * ex
    nt, ns = rx * ey - ry * ex, rx * dy - ry * dx    # t = nt / (den w dd), s = ns / (w dd)
    if dd < 0:
        dd, nt, ns = -dd, -nt, -ns
    if not dd or nt <= 0 or ns < 0 or ns > w * dd:
        return None
    return nt, den * w * dd, ns in (0, w * dd)


def _arc_hit(wall, xyw, d):
    """The exact least t > 0 at which the ray meets the ParabolaArc ``wall``
    (q, a, b, p, sign, lo, hi, id), y = b / q + sign (x - a / q)^2 q / 4p
    over lo / q <= x <= hi / q, ends included.  With t = tau / qw, 4p (y -
    apex_y) - sign (x - axis_x)^2 along the ray is (qa tau^2 + qb tau + qc)
    / (qw)^2."""
    q, a, b, p, sign, lo, hi, _ = wall
    x, y, w = xyw
    dx, dy = d
    u, v = x * q - a * w, y * q - b * w
    qa, qb = -sign * dx * dx, 4 * p * w * dy - 2 * sign * u * dx
    qc = 4 * p * w * v - sign * u * u
    lo, hi = x * q - lo * w, hi * w - x * q       # x - x_lo and x_hi - x at t = 0, over w
    if qa:
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            return None
        m, r, mid = 2 * abs(qa), math.isqrt(disc), -qb if qa > 0 else qb
        roots = ((mid - r, 0), (mid + r, 0)) if r * r == disc else ((mid, -1), (mid, 1))
    else:       # dx = 0 and dy != 0: the ray runs along x = x / w
        disc, m, roots = 0, abs(qb), ((-qc if qb > 0 else qc, 0),)
    for n, s in roots:      # tau = (n + s sqrt(disc)) / m, ascending
        if not s:       # a rational root: signs of integers
            ends = (lo * m + n * dx, hi * m - n * dx)
            if n > 0 and min(ends) >= 0:
                return n, m * q * w, 0 in ends
            continue
        ends = (_surd_sign(lo * m + n * dx, s * dx, disc),
                _surd_sign(hi * m - n * dx, -s * dx, disc))
        if _surd_sign(n, s, disc) > 0 and min(ends) >= 0:
            return n, s, disc, m * q * w
    return None


def _chart_hit(chart, xyw, d):
    """(n, m, (U, V)): t = n / m > 0 at which the ray crosses the Chart
    ``chart`` (c, ox, oy, lo, hi, (tx, ty), (bx, by), ...) forwards, d .
    (bx, by) > 0, at u = U / V, V > 0, within 1/2 of its window: origin
    (ox, oy) / c, window [lo, hi] / c, ends included."""
    c, ox, oy, lo, hi, (tx, ty), (bx, by), _, _ = chart
    x, y, w = xyw
    dx, dy = d
    den = dx * bx + dy * by
    if den <= 0:
        return None
    rx, ry = x * c - ox * w, y * c - oy * w      # origin - chart origin, over c w
    n = -rx * bx - ry * by
    if n <= 0:
        return None
    # the crossing minus the chart origin is (rx den + n dx, ry den + n dy)
    # over m = c w den: u / m its tangent component, within [lo - 1/2, hi +
    # 1/2] / c
    u, m = (rx * den + n * dx) * tx + (ry * den + n * dy) * ty, c * w * den
    return (n, m, (u, m)) if (2 * lo - c) * m <= 2 * c * u <= (2 * hi + c) * m else None


#: The exact hit test of each kind of record a leg weighs.
_HITS = {"segment": _seg_hit, "parabola_arc": _arc_hit, "chart": _chart_hit}


def _reflect(d, n):
    """The reflection of d on a wall of normal n, d - 2 (d.n) / (n.n) n, as
    (n.n) d - 2 (d.n) n over its gcd, primitive; None for a graze, d.n = 0."""
    dot, nn = d[0] * n[0] + d[1] * n[1], n[0] * n[0] + n[1] * n[1]
    if not dot:
        return None
    rx, ry = nn * d[0] - 2 * dot * n[0], nn * d[1] - 2 * dot * n[1]
    g = math.gcd(rx, ry)
    return rx // g, ry // g


# --- the walls a leg weighs ---------------------------------------------------

#: A static wall's float box is widened on each side by this fraction of
#: (1 + the magnitude of the coordinate), and a walk reads every box within
#: this fraction of (1 + the magnitude of the scene's box): with coordinates
#: below 10^6 (the demo tables stay within 60), far more than the few units
#: in the last place a float conversion or a float ray is off by.
_BOX_SLACK = 1e-9


def _float_box(wall):
    """(x0, y0, x1, y1), a float box holding the wall or chart: its ends
    and an arc's heights in floats, each a quotient of its integers,
    widened on each side by _BOX_SLACK times (1 + the magnitude of the
    coordinate), which is far more than their rounding.  A chart's
    crossing counts within 1/2 of its window [lo, hi], so its box holds
    the window [lo - 1/2, hi + 1/2]: its ends over 2 den."""
    kind = wall.kind
    if kind == "segment":
        den, x0, y0, x1, y1, _ = wall
        x0, y0, x1, y1 = x0 / den, y0 / den, x1 / den, y1 / den
    elif kind == "chart":
        c, ox, oy, u0, u1, (tx, ty), _, _, _ = wall
        den, lo, hi = 2 * c, 2 * u0 - c, 2 * u1 + c
        x0, y0 = (2 * ox + lo * tx) / den, (2 * oy + lo * ty) / den
        x1, y1 = (2 * ox + hi * tx) / den, (2 * oy + hi * ty) / den
    else:
        q, a, b, p, sign, lo, hi, _ = wall
        axis_x, apex_y, p, x0, x1 = a / q, b / q, p / q, lo / q, hi / q
        y0, y1 = (apex_y + sign * (x - axis_x) ** 2 / (4 * p) for x in (x0, x1))
        if x0 < axis_x < x1:
            y0, y1 = min(y0, y1, apex_y), max(y0, y1, apex_y)
    if x0 > x1:
        x0, x1 = x1, x0
    if y0 > y1:
        y0, y1 = y1, y0
    s = _BOX_SLACK
    return (x0 - s * (1 + abs(x0)), y0 - s * (1 + abs(y0)),
            x1 + s * (1 + abs(x1)), y1 + s * (1 + abs(y1)))


def _normal(wall, xyw):
    """An integer normal of the Segment or ParabolaArc ``wall`` at the
    point ``xyw``, not of unit length."""
    if wall.kind == "segment":
        _, x0, y0, x1, y1, _ = wall
        return (y0 - y1, x1 - x0)
    q, a, _, p, sign, _, _, _ = wall
    # (-sign (x - axis_x) / 2p, 1), times 2pw
    return (-sign * (xyw[0] * q - a * xyw[2]), 2 * p * xyw[2])


#: A _RayIndex spans at most this many strips across each axis.
_STRIPS = 4096


class _RayIndex:
    """Float boxes (x0, y0, x1, y1), each with a payload, filed in strips
    ``size`` wide across each axis and walked along a ray.  A ray at least
    as steep as 45 degrees reads the strips across x it passes, a flatter
    one those across y; in each strip, its ``lane`` for the ray's sense
    lists the boxes in the order the ray reaches their near sides, each
    with the prefix maximum of their far sides, so a walk starts at the
    first box that may reach back to it and stops at the first that lies
    past its bound: the strips are the sorted per-axis intervals of a 1-D
    voxel walk (Amanatides & Woo, 1987)."""

    def __init__(self, entries):
        self.entries = entries        # (x0, y0, x1, y1, payload)
        # per strip axis and sense (0 backwards, 1 forwards): strip ->
        # (prefix max, items)
        self.lanes = (({}, {}), ({}, {}))
        self.box = None
        if not entries:
            return
        x0, y0, x1, y1, _ = zip(*entries)
        self.box = (min(x0), min(y0), max(x1), max(y1))
        extent, size = max(self.box[2] - self.box[0], self.box[3] - self.box[1]), 1.0
        while extent > _STRIPS * size:
            size *= 2
        self.size = size
        self.strips = ({}, {})        # per axis: strip -> entry numbers
        floor = math.floor
        for n, e in enumerate(entries):
            for axis, strips in enumerate(self.strips):
                j, last = floor(e[axis] / size), floor(e[axis + 2] / size)
                while j <= last:
                    strips.setdefault(j, []).append(n)
                    j += 1
        self.span = tuple((min(strips), max(strips)) for strips in self.strips)

    def lane(self, c, sense, j):
        """(prefix max of u1, items (u0, u1, v0, v1, n, payload)) of strip
        j across axis c for a ray of this sense along the other axis: each
        box's extent [u0, u1] along the ray, u counted in its sense, and
        [v0, v1] across it, sorted by u0."""
        a, entries, strip = 1 - c, self.entries, self.strips[c].get(j, ())
        if sense > 0:
            items = [(e[a], e[a + 2], e[c], e[c + 2], n, e[4])
                     for n in strip for e in (entries[n],)]
        else:
            items = [(-e[a + 2], -e[a], e[c], e[c + 2], n, e[4])
                     for n in strip for e in (entries[n],)]
        if len(items) > 1:
            items.sort()        # by n at the latest, which is unique
        pmax, top = [], -math.inf
        for item in items:
            if item[1] > top:
                top = item[1]
            pmax.append(top)
        lane = self.lanes[c][sense > 0][j] = (pmax, items)
        return lane

    def walk(self, o, d, bound, eps):
        """The payload of every box the float ray from ``o`` along ``d``
        meets, all within ``eps``, before the float t ``bound[0]``, each
        once, strip by strip in the order the ray passes them and in each
        by near side.  ``bound`` is read again after each payload, so a
        nearer hit found meanwhile stops the walk sooner."""
        a = 1 if abs(d[1]) >= abs(d[0]) else 0     # the axis the ray runs along
        c = 1 - a
        sense = 1 if d[a] > 0 else -1
        du, uo, vo = sense * d[a], sense * o[a], o[c]
        r, size = d[c] / du, self.size      # r = dv / du, |r| <= 1
        lo, hi = self.span[c]
        # the far side of the index along the ray
        umax = (self.box[a + 2] if sense > 0 else -self.box[a]) + eps
        # the strips within eps of the ray's line, in the order it passes them
        first, last = math.floor((vo - eps) / size), math.floor((vo + eps) / size)
        lanes, back = self.lanes[c][sense > 0], uo - eps
        if not r and first == last:
            # a ray along one strip (88% of numeric-long's legs): the loop
            # below for one strip j, ua = uo and ub = inf, with no set of
            # the boxes met; it is worth +5.7% of numeric-long's throughput
            # (ten alternating pairs with and without it, 2-core VM,
            # CPython 3.11)
            stop = uo + bound[0] * du + eps
            if not lo <= first <= hi or uo > stop or uo > umax:
                return
            pmax, items = lanes.get(first) or self.lane(c, sense, first)
            for u0, u1, v0, v1, _, payload in items[bisect.bisect_left(pmax, back):]:
                if u0 > stop:
                    return
                if u1 >= back and v0 - eps <= vo <= v1 + eps:
                    yield payload
                    stop = uo + bound[0] * du + eps
            return
        if r > 0:
            js = range(max(first, lo), hi + 1)
        elif r < 0:
            js = range(min(last, hi), lo - 1, -1)
        else:
            js = range(max(first, lo), min(last, hi) + 1)
        # a box is filed in each strip it spans: a walk of one strip meets
        # it at most once, one of more keeps the boxes it met
        seen = set() if len(js) > 1 else None
        for j in js:
            if r:   # the u range in which the ray is within eps of strip j
                near, far = (j * size - eps, (j + 1) * size + eps) if r > 0 else (
                    (j + 1) * size + eps, j * size - eps)
                ua, ub = uo + (near - vo) / r, uo + (far - vo) / r + eps
                ua = ua if ua > uo else uo
            else:
                ua, ub = uo, math.inf
            stop = uo + bound[0] * du + eps
            if ua > stop or ua > umax:
                return
            pmax, items = lanes.get(j) or self.lane(c, sense, j)
            end = stop if stop < ub else ub     # no box starts past it
            for u0, u1, v0, v1, n, payload in items[bisect.bisect_left(pmax, ua - eps):]:
                if u0 > end:
                    break
                if u1 < back or seen is not None and n in seen:
                    continue
                if r:
                    # the ray across the box's extent along it, from va to
                    # vb (conditional expressions: min and max cost more)
                    ulo = u0 if u0 > uo else uo
                    uhi = u1 if u1 < stop else stop
                    va, vb = vo + (ulo - uo) * r, vo + ((uhi if uhi > ulo else ulo) - uo) * r
                    if va > vb:
                        va, vb = vb, va
                    if va > v1 + eps or vb < v0 - eps:
                        continue
                elif vo > v1 + eps or vo < v0 - eps:      # va = vb = vo
                    continue
                if seen is not None:
                    seen.add(n)
                yield payload
                stop = uo + bound[0] * du + eps
                end = stop if stop < ub else ub


class _Family:
    """A placed mirror family (_BlockMirrors) as its TraceScene's index
    files it: the family's levels' regions in an index of their own, in the
    family's local frame (``_family_index``), filed in the scene's index
    by their float box placed by the family's frame."""

    kind = "family"

    def __init__(self, mirrors):
        self.mirrors, (oy, sy) = mirrors, mirrors.frame
        self.index = _family_index(*mirrors.key)
        self.base, self.oy, self.sy = float(mirrors.base_x), float(oy), sy
        self.box = None     # None for a family of no levels
        if self.index.box is not None:
            x0, y0, x1, y1 = self.index.box
            y0, y1 = sorted((self.oy + self.sy * y0, self.oy + self.sy * y1))
            self.box = (self.base + x0, y0, self.base + x1, y1)


@functools.lru_cache(maxsize=None)
def _family_index(levels, cell_offset, writes):
    """The _RayIndex of the family of this key (_BlockMirrors.key) in its
    local frame: per level (``_family_levels``), symbol s and wall w, the
    region around that wall over every block, with (level, s, w) as its
    payload.  Families of one key share it, across tables too."""
    return _RayIndex([(*lv.regions[s][w], (lv, s, w))
                      for lv in _family_levels(levels, cell_offset, writes)
                      for s in (0, 1) for w in (0, 1)])


class TraceScene:
    """What a trace reads of a scene alone, built once and read by every
    trace over it: a table's (``BilliardTable.trace_scene``, on its first
    run_numeric) or a gadget's, per out port (GadgetTracer).  It holds the
    ``static`` records, the walls, then the ``charts`` the ray passes
    through; the placed mirror ``families`` (_BlockMirrors); the
    ``halts``, each hard checkpoint by its wall's id; and one ``index``
    (_RayIndex) of the static records' float boxes and each family's box
    (_Family), with ``box``, the least integer box around it all, None
    when the scene is empty.  ``built`` counts the distinct static walls;
    charts count as neither built nor weighed walls."""

    def __init__(self, static_walls, families, charts=(), halts=None):
        self.families = list(families)
        self.halts = halts or {}     # wall id -> the hard checkpoint's Chart
        self.static = list(static_walls) + list(charts)
        self.built = len({w.wall_id for w in static_walls})
        placed = [_Family(mirrors) for mirrors in self.families]
        self.index = _RayIndex([(*_float_box(w), w) for w in self.static]
                               + [(*f.box, f) for f in placed if f.box is not None])
        self.box = None
        if self.index.box is not None:
            x0, y0, x1, y1 = self.index.box
            self.box = (math.floor(x0), math.floor(y0), math.ceil(x1), math.ceil(y1))
            # far more than a float position's error anywhere in the box
            self.eps = _BOX_SLACK * (1 + max(map(abs, self.box)))

    def enter(self, xyw, d):
        """Where the ray from ``xyw``, a point outside ``box``, along d
        starts its walk: (the point where it enters the box in floats, that
        point's exact t (n, m)), clipped exactly in integers; None when the
        ray misses the box."""
        (x, y, w), (x0, y0, x1, y1) = xyw, self.box
        lo, hi = (0, 1), None
        for p, dp, a, b in ((x, d[0], x0, x1), (y, d[1], y0, y1)):
            if not dp:
                if not a * w <= p <= b * w:
                    return None
                continue
            # p / w + t dp meets a and b at t = (a w - p) / (w dp) and
            # (b w - p) / (w dp); in over the one, out over the other
            inside = ((a * w - p, w * dp), (b * w - p, w * dp)) if dp > 0 else (
                (p - b * w, -w * dp), (p - a * w, -w * dp))
            if _before(lo, inside[0]):
                lo = inside[0]
            if hi is None or _before(inside[1], hi):
                hi = inside[1]
        if _before(hi, lo):
            return None
        (n, m), (dx, dy) = lo, d
        return ((x * m + n * dx * w) / (w * m), (y * m + n * dy * w) / (w * m)), lo


class _Walls:
    """The walls one trace sees: its TraceScene's static walls, charts and
    mirror families, chosen per leg by position alone, never by the ids a
    symbolic run predicts, with what this trace read of them.

    A leg walks the scene's index from its origin (``TraceScene.enter``)
    and weighs exactly only what the walk meets before its nearest hit:
    each static wall and chart as it is, and for each family it walks
    into, the family's own index, in whose level regions ``block_rows``
    gives the mirrors of the blocks the leg meets, weighed as they are;
    their ids go into ``mirror_ids``, which count the mirrors the trace
    read."""

    def __init__(self, scene):
        self.scene = scene
        self.mirror_ids = set()
        self.max_candidates = self.denominator_bits = 0

    def nearest(self, xyw, d, exclude):
        """The nearest exact hit of the leg from ``xyw`` along d among the
        walls its walk meets, ``exclude`` left out, each weighed by its
        exact test (``_HITS``): (t, wall, second, irrational, crossings).
        t and ``wall`` are the nearest rational hit's, t = (n, m, corner)
        for n / m (see _seg_hit), both None when there is none; ``second``
        is the runner-up's t; ``irrational`` lists every irrational hit as
        (surd, wall), the surd (a, b, D, m) for (a + b sqrt(D)) / m, which
        _trace compares with t; ``crossings`` lists (t, chart) for every
        chart crossed before the nearest hit, in flight order.

        The walk reads the leg in floats along d / isqrt(d.d) and stops
        once the next box's near side lies past the nearest hit found, read
        in floats from its exact t; a box at that hit, a tie or a corner on
        it, or a nearer irrational arc root is still met.  A family's
        regions are walked as the walk meets the family, and its mirrors
        are weighed in the walk's order, as the static walls are."""
        bits = xyw[2].bit_length()
        if bits > self.denominator_bits:
            self.denominator_bits = bits
        scene, (x, y, w) = self.scene, xyw
        box = scene.box
        if box is None:
            return None, None, None, [], []
        if box[0] * w <= x <= box[2] * w and box[1] * w <= y <= box[3] * w:
            fo, t0 = (x / w, y / w), None
        else:       # the walk starts where the ray enters the box
            start = scene.enter(xyw, d)
            if start is None:
                return None, None, None, [], []
            fo, t0 = start
        eps = scene.eps
        # d / isqrt(d.d) never overflows, and where d.d is a square, as it
        # is on every leg of a trace launched along a unit beam, it is the
        # unit direction, read into the same floats as a unit d would be
        scale = math.isqrt(d[0] * d[0] + d[1] * d[1])
        fd = (d[0] / scale, d[1] / scale)
        t = wall = second = None
        irrational, crossings, weighed, bound = [], [], 0, [math.inf]
        for entry in scene.index.walk(fo, fd, bound, eps):
            kind = entry.kind
            if kind == "family":
                # its regions in its local frame, x from base, y -> sy (y - oy)
                mirrors, leg, sy, hit_of = entry.mirrors, None, entry.sy, _HITS["segment"]
                for lv, s, side in entry.index.walk(
                        (fo[0] - entry.base, sy * (fo[1] - entry.oy)), (fd[0], sy * fd[1]),
                        bound, eps):
                    if leg is None:
                        leg = _exact_leg((xyw, d, t and t[:2]), mirrors.origin)
                    rows = mirrors.block_rows(lv, s, side, leg)
                    weighed += len(rows)
                    for row in rows:
                        self.mirror_ids.add(row.wall_id)
                        if row == exclude:
                            continue
                        hit = hit_of(row, xyw, d)
                        if hit is None:
                            continue
                        # a segment's hit is rational: as below
                        if t is None or hit[0] * t[1] < t[0] * hit[1]:
                            t, wall, second = hit, row, t
                            bound[0] = _float_t(t, t0, scale)
                        elif second is None or hit[0] * second[1] < second[0] * hit[1]:
                            second = hit
                continue
            if kind == "chart":     # crossed, never hit, nor weighed
                hit = _HITS[kind](entry, xyw, d)
                if hit is not None:
                    crossings.append((hit, entry))
                continue
            # the wall the leg leaves is weighed, but its hit left out
            weighed += 1
            if entry == exclude:
                continue
            hit = _HITS[kind](entry, xyw, d)
            if hit is None:
                continue
            if len(hit) > 3:
                irrational.append((hit, entry))
            # _before(hit, t) and _before(hit, second), inline
            elif t is None or hit[0] * t[1] < t[0] * hit[1]:
                t, wall, second = hit, entry, t
                bound[0] = _float_t(t, t0, scale)
            elif second is None or hit[0] * second[1] < second[0] * hit[1]:
                second = hit
        if weighed > self.max_candidates:
            self.max_candidates = weighed
        if crossings:
            if t is not None:
                crossings = [c for c in crossings if _before(c[0], t)]
            if len(crossings) > 1:
                crossings.sort(key=_FLIGHT_ORDER)
        return t, wall, second, irrational, crossings


#: Crossings (t, chart) ordered by t, compared by cross-multiplication.
_FLIGHT_ORDER = functools.cmp_to_key(lambda a, b: a[0][0] * b[0][1] - b[0][0] * a[0][1])


def _float_t(t, t0, scale):
    """The exact t = (n, m) of a hit, less the walk's start t0 (None for
    0), times ``scale``, correctly rounded: the hit's t along the float
    leg; inf past the float range."""
    n, m = t[0], t[1]
    if t0 is not None:
        n, m = n * t0[1] - t0[0] * m, m * t0[1]
    try:
        return n * scale / m
    except OverflowError:
        return math.inf


def _trace(walls, xyw, direction):
    """Exact specular ray trace from the point ``xyw``, (x, y) / w, w > 0,
    along the integer ``direction`` over the _Walls ``walls``: the one
    core behind run_numeric and GadgetTracer.  A leg is carried in
    integers, its origin over one common denominator, in lowest terms, and
    read in floats once (``_Walls.nearest``); the hit that ends it is made
    an integer point by one gcd, and the reflection there by another.

    Per leg, yields ``("cross", chart, None, (U, V), direction)`` for every
    forward crossing of a chart's window at u = U / V, in flight order,
    then ``("hit", wall, point, None, direction)`` for the wall that ends
    the leg, at the point (x, y, w) in lowest terms.
    Raises TracingDegeneracy when two walls are hit at the same t, a hit
    lies on a wall's end or grazes (d.n = 0), and TracingError when the
    ray escapes or its next hit is irrational.
    """
    g, last = math.gcd(*xyw), None
    xyw = tuple(v // g for v in xyw)
    while True:
        best_t, wall, second_t, irrational, crossings = walls.nearest(xyw, direction, last)
        for (a, b, d, m), w in irrational:
            if best_t is None or _surd_sign(a * best_t[1] - best_t[0] * m, b * best_t[1], d) < 0:
                raise TracingError(f"trajectory left the rationals at {w.wall_id}")
        if second_t is not None and not _before(best_t, second_t):
            raise TracingDegeneracy(
                f"two walls hit at once with {wall.wall_id}: geometry bug")
        for (_, _, u), chart in crossings:
            yield "cross", chart, None, u, direction
        if best_t is None:
            raise TracingError("trajectory escaped the scene")
        n, m, corner = best_t
        if corner:
            raise TracingDegeneracy(f"corner hit on {wall.wall_id}")
        (x, y, w), (dx, dy) = xyw, direction
        x, y, w = x * m + n * dx * w, y * m + n * dy * w, w * m
        g = math.gcd(x, y, w)
        xyw = x // g, y // g, w // g
        yield "hit", wall, xyw, None, direction
        direction = _reflect(direction, _normal(wall, xyw))
        if direction is None:
            raise TracingDegeneracy(f"grazing hit on {wall.wall_id}")
        last = wall


class _Closing:
    """The items of ``_trace`` for a run whose launch recurs after
    ``period_steps`` checkpoint crossings, closed by exact return.  From
    the launch leg's first hit on, the items are recorded; the first hit
    after the crossing of step ``period_steps`` is compared with that
    first hit exactly: wall, rational point and primitive incoming
    direction.  Equal, they determine the trace from there, which is then
    the recorded period over and over: the items stop, that hit unyielded,
    and ``record`` holds the period.  Different, the trace goes on and
    ``record`` stays None."""

    def __init__(self, items, period_steps):
        self.items, self.period_steps, self.record = items, period_steps, None

    def __iter__(self):
        record, crossings = [], 0
        for item in self.items:
            if item[0] == "cross":
                crossings += 1
            elif record and crossings >= self.period_steps:
                break
            if record or item[0] == "hit":
                record.append(item)
            yield item
        else:
            return
        if item != record[0]:
            yield item
            yield from self.items
            return
        self.record = record


def run_numeric(table, tape, budget, precision=None):
    """Trace the trajectory by exact specular reflection and verify that it
    replays the symbolic event stream, each checkpoint at exactly its
    symbolic value; returns a NumericResult carrying the symbolic outcome.
    Raises TracingDegeneracy on a tie, a hit on a wall's end or a graze,
    and TraceMismatch when the trace does not replay the symbolic one.
    A run whose launch recurs (``period_steps``) is traced until its orbit
    closes exactly, one period (_Closing), and the rest of it is counted
    out from that period, not checked event by event (``count_out``); its
    points are then the period's, over and over, a Periodic as its trace
    is, so the run costs one period whatever the budget.  The table's
    static walls are read once, into its ``trace_scene``, on its first run.
    ``precision`` is ignored: the trace has no working precision."""
    symbolic = run_symbolic(table, tape, budget)
    expected = symbolic.trace

    walls = _Walls(table.trace_scene)
    halts = walls.scene.halts       # a hit on one of these is a halt bounce
    mark0, value = table.stations[table.machine.initial].checkpoint, expected[0].value
    pos = mark0.point(value.num, 3 ** value.exp)
    direction = (0, 1)

    # ``ev`` is expected[idx], the next event to check, read in order off
    # ``events``; None once every event is checked
    points, idx, events = [pos], 0, iter(expected)
    ev = next(events, None)

    def fail(msg):
        raise TraceMismatch(f"{msg} (event {idx}/{len(expected)})")

    def check_event(kind, key=None, got=None):
        """Check ``ev`` against a traced event of this kind, whose field
        ``key``, if any, reads ``got``, and move on: returns it."""
        nonlocal idx, ev
        if ev is None:
            fail(f"extra event {kind}")
        if ev.kind != kind:
            fail(f"expected {ev.kind}, traced {kind}")
        if key is not None and getattr(ev, key) != got:
            fail(f"{kind}.{key}: expected {getattr(ev, key)}, traced {got}")
        checked, idx, ev = ev, idx + 1, next(events, None)
        return checked

    def note_crossing(mark, d, u):
        # checkpoints are crossed orthogonally: no tangential drift
        if d[0] * mark.tangent[0] + d[1] * mark.tangent[1]:
            fail(f"non-orthogonal crossing of {mark.name}")
        value = check_event("checkpoint", "state", mark.name.split(":", 1)[1]).value
        n, m = u    # n / m against num / 3^exp
        if n * 3 ** value.exp != value.num * m:
            fail(f"checkpoint {mark.name} read {Fraction(n, m)}, not its value {value}")

    def flight_over():
        """Budget spent or the head left the range: nothing more to trace."""
        if ev is not None and ev.kind == "out-of-range":
            check_event("out-of-range")
        return ev is None

    def count_out(record):
        """Account for the rest of a closed orbit as the loop below would,
        the trace being ``record``, L items, over and over, but by count.

        The loop would check record[i mod L] against expected[idx + i] for
        each i below T = len(expected) - idx, then stop at record[T mod L]
        if it is a hit.  Each of those checks passes, by this lemma.
        Every step's events open with its split's reflections, so the
        first item traced, checked against expected[1], was a hit: it is
        record[0], and record[j] passed against expected[1 + j].  Let n
        be the events of one symbolic period, the checkpoint of step
        ``period_steps`` at expected[n]: the crossing checked against it
        is record[n - 1].  The item after it is a hit, or its check
        against expected[n + 1], a copy of the reflection expected[1],
        would have failed: it is the return hit, and L = n.
        The symbolic trace, a Periodic, makes each event from index n on
        a copy of the event n before it: the same kind, wall id and
        state, and the very same value object.  So expected[idx + i] =
        expected[1 + L + i] is, copy by copy, a copy of expected[1 + i mod
        L], which record[i mod L] passed: a hit against the same
        reflection, a crossing against the same state and value, in the
        same direction through the same chart.  No item of ``record`` hits a halt wall or
        meets an out-of-range event, as the loop would have stopped there.

        The lemma says nothing of the tail's length, so one O(1) guard
        remains: record[T mod L] a hit, the tail T // L whole periods and
        a prefix that ends where the loop stops.  Returns (the hits of
        ``record``, the hits of the tail): the tail's hits are the
        period's, over and over, from its first."""
        nonlocal idx
        period, tail = len(record), len(expected) - idx
        whole, rest = divmod(tail, period)
        if record[rest][0] != "hit":
            idx = len(expected) - 1
            fail(f"the closed orbit's tail ends mid-period, on its "
                 f"{expected[idx].kind} of step {expected[idx].step}")
        idx = len(expected)
        hits = sum(item[0] == "hit" for item in record)
        return hits, hits * whole + sum(item[0] == "hit" for item in record[:rest])

    # the trajectory starts on the initial checkpoint
    note_crossing(mark0, direction, mark0.u_at(pos))
    items = _trace(walls, pos, direction)
    period_bounces, tail_hits = None, 0
    if symbolic.period_steps is not None:
        items = closing = _Closing(items, symbolic.period_steps)
    if not flight_over():
        try:
            for kind, obj, point, u, d in items:
                if kind == "cross":
                    note_crossing(obj, d, u)
                    continue
                if (ev is None or ev.kind == "out-of-range") and flight_over():
                    break  # the run ended mid-flight (flight_over's test, inline)
                points.append(point)
                mark = halts.get(obj.wall_id)
                if mark is not None:
                    # the halt checkpoint, a wall along its tangent: an
                    # orthogonal bounce, its crossing, ends the run
                    note_crossing(mark, d, mark.u_at(point))
                    check_event("halt-bounce")
                    break
                check_event("reflection", "wall_id", obj.wall_id)
            else:   # only a closed orbit's items run out
                period_bounces, tail_hits = count_out(closing.record)
        except (TracingDegeneracy, TraceMismatch):
            raise
        except TracingError as err:
            fail(str(err))

    if idx != len(expected):
        fail("numeric trace ended early")
    points = [_float_pt(p) for p in points]
    if period_bounces is not None:
        # the points traced after the launch's are the period's hits
        points = Periodic(points[:1], points[1:], len(points) + tail_hits)
    # a checkpoint per step, the launch's included, each read at its value
    return NumericResult(outcome=symbolic, max_deviation=0.0,
                         deviations=Periodic((), (0.0,), symbolic.steps + 1), points=points,
                         walls_built=walls.scene.built + len(walls.mirror_ids),
                         max_candidates=walls.max_candidates,
                         denominator_bits=walls.denominator_bits,
                         period_bounces=period_bounces)


#: A gadget chains a handful of mirrors; more bounces means a trapped ray.
_GADGET_MAX_REFLECTIONS = 64


class GadgetTracer:
    """Reusable exact ray tracer for one gadget, over its static walls and
    its mirror family, queried by position as in run_numeric: ``trace``
    launches from the in-port chart and returns the out-port coordinate at
    the ray's first forward crossing of the out-port window.  The static
    walls, with that port's chart, are read once per out port, into a
    TraceScene, on its first trace."""

    def __init__(self, gadget):
        self.gadget = gadget
        self.scenes = {}     # out port -> TraceScene

    def trace(self, u_in, in_port="in", out_port="out"):
        """Returns (u_out, wall_ids) with u_out an exact Fraction."""
        g = self.gadget
        scene = self.scenes.get(out_port)
        if scene is None:
            scene = self.scenes[out_port] = TraceScene(
                g.static_walls, () if g.mirrors is None else (g.mirrors,),
                (g.out_ports[out_port],))
        pin = g.in_ports[in_port]
        hits = []
        for kind, obj, _point, u_out, _d in _trace(
                _Walls(scene), pin.point(u_in.num, 3 ** u_in.exp), pin.beam):
            if kind == "cross":
                return Fraction(*u_out), hits
            hits.append(obj.wall_id)
            if len(hits) == _GADGET_MAX_REFLECTIONS:
                raise TracingError(
                    f"gadget trace exceeded {_GADGET_MAX_REFLECTIONS} reflections")
