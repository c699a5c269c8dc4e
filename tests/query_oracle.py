"""The exact tracer's per-leg query in its earlier, plainer form, kept as
the oracle ``numeric._Walls.nearest`` is checked against.

Here a leg's hits go into a ``Nearest`` that is offered every wall the
walk meets and tests each one, the wall the leg leaves included; each
index is walked by one generator with no special case for a leg along
one strip; an arc's hit is found by sign tests of surds alone; and a
region's mirrors are listed through ``encoding.blocks_in`` and
``_BlockMirrors._segments``, from a window computed axis by axis in a
loop on the leg's extents, also made in a loop.  It reads the same
TraceScene, ray indexes and placed mirror records as the tracer, and
must weigh the same walls, read the same mirrors and find the same hits,
runner-up, irrational roots and crossings.
"""

import bisect
import functools
import math

from carom.encoding import blocks_in
from carom.numeric import (
    _before,
    _chart_hit,
    _float_t as float_t,
    _seg_hit,
    _surd_sign,
)


def arc_hit(wall, xyw, d):
    """The exact least t > 0 at which the ray meets the ParabolaArc
    ``wall``, as numeric._arc_hit returns it, every root's signs found by
    _surd_sign."""
    q, a, b, p, sign, lo, hi, _ = wall
    x, y, w = xyw
    dx, dy = d
    u, v = x * q - a * w, y * q - b * w
    qa, qb = -sign * dx * dx, 4 * p * w * dy - 2 * sign * u * dx
    qc = 4 * p * w * v - sign * u * u
    lo, hi = x * q - lo * w, hi * w - x * q
    if qa:
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            return None
        m, r, mid = 2 * abs(qa), math.isqrt(disc), -qb if qa > 0 else qb
        roots = ((mid - r, 0), (mid + r, 0)) if r * r == disc else ((mid, -1), (mid, 1))
    else:
        disc, m, roots = 0, abs(qb), ((-qc if qb > 0 else qc, 0),)
    for n, s in roots:
        ends = (_surd_sign(lo * m + n * dx, s * dx, disc),
                _surd_sign(hi * m - n * dx, -s * dx, disc))
        if _surd_sign(n, s, disc) > 0 and min(ends) >= 0:
            return (n, s, disc, m * q * w) if s else (n, m * q * w, 0 in ends)
    return None


HITS = {"segment": _seg_hit, "parabola_arc": arc_hit, "chart": _chart_hit}

#: Crossings (t, chart) ordered by t, compared by cross-multiplication.
FLIGHT_ORDER = functools.cmp_to_key(lambda a, b: a[0][0] * b[0][1] - b[0][0] * a[0][1])


class Nearest:
    """The nearest exact hit of the leg from ``xyw`` along d among the
    walls ``offer``ed to it, each weighed exactly.  ``second`` is the
    runner-up's t.  A chart's hit is a crossing, kept in ``crossings``;
    irrational hits are kept in ``irrational``, for the trace to compare
    with t."""

    __slots__ = ("xyw", "direction", "t", "wall", "second", "irrational", "crossings")

    def __init__(self, xyw, d):
        self.xyw, self.direction = xyw, d
        self.t = self.wall = self.second = None
        self.irrational = []      # (surd, wall)
        self.crossings = []       # (t, chart)

    def offer(self, w, exclude):
        """Weigh the record ``w`` unless it equals ``exclude``: whether it
        is the nearest hit now."""
        kind = w.kind
        t = HITS[kind](w, self.xyw, self.direction)
        if t is None or w == exclude:
            return False
        if kind == "chart":
            self.crossings.append((t, w))
        elif len(t) > 3:
            self.irrational.append((t, w))
        elif self.t is None or _before(t, self.t):
            self.t, self.wall, self.second = t, w, self.t
            return True
        elif self.second is None or _before(t, self.second):
            self.second = t
        return False

    def crossed(self):
        """(t, chart) of every crossing before the nearest hit, in flight
        order."""
        crossings, t = self.crossings, self.t
        if t is not None and crossings:
            crossings = [c for c in crossings if _before(c[0], t)]
        return sorted(crossings, key=FLIGHT_ORDER) if len(crossings) > 1 else crossings

    def settled(self):
        """What ``_Walls.nearest`` returns for the same leg: (t, wall,
        second, irrational, crossings)."""
        return self.t, self.wall, self.second, self.irrational, self.crossed()


def walk(index, o, d, bound, eps):
    """The payload of every box of the _RayIndex ``index`` that the float
    ray from ``o`` along ``d`` meets, all within ``eps``, before the float
    t ``bound[0]``, each once, strip by strip in the order the ray passes
    them and in each by near side; ``bound`` is read again after each
    payload."""
    a = 1 if abs(d[1]) >= abs(d[0]) else 0
    c = 1 - a
    sense = 1 if d[a] > 0 else -1
    du, uo, vo = sense * d[a], sense * o[a], o[c]
    r, size = d[c] / du, index.size
    lo, hi = index.span[c]
    umax = (index.box[a + 2] if sense > 0 else -index.box[a]) + eps
    first, last = math.floor((vo - eps) / size), math.floor((vo + eps) / size)
    if r > 0:
        js = range(max(first, lo), hi + 1)
    elif r < 0:
        js = range(min(last, hi), lo - 1, -1)
    else:
        js = range(max(first, lo), min(last, hi) + 1)
    seen = set() if len(js) > 1 else None
    lanes, back = index.lanes[c][sense > 0], uo - eps
    for j in js:
        if r:
            near, far = (j * size - eps, (j + 1) * size + eps) if r > 0 else (
                (j + 1) * size + eps, j * size - eps)
            ua, ub = uo + (near - vo) / r, uo + (far - vo) / r + eps
            ua = ua if ua > uo else uo
        else:
            ua, ub = uo, math.inf
        stop = uo + bound[0] * du + eps
        if ua > stop or ua > umax:
            return
        pmax, items = lanes.get(j) or index.lane(c, sense, j)
        end = stop if stop < ub else ub
        for u0, u1, v0, v1, n, payload in items[bisect.bisect_left(pmax, ua - eps):]:
            if u0 > end:
                break
            if u1 < back or seen is not None and n in seen:
                continue
            if r:
                ulo = u0 if u0 > uo else uo
                uhi = u1 if u1 < stop else stop
                va, vb = vo + (ulo - uo) * r, vo + ((uhi if uhi > ulo else ulo) - uo) * r
                if va > vb:
                    va, vb = vb, va
                if va > v1 + eps or vb < v0 - eps:
                    continue
            elif vo > v1 + eps or vo < v0 - eps:
                continue
            if seen is not None:
                seen.add(n)
            yield payload
            stop = uo + bound[0] * du + eps
            end = stop if stop < ub else ub


def exact_leg(leg, origin):
    """The leg ``leg`` in integers in the local frame of a family placed
    with its ``origin``, as gadgets._exact_leg returns it: its x- and
    y-extents, each a pair of (numerator, denominator) ends, None where
    unbounded, and its line n . p = n0 / h, as (x-extent, y-extent, nx,
    ny, h, n0)."""
    (x, y, w), (dx, dy), t = leg
    bn, bd, on, od, sy = origin
    xd, yd = w * bd, w * od
    xn, yn = x * bd - bn * w, sy * (y * od - on * w)
    dy *= sy
    extents = []
    for a, b, dn in ((xn, xd, dx), (yn, yd, dy)):
        end = (a, b) if not dn else None if t is None else (
            a * t[1] + b * t[0] * dn, b * t[1])
        extents.append(((a, b), end) if dn >= 0 else (end, (a, b)))
    nx, ny = -dy, dx
    if nx + 8 * ny < 0:
        nx, ny = -nx, -ny
    return extents[0], extents[1], nx, ny, xd * yd, nx * xn * yd + ny * yn * xd


def window(lv, s, w, exact):
    """The blocks (F_lo, F_hi) of level ``lv``, symbol s and wall w whose
    boxes meet the leg ``exact``, as gadgets._window returns them."""
    xs, ys, nx, ny, h, n0 = exact
    den, step, x, y, rx, ry = lv.boxes[s][w]
    lo, hi = 0, math.inf
    for (end_lo, end_hi), c, r, gain in ((xs, x, rx, 1), (ys, y, ry, 8)):
        if end_lo is not None:
            a, b = end_lo
            lo = max(lo, -((b * (c + r) - a * den) // (gain * step * b)))
        if end_hi is not None:
            a, b = end_hi
            hi = min(hi, (a * den - b * (c - r)) // (gain * step * b))
    if nx and ny:
        slope = h * step * (nx + 8 * ny)
        m = h * (nx * x + ny * y) - den * n0
        reach = h * (abs(nx) * rx + abs(ny) * ry)
        if slope:
            lo, hi = max(lo, -((reach + m) // slope)), min(hi, (reach - m) // slope)
        elif abs(m) > reach:
            hi = -1
    return lo, hi


def block_rows(mirrors, lv, s, w, exact):
    """Wall w of level ``lv`` and symbol s of the _BlockMirrors ``mirrors``
    over every block whose box meets the leg ``exact``, as Segments, as
    _BlockMirrors.block_rows returns them."""
    return mirrors._segments(s, mirrors._placed(lv.k, lv.digit_pos, s), w,
                             blocks_in(lv.digit_pos - 1, window(lv, s, w, exact)))


class Walls:
    """The walls of a TraceScene as a trace reads them, with what it read
    of them, as numeric._Walls holds them; ``nearest`` returns a Nearest."""

    def __init__(self, scene):
        self.scene = scene
        self.mirror_ids = set()
        self.max_candidates = self.denominator_bits = 0

    def enter(self, xyw, d):
        """(the float origin, None) for a leg in the scene's box, else
        ``TraceScene.enter``."""
        (x, y, w), (x0, y0, x1, y1) = xyw, self.scene.box
        if x0 * w <= x <= x1 * w and y0 * w <= y <= y1 * w:
            return (x / w, y / w), None
        return self.scene.enter(xyw, d)

    def nearest(self, xyw, d, exclude):
        """The Nearest of the leg from ``xyw`` along d, ``exclude`` left
        out: the walls the walk meets, offered in its order."""
        bits = xyw[2].bit_length()
        if bits > self.denominator_bits:
            self.denominator_bits = bits
        scene, found = self.scene, Nearest(xyw, d)
        start = scene.box and self.enter(xyw, d)
        if not start:
            return found
        (fo, t0), eps = start, scene.eps
        scale = math.isqrt(d[0] * d[0] + d[1] * d[1])
        fd = (d[0] / scale, d[1] / scale)
        bound, weighed, offer = [math.inf], 0, found.offer
        for entry in walk(scene.index, fo, fd, bound, eps):
            if entry.kind != "family":
                weighed += entry.kind != "chart"
                if offer(entry, exclude):
                    bound[0] = float_t(found.t, t0, scale)
                continue
            exact, read, mirrors = None, self.mirror_ids.add, entry.mirrors
            local = ((fo[0] - entry.base, entry.sy * (fo[1] - entry.oy)),
                     (fd[0], entry.sy * fd[1]))
            for lv, s, w in walk(entry.index, *local, bound, eps):
                if exact is None:
                    exact = exact_leg((xyw, d, found.t and found.t[:2]), mirrors.origin)
                rows, moved = block_rows(mirrors, lv, s, w, exact), False
                weighed += len(rows)
                for row in rows:
                    read(row.wall_id)
                    moved = offer(row, exclude) or moved
                if moved:
                    bound[0] = float_t(found.t, t0, scale)
        if weighed > self.max_candidates:
            self.max_candidates = weighed
        return found

