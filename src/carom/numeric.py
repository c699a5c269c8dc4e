"""Numeric ray tracing: run_numeric and GadgetTracer.

run_numeric re-traces a symbolic run (``simulate.run_symbolic``) by exact
specular reflection over the placed walls, in Fractions, and must
reproduce its event stream with every checkpoint at exactly its symbolic
value: this certifies that the geometry implements the transfer maps.
Floats only shortlist, as filtered predicates (Shewchuk 1997): a float
test drops only what misses by more than its stated error bound.  An arc
met at an irrational point is compared with the rational hits exactly,
in Q(sqrt D); a trace whose next hit is irrational raises TracingError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .gadgets import row_segment
from .geometry import Leg
from .simulate import (
    PrecisionExhausted,
    RunOutcome,
    TracingDegeneracy,
    TracingError,
    run_symbolic,
)


@dataclass
class NumericResult:
    outcome: RunOutcome            # the verified symbolic outcome
    max_deviation: float           # 0.0: every checkpoint reads its exact value
    deviations: list               # per checkpoint crossing
    points: list                   # polyline of traced positions (floats)
    walls_built: int = 0           # distinct walls materialized
    max_candidates: int = 0        # most walls one leg's float pass weighed
    windows_exact: int = 0         # block windows floats left to exact integers


def _float_pt(p):
    return (float(p[0]), float(p[1]))


# --- exact hits ---------------------------------------------------------------

def _surd_sign(a, b, d):
    """The sign of a + b sqrt(d), for rationals a, b and a d > 0 that is
    not a rational square: where a and b differ in sign, a^2 against b^2 d
    (never equal, as sqrt(d) is irrational)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * d else sb


class _Surd:
    """The irrational root a + b sqrt(d) of an arc's quadratic (b != 0, d
    not a rational square), compared with rationals exactly (_surd_sign)
    and rounded only to shortlist."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a, self.b, self.d = a, b, d

    def __lt__(self, r):
        return _surd_sign(self.a - r, self.b, self.d) < 0

    def __gt__(self, r):
        return _surd_sign(self.a - r, self.b, self.d) > 0

    def __float__(self):
        a, b, d = self.a, self.b, self.d
        n, m = d.numerator, d.denominator
        s = Fraction(math.isqrt(n * m << 128), m << 64)    # sqrt(d), to 2^-64
        if a * b < 0:
            # a and b sqrt(d) cancel: divide a^2 - b^2 d by a - b sqrt(d)
            return float((a * a - b * b * d) / (a - b * s))
        return float(a + b * s)


def _rational_sqrt(q):
    """The square root of the Fraction q >= 0 if it is rational, else None."""
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    return Fraction(rn, rd) if rn * rn == n and rd * rd == d else None


def _seg_hit(data, origin, direction):
    """The exact t > 0 at which the ray origin + t direction meets the
    segment ``data`` ((x0, y0), (x1, y1)), ends included, or None."""
    (x0, y0), (x1, y1) = data
    rx, ry = x0 - origin[0], y0 - origin[1]
    dx, dy = direction
    ex, ey = x1 - x0, y1 - y0
    den = dx * ey - dy * ex
    nt, ns = rx * ey - ry * ex, rx * dy - ry * dx    # t = nt / den, s = ns / den
    if den < 0:
        den, nt, ns = -den, -nt, -ns
    if not den or nt <= 0 or ns < 0 or ns > den:
        return None
    return nt / den


def _arc_quadratic(data, origin, direction):
    """(qa, qb, qc): F(origin + t direction) = qa t^2 + qb t + qc for the
    arc's F(x, y) = y - apex_y - sign (x - axis_x)^2 / 4p."""
    axis_x, apex_y, p, sign, _, _ = data
    dx, dy = direction
    c = sign / (4 * p)
    rel = origin[0] - axis_x
    return (-c * dx * dx, dy - 2 * c * rel * dx,
            origin[1] - apex_y - c * rel * rel)


def _arc_hit(data, origin, direction):
    """The exact least t > 0 at which the ray meets the arc ``data``
    (axis_x, apex_y, p, sign, x_lo, x_hi), ends included: a Fraction, a
    _Surd where the quadratic's discriminant is not a rational square, or
    None."""
    (ox, _), (dx, _), (x_lo, x_hi) = origin, direction, data[4:]
    qa, qb, qc = _arc_quadratic(data, origin, direction)
    if not qa:      # dx = 0 and dy = qb != 0: the ray runs along x = ox
        t = -qc / qb
        return t if t > 0 and x_lo <= ox <= x_hi else None
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return None
    h, mid, root = abs(1 / (2 * qa)), -qb / (2 * qa), _rational_sqrt(disc)
    # x = ox + t dx lies in [x_lo, x_hi] for t in [t_lo, t_hi]
    t_lo, t_hi = sorted(((x_lo - ox) / dx, (x_hi - ox) / dx))
    for t in ((mid - h * root, mid + h * root) if root is not None
              else (_Surd(mid, -h, disc), _Surd(mid, h, disc))):    # ascending
        if t > 0 and not (t < t_lo or t > t_hi):
            return t
    return None


# --- float hits -----------------------------------------------------------------

#: Relative error bound of the float hit tests (_float_seg_hit,
#: _float_arc_hit).  Each quantity they test is a polynomial of degree <= 3
#: in inputs within 2^-53 of their exact values (a wall's ``fdata``, the
#: leg's floats), evaluated in a few correctly rounded operations, so it is
#: off by less than 16 * 2^-53 of the sum of its terms' magnitudes; the
#: bound is 1e-13 of that sum, about 900 times 2^-53.  A float test drops
#: a hit only when it misses by more than the bound, and answers
#: _UNDECIDED where the bound leaves its answer open (a ray nearly along a
#: segment, or nearly tangent to an arc): the exact test decides there.
_HIT_SLACK = 1e-13

#: What a float hit test returns when it cannot decide.
_UNDECIDED = object()


def _float_seg_hit(data, origin, direction):
    """The float t of the ray's hit on the segment ``data``, in floats;
    None when the ray misses it by more than _HIT_SLACK (both ends on one
    side of the ray's line, or the hit behind the ray); _UNDECIDED when
    floats cannot place the hit."""
    (x0, y0), (x1, y1) = data
    ox, oy = origin
    dx, dy = direction
    rx0, ry0 = x0 - ox, y0 - oy
    # each end's side of the ray's line, off by less than err
    c0, c1 = rx0 * dy - ry0 * dx, (x1 - ox) * dy - (y1 - oy) * dx
    mag = max(abs(x0), abs(y0), abs(x1), abs(y1), abs(ox), abs(oy))
    err = _HIT_SLACK * mag * (abs(dx) + abs(dy))
    if (c0 > err and c1 > err) or (c0 < -err and c1 < -err):
        return None
    ex, ey = x1 - x0, y1 - y0
    den = dx * ey - dy * ex     # c0 - c1
    if abs(den) <= 4 * err:
        return _UNDECIDED
    t = (rx0 * ey - ry0 * ex) / den
    return None if t < -(8 * _HIT_SLACK * mag * mag + 2 * err * abs(t)) / abs(den) else t


def _float_roots(qa, qb, qc):
    """The real roots of qa t^2 + qb t + qc, qa != 0, in floats.  q = -(qb
    + sign(qb) sqrt(disc)) / 2 is formed once, without cancellation, and
    the roots are q / qa and qc / q: where qa is subnormal (a beam whose
    x-component is tiny), only the far root overflows, to inf, and the
    near one is kept."""
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return []
    q = -(qb + math.copysign(math.sqrt(disc), qb)) / 2
    return [q / qa, qc / q] if q else [0.0]


def _float_arc_hit(data, origin, direction):
    """The least float t of the ray's hits on the arc ``data``, in floats;
    None when every root misses by more than _HIT_SLACK (no real root,
    behind the ray, or outside [x_lo, x_hi]); _UNDECIDED when the ray is
    too nearly tangent for floats to place a root."""
    axis_x, apex_y, p, sign, x_lo, x_hi = data
    ox, oy = origin
    dx, dy = direction
    qa, qb, qc = _arc_quadratic(data, origin, direction)
    # the magnitudes of the coefficients' terms
    c, r = 1 / (4 * p), abs(ox) + abs(axis_x)
    ma, mb = c * dx * dx, abs(dy) + 2 * c * r * abs(dx)
    mc = abs(oy) + abs(apex_y) + c * r * r
    disc = qb * qb - 4 * qa * qc
    edisc = _HIT_SLACK * (mb * mb + 4 * ma * mc)
    if disc < -edisc:
        return None
    if disc <= 16 * edisc:
        return _UNDECIDED
    roots, slope = _float_roots(qa, qb, qc) if qa else [-qc / qb], math.sqrt(disc)
    best = None
    for t in roots:
        if not math.isfinite(t):
            continue
        # the root moves by at most the error of F(t) over |F'(t)| = slope
        et = 2 * _HIT_SLACK * (ma * t * t + mb * abs(t) + mc) / slope
        x = ox + t * dx
        ex = _HIT_SLACK * (abs(ox) + abs(t * dx)) + abs(dx) * et
        if t < -et or x < x_lo - ex or x > x_hi + ex:
            continue
        if best is None or t < best:
            best = t
    return best


#: A float box or clipped ray is widened on each side by this fraction of
#: (1 + the magnitude of the coordinate): with coordinates below 10^6 (the
#: demo tables stay within 60), far more than the few units in the last
#: place a float conversion or a float ray is off by.
_BOX_SLACK = 1e-9


def _widened(x0, y0, x1, y1):
    s = _BOX_SLACK
    return (x0 - s * (1 + abs(x0)), y0 - s * (1 + abs(y0)),
            x1 + s * (1 + abs(x1)), y1 + s * (1 + abs(y1)))


#: A segment shorter than this fraction of its largest coordinate is too
#: short for floats: its float endpoints, each off by up to 2^-53 of that
#: coordinate, would place a hit on it only to within 2^-12 of its length.
#: Split mirrors (length about 3^-(3k+2)) fall below it from head levels 7
#: to 9 on in the demo tables; every wall of levels |k| <= 4 stays far above.
_FLOAT_RESOLVED = 2.0 ** -40


class _NumericWall:
    """A wall as the tracer weighs it: ``data``, its exact tuple, and
    ``fdata``, the same tuple in floats, with their hit tests ``hit(data,
    origin, direction)`` (exact) and ``float_hit(fdata, fo, fd)`` (a float
    t, None or _UNDECIDED); ``fine`` marks a segment too short for floats
    (_FLOAT_RESOLVED), whose hits even the float pass finds exactly."""

    __slots__ = ("wall_id", "kind", "data", "fdata", "fine", "hit", "float_hit", "_normal")

    def __init__(self, wall):
        self.wall_id = wall.wall_id
        self.kind = wall.kind
        self._normal = None
        self.fine = False
        self.hit, self.float_hit = _seg_hit, _float_seg_hit
        if wall.kind == "segment":
            self.data = (wall.p0, wall.p1)
            self.fdata = (x0, y0), (x1, y1) = _float_pt(wall.p0), _float_pt(wall.p1)
            self.fine = (max(abs(x1 - x0), abs(y1 - y0))
                         < _FLOAT_RESOLVED * max(abs(x0), abs(y0), abs(x1), abs(y1)))
        else:
            self.data = (wall.axis_x, wall.apex_y, wall.p, wall.sign, wall.x_lo, wall.x_hi)
            self.fdata = tuple(float(v) for v in self.data)
            self.hit, self.float_hit = _arc_hit, _float_arc_hit

    def float_box(self):
        """(x0, y0, x1, y1), a float box holding the wall: its box in
        floats, widened by _BOX_SLACK, which is far more than the rounding
        of ``fdata`` and of the arc's end heights."""
        if self.kind == "segment":
            (x0, y0), (x1, y1) = self.fdata
            return _widened(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
        axis_x, apex_y, p, sign, x_lo, x_hi = self.fdata
        ys = [apex_y + sign * (x - axis_x) ** 2 / (4 * p) for x in (x_lo, x_hi)]
        if x_lo < axis_x < x_hi:
            ys.append(apex_y)
        return _widened(x_lo, min(ys), x_hi, max(ys))

    def normal(self, point):
        """A normal at ``point``, not of unit length; a segment's does not
        depend on the point, so it is computed on the first hit and kept."""
        if self.kind == "segment":
            if self._normal is None:
                (x0, y0), (x1, y1) = self.data
                self._normal = (y0 - y1, x1 - x0)
            return self._normal
        axis_x, _, p, sign, _, _ = self.data
        return (-sign * (point[0] - axis_x) / (2 * p), 1)


def _float_hits(walls, pos, direction, fo, fd, exclude_id):
    """(t, wall) of every wall the ray from ``pos`` along ``direction``
    may hit ahead of it, t a float: from the float test of the float ray
    (fo, fd), or, for a ``fine`` wall or one the float test leaves
    undecided, from the exact test, rounded."""
    for w in walls:
        if w.wall_id == exclude_id:
            continue
        t = _UNDECIDED if w.fine else w.float_hit(w.fdata, fo, fd)
        if t is _UNDECIDED:
            t = w.hit(w.data, pos, direction)
        if t is not None:
            yield float(t), w


#: _Nearest weighs exactly every wall whose float hit lies within this
#: fraction of (1 + the anchor) of the anchor.
_SHORTLIST = 1e-5


class _Nearest:
    """The nearest exact hit of one leg among the float hits ``offer``ed
    to it: each is weighed exactly, in float order, while its float t lies
    within the shortlist margin of the anchor, the least exact t found so
    far.  A float hit the exact test refutes (a near miss kept by the float
    slack) thus cannot shut out the true winner.  ``second`` is the
    runner-up's exact t; irrational hits wait for ``result``."""

    def __init__(self, pos, direction):
        self.pos, self.direction = pos, direction
        self.t = self.wall = self.second = self.anchor = None
        self.irrational = []      # (_Surd, wall)

    def offer(self, hits):
        for t_f, w in sorted(hits, key=itemgetter(0)):
            if self.anchor is not None and t_f > self.anchor * (1 + _SHORTLIST) + _SHORTLIST:
                break
            t = w.hit(w.data, self.pos, self.direction)
            if t is None:
                continue
            ft = float(t)
            if self.anchor is None or ft < self.anchor:
                self.anchor = ft
            if isinstance(t, _Surd):
                self.irrational.append((t, w))
            elif self.t is None or t < self.t:
                self.t, self.wall, self.second = t, w, self.t
            elif self.second is None or t < self.second:
                self.second = t

    def result(self):
        """(t, wall, runner-up t) of the nearest hit, all None when there
        is none; raises TracingError when an irrational hit is nearest."""
        for root, w in self.irrational:
            if self.t is None or root < self.t:
                raise TracingError(f"trajectory left the rationals at {w.wall_id}")
        return self.t, self.wall, self.second


class _Walls:
    """The walls one trace sees: a table's or a gadget's static walls and
    mirror families, every family over its own levels, chosen per leg by
    position alone, never by the ids a symbolic run predicts.

    The ``static`` walls are read once into floats, each with its float
    box (``boxes``, all held by ``box``, None when there are none); a leg
    float-intersects only those whose boxes meet its ray clipped to
    ``box``.  The leg is then cut just past the nearest static hit the
    exact test confirms, and each mirror family's one per-leg query,
    ``walls_in(leg, frame)``, returns the rows the cut leg may meet.  A row
    is converted (``row_segment``) the first time its id is seen and kept
    by id: the trace's only cache.
    """

    def __init__(self, static_walls, families):
        self.families = families     # (_BlockMirrors, frame) pairs
        self.numeric = {}            # wall id -> _NumericWall
        self.static = [self.numeric.setdefault(w.wall_id, _NumericWall(w))
                       for w in static_walls]
        self.boxes = [w.float_box() for w in self.static]
        self.box = None
        if self.boxes:
            self.box = (min(b[0] for b in self.boxes), min(b[1] for b in self.boxes),
                        max(b[2] for b in self.boxes), max(b[3] for b in self.boxes))
        self.max_candidates = 0
        # each family counts the windows it left to exact integers over its
        # life; this trace's share is the growth from here
        self._mirrors = list({id(m): m for m, _ in families}.values())
        self._windows_before = sum(m.windows_exact for m in self._mirrors)

    @property
    def windows_exact(self):
        """The block windows this trace's queries left to exact integers."""
        return sum(m.windows_exact for m in self._mirrors) - self._windows_before

    def _static_near(self, fo, fd):
        """The static walls whose boxes meet the float ray from ``fo``
        along ``fd`` clipped to ``box``: every static wall it can hit."""
        if self.box is None:
            return []
        x0, y0, x1, y1 = self.box
        t0, t1 = 0.0, math.inf
        for o, d, lo, hi in ((fo[0], fd[0], x0, x1), (fo[1], fd[1], y0, y1)):
            if d:
                a, b = (lo - o) / d, (hi - o) / d
                t0, t1 = max(t0, min(a, b)), min(t1, max(a, b))
            elif not lo <= o <= hi:
                return []
        if t0 > t1:
            return []
        cx0, cy0, cx1, cy1 = _widened(
            min(fo[0] + t0 * fd[0], fo[0] + t1 * fd[0]),
            min(fo[1] + t0 * fd[1], fo[1] + t1 * fd[1]),
            max(fo[0] + t0 * fd[0], fo[0] + t1 * fd[0]),
            max(fo[1] + t0 * fd[1], fo[1] + t1 * fd[1]))
        return [w for (x0, y0, x1, y1), w in zip(self.boxes, self.static)
                if not (x1 < cx0 or x0 > cx1 or y1 < cy0 or y0 > cy1)]

    def nearest(self, pos, direction, fo, fd, exclude_id):
        """The _Nearest of the leg from ``pos`` along ``direction``, (fo,
        fd) in floats, the wall ``exclude_id`` left out: offered the static
        walls' float hits, then the mirrors' on the cut leg."""
        static = self._static_near(fo, fd)
        found = _Nearest(pos, direction)
        found.offer(_float_hits(static, pos, direction, fo, fd, exclude_id))
        t_max, ft_max = None, math.inf
        if found.anchor is not None:
            ft_max = found.anchor + 2 * _SHORTLIST * (1.0 + found.anchor)
            t_max = Fraction(ft_max)
        leg = Leg(pos, direction, t_max, fo + fd + (ft_max,))
        level = []
        for mirrors, frame in self.families:
            for row in mirrors.walls_in(leg, frame):
                nw = self.numeric.get(row[5])
                if nw is None:
                    nw = self.numeric[row[5]] = _NumericWall(row_segment(row))
                level.append(nw)
        self.max_candidates = max(self.max_candidates, len(static) + len(level))
        found.offer(_float_hits(level, pos, direction, fo, fd, exclude_id))
        return found


#: A chart is passed on from floats to the exact test unless its line is
#: met backwards (the direction's beam component den below -_CHART_SLACK of
#: the direction's size, ``near``) or the crossing's float coordinate lies
#: more than _CHART_SLACK of (1 + the magnitudes involved) outside its
#: window.  The slack is large against float rounding, and with den above
#: it the float crossing keeps 9 or more correct digits.  With |den| <=
#: near, the leg runs nearly along the chart line, and the float numerator
#: num = (chart origin - leg origin) . beam decides, give or take
#: _CHART_SLACK of (1 + the magnitudes involved): num below that puts the
#: crossing behind the ray, and num above it and above 2 near (1 + the
#: winning hit's t) puts it past the winning hit, as t = num / den >=
#: num / near.  Only a leg running along the chart line is left to the
#: exact test.
_CHART_SLACK = 1e-6


def _chart_line(chart):
    """(chart, origin, tangent, beam, u_lo, u_hi) exactly, then (origin,
    tangent, beam, u_lo, u_hi) in floats.

    A crossing counts when its coordinate is within 1/2 of the chart's
    window [lo, hi].
    """
    half = Fraction(1, 2)
    return ((chart, chart.origin, chart.tangent, chart.beam,
             chart.lo - half, chart.hi + half),
            (_float_pt(chart.origin), _float_pt(chart.tangent), _float_pt(chart.beam),
             float(chart.lo) - 0.5, float(chart.hi) + 0.5))


def _chart_u(point, origin, tangent):
    return (point[0] - origin[0]) * tangent[0] + (point[1] - origin[1]) * tangent[1]


def _crossings(lines, pos, direction, fo, fd, best_t):
    """(t, chart, point, u) of every forward crossing of a chart line
    (``_chart_line``) by the leg from ``pos`` along ``direction`` before
    ``best_t``, in flight order.  A chart the float ray (fo, fd) cannot
    cross (_CHART_SLACK) is left out before any exact work."""
    size = abs(fd[0]) + abs(fd[1])
    near = _CHART_SLACK * size
    reach = None      # 2 near (1 + best_t), best_t read in floats once
    crossings = []
    for (chart, co, ct, cb, u_lo, u_hi), (fco, fct, fcb, fu_lo, fu_hi) in lines:
        fden = fd[0] * fcb[0] + fd[1] * fcb[1]
        if fden < -near:
            continue
        fnum = (fco[0] - fo[0]) * fcb[0] + (fco[1] - fo[1]) * fcb[1]
        margin = _CHART_SLACK * (1 + abs(fo[0]) + abs(fo[1]) + abs(fco[0]) + abs(fco[1]))
        if fden > near:
            ft = fnum / fden
            fu = _chart_u((fo[0] + ft * fd[0], fo[1] + ft * fd[1]), fco, fct)
            margin += _CHART_SLACK * abs(ft) * size
            if fu < fu_lo - margin or fu > fu_hi + margin:
                continue
        elif fnum < -margin:
            continue      # behind the ray
        elif best_t is not None:
            if reach is None:
                reach = 2 * near * (1 + float(best_t))
            if fnum - margin > reach:
                continue  # past the winning hit
        den = direction[0] * cb[0] + direction[1] * cb[1]
        if den <= 0:
            continue
        t = ((co[0] - pos[0]) * cb[0] + (co[1] - pos[1]) * cb[1]) / den
        if t <= 0 or (best_t is not None and t >= best_t):
            continue
        point = (pos[0] + t * direction[0], pos[1] + t * direction[1])
        u = _chart_u(point, co, ct)
        if u_lo <= u <= u_hi:
            crossings.append((t, chart, point, u))
    return sorted(crossings, key=itemgetter(0))


def _trace(walls, pos, direction, charts):
    """Exact specular ray trace from ``pos`` along ``direction`` over the
    _Walls ``walls``: the one core behind run_numeric and GadgetTracer.
    Each leg is read in floats once, and the walls (``_Walls.nearest``) and
    charts (``_crossings``) the float ray cannot reach are left out before
    any exact work.

    Per leg, yields ``("cross", chart, point, u, direction)`` for every
    forward crossing of a chart line, in flight order, then ``("hit",
    wall, point, None, direction)`` for the wall that ends the leg;
    resuming reflects there, d - 2 (d.n) / (n.n) n, which keeps |d|.
    Raises TracingDegeneracy when two walls are hit at the same t or a hit
    grazes (d.n = 0), and TracingError when the ray escapes or its next
    hit is irrational.
    """
    lines = [_chart_line(c) for c in charts]
    last_id = None
    while True:
        fo, fd = _float_pt(pos), _float_pt(direction)
        best_t, wall, second_t = walls.nearest(pos, direction, fo, fd, last_id).result()
        if second_t is not None and second_t == best_t:
            raise TracingDegeneracy(
                f"two walls hit at once with {wall.wall_id}: geometry bug")
        for _, chart, point, u in _crossings(lines, pos, direction, fo, fd, best_t):
            yield "cross", chart, point, u, direction
        if best_t is None:
            raise TracingError("trajectory escaped the scene")
        hit = (pos[0] + best_t * direction[0], pos[1] + best_t * direction[1])
        yield "hit", wall, hit, None, direction
        n = wall.normal(hit)
        d_dot = direction[0] * n[0] + direction[1] * n[1]
        if not d_dot:
            raise TracingDegeneracy(f"grazing hit on {wall.wall_id}")
        k = 2 * d_dot / (n[0] * n[0] + n[1] * n[1])
        direction = (direction[0] - k * n[0], direction[1] - k * n[1])
        pos = hit
        last_id = wall.wall_id


def run_numeric(table, tape, budget, precision=None):
    """Trace the trajectory by exact specular reflection and verify that it
    replays the symbolic event stream, each checkpoint at exactly its
    symbolic value; returns a NumericResult carrying the symbolic outcome.
    Raises TracingDegeneracy on a tie or a graze, and PrecisionExhausted
    when the trace does not replay the symbolic one.  ``precision`` is
    ignored: the trace has no working precision."""
    symbolic = run_symbolic(table, tape, budget)
    expected = list(symbolic.trace)

    walls = _Walls(table.static_walls, table.mirror_families)
    # each hard checkpoint by its wall's id: a hit there is a halt bounce
    halts = {st.checkpoint.wall.wall_id: st.checkpoint
             for st in table.stations.values() if st.checkpoint.hard}
    start_state = table.machine.initial
    pos = table.checkpoint_point(start_state, expected[0].value)
    direction = (Fraction(0), Fraction(1))

    deviations = []
    points = [pos]
    idx = 0

    def fail(msg):
        raise PrecisionExhausted(f"{msg} (event {idx}/{len(expected)})")

    def check_event(kind, **attrs):
        nonlocal idx
        if idx >= len(expected):
            fail(f"extra event {kind}")
        ev = expected[idx]
        if ev.kind != kind:
            fail(f"expected {ev.kind}, traced {kind}")
        for key, got in attrs.items():
            want = getattr(ev, key)
            if want != got:
                fail(f"{kind}.{key}: expected {want}, traced {got}")
        idx += 1
        return ev

    def note_crossing(mark, d, u):
        # checkpoints are crossed orthogonally: no tangential drift
        if d[0] * mark.tangent[0] + d[1] * mark.tangent[1]:
            fail(f"non-orthogonal crossing of {mark.name}")
        ev = check_event("checkpoint", state=mark.name.split(":", 1)[1])
        if u != ev.value.as_fraction():
            fail(f"checkpoint {mark.name} read {u}, not its value {ev.value}")
        deviations.append(0.0)

    def flight_over():
        """Budget spent or the head left the range: nothing more to trace."""
        if idx < len(expected) and expected[idx].kind == "out-of-range":
            check_event("out-of-range")
        return idx == len(expected)

    # the trajectory starts on the initial checkpoint
    mark0 = table.stations[start_state].checkpoint
    note_crossing(mark0, direction, _chart_u(pos, mark0.origin, mark0.tangent))
    if not flight_over():
        try:
            for kind, obj, point, u, d in _trace(
                    walls, pos, direction, table.marked_segments()):
                if kind == "cross":
                    note_crossing(obj, d, u)
                    continue
                if flight_over():
                    break  # the run ended mid-flight
                points.append(point)
                mark = halts.get(obj.wall_id)
                if mark is not None:
                    # the halt checkpoint: orthogonal bounce ends the run
                    n = obj.normal(point)
                    if d[0] * n[1] - d[1] * n[0]:
                        fail("halt hit not orthogonal")
                    note_crossing(mark, d, _chart_u(point, mark.origin, mark.tangent))
                    check_event("halt-bounce")
                    break
                check_event("reflection", wall_id=obj.wall_id)
        except (TracingDegeneracy, PrecisionExhausted):
            raise
        except TracingError as err:
            fail(str(err))

    if idx != len(expected):
        fail("numeric trace ended early")
    return NumericResult(outcome=symbolic, max_deviation=0.0, deviations=deviations,
                         points=[_float_pt(p) for p in points],
                         walls_built=len(walls.numeric),
                         max_candidates=walls.max_candidates,
                         windows_exact=walls.windows_exact)


#: A gadget chains a handful of mirrors; more bounces means a trapped ray.
_GADGET_MAX_REFLECTIONS = 64


class GadgetTracer:
    """Reusable exact ray tracer for one gadget, over its static walls and
    its mirror family, queried by position as in run_numeric: ``trace``
    launches from the in-port chart and returns the out-port coordinate at
    the ray's first forward crossing of the out-port window."""

    def __init__(self, gadget):
        self.gadget = gadget
        self.walls = _Walls(gadget.static_walls,
                            () if gadget.mirrors is None else (gadget.mirrors,))

    def trace(self, u_in, in_port="in", out_port="out"):
        """Returns (u_out, wall_ids) with u_out an exact Fraction."""
        pin = self.gadget.in_ports[in_port]
        pout = self.gadget.out_ports[out_port]
        hits = []
        for kind, obj, _point, u_out, _d in _trace(
                self.walls, pin.chart(u_in.as_fraction()), pin.beam, [pout]):
            if kind == "cross":
                return u_out, hits
            hits.append(obj.wall_id)
            if len(hits) == _GADGET_MAX_REFLECTIONS:
                raise TracingError(
                    f"gadget trace exceeded {_GADGET_MAX_REFLECTIONS} reflections")
