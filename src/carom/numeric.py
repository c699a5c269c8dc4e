"""Numeric ray tracing: run_numeric and GadgetTracer.

run_numeric re-traces a symbolic run (``simulate.run_symbolic``) by
specular reflection over the placed walls in mpmath arbitrary-precision
floats and must reproduce its event stream, reporting the worst
transverse deviation at the checkpoints.  This certifies that the
geometry really implements the transfer maps.  No other carom module
imports mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

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
    max_deviation: float
    deviations: list               # per checkpoint crossing
    points: list                   # polyline of traced positions (floats)
    precision: int
    walls_built: int = 0           # distinct walls materialized
    max_candidates: int = 0        # most walls one leg's float pass weighed
    windows_exact: int = 0         # block windows floats left to exact integers


def _mpf(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _mpf_pt(p):
    return (_mpf(p[0]), _mpf(p[1]))


def _float_pt(p):
    return (float(p[0]), float(p[1]))


def _exact(x):
    """The Fraction an mpf stands for: mpf values are dyadic, so exactly."""
    sign, man, exp, _ = x._mpf_
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def _seg_intersect(data, origin, direction, t_min):
    (x0, y0), (x1, y1) = data
    ox, oy = origin
    dx, dy = direction
    ex, ey = x1 - x0, y1 - y0
    den = dx * ey - dy * ex
    if den == 0:
        return None
    t = ((x0 - ox) * ey - (y0 - oy) * ex) / den
    if t <= t_min:
        return None
    s = ((x0 - ox) * dy - (y0 - oy) * dx) / den
    # parameter along the segment must stay inside it
    if s < 0 or s > 1:
        return None
    return t


def _float_roots(qa, qb, qc):
    """The real roots of qa t^2 + qb t + qc, qa != 0, in floats.  q = -(qb
    + sign(qb) sqrt(disc)) / 2 is formed once, without cancellation, and
    the roots are q / qa and qc / q: where qa is subnormal (a beam whose
    x-component is rounding residue), only the far root overflows, to inf,
    and the near one is kept."""
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return []
    q = -(qb + math.copysign(math.sqrt(disc), qb)) / 2
    return [q / qa, qc / q] if q else [0.0]


def _mp_roots(qa, qb, qc):
    """The real roots of qa t^2 + qb t + qc, qa != 0, at working precision,
    by the formula the pinned trace digests were made with."""
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return []
    sq = mpmath.sqrt(disc)
    # numerically stable root pair
    r1 = (-qb - sq) / (2 * qa) if qb >= 0 else (-qb + sq) / (2 * qa)
    r2 = qc / (qa * r1) if r1 != 0 else (-qb / qa - r1)
    return [r1, r2]


def _arc_intersect(data, origin, direction, t_min, roots_of):
    axis_x, apex_y, p, sign, x_lo, x_hi = data
    ox, oy = origin
    dx, dy = direction
    # F(x,y) = y - apex - sign (x-axis)^2 / 4p = 0
    qa = -sign * dx * dx / (4 * p)
    rel = ox - axis_x
    qb = dy - sign * 2 * rel * dx / (4 * p)
    qc = oy - apex_y - sign * rel * rel / (4 * p)
    if qa == 0:
        roots = [-qc / qb] if qb != 0 else []
    else:
        roots = roots_of(qa, qb, qc)
    best = None
    for t in roots:
        if t <= t_min:
            continue
        x = ox + t * dx
        if x < x_lo or x > x_hi:
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
    """An exact wall converted to working-precision (``data``) and
    machine-float (``fdata``) tuples of the same layout; ``fine`` marks a
    segment too short for floats (_FLOAT_RESOLVED).  ``fdata`` is made at
    once, ``data`` on first use, at the working precision then in force:
    most walls are only ever weighed in floats."""

    __slots__ = ("wall_id", "kind", "_wall", "_data", "fdata", "fine", "_normal")

    def __init__(self, wall):
        self.wall_id = wall.wall_id
        self.kind = wall.kind
        self._wall, self._data = wall, None
        self.fdata = self._convert(wall, float)
        self._normal = None
        self.fine = False
        if wall.kind == "segment":
            (x0, y0), (x1, y1) = self.fdata
            self.fine = (max(abs(x1 - x0), abs(y1 - y0))
                         < _FLOAT_RESOLVED * max(abs(x0), abs(y0), abs(x1), abs(y1)))

    @property
    def data(self):
        if self._data is None:
            self._data = self._convert(self._wall, _mpf)
        return self._data

    @staticmethod
    def _convert(wall, num):
        if wall.kind == "segment":
            return ((num(wall.p0[0]), num(wall.p0[1])),
                    (num(wall.p1[0]), num(wall.p1[1])))
        return (num(wall.axis_x), num(wall.apex_y), num(wall.p), wall.sign,
                num(wall.x_lo), num(wall.x_hi))

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

    def intersect(self, origin, direction, t_min, data, roots_of):
        """The least t > t_min at which the ray meets the wall given as
        ``data`` (``fdata`` or ``data``), arcs solved by ``roots_of``
        (_float_roots or _mp_roots, to match), or None."""
        if self.kind == "segment":
            return _seg_intersect(data, origin, direction, t_min)
        return _arc_intersect(data, origin, direction, t_min, roots_of)

    def unit_normal(self, point):
        """The unit normal at ``point``; a segment's does not depend on the
        point, so it is computed on the first hit and kept."""
        if self.kind == "segment":
            if self._normal is None:
                (x0, y0), (x1, y1) = self.data
                self._normal = _unit((y0 - y1, x1 - x0))
            return self._normal
        axis_x, apex_y, p, sign, _, _ = self.data
        return _unit((-sign * (point[0] - axis_x) / (2 * p), mpmath.mpf(1)))


def _unit(v):
    n = mpmath.sqrt(v[0] * v[0] + v[1] * v[1])
    return (v[0] / n, v[1] / n)


#: _nearest_hit weighs at working precision every wall whose float hit
#: lies within this fraction of (1 + the nearest float hit).
_SHORTLIST = 1e-5


def _float_hits(walls, pos, direction, fo, fd, exclude_id):
    """(t, wall) of every wall the ray from ``pos`` along ``direction``
    hits ahead of it, t a float: found with the float ray (fo, fd), or for
    a ``fine`` wall at working precision and then rounded."""
    scale = max(abs(fd[0]), abs(fd[1]))
    tf_min = 1e-12 / scale if scale else 0.0
    for w in walls:
        if exclude_id is not None and w.wall_id == exclude_id:
            continue
        if w.fine:
            t = w.intersect(pos, direction, tf_min, w.data, _mp_roots)
        else:
            t = w.intersect(fo, fd, tf_min, w.fdata, _float_roots)
        if t is not None:
            yield float(t), w


def _nearest_hit(rough, pos, direction, t_eps):
    """Two-pass nearest-intersection over the candidate walls of one leg
    (see _Walls.candidates): ``rough`` holds the machine-float hits
    (t, wall) of those walls; the hits within the shortlist margin of the
    nearest one are decided by full-precision intersection.

    The float pass cannot drop the true winner: a wall too short for
    floats to place its hits on (``fine``, such as a split mirror over a
    block of length 3^-(3k+2) for large k) got its hit at working
    precision.  Ties finer than floats can resolve land in the same
    shortlist and are separated (or flagged) at working precision.
    Returns (t, wall, runner_up_t).
    """
    if not rough:
        return None, None, None
    best_f = min(t_f for t_f, _ in rough)
    margin = _SHORTLIST * (1.0 + best_f)
    best_t = second_t = None
    best_wall = None
    for t_f, w in rough:
        if t_f > best_f + margin:
            continue
        t = w.intersect(pos, direction, t_eps, w.data, _mp_roots)
        if t is None:
            continue
        if best_t is None or t < best_t:
            best_t, second_t, best_wall = t, best_t, w
        elif second_t is None or t < second_t:
            second_t = t
    return best_t, best_wall, second_t


class _Walls:
    """The walls one trace sees: a table's or a gadget's static walls and
    mirror families, every family over its own levels.

    Each leg is weighed in floats first, and only against the walls it can
    reach.  The ``static`` walls (arcs, turn mirrors, the launch pad, hard
    checkpoints) are read once into floats, each with its float box
    (``boxes``), and ``box`` holds them all (None when there are none): the
    float ray is clipped to it, and only the static walls whose boxes meet
    the clipped ray are float-intersected.  The ray is then cut just past
    the nearest static hit (kept whole when there is none), with twice
    _nearest_hit's shortlist margin to spare.  Each mirror family's one
    per-leg query, ``walls_in(leg, frame)``, returns the rows of the split
    and merge mirrors the cut leg may meet: it drops a family whose region
    the float leg misses, and decides its block windows in floats.  The
    leg's exact values are made from its mpf ones only if some window
    needs them (``Leg``'s ``convert``).  The walls _nearest_hit weighs are
    thus chosen by position alone, never by the ids a symbolic run
    predicts.  A row is converted (``row_segment``) the first time its id
    is seen and kept by id: the trace's only cache.
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

    def candidates(self, pos, direction, fo, fd, exclude_id):
        """Float hits (t, wall) of the candidate walls of the leg from
        ``pos`` along ``direction``, (``fo``, ``fd``) in floats, the wall
        ``exclude_id`` left out."""
        static = self._static_near(fo, fd)
        hits = list(_float_hits(static, pos, direction, fo, fd, exclude_id))
        t_max, ft_max = None, math.inf
        if hits:
            t_static = min(t for t, _ in hits)
            ft_max = t_static + 2 * _SHORTLIST * (1.0 + t_static)
            t_max = Fraction(ft_max)
        leg = Leg(pos, direction, t_max, fo + fd + (ft_max,), convert=_exact)
        level = []
        for mirrors, frame in self.families:
            for row in mirrors.walls_in(leg, frame):
                nw = self.numeric.get(row[5])
                if nw is None:
                    nw = self.numeric[row[5]] = _NumericWall(row_segment(row))
                level.append(nw)
        self.max_candidates = max(self.max_candidates, len(static) + len(level))
        hits += _float_hits(level, pos, direction, fo, fd, exclude_id)
        return hits


#: A chart is passed on from floats to working precision unless its line is
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
#: num / near.  Only a leg running along the chart line is left to
#: working precision.
_CHART_SLACK = 1e-6


def _chart_line(chart):
    """(chart, origin, tangent, beam, u_lo, u_hi) at working precision,
    then (origin, tangent, beam, u_lo, u_hi) in floats.

    A crossing counts when its coordinate is within 1/2 of the chart's
    window [lo, hi].
    """
    half = mpmath.mpf(1) / 2
    return ((chart, _mpf_pt(chart.origin), _mpf_pt(chart.tangent),
             _mpf_pt(chart.beam), _mpf(chart.lo) - half, _mpf(chart.hi) + half),
            (_float_pt(chart.origin), _float_pt(chart.tangent), _float_pt(chart.beam),
             float(chart.lo) - 0.5, float(chart.hi) + 0.5))


def _chart_u(point, origin, tangent):
    return (point[0] - origin[0]) * tangent[0] + (point[1] - origin[1]) * tangent[1]


def _crossings(lines, pos, direction, fo, fd, best_t, tie_tol):
    """(t, chart, point, u) of every forward crossing of a chart line
    (``_chart_line``) by the leg from ``pos`` along ``direction`` before
    ``best_t``, in flight order.  A chart the float ray (fo, fd) cannot
    cross (_CHART_SLACK) is left out before any working-precision work."""
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
        if t <= tie_tol or (best_t is not None and t >= best_t - tie_tol):
            continue
        point = (pos[0] + t * direction[0], pos[1] + t * direction[1])
        u = _chart_u(point, co, ct)
        if u_lo <= u <= u_hi:
            crossings.append((t, chart, point, u))
    return sorted(crossings, key=lambda c: c[0])


def _trace(walls, pos, direction, charts, precision):
    """Specular ray trace from ``pos`` along ``direction``: the one core
    behind run_numeric and GadgetTracer.  ``walls`` is a _Walls; each leg
    weighs only the walls its position query returns, so the cost of a
    bounce does not grow with the number of head levels.  Each leg's
    position and direction are read in floats once, and the walls
    (``_Walls.candidates``) and charts (``_crossings``) the float ray
    cannot reach are left out before any working-precision work.

    Per leg, yields ``("cross", chart, point, u, direction)`` for every
    forward crossing of a chart line, in flight order, then
    ``("hit", wall, point, None, direction)`` for the wall that ends the
    leg; resuming after a hit reflects there.  Raises TracingDegeneracy
    when the runner-up wall is within 10^-(precision-5) of the winner or
    a hit grazes, and TracingError when the ray escapes.  Consume it
    under ``mpmath.workdps(precision)``.
    """
    lines = [_chart_line(c) for c in charts]
    tie_tol = mpmath.mpf(10) ** (-precision + 5)
    graze_tol = mpmath.mpf(10) ** (-12)
    last_id = None
    while True:
        fo = (float(pos[0]), float(pos[1]))
        fd = (float(direction[0]), float(direction[1]))
        best_t, wall, second_t = _nearest_hit(
            walls.candidates(pos, direction, fo, fd, last_id), pos, direction, tie_tol)
        if second_t is not None and second_t - best_t < tie_tol:
            raise TracingDegeneracy(
                f"two walls within {tie_tol} of {wall.wall_id}: geometry bug")
        for _, chart, point, u in _crossings(lines, pos, direction, fo, fd,
                                             best_t, tie_tol):
            yield "cross", chart, point, u, direction
        if best_t is None:
            raise TracingError("trajectory escaped the scene")
        hit = (pos[0] + best_t * direction[0], pos[1] + best_t * direction[1])
        yield "hit", wall, hit, None, direction
        n = wall.unit_normal(hit)
        d_dot = direction[0] * n[0] + direction[1] * n[1]
        if abs(d_dot) < graze_tol:
            raise TracingDegeneracy(f"grazing hit on {wall.wall_id}")
        direction = (direction[0] - 2 * d_dot * n[0],
                     direction[1] - 2 * d_dot * n[1])
        pos = hit
        last_id = wall.wall_id


def run_numeric(table, tape, budget, precision=60):
    """Trace the trajectory by true specular reflection at ``precision``
    working digits and verify it replays the symbolic event stream.

    Returns a NumericResult carrying the symbolic outcome plus the worst
    transverse deviation observed at checkpoint crossings.  Raises
    TracingDegeneracy when two wall hits are indistinguishable at this
    precision and PrecisionExhausted when the trace cannot match the
    exact one (an escaping ray included).
    """
    if precision < 8:
        raise ValueError("precision must be at least 8 digits")
    symbolic = run_symbolic(table, tape, budget)
    expected = list(symbolic.trace)

    with mpmath.workdps(precision):
        walls = _Walls(table.static_walls, table.mirror_families)
        # each hard checkpoint by its wall's id: a hit there is a halt bounce
        halts = {st.checkpoint.wall.wall_id: st.checkpoint
                 for st in table.stations.values() if st.checkpoint.hard}
        start_state = table.machine.initial
        pos = _mpf_pt(table.checkpoint_point(start_state, expected[0].value))
        direction = (mpmath.mpf(0), mpmath.mpf(1))
        ortho_tol = mpmath.mpf(10) ** (-precision // 2)

        deviations = []
        points = [pos]
        idx = 0

        def fail(msg):
            raise PrecisionExhausted(
                f"{msg} (precision {precision}, event {idx}/{len(expected)})")

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

        def u_at(mark, point):
            return _chart_u(point, _mpf_pt(mark.origin), _mpf_pt(mark.tangent))

        def note_crossing(mark, d, u_num):
            mt = _mpf_pt(mark.tangent)
            # checkpoints are crossed orthogonally: no tangential drift
            tangential = abs(d[0] * mt[0] + d[1] * mt[1])
            if tangential > ortho_tol:
                fail(f"non-orthogonal crossing of {mark.name}")
            ev = check_event("checkpoint", state=mark.name.split(":", 1)[1])
            u_exact = (mpmath.mpf(ev.value.num) / mpmath.mpf(3) ** ev.value.exp)
            deviations.append(abs(u_num - u_exact))

        def flight_over():
            """Budget spent or the head left the range: nothing more to trace."""
            if idx < len(expected) and expected[idx].kind == "out-of-range":
                check_event("out-of-range")
            return idx == len(expected)

        # the trajectory starts on the initial checkpoint
        mark0 = table.stations[start_state].checkpoint
        note_crossing(mark0, direction, u_at(mark0, pos))
        if not flight_over():
            try:
                for kind, obj, point, u, d in _trace(
                        walls, pos, direction, table.marked_segments(), precision):
                    if kind == "cross":
                        note_crossing(obj, d, u)
                        continue
                    if flight_over():
                        break  # the run ended mid-flight
                    points.append(point)
                    mark = halts.get(obj.wall_id)
                    if mark is not None:
                        # the halt checkpoint: orthogonal bounce ends the run
                        n = obj.unit_normal(point)
                        tangential = abs(d[0] * n[1] - d[1] * n[0])
                        if tangential > ortho_tol:
                            fail(f"halt hit not orthogonal (tangential {tangential})")
                        note_crossing(mark, d, u_at(mark, point))
                        check_event("halt-bounce")
                        break
                    check_event("reflection", wall_id=obj.wall_id)
            except (TracingDegeneracy, PrecisionExhausted):
                raise
            except TracingError as err:
                fail(str(err))

        if idx != len(expected):
            fail("numeric trace ended early")
        max_dev = float(max(deviations)) if deviations else 0.0
        tol = 10.0 ** (-precision / 2)
        if max_dev > tol:
            raise PrecisionExhausted(
                f"checkpoint deviation {max_dev} exceeds {tol}")
        return NumericResult(outcome=symbolic, max_deviation=max_dev,
                             deviations=[float(d) for d in deviations],
                             points=[(float(x), float(y)) for x, y in points],
                             precision=precision, walls_built=len(walls.numeric),
                             max_candidates=walls.max_candidates,
                             windows_exact=walls.windows_exact)


#: A gadget chains a handful of mirrors; more bounces means a trapped ray.
_GADGET_MAX_REFLECTIONS = 64


class GadgetTracer:
    """Reusable ray tracer for one gadget at a fixed precision.

    Walls are queried by position, as in run_numeric: the static walls and
    the gadget's mirror family over its own levels, each converted once;
    ``trace`` then launches from the in-port chart and returns the out-port
    coordinate at the ray's first forward crossing of the out-port window,
    with the same tie and grazing checks as run_numeric.
    """

    def __init__(self, gadget, precision=60):
        self.gadget = gadget
        self.precision = precision
        with mpmath.workdps(precision):
            self.walls = _Walls(gadget.static_walls,
                                () if gadget.mirrors is None else (gadget.mirrors,))

    def trace(self, u_in, in_port="in", out_port="out"):
        """Returns (u_out, wall_ids) with u_out an mpmath float."""
        pin = self.gadget.in_ports[in_port]
        pout = self.gadget.out_ports[out_port]
        with mpmath.workdps(self.precision):
            u = mpmath.mpf(u_in.num) / mpmath.mpf(3) ** u_in.exp
            o = _mpf_pt(pin.origin)
            tg = _mpf_pt(pin.tangent)
            pos = (o[0] + u * tg[0], o[1] + u * tg[1])
            hits = []
            for kind, obj, _point, u_out, _d in _trace(
                    self.walls, pos, _mpf_pt(pin.beam), [pout], self.precision):
                if kind == "cross":
                    return u_out, hits
                hits.append(obj.wall_id)
                if len(hits) == _GADGET_MAX_REFLECTIONS:
                    raise TracingError(
                        f"gadget trace exceeded {_GADGET_MAX_REFLECTIONS} reflections")
