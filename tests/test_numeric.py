"""The exact tracer's hit tests, against their Fraction oracles.

The exact tests run in integers.  The oracles here are the same tests and
the reflection in Fractions, as the tracer ran them before: on every
seeded ray, through a wall's exact end, tilted or nearly along it, the
integer test's t must be the oracle's, its corner flag must say whether
the hit lies on an end, and the integer reflection must be a positive
multiple of the oracle's.  The tracer weighs every wall its position
filters keep with these tests, and decides ties, corners, grazes and
irrational roots with no tolerance.
"""

import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from carom.geometry import Chart, ParabolaArc, Segment, integers
from carom.numeric import (
    _arc_hit,
    _chart_hit,
    _normal,
    _reflect,
    _seg_hit,
    TraceScene,
    _trace,
    _Walls,
)
from carom.simulate import TracingDegeneracy, TracingError

# --- the Fraction oracles -----------------------------------------------------


def _oracle_surd_sign(a, b, d):
    """The sign of a + b sqrt(d), for rationals a, b and a d > 0 that is
    not a rational square."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * d else sb


class _OracleSurd:
    """The irrational root a + b sqrt(d) of an arc's quadratic."""

    def __init__(self, a, b, d):
        self.a, self.b, self.d = a, b, d

    def __lt__(self, r):
        return _oracle_surd_sign(self.a - r, self.b, self.d) < 0

    def __gt__(self, r):
        return _oracle_surd_sign(self.a - r, self.b, self.d) > 0


def _oracle_seg_hit(data, origin, direction):
    """The exact t > 0 at which the ray meets the segment ((x0, y0), (x1,
    y1)), ends included, or None."""
    (x0, y0), (x1, y1) = data
    rx, ry = x0 - origin[0], y0 - origin[1]
    dx, dy = direction
    ex, ey = x1 - x0, y1 - y0
    den = dx * ey - dy * ex
    nt, ns = rx * ey - ry * ex, rx * dy - ry * dx
    if den < 0:
        den, nt, ns = -den, -nt, -ns
    if not den or nt <= 0 or ns < 0 or ns > den:
        return None
    return Fraction(nt) / den


def _oracle_arc_hit(arc, origin, direction):
    """The exact least t > 0 at which the ray meets the ParabolaArc ``arc``,
    ends included: a Fraction, an _OracleSurd or None."""
    ox, oy = origin
    dx, dy = direction
    c = arc.sign / (4 * arc.p)
    rel = ox - arc.axis_x
    qa, qb, qc = -c * dx * dx, dy - 2 * c * rel * dx, oy - arc.apex_y - c * rel * rel
    if not qa:
        t = -qc / qb
        return t if t > 0 and arc.x_lo <= ox <= arc.x_hi else None
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return None
    h, mid = abs(1 / (2 * qa)), -qb / (2 * qa)
    n, d = disc.numerator, disc.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    root = Fraction(rn, rd) if rn * rn == n and rd * rd == d else None
    t_lo, t_hi = sorted(((arc.x_lo - ox) / dx, (arc.x_hi - ox) / dx))
    for t in ((mid - h * root, mid + h * root) if root is not None
              else (_OracleSurd(mid, -h, disc), _OracleSurd(mid, h, disc))):
        if t > 0 and not (t < t_lo or t > t_hi):
            return t
    return None


def _oracle_chart_hit(chart, origin, direction):
    """(t, u): the exact t > 0 at which the ray crosses the Chart forwards,
    at u within 1/2 of its window, ends included, or None."""
    co, ct, cb = chart.origin, chart.tangent, chart.beam
    den = direction[0] * cb[0] + direction[1] * cb[1]
    if den <= 0:
        return None
    t = Fraction((co[0] - origin[0]) * cb[0] + (co[1] - origin[1]) * cb[1]) / den
    if t <= 0:
        return None
    point = (origin[0] + t * direction[0], origin[1] + t * direction[1])
    u = (point[0] - co[0]) * ct[0] + (point[1] - co[1]) * ct[1]
    return (t, u) if chart.lo - Fraction(1, 2) <= u <= chart.hi + Fraction(1, 2) else None


def _oracle_reflect(d, n):
    """d - 2 (d.n) / (n.n) n, which keeps |d|."""
    k = Fraction(2 * (d[0] * n[0] + d[1] * n[1])) / (n[0] * n[0] + n[1] * n[1])
    return (d[0] - k * n[0], d[1] - k * n[1])


def _integer_leg(origin, direction):
    """The leg from the rational ``origin`` along ``direction`` as the tracer
    carries it: (x, y, w) and an integer direction, a positive multiple of
    ``direction``."""
    w, x, y = integers(*origin)
    return (x, y, w), integers(*direction)[1:]


def _rational(point):
    """The traced point (x, y, w) as the Fractions (x / w, y / w)."""
    x, y, w = point
    return Fraction(x, w), Fraction(y, w)


def _t(got):
    """The exact t of an integer hit test's rational answer."""
    return Fraction(got[0], got[1])


def _same(got, want):
    """Whether an integer hit test's answer ``got`` (None, a rational (n,
    m, corner) or a surd (a, b, D, m)) is the oracle's ``want`` (None, a
    Fraction or an _OracleSurd)."""
    if got is None or want is None:
        return got is want
    if isinstance(want, Fraction):
        return len(got) == 3 and _t(got) == want
    a, b, big_d, m = got
    return (Fraction(a, m) == want.a and (b > 0) == (want.b > 0)
            and Fraction(b * b * big_d, m * m) == want.b ** 2 * want.d)


def _hit_point(xyw, d, t):
    x, y, w = xyw
    return (Fraction(x, w) + t * d[0], Fraction(y, w) + t * d[1])


def _check_reflection(wall, xyw, d, t, oracle_normal):
    """The integer reflection at the hit ``t`` on the wall record ``wall``
    is a positive multiple of the oracle's, or both graze."""
    point = _hit_point(xyw, d, t)
    w, x, y = integers(*point)
    got = _reflect(d, _normal(wall, (x, y, w)))
    want = _oracle_reflect(d, oracle_normal(point))
    if got is None:
        assert want == tuple(d)     # a graze leaves d as it is
        return
    assert got[0] * want[1] == got[1] * want[0], (got, want)
    assert got[0] * want[0] + got[1] * want[1] > 0, (got, want)
    assert math.gcd(*got) == 1


def test_arc_hit_with_a_tiny_x_component_matches_the_oracle():
    # a ray up from (1/2, 0) with x-component 10^-160 meets the bowl y = 1
    # + x^2 / 4 over [-1, 1] at height 1 + (1/2)^2 / 4, so at t = 1.0625;
    # the x-component squared lies below the least normal double
    F = Fraction
    bowl = ParabolaArc.of(F(0), F(1), F(1), 1, F(-1), F(1), "bowl")
    origin, direction = (F(1, 2), F(0)), (F(1, 10 ** 160), 1)
    assert 0 < float(direction[0]) ** 2 / 4 < 2.2250738585072014e-308
    exact = _oracle_arc_hit(bowl, origin, direction)
    assert _within(exact, (1.0625, 1e-15))
    xyw, d = _integer_leg(origin, direction)
    got = _arc_hit(bowl, xyw, d)
    assert _same(got, _oracle_arc_hit(bowl, origin, d))


# --- the integer tests through a wall's ends, against the oracles -----------------

def _q(rng, lo, hi):
    """A seeded rational in [lo, hi], most often not a float."""
    den = rng.randrange(10 ** 5, 10 ** 6)
    return Fraction(rng.randint(round(lo * den), round(hi * den)), den)


def _tilted(rng):
    while True:
        d = (_q(rng, -1, 1), _q(rng, -1, 1))
        if d[0] and d[1]:
            return d


def _angle(rng, lo, hi):
    """A seeded small angle, of order 10^-hi to 10^-lo, either sign."""
    return Fraction(rng.randint(1, 9), 10 ** rng.randint(lo + 1, hi)) * rng.choice((-1, 1))


def _within(exact, got):
    """Whether the exact t (a Fraction or _OracleSurd) lies within e of the
    float t, for ``got`` = (t, e)."""
    t, e = map(Fraction, got)
    return not (exact < t - e or exact > t + e)


def _check_integer_seg_hit(p0, p1, origin, d):
    """The oracle's t of the ray from ``origin`` along d, for the integer
    direction, or None, once the integer segment test is checked to give
    that t, a corner flag that says whether the hit is an end, and the
    oracle's reflection there."""
    wall = Segment.of(p0, p1, "s")
    xyw, di = _integer_leg(origin, d)
    got, want = _seg_hit(wall, xyw, di), _oracle_seg_hit((p0, p1), origin, di)
    assert _same(got, want), (p0, p1, origin, d)
    if got is not None:
        assert got[2] == (_hit_point(xyw, di, want) in (p0, p1))
        _check_reflection(wall, xyw, di, want, lambda _: (p0[1] - p1[1], p1[0] - p0[0]))
    return want


def _segment_sweep(rng, p0, p1, d):
    """The ray along d through an end of the segment (p0, p1), from back
    of it, checked by _check_integer_seg_hit: the oracle's t, None where
    the ray runs along the segment."""
    end = rng.choice((p0, p1))
    back = _q(rng, 0.01, 5)
    origin = (end[0] - back * d[0], end[1] - back * d[1])
    return _check_integer_seg_hit(p0, p1, origin, d)


def test_segment_hits_through_an_end_match_the_oracle():
    # seeded rays through a segment's exact end (s = 0 or 1), tilted, then
    # nearly parallel to the segment: the integer test finds each hit the
    # oracle finds, at its t
    rng = random.Random(1301)
    hits = 0
    for _ in range(20_000):
        p0 = (_q(rng, -60, 60), _q(rng, -60, 60))
        p1 = (p0[0] + _q(rng, -3, 3), p0[1] + _q(rng, -3, 3))
        hits += _segment_sweep(rng, p0, p1, _tilted(rng)) is not None
    assert hits > 19_000
    for _ in range(5_000):
        p0, d = (_q(rng, -60, 60), _q(rng, -60, 60)), _tilted(rng)
        # the segment turned from the ray by a small angle a
        a, length = _angle(rng, 6, 13), _q(rng, -3, 3)
        p1 = (p0[0] + length * (d[0] - a * d[1]), p0[1] + length * (d[1] + a * d[0]))
        assert _segment_sweep(rng, p0, p1, d) is not None, (p0, p1, d)


def _arc_sweep(rng, tangential):
    """A seeded arc and a ray through one of its ends (x = x_lo or x_hi),
    tilted, or turned from the arc's tangent there by a small angle:
    (arc, the oracle's t), None where the ray misses.  The integer test is
    checked against the oracle on the way: the same t, a corner flag that
    says whether the hit is an end, and the oracle's reflection."""
    axis_x, apex_y = _q(rng, -60, 60), _q(rng, -60, 60)
    p, sign = _q(rng, 0.1, 2), rng.choice((-1, 1))
    x_lo = axis_x + _q(rng, -2, 1)
    x_hi = x_lo + _q(rng, 0.1, 2)
    arc = ParabolaArc.of(axis_x, apex_y, p, sign, x_lo, x_hi, "arc")
    x = rng.choice((x_lo, x_hi))
    end = (x, arc.y_at(x))
    if tangential:
        slope, a = sign * (x - axis_x) / (2 * p), _angle(rng, 1, 9)
        d = (1 - a * slope, slope + a)
    else:
        d = _tilted(rng)
    back = _q(rng, 0.01, 5)
    origin = (end[0] - back * d[0], end[1] - back * d[1])
    wall = arc
    xyw, di = _integer_leg(origin, d)
    got, want = _arc_hit(wall, xyw, di), _oracle_arc_hit(arc, origin, di)
    assert _same(got, want), arc
    if got is not None:
        assert got[2] == (_hit_point(xyw, di, want)[0] in (x_lo, x_hi))
        _check_reflection(wall, xyw, di, want,
                          lambda point: (-sign * (point[0] - axis_x) / (2 * p), 1))
    return arc, want


#: A chart's tangent and beam: unit, axis-aligned and perpendicular.
FRAMES = (((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0)),
          ((1, 0), (0, -1)), ((0, 1), (1, 0)))


def test_chart_crossings_match_the_oracle():
    # seeded rays at a chart's window ends (u = lo - 1/2 or hi + 1/2) or
    # at random points of its line, from back of it or past it: the integer
    # test gives the oracle's t and u, or None where the oracle does
    rng = random.Random(1303)
    crossed = ends = 0
    for _ in range(2_000):
        tangent, beam = rng.choice(FRAMES)
        lo = _q(rng, -3, 3)
        chart = Chart.of((_q(rng, -60, 60), _q(rng, -60, 60)), tangent, beam,
                         lo, lo + _q(rng, 0.1, 3), "chart")
        end = rng.random() < 0.5
        u = (rng.choice((chart.lo - Fraction(1, 2), chart.hi + Fraction(1, 2))) if end
             else _q(rng, -5, 5))
        d, back = _tilted(rng), _q(rng, -1, 5)
        at = chart.chart(u)
        origin = (at[0] - back * d[0], at[1] - back * d[1])
        xyw, di = _integer_leg(origin, d)
        got = _chart_hit(chart, xyw, di)
        want = _oracle_chart_hit(chart, origin, di)
        assert (got is None) == (want is None), (chart, origin, d)
        if got is not None:
            assert (Fraction(got[0], got[1]), Fraction(*got[2])) == want
            crossed += 1
            ends += end
    assert crossed > 500 and ends > 200


def test_arc_hits_through_an_end_match_the_oracle():
    # seeded rays through an arc's exact end, tilted, then nearly tangent
    # to the arc: the integer test finds each hit the oracle finds, at its t
    rng = random.Random(1302)
    hits = 0
    for _ in range(5_000):
        _, exact = _arc_sweep(rng, False)
        hits += exact is not None
    assert hits > 4_900
    for _ in range(2_000):
        arc, exact = _arc_sweep(rng, True)
        assert exact is not None, arc


def _first_hit(walls, pos, direction):
    """The wall the trace from ``pos`` along ``direction`` hits first."""
    kind, wall, *_ = next(_trace(_Walls(TraceScene(walls, ())), *_integer_leg(pos, direction)))
    assert kind == "hit"
    return wall.wall_id


def test_a_spurious_near_hit_does_not_hide_the_far_wall():
    # the ray along y = 0 passes 1e-20 below the end of ``near``, closer
    # than floats resolve: the exact test refutes that hit at t = 1, and
    # the trace goes on to ``far`` at t = 3
    F = Fraction
    near = Segment.of((F(1), F(1, 10 ** 20)), (F(1), F(1)), "near")
    far = Segment.of((F(3), F(-1)), (F(3), F(1)), "far")
    origin, direction = (F(0), F(0)), (F(1), F(0))
    assert _seg_hit(near, *_integer_leg(origin, direction)) is None
    assert _first_hit([near, far], origin, direction) == "far"


def test_a_far_float_t_does_not_shut_out_the_nearest_wall():
    # A runs through the ray's point at t0 = 1.02849, turned from the ray
    # by 7e-12: a float t for it reads about 1.0287, 2e-4 past the exact
    # one, so a shortlist cut on float t alone would weigh only B, at
    # 1.028596.  Weighed exactly, A wins.
    F = Fraction
    o, d = (F(116931, 25000), F(-96839, 20000)), (F(54423, 125000), F(-70583, 1000000))
    perp = (-d[1], d[0])
    t0, t1 = F(102849, 100000), F(10285960218343517, 10 ** 16)
    h = (o[0] + t0 * d[0], o[1] + t0 * d[1])
    e = (d[0] + F(7, 10 ** 12) * perp[0], d[1] + F(7, 10 ** 12) * perp[1])
    a = Segment.of((h[0] - F(417, 500) * e[0], h[1] - F(417, 500) * e[1]),
                   (h[0] + F(391, 1000) * e[0], h[1] + F(391, 1000) * e[1]), "A")
    c = (o[0] + t1 * d[0], o[1] + t1 * d[1])
    b = Segment.of((c[0] - perp[0] / 1000, c[1] - perp[1] / 1000),
                   (c[0] + perp[0] / 1000, c[1] + perp[1] / 1000), "B")
    xyw, di = _integer_leg(o, d)
    t, wall, _ = _Walls(TraceScene([a, b], ())).nearest(xyw, di, None).result()
    # di is d times di[0] / d[0]
    assert wall.wall_id == "A" and _t(t) * di[0] / d[0] == t0


# --- exact semantics: ties, corners, grazes and irrational roots -----------------------

def test_an_exact_tie_is_degenerate():
    # two walls crossing at the point the ray reaches at t = 2
    F = Fraction
    a = Segment.of((F(1), F(-1)), (F(1), F(1)), "a")
    b = Segment.of((F(0), F(-1)), (F(2), F(1)), "b")
    with pytest.raises(TracingDegeneracy, match="two walls"):
        _first_hit([a, b], (F(-1), F(0)), (F(1), F(0)))


def test_a_hit_on_a_wall_end_is_degenerate():
    # a segment met at its end point, and an arc met at its x_hi
    F = Fraction
    post = Segment.of((F(1), F(1)), (F(1), F(3)), "post")
    with pytest.raises(TracingDegeneracy, match="corner hit on post"):
        _first_hit([post], (F(0), F(1)), (F(1), F(0)))
    bowl = ParabolaArc.of(F(0), F(0), F(1), 1, F(-1), F(1), "bowl")
    with pytest.raises(TracingDegeneracy, match="corner hit on bowl"):
        _first_hit([bowl], (F(1), F(-1)), (F(0), F(1)))
    # a chart's window keeps both ends: the ray crosses the chart below
    # exactly at u = hi + 1/2, then hits the post inside it
    chart = Chart.of((F(0), F(0)), (1, 0), (0, 1), F(0), F(1), "chart")
    post = Segment.of((F(-5), F(2)), (F(5), F(2)), "post")
    cross, hit = islice(_trace(_Walls(TraceScene([post], (), [chart])),
                               *_integer_leg((F(3, 2), F(-1)), (F(0), F(1)))), 2)
    assert cross[:2] == ("cross", chart) and F(*cross[3]) == F(3, 2)
    assert hit[:2] == ("hit", hit[1]) and hit[1].wall_id == "post"
    assert _rational(hit[2]) == (F(3, 2), F(2))


def test_a_graze_is_degenerate():
    # the x-axis touches the bowl y = x^2 / 4 at its apex: d . n = 0
    F = Fraction
    bowl = ParabolaArc.of(F(0), F(0), F(1), 1, F(-1), F(1), "bowl")
    with pytest.raises(TracingDegeneracy, match="grazing hit on bowl"):
        for _ in _trace(_Walls(TraceScene([bowl], ())), *_integer_leg((F(-2), F(0)), (1, 0))):
            pass


def test_a_direction_past_the_float_range_is_read_to_scale():
    # a ray from the origin along (10^400, 1), integers no double holds:
    # the float leg runs along d / isqrt(d.d), its float t scaled with the
    # exact one, so the ray bounces between two posts exactly
    F, big = Fraction, 10 ** 400
    with pytest.raises(OverflowError):
        float(big)
    right = Segment.of((F(1), F(-1)), (F(1), F(1)), "right")
    left = Segment.of((F(-1), F(-1)), (F(-1), F(1)), "left")
    hits = list(islice(_trace(_Walls(TraceScene([right, left], ())), (0, 0, 1), (big, 1)), 3))
    assert [(kind, wall.wall_id, _rational(point)) for kind, wall, point, _, _ in hits] == [
        ("hit", "right", (F(1), F(1, big))), ("hit", "left", (F(-1), F(3, big))),
        ("hit", "right", (F(1), F(5, big)))]
    assert [d for *_, d in hits] == [(big, 1), (-big, 1), (big, 1)]


def test_a_position_past_the_float_range_is_clipped_to_the_scene():
    # a leg whose origin no double holds is clipped exactly to the scene's
    # integer box before it is read in floats: its walk starts where it
    # enters the box, and the exact hit is found
    F = Fraction
    post = Segment.of((F(1), F(-1)), (F(1), F(1)), "post")
    kind, wall, point, _, _ = next(_trace(_Walls(TraceScene([post], ())),
                                          (-(10 ** 400), 0, 1), (1, 0)))
    assert (kind, wall.wall_id, _rational(point)) == ("hit", "post", (F(1), F(0)))
    # a ray that misses the box escapes
    with pytest.raises(TracingError, match="escaped"):
        next(_trace(_Walls(TraceScene([post], ())), (-(10 ** 400), 3, 1), (1, 0)))
    # a hit whose t no double holds, 1.9e308 away, is still found
    far = Segment.of((F(9 * 10 ** 307), F(-1)), (F(9 * 10 ** 307), F(1)), "far")
    kind, wall, point, _, _ = next(_trace(_Walls(TraceScene([far], ())), (-(10 ** 308), 0, 1),
                                          (1, 0)))
    assert (kind, wall.wall_id, _rational(point)) == ("hit", "far", (F(9 * 10 ** 307), F(0)))


#: The bowl y = x^2 / 4 over [-1, 1] and the ray (1/2, 0) + t (1, 1): they
#: meet where t^2 - 3t + 1/4 = 0, first at t = 3/2 - sqrt(2).
IRRATIONAL_BOWL = ParabolaArc.of(Fraction(0), Fraction(0), Fraction(1), 1,
                                 Fraction(-1), Fraction(1), "bowl")
RAY = ((Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(1)))


def _post(t):
    """A vertical segment the ray meets at t."""
    x = RAY[0][0] + t
    return Segment.of((x, Fraction(-1)), (x, Fraction(2)), "post")


def test_an_irrational_root_is_compared_exactly():
    # the root is 3/2 - sqrt(2), (a + b sqrt(D)) / m in integers
    a, b, big_d, m = _arc_hit(IRRATIONAL_BOWL, *_integer_leg(*RAY))
    assert Fraction(a, m) == Fraction(3, 2) and b < 0 and Fraction(b * b * big_d, m * m) == 2
    root = _oracle_arc_hit(IRRATIONAL_BOWL, *RAY)
    assert (root.a, root.b ** 2 * root.d) == (Fraction(3, 2), 2) and root.b < 0
    # sqrt(2) to 30 digits, from below and from above: two posts 1e-30
    # either side of the root, which floats cannot tell apart
    s_lo = Fraction(math.isqrt(2 * 10 ** 60), 10 ** 30)
    before, after = Fraction(3, 2) - s_lo - Fraction(1, 10 ** 30), Fraction(3, 2) - s_lo
    assert before < root < after and float(before) == float(after)
    # a nearer rational hit wins; the irrational one loses to it
    assert _first_hit([IRRATIONAL_BOWL, _post(before)], *RAY) == "post"
    # where the irrational root is nearest, the trace has left the rationals
    for walls in ([IRRATIONAL_BOWL], [IRRATIONAL_BOWL, _post(after)]):
        with pytest.raises(TracingError, match="left the rationals at bowl"):
            _first_hit(walls, *RAY)


def test_a_run_that_leaves_the_rationals_exits_3(tmp_path, monkeypatch, capsys):
    # rev-move's run of @1 at K=3 flies along y = 860/27 from x = 4.85 to
    # 34.15; a bowl y = 31 + (x - 20)^2 / 4 over [18, 22] placed across
    # that leg is met at x = 20 - 2 sqrt(23/27), an irrational point
    from carom.cli import main
    from carom.table import BilliardTable
    from carom.zoo import MACHINE_TEXTS
    path = tmp_path / "rev-move.tm"
    path.write_text(MACHINE_TEXTS["rev-move"])
    argv = ["run", str(path), "--K", "3", "--tape", "@1", "--mode", "numeric"]
    assert main(argv) == 0
    bowl = ParabolaArc.of(Fraction(20), Fraction(31), Fraction(1), 1, Fraction(18),
                          Fraction(22), "bowl")
    static_walls = BilliardTable.static_walls.func
    monkeypatch.setattr(BilliardTable, "static_walls",
                        property(lambda table: static_walls(table) + (bowl,)))
    capsys.readouterr()
    assert main(argv) == 3
    assert "trajectory left the rationals at bowl" in capsys.readouterr().err
