"""Walls and charts as integer records: ``Segment``, ``ParabolaArc`` and
``Chart``.

Every wall of each fixture table's scene, and each gadget's static walls,
is rebuilt by its ``of`` constructor from its ``Fraction`` views, and is
the data the tracer read before walls were records: a static wall's
Fractions over their least common denominator (``_integers``, kept here as
the oracle), a mirror row as it is.  Its float box, which the tracer's
position filter reads (``_float_box``), is built from its ends and heights
in floats, every float as ``float(Fraction)``, widened by 1e-9 (1 + |v|)
on each side.  Every mirror row is in lowest terms, so ``of`` rebuilds it
as it is.  A chart is rebuilt by ``Chart.of`` from its views, and its
points and wall are those its views make.
"""

import math
from fractions import Fraction

import pytest

from carom.gadgets import _REGIMES, build_shift_stage, build_turn_gadget
from carom.geometry import Chart, ParabolaArc, Segment
from carom.numeric import _float_box
from carom.table import compile_table
from carom.zoo import fixture_machines

F = Fraction


def _integers(*values):
    """(den, n_0, n_1, ...): the rationals ``values`` over their least
    common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return (den,) + tuple(v.numerator * (den // v.denominator) for v in values)


def _is_mirror(wall):
    return wall.wall_id.endswith((":W", ":Wt"))


def _rebuilt(wall):
    if wall.kind == "segment":
        return Segment.of(wall.p0, wall.p1, wall.wall_id)
    return ParabolaArc.of(wall.axis_x, wall.apex_y, wall.p, wall.sign, wall.x_lo, wall.x_hi,
                          wall.wall_id)


def _lowest(wall):
    """The record with its den and the integers over it divided by their
    gcd (a sign is not over den)."""
    over = [i for i in range(1, len(wall) - 1) if wall._fields[i] != "sign"]
    g = math.gcd(wall[0], *(wall[i] for i in over))
    return wall._replace(den=wall[0] // g, **{wall._fields[i]: wall[i] // g for i in over})


def _widened(x0, y0, x1, y1):
    s = 1e-9
    return (x0 - s * (1 + abs(x0)), y0 - s * (1 + abs(y0)),
            x1 + s * (1 + abs(x1)), y1 + s * (1 + abs(y1)))


def _segment_box(p0, p1):
    """The float box of the segment from p0 to p1, widened."""
    (x0, y0), (x1, y1) = ((float(x), float(y)) for x, y in (p0, p1))
    return _widened(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


def _oracle(wall):
    """(data, float box) of the wall as the tracer read them from Fraction
    walls and integer mirror rows."""
    if wall.kind == "segment":
        (x0, y0), (x1, y1) = wall.p0, wall.p1
        data = tuple(wall) if _is_mirror(wall) else _integers(x0, y0, x1, y1) + (wall.wall_id,)
        return data, _segment_box(wall.p0, wall.p1)
    q, a, b, p, lo, hi = _integers(wall.axis_x, wall.apex_y, wall.p, wall.x_lo, wall.x_hi)
    axis_x, apex_y, fp, x_lo, x_hi = (
        float(v) for v in (wall.axis_x, wall.apex_y, wall.p, wall.x_lo, wall.x_hi))
    ys = [apex_y + wall.sign * (x - axis_x) ** 2 / (4 * fp) for x in (x_lo, x_hi)]
    if x_lo < axis_x < x_hi:
        ys.append(apex_y)
    return (q, a, b, p, wall.sign, lo, hi, wall.wall_id), _widened(x_lo, min(ys), x_hi, max(ys))


def _gadget_walls():
    gadgets = [build_shift_stage(eps, base_x=F(16), sigma=-2, name="s") for eps in (1, -1)]
    gadgets += [build_turn_gadget(turn) for turn in (90, -90)]
    gadgets.append(build_turn_gadget(90, window=(F(-1, 3), F(13, 9))))
    return [w for g in gadgets for w in g.static_walls] + [
        w for regimes in _REGIMES.values() for r in regimes for w in r.arcs]


def _check(walls):
    for wall in walls:
        rebuilt = _rebuilt(wall)
        if _is_mirror(wall):
            assert rebuilt == _lowest(wall), wall.wall_id
        else:
            assert rebuilt == wall, wall.wall_id
        assert (wall, _float_box(wall)) == _oracle(wall), wall.wall_id


@pytest.mark.parametrize("K", [2, 8])
@pytest.mark.parametrize("name", sorted(fixture_machines()))
def test_scene_records_rebuild_from_their_views(name, K):
    table = compile_table(fixture_machines()[name], K)
    walls = table.scene_walls()
    assert any(_is_mirror(w) for w in walls) and any(w.kind != "segment" for w in walls)
    _check(walls)
    # the charts the tracer passes through, read in integers alike
    for chart in table.marked_segments():
        ends = (chart.chart(chart.lo - F(1, 2)), chart.chart(chart.hi + F(1, 2)))
        assert _float_box(chart) == _segment_box(*ends), chart.name


def test_gadget_records_rebuild_from_their_views():
    _check(_gadget_walls())


@pytest.mark.parametrize("dx, dy", [(3, 0), (0, -12), (F(1, 9), F(-5, 2))])
def test_translated_records_are_the_moved_views(dx, dy):
    # translated moves a record in integers, over den times the move's
    # denominator: by value the wall the views moved build
    for wall in _gadget_walls():
        moved = wall.translated(dx, dy)
        if wall.kind == "segment":
            want = Segment.of(*((x + dx, y + dy) for x, y in (wall.p0, wall.p1)), wall.wall_id)
        else:
            want = ParabolaArc.of(wall.axis_x + dx, wall.apex_y + dy, wall.p, wall.sign,
                                  wall.x_lo + dx, wall.x_hi + dx, wall.wall_id)
        assert _lowest(moved) == want, wall.wall_id
        if F(dx).denominator == F(dy).denominator == 1:
            assert moved == want, wall.wall_id


@pytest.mark.parametrize("args", [
    (F(0), F(0), F(0), 1, F(-1), F(1)),          # p = 0
    (F(0), F(0), F(-1), 1, F(-1), F(1)),         # p < 0
    (F(0), F(0), F(1), 0, F(-1), F(1)),          # sign 0
    (F(0), F(0), F(1), 2, F(-1), F(1)),          # sign 2
    (F(0), F(0), F(1), 1, F(1), F(1)),           # x_lo = x_hi
    (F(0), F(0), F(1), -1, F(2), F(1)),          # x_lo > x_hi
])
def test_degenerate_arcs_are_refused(args):
    with pytest.raises(ValueError, match="degenerate arc bad"):
        ParabolaArc.of(*args, "bad")


def test_zero_length_segment_is_refused():
    with pytest.raises(ValueError, match="degenerate segment bad"):
        Segment.of((F(1, 3), F(2)), (F(2, 6), F(2)), "bad")


@pytest.mark.parametrize("name", sorted(fixture_machines()))
def test_mirror_rows_are_in_lowest_terms(name):
    # each wall of a template pair has its own den, the lcm of the step's
    # denominator and its own: no row of levels |k| <= 4 carries a spare
    # factor in its den and all four numerators
    table = compile_table(fixture_machines()[name], 8)
    rows = [w for w in table.scene_walls(range(-4, 5)) if _is_mirror(w)]
    assert rows
    for row in rows:
        assert math.gcd(*row[:5]) == 1, row


def _charts():
    """Every chart of the fixture tables at K=2 and the gadgets' ports."""
    charts = []
    for machine in fixture_machines().values():
        table = compile_table(machine, 2)
        charts += table.marked_segments()
        for corridor in table.corridors.values():
            for g in (corridor.split, corridor.stage, corridor.merge):
                if g is not None:
                    charts += list(g.in_ports.values()) + list(g.out_ports.values())
    for turn in (90, -90):
        g = build_turn_gadget(turn, window=(F(-1, 3), F(13, 9)))
        charts += list(g.in_ports.values()) + list(g.out_ports.values())
    return charts


def test_chart_records_rebuild_from_their_views():
    # a chart is its views over their least common denominator, its
    # points are origin + u * tangent in Fractions and in integers, and a
    # hard chart's wall is the segment over its window
    for chart in _charts():
        assert Chart.of(chart.origin, chart.tangent, chart.beam, chart.lo, chart.hi,
                        chart.name, chart.hard) == chart
        assert chart[:5] == _integers(*chart.origin, chart.lo, chart.hi)
        for u in (chart.lo, chart.hi, F(1, 3 ** 7), F(-5, 2)):
            want = tuple(o + u * t for o, t in zip(chart.origin, chart.tangent))
            assert chart.chart(u) == want, chart
            x, y, w = chart.point(u.numerator, u.denominator)
            assert (F(x, w), F(y, w)) == want and w == chart.den * u.denominator
            assert F(*chart.u_at((x, y, w))) == u
        wall = chart.wall
        assert _lowest(wall) == Segment.of(chart.chart(chart.lo), chart.chart(chart.hi),
                                           f"wall:{chart.name}")
