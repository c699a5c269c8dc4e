"""Soundness of the positional wall query, ``_BlockMirrors.walls_in(leg)``.

Every wall of the full wall list that a leg meets must come back from the
query: checked exactly with ``segments_intersect`` for segments and
against the bounding box for parabola arcs, on seeded vertical,
horizontal and tilted legs and on every leg of real numeric traces.  The
blocks the query picks per (level, symbol, wall), each window decided in
integers, must also be exactly those an exact rational window, the oracle
here, picks, on legs at walls and on legs that end exactly on a box edge.
The query reads each mirror family's own levels and returns Segments, the
integer records the full list holds.  The numeric tracer's index walk
(static walls and charts by box, families by level region, each stopped
at the nearest hit) is checked against weighing every wall and chart
exactly, kept here as the oracle, on the fixtures and on seeded random
reversible machines.  The tracer's per-leg query, ``_Walls.nearest``, is
also checked leg by leg against its earlier form (``query_oracle``) on the
fixtures' traces, on seeded tilted legs through mirror families, on gadget
beams and on a period of ``zoo.counter_ring(4)``.
"""

import bisect
import math
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from carom.encoding import (
    blocks_in,
    cantor_blocks_at,
    digit_position,
    encode_state,
    head_interval,
    read_digit,
)
from carom.gadgets import (
    _BAND_GAIN,
    _BlockMirrors,
    _exact_leg,
    _window,
    build_merge_gadget,
    build_shift_stage,
    build_split_gadget,
    build_turn_gadget,
)
from carom.geometry import Leg, ParabolaArc, Segment, integers, segments_intersect
from carom.machine import enumerate_tapes, parse_machine, parse_tape
from carom import numeric
from carom.numeric import TraceScene, _Walls
from carom.simulate import GadgetTracer, run_numeric
from carom.table import compile_table
from carom.zoo import (
    MACHINE_TEXTS,
    counter_ring,
    fixture_machines,
    get_machine,
    random_reversible,
)
import query_oracle
from query_oracle import Nearest
from test_gadgets import _mirror_boxes
from test_trace_identity import NUMERIC_TAPES

LEVELS = range(-3, 4)
RAY_LENGTH = 10_000   # beyond every scene here: a ray checked as a segment

TOGGLER = parse_machine(
    "states: A B H\ninitial: A\nhalting: H\n"
    "A 0 -> B 1 R\nA 1 -> B 0 R\nB 0 -> H 0 R\nB 1 -> H 1 R\n", name="toggler")


class _Ray(NamedTuple):
    """A leg in Fractions, as the oracles here read it: origin + t *
    direction for 0 <= t <= t_max, or the whole ray when t_max is None.
    The query reads it as the integer Leg ``Leg.of(*ray)``."""

    origin: tuple
    direction: tuple
    t_max: Fraction | None = None


def _split():
    # rewriting (tilted) read-0 walls and plain read-1 walls on every level
    return build_split_gadget(3, writes=(1, 1))


def _merge():
    # the mirrored split classifying on the cell behind the head (eps=+1)
    virtual = build_split_gadget(3, cell_offset=-1, name="premerge")
    return build_merge_gadget(virtual, name="merge")


def _table():
    return compile_table(TOGGLER, 3)


def _full(source):
    return source.scene_walls(LEVELS) if hasattr(source, "scene_walls") else source.walls(LEVELS)


def _listing(source, query):
    """A table's flat scene, or a gadget's static walls then its mirrors,
    in order, each mirror family's entry given as the Segments
    ``query(mirrors)`` returns.  A wall is told from a family by its type."""
    scene = source.scene if hasattr(source, "scene") else (
        source.static_walls + ((source.mirrors,) if source.mirrors else ()))
    walls = []
    for entry in scene:
        if isinstance(entry, (Segment, ParabolaArc)):
            walls.append(entry)
        else:
            walls += query(entry)
    return walls


def _walls_in(source, leg):
    """The static walls and the mirrors ``walls_in`` returns for the leg,
    in ``_full`` order."""
    return _listing(source, lambda mirrors: mirrors.walls_in(Leg.of(*leg)))


def _segment(leg):
    length = RAY_LENGTH if leg.t_max is None else leg.t_max
    (x, y), (dx, dy) = leg.origin, leg.direction
    return Segment.of((x, y), (x + length * dx, y + length * dy), "leg")


def _meets(seg, wall):
    if wall.kind == "segment":
        return segments_intersect(seg, wall)
    x0, y0, x1, y1 = wall.bbox()
    if any(x0 <= p[0] <= x1 and y0 <= p[1] <= y1 for p in (seg.p0, seg.p1)):
        return True
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    return any(segments_intersect(seg, Segment.of(a, b, "edge"))
               for a, b in zip(corners, corners[1:] + corners[:1]))


def _float_box(box, pad=1e-9):
    return tuple(float(v) + (pad if i >= 2 else -pad) for i, v in enumerate(box))


def _missed(source, full, boxes, leg):
    """Walls of ``full`` that the leg meets but the query left out."""
    got = {w.wall_id for w in _walls_in(source, leg)}
    seg = _segment(leg)
    sx0, sy0, sx1, sy1 = _float_box(seg.bbox())
    missed = []
    for wall, (x0, y0, x1, y1) in zip(full, boxes):
        if x1 < sx0 or sx1 < x0 or y1 < sy0 or sy1 < y0:
            continue  # float boxes apart, padded well past rounding
        if wall.wall_id not in got and _meets(seg, wall):
            missed.append(wall.wall_id)
    return missed


def _seeded_legs(full, rng, count):
    """Legs aimed at points of random walls: vertical, horizontal and
    tilted, finite or whole rays, starting up to five units away."""
    q = lambda v: Fraction(v).limit_denominator(10 ** 9)
    legs = []
    for _ in range(count):
        wall = rng.choice(full)
        x0, y0, x1, y1 = wall.bbox()
        a = q(rng.random())
        target = (x0 + a * (x1 - x0), y0 + a * (y1 - y0))
        kind = rng.choice("vht")
        if kind == "v":
            d = (Fraction(0), Fraction(rng.choice((1, -1))))
        elif kind == "h":
            d = (Fraction(rng.choice((1, -1))), Fraction(0))
        else:
            d = (q(rng.uniform(-1, 1)), q(rng.uniform(-1, 1)))
        back = q(rng.uniform(0.01, 5))
        origin = (target[0] - back * d[0], target[1] - back * d[1])
        t_max = back * q(rng.uniform(0.5, 2)) if rng.random() < 0.7 else None
        legs.append(_Ray(origin, d, t_max))
    return legs


def _trace_legs(table, tapes):
    """Every leg of the numeric traces of ``tapes``, between consecutive
    traced points (floats, so exact dyadic Fractions)."""
    legs = []
    for literal in tapes:
        points = run_numeric(table, parse_tape(literal), 30).points
        for a, b in zip(points, points[1:]):
            a, b = tuple(map(Fraction, a)), tuple(map(Fraction, b))
            legs.append(_Ray(a, (b[0] - a[0], b[1] - a[1]), Fraction(1)))
    return legs


@pytest.mark.parametrize("build", [_split, _merge, _table], ids=["split", "merge", "table"])
def test_query_returns_every_wall_the_leg_meets(build):
    source = build()
    full = _full(source)
    boxes = [_float_box(w.bbox()) for w in full]
    legs = _seeded_legs(full, random.Random(7), 150)
    if build is _table:
        legs += _trace_legs(source, ("@", "@1", "@01", "{-1:1}"))
    order = {w.wall_id: i for i, w in enumerate(full)}
    for leg in legs:
        assert _missed(source, full, boxes, leg) == []
        # a subsequence of the full list
        ranks = [order[w.wall_id] for w in _walls_in(source, leg)]
        assert ranks == sorted(ranks)


@pytest.mark.parametrize("build", [_split, _merge, _table], ids=["split", "merge", "table"])
def test_unbounded_query_lists_every_wall(build):
    # the full listing, each family's rows walked in scene order, is the
    # wall list; levels past a family's own list nothing more
    source = build()

    def rows(mirrors):
        assert mirrors.rows(range(-9, 10)) == mirrors.rows(mirrors.levels)
        return mirrors.rows(LEVELS)

    assert _listing(source, rows) == _full(source)


@pytest.mark.parametrize("name", sorted(MACHINE_TEXTS))
def test_scene_entries_list_the_scene(name):
    # the flat scene, walked in order with every mirror family listed in
    # full, is scene_walls; the per-leg query never returns a static wall
    table = compile_table(get_machine(name), 4)
    walls = _listing(table, lambda mirrors: mirrors.rows(LEVELS))
    full = table.scene_walls(LEVELS)
    assert [w.wall_id for w in walls] == [w.wall_id for w in full]
    assert walls == full
    static = {w.wall_id for w in table.static_walls}
    assert len(table.mirror_families) == sum(
        not isinstance(e, (Segment, ParabolaArc)) for e in table.scene) > 0
    for leg in _seeded_legs(full, random.Random(5), 60):
        assert not static & {row[5] for mirrors in table.mirror_families
                             for row in mirrors.walls_in(Leg.of(*leg))}


def test_query_is_narrow():
    # a vertical beam through a split meets one block's primary mirror,
    # whatever the level count and however deep: the window is exact
    split = build_split_gadget(14)
    for k in (1, 10, 12):
        # inside the first block of I_k, of length 3^-(3k+2)
        x = head_interval(k).lo.as_fraction() + Fraction(1, 3 ** (3 * k + 3))
        got = _walls_in(split, _Ray((x, Fraction(0)), (Fraction(0), Fraction(1)), Fraction(11)))
        assert [w.wall_id.endswith(":W") for w in got] == [True], k


# --- the block window, against the exact oracle ---------------------------

def _extent(leg, i):
    """(lo, hi) of coordinate i along the leg; None where unbounded."""
    o, d, t_max = leg.origin[i], leg.direction[i], leg.t_max
    if t_max is None:
        return (o, None) if d > 0 else (None, o) if d < 0 else (o, o)
    end = o + t_max * d
    return (o, end) if d >= 0 else (end, o)


def _mirrored(leg, axis):
    """The leg reflected across the horizontal line y = axis."""
    (x, y), (dx, dy) = leg.origin, leg.direction
    return _Ray((x, 2 * axis - y), (dx, -dy), leg.t_max)


def _exact_window(leg, box, lo, hi):
    """Exact centres c in [lo, hi] whose box (ax + c +- rx, ay + 8c +- ry)
    meets the leg: separating axes x, y and the leg's normal, each a linear
    condition on c.  None when there are none."""
    (xl, xu), (yl, yu) = _extent(leg, 0), _extent(leg, 1)
    nx, ny = -leg.direction[1], leg.direction[0]
    ax, ay, rx, ry = box
    if xl is not None:
        lo = max(lo, xl - rx - ax)
    if xu is not None:
        hi = min(hi, xu + rx - ax)
    if yl is not None:
        lo = max(lo, (yl - ry - ay) / _BAND_GAIN)
    if yu is not None:
        hi = min(hi, (yu + ry - ay) / _BAND_GAIN)
    # |n . (centre(c) - origin)| <= the box's reach along n
    nv = nx + _BAND_GAIN * ny
    m = nx * (ax - leg.origin[0]) + ny * (ay - leg.origin[1])
    reach = abs(nx) * rx + abs(ny) * ry
    if nv:
        a, b = (-reach - m) / nv, (reach - m) / nv
        lo, hi = max(lo, min(a, b)), min(hi, max(a, b))
    elif abs(m) > reach:
        return None
    return (lo, hi) if lo <= hi else None


WINDOW_LEVELS = range(-4, 5)


def _window_split():
    # plain read-0 walls and rewriting (tilted) read-1 walls on every level
    split = build_split_gadget(4, writes=(0, 0), base_x=Fraction(3, 2))
    return split, split


def _window_merge():
    # (the merge, the split whose walls it mirrors across y = 5)
    virtual = build_split_gadget(4, cell_offset=-1, name="premerge")
    return build_merge_gadget(virtual, name="merge"), virtual


def _dyadic_legs(walls, rng, count):
    """Legs aimed at points of random walls, with dyadic origins and
    directions: vertical, horizontal and tilted, finite or whole rays."""
    legs = []
    for _ in range(count):
        x0, y0, x1, y1 = rng.choice(walls).bbox()
        a = Fraction(rng.random())
        target = (x0 + a * (x1 - x0), y0 + a * (y1 - y0))
        d = rng.choice([(0, rng.choice((1, -1))), (rng.choice((1, -1)), 0),
                        (rng.uniform(-1, 1), rng.uniform(-1, 1))])
        d = tuple(map(Fraction, d))
        back = Fraction(rng.uniform(0, 3) * rng.choice((1, 1e-3, 1e-6)))
        origin = tuple(Fraction(float(t - back * v)) for t, v in zip(target, d))
        t_max = back * Fraction(rng.uniform(0.5, 2)) if rng.random() < 0.7 else None
        legs.append(_Ray(origin, d, t_max))
    return legs


def _edge_legs(mirrors, levels, rng, count):
    """Legs, placed by the family's frame, that end exactly on an edge of a
    block's wall box: vertical ones on its bottom edge, horizontal ones on
    its left edge, each one unit long."""
    data = mirrors._level_data()
    oy, sy = mirrors.frame
    legs = []
    for _ in range(count):
        lv = rng.choice([lv for lv in data if lv.k in levels])
        s, w = rng.choice((0, 1)), rng.choice((0, 1))
        den, step, x, y, rx, ry = lv.boxes[s][w]
        index, _ = rng.choice(blocks_in(lv.digit_pos - 1))
        cx = mirrors.base_x + Fraction(x + index * step, den)
        cy = Fraction(y + 8 * index * step, den)
        if rng.random() < 0.5:
            end = (cx, oy + sy * (cy - Fraction(ry, den)))
            d = (Fraction(0), Fraction(sy))
        else:
            end = (cx - Fraction(rx, den), oy + sy * cy)
            d = (Fraction(1), Fraction(0))
        legs.append(_Ray((end[0] - d[0], end[1] - d[1]), d, Fraction(1)))
    return legs


@pytest.mark.parametrize("build", [_window_split, _window_merge], ids=["split", "merge"])
def test_window_blocks_equal_exact_oracle(build):
    # per (level, symbol, wall): the blocks the integer window lists are
    # those whose exact centre lies in the oracle's window, on legs at walls
    # and on legs ending exactly on a box edge, where a bound is an integer
    gadget, split = build()
    mirrors = gadget.mirrors
    rng = random.Random(11)
    legs = _dyadic_legs(gadget.walls(WINDOW_LEVELS), rng, 300)
    legs += _edge_legs(mirrors, WINDOW_LEVELS, rng, 100)
    levels = [k for k in WINDOW_LEVELS if k in mirrors.levels]
    blocks, boxes = {}, {}
    for k in levels:
        digit_pos = digit_position(k + mirrors.cell_offset)
        for s in (0, 1):
            blks = cantor_blocks_at(k, digit_pos, s)
            blocks[k, s] = (blks, [blk.centre for blk in blks])
            for w, (ax, ay, rx, ry) in enumerate(
                    _mirror_boxes(k, digit_pos, s, mirrors.writes[s])):
                boxes[k, s, w] = (ax + mirrors.base_x, ay, rx, ry)
    hull = {k: (head_interval(k).lo.as_fraction(), head_interval(k).hi.as_fraction())
            for k in levels}
    met = 0
    for leg in legs:
        exact = _exact_leg(Leg.of(*leg), mirrors.origin)
        got = {(lv.k, s, w): [bits for _, bits in blocks_in(
                   lv.digit_pos - 1, _window(lv, s, w, exact))]
               for lv in mirrors._level_data() for s in (0, 1) for w in (0, 1)}
        # the oracle reads the leg in the split's frame, as the merge's walls
        # are the split's mirrored across y = 5
        local = leg if gadget is split else _mirrored(leg, Fraction(5))
        for (k, s, w), box in boxes.items():
            window = _exact_window(local, box, *hull[k])
            blks, centres = blocks[k, s]
            want = [] if window is None else blks[bisect.bisect_left(centres, window[0]):
                                                  bisect.bisect_right(centres, window[1])]
            assert got.get((k, s, w), []) == [blk.bits for blk in want], (k, s, w)
            met += len(want)
    assert met >= len(legs) // 2     # the legs do meet walls


def block_indices(n_free, window=None):
    """The oracle of ``blocks_in``: (F, bits) of every block index F in
    ``window`` (None: all of them), ascending, found by a descent over the
    free digits that drops every prefix whose blocks all miss the window."""
    span = 3 ** n_free
    lo, hi = 0, span - 1
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    if lo > hi:
        return []
    found = [(0, 0)]
    for _ in range(n_free):
        span //= 3
        found = [(v, 2 * bits + bit) for value, bits in found
                 for v, bit in ((3 * value, 0), (3 * value + 2, 1))
                 if v * span <= hi and (v + 1) * span > lo]
    return found


def test_blocks_in_lists_the_windows_block_indices():
    # the encoding's block lister against a descent, on seeded windows of
    # every kind: empty, one index (a block or not), a few, many,
    # everything, and windows reaching out of range on either side
    rng = random.Random(17)
    for n in range(18):
        top = 3 ** n - 1
        assert blocks_in(n) == block_indices(n) == blocks_in(n, (-5, top + 5))
        some = [index for index, _ in block_indices(n)]
        windows = [(1, 0), (top + 1, top + 9), (-9, -1)]
        for _ in range(40):
            lo = rng.choice([rng.choice(some), rng.randrange(-3, top + 4)])
            windows.append((lo, lo + rng.choice([-1, 0, 0, 1, 2, 9, 100, top // 3, top])))
        for window in windows:
            assert blocks_in(n, window) == block_indices(n, window), (n, window)


# --- the index walk of numeric._Walls, against the full pass --------------

@pytest.mark.parametrize("name", sorted(MACHINE_TEXTS))
def test_static_float_boxes_hold_the_exact_boxes(name):
    # the walk is sound only if every static wall's float box in the
    # index, read off its float data, holds the wall's exact box, and the
    # scene's integer box holds every box in the index
    table = compile_table(get_machine(name), 8)
    scene = TraceScene(table.static_walls, ())
    assert [entry[4] for entry in scene.index.entries] == list(table.static_walls)
    for *box, wall in scene.index.entries:
        x0, y0, x1, y1 = wall.bbox()
        assert (Fraction(box[0]) < x0 and Fraction(box[1]) < y0
                and Fraction(box[2]) > x1 and Fraction(box[3]) > y1), wall.wall_id
    boxes = [entry[:4] for entry in scene.index.entries]
    assert scene.box == tuple(round_(b[i] for b in boxes) for i, round_ in enumerate(
        (lambda v: math.floor(min(v)), lambda v: math.floor(min(v)),
         lambda v: math.ceil(max(v)), lambda v: math.ceil(max(v)))))


def _leg_floats(xyw, d):
    """(fo, fd): the integer leg from ``xyw`` along d in floats, as
    ``_Walls.nearest`` reads it, along d / isqrt(d.d)."""
    scale = math.isqrt(d[0] * d[0] + d[1] * d[1])
    return (xyw[0] / xyw[2], xyw[1] / xyw[2]), (d[0] / scale, d[1] / scale)


def _exact_t(t):
    """An exact hit's t, (n, m, ...), as a Fraction; None for None."""
    return None if t is None else Fraction(t[0], t[1])


def _full_pass(walls, xyw, direction, exclude, full_rows):
    """The Nearest of the leg with every position filter left out: every
    static wall and chart weighed exactly, then each family's mirrors,
    its full ``rows(mirrors.levels)`` when ``full_rows`` is given
    (one list of rows for all the families), else those ``walls_in``
    returns for the whole exact ray, uncut."""
    found = Nearest(xyw, direction)
    for w in walls.scene.static:
        found.offer(w, exclude)
    if full_rows is None:
        ray = Leg(xyw, direction, None)
        rows = [row for mirrors in walls.scene.families for row in mirrors.walls_in(ray)]
    else:
        rows = full_rows
    # the wall the leg leaves, by its id
    gone = None if exclude is None else exclude.wall_id
    for w in rows:
        if w.wall_id != gone:
            found.offer(w, None)
    return found


def _irrational_before(t, irrational):
    """The ids of the walls of the ``irrational`` hits that come before the
    nearest rational hit t, all of them when it is None: those that fail a
    trace."""
    return [w.wall_id for (a, b, d, m), w in irrational
            if t is None or numeric._surd_sign(a * t[1] - t[0] * m, b * t[1], d) < 0]


def _unfiltered_crossings(charts, pos, direction, best_t):
    """(t, chart) of every chart's crossing before ``best_t``, computed
    exactly, in flight order."""
    crossings = []
    for chart in charts:
        co, ct, cb = chart.origin, chart.tangent, chart.beam
        den = direction[0] * cb[0] + direction[1] * cb[1]
        if den <= 0:
            continue
        t = ((co[0] - pos[0]) * cb[0] + (co[1] - pos[1]) * cb[1]) / den
        if t <= 0 or (best_t is not None and t >= best_t):
            continue
        point = (pos[0] + t * direction[0], pos[1] + t * direction[1])
        u = (point[0] - co[0]) * ct[0] + (point[1] - co[1]) * ct[1]
        if chart.lo - Fraction(1, 2) <= u <= chart.hi + Fraction(1, 2):
            crossings.append((t, chart))
    return sorted(crossings, key=lambda c: c[0])


def _float_line(chart):
    """(origin, tangent, beam, u_lo, u_hi) of ``chart`` in floats, its
    window widened by 1/2 at each end."""
    return (tuple(map(float, chart.origin)), tuple(map(float, chart.tangent)),
            tuple(map(float, chart.beam)), float(chart.lo) - 0.5, float(chart.hi) + 0.5)


def _far_from_window(fline, fo, fd):
    """Whether the float ray (fo, fd) crosses the chart line ``fline``
    forwards more than 1 outside its window: a chart left out in floats."""
    fco, fct, fcb, lo, hi = fline
    den = fd[0] * fcb[0] + fd[1] * fcb[1]
    if den < 0.5:
        return False
    t = ((fco[0] - fo[0]) * fcb[0] + (fco[1] - fo[1]) * fcb[1]) / den
    u = (fo[0] + t * fd[0] - fco[0]) * fct[0] + (fo[1] + t * fd[1] - fco[1]) * fct[1]
    return not lo - 1 <= u <= hi + 1


def _parallel_and_clear(fline, fo, fd, best_t):
    """Whether the float ray (fo, fd) runs parallel to the chart line
    ``fline`` to 1e-9 and its crossing lies clearly behind the ray or past
    ``best_t``: a near-parallel chart left out in floats."""
    fco, _, fcb, _, _ = fline
    if abs(fd[0] * fcb[0] + fd[1] * fcb[1]) > 1e-9 * (abs(fd[0]) + abs(fd[1])):
        return False
    num = (fco[0] - fo[0]) * fcb[0] + (fco[1] - fo[1]) * fcb[1]
    return num < -1e-3 or (best_t is not None and num > 1e-3 * (1 + float(best_t)))


#: Seeded random reversible machines (zoo.random_reversible) the walk is
#: checked on besides the six fixtures, at K=8.
RANDOM_RUNS = [(random_reversible(random.Random(seed), n), 8, tape, 30)
               for seed, n in ((1, 4), (2, 6), (3, 4), (4, 8))
               for tape in ("@", "@1", "1@01", "@0110")]


def test_pre_rejects_keep_every_hit_and_crossing(monkeypatch):
    # on every leg of real traces, the walls and charts the index walk
    # leaves out change nothing: the walls, charts and mirrors it meets
    # give the nearest hit, the crossings and the irrational hits before
    # it that weighing every wall and chart exactly gives; a runner-up it
    # did not weigh lies past the nearest hit, where the walk stops.  At
    # K=4 the full pass weighs every family's full rows; at K=8, where one
    # family holds 524,284 mirrors, the families' walls on the whole
    # uncut ray
    seen = {"legs": 0, "static_left_out": 0, "families_left_out": 0, "charts_left_out": 0,
            "parallel_charts_left_out": 0}
    nearest, full_rows, full_levels = _Walls.nearest, {}, False
    # what the walk offered on the last leg: each wall and chart the
    # scene's walk yields, the wall the leg leaves included though it is
    # not tested, and each row of the family regions it meets (a family's
    # own walk yields its regions, which have no kind)
    weighed, walk, block_rows = [], numeric._RayIndex.walk, _BlockMirrors.block_rows

    def recorded_walk(index, *args):
        for entry in walk(index, *args):
            if getattr(entry, "kind", "family") != "family":
                weighed.append(entry)
            yield entry

    def recorded_rows(mirrors, *args):
        rows = block_rows(mirrors, *args)
        weighed.extend(rows)
        return rows

    monkeypatch.setattr(numeric._RayIndex, "walk", recorded_walk)
    monkeypatch.setattr(_BlockMirrors, "block_rows", recorded_rows)

    def checked_nearest(walls, xyw, direction, exclude):
        weighed.clear()
        found = nearest(walls, xyw, direction, exclude)
        t, wall, second, irrational, crossings = found
        met = list(weighed)
        if walls not in full_rows:
            full_rows[walls] = [
                row for mirrors in walls.scene.families
                for row in mirrors.rows(mirrors.levels)] if full_levels else None
        full = _full_pass(walls, xyw, direction, exclude, full_rows[walls])
        assert ((_exact_t(t), wall and wall.wall_id)
                == (_exact_t(full.t), full.wall and full.wall.wall_id))
        if _exact_t(second) != _exact_t(full.second):
            # the full pass's runner-up lies past the nearest hit: it ties
            # nothing
            assert t is not None and _exact_t(full.second) > _exact_t(t)
            assert second is None or _exact_t(second) > _exact_t(full.second)
        assert _irrational_before(t, irrational) == _irrational_before(full.t, full.irrational)
        assert ([(_exact_t(u), w) for u, w in crossings]
                == [(_exact_t(u), w) for u, w in full.crossed()])
        fo, fd = _leg_floats(xyw, direction)
        seen["legs"] += 1
        met_ids = {id(w) for w in met}
        static = [w for w in walls.scene.static if w.kind != "chart"]
        seen["static_left_out"] += sum(id(w) not in met_ids for w in static)
        seen["families_left_out"] += sum(
            not any(w.kind == "segment" and w.wall_id.startswith(mirrors.name + ":k")
                    for w in met)
            for mirrors in walls.scene.families)
        charts = [w for w in walls.scene.static if w.kind == "chart" and id(w) not in met_ids]
        seen["charts_left_out"] += sum(_far_from_window(_float_line(w), fo, fd) for w in charts)
        seen["parallel_charts_left_out"] += sum(
            _parallel_and_clear(_float_line(w), fo, fd, _exact_t(full.t)) for w in charts)
        return found

    monkeypatch.setattr(_Walls, "nearest", checked_nearest)
    runs = [(get_machine(name), 4, literal, 30) for name, literal in NUMERIC_TAPES]
    # pacer's cycling runs trace one period, so the long runs here are
    # ones that never return: walker, counter and bit-flipper across long
    # blocks of ones or zeros, rev-move and looper walking to the edge of K=8
    runs += [(get_machine(name), 8, literal, 100) for name, literal in (
        ("walker", "@111"), ("walker", "@1111111"), ("walker", "1111@111"),
        ("counter", "@1111111"), ("bit-flipper", "@0000001"), ("rev-move", "@00000001"),
        ("looper", "@"), ("walker", "1111111@"))]
    tables = {}
    for machine, K, literal, budget in runs + RANDOM_RUNS:
        key = machine.canonical_text(), K
        if key not in tables:
            tables[key] = compile_table(machine, K)
        full_levels = K == 4
        run_numeric(tables[key], parse_tape(literal), budget)
    assert seen["legs"] > 1000
    assert min(seen.values()) > 0, seen


def test_only_a_leg_along_a_chart_line_weighs_it_at_working_precision(monkeypatch):
    table = _table()
    chart = table.stations["A"].checkpoint
    walls = _Walls(TraceScene((), (), (chart,)))
    # count the chart's exact weighings
    weighings, exact_hit = [], numeric._HITS["chart"]
    monkeypatch.setitem(numeric._HITS, "chart",
                        lambda *args: weighings.append(args) or exact_hit(*args))
    co, ct, cb = chart.origin, chart.tangent, chart.beam
    # legs along the line's tangent, from the line or a distance before or
    # past it along the beam, tilted towards the beam by ``tilt``: parallel
    # on the line, one unit off it either way, and a leg so nearly parallel
    # that floats cannot rule out its crossing at t = 0.1
    for offset, tilt, weighed, crossed in ((0, 0, True, 0), (-1, 0, False, 0),
                                           (1, 0, False, 0),
                                           (Fraction(-1, 10 ** 9), Fraction(1, 10 ** 8), True, 1)):
        pos = tuple(o + Fraction(t, 2) + offset * b for o, t, b in zip(co, ct, cb))
        den, x, y = integers(*pos)
        direction = integers(*(t + tilt * b for t, b in zip(ct, cb)))[1:]
        weighings.clear()
        *_, got = walls.nearest((x, y, den), direction, None)
        assert [(_exact_t(t), w) for t, w in got] == _unfiltered_crossings(
            [chart], pos, direction, None)
        assert len(got) == crossed and bool(weighings) == weighed, offset


# --- the query against its earlier form (query_oracle) --------------------

def _same_as_oracle(nearest, scene, xyw, d, exclude):
    """Check ``nearest``, _Walls.nearest, on one leg against
    query_oracle.Walls, each with counters of its own: the same nearest
    wall and t, runner-up, irrational roots, crossings in flight order,
    walls weighed, mirrors read and denominator bits.  Returns the leg's
    nearest wall and the count of mirrors it read."""
    walls, oracle = _Walls(scene), query_oracle.Walls(scene)
    got = nearest(walls, xyw, d, exclude)
    assert got == oracle.nearest(xyw, d, exclude).settled(), (xyw, d, exclude)
    assert ((walls.max_candidates, walls.mirror_ids, walls.denominator_bits)
            == (oracle.max_candidates, oracle.mirror_ids, oracle.denominator_bits)), (xyw, d)
    return got[1], len(walls.mirror_ids)


@pytest.fixture
def oracle_checked(monkeypatch):
    """From here on, check every leg a trace asks _Walls.nearest for
    against the oracle (_same_as_oracle); returns the count of legs
    checked, in a list."""
    count, nearest = [0], _Walls.nearest

    def checked(walls, xyw, d, exclude):
        _same_as_oracle(nearest, walls.scene, xyw, d, exclude)
        count[0] += 1
        return nearest(walls, xyw, d, exclude)

    monkeypatch.setattr(_Walls, "nearest", checked)
    return count


def test_query_equals_its_oracle_on_the_fixture_traces(oracle_checked):
    # every leg of the six fixtures' K=8 traces on the tapes of support
    # -2..2
    for name, machine in sorted(fixture_machines().items()):
        table = compile_table(machine, 8)
        for tape in enumerate_tapes(range(-2, 3)):
            run_numeric(table, tape, 40)
    assert oracle_checked[0] > 5000


def test_query_equals_its_oracle_on_tilted_legs():
    # seeded legs in every direction but the axes, aimed from up to three
    # units away at points of random mirrors of levels -2..2 in a table's
    # families, a rewriting split's and a merge's, each also with the wall
    # it found left out, as the next leg from there would have it
    rng = random.Random(34)
    scenes = [compile_table(get_machine("walker"), 8).trace_scene]
    scenes += [TraceScene(g.static_walls, (g.mirrors,)) for g in (
        build_split_gadget(3, writes=(1, 1)), _merge())]
    legs = read = mirrors = 0
    for scene in scenes:
        rows = [row for family in scene.families for row in family.rows(range(-2, 3))]
        for _ in range(300):
            row, a = rng.choice(rows), Fraction(rng.randrange(1, 1000), 1000)
            (x0, y0), (x1, y1) = row.p0, row.p1
            d = (rng.choice((-1, 1)) * rng.randint(1, 12), rng.choice((-1, 1)) * rng.randint(1, 12))
            back = Fraction(rng.randrange(1, 3000), 1000 * max(map(abs, d)))
            den, x, y = integers(x0 + a * (x1 - x0) - back * d[0], y0 + a * (y1 - y0) - back * d[1])
            wall, count = _same_as_oracle(_Walls.nearest, scene, (x, y, den), d, None)
            legs, read = legs + 1, read + (count > 0)
            if wall is not None:
                _same_as_oracle(_Walls.nearest, scene, (x, y, den), d, wall)
                mirrors += ":k" in wall.wall_id
    assert legs == 900 and read > 800 and mirrors > 600, (read, mirrors)


def test_query_equals_its_oracle_on_gadget_beams(oracle_checked):
    # GadgetTracer beams through K=3 gadgets, every tape of support -2..2
    # at every level: a read-only and a rewriting split, a merge, a shift
    # stage and a quarter turn
    splits = (build_split_gadget(3), build_split_gadget(3, writes=(1, 1)))
    merge = build_merge_gadget(build_split_gadget(3, name="m"), name="merge")
    tracers = [GadgetTracer(g) for g in (*splits, merge)]
    others = [GadgetTracer(build_shift_stage(+1, K=3)), GadgetTracer(build_turn_gadget(+90))]
    for tape in enumerate_tapes(range(-2, 3)):
        for k in range(-3, 4):
            value = encode_state(tape, k).value
            branch = read_digit(encode_state(tape, k))
            for split, tracer in zip(splits, tracers):
                tracer.trace(value, out_port=f"b{branch}")
            tracers[2].trace(splits[0].transfer.apply(value)[0], in_port=f"b{branch}")
            for tracer in others:
                tracer.trace(value)
    assert oracle_checked[0] > 1000


def test_counter_ring_period_is_traced_as_its_oracle_traces_it(oracle_checked):
    # one period of the 4-bit counter ring, 60 steps and 540 bounces, its
    # every leg checked against the oracle
    res = run_numeric(compile_table(counter_ring(4), 4), frozenset(), 60)
    assert (res.outcome.period_steps, res.period_bounces) == (60, 540)
    assert oracle_checked[0] == 541
