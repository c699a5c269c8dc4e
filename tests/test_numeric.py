"""The exact tracer's hit tests and their float filters.

Every float hit test may drop a wall only when its stated error bound
(``_HIT_SLACK``) shows the ray misses it; a hit the bound leaves open goes
to the exact test, which decides ties, grazes and irrational roots with no
tolerance.  A leg whose beam has a tiny x-component makes an arc's
quadratic coefficient subnormal; the float root must survive that too.
"""

import math
import random
from fractions import Fraction

import pytest

from carom.geometry import ParabolaArc, Segment
from carom.numeric import (
    _UNDECIDED,
    _arc_hit,
    _float_arc_hit,
    _float_roots,
    _float_seg_hit,
    _NumericWall,
    _seg_hit,
    _Surd,
    _trace,
    _Walls,
)
from carom.simulate import TracingDegeneracy, TracingError

#: An upward bowl y = 1 + x^2 / 4 over -1 <= x <= 1, as (axis_x, apex_y,
#: p, sign, x_lo, x_hi): the layout of _NumericWall data.
BOWL = (0.0, 1.0, 1.0, 1, -1.0, 1.0)


def test_float_arc_hit_survives_a_subnormal_quadratic_coefficient():
    # a ray up from (0.5, 0) with x-component 1e-160 meets the bowl at
    # height 1 + 0.5^2 / 4, so at t = 1.0625; qa = -dx^2 / 4 is subnormal
    origin, direction = (0.5, 0.0), (1e-160, 1.0)
    assert 0 < direction[0] ** 2 / 4 < 2.2250738585072014e-308
    t = _float_arc_hit(BOWL, origin, direction)
    assert t == pytest.approx(1.0625, rel=1e-15)
    exact = _arc_hit(tuple(Fraction(v) for v in BOWL),
                     (Fraction(1, 2), Fraction(0)), (Fraction(1, 10 ** 160), Fraction(1)))
    assert abs(float(exact) - 1.0625) < 1e-15


def test_float_roots_match_the_quadratic():
    # both roots of a well-conditioned quadratic, either sign of qb, and a
    # double root at 0
    for qa, qb, qc in ((1.0, -3.0, 2.0), (1.0, 3.0, 2.0), (-0.5, 0.25, 3.0)):
        roots = sorted(_float_roots(qa, qb, qc))
        assert all(abs(qa * t * t + qb * t + qc) < 1e-12 for t in roots)
        assert len(roots) == 2 and roots[0] < roots[1]
    assert _float_roots(1.0, 0.0, 1.0) == []
    assert _float_roots(1.0, 0.0, 0.0) == [0.0]


# --- the float filters drop no exact hit --------------------------------------

def _q(rng, lo, hi):
    """A seeded rational in [lo, hi], most often not a float."""
    den = rng.randrange(10 ** 5, 10 ** 6)
    return Fraction(rng.randint(round(lo * den), round(hi * den)), den)


def _floats(pt):
    return (float(pt[0]), float(pt[1]))


def _tilted(rng):
    while True:
        d = (_q(rng, -1, 1), _q(rng, -1, 1))
        if d[0] and d[1]:
            return d


def test_no_segment_hit_through_an_end_is_dropped_in_floats():
    # seeded tilted rays through a segment's exact end (s = 0 or 1): the
    # exact test finds each hit, and the float test must not drop one
    rng = random.Random(1301)
    hits = undecided = 0
    for _ in range(20_000):
        p0 = (_q(rng, -60, 60), _q(rng, -60, 60))
        p1 = (p0[0] + _q(rng, -3, 3), p0[1] + _q(rng, -3, 3))
        end = rng.choice((p0, p1))
        d = _tilted(rng)
        back = _q(rng, 0.01, 5)
        origin = (end[0] - back * d[0], end[1] - back * d[1])
        if _seg_hit((p0, p1), origin, d) is None:
            continue      # the ray runs along the segment
        hits += 1
        got = _float_seg_hit((_floats(p0), _floats(p1)), _floats(origin), _floats(d))
        assert got is not None, (p0, p1, origin, d)
        undecided += got is _UNDECIDED
    assert hits > 19_000 and undecided < hits // 100


def test_no_arc_hit_through_an_end_is_dropped_in_floats():
    # seeded tilted rays through an arc's exact end (x = x_lo or x_hi)
    rng = random.Random(1302)
    hits = 0
    for _ in range(5_000):
        axis_x, apex_y = _q(rng, -60, 60), _q(rng, -60, 60)
        p, sign = _q(rng, 0.1, 2), rng.choice((-1, 1))
        x_lo = axis_x + _q(rng, -2, 1)
        x_hi = x_lo + _q(rng, 0.1, 2)
        arc = ParabolaArc(axis_x, apex_y, p, sign, x_lo, x_hi, "arc")
        x = rng.choice((x_lo, x_hi))
        end = (x, arc.y_at(x))
        d = _tilted(rng)
        back = _q(rng, 0.01, 5)
        origin = (end[0] - back * d[0], end[1] - back * d[1])
        wall = _NumericWall(arc)
        if _arc_hit(wall.data, origin, d) is None:
            continue
        hits += 1
        assert _float_arc_hit(wall.fdata, _floats(origin), _floats(d)) is not None, arc
    assert hits > 4_900


def _first_hit(walls, pos, direction):
    """The wall the trace from ``pos`` along ``direction`` hits first."""
    kind, wall, *_ = next(_trace(_Walls(walls, ()), pos, direction, []))
    assert kind == "hit"
    return wall.wall_id


def test_a_spurious_near_hit_does_not_hide_the_far_wall():
    # the ray along y = 0 passes 1e-20 below the end of ``near``: floats
    # keep that hit at t = 1 within their slack, the exact test refutes
    # it, and the shortlist, anchored on confirmed hits only, still weighs
    # ``far`` at t = 3
    F = Fraction
    near = Segment((F(1), F(1, 10 ** 20)), (F(1), F(1)), "near")
    far = Segment((F(3), F(-1)), (F(3), F(1)), "far")
    origin, direction = (F(0), F(0)), (F(1), F(0))
    assert _float_seg_hit((_floats(near.p0), _floats(near.p1)), (0.0, 0.0), (1.0, 0.0)) == 1.0
    assert _seg_hit((near.p0, near.p1), origin, direction) is None
    assert _first_hit([near, far], origin, direction) == "far"


# --- exact semantics: ties, grazes and irrational roots -----------------------

def test_an_exact_tie_is_degenerate():
    # two walls crossing at the point the ray reaches at t = 2
    F = Fraction
    a = Segment((F(1), F(-1)), (F(1), F(1)), "a")
    b = Segment((F(0), F(-1)), (F(2), F(1)), "b")
    with pytest.raises(TracingDegeneracy, match="two walls"):
        _first_hit([a, b], (F(-1), F(0)), (F(1), F(0)))


def test_a_graze_is_degenerate():
    # the x-axis touches the bowl y = x^2 / 4 at its apex: d . n = 0
    F = Fraction
    bowl = ParabolaArc(F(0), F(0), F(1), 1, F(-1), F(1), "bowl")
    with pytest.raises(TracingDegeneracy, match="grazing hit on bowl"):
        for _ in _trace(_Walls([bowl], ()), (F(-2), F(0)), (F(1), F(0)), []):
            pass


#: The bowl y = x^2 / 4 over [-1, 1] and the ray (1/2, 0) + t (1, 1): they
#: meet where t^2 - 3t + 1/4 = 0, first at t = 3/2 - sqrt(2).
IRRATIONAL_BOWL = ParabolaArc(Fraction(0), Fraction(0), Fraction(1), 1,
                              Fraction(-1), Fraction(1), "bowl")
RAY = ((Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(1)))


def _post(t):
    """A vertical segment the ray meets at t."""
    x = RAY[0][0] + t
    return Segment((x, Fraction(-1)), (x, Fraction(2)), "post")


def test_an_irrational_root_is_compared_exactly():
    root = _arc_hit(_NumericWall(IRRATIONAL_BOWL).data, *RAY)
    assert isinstance(root, _Surd) and root.a == Fraction(3, 2)
    assert float(root) == pytest.approx(1.5 - math.sqrt(2), rel=1e-15)
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
    bowl = ParabolaArc(Fraction(20), Fraction(31), Fraction(1), 1, Fraction(18),
                       Fraction(22), "bowl")
    static_walls = BilliardTable.static_walls.func
    monkeypatch.setattr(BilliardTable, "static_walls",
                        property(lambda table: static_walls(table) + (bowl,)))
    capsys.readouterr()
    assert main(argv) == 3
    assert "trajectory left the rationals at bowl" in capsys.readouterr().err
