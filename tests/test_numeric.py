"""The tracer's float root solver and the precisions it must survive.

A leg meant to run straight up can carry a direction component of
working precision's rounding residue (about 1e-160 at 160 digits).  In
floats the arc's quadratic coefficient qa is then subnormal, and a root
taken as a quotient by 2*qa overflows; the float pre-pass must still keep
the true hit, or the trace escapes the scene.
"""

import mpmath
import pytest

from carom.numeric import _arc_intersect, _float_roots, _mp_roots
from carom.simulate import PrecisionExhausted, run_numeric
from carom.table import compile_table
from carom.zoo import MACHINE_TEXTS, get_machine

#: An upward bowl y = 1 + x^2 / 4 over -1 <= x <= 1, as (axis_x, apex_y,
#: p, sign, x_lo, x_hi): the layout of _NumericWall data.
BOWL = (0.0, 1.0, 1.0, 1, -1.0, 1.0)


def test_float_arc_hit_survives_a_subnormal_quadratic_coefficient():
    # a ray up from (0.5, 0) with x-component 1e-160 meets the bowl at
    # height 1 + 0.5^2 / 4, so at t = 1.0625; qa = -dx^2 / 4 is subnormal
    origin, direction = (0.5, 0.0), (1e-160, 1.0)
    assert 0 < direction[0] ** 2 / 4 < 2.2250738585072014e-308
    t = _arc_intersect(BOWL, origin, direction, 0.0, _float_roots)
    assert t == pytest.approx(1.0625, rel=1e-15)
    with mpmath.workdps(60):
        mp = _arc_intersect(tuple(mpmath.mpf(v) if isinstance(v, float) else v for v in BOWL),
                            tuple(map(mpmath.mpf, origin)),
                            (mpmath.mpf(10) ** -160, mpmath.mpf(1)), 0, _mp_roots)
        assert abs(mp - mpmath.mpf(1.0625)) < mpmath.mpf(10) ** -50


def test_float_roots_match_the_quadratic():
    # both roots of a well-conditioned quadratic, either sign of qb, and a
    # double root at 0
    for qa, qb, qc in ((1.0, -3.0, 2.0), (1.0, 3.0, 2.0), (-0.5, 0.25, 3.0)):
        roots = sorted(_float_roots(qa, qb, qc))
        assert all(abs(qa * t * t + qb * t + qc) < 1e-12 for t in roots)
        assert len(roots) == 2 and roots[0] < roots[1]
    assert _float_roots(1.0, 0.0, 1.0) == []
    assert _float_roots(1.0, 0.0, 0.0) == [0.0]


@pytest.mark.parametrize("name", sorted(MACHINE_TEXTS))
def test_precision_sweep_fails_only_on_the_deviation_bound(name):
    # one short run per precision from 150 to 170 digits, where the float
    # pre-pass once dropped stage-arc hits and the trace escaped the scene
    table = compile_table(get_machine(name), 8)
    for precision in range(150, 171):
        try:
            run_numeric(table, frozenset(), 6, precision=precision)
        except PrecisionExhausted as err:
            assert str(err).startswith("checkpoint deviation"), (precision, str(err))
