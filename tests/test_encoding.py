import random

import pytest

from carom.encoding import (
    CantorBlock,
    EncodedPoint,
    KRangeExceeded,
    NotACode,
    block_of,
    cantor_blocks,
    cantor_blocks_at,
    cell_of_digit,
    decode,
    digit_position,
    encode_state,
    encode_tape,
    head_interval,
    head_of,
    read_digit,
    rewrite_point,
    rewrite_scale,
    shift_point,
    tau,
    tau_inverse,
)
from carom.machine import enumerate_tapes
from carom.ternary import T


def try_decode(x):
    """The EncodedPoint of ``x``, or None when ``x`` is not a code."""
    try:
        tape, k = decode(x)
    except NotACode:
        return None
    return EncodedPoint(x, k, tape)


def test_encode_tape_values():
    assert encode_tape(frozenset()) == T(0)
    assert encode_tape(frozenset({0})) == T(2, 1)            # 2/3
    assert encode_tape(frozenset({-1, 1})) == T(8, 3)        # 8/27
    # digits all in {0, 2}
    digs = encode_tape(frozenset({-2, 0, 3})).ternary_digits()
    assert set(digs) <= {0, 2}


def test_tau_interval_endpoints():
    assert tau(0, T(0)) == T(1, 1) and tau(0, T(1)) == T(2, 1)
    assert tau(-1, T(0)) == T(1, 2) and tau(-1, T(1)) == T(2, 2)
    assert tau(1, T(0)) == T(7, 2) and tau(1, T(1)) == T(8, 2)
    with pytest.raises(ValueError):
        tau(0, T(4, 1))


def test_head_interval_law():
    for k in range(-12, 13):
        iv = head_interval(k)
        assert iv.length == T(1, 1 + abs(k))


def test_intervals_disjoint_and_ordered():
    ivs = [head_interval(k) for k in range(-12, 13)]
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi < b.lo
        assert a.k < b.k


def test_interval_symmetry():
    # the k<0 family mirrors the k>=0 family about the interval centre
    for k in range(1, 13):
        assert head_interval(k).lo + head_interval(-k).hi == T(1)


def test_encode_state_examples():
    assert encode_state(frozenset(), 0).value == T(1, 1)
    assert encode_state(frozenset({0}), 0).value == T(5, 2)
    assert encode_state(frozenset(), 1).value == T(7, 2)


def test_head_of():
    assert head_of(T(5, 2)) == 0
    assert head_of(T(1, 2)) == -1
    assert head_of(T(8, 2)) == 1
    assert head_of(T(1, 1)) == 0
    # gap between I_0 and I_1 is (2/3, 7/9)
    assert head_of(T(7, 2) - T(1, 9)) is None
    assert head_of(T(0)) is None and head_of(T(1)) is None


def test_decode_examples():
    assert decode(T(5, 2)) == (frozenset({0}), 0)
    with pytest.raises(NotACode):
        decode(T(1, 1) + T(1, 5))  # digit 1 inside I_0
    assert try_decode(T(5, 2)).tape == frozenset({0})
    assert try_decode(T(7, 2) - T(1, 9)) is None


def test_decode_rejects_non_ternary():
    from carom.ternary import TernaryRational
    from fractions import Fraction
    with pytest.raises(ValueError):
        TernaryRational.from_fraction(Fraction(1, 2))
    with pytest.raises(ValueError):
        TernaryRational.from_fraction(Fraction(3, 10))


def test_roundtrip_exhaustive_small():
    for tape in enumerate_tapes(range(-3, 4)):
        for k in range(-4, 5):
            p = encode_state(tape, k)
            assert decode(p.value) == (tape, k)


def test_roundtrip_random_large():
    rng = random.Random(11)
    for _ in range(300):
        tape = frozenset(c for c in range(-9, 10) if rng.random() < 0.3)
        k = rng.randint(-9, 9)
        p = encode_state(tape, k)
        assert decode(p.value) == (tape, k)


def test_shift_examples():
    p = encode_state(frozenset(), 0)           # 1/3 at k=0
    assert shift_point(p, +1).value == T(7, 2)
    q = encode_state(frozenset(), -1)          # 1/9 at k=-1
    assert shift_point(q, +1).value == T(1, 1)
    r = encode_state(frozenset(), 1)           # 7/9 at k=1
    assert shift_point(r, -1).value == T(1, 1)


def test_shift_coherence():
    rng = random.Random(5)
    for _ in range(200):
        tape = frozenset(c for c in range(-5, 6) if rng.random() < 0.35)
        k = rng.randint(-5, 5)
        eps = rng.choice((-1, +1))
        p = encode_state(tape, k)
        assert shift_point(p, eps).value == encode_state(tape, k + eps).value


def test_read_digit():
    assert read_digit(encode_state(frozenset({0}), 0)) == 1
    assert read_digit(encode_state(frozenset(), 0)) == 0
    assert read_digit(encode_state(frozenset({-1}), -1)) == 1


def test_rewrite_examples():
    p = encode_state(frozenset({0}), 0)  # 5/9
    assert rewrite_point(p, 0).value == T(1, 1)
    z = encode_state(frozenset(), 0)     # 1/3
    assert rewrite_point(z, 0).value == T(1, 1)
    assert rewrite_point(z, 1).value == T(5, 2)


def test_rewrite_coherence():
    rng = random.Random(13)
    for _ in range(200):
        tape = frozenset(c for c in range(-5, 6) if rng.random() < 0.35)
        k = rng.randint(-5, 5)
        s = rng.randint(0, 1)
        p = encode_state(tape, k)
        mutated = tape | {k} if s else tape - {k}
        assert rewrite_point(p, s).value == encode_state(mutated, k).value
        if s != read_digit(p) and k >= 0:
            assert abs((rewrite_point(p, s).value - p.value).num) == 2 or \
                rewrite_point(p, s).value - p.value in (T(2, 3 * k + 2), -T(2, 3 * k + 2))


def test_rewrite_scale_law():
    for k in range(0, 6):
        assert rewrite_scale(k) == T(1, 3 * k + 2)
    for k in range(-5, 0):
        assert rewrite_scale(k) == T(1, 3 * abs(k) + 1)


def test_cantor_blocks_k0():
    b0 = cantor_blocks(0, 0)
    assert len(b0) == 1 and b0[0].lo == T(1, 1) and b0[0].hi == T(4, 2)
    b1 = cantor_blocks(0, 1)
    assert len(b1) == 1 and b1[0].lo == T(5, 2) and b1[0].hi == T(2, 1)


def test_cantor_blocks_counts_and_lengths():
    b = cantor_blocks(1, 0)
    assert len(b) == 4
    assert all(blk.length == T(1, 5) for blk in b)
    bneg = cantor_blocks(-1, 1)
    assert len(bneg) == 2
    assert all(blk.length == T(1, 4) for blk in bneg)
    for blk, nxt in zip(b, b[1:]):
        assert blk.hi < nxt.lo


def test_block_membership():
    rng = random.Random(3)
    for _ in range(150):
        tape = frozenset(c for c in range(-3, 4) if rng.random() < 0.4)
        k = rng.randint(-3, 3)
        p = encode_state(tape, k)
        s = read_digit(p)
        hits = [b for b in cantor_blocks(k, s) if p.value in b]
        assert len(hits) == 1
        misses = [b for b in cantor_blocks(k, 1 - s) if p.value in b]
        assert not misses
        assert block_of(p.value, k, digit_position(k)) == hits[0]
        assert hits[0].symbol == s
        # the block's free prefix bits are the interleaved tape digits
        # before the head digit
        from carom.encoding import cell_of_digit
        want_prefix = tuple(
            1 if cell_of_digit(pos) in tape else 0
            for pos in range(1, digit_position(k)))
        assert hits[0].prefix == want_prefix


def test_blocks_at_other_cells():
    # classify I_1 points by the symbol at cell 0 (the cell behind a
    # right-moving head) instead of the head cell
    blocks = cantor_blocks_at(1, digit_position(0), 1)
    assert len(blocks) == 1
    p = encode_state(frozenset({0}), 1)
    assert p.value in blocks[0]
    q = encode_state(frozenset(), 1)
    assert q.value not in blocks[0]


def test_k_range_guard(monkeypatch):
    with pytest.raises(KRangeExceeded):
        cantor_blocks(80, 0)
    monkeypatch.setenv("BILLIARD_KMAX", "4")
    with pytest.raises(KRangeExceeded):
        cantor_blocks(5, 0)


# --- the TernaryRational forms, as oracles of the integer ones -------------

def _digits(y):
    """y's ternary digits, a divmod by 3**i for each."""
    digits, n = [], y.num
    for i in range(y.exp - 1, -1, -1):
        d, n = divmod(n, 3 ** i)
        digits.append(d)
    return digits


def oracle_encode_tape(tape):
    total = T(0)
    for cell in tape:
        total = total + T(2, digit_position(cell))
    return total


def oracle_tau(k, x):
    if not (T(0) <= x <= T(1)):
        raise ValueError(f"tau argument {x} outside [0, 1]")
    if k < 0:
        return (x + 1).div3(1 - k)
    return (x - 2).div3(1 + k) + 1


def oracle_tau_inverse(k, x):
    if k < 0:
        return x.mul3(1 - k) - 1
    return (x - 1).mul3(1 + k) + 2


def oracle_head_interval(k):
    return oracle_tau(k, T(0)), oracle_tau(k, T(1))


def oracle_decode(x):
    k = head_of(x)
    if k is None:
        raise NotACode(f"{x} lies in no head interval")
    y = oracle_tau_inverse(k, x)
    if y < T(0) or y >= T(1):
        raise NotACode(f"{x} decodes to tape value {y} outside [0, 1)")
    ones = set()
    for pos, digit in enumerate(_digits(y), start=1):
        if digit == 1:
            raise NotACode(f"{x} has ternary digit 1 at tape position {pos}")
        if digit == 2:
            ones.add(cell_of_digit(pos))
    return frozenset(ones), k


def oracle_block_of(x, k, digit_pos):
    y = oracle_tau_inverse(k, x)
    if y < T(0) or y >= T(1):
        raise NotACode(f"{x} not interior to I_{k}")
    digits = _digits(y)[:digit_pos]
    digits += [0] * (digit_pos - len(digits))
    if 1 in digits:
        raise NotACode(f"{x} has a 1-digit in its pinned prefix")
    value = bits = 0
    for d in digits:
        value, bits = 3 * value + d, 2 * bits + d // 2
    base = T(value, digit_pos)
    return CantorBlock(k, digit_pos, bits >> 1, bits & 1, oracle_tau(k, base),
                       oracle_tau(k, base + T(1, digit_pos)))


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except ValueError as err:
        return type(err), str(err)


def _non_codes(k):
    """Points of the plane near I_k that encode nothing: I_k's right end, a
    point of the gap past it, one with a 1 digit, one off both."""
    lo, hi = oracle_head_interval(k)
    nxt, _ = oracle_head_interval(k + 1)
    return [hi, (hi * 3 + nxt * 6).div3(2), oracle_tau(k, T(1, 1)),
            oracle_tau(k, T(5, 3)), lo - T(1, hi.exp + 1), T(0), T(1)]


def test_integer_forms_match_the_ternary_rational_oracles():
    rng = random.Random(2024)
    for k in list(range(-64, 65)) + [rng.randint(-64, 64) for _ in range(200)]:
        iv = head_interval(k)
        assert (iv.lo, iv.hi) == oracle_head_interval(k), k
        reach = abs(k) + 3
        tape = frozenset(c for c in range(-reach, reach + 1) if rng.random() < 0.3)
        x_t = encode_tape(tape)
        assert x_t == oracle_encode_tape(tape), tape
        x = tau(k, x_t)
        assert x == oracle_tau(k, x_t)
        assert tau_inverse(k, x) == oracle_tau_inverse(k, x) == x_t
        points = [x, rng.choice((iv.lo, iv.hi)), *_non_codes(k),
                  T(rng.randrange(3 ** 40), 40), T(rng.randrange(-9, 9), rng.randrange(4))]
        for p in points:
            assert _outcome(decode, p) == _outcome(oracle_decode, p), (k, p)
            assert tau_inverse(k, p) == oracle_tau_inverse(k, p), (k, p)
            for digit_pos in {1, digit_position(k), digit_position(k - 1),
                              rng.randint(1, 2 * reach + 2), 200}:
                assert _outcome(block_of, p, k, digit_pos) == \
                    _outcome(oracle_block_of, p, k, digit_pos), (k, p, digit_pos)
        for p in (T(-1, 3), T(4, 1), T(rng.randrange(3 ** 9), 9)):
            assert _outcome(tau, k, p) == _outcome(oracle_tau, k, p), (k, p)


def test_non_codes_raise_what_the_oracles_raise():
    for k in (-64, -9, -1, 0, 1, 9, 64):
        hi, gap, one_digit = _non_codes(k)[:3]
        assert head_of(gap) is None
        for p in (hi, gap, one_digit):
            got = _outcome(decode, p)
            assert got == _outcome(oracle_decode, p) and got[0] is NotACode, (k, p)
        for p in (hi, gap):
            got = _outcome(block_of, p, k, digit_position(k))
            assert got == _outcome(oracle_block_of, p, k, digit_position(k))
            assert got[0] is NotACode, (k, p)
