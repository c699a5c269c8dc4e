"""Cantor-set encoding of computation states into the unit interval.

A tape t becomes the point

    x_t = 2 * (t_0/3 + t_{-1}/9 + t_1/27 + t_{-2}/81 + ...)

interleaving the right half-tape into odd ternary digits and the left
half-tape into even ones.  Head position k is then recorded by the affine
embedding tau_k of [0,1] onto a sub-interval I_k: the encoded computation
state is x_{t,k} = tau_k(x_t).

All arithmetic is exact: at head position k the relevant scales shrink
like 3**-(3k+2), which no float survives.  Values are TernaryRationals at
every boundary; encode_tape, tau, tau_inverse, decode and block_of compute
on their integers (num, exp), value = num / 3**exp, and build one
TernaryRational per result.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass

from .ternary import T, TernaryRational, digits_of

#: Enumeration guard: block counts grow as 2**(2k).  Point-wise operations
#: (encode/decode/shift/rewrite) work for any k regardless.
K_MAX_DEFAULT = 64


def k_max_cap():
    return int(os.environ.get("BILLIARD_KMAX", K_MAX_DEFAULT))


class NotACode(ValueError):
    """The given number is not the encoding of any computation state."""


class KRangeExceeded(ValueError):
    """Block enumeration requested beyond the configured K_max cap."""


def digit_position(cell):
    """Ternary digit index (1-based) of tape cell ``cell`` inside x_t."""
    return 2 * cell + 1 if cell >= 0 else -2 * cell


def cell_of_digit(pos):
    """Inverse of digit_position."""
    return (pos - 1) // 2 if pos % 2 == 1 else -(pos // 2)


def encode_tape(tape):
    """Exact x_t of a finite-support tape (frozenset of 1-cells): digit 2
    at each 1-cell's position, over 3**(the deepest position)."""
    positions = [digit_position(cell) for cell in tape]
    if not positions:
        return T(0)
    e = max(positions)
    return TernaryRational(sum(2 * 3 ** (e - p) for p in positions), e)


def head_hull(k):
    """I_k in closed form, as integers (lo, hi, e): I_k = [lo, hi] / 3^e,
    [1, 2] / 3^(1-k) for k < 0 and [3^(1+k) - 2, 3^(1+k) - 1] / 3^(1+k)
    for k >= 0 (tau_k of 0 and 1)."""
    if k < 0:
        return 1, 2, 1 - k
    top = 3 ** (1 + k)
    return top - 2, top - 1, 1 + k


def tau(k, x):
    """The affine embedding of [0,1] onto I_k.

    tau_k(x) = 3**-(1-k) * (1+x)        for k < 0,
             = 1 + 3**-(1+k) * (x - 2)  for k >= 0,
    both lo + x / 3**e for I_k = [lo, lo + 1] / 3**e (head_hull).
    """
    n, e = x.num, x.exp
    if not 0 <= n <= 3 ** e:
        raise ValueError(f"tau argument {x} outside [0, 1]")
    lo, _, scale = head_hull(k)
    return TernaryRational(lo * 3 ** e + n, e + scale)


def _preimage(k, n, e):
    """tau_k^-1(n / 3**e) = n / 3**(e - scale) - lo as integers (m, f),
    the pre-image m / 3**f."""
    lo, _, scale = head_hull(k)
    if e >= scale:
        return n - lo * 3 ** (e - scale), e - scale
    return n * 3 ** (scale - e) - lo, 0


def tau_inverse(k, x):
    return TernaryRational(*_preimage(k, x.num, x.exp))


def head_interval(k):
    """I_k = tau_k([0,1]) as a HeadInterval."""
    lo, hi, e = head_hull(k)
    return HeadInterval(k, TernaryRational(lo, e), TernaryRational(hi, e))


@dataclass(frozen=True)
class HeadInterval:
    """The sub-interval of [0,1] that stores head position k.

    len(I_k) = 3**-(1+|k|); intervals are pairwise disjoint and ordered
    left to right by k.
    """

    k: int
    lo: TernaryRational
    hi: TernaryRational

    def __contains__(self, x):
        return self.lo <= x <= self.hi

    @property
    def length(self):
        return self.hi - self.lo


def head_of(x):
    """The unique k with x in I_k, or None.

    For x >= 1/3 the candidates satisfy 1 - x in [3**-(1+k), 2*3**-(1+k)];
    for x < 1/3, x in [3**-(1-k), 2*3**-(1-k)].  Walk outward until the
    scale drops below x's own resolution.
    """
    if x <= T(0) or x >= T(1):
        return None
    if x >= T(1, 1):
        gap = T(1) - x  # in (0, 2/3]; x in I_k iff gap in [scale, 2*scale]
        k = 0
        while True:
            scale = T(1, 1 + k)
            if scale * 2 < gap:
                return None  # between I_{k-1} and I_k
            if scale <= gap:
                return k
            k += 1
    else:
        k = -1
        while True:
            scale = T(1, 1 - k)
            if x < scale:
                k -= 1  # terminates: scale eventually drops below x's resolution
                continue
            return k if x <= scale * 2 else None


@dataclass(frozen=True)
class EncodedPoint:
    """A point of [0,1] known to encode (tape, head); carries the decode."""

    value: TernaryRational
    head: int
    tape: frozenset

    def __str__(self):
        return f"{self.value} (head {self.head}, tape {sorted(self.tape)})"


def encode_state(tape, k):
    """x_{t,k} = tau_k(x_t), with the decode cached."""
    tape = frozenset(tape)
    return EncodedPoint(tau(k, encode_tape(tape)), k, tape)


def decode(x):
    """Invert the encoding, or raise NotACode.

    Rejection reasons: x lies in no I_k; the tau_k pre-image has no finite
    ternary expansion in [0,1); or a ternary digit equals 1.
    """
    k = head_of(x)
    if k is None:
        raise NotACode(f"{x} lies in no head interval")
    n, e = _preimage(k, x.num, x.exp)
    if not 0 <= n < 3 ** e:
        # tau_k(1) is the interval's right endpoint; x_t = 1 needs an
        # infinite all-twos tape, which Lambda excludes.
        raise NotACode(f"{x} decodes to tape value {TernaryRational(n, e)} outside [0, 1)")
    bits = _cantor_bits(n)
    if bits is None:
        pos = digits_of(n, e).index(1) + 1
        raise NotACode(f"{x} has ternary digit 1 at tape position {pos}")
    # bit e - pos of bits is the halved digit at position pos
    ones = set()
    while bits:
        low = bits & -bits
        ones.add(cell_of_digit(e + 1 - low.bit_length()))
        bits ^= low
    return frozenset(ones), k


def read_digit(point):
    """The symbol under the head."""
    return 1 if point.head in point.tape else 0


def shift_point(point, eps):
    """Move the head by eps, exactly.

    x_{t,k+1} = 3 x_{t,k} when k < 0 and x_{t,k}/3 + 2/3 when k >= 0; the
    eps = -1 maps are the exact inverses (x/3 for k <= 0 targets, 3x - 2
    for k >= 1 sources).
    """
    if eps not in (-1, +1):
        raise ValueError("eps must be +-1")
    x, k = point.value, point.head
    if eps == +1:
        new = x.mul3() if k < 0 else x.div3() + T(2, 1)
    else:
        # invert the (k-1) -> k map
        new = x.mul3() - 2 if k - 1 >= 0 else x.div3()
    return EncodedPoint(new, k + eps, point.tape)


def rewrite_scale(k):
    """|x_{t',k} - x_{t,k}| / 2 for a head-cell symbol change at position k.

    3**-(3k+2) for k >= 0 and the mirrored 3**-(3|k|+1) for k < 0: the
    head digit sits at digit_position(k) of x_t and tau_k contracts by
    3**-(1+|k|).
    """
    return T(1, digit_position(k) + 1 + abs(k))


def rewrite_point(point, symbol):
    """Write ``symbol`` at the head cell; exact displacement.

    Equals x +- 2 * rewrite_scale(k) when the symbol changes, x otherwise.
    """
    if symbol not in (0, 1):
        raise ValueError("symbol must be 0 or 1")
    current = read_digit(point)
    if symbol == current:
        return point
    delta = rewrite_scale(point.head) * 2
    new_value = point.value + delta if symbol == 1 else point.value - delta
    new_tape = point.tape | {point.head} if symbol == 1 else point.tape - {point.head}
    return EncodedPoint(new_value, point.head, new_tape)


@dataclass(frozen=True)
class CantorBlock:
    """A maximal sub-interval of I_k on which a fixed ternary digit of the
    underlying tape value is constant.

    ``digit_pos`` is the 1-based digit index of x_t being pinned and
    ``symbol`` its tape value (digit 2*symbol).  ``bits`` holds the free
    digits before the pinned one as the bits of an integer, first digit
    most significant; ``prefix`` lists them as a tuple.  Classifying on the
    head cell uses digit_pos = digit_position(k); merge walls classify on
    the cell behind the head.
    """

    k: int
    digit_pos: int
    bits: int
    symbol: int
    lo: TernaryRational
    hi: TernaryRational

    def __contains__(self, x):
        return self.lo <= x <= self.hi

    @property
    def length(self):
        return self.hi - self.lo

    @property
    def prefix(self):
        n = self.digit_pos - 1
        return tuple(self.bits >> (n - 1 - i) & 1 for i in range(n))

    @property
    def centre(self):
        """The exact centre, a Fraction."""
        return (self.lo + self.hi).as_fraction() / 2


#: The 32 numbers of five base-3 digits, each 0 or 2, ascending: the b-th
#: has a 2 where b has a 1 bit.  Per r < 3^5, the least of them >= r and b;
#: and b if r is the b-th, else None.
_CANTOR5 = [sum(2 * 3 ** i for i in range(5) if b >> i & 1) for b in range(32)]
_CANTOR_CEIL5 = [(_CANTOR5[b], b) for b in (bisect.bisect_left(_CANTOR5, r) for r in range(243))]
_CANTOR_BITS5 = [b if c == r else None for r, (c, b) in enumerate(_CANTOR_CEIL5)]


def _cantor_bits(n):
    """The base-3 digits of n >= 0 halved, as the bits of an integer (the
    last digit the lowest bit), or None if a digit is 1: five digits per
    division, from the bottom."""
    bits = shift = 0
    while n:
        n, r = divmod(n, 243)
        b = _CANTOR_BITS5[r]
        if b is None:
            return None
        bits |= b << shift
        shift += 5
    return bits


def _cantor_ceil(f):
    """(c, bits): the least c >= f >= 0 whose base-3 digits are all 0 or 2,
    and those digits halved as binary.  Five digits at a time from the
    top: the first five not all 0 or 2 round up, the rest go to 0."""
    chunks = []
    while f:
        f, r = divmod(f, 243)
        chunks.append(r)
    c = bits = 0
    while chunks:
        r = chunks.pop()
        up, b = _CANTOR_CEIL5[r]
        c, bits = c * 243 + up, bits << 5 | b
        if up != r:
            return c * 243 ** len(chunks), bits << 5 * len(chunks)
    return c, bits


def blocks_in(n_free, window=None):
    """(F, bits) of every block index F in ``window``, an integer range
    (F_lo, F_hi) (None: all of them), ascending: F reads ``n_free`` free
    digits, each 0 or 2, in base 3, and ``bits`` holds them as the bits of
    an integer, first digit most significant.  The first is found by
    ``_cantor_ceil``, then bits + 1, which turns t trailing 1 bits to 0 and
    the next bit to 1, so F + 3^t + 1: O(1) steps per block."""
    lo, hi = 0, 3 ** n_free - 1
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    if lo > hi:
        return []
    f, bits = _cantor_ceil(lo)
    out = []
    while f <= hi:
        out.append((f, bits))
        f, bits = f + 3 ** ((bits ^ (bits + 1)).bit_length() - 1) + 1, bits + 1
    return out


def _block_frame(k, digit_pos):
    """(shift, exp): tau_k(B / 3**digit_pos) = (B + shift) / 3**exp, exactly."""
    lo, _, scale = head_hull(k)
    return lo * 3 ** digit_pos, digit_pos + scale


def cantor_walk(k, digit_pos, symbol, window=None):
    """The blocks of ``cantor_blocks_at`` with index F in ``window``, an
    integer range (F_lo, F_hi) (None: all of them), left to right.

    Block F has free digits (the digit_pos - 1 before the pinned one, each
    0 or 2) reading F in base 3, so its centre lies 3F block lengths right
    of block 0's; its lower end is tau_k(B / 3**digit_pos), B = 3F + 2*symbol.
    """
    cap = k_max_cap()
    if abs(k) > cap or digit_pos - 1 > 2 * cap + 1:
        raise KRangeExceeded(f"level {k}/digit {digit_pos} beyond K_max {cap}")
    if digit_pos < 1:
        raise ValueError("digit positions are 1-based")
    shift, exp = _block_frame(k, digit_pos)
    base = 2 * symbol + shift
    return [CantorBlock(k, digit_pos, bits, symbol, TernaryRational(3 * value + base, exp),
                        TernaryRational(3 * value + base + 1, exp))
            for value, bits in blocks_in(digit_pos - 1, window)]


def cantor_blocks_at(k, digit_pos, symbol):
    """All blocks of I_k pinning ternary digit ``digit_pos`` of the tape
    value to symbol, left to right, with exact endpoints.

    2**(digit_pos - 1) blocks, each of pre-embedding length 3**-digit_pos,
    hence length 3**-(digit_pos + 1 + |k|) inside I_k.
    """
    return cantor_walk(k, digit_pos, symbol)


def cantor_blocks(k, symbol):
    """Head-cell blocks of I_k: the states with tape symbol ``symbol``
    under the head."""
    return cantor_blocks_at(k, digit_position(k), symbol)


def block_of(x, k, digit_pos):
    """The CantorBlock of I_k pinning digit ``digit_pos`` that holds x.

    Cheaper than enumerating 2**(digit_pos-1) blocks: read the first
    ``digit_pos`` digits of the pre-image directly.
    """
    n, e = _preimage(k, x.num, x.exp)
    if not 0 <= n < 3 ** e:
        raise NotACode(f"{x} not interior to I_{k}")
    # B = the pre-image's first digit_pos digits, read as an integer
    value = n // 3 ** (e - digit_pos) if e > digit_pos else n * 3 ** (digit_pos - e)
    bits = _cantor_bits(value)
    if bits is None:
        raise NotACode(f"{x} has a 1-digit in its pinned prefix")
    shift, exp = _block_frame(k, digit_pos)
    return CantorBlock(k, digit_pos, bits >> 1, bits & 1, TernaryRational(value + shift, exp),
                       TernaryRational(value + shift + 1, exp))
