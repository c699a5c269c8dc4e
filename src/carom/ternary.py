"""Exact arithmetic on rationals whose denominator is a power of three.

Every coordinate the tape encoding can produce has the form n / 3**e, and
every transfer map in the table multiplies by 3 or 1/3 and adds such a
number.  The class below keeps that closure explicit and exact; nothing in
it ever rounds.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction


class TernaryRational:
    """A number n / 3**e with arbitrary-precision integer n and e >= 0.

    Canonical form: e is minimal, i.e. 3 does not divide n unless e == 0.
    Supports addition, subtraction, negation, multiplication by another
    TernaryRational or an int, division by powers of three, and exact
    comparison.  General division is deliberately absent: it leaves the
    ring.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num, exp=0):
        if isinstance(num, TernaryRational):
            num, exp2 = num.num, num.exp
            exp += exp2
        if exp < 0:
            num *= 3 ** (-exp)
            exp = 0
        while exp > 0 and num % 3 == 0:
            num //= 3
            exp -= 1
        self.num = num
        self.exp = exp

    # --- constructors ---------------------------------------------------

    @classmethod
    def from_fraction(cls, f):
        """Convert an exact Fraction; rejects denominators that are not
        powers of three."""
        d = f.denominator
        e = 0
        while d % 3 == 0:
            d //= 3
            e += 1
        if d != 1:
            raise ValueError(f"{f} has no finite ternary expansion")
        return cls(f.numerator, e)

    @classmethod
    def parse(cls, text):
        """Parse the serialized form ``<numerator>/3^<exponent>`` or a bare
        integer."""
        text = text.strip()
        if "/" not in text:
            return cls(int(text))
        num, _, rest = text.partition("/")
        if not rest.startswith("3^"):
            raise ValueError(f"bad ternary rational literal: {text!r}")
        return cls(int(num), int(rest[2:]))

    # --- arithmetic -----------------------------------------------------

    def _align(self, other):
        e = max(self.exp, other.exp)
        return (self.num * 3 ** (e - self.exp),
                other.num * 3 ** (e - other.exp), e)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, e = self._align(other)
        return TernaryRational(a + b, e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, e = self._align(other)
        return TernaryRational(a - b, e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return TernaryRational(-self.num, self.exp)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TernaryRational(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def div3(self, times=1):
        """Exact division by 3**times."""
        if times < 0:
            raise ValueError("use mul for negative powers")
        return TernaryRational(self.num, self.exp + times)

    def mul3(self, times=1):
        """Exact multiplication by 3**times."""
        return TernaryRational(self.num * 3 ** times, self.exp)

    # --- comparison -----------------------------------------------------

    def _compare(self, other, op):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = self._align(other)
        return op(a, b)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __hash__(self):
        # an integer hashes as the int it equals
        return hash(self.num) if self.exp == 0 else hash((self.num, self.exp))

    def __bool__(self):
        return self.num != 0

    # --- views ----------------------------------------------------------

    def as_fraction(self):
        return Fraction(self.num, 3 ** self.exp)

    def __float__(self):
        return self.num / 3 ** self.exp

    def ternary_digits(self):
        """Fractional ternary digits of a value in [0, 1).

        Returns the exact terminating digit list [d1, d2, ..., d_exp];
        value == sum(d_i * 3**-i).
        """
        if not 0 <= self.num < 3 ** self.exp:
            raise ValueError("digits defined for values in [0, 1) only")
        return digits_of(self.num, self.exp)

    def ternary_str(self):
        """Debug rendering like '.12' for 5/9."""
        if self == 0:
            return ".0"
        return "." + "".join(str(d) for d in self.ternary_digits())

    def __str__(self):
        return f"{self.num}/3^{self.exp}"

    def __repr__(self):
        return f"TernaryRational({self.num}, {self.exp})"


#: The five base-3 digits of each r < 3^5, most significant first.
_DIGITS5 = list(itertools.product(range(3), repeat=5))


def digits_of(n, e):
    """The ``e`` base-3 digits of an integer 0 <= n < 3**e, most significant
    first: one pass from the bottom, five digits per division."""
    chunks = []
    for _ in range(-(-e // 5)):
        n, r = divmod(n, 243)
        chunks.append(_DIGITS5[r])
    digits = [d for chunk in reversed(chunks) for d in chunk]
    return digits[len(digits) - e:]


def _coerce(value):
    if isinstance(value, TernaryRational):
        return value
    if isinstance(value, int):
        return TernaryRational(value)
    return NotImplemented


#: Shorthand constructor used pervasively in the encoding formulas.
def T(num, exp=0):
    return TernaryRational(num, exp)

