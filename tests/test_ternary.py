import random
from fractions import Fraction

import pytest

from carom.ternary import T, TernaryRational, digits_of


def test_canonical_form():
    assert T(6, 2) == T(2, 1)
    assert T(9, 2) == T(1, 0)
    assert T(0, 5) == T(0, 0)
    x = T(12, 3)
    assert x.num == 4 and x.exp == 2


def test_arithmetic_matches_fractions():
    rng = random.Random(7)
    for _ in range(500):
        a = T(rng.randint(-200, 200), rng.randint(0, 6))
        b = T(rng.randint(-200, 200), rng.randint(0, 6))
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
        assert (a < b) == (a.as_fraction() < b.as_fraction())
        assert (-a).as_fraction() == -a.as_fraction()


def test_int_mixing():
    assert T(1, 1) + 1 == T(4, 1)
    assert 1 - T(1, 1) == T(2, 1)
    assert 2 * T(2, 1) == T(4, 1)
    assert T(5, 2) * 9 == T(5, 0)


def test_div3_mul3():
    assert T(1).div3() == T(1, 1)
    assert T(1, 1).mul3() == T(1)
    assert T(5, 2).div3(2) == T(5, 4)
    assert T(5, 4).mul3(4) == T(5)


def test_from_fraction():
    assert TernaryRational.from_fraction(Fraction(5, 27)) == T(5, 3)
    with pytest.raises(ValueError):
        TernaryRational.from_fraction(Fraction(1, 2))


def test_parse_roundtrip():
    for x in [T(5, 2), T(-7, 3), T(0), T(4)]:
        assert TernaryRational.parse(str(x)) == x
    assert TernaryRational.parse("12") == T(12)


def test_ternary_digits():
    assert T(5, 2).ternary_digits() == [1, 2]  # 5/9 = .12
    assert T(2, 1).ternary_digits() == [2]
    assert T(0).ternary_digits() == []
    assert T(5, 2).ternary_str() == ".12"
    with pytest.raises(ValueError):
        T(4, 1).ternary_digits()  # 4/3 > 1


def test_ordering_and_hash():
    assert T(1, 1) < T(2, 1) < T(1) < T(4, 1)
    assert len({T(1, 1), T(3, 2), T(2, 1)}) == 2


def test_foreign_types_are_not_implemented():
    # a float or Fraction operand is refused with Python's TypeError, not
    # an AttributeError from a NotImplemented used as a value
    for compare in (lambda: T(1) < 0.5, lambda: T(1) <= Fraction(1, 2),
                    lambda: T(1) > 0.5, lambda: T(1) >= Fraction(1, 2),
                    lambda: 0.5 - T(1), lambda: Fraction(1, 2) < T(1)):
        with pytest.raises(TypeError):
            compare()
    assert (T(1) == 0.5) is False and T(1) != Fraction(1, 2)


def test_hash_agrees_with_int():
    for n in (-9, -1, 0, 1, 3, 27, 3 ** 70 + 1):
        assert T(n) == n and hash(T(n)) == hash(n)
        assert T(n) in {n} and n in {T(n)}
    assert T(9, 2) in {1} and hash(T(6, 1)) == hash(2)
    assert hash(T(1, 1)) == hash(T(3, 2))


def test_ternary_digits_match_the_per_digit_division():
    # one pass from the bottom, against a divmod by 3**i for each digit
    rng = random.Random(29)
    for e in [0, 1, 4, 5, 6, 10, 11] + [rng.randrange(200) for _ in range(60)]:
        n = rng.randrange(3 ** e)
        want, rest = [], n
        for i in range(e - 1, -1, -1):
            d, rest = divmod(rest, 3 ** i)
            want.append(d)
        assert digits_of(n, e) == want, (n, e)
