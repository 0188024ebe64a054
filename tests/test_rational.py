import random
from fractions import Fraction

import pytest

from polybound.errors import InputError
from polybound.rational import format_point, format_rational, parse_point, parse_rational


def test_parse_plain_and_fraction():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("4/8") == Fraction(1, 2)  # non-normalized input ok


def test_format_lowest_terms():
    assert format_rational(Fraction(4, 8)) == "1/2"
    assert format_rational(Fraction(-6, 3)) == "-2"
    assert format_rational(Fraction(0)) == "0"


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(q)) == q


def test_points_read_over_one_denominator_and_write_in_lowest_terms():
    assert parse_point(["4/8", "-1/3", "2"]) == ([12, -8, 48], 24)  # not reduced
    assert format_point([3, -2, 12, 0], 6) == ["1/2", "-1/3", "2", "0"]
    rng = random.Random(8)
    for _ in range(100):
        point = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(4)]
        num, den = parse_point([format_rational(x) for x in point])
        assert [Fraction(n, den) for n in num] == point
        assert format_point(num, den) == [format_rational(x) for x in point]


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", "1.5.2",
                                 # Fraction reads these; the file formats do not
                                 "1.5e2", "1e99999999", "1.5", "-.5", "1/2e3", "1_000",
                                 " 1", "\u0661", "9" * 5000])
def test_parse_errors(bad):
    with pytest.raises(InputError):
        parse_rational(bad)
    with pytest.raises(InputError):
        parse_point(["1", bad])


def test_field_axioms_random():
    rng = random.Random(11)

    def rand():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1
        # normalization is idempotent and the denominator stays positive
        assert Fraction(a.numerator, a.denominator) == a
        assert a.denominator > 0
