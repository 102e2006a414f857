"""Exact-rational plumbing of the instance formats: string forms and the
one-gcd exact sum."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kknapsack.instance_model import exact_sum, format_rational, parse_rational


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/4", Fraction(3, 4)),
            ("0.25", Fraction(1, 4)),
            ("7", Fraction(7)),
            ("-2/6", Fraction(-1, 3)),
            ("  10 ", Fraction(10)),
            ("1.5", Fraction(3, 2)),
        ],
    )
    def test_string_forms(self, text, expected):
        assert parse_rational(text) == expected

    def test_int_and_fraction_passthrough(self):
        assert parse_rational(5) == Fraction(5)
        assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)

    def test_float_rejected(self):
        # Binary float expansions are never what a file author meant.
        with pytest.raises(TypeError):
            parse_rational(0.1)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected(self, flag):
        # bool is an int subclass; JSON's true must not read as 1.
        with pytest.raises(TypeError):
            parse_rational(flag)

    @pytest.mark.parametrize("bad", ["abc", "1/0", "", "2/3/4"])
    def test_garbage_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestExactSum:
    @given(st.lists(st.fractions() | st.integers(-(2**70), 2**70), max_size=30))
    def test_equals_term_by_term_sum(self, values):
        got = exact_sum(iter(values))
        assert got == sum(values, Fraction(0)) and type(got) is Fraction

    def test_empty_and_integral(self):
        assert exact_sum([]) == 0
        assert exact_sum([Fraction(3), Fraction(-5), Fraction(9)]) == 7


class TestFormatRational:
    def test_integer_prints_bare(self):
        assert format_rational(Fraction(42)) == "42"

    def test_fraction_prints_slash(self):
        assert format_rational(Fraction(3, 4)) == "3/4"

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

