"""Test-only oracles: direct definitions that the package no longer needs,
kept as references for the tests that compare against them."""

from fractions import Fraction

from dynzsig.divisibility import IdealPair
from dynzsig.heights import log_int
from dynzsig.ratfield import Coefficient, as_rational


def ideal_pair(x: Fraction | int | str) -> "IdealPair":
    """Numerator/denominator ideal pair (|num|, den) of x in lowest terms."""
    x = Fraction(x)
    return IdealPair(abs(x.numerator), x.denominator)


def rational_height(x: Coefficient) -> float:
    """h(x) = log max(|numerator|, denominator) of x in lowest terms."""
    x = as_rational(x)
    return log_int(max(abs(x.numerator), x.denominator))
