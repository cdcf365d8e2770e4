from fractions import Fraction

import pytest

from rinfty.mvpoly import MPoly

V = ("x", "y")
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")


def test_ring_laws():
    p = 2 * X + Y * Y - 3
    q = X * Y + Fraction(1, 2)
    assert p + q - q == p
    assert p * q == q * p
    assert (p + q) * (p - q) == p * p - q * q
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y


def test_substitute_and_evaluate():
    p = X * X * Y - 2 * Y + 1
    assert p.evaluate({"x": 3, "y": 2}) == Fraction(15)
    collapsed = p.substitute({"x": 1})
    assert collapsed == Y - 2 * Y + 1
    nested = p.substitute({"y": X})
    assert nested == X ** 3 - 2 * X + 1


def test_denominators_and_degree():
    p = X / 2 + Y / 3
    assert p.denominator_lcm() == 6
    assert {sum(e) for e in p.terms} == {1}
    assert (p * 6).denominator_lcm() == 1


def test_uses_variable_and_constant_term():
    p = X * Y + 5
    assert p.uses_variable("x") and p.uses_variable("y")
    assert not (X + 1 - X).uses_variable("x")
    assert p.constant_term() == 5


def test_variable_mismatch_rejected():
    other = MPoly.variable(("z",), "z")
    with pytest.raises(ValueError):
        X + other


def test_zero_handling():
    zero = X - X
    assert zero.is_zero
    assert not zero
    assert zero == 0
    assert (zero * X).is_zero
