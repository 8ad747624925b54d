import random
from fractions import Fraction

import pytest

from diagcat.scalar import (
    FieldElement,
    FieldModeError,
    FieldSpec,
    PoleError,
    Poly,
    parse_field_element,
    parse_poly,
    poly_divmod,
    poly_gcd,
    specialize,
)


def test_poly_divmod_examples():
    # (x^3) / (x^2 - 2) = x with remainder 2x
    q, r = poly_divmod(Poly.x_power(3), Poly((-2, 0, 1)))
    assert q == Poly((0, 1))
    assert r == Poly((0, 2))
    # re-multiplication closes the loop
    assert q * Poly((-2, 0, 1)) + r == Poly.x_power(3)


def test_poly_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        poly_divmod(Poly.x(), Poly())


def test_poly_divmod_random_remultiplication():
    rng = random.Random(7)
    for _ in range(200):
        a = Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 6))])
        b = Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()


def test_poly_gcd_monic():
    a = Poly((-1, 0, 1))  # t^2 - 1
    b = Poly((1, 1))  # t + 1
    assert poly_gcd(a, b) == Poly((1, 1))
    assert poly_gcd(a, Poly((2, 2))) == Poly((1, 1))


def test_ratfunc_normalization_canonical():
    # (t^2 - 1)/(t - 1) reduces to t + 1 over the denominator 1
    fe = FieldElement.ratfunc(Poly((-1, 0, 1)), Poly((-1, 1)))
    assert fe == FieldElement.ratfunc(Poly((1, 1)))
    assert fe.num == Poly((1, 1)) and fe.den.is_one()
    # a unit denominator leaves the numerator as given
    fe1 = FieldElement.ratfunc(Poly((0, 2)), Poly((1,)))
    assert fe1.num == Poly((0, 2)) and fe1.den.is_one()
    # denominator is forced monic
    fe2 = FieldElement.ratfunc(Poly((1,)), Poly((0, 2)))
    assert fe2.den.is_monic()
    assert fe2 * FieldElement.ratfunc(Poly((0, 2))) == FieldElement.ratfunc(Poly((1,)))


def test_field_axioms_randomized():
    rng = random.Random(11)

    def rand_q():
        return FieldElement.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def rand_rf():
        num = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        den = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        if den.is_zero():
            den = Poly((1,))
        return FieldElement.ratfunc(num, den)

    for maker in (rand_q, rand_rf):
        for _ in range(60):
            a, b, c = maker(), maker(), maker()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inv() == (a - a) + (a.inv() * a)


def test_mode_mismatch_raises():
    q = FieldElement.rational(Fraction(1))
    rf = FieldElement.ratfunc(Poly.x())
    with pytest.raises(FieldModeError, match="mode mismatch"):
        q + rf
    with pytest.raises(FieldModeError):
        q == rf


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        FieldElement.rational(0).inv()
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        FieldElement.ratfunc(Poly()).inv()


def test_specialize_commutes_with_arithmetic():
    rng = random.Random(23)
    for _ in range(100):
        num = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        den = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        if den.is_zero():
            den = Poly((1,))
        a = FieldElement.ratfunc(num, den)
        b = FieldElement.ratfunc(Poly((rng.randint(-3, 3), 1)))
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if a.den.evaluate(q) == 0 or b.den.evaluate(q) == 0:
            continue
        assert specialize(a + b, q) == specialize(a, q) + specialize(b, q)
        assert specialize(a * b, q) == specialize(a, q) * specialize(b, q)


def test_specialize_pole():
    fe = FieldElement.ratfunc(Poly((1,)), Poly.x())  # 1/t
    with pytest.raises(PoleError, match="pole at t = 0"):
        specialize(fe, 0)
    assert specialize(fe, Fraction(1, 2)) == FieldElement.rational(2)


def test_fieldspec_modes():
    gen = FieldSpec.generic()
    sp = FieldSpec.at(Fraction(5))
    assert gen.t().to_text() == "t"
    assert sp.t() == FieldElement.rational(5)
    assert gen.t_power(2) == gen.t() * gen.t()
    assert sp.t_power(3) == FieldElement.rational(125)
    assert gen.rational(Fraction(1, 2)).kind == "rf"
    assert sp.rational(Fraction(1, 2)).kind == "q"
    with pytest.raises(ValueError):
        FieldSpec("specialized")
    with pytest.raises(ZeroDivisionError, match="requires t != 0"):
        FieldSpec.at(0).require_nonzero_t("thing")


def test_text_forms():
    assert FieldElement.rational(Fraction(-1, 2)).to_text() == "-1/2"
    fe = FieldElement.ratfunc(Poly((-1, 0, 1)), Poly.x())
    assert fe.to_text() == "(t^2-1)/(t)"
    assert FieldElement.ratfunc(Poly.x()).to_text() == "t"
    assert FieldElement.ratfunc(Poly((1, 2))).to_text() == "(2t+1)"


def test_poly_parse_roundtrip():
    for text in ("x^2-x-1", "x-1", "x", "3", "-2x^3+1/2x"):
        p = parse_poly(text, "x")
        assert parse_poly(p.to_text("x"), "x") == p
    assert parse_poly("x^2-x-1", "x") == Poly((-1, -1, 1))


def test_parse_field_element():
    gen = FieldSpec.generic()
    assert parse_field_element("t", gen) == gen.t()
    assert parse_field_element("5", gen) == gen.rational(5)
    assert parse_field_element("(t^2-1)/(t)", gen) == FieldElement.ratfunc(
        Poly((-1, 0, 1)), Poly.x()
    )
    sp = FieldSpec.at(Fraction(3))
    assert parse_field_element("t", sp) == FieldElement.rational(3)
    assert parse_field_element("-1/2", sp) == FieldElement.rational(Fraction(-1, 2))
