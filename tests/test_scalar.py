import random
from fractions import Fraction
from math import gcd

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
    sub_product,
    sum_products,
)

# a rational scalar is the same value at every rational t
RATIONAL = FieldSpec.at(1)


def test_poly_divmod_examples():
    # (x^3) / (x^2 - 2) = x with remainder 2x
    q, r = poly_divmod(Poly.x_power(3), Poly((-2, 0, 1)))
    assert q == Poly((0, 1))
    assert r == Poly((0, 2))
    # re-multiplication closes the loop
    assert q * Poly((-2, 0, 1)) + r == Poly.x_power(3)


def test_poly_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        poly_divmod(Poly.x_power(1), Poly())


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
        return RATIONAL.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

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
    q = RATIONAL.rational(Fraction(1))
    rf = FieldElement.ratfunc(Poly.x_power(1))
    with pytest.raises(FieldModeError, match="mode mismatch"):
        q + rf
    with pytest.raises(FieldModeError):
        q == rf


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        RATIONAL.rational(0).inv()
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        FieldElement.ratfunc(Poly()).inv()


def poly_at(p, q: Fraction) -> Fraction:
    """p(q), through Poly._at."""
    return Fraction(*p._at(q.numerator, q.denominator))


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
        if not poly_at(a.den, q) or not poly_at(b.den, q):
            continue
        assert specialize(a + b, q) == specialize(a, q) + specialize(b, q)
        assert specialize(a * b, q) == specialize(a, q) * specialize(b, q)


def test_specialize_pole():
    fe = FieldElement.ratfunc(Poly((1,)), Poly.x_power(1))  # 1/t
    with pytest.raises(PoleError, match="pole at t = 0"):
        specialize(fe, 0)
    assert specialize(fe, Fraction(1, 2)) == RATIONAL.rational(2)


def test_fieldspec_modes():
    gen = FieldSpec.generic()
    sp = FieldSpec.at(Fraction(5))
    assert gen.t().to_text() == "t"
    assert sp.t() == sp.rational(5)
    assert gen.t_power(2) == gen.t() * gen.t()
    assert sp.t_power(3) == sp.rational(125)
    assert gen.t_power(-2) * gen.t_power(2) == gen.one()
    assert sp.t_power(-1) == sp.rational(Fraction(1, 5))
    assert gen.rational(Fraction(1, 2)).kind == "rf"
    assert sp.rational(Fraction(1, 2)).kind == "q"
    assert gen.is_generic() and not sp.is_generic()
    assert (gen.describe(), sp.describe()) == ("generic", "t=5")
    assert FieldSpec.at(Fraction(5, 2)).describe() == "t=5/2"
    with pytest.raises(ZeroDivisionError, match="requires t != 0"):
        FieldSpec.at(0).require_nonzero_t("thing")


def test_the_generic_field_is_one_shared_instance():
    assert FieldSpec.generic() is FieldSpec.generic()
    assert FieldSpec.generic() == FieldSpec() and FieldSpec.generic().is_generic()


@pytest.mark.parametrize("field", [FieldSpec.generic(), FieldSpec.at(Fraction(5, 2))])
def test_zero_and_one_are_shared_and_rational_keeps_its_value(field):
    assert field.zero() is field.zero() is FieldSpec(field.t_value).zero()
    assert field.one() is field.one()
    assert field.zero().is_zero() and field.one().is_one()
    assert field.rational(0) == field.zero() and field.rational(Fraction(1)) == field.one()
    for q in (Fraction(-3, 4), Fraction(7), 2):
        value = field.rational(q)
        assert value.to_text() == str(Fraction(q))
        assert specialize(value, 1).q == q


def test_text_forms():
    assert RATIONAL.rational(Fraction(-1, 2)).to_text() == "-1/2"
    fe = FieldElement.ratfunc(Poly((-1, 0, 1)), Poly.x_power(1))
    assert fe.to_text() == "(t^2-1)/(t)"
    assert FieldElement.ratfunc(Poly.x_power(1)).to_text() == "t"
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
        Poly((-1, 0, 1)), Poly.x_power(1)
    )
    sp = FieldSpec.at(Fraction(3))
    assert parse_field_element("t", sp) == sp.rational(3)
    assert parse_field_element("-1/2", sp) == sp.rational(Fraction(-1, 2))


# ---- integer layout against a Fraction-coefficient reference -------------------


def rand_fractions(rng, max_len=5):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, max_len))]


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_monic(a):
    return tuple(c / a[-1] for c in a) if a else a


def ref_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - 1, len(b) - 2, -1):
        f = rem[i] / b[-1]
        quo[i - len(b) + 1] = f
        for j, c in enumerate(b):
            rem[i - len(b) + 1 + j] -= f * c
    return ref_trim(quo), ref_trim(rem)


def ref_gcd(a, b):
    while b:
        a, b = b, ref_monic(ref_divmod(a, b)[1])
    return ref_monic(a)


def ref_text(cs):
    parts = []
    for d in range(len(cs) - 1, -1, -1):
        c = cs[d]
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if d == 0 else ("" if mag == 1 else str(mag)) + ("t" if d == 1 else f"t^{d}")
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


def assert_layout(p, ref):
    """p is canonical and equals the reference coefficient tuple."""
    assert p.den > 0
    assert all(type(n) is int for n in p.nums) and type(p.den) is int
    assert not p.nums or p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1
    assert p.coeffs == ref
    assert p == Poly(ref) and hash(p) == hash(Poly(ref))
    assert p.to_text() == ref_text(ref)


def test_integer_layout_matches_fraction_reference():
    rng = random.Random(41)
    for _ in range(300):
        a, b = ref_trim(rand_fractions(rng)), ref_trim(rand_fractions(rng))
        pa, pb = Poly(a), Poly(b)
        assert_layout(pa, a)
        assert_layout(pa + pb, ref_add(a, b))
        assert_layout(pa - pb, ref_add(a, tuple(-c for c in b)))
        assert_layout(-pa, tuple(-c for c in a))
        assert_layout(pa * pb, ref_mul(a, b))
        assert_layout(poly_gcd(pa, pb), ref_gcd(a, b))
        if b:
            q, r = poly_divmod(pa, pb)
            ref_q, ref_r = ref_divmod(a, b)
            assert_layout(q, ref_q)
            assert_layout(r, ref_r)
            fe = FieldElement.ratfunc(pa, pb)
            if a:
                g = ref_gcd(a, b)
                num, den = ref_divmod(a, g)[0], ref_divmod(b, g)[0]
                num = tuple(x / den[-1] for x in num)
                den = ref_monic(den)
            else:
                num, den = (), (Fraction(1),)
            assert_layout(fe.num, num)
            assert_layout(fe.den, den)
            assert fe.to_text() == (
                f"({ref_text(num)})/({ref_text(den)})" if den != (1,)
                else ref_text(num) if sum(1 for x in num if x) <= 1
                else f"({ref_text(num)})"
            )
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert poly_at(pa, q) == sum((c * q**i for i, c in enumerate(a)), Fraction(0))


def test_a_linear_gcd_by_root_test_matches_the_euclidean_reference():
    """poly_gcd settles a linear operand by evaluating the other at the
    factor's root; the result must be the Euclidean gcd, in layout too."""
    rng = random.Random(47)

    def lead(sign):
        return Fraction(sign * rng.randint(1, 6), rng.randint(1, 4))

    for root in (Fraction(0), Fraction(3, 2), Fraction(-5, 3), Fraction(-2)):
        for sign in (1, -1):
            for _ in range(10):
                c = lead(sign)
                lin = (-c * root, c)
                others = {
                    "shared root": ref_mul(lin, ref_trim(rand_fractions(rng, 3)) or (1,)),
                    "linear, same root": (-root * c * 3, c * 3),
                    "constant": (lead(-sign),),
                    "zero": (),
                }
                other = ()
                while not other or poly_at(Poly(other), root) == 0:
                    other = ref_trim(rand_fractions(rng, 4))
                others["no common root"] = other
                for name, other in others.items():
                    want = ref_gcd(lin, other)
                    assert len(want) == (1 if name in ("constant", "no common root") else 2)
                    assert_layout(poly_gcd(Poly(lin), Poly(other)), want)
                    assert_layout(poly_gcd(Poly(other), Poly(lin)), want)


def test_polynomial_sums_equal_the_grouping_path():
    """sum_products sums a key of polynomial products on ints; the same
    products with a cancelling pair of rational functions added take the
    grouping path, and both must give the same canonical scalar."""
    rng = random.Random(53)
    generic = FieldSpec.generic()
    u = FieldElement.ratfunc(Poly((1, 2)), Poly((-1, 0, 3)))  # (2t+1)/(3t^2-1)

    def poly_scalar():
        # mixed int denominators: each coefficient over 1 to 4
        return FieldElement.ratfunc(Poly(ref_trim(rand_fractions(rng, 4)) or (1,)))

    for _ in range(150):
        triples = [(poly_scalar(), poly_scalar(), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
        negated = [(-a, b, k) for a, b, k in triples]
        got = sum_products(
            {
                "poly": triples,
                "grouped": triples + [(u, u, 0), (-u, u, 0)],
                "cancel": triples + negated,
            },
            generic,
        )
        want = ()
        for a, b, k in triples:
            want = ref_add(want, (Fraction(0),) * k + ref_mul(a.num.coeffs, b.num.coeffs))
        assert "cancel" not in got
        if not want:
            assert got == {}
            continue
        p, g = got["poly"], got["grouped"]
        assert_layout(p.num, want)
        assert p.den.is_one()
        assert p == g and hash(p) == hash(g) and p.to_text() == g.to_text()


@pytest.mark.parametrize(
    "a",
    [
        FieldElement.ratfunc(Poly((Fraction(-1, 2), 0, 3))),
        FieldElement.ratfunc(Poly((1, 1)), Poly((0, 0, 2))),
    ],
    ids=["polynomial", "rational function"],
)
def test_a_factor_one_returns_the_other_operand_itself(a):
    one = FieldSpec.generic().one()
    assert a * one is a
    assert one * a is a
    assert sum_products({0: [(a, one, 0)]}, FieldSpec.generic())[0] is a


def test_text_round_trip_randomized():
    rng = random.Random(43)
    generic = FieldSpec.generic()
    for _ in range(300):
        den = Poly(rand_fractions(rng, 3))
        fe = FieldElement.ratfunc(Poly(rand_fractions(rng)), Poly((1,)) if den.is_zero() else den)
        assert parse_field_element(fe.to_text(), generic) == fe
    at = FieldSpec.at(Fraction(5, 2))
    for _ in range(100):
        fe = at.rational(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        assert parse_field_element(fe.to_text(), at) == fe
        assert parse_field_element(fe.to_text(), generic) == generic.rational(fe.q)


def test_rational_text_with_zero_denominator_is_named():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_field_element("1/0", FieldSpec.generic())
    with pytest.raises(ValueError, match="zero denominator in '3/0'"):
        parse_poly("1+3/0t")
    with pytest.raises(ValueError, match=r"zero denominator in '\(t\)/\(0\)'"):
        parse_field_element("(t)/(0)", FieldSpec.generic())


# ---- rationals as two ints against Fraction ------------------------------------


def rand_rational(rng):
    """A rational that is zero, small or with a large numerator, of either sign."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**6))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def assert_rational(fe, want):
    """fe is the Q scalar want, in lowest terms with a positive denominator,
    printed as str(Fraction) prints it."""
    assert fe.kind == "q" and fe.q == want
    assert type(fe.num) is int and type(fe.den) is int
    assert fe.den > 0 and gcd(fe.num, fe.den) == 1
    assert fe.to_text() == str(want)


@pytest.mark.parametrize("t0", [Fraction(5, 2), Fraction(-3, 2)], ids=["5/2", "-3/2"])
def test_rational_arithmetic_matches_fraction(t0):
    rng = random.Random(59)
    field = FieldSpec.at(t0)

    def nonzero():
        return field.rational(rand_rational(rng) or 1)

    for _ in range(400):
        x, y, z = rand_rational(rng), rand_rational(rng), rand_rational(rng)
        a, b, c = field.rational(x), field.rational(y), field.rational(z)
        assert_rational(a, x)
        assert_rational(a + b, x + y)
        assert_rational(a - b, x - y)
        assert_rational(a * b, x * y)
        assert_rational(-a, -x)
        assert (a == b) == (x == y) and a == field.rational(x)
        assert a.is_zero() == (x == 0) and a.is_one() == (x == 1)
        if y:
            assert_rational(a / b, x / y)
            assert_rational(b.inv(), 1 / y)
        assert_rational(sub_product(None, a, b), -x * y)
        assert_rational(sub_product(c, a, b), z - x * y)
        triples = [(nonzero(), nonzero(), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
        want = sum((u.q * v.q * t0**k for u, v, k in triples), Fraction(0))
        got = sum_products({"key": triples}, field)
        if want:
            assert_rational(got["key"], want)
        else:
            assert got == {}
    for k in range(4):
        assert_rational(field.t_power(k), t0**k)
        assert_rational(specialize(FieldSpec.generic().t_power(k), t0), t0**k)


def test_mixing_the_fields_raises_in_every_operator_and_both_fused_helpers():
    q = FieldSpec.at(Fraction(5, 2)).rational(Fraction(-1, 2))
    rf = FieldSpec.generic().t() + FieldSpec.generic().one()
    for a, b in ((q, rf), (rf, q)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b, lambda: a == b):
            with pytest.raises(FieldModeError):
                op()
        for cur, x, y in ((None, a, b), (a, b, b), (b, a, a)):
            with pytest.raises(FieldModeError):
                sub_product(cur, x, y)
    for field, triple in (
        (FieldSpec.generic(), (q, q, 0)),
        (FieldSpec.generic(), (rf, q, 1)),
        (FieldSpec.at(Fraction(5, 2)), (rf, rf, 0)),
        (FieldSpec.at(Fraction(5, 2)), (q, rf, 1)),
    ):
        with pytest.raises(FieldModeError):
            sum_products({0: [triple]}, field)


def scalar_of(field, num, den):
    """num/den in field: the Q(t) scalar, or its value at field's t."""
    fe = FieldElement.ratfunc(num, den)
    return fe if field.is_generic() else specialize(fe, field.t_value)


@pytest.mark.parametrize(
    "field", [FieldSpec.generic(), FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"]
)
def test_equal_scalars_built_by_different_paths_hash_equal(field):
    """A scalar hashes by its value, so equal scalars from ratfunc, the
    operators, the fused helpers, specialize and the parser hash alike."""
    rng = random.Random(67)
    t0 = Fraction(5, 2)

    def poly(nonzero_at_t0=False):
        while True:
            size = rng.randint(1, 3)
            p = Poly(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size))
            if p and (not nonzero_at_t0 or poly_at(p, t0)):
                return p

    for _ in range(40):
        (na, da), (nb, db), (nc, dc) = [(poly(), poly(True)) for _ in range(3)]
        g = poly(True)
        a, b, c = scalar_of(field, na, da), scalar_of(field, nb, db), scalar_of(field, nc, dc)
        k = rng.randint(0, 2)
        pairs = [
            (scalar_of(field, na * g, da * g), a),
            (a + b, scalar_of(field, na * db + nb * da, da * db)),
            (a * b, scalar_of(field, na * nb, da * db)),
            (sub_product(c, a, b), c - a * b),
            (sub_product(None, a, b), -(a * b)),
            (
                sum_products({0: [(a, b, k), (c, a, 0)]}, field).get(0, field.zero()),
                a * b * field.t_power(k) + c * a,
            ),
            (parse_field_element(a.to_text(), field), a),
            (parse_field_element((a * b).to_text(), field), a * b),
        ]
        if not field.is_generic():
            exact = poly_at(na, t0) / poly_at(da, t0)
            generic = FieldElement.ratfunc(na * g, da * g)
            pairs.append((specialize(generic, t0), field.rational(exact)))
        for x, y in pairs:
            assert x == y and hash(x) == hash(y) and len({x, y}) == 1
