"""Composition sums each composite coefficient once: LinMorphism.compose,
karoubi._mat_compose and homspace.compose_sum against a term-by-term
reference, and a count of the normalisations they make."""

import random
from fractions import Fraction

import pytest

import diagcat.scalar as scalar
from diagcat import partition
from diagcat.homspace import LinMorphism, compose_sum, hom_basis, parse_linmorphism
from diagcat.karoubi import _mat_compose
from diagcat.moebius import special_morphisms
from diagcat.partition import DiagramClass, PartitionDiagram
from diagcat.scalar import FieldElement, FieldModeError, FieldSpec, Poly

GENERIC = FieldSpec.generic()
FIELDS = (GENERIC, FieldSpec.at(0), FieldSpec.at(Fraction(5, 2)), FieldSpec.at(-1))


def reference_mul(a, b):
    """a * b, always reduced by ratfunc: no reduced-product rule."""
    if a.kind == "q":  # the same value at every rational t
        return FieldSpec.at(1).rational(a.q * b.q)
    return FieldElement.ratfunc(a.num * b.num, a.den * b.den)


def reference_compose_sum(pairs, dom, cod, field):
    """The sum of g after f over the pairs, term by term: every product
    cf * cg, every factor t^loops and every partial sum is a FieldElement
    of its own."""
    terms = {}
    for g, f in pairs:
        for df, cf in f.terms.items():
            for dg, cg in g.terms.items():
                diagram, loops = partition.compose(dg, df)
                c = reference_mul(cf, cg)
                if loops:
                    c = reference_mul(c, field.t_power(loops))
                terms[diagram] = terms[diagram] + c if diagram in terms else c
    return LinMorphism(dom, cod, terms)


def random_poly(rng):
    return Poly(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))


def random_scalar(rng, field):
    """A nonzero scalar: over Q(t) a constant, a polynomial, a power of
    1/t, a fraction, or a fraction whose denominator t divides."""
    if not field.is_generic():
        return field.rational(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
    while True:
        kind = rng.randrange(5)
        if kind == 0:
            num, den = Poly([rng.choice((-2, -1, 1, 3))]), Poly([1])
        elif kind == 1:
            num, den = random_poly(rng), Poly([1])
        elif kind == 2:
            num, den = Poly([rng.choice((-1, 1, 2))]), Poly.x_power(rng.randint(1, 2))
        elif kind == 3:
            num, den = random_poly(rng), random_poly(rng)
        else:
            num, den = random_poly(rng), random_poly(rng) * Poly.x_power(1)
        if not num.is_zero() and not den.is_zero():
            return FieldElement.ratfunc(num, den)


def random_lin(rng, cls, m, n, field):
    """Up to three basis diagrams of Hom([m], [n]) in cls with random
    coefficients; zero when that hom space is empty."""
    diagrams = hom_basis(cls, m, n).diagrams
    chosen = rng.sample(diagrams, min(len(diagrams), rng.randint(1, 3)))
    return LinMorphism(m, n, {d: random_scalar(rng, field) for d in chosen})


def D(text):
    return PartitionDiagram.parse(text)


def assert_same(got, want):
    assert (got.dom, got.cod) == (want.dom, want.cod)
    assert got == want
    assert got.to_text() == want.to_text()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
@pytest.mark.parametrize("cls", list(DiagramClass), ids=lambda c: c.value)
def test_compose_and_compose_sum_equal_the_term_by_term_sum(cls, field):
    rng = random.Random(f"compose-sum/{cls.value}/{field.describe()}")
    for _ in range(12):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        inner = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        pairs = [
            (random_lin(rng, cls, k, n, field), random_lin(rng, cls, m, k, field))
            for k in inner
        ]
        g, f = pairs[0]
        assert_same(g.compose(f, field), reference_compose_sum(pairs[:1], m, n, field))
        assert_same(compose_sum(pairs, m, n, field), reference_compose_sum(pairs, m, n, field))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
@pytest.mark.parametrize("cls", list(DiagramClass), ids=lambda c: c.value)
def test_mat_compose_equals_the_term_by_term_sum(cls, field):
    rng = random.Random(f"mat-compose/{cls.value}/{field.describe()}")
    for _ in range(4):
        words = [[rng.randint(0, 2) for _ in range(rng.randint(1, 2))] for _ in range(3)]
        dom, mid, cod = words
        a = [[random_lin(rng, cls, w, v, field) for w in dom] for v in mid]
        b = [[random_lin(rng, cls, v, u, field) for v in mid] for u in cod]
        product = _mat_compose(b, a, field)
        for i, u in enumerate(cod):
            for j, w in enumerate(dom):
                pairs = [(b[i][k], a[k][j]) for k in range(len(mid))]
                assert_same(product[i][j], reference_compose_sum(pairs, w, u, field))


def test_a_sum_that_cancels_drops_its_term():
    for field in FIELDS:
        g = parse_linmorphism("2 * 1 1' + 1 * 1 | 1'", field)
        h = parse_linmorphism("-2 * 1 1'", field)
        f = parse_linmorphism("(1)/(t+3) * 1 1'" if field.is_generic() else "1/4 * 1 1'", field)
        total = compose_sum(((g, f), (h, f)), 1, 1, field)
        assert D("1 1'") not in total.terms
        assert_same(total, reference_compose_sum(((g, f), (h, f)), 1, 1, field))
        assert compose_sum(((g, f), (g.scale(-field.one()), f)), 1, 1, field).is_zero()


def test_a_power_of_t_cancels_a_pole_at_zero():
    # e_1_sprime = (1/t) {1},{1'}: composing it after itself closes one
    # loop, so (1/t)(1/t) t = 1/t, and 2 (1/t) t = 2
    e = special_morphisms("e_1_sprime", 1, GENERIC)
    assert_same(e.compose(e, GENERIC), e)
    two = LinMorphism.from_diagram(D("1 | 1'"), GENERIC, GENERIC.rational(2))
    assert two.compose(e, GENERIC).terms[D("1 | 1'")].to_text() == "2"
    assert_same(two.compose(e, GENERIC), reference_compose_sum(((two, e),), 1, 1, GENERIC))


def test_loops_at_t_zero_vanish():
    zero = FieldSpec.at(0)
    d = LinMorphism.from_diagram(D("1 | 1'"), zero, zero.rational(3))
    assert d.compose(d, zero).is_zero()
    both = parse_linmorphism("1 * 1 1' + 1 * 1 | 1'", zero)
    assert_same(both.compose(d, zero), reference_compose_sum(((both, d),), 1, 1, zero))
    assert both.compose(d, zero) == parse_linmorphism("3 * 1 | 1'", zero)


def test_mixing_the_fields_raises():
    at5 = FieldSpec.at(5)
    g = parse_linmorphism("(t)/(t+1) * 1 1'", GENERIC)
    f = parse_linmorphism("2 * 1 1'", at5)
    for field in (GENERIC, at5):
        with pytest.raises(FieldModeError):
            g.compose(f, field)
        with pytest.raises(FieldModeError):
            f.compose(g, field)
        with pytest.raises(FieldModeError):
            compose_sum(((g, g), (f, f)), 1, 1, field)
    with pytest.raises(FieldModeError):
        f.compose(f, GENERIC)


def test_compose_sum_checks_shapes():
    f = parse_linmorphism("1 * 1 1' 2'", GENERIC)
    with pytest.raises(ValueError, match="cannot compose"):
        compose_sum(((f, f),), 1, 2, GENERIC)
    with pytest.raises(ValueError, match="not in"):
        compose_sum(((LinMorphism.zero(2, 3), f),), 1, 2, GENERIC)


@pytest.fixture
def calls(monkeypatch):
    """Counts of FieldElement.ratfunc and poly_gcd calls."""
    counts = {"ratfunc": 0, "poly_gcd": 0}
    ratfunc, poly_gcd = FieldElement.ratfunc.__func__, scalar.poly_gcd

    def counted_ratfunc(cls, *args):
        counts["ratfunc"] += 1
        return ratfunc(cls, *args)

    def counted_gcd(*args):
        counts["poly_gcd"] += 1
        return poly_gcd(*args)

    monkeypatch.setattr(FieldElement, "ratfunc", classmethod(counted_ratfunc))
    monkeypatch.setattr(scalar, "poly_gcd", counted_gcd)
    return counts


def test_each_output_term_is_normalised_at_most_once(calls):
    # nine composites [1] -> [2] -> [1] over five denominators land on the
    # two diagrams of Hom([1], [1])
    f = parse_linmorphism("(t-1)/(t+1) * 1 1' 2' + (1)/(t^2) * 1 | 1' 2' + 1 * 1 1' | 2'", GENERIC)
    g = parse_linmorphism("(1)/(t) * 1 2 1' + (t)/(t+1) * 1 | 2 | 1' + 2 * 1 1' | 2", GENERIC)
    reference = reference_compose_sum(((g, f),), 1, 1, GENERIC)
    calls["ratfunc"] = 0
    got = g.compose(f, GENERIC)
    assert len(g.terms) * len(f.terms) == 9 and len(got.terms) == 2
    assert calls["ratfunc"] <= len(got.terms)
    assert_same(got, reference)


def test_a_constant_times_a_reduced_fraction_needs_no_gcd(calls):
    # the identity after f, and {1},{1'} after {1},{1'}, which closes a loop
    # under a denominator that t does not divide: each output is one
    # product that the reduced-product rule knows to be in lowest terms
    f = parse_linmorphism("(t+1)/(t-1) * 1 1' + (1)/(t^2+2) * 1 | 1'", GENERIC)
    h = parse_linmorphism("(t+1)/(t-1) * 1 | 1'", GENERIC)
    identity = parse_linmorphism("-3 * 1 1'", GENERIC)
    cut = parse_linmorphism("2 * 1 | 1'", GENERIC)
    reference = (
        reference_compose_sum(((identity, f),), 1, 1, GENERIC),
        reference_compose_sum(((cut, h),), 1, 1, GENERIC),
    )
    calls["ratfunc"] = calls["poly_gcd"] = 0
    got = identity.compose(f, GENERIC), cut.compose(h, GENERIC)
    scaled = GENERIC.rational(5) * f.terms[D("1 1'")]
    assert calls == {"ratfunc": 0, "poly_gcd": 0}
    assert scaled.to_text() == "(5t+5)/(t-1)"
    assert got[0].to_text() == "(-3)/(t^2+2) * 1 | 1' + (-3t-3)/(t-1) * 1 1'"
    assert got[1].to_text() == "(2t^2+2t)/(t-1) * 1 | 1'"
    for x, y in zip(got, reference):
        assert_same(x, y)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
def test_sub_product_equals_a_product_and_a_difference(field):
    # the fused elimination update cur - a*b, cur None standing for zero,
    # against the reduced product and the separate difference
    rng = random.Random(41)
    zero = field.zero()
    for _ in range(300):
        a, b = random_scalar(rng, field), random_scalar(rng, field)
        if a.is_zero() or b.is_zero():
            continue
        cur = None if rng.random() < 0.25 else random_scalar(rng, field)
        want = (zero if cur is None else cur) - reference_mul(a, b)
        got = scalar.sub_product(cur, a, b)
        assert got == want and got.to_text() == want.to_text()
        # equal to itself reduced again: the canonical form
        if got.kind == "rf":
            assert got == FieldElement.ratfunc(got.num, got.den)


def test_sub_product_rejects_the_other_field():
    a, q = GENERIC.t(), FieldSpec.at(2).one()
    for cur, x, y in ((None, a, q), (q, a, a), (a, q, q), (None, q, a)):
        with pytest.raises(FieldModeError):
            scalar.sub_product(cur, x, y)


def test_a_constant_or_a_polynomial_update_needs_no_gcd(calls):
    c = GENERIC.rational(3)
    p = parse_linmorphism("(t^2+1) * 1", GENERIC).terms[D("1")]
    q = parse_linmorphism("(2t-1) * 1", GENERIC).terms[D("1")]
    calls["ratfunc"] = calls["poly_gcd"] = 0
    # a constant over a polynomial, and the inverse of a polynomial
    assert FieldElement.ratfunc(Poly([3]), Poly([1, 0, 1])).to_text() == "(3)/(t^2+1)"
    assert p.inv().to_text() == "(1)/(t^2+1)"
    assert calls["poly_gcd"] == 0
    calls["ratfunc"] = 0
    # polynomials minus a product of polynomials stay polynomials
    assert scalar.sub_product(p, q, c).to_text() == "(t^2-6t+4)"
    assert calls == {"ratfunc": 0, "poly_gcd": 0}
