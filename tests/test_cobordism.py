import itertools
import random
from fractions import Fraction

import pytest

from diagcat import cobordism
from diagcat.cobordism import (
    Cobordism,
    FrobeniusDatum,
    cob_compose,
    fibonacci_datum,
    generator,
    glue,
    glue_raw,
    partition_crosscheck,
    partition_to_cob,
    reduce_normal_form,
    st_datum,
)
from diagcat.homspace import LinMorphism
from diagcat.partition import PartitionDiagram, all_diagrams
from diagcat.scalar import FieldSpec, Poly, poly_divmod

F = FieldSpec.generic()
ST = st_datum(F)
FIB = fibonacci_datum(F)


def cylinder(n: int) -> Cobordism:
    """The identity cobordism of [n]: one cylinder per circle."""
    return Cobordism(n, n, [((i, n + i), 0) for i in range(1, n + 1)])


def cob_tensor(a: Cobordism, b: Cobordism) -> Cobordism:
    comps = []
    for circles, genus in a.components:
        comps.append(
            (tuple(p if p <= a.m else p + b.m for p in circles), genus)
        )
    for circles, genus in b.components:
        comps.append(
            (
                tuple(p + a.m if p <= b.m else p + a.m + a.n for p in circles),
                genus,
            )
        )
    return Cobordism(a.m + b.m, a.n + b.n, comps)


def cob_to_partition(c: Cobordism) -> PartitionDiagram:
    for circles, genus in c.components:
        if not circles:
            raise ValueError("closed component has no partition counterpart")
        if genus:
            raise ValueError("positive genus has no partition counterpart")
    return PartitionDiagram(c.m, c.n, [circles for circles, _ in c.components])


def C(text):
    return Cobordism.parse(text)


def one_term(lin):
    assert len(lin.terms) == 1
    return next(iter(lin.terms.items()))


def test_datum_validation():
    with pytest.raises(ValueError, match="monic"):
        FrobeniusDatum(F, (F.one(),), Poly((Fraction(1), Fraction(2))))
    with pytest.raises(ValueError, match="degree"):
        FrobeniusDatum(F, (F.one(),), Poly([Fraction(3)]))
    with pytest.raises(ValueError, match="initial alpha"):
        FrobeniusDatum(F, (F.one(), F.one()), Poly((Fraction(-1), Fraction(1))))


def test_st_datum_alpha_constant():
    for i in range(6):
        assert ST.alpha(i) == F.t()


def test_zero_square_datum():
    a, b = F.rational(Fraction(7)), F.rational(Fraction(9))
    d = FrobeniusDatum(F, (a, b), Poly((Fraction(0), Fraction(0), Fraction(1))))
    assert d.alpha(2).is_zero() and d.alpha(3).is_zero()


def test_fibonacci_datum_alpha():
    vals = [FIB.alpha(i) for i in range(6)]
    want = [1, 2, 3, 5, 8, 13]
    assert vals == [F.rational(Fraction(v)) for v in want]


def recurrence_alphas(datum, count):
    """alpha_0 .. alpha_{count-1} by alpha_{j+d} = -sum_{k<d} u_k alpha_{j+k}."""
    field, d, u = datum.field, datum.degree(), datum.u.coeffs
    out = list(datum.alpha_init)
    while len(out) < count:
        j = len(out) - d
        acc = field.zero()
        for k in range(d):
            if u[k]:
                acc = acc + field.rational(u[k]) * out[j + k]
        out.append(-acc)
    return out[:count]


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_alpha_is_the_recurrence(field):
    t = field.t()
    cubic = FrobeniusDatum(
        field,
        (t, field.rational(Fraction(-2, 3)), t * t + field.one()),
        Poly((Fraction(3, 4), Fraction(-5, 2), Fraction(1, 3), Fraction(1))),
    )
    for datum in (st_datum(field), fibonacci_datum(field), cubic):
        assert [datum.alpha(i) for i in range(31)] == recurrence_alphas(datum, 31)


def test_each_alpha_is_made_once_per_datum(monkeypatch):
    """alpha(i) is memoised per datum and i: a repeated call returns the
    same scalar and reads no expansion."""
    datum = FrobeniusDatum(F, (F.t(), F.one()), Poly((Fraction(2), Fraction(-1), Fraction(1))))
    first = [datum.alpha(i) for i in range(6)]
    read = []
    monkeypatch.setattr(
        FrobeniusDatum, "genus_expansion", lambda self, g: read.append(g) or ()
    )
    assert all(datum.alpha(i) is a for i, a in enumerate(first))
    assert read == []
    assert first == recurrence_alphas(datum, 6)


def test_the_data_are_memoised_per_field(monkeypatch):
    """One shared datum per field, and each x^g mod u is divided out once:
    with every expansion memoised, alpha(i) for i <= 10 still reads the
    recurrence and divides nothing."""
    fields = (F, FieldSpec.at(Fraction(5, 2)), FieldSpec.at(Fraction(0)))
    for build in (st_datum, fibonacci_datum):
        data = [build(field) for field in fields]
        assert len({id(d) for d in data}) == len(fields)
        assert all(build(FieldSpec(d.field.t_value)) is d for d in data)
        for datum in data:
            for i in range(11):
                datum.alpha(i)
    divisions = []
    monkeypatch.setattr(
        cobordism, "poly_divmod", lambda a, b: divisions.append(a) or poly_divmod(a, b)
    )
    for field in fields:
        for datum in (st_datum(field), fibonacci_datum(field)):
            assert [datum.alpha(i) for i in range(11)] == recurrence_alphas(datum, 11)
    assert divisions == []


def test_recurrence_invariant():
    # sum_i u_i alpha(i+j) = 0 for all j, with u_d = 1
    for datum in (ST, FIB):
        d = datum.degree()
        for j in range(5):
            acc = F.zero()
            for i in range(d + 1):
                acc = acc + F.rational(datum.u.coeffs[i]) * datum.alpha(i + j)
            assert acc.is_zero()


def test_cobordism_validation():
    with pytest.raises(ValueError, match="used twice"):
        Cobordism(1, 1, [((1, 2), 0), ((2,), 0)])
    with pytest.raises(ValueError, match="not covered"):
        Cobordism(2, 0, [((1,), 0)])
    with pytest.raises(ValueError, match="out of range"):
        Cobordism(1, 0, [((3,), 0)])
    with pytest.raises(ValueError, match="genus"):
        Cobordism(1, 0, [((1,), -1)])


def test_a_cobordism_is_its_tuple():
    """Equality, hashing and order are tuple's own, the hash is that of
    (m, n, components), and the empty cobordism equals the empty diagram."""
    for name in ("__eq__", "__hash__", "__lt__"):
        assert getattr(Cobordism, name) is getattr(tuple, name)
    assert not hasattr(Cobordism, "key")
    c = C("g=1: 1 2' | g=0: 2 1'")
    assert hash(c) == hash((c.m, c.n, c.components))
    assert c == (2, 2, (((1, 4), 1), ((2, 3), 0)))
    assert sorted([C("g=1: 1 1'"), C("g=0: 1 | g=0: 1'")]) == [
        C("g=0: 1 | g=0: 1'"), C("g=1: 1 1'")
    ]
    assert Cobordism(0, 0, []) == PartitionDiagram(0, 0, [])


def test_text_roundtrip():
    samples = [
        "<empty>",
        "g=0: 1 1'",
        "g=0: 1 2 | g=1: 1' 2'",
        "g=2:",
        "g=0: 1 | g=3:",
    ]
    for text in samples:
        c = Cobordism.parse(text)
        assert Cobordism.parse(c.to_text()) == c
    assert C("g=0: 1 1'") == Cobordism(1, 1, [((1, 2), 0)])


def test_parse_errors():
    with pytest.raises(Exception, match="genus prefix"):
        Cobordism.parse("g=x: 1")
    with pytest.raises(Exception, match="missing"):
        Cobordism.parse("1 1'")


def test_identity_gluing():
    cyl = cylinder(1)
    res = glue(cyl, cyl, ST)
    assert res == LinMorphism.from_diagram(cyl, F)


def test_closed_torus_from_two_cylinders():
    # both circles glued: chi = 0, r = 0 -> genus 1 closed component
    bent_up = Cobordism(0, 2, [((1, 2), 0)])  # cup: one component, two lower
    bent_down = Cobordism(2, 0, [((1, 2), 0)])
    raw = glue_raw(bent_down, bent_up)
    assert raw.components == (((), 1),)
    res = glue(bent_down, bent_up, ST)
    assert res == LinMorphism(0, 0, {Cobordism(0, 0, []): F.t()})


def test_pants_copants_is_handle():
    mu, delta = generator("mu"), generator("delta")
    raw = glue_raw(mu, delta)
    assert raw == generator("phi")


def test_handle_reduces_under_st():
    res = glue(generator("mu"), generator("delta"), ST)
    assert res == LinMorphism.from_diagram(cylinder(1), F)


def test_sphere_scalar():
    res = glue(generator("eps"), generator("eta"), ST)
    assert res == LinMorphism(0, 0, {Cobordism(0, 0, []): F.t()})


def test_reduce_examples():
    sphere = Cobordism(0, 0, [((), 0)])
    assert reduce_normal_form(sphere, ST) == LinMorphism(
        0, 0, {Cobordism(0, 0, []): F.t()}
    )
    g3 = Cobordism(1, 0, [((1,), 3)])
    assert reduce_normal_form(g3, ST) == LinMorphism.from_diagram(
        Cobordism(1, 0, [((1,), 0)]), F
    )
    g2 = Cobordism(1, 0, [((1,), 2)])
    got = reduce_normal_form(g2, FIB)
    want = LinMorphism.from_diagram(
        Cobordism(1, 0, [((1,), 1)]), F
    ) + LinMorphism.from_diagram(Cobordism(1, 0, [((1,), 0)]), F)
    assert got == want


def test_reduce_idempotent():
    samples = [
        Cobordism(1, 1, [((1, 2), 4)]),
        Cobordism(2, 0, [((1,), 2), ((2,), 0), ((), 1)]),
    ]
    for datum in (ST, FIB):
        for c in samples:
            once = reduce_normal_form(c, datum)
            again = LinMorphism.zero(c.m, c.n)
            for term, coeff in once.terms.items():
                again = again + reduce_normal_form(term, datum).scale(coeff)
            assert again == once


def test_phi_hat_identity():
    # eps . phi^i . eta = alpha(i) for i <= 4 under both data
    for datum in (ST, FIB):
        for i in range(5):
            cur = LinMorphism.from_diagram(generator("eta"), F)
            phi = LinMorphism.from_diagram(generator("phi"), F)
            for _ in range(i):
                cur = cob_compose(phi, cur, datum)
            cur = cob_compose(
                LinMorphism.from_diagram(generator("eps"), F), cur, datum
            )
            assert cur == LinMorphism(0, 0, {Cobordism(0, 0, []): datum.alpha(i)})


def test_tensor():
    cyl = cylinder(1)
    assert cob_tensor(cyl, cyl) == cylinder(2)
    eps, eta = generator("eps"), generator("eta")
    side = cob_tensor(eps, eta)
    assert side == Cobordism(1, 1, [((1,), 0), ((2,), 0)])


def test_partition_conversions():
    d = PartitionDiagram.parse("1 1' | 2 2'")
    assert cob_to_partition(partition_to_cob(d)) == d
    with pytest.raises(ValueError, match="genus"):
        cob_to_partition(generator("phi"))
    with pytest.raises(ValueError, match="closed"):
        cob_to_partition(Cobordism(0, 0, [((), 0)]))


def test_crosscheck_eps_eta():
    eps = PartitionDiagram.parse("1")
    eta = PartitionDiagram.parse("1'")
    assert partition_crosscheck(eps, eta)


def test_crosscheck_exhaustive_small():
    checked = 0
    for m, k, n in itertools.product(range(4), repeat=3):
        if m + k + n > 5:
            continue
        for g in all_diagrams(m, k):
            for f in all_diagrams(k, n):
                assert partition_crosscheck(f, g)
                checked += 1
    assert checked > 400


def test_glue_associativity_bounded():
    pool = {}
    for m in (1, 2):
        for n in (1, 2):
            entries = [
                partition_to_cob(d)
                for d in all_diagrams(m, n)
                if len(d.blocks) <= 2
            ][:3]
            entries.append(Cobordism(m, n, [(tuple(range(1, m + n + 1)), 1)]))
            pool[(m, n)] = entries
    for datum in (ST, FIB):
        for k1, k2, k3, k4 in itertools.product((1, 2), repeat=4):
            for a in pool[(k3, k4)]:
                for b in pool[(k2, k3)]:
                    for c in pool[(k1, k2)]:
                        la = LinMorphism.from_diagram(a, F)
                        lb = LinMorphism.from_diagram(b, F)
                        lc = LinMorphism.from_diagram(c, F)
                        left = cob_compose(cob_compose(la, lb, datum), lc, datum)
                        right = cob_compose(la, cob_compose(lb, lc, datum), datum)
                        assert left == right


def test_compose_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        glue_raw(generator("mu"), generator("eta"))


def reference_glue_raw(g: Cobordism, f: Cobordism) -> Cobordism:
    """g after f by union-find over component nodes (f's, then g's), the
    Euler characteristic summed over each merged group."""
    m, k = f.m, f.n
    parent = list(range(len(f.components) + len(g.components)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    f_owner = {
        p - m: i for i, (circles, _) in enumerate(f.components) for p in circles if p > m
    }
    for i, (circles, _) in enumerate(g.components):
        for p in circles:
            if p <= k:
                parent[find(len(f.components) + i)] = find(f_owner[p])
    groups = {}
    for i, comp in enumerate(f.components):
        groups.setdefault(find(i), []).append(("f", comp))
    for i, comp in enumerate(g.components):
        groups.setdefault(find(len(f.components) + i), []).append(("g", comp))
    out = []
    for members in groups.values():
        chi, free = 0, []
        for side, (circles, genus) in members:
            chi += 2 - 2 * genus - len(circles)
            if side == "f":
                free += [p for p in circles if p <= m]
            else:
                free += [m + p - k for p in circles if p > k]
        assert (len(free) + chi) % 2 == 0
        out.append((free, 1 - (len(free) + chi) // 2))
    return Cobordism(m, g.n, out)


def random_cobordism(rng, m, n):
    """Components over random groups of the m + n circles, with up to two
    closed components, every genus at most 3."""
    circles = list(range(1, m + n + 1))
    rng.shuffle(circles)
    comps = []
    while circles:
        size = rng.randint(1, len(circles))
        comps.append((circles[:size], rng.randint(0, 3)))
        circles = circles[size:]
    comps += [((), rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
    return Cobordism(m, n, comps)


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_glue_matches_the_union_find_reference(field):
    rng = random.Random(15)
    data = (st_datum(field), fibonacci_datum(field))
    for _ in range(300):
        m, k, n = rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 3)
        f, g = random_cobordism(rng, m, k), random_cobordism(rng, k, n)
        expected = reference_glue_raw(g, f)
        assert glue_raw(g, f) == expected
        for datum in data:
            assert glue(g, f, datum) == reduce_normal_form(expected, datum)
