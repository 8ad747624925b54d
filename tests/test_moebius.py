from fractions import Fraction

import pytest

from diagcat import moebius
from diagcat.homspace import LinMorphism
from diagcat.moebius import (
    active_blocks,
    moebius_x,
    moebius_x_prime,
    special_morphisms,
    symmetrizer,
    x_e,
    x_j,
)
from diagcat.partition import PartitionDiagram, all_diagrams
from diagcat.scalar import FieldSpec
from test_partition import coarsenings

F = FieldSpec.generic()


def D(text):
    return PartitionDiagram.parse(text)


def lin(text, dom=None, cod=None):
    from diagcat.homspace import parse_linmorphism

    return parse_linmorphism(text, F, dom=dom, cod=cod)


def test_x_on_single_block_is_identity():
    f = D("1 1'")
    assert moebius_x(f, F) == lin("1 * 1 1'")


def test_x_of_id2():
    got = moebius_x(PartitionDiagram.identity(2), F)
    assert got == lin("1 * 1 1' | 2 2' + -1 * 1 2 1' 2'")


def test_x_of_id3_frozen():
    got = moebius_x(PartitionDiagram.identity(3), F)
    want = lin(
        "1 * 1 1' | 2 2' | 3 3'"
        " + -1 * 1 2 1' 2' | 3 3'"
        " + -1 * 1 3 1' 3' | 2 2'"
        " + -1 * 1 1' | 2 3 2' 3'"
        " + 2 * 1 2 3 1' 2' 3'"
    )
    assert got == want


@pytest.mark.parametrize("m, n", [(m, n) for m in range(6) for n in range(6 - m)])
def test_x_inverts_coarsening_sum(m, n):
    # the defining triangular relation: f equals the sum of x over all
    # coarsenings of f (f included)
    for f in all_diagrams(m, n):
        total = None
        for g in coarsenings(f):
            xg = moebius_x(g, F)
            total = xg if total is None else total + xg
        assert total == LinMorphism.from_diagram(f, F)


def test_x_and_x_prime_share_one_memo():
    f = D("1 | 2 | 3")  # every block is active, so x' merges what x merges
    moebius_x(f, F)
    before = moebius._moebius.cache_info()
    assert moebius_x(f, F) == moebius_x_prime(f, F)
    after = moebius._moebius.cache_info()
    assert after.hits == before.hits + 2
    assert after.misses == before.misses


FIELDS = (F, FieldSpec.at(Fraction(5, 2)), FieldSpec.at(Fraction(0)))


def test_one_memoised_instance_per_field():
    f = D("1 2' | 2 | 1'")
    for build, arg in ((x_e, 2), (x_e, 3), (moebius_x, f), (moebius_x_prime, f)):
        first = [build(arg, field) for field in FIELDS]
        assert len({id(x) for x in first}) == len(FIELDS)
        again = [build(arg, FieldSpec(field.t_value)) for field in FIELDS]
        assert all(a is b for a, b in zip(first, again))


def test_a_second_x_e_composes_nothing(monkeypatch):
    field = FieldSpec.at(Fraction(-3, 2))
    moebius.x_e.cache_clear()
    calls = []
    compose = LinMorphism.compose
    monkeypatch.setattr(
        LinMorphism, "compose", lambda self, *args: calls.append(1) or compose(self, *args)
    )
    first = x_e(3, field)
    assert calls == [1]
    assert x_e(3, field) is first
    assert calls == [1]


def test_x_coefficients_are_integers():
    for f in all_diagrams(2, 2):
        for c in moebius_x(f, F).terms.values():
            assert c.den.is_one() and c.num.degree() <= 0
            assert Fraction(*c.num._at(0, 1)).denominator == 1


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_a_closed_form_keeps_one_scalar_per_moebius_number(field):
    x = moebius_x(PartitionDiagram.singletons(2, 3), field)  # Bell(5) = 52 terms
    coefficients = list(x.terms.values())
    assert len(coefficients) == 52
    assert len({id(c) for c in coefficients}) == len({c.to_text() for c in coefficients}) == 6


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_every_closed_form_shares_one_scalar_per_moebius_number(field):
    coefficients = [
        c
        for m in range(4)
        for n in range(5 - m)
        for f in all_diagrams(m, n)
        for x in (moebius_x(f, field), moebius_x_prime(f, field))
        for c in x.terms.values()
    ]
    assert len({id(c) for c in coefficients}) == len({c.to_text() for c in coefficients})


def test_active_blocks():
    f = D("1 1' | 2")
    assert [f.blocks[i] for i in active_blocks(f)] == [(1, 3)]
    g = D("1 2 | 3")  # no lower points: odd blocks are active
    assert [g.blocks[i] for i in active_blocks(g)] == [(3,)]
    h = D("1 | 2 | 3")
    assert active_blocks(h) == [0, 1, 2]


def test_x_prime_examples():
    assert moebius_x_prime(D("1"), F) == lin("1 * 1")
    assert moebius_x_prime(D("1 2"), F) == lin("1 * 1 2")
    assert moebius_x_prime(D("1 | 2"), F) == lin("1 * 1 | 2 + -1 * 1 2")


def test_x_prime_three_singletons_frozen():
    got = moebius_x_prime(D("1 | 2 | 3"), F)
    want = lin(
        "1 * 1 | 2 | 3 + -1 * 1 | 2 3 + -1 * 1 2 | 3 + -1 * 1 3 | 2 + 2 * 1 2 3"
    )
    assert got == want


def test_x_prime_ignores_inactive_blocks():
    # with a lower point present, upper-only blocks are never merged
    f = D("1 2 | 3 1'")
    assert moebius_x_prime(f, F) == lin("1 * 1 2 | 3 1'")
    g = D("1 | 2 1'")
    assert moebius_x_prime(g, F) == lin("1 * 1 | 2 1'")


def test_x_prime_two_lower_blocks():
    f = D("1 1' | 2 2'")
    assert moebius_x_prime(f, F) == lin("1 * 1 1' | 2 2' + -1 * 1 2 1' 2'")


def test_symmetrizer_e2():
    got = symmetrizer(2, F)
    assert got == lin("1/2 * 1 1' | 2 2' + 1/2 * 1 2' | 2 1'")


def test_idempotents():
    for j in (1, 2, 3):
        for mk in (x_j, symmetrizer, x_e):
            a = mk(j, F)
            assert a.compose(a, F) == a
        assert x_j(j, F).compose(symmetrizer(j, F), F) == symmetrizer(
            j, F
        ).compose(x_j(j, F), F)


def test_p_j():
    p2 = special_morphisms("p_j", 2, F)
    assert p2 == lin("1 * 1 | 2")
    assert (p2.dom, p2.cod) == (2, 0)


def test_e1_sprime_idempotent_and_projects():
    e1 = special_morphisms("e_1_sprime", 1, F)
    assert e1 == lin("(1)/(t) * 1 | 1'")
    assert e1.compose(e1, F) == e1
    p1 = special_morphisms("p_j", 1, F)
    assert p1.compose(e1, F) == p1


def test_e1_sprime_requires_nonzero_t():
    with pytest.raises(ZeroDivisionError, match="requires t != 0"):
        special_morphisms("e_1_sprime", 1, FieldSpec.at(Fraction(0)))
    # fine at a nonzero specialization
    e1 = special_morphisms("e_1_sprime", 1, FieldSpec.at(Fraction(5)))
    assert e1.compose(e1, FieldSpec.at(Fraction(5))) == e1


def test_special_morphisms_unknown_name():
    with pytest.raises(ValueError):
        special_morphisms("q_j", 1, F)
