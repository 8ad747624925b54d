"""Generic and specialised fields agree: a computation over Q(t), evaluated
at a rational t0, equals the same computation over FieldSpec.at(t0)."""

import random
from fractions import Fraction

import pytest

from diagcat.homspace import LinMorphism, hom_basis
from diagcat.karoubi import KarMorphism, kar_compose, split_solve
from diagcat.moebius import moebius_x, moebius_x_prime, x_e
from diagcat.partition import DiagramClass
from diagcat.scalar import FieldElement, FieldSpec, Poly, parse_poly, specialize

GENERIC = FieldSpec.generic()
ALL = DiagramClass.ALL
T0S = (Fraction(5, 2), Fraction(-1, 3), Fraction(2), Fraction(-7, 4))


def random_poly(rng, max_len):
    return Poly(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, max_len)))


def vanishes_at(p: Poly, t0) -> bool:
    return specialize(FieldElement.ratfunc(p), t0).is_zero()


def random_scalar(rng):
    """p/q over Q(t) with no pole at any t0 of T0S."""
    while True:
        den = random_poly(rng, 3)
        if not den.is_zero() and not any(vanishes_at(den, t0) for t0 in T0S):
            return FieldElement.ratfunc(random_poly(rng, 3), den)


def random_lin(rng, m, n):
    diagrams = hom_basis(ALL, m, n).diagrams
    chosen = rng.sample(diagrams, min(len(diagrams), rng.randint(1, 3)))
    return LinMorphism(m, n, {d: random_scalar(rng) for d in chosen})


def at(lin, t0):
    """lin with every coefficient evaluated at t = t0."""
    return LinMorphism(lin.dom, lin.cod, {d: specialize(c, t0) for d, c in lin.terms.items()})


def compose(field, lins):
    f, g = lins
    return g.compose(f, field)


def tensor(field, lins):
    f, g = lins
    return f.tensor(g, field)


def moebius_after(field, lins):
    f, d = lins
    return moebius_x(d, field).compose(f, field)


def inputs(rng, name):
    a, b, c = (rng.randint(0, 2) for _ in range(3))
    if name == "moebius_after":
        return random_lin(rng, a, b), rng.choice(hom_basis(ALL, b, c).diagrams)
    if name == "compose":
        return random_lin(rng, a, b), random_lin(rng, b, c)
    return random_lin(rng, a, b), random_lin(rng, rng.randint(0, 1), c)


@pytest.mark.parametrize("op", [compose, tensor, moebius_after], ids=lambda f: f.__name__)
def test_generic_result_specialises_to_the_specialised_result(op):
    rng = random.Random(f"specialise/{op.__name__}")
    for _ in range(25):
        lins = inputs(rng, op.__name__)
        generic = op(GENERIC, lins)
        for t0 in T0S:
            field = FieldSpec.at(t0)
            specialised = tuple(at(x, t0) if isinstance(x, LinMorphism) else x for x in lins)
            assert at(generic, t0) == op(field, specialised)


@pytest.mark.parametrize("t0", [Fraction(5, 2), Fraction(-3, 2)], ids=["t=5/2", "t=-3/2"])
def test_memoised_constants_specialise_to_the_specialised_constants(t0):
    """x_j e_j, x and x' are memoised per field; the Q(t) entry, evaluated
    at t0, is the entry built at t0."""
    field = FieldSpec.at(t0)
    for j in range(4):
        assert at(x_e(j, GENERIC), t0) == x_e(j, field)
    for m in range(5):
        for n in range(5 - m):
            for f in hom_basis(ALL, m, n).diagrams:
                for build in (moebius_x, moebius_x_prime):
                    assert at(build(f, GENERIC), t0) == build(f, field)


def test_split_witness_specialises_away_from_its_denominators():
    rng = random.Random("specialise/split")
    checked = 0
    for _ in range(12):
        lin = random_lin(rng, rng.randint(0, 2), rng.randint(0, 2))
        f = KarMorphism.from_lin(lin, ALL, GENERIC)
        w = split_solve(f)
        assert w is not None
        (g,), = w.g.entries
        poles = [parse_poly(text) for text in w.denominators]
        for t0 in T0S:
            if any(vanishes_at(p, t0) for p in poles):
                continue
            field = FieldSpec.at(t0)
            f0 = KarMorphism.from_lin(at(lin, t0), ALL, field)
            g0 = KarMorphism.from_lin(at(g, t0), ALL, field)
            assert kar_compose(f0, kar_compose(g0, f0)) == f0
            checked += 1
    assert checked >= 40
