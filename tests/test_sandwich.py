"""The one composition kernel of Karoubi hom spaces and split_solve:
karoubi._sandwich gives the slot vectors of L . unit(d) . R, and must
equal the slot vectors of the composites kar_compose builds, also where
it skips a repeated unit and gives t^s times an earlier vector, and its
columns over Q(t), evaluated at a rational t0, must be its columns at t0."""

import random
from fractions import Fraction

import pytest

from diagcat import karoubi
from diagcat.homspace import LinMorphism, ScaledColumn, hom_basis, parse_linmorphism
from diagcat.karoubi import (
    KarMorphism,
    KarObject,
    direct_sum,
    kar_compose,
    kar_hom,
    kar_object,
    kar_tensor,
    split_solve,
)
from diagcat.moebius import x_e
from diagcat.partition import DiagramClass
from diagcat.scalar import FieldSpec, PoleError, parse_field_element, specialize
from test_karoubi import _split_inputs
from test_specialization import at

FIELDS = (FieldSpec.generic(), FieldSpec.at(Fraction(5, 2)))
FIELD_IDS = ("generic", "t=5/2")
# coefficients with poles at t = 0 and t = 1 over Q(t), and plain ones
COEFFICIENTS = ("(1)/(t)", "(1)/(t-1)", "(t+2)/(t^2-t)", "(2t-1)", "-3/2", "1")
MATCHING = (DiagramClass.BLOCKS_SIZE_2, DiagramClass.NON_CROSSING_SIZE_2)


def words_of(cls):
    """Word lengths whose hom spaces are not all empty in cls."""
    return (0, 2) if cls in MATCHING else (1, 2)


def random_lin(rng, cls, field, m, n, zero=False):
    diagrams = hom_basis(cls, m, n).diagrams
    if zero or not diagrams:
        return LinMorphism.zero(m, n)
    chosen = rng.sample(diagrams, min(len(diagrams), rng.randint(1, 3)))
    return LinMorphism(
        m, n, {d: parse_field_element(rng.choice(COEFFICIENTS), field) for d in chosen}
    )


def random_morphism(rng, dom, cod):
    """Random entries between the words of dom and cod, entry (0, 0) zero;
    the cuts are not absorbed, which the kernel does not need."""
    entries = [
        [
            random_lin(rng, dom.cls, dom.field, w_dom, w_cod, zero=(i, j) == (0, 0))
            for j, w_dom in enumerate(dom.words)
        ]
        for i, w_cod in enumerate(cod.words)
    ]
    return karoubi._kar_morphism(dom, cod, tuple(map(tuple, entries)))


def plain_sum(rng, cls, field):
    a, b = (rng.choice(words_of(cls)) for _ in range(2))
    return direct_sum(KarObject.word(a, cls, field), KarObject.word(b, cls, field))


def all_units(dom, cod):
    return [
        ((i, j), d)
        for i, w_cod in enumerate(cod.words)
        for j, w_dom in enumerate(dom.words)
        for d in hom_basis(dom.cls, w_dom, w_cod)
    ]


def unit_morphism(dom, cod, unit):
    (i, j), d = unit
    entries = [
        [LinMorphism.zero(w_dom, w_cod) for w_dom in dom.words] for w_cod in cod.words
    ]
    entries[i][j] = LinMorphism.from_diagram(d, dom.field)
    return karoubi._kar_morphism(dom, cod, tuple(map(tuple, entries)))


def assert_kernel_matches_composites(left, right, u_dom, u_cod):
    """_sandwich(L, R) against the slot vector of L . (U . R) for every unit U
    of Hom(u_dom, u_cod), a ScaledColumn read as c times the earlier
    vector; returns how many units were compared."""
    units = all_units(u_dom, u_cod)
    out = kar_hom(right.dom, left.cod)
    got = list(karoubi._sandwich(
        left.entries, right.entries, units, out._slot_index, left.dom.field
    ))
    assert len(got) == len(units)
    for unit, vec in zip(units, got):
        if isinstance(vec, ScaledColumn):
            assert not isinstance(got[vec.k], ScaledColumn)
            vec = {pos: vec.c * v for pos, v in got[vec.k].items()}
        composite = kar_compose(left, kar_compose(unit_morphism(u_dom, u_cod, unit), right))
        assert vec == out.slot_vector(composite)
    return len(units)


def kernel_matches_on_direct_sums(cls, field):
    rng = random.Random(13)
    compared = 0
    for _ in range(3):
        a, b, c, d = (plain_sum(rng, cls, field) for _ in range(4))
        # L: B -> C and R: D -> A around the units of Hom(A, B)
        left, right = random_morphism(rng, b, c), random_morphism(rng, d, a)
        assert left.entries[0][0].is_zero()
        compared += assert_kernel_matches_composites(left, right, a, b)
    assert compared > 0


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("cls", list(DiagramClass), ids=lambda c: c.value)
def test_sandwich_equals_the_composites_on_direct_sums(cls, field):
    kernel_matches_on_direct_sums(cls, field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sandwich_equals_the_composites_on_x_tensor_f(field):
    rng = random.Random(17)
    x2 = kar_object(2, x_e(2, field), DiagramClass.ALL, field)
    for m, n in ((1, 1), (2, 1), (1, 0)):
        lin = random_lin(rng, DiagramClass.ALL, field, m, n)
        f = KarMorphism.from_lin(lin, DiagramClass.ALL, field)
        xf = kar_tensor(KarMorphism.identity(x2), f)
        # split_solve's use: f . U . f over the units of Hom(cod, dom)
        assert assert_kernel_matches_composites(xf, xf, xf.cod, xf.dom) > 0
        assert assert_kernel_matches_composites(xf, xf, xf.cod, xf.dom) > 0
        # KarHom's use: E_cod . U . E_dom over every slot diagram
        e_dom, e_cod = KarMorphism.identity(xf.dom), KarMorphism.identity(xf.cod)
        assert assert_kernel_matches_composites(e_cod, e_dom, xf.dom, xf.cod) > 0


@pytest.fixture
def kar_compose_calls(monkeypatch):
    calls = []
    original = karoubi.kar_compose

    def counted(g, f):
        calls.append(1)
        return original(g, f)

    monkeypatch.setattr(karoubi, "kar_compose", counted)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_split_solve_composes_a_fixed_number_of_times(field, kar_compose_calls):
    sizes = []
    for m, n in ((1, 0), (1, 1), (2, 1), (2, 2)):
        d = hom_basis(DiagramClass.ALL, m, n).diagrams[-1]
        f = KarMorphism.from_lin(LinMorphism.from_diagram(d, field), DiagramClass.ALL, field)
        karoubi._split_witness.cache_clear()
        kar_compose_calls.clear()
        assert split_solve(f) is not None
        # g . f and the re-verification f . (g . f), whatever the hom size
        assert len(kar_compose_calls) == 2
        sizes.append(len(kar_hom(f.cod, f.dom)))
    assert len(set(sizes)) == len(sizes)


def entries_at(entries, t0):
    """An entry matrix with every coefficient evaluated at t = t0; raises
    PoleError where one has a pole there."""
    return tuple(tuple(at(x, t0) for x in row) for row in entries)


def assert_columns_specialise(left, right, units, slot_index):
    """Every column of _sandwich(L, R) over Q(t), evaluated at each t0 of
    (5/2, -1, 7/3) where L and R have no pole, equals the column computed
    at t = t0; a ScaledColumn comes at the same position, of the same
    earlier column, with its c evaluated.  Returns how many columns were
    compared."""
    generic = list(karoubi._sandwich(left, right, units, slot_index, FIELDS[0]))
    compared = 0
    for t0 in (Fraction(5, 2), Fraction(-1), Fraction(7, 3)):
        try:
            left_at, right_at = entries_at(left, t0), entries_at(right, t0)
        except PoleError:
            continue
        special = list(karoubi._sandwich(left_at, right_at, units, slot_index, FieldSpec.at(t0)))
        assert len(special) == len(generic)
        for vec, vec_at in zip(generic, special):
            if isinstance(vec, ScaledColumn):
                assert isinstance(vec_at, ScaledColumn) and vec_at.k == vec.k
                assert vec_at.c == specialize(vec.c, t0)
            else:
                values = {pos: specialize(c, t0) for pos, c in vec.items()}
                assert vec_at == {pos: v for pos, v in values.items() if not v.is_zero()}
        compared += len(generic)
    return compared


@pytest.mark.parametrize("seed", [7, 8])
def test_sandwich_over_q_t_specialises_to_the_sandwich_at_t0(seed):
    """split_solve's use, f . U . f over the kept units of Hom(cod, dom),
    and KarHom's, E_cod . U . E_dom over every slot diagram, on the split
    inputs and on [2]@x_2.e_2 (x) g."""
    generic = FIELDS[0]
    x2 = kar_object(2, x_e(2, generic), DiagramClass.ALL, generic)
    g = parse_linmorphism("(1)/(t-1) * 1 | 2 | 1' + (t+2) * 1 2 | 1'", generic)
    xg = kar_tensor(
        KarMorphism.identity(x2), KarMorphism.from_lin(g, DiagramClass.ALL, generic)
    )
    compared = 0
    for f in _split_inputs(generic, random.Random(seed)) + [xg]:
        gh, fh = kar_hom(f.cod, f.dom), kar_hom(f.dom, f.cod)
        compared += assert_columns_specialise(
            f.entries, f.entries, gh.unit_slots, fh._slot_index
        )
        compared += assert_columns_specialise(
            f.cod.cut, f.dom.cut, fh._positions, fh._slot_index
        )
    assert compared > 0


def test_the_203_units_of_x3_e3_specialise_to_their_columns_at_t0():
    generic = FIELDS[0]
    x3 = kar_object(3, x_e(3, generic), DiagramClass.ALL, generic)
    hom = kar_hom(x3, x3)
    assert len(hom._positions) == 203
    assert assert_columns_specialise(x3.cut, x3.cut, hom._positions, hom._slot_index) > 0
