import itertools
import json
import random
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from diagcat import cli, fpfun, karoubi
from diagcat.fpfun import weak_kernel
from diagcat import partition
from diagcat.homspace import (
    ExactMatrix,
    LinMorphism,
    ScaledColumn,
    Subspace,
    hom_basis,
    matrix_of,
    parse_linmorphism,
)
from diagcat.karoubi import (
    KarHom,
    KarMorphism,
    KarObject,
    direct_sum,
    kar_compose,
    kar_hom,
    kar_object,
    kar_row,
    kar_tensor,
    split_solve,
    tensor_object,
)
from diagcat.moebius import special_morphisms, x_e
from diagcat.partition import DiagramClass, PartitionDiagram, all_diagrams
from diagcat.scalar import FieldSpec, parse_field_element

F = FieldSpec.generic()
ALL = DiagramClass.ALL


def word(w, cls=ALL):
    return KarObject.word(w, cls, F)


def lin(text, dom=None, cod=None):
    return parse_linmorphism(text, F, dom=dom, cod=cod)


def kar_direct_sum(f: KarMorphism, g: KarMorphism) -> KarMorphism:
    dom = direct_sum(f.dom, g.dom)
    cod = direct_sum(f.cod, g.cod)
    entries = [list(row) for row in KarMorphism.zero(dom, cod).entries]
    for i, row in enumerate(f.entries):
        for j, x in enumerate(row):
            entries[i][j] = x
    oi, oj = len(f.cod.words), len(f.dom.words)
    for i, row in enumerate(g.entries):
        for j, x in enumerate(row):
            entries[oi + i][oj + j] = x
    return karoubi._kar_morphism(dom, cod, tuple(map(tuple, entries)))


def kar_col(morphisms) -> KarMorphism:
    """[f1; f2; ...]: common domain → cod1 ⊕ cod2 ⊕ ..."""
    morphisms = list(morphisms)
    dom = morphisms[0].dom
    if any(m.dom != dom for m in morphisms):
        raise ValueError("column assembly needs a common domain")
    cod = morphisms[0].cod
    for m in morphisms[1:]:
        cod = direct_sum(cod, m.cod)
    entries = tuple(row for m in morphisms for row in m.entries)
    return karoubi._kar_morphism(dom, cod, entries)


def test_kar_object_word():
    obj = word(1)
    assert obj.words == (1,)
    assert obj.to_text() == "[1]@id"
    assert not obj.is_zero()
    assert KarObject.zero(ALL, F).is_zero()


def test_kar_object_key_includes_field():
    # Q(t) and Q coefficients print alike; the objects must still differ
    generic = KarObject.word(1, ALL, F)
    rational = KarObject.word(1, ALL, FieldSpec.at(0))
    assert generic != rational
    assert generic.key() != rational.key()
    assert generic == KarObject.word(1, ALL, F)
    # objects and morphisms of the two fields that print alike stay apart
    # in one set, and comparing them raises no FieldModeError
    objects, morphisms = [], []
    for field in (F, FieldSpec.at(Fraction(5, 2)), FieldSpec.at(0)):
        sym = parse_linmorphism("1/2 * 1 1' | 2 2' + 1/2 * 1 2' | 2 1'", field)
        cut = (KarObject.word(1, ALL, field), KarObject.word(2, ALL, field))
        objects += [*cut, kar_object(2, sym, ALL, field)]
        morphisms += [KarMorphism.identity(x) for x in objects[-3:]]
        morphisms.append(KarMorphism.from_lin(sym, ALL, field))
    assert len({x.to_text() for x in objects}) == 3
    assert len({x.to_text() for x in morphisms}) == 3
    assert len(set(objects)) == 9 and len(set(morphisms)) == 12
    assert len(set(objects + morphisms)) == 21
    for group in (objects, morphisms):
        assert [x == y for x in group for y in group] == [x is y for x in group for y in group]


def test_word_objects_are_shared():
    assert KarObject.word(2, ALL, F) is KarObject.word(2, ALL, F)
    at = FieldSpec.at(Fraction(5, 2))
    others = [
        KarObject.word(1, ALL, F),
        KarObject.word(2, DiagramClass.EVEN_BLOCKS, F),
        KarObject.word(2, ALL, at),
    ]
    assert all(other is not KarObject.word(2, ALL, F) for other in others)
    assert KarObject.word(2, ALL, at) is KarObject.word(2, ALL, FieldSpec.at(Fraction(5, 2)))


def identity_lin(w, field=F):
    return LinMorphism.from_diagram(PartitionDiagram.identity(w), field)


def test_equal_objects_reached_by_different_routes_are_one_instance():
    ident = identity_lin(1)
    one = word(1)
    assert kar_object(1, ident, ALL, F, name="id") is one
    assert kar_object(1, identity_lin(1), ALL, F, name="id") is one
    assert KarObject(ALL, F, [1], [[ident]], names=["id"]) is one
    unnamed = kar_object(1, ident, ALL, F)
    assert kar_object(1, lin("1 * 1 1'"), ALL, F) is unnamed
    x2 = kar_object(2, x_e(2, F), ALL, F, name="x_j*e_j")
    total = direct_sum(x2, one)
    assert direct_sum(x2, kar_object(1, identity_lin(1), ALL, F, name="id")) is total
    assert direct_sum(kar_object(2, x_e(2, F), ALL, F, name="x_j*e_j"), word(1)) is total
    assert KarObject(ALL, F, total.words, total.cut, names=total.names) is total
    assert tensor_object(one, x2) is tensor_object(word(1), x2)
    assert tensor_object(one, x2) is kar_tensor(
        KarMorphism.identity(one), KarMorphism.identity(x2)
    ).dom
    assert tensor_object(word(1), word(2)) is KarObject(ALL, F, (3,), word(3).cut)
    assert KarObject.zero(ALL, F) is KarObject(ALL, F, (), (), names=())
    eps = KarMorphism.from_lin(lin("1", dom=1, cod=0), ALL, F)
    k_obj, _ = weak_kernel(kar_row([eps, eps]), one, eps)
    again, _ = weak_kernel(kar_row([eps, eps]), word(1), eps)
    assert again is k_obj
    assert KarObject(ALL, F, k_obj.words, k_obj.cut) is k_obj


def test_a_second_equal_construction_checks_nothing(monkeypatch):
    e = special_morphisms("e_1_sprime", 1, F)
    first = kar_object(1, e, ALL, F, name="first sprime")
    calls = []
    compose = karoubi._mat_compose

    def counted(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(karoubi, "_mat_compose", counted)
    assert kar_object(1, special_morphisms("e_1_sprime", 1, F), ALL, F, name="first sprime") is first
    assert direct_sum(first, first) is direct_sum(first, first)
    assert tensor_object(first, first) is tensor_object(first, first)
    assert calls == []  # a sum or tensor is built unchecked
    assert KarObject(ALL, F, (1,), first.cut, names=["first sprime"]) is first
    assert calls == []


OBJECT_MEMOS = (
    karoubi._interned,
    karoubi._direct_sum,
    karoubi.tensor_object,
    KarObject.word,
    KarObject.zero,
)


@pytest.mark.parametrize("t", [None, Fraction(5, 2)], ids=["generic", "t=5/2"])
def test_derived_objects_match_their_checked_construction(t, monkeypatch):
    """Words, the zero object, and direct sums and tensors nested two deep
    of words, [2]@x_2e_2, [1]@e_1', the zero object and a weak kernel are
    built with no matrix product, and each has the key, plain and names
    that the checking constructor gives its words and cut."""
    field = F if t is None else FieldSpec.at(t)
    cls = DiagramClass.EVEN_MANY_ODD_BLOCKS
    for memo in OBJECT_MEMOS:
        memo.cache_clear()
    eps = KarMorphism.from_lin(parse_linmorphism("1 2", field, dom=2, cod=0), cls, field)
    checked = [
        kar_object(2, x_e(2, field), cls, field, name="x_2e_2"),
        kar_object(1, special_morphisms("e_1_sprime", 1, field), cls, field, name="e_1'"),
        weak_kernel(kar_row([eps, eps]), KarObject.word(2, cls, field), eps)[0],
    ]
    for memo in OBJECT_MEMOS:
        memo.cache_clear()
    calls = []
    compose = karoubi._mat_compose
    monkeypatch.setattr(karoubi, "_mat_compose", lambda *a: calls.append(a) or compose(*a))
    names = {}  # by id, as objects differing only in names are equal

    def build(op, a, b):
        obj = op(a, b)
        both = op is direct_sum and None not in (names[id(a)], names[id(b)])
        names[id(obj)] = names[id(a)] + names[id(b)] if both else None
        return obj

    leaves = [KarObject.word(w, cls, field) for w in range(4)]
    leaves += [KarObject.zero(cls, field)] + checked
    names.update((id(obj), obj.names) for obj in checked)
    names.update((id(obj), ("id",)) for obj in leaves[:4])
    names[id(leaves[4])] = ()
    rng = random.Random(32)
    ops = (direct_sum, tensor_object)
    level1 = [build(op, a, b) for op in ops for a in leaves for b in rng.sample(leaves, 3)]
    level2 = []
    while len(level2) < 24:
        a, b = rng.choice(level1), rng.choice(leaves + level1)
        op = rng.choice(ops)
        if op is direct_sum or sum(a.words) * sum(b.words) <= 16:
            level2.append(build(op, a, b) if rng.random() < 0.5 else build(op, b, a))
    assert calls == []
    monkeypatch.setattr(karoubi, "_mat_compose", compose)
    derived = leaves[:5] + level1 + level2
    assert {obj.plain for obj in derived} == {True, False}
    for obj in derived:
        for memo in OBJECT_MEMOS:
            memo.cache_clear()
        fresh = KarObject(cls, field, obj.words, obj.cut, names=names[id(obj)])
        assert fresh is not obj, obj
        assert (fresh.key(), fresh.plain, fresh.names) == (obj.key(), obj.plain, obj.names)


@pytest.mark.parametrize("t", [None, Fraction(5, 2)], ids=["generic", "t=5/2"])
def test_a_raw_non_idempotent_cut_raises_where_it_enters(t):
    """2 . id is no idempotent: alone, and as a block of a block-diagonal
    cut shaped like a direct sum of words."""
    field = F if t is None else FieldSpec.at(t)
    bad, ident = parse_linmorphism("2 * 1 1'", field), identity_lin(1, field)
    with pytest.raises(ValueError, match="not idempotent"):
        kar_object(1, bad, ALL, field, name="doubled")
    zero = LinMorphism.zero(1, 1)
    for cut in (((bad, zero), (zero, ident)), ((ident, zero), (zero, bad))):
        with pytest.raises(ValueError, match="not idempotent"):
            KarObject(ALL, field, (1, 1), cut)


def test_a_failed_construction_raises_every_time():
    bad = lin("2 * 1 1'")
    for _ in range(3):
        with pytest.raises(ValueError, match="residual"):
            kar_object(1, bad, ALL, F, name="twice")
    with pytest.raises(ValueError, match="shape"):
        KarObject(ALL, F, (1, 1), ((bad,), (bad,)))
    e1 = special_morphisms("e_1_sprime", 1, F)
    for _ in range(2):
        with pytest.raises(ValueError, match="class"):
            kar_object(1, e1, DiagramClass.EVEN_BLOCKS, F)
    good = kar_object(1, lin("1 1'"), ALL, F, name="twice")
    assert good.to_text() == "[1]@twice" and good.words == (1,)
    assert kar_object(1, e1, ALL, F).cut == ((e1,),)


def test_a_one_shot_cut_is_checked_like_a_tuple():
    """A cut, or its rows, given as generators is checked as its tuple is:
    1 * 1 | 1' squares to t times itself over Q(t), and its multiple by
    1/t is idempotent.  A name no other test uses makes each instance new."""
    bad, good = lin("1 * 1 | 1'"), lin("(1)/(t) * 1 | 1'")

    def one_shot(e):
        return (row for row in ((e,),)), ((x for x in (e,)),)

    for cut in (((bad,),), *one_shot(bad)):
        with pytest.raises(ValueError, match="not idempotent"):
            KarObject(ALL, F, (1,), cut, names=("one-shot",))
    for cut in one_shot(good):
        obj = KarObject(ALL, F, (1,), cut, names=("one-shot",))
        assert obj.cut == ((good,),) == obj.key()[3]


def test_names_stay_with_their_instance():
    ident = identity_lin(1)
    named, unnamed = word(1), kar_object(1, ident, ALL, F)
    assert named == unnamed and hash(named) == hash(unnamed)
    assert named is not unnamed
    assert named.to_text() == "[1]@id"
    assert unnamed.to_text() == "[1]@1 * 1 1'"
    assert direct_sum(named, named).to_text() == "[1]@id ⊕ [1]@id"
    # equal inputs with other names: the memoised sum must not answer
    assert direct_sum(unnamed, unnamed).to_text() == "[1]@1 * 1 1' ⊕ [1]@1 * 1 1'"
    assert direct_sum(named, unnamed).to_text() == "[1]@1 * 1 1' ⊕ [1]@1 * 1 1'"
    assert direct_sum(named, named) == direct_sum(unnamed, named)


def test_the_generic_and_the_t_zero_object_stay_distinct():
    at_zero = FieldSpec.at(0)
    generic = kar_object(1, identity_lin(1), ALL, F)
    special = kar_object(1, identity_lin(1, at_zero), ALL, at_zero)
    assert generic.to_text() == special.to_text()
    assert generic is not special and generic != special
    assert special.field == at_zero
    assert tensor_object(generic, generic) != tensor_object(special, special)
    assert direct_sum(generic, generic).field == F
    assert direct_sum(special, special).field == at_zero


def test_equal_kar_morphisms_hash_equal():
    # the same morphism built twice, with its terms in the other order
    f = KarMorphism.from_lin(lin("1 * 1 1' + (1)/(t) * 1 | 1'"), ALL, F)
    g = KarMorphism.from_lin(lin("(1)/(t) * 1 | 1' + 1 * 1 1'"), ALL, F)
    assert f == g and hash(f) == hash(g)
    assert len({f, g, f.scale(F.rational(2))}) == 2
    # Q(t) and Q coefficients print alike; the morphisms must still differ
    at_zero = FieldSpec.at(0)
    h = KarMorphism.from_lin(parse_linmorphism("1 * 1 1'", at_zero), ALL, at_zero)
    ident = KarMorphism.from_lin(lin("1 * 1 1'"), ALL, F)
    assert h != ident


def test_kar_object_x2():
    x2e2 = x_e(2, F)
    obj = kar_object(2, x2e2, DiagramClass.EVEN_BLOCKS, F, name="x_j*e_j")
    assert obj.words == (2,) and obj.cut == ((x2e2,),)
    assert obj.to_text() == "[2]@x_j*e_j"


def test_kar_object_x1_sprime():
    e1 = special_morphisms("e_1_sprime", 1, F)
    obj = kar_object(1, e1, DiagramClass.EVEN_MANY_ODD_BLOCKS, F, name="e_1_sprime")
    assert obj.words == (1,) and obj.cut == ((e1,),)


def test_kar_object_rejects_non_idempotent():
    bad = lin("2 * 1 1'")
    with pytest.raises(ValueError, match="residual"):
        kar_object(1, bad, ALL, F)


def test_kar_object_rejects_wrong_class():
    e1 = special_morphisms("e_1_sprime", 1, F)  # idempotent, odd blocks
    with pytest.raises(ValueError, match="class"):
        kar_object(1, e1, DiagramClass.EVEN_BLOCKS, F)


def test_direct_sum_and_tensor_objects():
    a, b = word(1), word(2)
    s = direct_sum(a, b)
    assert s.words == (1, 2)
    assert s.is_block_diagonal()
    t = tensor_object(a, b)
    assert t.words == (3,)
    assert t.cut[0][0] == LinMorphism.from_diagram(PartitionDiagram.identity(3), F)


def test_tensor_object_is_the_domain_of_the_tensor_of_identities():
    x1 = kar_object(1, special_morphisms("e_1_sprime", 1, F), ALL, F)
    x2 = kar_object(2, x_e(2, F), ALL, F)
    sums = [direct_sum(word(1), x1), direct_sum(x2, word(0)), direct_sum(x1, x1)]
    for a, b in itertools.product(sums, repeat=2):
        t = tensor_object(a, b)
        ident = kar_tensor(KarMorphism.identity(a), KarMorphism.identity(b))
        assert t == ident.dom == ident.cod
        assert ident == KarMorphism.identity(t)
        # the Kronecker order: b's indices vary fastest
        nb = len(b.words)
        for (ia, ja), (ib, jb) in itertools.product(
            itertools.product(range(len(a.words)), repeat=2),
            itertools.product(range(nb), repeat=2),
        ):
            assert t.cut[ia * nb + ib][ja * nb + jb] == a.cut[ia][ja].tensor(
                b.cut[ib][jb], F
            )


def test_identity_morphism_is_cut():
    e1 = special_morphisms("e_1_sprime", 1, F)
    obj = kar_object(1, e1, ALL, F)
    ident = KarMorphism.identity(obj)
    assert ident.entries[0][0] == e1
    assert kar_compose(ident, ident) == ident


def test_morphism_absorption_validation():
    e1 = special_morphisms("e_1_sprime", 1, F)
    obj = kar_object(1, e1, ALL, F)
    raw_id = lin("1 * 1 1'")
    with pytest.raises(ValueError, match="absorb"):
        KarMorphism(obj, obj, ((raw_id,),))
    # a map out of or into the zero object has no entry to absorb
    zero = KarObject.zero(ALL, F)
    assert KarMorphism(zero, obj, ((),)) == KarMorphism.zero(zero, obj)
    assert KarMorphism(obj, zero, ()) == KarMorphism.zero(obj, zero)


def test_from_lin_and_compose():
    eps = KarMorphism.from_lin(lin("1 * 1"), ALL, F)
    eta = KarMorphism.from_lin(lin("1 * 1'"), ALL, F)
    circle = kar_compose(eps, eta)
    assert circle.entries[0][0] == lin("t * <empty>", dom=0, cod=0)
    ident = KarMorphism.identity(word(1))
    assert kar_compose(eps, ident) == eps


def test_p_assembly_row():
    # (p_j x_j e_j)_j : X_0 + X_1 + X_2 -> [0] as a 1 x 3 matrix
    parts = []
    for j in range(3):
        xj = kar_object(j, x_e(j, F), ALL, F)
        pj = special_morphisms("p_j", j, F)
        entry = pj.compose(x_e(j, F), F)
        parts.append(KarMorphism(xj, word(0), ((entry,),)))
    p = kar_row(parts)
    assert p.dom.words == (0, 1, 2)
    assert p.cod.words == (0,)
    assert len(p.entries) == 1 and len(p.entries[0]) == 3


def test_col_and_direct_sum_morphisms():
    f = KarMorphism.from_lin(lin("1 * 1"), ALL, F)
    g = KarMorphism.from_lin(lin("1 * 1 1'"), ALL, F)
    col = kar_col([f, g])
    assert col.cod.words == (0, 1)
    ds = kar_direct_sum(f, g)
    assert ds.dom.words == (1, 1)
    assert ds.entries[0][1].is_zero() and ds.entries[1][0].is_zero()


def test_tensor_morphisms_unit():
    f = KarMorphism.from_lin(lin("1 * 1 1' + 1 * 1 | 1'"), ALL, F)
    zero = KarMorphism.zero(word(1), word(1))
    fz = kar_direct_sum(f, zero)
    unit = KarMorphism.identity(word(0))
    assert kar_tensor(fz, unit).entries[0][0] == f.entries[0][0]
    one_strand = KarMorphism.identity(word(1))
    ft = kar_tensor(f, one_strand)
    assert ft.dom.words == (2,)
    assert ft.entries[0][0] == f.entries[0][0].tensor(
        lin("1 * 1 1'"), F
    )


def test_kar_hom_dimensions():
    # Hom([1],[1]) in class All has the 2-diagram basis
    h = KarHom(word(1), word(1))
    assert len(h) == 2
    # cutting by e_1_sprime on both sides compresses to 1
    e1 = special_morphisms("e_1_sprime", 1, F)
    x1 = kar_object(1, e1, ALL, F)
    hc = KarHom(x1, x1)
    assert len(hc) == 1
    coords = hc.coordinates_of(KarMorphism.identity(x1))
    assert coords is not None
    assert hc.from_coordinates(coords) == KarMorphism.identity(x1)


def test_kar_hom_rejects_alien():
    h = KarHom(word(1), word(1))
    e1 = special_morphisms("e_1_sprime", 1, F)
    x1 = kar_object(1, e1, ALL, F)
    with pytest.raises(ValueError, match="hom space"):
        h.coordinates_of(KarMorphism.identity(x1))


def test_split_eps_by_scaled_eta():
    eps = KarMorphism.from_lin(lin("1 * 1"), ALL, F)
    w = split_solve(eps)
    assert w is not None
    assert w.g.entries[0][0] == lin("(1)/(t) * 1'")
    assert kar_compose(eps, kar_compose(w.g, eps)) == eps
    assert kar_compose(w.gf, w.gf) == w.gf
    assert kar_compose(w.fg, w.fg) == w.fg
    # kernel idempotent kills f
    assert kar_compose(eps, w.kernel_idempotent).is_zero()
    assert w.denominators == ("t",)


def test_split_at_a_rational_t_builds_no_fraction(monkeypatch):
    """Once its input exists, split_solve of an x_2.e_2-cut morphism at
    t = 5/2, hom spaces included, computes on ints alone."""
    at = FieldSpec.at(Fraction(5, 2))
    e = x_e(2, at)
    obj = kar_object(2, e, ALL, at, name="x_j*e_j")
    d = parse_linmorphism("1 * 1 1' | 2 2' + -1/2 * 1 2 | 1' 2' + 3 * 1 2' | 2 | 1'", at)
    f = KarMorphism(obj, obj, ((e.compose(d, at).compose(e, at),),))
    kar_hom.cache_clear()
    built, new = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
    w = split_solve(f)
    monkeypatch.undo()
    assert w is not None and built == []
    assert w.g.entries[0][0].terms  # a nonzero witness, computed


def test_split_zero_morphism():
    z = KarMorphism.zero(word(1), word(2))
    w = split_solve(z)
    assert w is not None
    assert w.g.is_zero()
    assert w.kernel_idempotent == KarMorphism.identity(word(1))
    assert w.denominators == ()


def test_split_identity():
    ident = KarMorphism.identity(word(2))
    w = split_solve(ident)
    assert w is not None
    assert kar_compose(ident, kar_compose(w.g, ident)) == ident


@pytest.fixture
def built(monkeypatch):
    """Empties the hom-space and witness memos and records each KarHom
    construction."""
    kar_hom.cache_clear()
    karoubi._split_witness.cache_clear()
    pairs = []
    original = KarHom.__init__

    def counted(self, dom, cod):
        pairs.append((dom, cod))
        original(self, dom, cod)

    monkeypatch.setattr(KarHom, "__init__", counted)
    return pairs


def test_split_endomorphism_builds_one_hom_space(built):
    assert split_solve(KarMorphism.identity(word(2))) is not None
    assert len(built) == 1
    built.clear()
    assert split_solve(KarMorphism.from_lin(lin("1 * 1"), ALL, F)) is not None
    assert len(built) == 2


def test_kar_hom_is_built_once_per_object_pair(built):
    assert split_solve(KarMorphism.from_lin(lin("1 * 1"), ALL, F)) is not None
    assert len(built) == 2
    built.clear()
    # freshly built objects with equal keys share the memoised hom spaces
    assert split_solve(KarMorphism.from_lin(lin("1 * 1"), ALL, F)) is not None
    assert built == []
    at_five_halves = KarObject.word(1, ALL, FieldSpec.at(Fraction(5, 2)))
    generic = kar_hom(word(1), word(1))
    assert generic is kar_hom(word(1), word(1))
    assert generic is not kar_hom(at_five_halves, at_five_halves)
    assert len(built) == 2


def _split_inputs(field, rng):
    """Random morphisms on the four kinds of cut that split_solve meets."""

    def combination(hom):
        f = KarMorphism.zero(hom.dom, hom.cod)
        for elem in rng.sample(hom.elements, min(3, len(hom.elements))):
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            f = f + elem.scale(field.rational(c))
        return f

    one = KarObject.word(1, ALL, field)
    x2 = kar_object(2, x_e(2, field), ALL, field)
    sprime = kar_object(1, special_morphisms("e_1_sprime", 1, field), ALL, field)
    eps = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram.parse("1"), field), ALL, field
    )
    # two copies of eps give a kernel object with a full 2 x 2 cut
    k_obj, _ = weak_kernel(kar_row([eps, eps]), one, eps)
    assert not k_obj.is_block_diagonal()
    return [
        combination(kar_hom(x2, x2)),
        combination(kar_hom(KarObject.word(2, ALL, field), sprime)),
        kar_tensor(KarMorphism.identity(x2), combination(kar_hom(one, one))),
        kar_tensor(KarMorphism.identity(x2), eps),
        combination(kar_hom(k_obj, k_obj)),
    ]


def bare_units(hom):
    """The bare unit(d) of each element of hom, as morphisms."""
    units = []
    for (i, j), d in hom.unit_slots:
        entries = [[LinMorphism.zero(w_dom, w_cod) for w_dom in hom.dom.words]
                   for w_cod in hom.cod.words]
        entries[i][j] = LinMorphism.from_diagram(d, hom.field)
        units.append(karoubi._kar_morphism(hom.dom, hom.cod, tuple(map(tuple, entries))))
    return units


@pytest.mark.parametrize("t", [None, Fraction(5, 2)], ids=["generic", "t=5/2"])
def test_split_matrix_over_bare_units_equals_cut_units(t):
    # f absorbs its cuts, so f.(E.U.E).f = f.U.f column by column
    field = F if t is None else FieldSpec.at(t)
    for f in _split_inputs(field, random.Random(7)):
        gh, fh = kar_hom(f.cod, f.dom), kar_hom(f.dom, f.cod)

        def fgf(g):
            return kar_compose(f, kar_compose(g, f))

        over_units = matrix_of(fgf, bare_units(gh), fh, field)
        assert over_units.columns == matrix_of(fgf, gh.elements, fh, field).columns


def _cut_unit(hom, i, j, unit):
    """E_cod . unit . E_dom with unit in slot (i, j), entry by entry."""
    entries = []
    for r in range(len(hom.cod.words)):
        row = []
        for c in range(len(hom.dom.words)):
            left = hom.cod.cut[r][i]
            right = hom.dom.cut[j][c]
            if left.is_zero() or right.is_zero():
                row.append(LinMorphism.zero(hom.dom.words[c], hom.cod.words[r]))
            else:
                row.append(left.compose(unit, hom.field).compose(right, hom.field))
        entries.append(tuple(row))
    return karoubi._kar_morphism(hom.dom, hom.cod, tuple(entries))


@pytest.mark.parametrize("t", [None, Fraction(5, 2)], ids=["generic", "t=5/2"])
def test_kar_hom_elements_are_the_entrywise_cut_units(t):
    field = F if t is None else FieldSpec.at(t)
    for f in _split_inputs(field, random.Random(7)):
        for dom, cod in ((f.dom, f.cod), (f.cod, f.dom)):
            hom = kar_hom(dom, cod)
            space = Subspace(field)
            kept = []
            for i, w_cod in enumerate(cod.words):
                for j, w_dom in enumerate(dom.words):
                    for d in hom_basis(ALL, w_dom, w_cod):
                        cut = _cut_unit(hom, i, j, LinMorphism.from_diagram(d, field))
                        if space.add(hom.slot_vector(cut)):
                            kept.append(cut)
            assert tuple(kept) == hom.elements
            assert [x.to_text() for x in kept] == [x.to_text() for x in hom.elements]


def _compressed_witness(f):
    """g solved over fh's compressed basis, the coordinates split_solve
    used before it took slot coordinates; None if no g exists."""
    gh, fh = kar_hom(f.cod, f.dom), kar_hom(f.dom, f.cod)
    matrix = matrix_of(
        lambda g: kar_compose(f, kar_compose(g, f)), bare_units(gh), fh, gh.field
    )
    coords = matrix.solve(fh.coordinates_of(f))
    return None if coords is None else gh.from_coordinates(coords)


@pytest.mark.parametrize("t", [None, Fraction(5, 2)], ids=["generic", "t=5/2"])
@pytest.mark.parametrize("seed", [7, 8])
def test_split_in_slot_coordinates_equals_compressed_solve(t, seed):
    field = F if t is None else FieldSpec.at(t)
    for f in _split_inputs(field, random.Random(seed)):
        w = split_solve(f)
        expected = _compressed_witness(f)
        assert w is not None and expected is not None
        assert w.g == expected
        assert w.g.to_text() == expected.to_text()


def test_split_in_slot_coordinates_fails_where_compressed_solve_fails():
    at_zero = FieldSpec.at(Fraction(0))
    eps = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram.parse("1"), at_zero), ALL, at_zero
    )
    assert _compressed_witness(eps) is None
    assert split_solve(eps) is None


def test_split_refuses_a_morphism_that_does_not_absorb_its_cuts():
    e1 = special_morphisms("e_1_sprime", 1, F)
    x1 = kar_object(1, e1, ALL, F)
    bare = karoubi._kar_morphism(x1, x1, ((lin("1 * 1 1'"),),))
    with pytest.raises(ValueError, match="morphism escapes its own hom space"):
        split_solve(bare)


@pytest.fixture
def fresh_witnesses():
    """Empties the witness memo before the test, so that every split is
    solved, and after it, so that no witness planted here outlives it."""
    karoubi._split_witness.cache_clear()
    yield
    karoubi._split_witness.cache_clear()


@pytest.mark.parametrize("t", [None, Fraction(5, 2)], ids=["generic", "t=5/2"])
def test_split_refuses_a_wrong_solution(t, monkeypatch, fresh_witnesses):
    # f.g.f = f is checked again, however far the solve drew its columns
    field = F if t is None else FieldSpec.at(t)
    inputs = _split_inputs(field, random.Random(7))
    solve = ExactMatrix.solve

    def doubled(self, b):
        x = solve(self, b)
        return {k: c + c for k, c in x.items()}

    monkeypatch.setattr(ExactMatrix, "solve", doubled)
    for f in inputs:
        with pytest.raises(AssertionError, match="split solver produced an invalid witness"):
            split_solve(f)


@pytest.mark.parametrize("text", ["1 | 1'", "1 2' | 2 | 1'"])
def test_split_draws_only_the_sandwich_columns_it_needs(text, monkeypatch):
    """The solution of a basis diagram uses an early pivot, so split_solve
    draws fewer f.U.f vectors than Hom(cod, dom) has units; the hom spaces
    of its word objects are plain and draw none, while a hom space of a
    cut object still draws all of its candidates, none of them skipped: a
    cut with an identity term gives no two units the same composites."""
    sandwich = karoubi._sandwich
    calls = []

    def counted(left, right, units, slot_index, field):
        drawn = []
        calls.append((len(units), drawn))
        for vec in sandwich(left, right, units, slot_index, field):
            drawn.append(vec)
            yield vec

    monkeypatch.setattr(karoubi, "_sandwich", counted)
    kar_hom.cache_clear()
    karoubi._split_witness.cache_clear()
    f = KarMorphism.from_lin(lin(f"1 * {text}"), ALL, F)
    assert split_solve(f) is not None
    (units, drawn), = calls
    assert units == len(kar_hom(f.cod, f.dom).unit_slots)
    assert 0 < len(drawn) < units
    calls.clear()
    x2 = kar_object(2, x_e(2, F), ALL, F)
    kar_hom(x2, word(1))
    kar_hom(word(2), x2)
    assert len(calls) == 2
    assert all(len(vectors) == count for count, vectors in calls)
    assert all(isinstance(vec, dict) for _, vectors in calls for vec in vectors)


def test_generic_semisimplicity_sweep():
    # every single-diagram morphism with m+n <= 4 splits over generic t
    for m, n in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]:
        for d in all_diagrams(m, n):
            f = KarMorphism.from_lin(LinMorphism.from_diagram(d, F), ALL, F)
            w = split_solve(f)
            assert w is not None, d.to_text()
            assert kar_compose(f, kar_compose(w.g, f)) == f


def test_split_can_fail_at_special_t():
    # at t = 0 the counit is not split: eps g eps = (scalar) eps with
    # scalar = 0 for every g
    F0 = FieldSpec.at(Fraction(0))
    eps = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram.parse("1"), F0), ALL, F0
    )
    assert split_solve(eps) is None


def test_split_witness_sum_morphism():
    f = KarMorphism.from_lin(lin("1 * 1 1' + -1 * 1 | 1'"), ALL, F)
    w = split_solve(f)
    assert w is not None
    assert kar_compose(f, kar_compose(w.g, f)) == f
    gf = w.gf
    assert kar_compose(gf, gf) == gf


def test_absorption_invariant_random_constructions():
    e1 = special_morphisms("e_1_sprime", 1, F)
    x1 = kar_object(1, e1, ALL, F)
    h = KarHom(word(2), x1)
    field = F
    for elem in h.elements:
        lhs = kar_compose(
            KarMorphism.identity(x1), kar_compose(elem, KarMorphism.identity(word(2)))
        )
        assert lhs == elem
    for a, b in itertools.product(h.elements, repeat=2):
        s = a + b.scale(field.rational(Fraction(3, 2)))
        assert kar_compose(KarMorphism.identity(x1), s) == s


# f of a split_combo (2, 2) over Q(t) whose witness has g.f.g != g
PINNED = "(5t+1) * 1 | 2 | 1' | 2' + -1 * 1 | 2 1' | 2' + 1 * 1 2' | 2 | 1'"


@pytest.mark.parametrize("t", [None, Fraction(5, 2)], ids=["generic", "t=5/2"])
def test_split_witness_properties(t):
    """What split_solve verifies, f.g.f = f, and what follows from it: g.f
    and f.g are idempotents and id - g.f is killed by f.  g.f.g = g is not
    among them: it fails for the pinned f."""
    field = F if t is None else FieldSpec.at(t)
    inputs = _split_inputs(field, random.Random(7))
    if t is None:
        pinned = KarMorphism.from_lin(lin(PINNED), ALL, F)
        w = split_solve(pinned)
        assert kar_compose(w.g, kar_compose(pinned, w.g)) != w.g
        inputs.append(pinned)
    for f in inputs:
        w = split_solve(f)
        gf, fg = w.gf, w.fg
        assert kar_compose(f, kar_compose(w.g, f)) == f
        assert gf == kar_compose(w.g, f) and kar_compose(gf, gf) == gf
        assert kar_compose(fg, fg) == fg
        assert w.kernel_idempotent == KarMorphism.identity(f.dom) - gf
        assert kar_compose(f, w.kernel_idempotent).is_zero()


def _repeat_inputs(field, rng):
    """Morphisms whose splits meet repeated units, built at any t."""

    def combination(hom):
        f = KarMorphism.zero(hom.dom, hom.cod)
        for elem in rng.sample(hom.elements, min(3, len(hom.elements))):
            c = Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3))
            f = f + elem.scale(field.rational(c))
        return f

    def basis(text):
        return KarMorphism.from_lin(parse_linmorphism(f"1 * {text}", field), ALL, field)

    one = KarObject.word(1, ALL, field)
    x2 = kar_object(2, x_e(2, field), ALL, field)
    return [
        basis("1 | 1'"),
        basis("1 | 2 | 1' | 2'"),
        basis("1 2' | 2 | 1'"),
        combination(kar_hom(x2, x2)),
        kar_tensor(KarMorphism.identity(x2), combination(kar_hom(one, one))),
    ]


def _full_witness(f):
    """g solved over the f.U.f slot vector of every unit, each composed in
    full as morphisms, none skipped."""
    gh, fh = kar_hom(f.cod, f.dom), kar_hom(f.dom, f.cod)
    columns = [fh.slot_vector(kar_compose(f, kar_compose(u, f))) for u in bare_units(gh)]
    coords = ExactMatrix(fh.slots, columns, gh.field).solve(fh.slot_vector(f))
    return None if coords is None else gh.from_coordinates(coords)


@pytest.mark.parametrize("t", [None, Fraction(5, 2), Fraction(0)], ids=["generic", "t=5/2", "t=0"])
def test_skipping_repeated_units_keeps_the_witness(t, monkeypatch):
    field = F if t is None else FieldSpec.at(t)
    inputs = _repeat_inputs(field, random.Random(3))
    if t != 0:  # e_1' and the kernel of two copies of eps need t != 0
        inputs += _split_inputs(field, random.Random(8))
    if t is None:
        inputs.append(KarMorphism.from_lin(lin(PINNED), ALL, F))
    sandwich = karoubi._sandwich
    skipped = []

    def counted(*args, **kwargs):
        for vec in sandwich(*args, **kwargs):
            skipped.append(isinstance(vec, ScaledColumn))
            yield vec

    monkeypatch.setattr(karoubi, "_sandwich", counted)
    for f in inputs:
        w = split_solve(f)
        for expected in (_full_witness(f), _compressed_witness(f)):
            assert (w is None) == (expected is None)
            if w is not None:
                assert w.g == expected and w.g.to_text() == expected.to_text()
    assert any(skipped)


def test_a_loop_shifted_repeat_is_skipped_only_where_t_is_invertible():
    """For f = 1 | 1' the two units of Hom([1], [1]) give f after them with
    one loop apart: the second is t^(+-1) times the first over Q(t) and at
    t = 5/2, and is composed in full at t = 0.  For f = 1 | 2 | 1' | 2' the
    identity and the swap give the very same composites, skipped at t = 0
    too."""

    def columns(text, field):
        f = KarMorphism.from_lin(parse_linmorphism(f"1 * {text}", field), ALL, field)
        units = [((0, 0), d) for d in hom_basis(ALL, f.cod.words[0], f.dom.words[0])]
        fh = kar_hom(f.dom, f.cod)
        # each f.U.f composed in full, as morphisms
        every = [
            fh.slot_vector(kar_compose(f, kar_compose(
                KarMorphism.from_lin(LinMorphism.from_diagram(d, field), ALL, field), f
            )))
            for _, d in units
        ]
        skipping = list(karoubi._sandwich(f.entries, f.entries, units, fh._slot_index, field))
        for vec, full in zip(skipping, every):
            if isinstance(vec, ScaledColumn):
                assert full == {pos: vec.c * v for pos, v in every[vec.k].items()}
            else:
                assert vec == full
        return [(vec.k, vec.c) for vec in skipping if isinstance(vec, ScaledColumn)]

    for field in (F, FieldSpec.at(Fraction(5, 2))):
        (k, c), = columns("1 | 1'", field)
        assert k == 0 and c in (field.t(), field.t().inv())
    at_zero = FieldSpec.at(0)
    assert columns("1 | 1'", at_zero) == []
    exact = columns("1 | 2 | 1' | 2'", at_zero)
    assert exact and all(c == at_zero.one() for _, c in exact)


def test_a_skipped_unit_is_not_composed(monkeypatch, fresh_witnesses):
    """Over Q(t), for X (x) g with X = [2]@x_2.e_2: a skipped unit d meets
    partition.compose only as d after the terms of f, never f's terms after
    those."""
    x2 = kar_object(2, x_e(2, F), ALL, F)
    g = KarMorphism.from_lin(lin("(1)/(t-1) * 1 | 2 | 1' + (t+2) * 1 2 | 1'"), ALL, F)
    f = kar_tensor(KarMorphism.identity(x2), g)
    gh = kar_hom(f.cod, f.dom)
    kar_hom(f.dom, f.cod)
    log = []
    compose, sandwich = partition.compose, karoubi._sandwich

    def composed(a, b):
        log.append(("compose", a))
        return compose(a, b)

    def drawn(*args, **kwargs):
        for vec in sandwich(*args, **kwargs):
            log.append(("column", vec))
            yield vec

    monkeypatch.setattr(partition, "compose", composed)
    monkeypatch.setattr(karoubi, "_sandwich", drawn)
    assert split_solve(f) is not None
    # what each drawn column composed, in order
    ends = [n for n, (kind, _) in enumerate(log) if kind == "column"]
    segments = [log[start + 1:end] for start, end in zip([-1] + ends, ends)]
    columns = [log[end][1] for end in ends]
    skipped = [n for n, vec in enumerate(columns) if isinstance(vec, ScaledColumn)]
    assert skipped and len(columns) - len(skipped) > 1
    for n in skipped:
        _, d = gh.unit_slots[n]
        composed_after = [a for kind, a in segments[n] if kind == "compose"]
        assert composed_after and all(a is d for a in composed_after)


FIELDS = [F, FieldSpec.at(Fraction(5, 2))]


def random_class_lin(rng, cls, field):
    """A combination of one to three basis diagrams of some Hom([m], [n])
    of the class, m, n <= 3, with coefficients a + b.t."""
    shapes = [(m, n) for m in range(4) for n in range(4) if hom_basis(cls, m, n).diagrams]
    m, n = rng.choice(shapes)
    diagrams = hom_basis(cls, m, n).diagrams
    terms = {}
    for d in rng.sample(diagrams, min(len(diagrams), rng.randint(1, 3))):
        a = field.rational(Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)))
        terms[d] = a + field.rational(rng.randint(0, 2)) * field.t()
    return LinMorphism(m, n, terms)


def counted_calls(monkeypatch, *names):
    """Replace each named karoubi function by a wrapper that counts its
    calls; returns the counts by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(karoubi, name)

        def wrapper(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(karoubi, name, wrapper)
    return counts


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "t=5/2"])
@pytest.mark.parametrize("cls", list(DiagramClass), ids=lambda c: c.value)
def test_from_lin_equals_the_checked_construction_and_checks_no_absorption(
    cls, field, monkeypatch
):
    rng = random.Random(20)
    for _ in range(8):
        g = random_class_lin(rng, cls, field)
        dom, cod = KarObject.word(g.dom, cls, field), KarObject.word(g.cod, cls, field)
        checked = KarMorphism(dom, cod, ((g,),))
        with monkeypatch.context() as patch:
            counts = counted_calls(patch, "_mat_compose", "_entry_shapes_ok")
            wrapped = KarMorphism.from_lin(g, cls, field)
        assert counts == {"_mat_compose": 0, "_entry_shapes_ok": 0}
        assert wrapped == checked and hash(wrapped) == hash(checked)
        assert wrapped.dom is dom and wrapped.cod is cod


def test_derived_morphisms_run_no_check(monkeypatch):
    x2 = kar_object(2, x_e(2, F), ALL, F, name="x_j*e_j")
    f = KarMorphism.from_lin(lin("1 * 1 | 2 1' + (t) * 1 2 1'"), ALL, F)
    ident = KarMorphism.identity(x2)
    # build the objects and the hom space first, so that only morphisms
    # are built below
    kar_tensor(ident, f)
    kar_row([f, f])
    kar_hom(x2, x2)
    builds = []
    monkeypatch.setattr(KarMorphism, "__init__", lambda *args: builds.append(args))
    counts = counted_calls(monkeypatch, "_mat_compose", "_entry_shapes_ok")
    derived = [
        KarMorphism.zero(f.dom, f.cod),
        KarMorphism.identity(x2),
        f + f,
        f - f,
        f.scale(F.t()),
        kar_tensor(ident, f),
        kar_row([f, f]),
        *kar_hom(x2, x2).elements,
        kar_hom(x2, x2).from_coordinates({0: F.t()}),
    ]
    assert builds == [] and counts == {"_mat_compose": 0, "_entry_shapes_ok": 0}
    assert all(type(m) is KarMorphism for m in derived)
    assert kar_compose(ident, ident) == ident
    assert builds == [] and counts == {"_mat_compose": 1, "_entry_shapes_ok": 0}


def test_raw_entries_are_refused_at_entry():
    even = DiagramClass.EVEN_BLOCKS
    with pytest.raises(ValueError, match="shape"):
        KarMorphism(word(1), word(1), ((lin("1 1'"), lin("1 1'")),))
    with pytest.raises(ValueError, match="shape"):
        KarMorphism(word(1), word(2), ((lin("1 1'"),),))
    outside = lin("1 | 1'")
    message = "entry term 1 | 1' is not in class even-blocks"
    with pytest.raises(ValueError, match=message):
        KarMorphism(word(1, even), word(1, even), ((outside,),))
    with pytest.raises(ValueError, match=message):
        KarMorphism.from_lin(outside, even, F)
    x1 = kar_object(1, special_morphisms("e_1_sprime", 1, F), ALL, F)
    with pytest.raises(ValueError, match="absorb"):
        KarMorphism(x1, x1, ((lin("1 * 1 1'"),),))
    assert KarMorphism(x1, x1, x1.cut) == KarMorphism.identity(x1)


def _scalable_inputs(field, rng):
    """Seeded morphisms of the four kinds the benchmark splits: basis
    diagrams, combinations of two or three of them, x_2.e_2-cut morphisms
    (the cut itself, a cut diagram, a combination of two and zero) and
    X (x) f with X = [1] or [2]@x_2.e_2."""

    def combination(m, n, terms):
        diagrams = hom_basis(ALL, m, n).diagrams
        return LinMorphism(m, n, {
            d: field.rational(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
            + field.rational(rng.randint(0, 1)) * field.t()
            for d in rng.sample(diagrams, min(terms, len(diagrams)))
        })

    def diagram(m, n):
        return LinMorphism.from_diagram(rng.choice(hom_basis(ALL, m, n).diagrams), field)

    e = x_e(2, field)
    x2 = kar_object(2, e, ALL, field, name="x_j*e_j")
    cuts = [
        KarMorphism(x2, x2, ((e.compose(LinMorphism.from_diagram(d, field), field).compose(e, field),),))
        for d in hom_basis(ALL, 2, 2).diagrams
    ]
    a, b = rng.sample([m for m in cuts if not m.is_zero()], 2)
    q = field.rational(Fraction(rng.choice([-3, -1, 2]), rng.randint(1, 3)))

    def tensor(x, g):
        return kar_tensor(KarMorphism.identity(x), KarMorphism.from_lin(g, ALL, field))

    return [
        *(KarMorphism.from_lin(diagram(m, n), ALL, field) for m, n in ((1, 0), (1, 1), (2, 1))),
        *(KarMorphism.from_lin(combination(m, n, k), ALL, field)
          for m, n, k in ((1, 1, 2), (2, 1, 3), (2, 2, 3))),
        KarMorphism.identity(x2),
        a,
        a + b.scale(q),
        KarMorphism.zero(x2, x2),
        tensor(KarObject.word(1, ALL, field), combination(1, 1, 2)),
        tensor(x2, diagram(1, 0)),
    ]


def _scalars(field):
    out = [field.rational(Fraction(-2)), field.rational(Fraction(3, 5))]
    if field.t_value is None:
        out += [parse_field_element("(t+1)/(t-2)", field), field.t()]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "t=5/2"])
def test_a_split_of_c_f_is_the_split_of_f_over_c(field, fresh_witnesses):
    """g(c.f) = c^-1.g(f) and g(c.f).(c.f) = g(f).f, as text, where g(c.f)
    comes from split_solve, which solves some multiple of c.f once, and
    from the solve of c.f itself; f.g.f = f holds for c.f."""
    solve = karoubi._split_witness.__wrapped__
    for f in _scalable_inputs(field, random.Random(25)):
        karoubi._split_witness.cache_clear()
        w = split_solve(f)
        assert w is not None
        for c in _scalars(field):
            cf = f.scale(c)
            karoubi._split_witness.cache_clear()
            wc = split_solve(cf)
            g, gf = solve(cf)
            assert wc.g.to_text() == w.g.scale(c.inv()).to_text() == g.to_text()
            assert wc.gf == w.gf == gf and wc.gf.to_text() == w.gf.to_text()
            assert kar_compose(cf, kar_compose(wc.g, cf)) == cf


def test_no_split_is_remembered_as_none(fresh_witnesses):
    at_zero = FieldSpec.at(Fraction(0))
    eps = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram.parse("1"), at_zero), ALL, at_zero
    )
    for f in (eps, eps, eps.scale(at_zero.rational(Fraction(-3, 4)))):
        assert split_solve(f) is None
    info = karoubi._split_witness.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


def test_a_morphism_that_escapes_its_hom_space_raises_every_time(fresh_witnesses):
    e1 = special_morphisms("e_1_sprime", 1, F)
    x1 = kar_object(1, e1, ALL, F)
    bare = karoubi._kar_morphism(x1, x1, ((lin("1 * 1 1'"),),))
    for _ in range(2):
        with pytest.raises(ValueError, match="morphism escapes its own hom space"):
            split_solve(bare)
    assert karoubi._split_witness.cache_info().currsize == 0


def test_a_wrong_witness_is_refused_when_solved_and_when_remembered(
    monkeypatch, fresh_witnesses
):
    f = KarMorphism.from_lin(lin("1 * 1 2' | 2 | 1' + (t) * 1 | 2 1' 2'"), ALL, F)
    solve = ExactMatrix.solve

    def doubled(self, b):
        return {k: c + c for k, c in solve(self, b).items()}

    with monkeypatch.context() as patch:
        patch.setattr(ExactMatrix, "solve", doubled)
        with pytest.raises(AssertionError, match="split solver produced an invalid witness"):
            split_solve(f)
    # the wrong witness is remembered, and checked again on every call
    for again in (f, f.scale(F.t())):
        with pytest.raises(AssertionError, match="split solver produced an invalid witness"):
            split_solve(again)
    assert karoubi._split_witness.cache_info().misses == 1


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "t=5/2"])
def test_a_remembered_split_solves_nothing_and_composes_once(
    field, monkeypatch, fresh_witnesses
):
    for f in _scalable_inputs(field, random.Random(26)):
        assert split_solve(f) is not None
        solved = karoubi._split_witness.cache_info().misses
        with monkeypatch.context() as patch:
            solves = []
            solve = ExactMatrix.solve
            patch.setattr(ExactMatrix, "solve", lambda self, b: solves.append(b) or solve(self, b))
            counts = counted_calls(patch, "kar_compose")
            for c in (field.one(), *_scalars(field)):
                counts["kar_compose"] = 0
                assert split_solve(f.scale(c)) is not None
                assert solves == [] and counts == {"kar_compose": 1}
        assert karoubi._split_witness.cache_info().misses == solved


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "t=5/2"])
def test_a_hom_space_combination_equals_the_checked_build_of_its_entries(field):
    """from_coordinates builds its entries unchecked; each equals the
    checked LinMorphism of the same combination of the elements' entries
    and keeps no zero, also where slot coefficients cancel."""
    rng = random.Random(2702)
    scalars = [field.zero(), field.one(), -field.one(), *_scalars(field)]
    words = [KarObject.word(w, ALL, field) for w in range(3)]
    x2 = kar_object(2, x_e(2, field), ALL, field)
    pairs = [(words[1], words[1]), (x2, x2), (words[2], x2), (x2, direct_sum(words[0], words[2]))]
    for dom, cod in pairs:
        space = kar_hom(dom, cod)
        for _ in range(10):
            coords = {k: rng.choice(scalars) for k in range(len(space))}
            combo = space.from_coordinates(coords)
            for i, w_cod in enumerate(cod.words):
                for j, w_dom in enumerate(dom.words):
                    terms = {}
                    for k, c in coords.items():
                        for d, v in space.elements[k].entries[i][j].terms.items():
                            terms[d] = terms[d] + c * v if d in terms else c * v
                    entry = combo.entries[i][j]
                    assert entry == LinMorphism(w_dom, w_cod, terms)
                    assert not any(v.is_zero() for v in entry.terms.values())


def idempotent_trace(dom: KarObject, cod: KarObject):
    """The trace of X -> F.X.E on the slot matrices from dom's words to
    cod's, E and F the cuts of dom and cod: the sum, over every slot (i, j)
    and basis diagram d, of the coefficient of d in entry (i, j) of
    F . unit(d) . E, each product a plain _mat_compose."""
    field = dom.field
    trace = field.zero()
    for i, w_cod in enumerate(cod.words):
        for j, w_dom in enumerate(dom.words):
            for d in hom_basis(dom.cls, w_dom, w_cod):
                unit = [[LinMorphism.zero(a, b) for a in dom.words] for b in cod.words]
                unit[i][j] = LinMorphism.from_diagram(d, field)
                unit = tuple(map(tuple, unit))
                image = karoubi._mat_compose(
                    cod.cut, karoubi._mat_compose(unit, dom.cut, field), field
                )
                trace = trace + image[i][j].terms.get(d, field.zero())
    return trace


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "t=5/2"])
def test_every_hom_space_has_the_dimension_of_its_idempotent_trace(field):
    """X -> F.X.E is idempotent with image Hom(A, B), and in characteristic
    0 the rank of an idempotent is its trace, so len(kar_hom(A, B)) is the
    trace, computed here without the kernel that builds the space."""
    words = [KarObject.word(w, ALL, field) for w in range(3)]
    x2 = kar_object(2, x_e(2, field), ALL, field)
    x3 = kar_object(3, x_e(3, field), ALL, field)
    objects = [*words, x2, tensor_object(x2, words[1])]
    pairs = [(a, b) for a in objects for b in objects]
    pairs += [(x3, words[2]), (words[1], x3), (x3, x3)]
    for dom, cod in pairs:
        assert idempotent_trace(dom, cod) == field.rational(len(kar_hom(dom, cod)))


def test_every_pinned_report_builds_hom_spaces_of_their_trace_dimension(monkeypatch, capsys):
    """Every KarHom that the 60 pinned CLI reports build, from memos cleared
    of hom spaces and of what is built from them, has the dimension of its
    idempotent trace: over Q(t) and five rational t, the largest a space of
    203 slots between two cut objects on [3]."""
    for memo in (kar_hom, karoubi._split_witness, fpfun._certify,
                 fpfun.fp_hom_space, fpfun.split_epi_section):
        memo.cache_clear()
    spaces = []
    init = KarHom.__init__

    def recorded(self, dom, cod):
        init(self, dom, cod)
        spaces.append(self)

    monkeypatch.setattr(KarHom, "__init__", recorded)
    reports = json.loads((Path(__file__).parent / "check_reports.json").read_text())
    for case in reports:
        assert cli.main(shlex.split(case["argv"])) == case["exit"]
    capsys.readouterr()
    assert {space.field for space in spaces} == {
        F, *(FieldSpec.at(Fraction(t)) for t in ("5/2", "5", "-1", "1/2", "7/3"))
    }
    assert max(space.slots for space in spaces) == 203
    assert {space.space is None for space in spaces} == {True, False}  # plain and cut pairs
    for space in spaces:
        trace = idempotent_trace(space.dom, space.cod)
        assert trace == space.field.rational(len(space)), (space.dom, space.cod)


def plain_objects(field):
    """Plain objects of every kind: words [0]..[3], [1]⊕[2], [1]⊗[1], the
    zero object and the even-blocks words [0]..[2]."""
    words = [KarObject.word(w, ALL, field) for w in range(4)]
    even = [KarObject.word(w, DiagramClass.EVEN_BLOCKS, field) for w in range(3)]
    return [
        *words,
        direct_sum(words[1], words[2]),
        tensor_object(words[1], words[1]),
        KarObject.zero(ALL, field),
    ], even


def general_hom(dom, cod, monkeypatch):
    """Hom(dom, cod) built the general way, through _sandwich and a
    Subspace, as if neither object were plain."""
    with monkeypatch.context() as patch:
        patch.setattr(KarObject, "plain", False)
        return KarHom(dom, cod)


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "t=5/2"])
def test_a_plain_hom_space_equals_the_general_construction(field, monkeypatch):
    """Between identity cuts every unit is kept in position order, with
    unit vectors: the plain hom space has the general one's basis, unit
    slots, coordinates (values and key order) and combinations."""
    rng = random.Random(30)
    objects, even = plain_objects(field)
    assert all(obj.plain for obj in objects + even)
    pairs = [(a, b) for a in objects for b in objects]
    pairs += [(a, b) for a in even for b in even]
    for dom, cod in pairs:
        plain, general = kar_hom(dom, cod), general_hom(dom, cod, monkeypatch)
        assert plain.space is None and general.space is not None
        assert len(plain) == len(general) == plain.slots
        assert plain.unit_slots == general.unit_slots
        assert plain.elements == general.elements
        assert [x.to_text() for x in plain.elements] == [x.to_text() for x in general.elements]
        for _ in range(3):
            chosen = rng.sample(range(len(plain)), min(len(plain), rng.randint(1, 4)))
            coords = {
                k: field.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                + field.rational(rng.randint(0, 2)) * field.t()
                for k in chosen
            }
            m = general.from_coordinates(coords)
            assert plain.from_coordinates(coords) == m
            assert plain.from_coordinates(coords).to_text() == m.to_text()
            expected = general.coordinates_of(m)
            assert list(plain.coordinates_of(m).items()) == list(expected.items())
            assert expected == {k: c for k, c in sorted(coords.items()) if not c.is_zero()}
            assert plain.from_coordinates(plain.coordinates_of(m)) == m


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "t=5/2"])
def test_a_pair_with_a_cut_object_takes_the_general_path(field):
    w2 = KarObject.word(2, ALL, field)
    x2 = kar_object(2, x_e(2, field), ALL, field)
    assert w2.plain and not x2.plain
    for dom, cod in ((w2, x2), (x2, w2), (x2, x2)):
        assert kar_hom(dom, cod).space is not None
    assert kar_hom(w2, w2).space is None


def test_a_plain_hom_space_composes_and_eliminates_nothing(monkeypatch):
    objects, _ = plain_objects(F)
    dom, cod = objects[4], objects[5]  # [1]⊕[2] and [1]⊗[1]
    x2 = kar_object(2, x_e(2, F), ALL, F)
    with monkeypatch.context() as patch:
        counts = counted_calls(patch, "_sandwich", "Subspace")
        hom = KarHom(dom, cod)
        m = hom.from_coordinates({k: F.rational(k + 1) for k in range(len(hom))})
        assert hom.coordinates_of(m) == {k: F.rational(k + 1) for k in range(len(hom))}
        assert [hom.coordinates_of(x) for x in hom.elements] == [
            {k: F.one()} for k in range(len(hom))
        ]
    assert counts == {"_sandwich": 0, "Subspace": 0}
    with monkeypatch.context() as patch:
        counts = counted_calls(patch, "_sandwich", "Subspace")
        KarHom(x2, objects[2])
    assert counts == {"_sandwich": 1, "Subspace": 1}
