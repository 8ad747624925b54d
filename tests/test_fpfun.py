import random
from fractions import Fraction
from functools import lru_cache

import pytest

import diagcat.fpfun as fpfun
import diagcat.karoubi as karoubi
from diagcat.fpfun import (
    FpHomSpace,
    FpMorphism,
    fp_cokernel,
    fp_compose,
    fp_covanishing_reps,
    fp_embed,
    fp_factors_through,
    fp_hom,
    fp_identity,
    fp_is_zero_morphism,
    fp_is_zero_object,
    fp_kernel,
    fp_object,
    fp_vanishing_dimension,
    fp_zero_morphism,
    unit_presentation_split_epi,
    weak_kernel,
    weak_kernel_exact_at,
    yoneda,
)
from diagcat.homspace import LinMorphism, hom_basis, parse_linmorphism
from diagcat.karoubi import (
    KarHom,
    KarMorphism,
    KarObject,
    direct_sum,
    kar_compose,
    kar_object,
)
from diagcat.moebius import special_morphisms
from diagcat.partition import DiagramClass, PartitionDiagram
from diagcat.scalar import FieldElement, FieldSpec, parse_field_element

F = FieldSpec.generic()
CLS = DiagramClass.ALL


def word(m):
    return KarObject.word(m, CLS, F)


def unit_presentation_trivial(cls: DiagramClass, field: FieldSpec):
    return yoneda(KarObject.word(0, cls, field), certify_bound=0)


def eps_kar():
    return KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram(1, 0, [(1,)]), F), CLS, F
    )


@lru_cache(maxsize=None)
def eps_square():
    return FpMorphism(
        yoneda(word(1)),
        yoneda(word(0)),
        eps_kar(),
        KarMorphism.zero(KarObject.zero(CLS, F), KarObject.zero(CLS, F)),
    )


@lru_cache(maxsize=None)
def eps_kernel():
    phi = eps_square()
    return fp_kernel(phi, word(1), eps_kar())


@lru_cache(maxsize=None)
def iso_kernel():
    """The kernel of the identity of yoneda([1]), the zero object."""
    return fp_kernel(fp_identity(yoneda(word(1))), word(1), eps_kar())


def eta_cokernel_space():
    """FpHomSpace(yoneda([1]), coker(eta: [0] -> [1]))."""
    eta = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram(0, 1, [(1,)]), F), CLS, F
    )
    m, n = yoneda(word(0)), yoneda(word(1))
    ck = fp_cokernel(FpMorphism(m, n, eta, KarMorphism.zero(m.Q, n.Q)))
    return FpHomSpace(yoneda(word(1)), ck)


def test_yoneda_full_faithfulness_dims():
    for a in range(3):
        for b in range(3):
            dims = len(fp_hom(yoneda(word(a)), yoneda(word(b))))
            assert dims == len(KarHom(word(a), word(b)))


def test_certificates_recorded():
    m = yoneda(word(2))
    assert m.certificate["bound"] == 1
    assert m.certificate["instances"] > 0
    assert m.to_text().startswith("coker(")


@pytest.fixture
def split_calls(monkeypatch):
    """Empties the certificate, section, hom-space and witness memos and
    records each fpfun.split_solve call."""
    fpfun._certify.cache_clear()
    fpfun.split_epi_section.cache_clear()
    fpfun.fp_hom_space.cache_clear()
    karoubi._split_witness.cache_clear()
    calls = []
    original = fpfun.split_solve

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(fpfun, "split_solve", counted)
    return calls


def test_certificate_computed_once_per_object(split_calls):
    first = yoneda(word(1))
    assert len(split_calls) == 3
    second = yoneda(word(1))
    assert len(split_calls) == 3
    assert first.certificate == second.certificate == {"bound": 1, "instances": 3}


def test_certificate_memo_keeps_fields_apart(split_calls):
    yoneda(word(1))
    at = FieldSpec.at(Fraction(5, 2))
    m = yoneda(KarObject.word(1, CLS, at))
    assert len(split_calls) == 6
    assert m.certificate == {"bound": 1, "instances": 3}


def test_failed_certification_is_not_memoised(monkeypatch):
    fpfun._certify.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(fpfun, "split_solve", lambda f: None)
        for _ in range(2):
            with pytest.raises(ValueError, match="not a splitting object"):
                yoneda(word(1))
    assert yoneda(word(1)).certificate == {"bound": 1, "instances": 3}


def test_kernel_certifies_each_object_once(split_calls):
    phi = eps_square()
    split_calls.clear()
    first, _ = fp_kernel(phi, word(1), eps_kar())
    # two certificates at bound 0, eps split once for both weak kernels,
    # and one S (x) theta split per weak kernel
    assert len(split_calls) == 5
    assert split_calls.count(eps_kar()) == 1
    split_calls.clear()
    second, _ = fp_kernel(phi, word(1), eps_kar())
    assert len(split_calls) == 2
    assert split_calls.count(eps_kar()) == 0
    assert first.certificate == second.certificate


@pytest.fixture
def fp_built(monkeypatch):
    """Empties the presented hom-space memo and records each FpHomSpace build."""
    fpfun.fp_hom_space.cache_clear()
    pairs = []
    original = FpHomSpace.__init__

    def counted(self, src, dst):
        pairs.append((src, dst))
        original(self, src, dst)

    monkeypatch.setattr(FpHomSpace, "__init__", counted)
    return pairs


def test_repeated_presentation_pair_builds_one_hom_space(fp_built):
    first = fp_hom(yoneda(word(1)), yoneda(word(2)))
    assert len(fp_built) == 1
    # freshly built presentations with equal keys share the memoised space
    assert fp_hom(yoneda(word(1)), yoneda(word(2))) is first
    assert fp_is_zero_morphism(fp_zero_morphism(yoneda(word(1)), yoneda(word(2))))
    assert len(fp_built) == 1


def test_presented_hom_spaces_keep_fields_apart(fp_built):
    at = FieldSpec.at(Fraction(5, 2))
    generic = fpfun.fp_hom_space(yoneda(word(1)), yoneda(word(1)))
    special = fpfun.fp_hom_space(
        yoneda(KarObject.word(1, CLS, at)), yoneda(KarObject.word(1, CLS, at))
    )
    assert generic is not special
    assert generic.field == F and special.field == at
    assert len(fp_built) == 2


def test_a_repeated_lookup_renders_no_coefficient_text(monkeypatch):
    """A KarMorphism is keyed by its value: looking the same presentations
    or an equal eps up again, even a new instance of it, renders no
    coefficient as text."""
    src, dst, eps = yoneda(word(1)), yoneda(word(2)), eps_kar()
    space = fpfun.fp_hom_space(src, dst)
    section = fpfun.split_epi_section(eps)
    rendered = []
    original = FieldElement.to_text
    monkeypatch.setattr(FieldElement, "to_text", lambda c: rendered.append(c) or original(c))
    assert fpfun.fp_hom_space(src, dst) is space
    assert fpfun.split_epi_section(eps) is section
    assert fpfun.split_epi_section(eps_kar()) is section
    assert rendered == []


def test_unit_presentations():
    triv = unit_presentation_trivial(CLS, F)
    assert triv.Q.is_zero()
    split = unit_presentation_split_epi(F)
    assert split.P.words == (1,)
    # presents the unit: same hom dimensions as the trivial presentation
    for m in range(3):
        probe = yoneda(word(m))
        assert len(fp_hom(split, probe)) == len(fp_hom(triv, probe))
    with pytest.raises(ZeroDivisionError, match="requires t != 0"):
        unit_presentation_split_epi(FieldSpec.at(Fraction(0)))


def test_embed_full_faithfulness_and_unit_case():
    unit = unit_presentation_split_epi(F)
    for a in range(2):
        for b in range(2):
            dims = len(fp_hom(fp_embed(word(a), unit), fp_embed(word(b), unit)))
            assert dims == len(KarHom(word(a), word(b)))
    again = fp_embed(word(0), unit)
    assert again.rho == unit.rho


def test_identity_presentation_is_zero():
    pres = fp_object(KarMorphism.identity(word(1)))
    assert fp_is_zero_object(pres)
    assert fp_hom(pres, yoneda(word(1))) == []


def test_square_must_commute():
    pres = fp_object(KarMorphism.identity(word(1)))
    with pytest.raises(ValueError, match="commute"):
        FpMorphism(
            pres,
            pres,
            KarMorphism.identity(word(1)),
            KarMorphism.zero(word(1), word(1)),
        )


def test_compose_shape_mismatch():
    m, n = yoneda(word(1)), yoneda(word(0))
    z = fp_zero_morphism(m, n)
    with pytest.raises(ValueError, match="mismatch"):
        fp_compose(z, z)


def test_cokernel_of_identity_vanishes():
    m = yoneda(word(1))
    assert fp_is_zero_object(fp_cokernel(fp_identity(m)))


def test_cokernel_of_zero_is_target():
    m, n = yoneda(word(1)), yoneda(word(2))
    ck = fp_cokernel(fp_zero_morphism(m, n))
    for k in range(3):
        probe = yoneda(word(k))
        assert len(fp_hom(ck, probe)) == len(fp_hom(n, probe))


def test_cokernel_of_split_epi_vanishes():
    ck = fp_cokernel(eps_square())
    assert fp_is_zero_object(ck)


def test_cokernel_universal_property():
    # Hom(coker(phi), T) = {h in Hom(N, T) : h.phi = 0}
    eta = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram(0, 1, [(1,)]), F), CLS, F
    )
    m, n = yoneda(word(0)), yoneda(word(1))
    phi = FpMorphism(m, n, eta, KarMorphism.zero(m.Q, n.Q))
    ck = fp_cokernel(phi)
    for k in range(3):
        probe = yoneda(word(k))
        assert len(fp_hom(ck, probe)) == fp_vanishing_dimension(phi, probe)


def test_kernel_of_eps_is_standard_cut():
    kernel, _ = eps_kernel()
    eta = LinMorphism.from_diagram(PartitionDiagram(0, 1, [(1,)]), F)
    eps = LinMorphism.from_diagram(PartitionDiagram(1, 0, [(1,)]), F)
    cut = LinMorphism.from_diagram(
        PartitionDiagram.identity(1), F
    ) - eta.compose(eps, F).scale(F.one() / F.t())
    expected = yoneda(kar_object(1, cut, CLS, F, name="std"))
    for k in range(3):
        probe = yoneda(word(k))
        assert len(fp_hom(probe, kernel)) == len(fp_hom(probe, expected))


def test_kernel_universal_property_samples():
    phi = eps_square()
    _, incl = eps_kernel()
    found = 0
    for k in range(3):
        probe = yoneda(word(k))
        for h in fp_covanishing_reps(phi, probe):
            assert fp_factors_through(incl, h)
            found += 1
    assert found >= 3
    # the identity of the source does not factor through the kernel
    assert not fp_factors_through(incl, fp_identity(phi.src))


def test_kernel_dimension_count_split_case():
    # dim K + rank(phi) = dim A at each probe, phi split
    phi = eps_square()
    kernel, _ = eps_kernel()
    for k in range(3):
        probe = yoneda(word(k))
        dim_k = len(fp_hom(probe, kernel))
        dim_a = len(fp_hom(probe, phi.src))
        rank = dim_a - len(fp_covanishing_reps(phi, probe))
        assert dim_k + rank == dim_a


def test_kernel_of_zero_is_source():
    m, n = yoneda(word(1)), yoneda(word(0))
    kernel, _ = fp_kernel(fp_zero_morphism(m, n), word(1), eps_kar())
    for k in range(3):
        probe = yoneda(word(k))
        assert len(fp_hom(probe, kernel)) == len(fp_hom(probe, m))


def test_kernel_of_isomorphism_vanishes():
    kernel, _ = iso_kernel()
    assert fp_is_zero_object(kernel)


def test_quotient_coordinates_of_representatives():
    space = eta_cokernel_space()
    assert len(space) > 0
    for k, rep in enumerate(space.reps):
        assert space.coordinates_of(rep) == {k: F.one()}
    first = space.from_coordinates({0: F.one()})
    assert (first.alpha, first.omega) == (space.reps[0].alpha, space.reps[0].omega)


def reference_combination(space, coords):
    """(alpha, omega) of the sum of c times reps[k], one square at a time."""
    alpha = KarMorphism.zero(space.src.P, space.dst.P)
    omega = KarMorphism.zero(space.src.Q, space.dst.Q)
    for k, c in coords.items():
        alpha = alpha + space.reps[k].alpha.scale(c)
        omega = omega + space.reps[k].omega.scale(c)
    return alpha, omega


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_from_coordinates_equals_the_sum_of_scaled_representatives(field):
    def coker(dom, cod, text):
        m, n = yoneda(KarObject.word(dom, CLS, field)), yoneda(KarObject.word(cod, CLS, field))
        rho = KarMorphism.from_lin(parse_linmorphism(text, field, dom, cod), CLS, field)
        return fp_cokernel(FpMorphism(m, n, rho, KarMorphism.zero(m.Q, n.Q)))

    # representatives whose (alpha, omega) vectors share positions
    eta, pair, split = coker(0, 1, "1'"), coker(0, 2, "1' 2'"), coker(1, 2, "1 1' 2'")
    y2 = yoneda(KarObject.word(2, CLS, field))
    spaces = [
        fpfun.fp_hom_space(eta, y2),
        fpfun.fp_hom_space(pair, y2),
        fpfun.fp_hom_space(split, pair),
    ]
    scalars = ["1", "-3/2", "t", "(t+1)/(t-2)", "(t^2-1/3)/(t+1/2)", "(2t)/(t^2+1)"]
    rng = random.Random(7)
    checked = 0
    for space in spaces:
        assert len(space) > 0
        for _ in range(6):
            size = rng.randint(1, len(space))
            coords = {
                k: parse_field_element(rng.choice(scalars), field)
                for k in rng.sample(range(len(space)), size)
            }
            got = space.from_coordinates(coords)
            assert (got.alpha, got.omega) == reference_combination(space, coords)
            assert space.coordinates_of(got) == coords
            checked += 1
    assert checked == 18


def test_rprime_squares_have_empty_coordinates():
    space = eta_cokernel_space()
    src, dst = space.src, space.dst
    betas = KarHom(src.P, dst.Q).elements
    assert betas
    for beta in betas:
        square = FpMorphism(
            src, dst, kar_compose(dst.rho, beta), kar_compose(beta, src.rho)
        )
        assert space.coordinates_of(square) == {}


def test_zero_kernel_edge_cases():
    m = yoneda(word(1))
    _, incl = iso_kernel()
    assert fp_factors_through(incl, fp_zero_morphism(m, m))
    assert not fp_factors_through(incl, fp_identity(m))
    for k in range(3):
        assert fp_covanishing_reps(fp_identity(m), yoneda(word(k))) == []


def test_weak_kernel_requires_split_epi():
    zero_eps = KarMorphism.zero(word(1), word(0))
    with pytest.raises(ValueError, match="split epimorphism"):
        weak_kernel(eps_kar(), word(1), zero_eps)
    with pytest.raises(ValueError, match="designated S"):
        weak_kernel(eps_kar(), word(2), eps_kar())


def test_weak_kernel_sequence_exact():
    k_obj, kp = weak_kernel(eps_kar(), word(1), eps_kar())
    assert kar_compose(eps_kar(), kp).is_zero()
    for m in range(3):
        assert weak_kernel_exact_at(eps_kar(), k_obj, kp, word(m))


def test_fp_zero_morphism_class():
    m, n = yoneda(word(1)), yoneda(word(1))
    assert fp_is_zero_morphism(fp_zero_morphism(m, n))
    assert not fp_is_zero_morphism(fp_identity(m))


def test_projection_is_the_target_cut_in_its_block():
    x1 = kar_object(1, special_morphisms("e_1_sprime", 1, F), CLS, F)
    parts = [word(1), direct_sum(x1, word(0)), word(2)]
    total = direct_sum(direct_sum(parts[0], parts[1]), parts[2])
    for index, target in enumerate(parts):
        p = fpfun._projection(parts, index)
        assert (p.dom, p.cod) == (total, target)
        offset = sum(len(q.words) for q in parts[:index])
        for i, row in enumerate(p.entries):
            for j, x in enumerate(row):
                if offset <= j < offset + len(target.words):
                    assert x == target.cut[i][j - offset]
                else:
                    assert x.is_zero()


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_every_representative_square_commutes(field):
    """The reps are built unchecked from kernel vectors of the commutation
    constraint; each must still satisfy alpha.rho = rho'.omega."""
    rng = random.Random(41)
    words = [yoneda(KarObject.word(w, CLS, field)) for w in range(3)]
    scalars = ["1", "-2", "t", "(t+1)/(t-2)"]
    cokernels = []
    for _ in range(4):
        m, n = rng.choice(words[:2]), rng.choice(words[1:])
        (a,), (b,) = m.P.words, n.P.words
        basis = hom_basis(CLS, a, b).diagrams
        diagrams = rng.sample(basis, min(2, len(basis)))
        rho = LinMorphism(
            a, b, {d: parse_field_element(rng.choice(scalars), field) for d in diagrams}
        )
        alpha = KarMorphism.from_lin(rho, CLS, field)
        cokernels.append(fp_cokernel(FpMorphism(m, n, alpha, KarMorphism.zero(m.Q, n.Q))))
    objects = words + cokernels
    checked = 0
    for _ in range(12):
        src, dst = rng.choice(objects), rng.choice(objects)
        for rep in fpfun.fp_hom_space(src, dst).reps:
            assert kar_compose(rep.alpha, src.rho) == kar_compose(dst.rho, rep.omega)
            checked += 1
    assert checked >= 12
