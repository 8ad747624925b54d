import json

import pytest
from fractions import Fraction

from diagcat.checks import (
    CheckReport,
    check_crosscheck_cob,
    check_diag,
    check_ex,
    check_split_sweep,
    check_splitting_object,
    check_uex,
    default_unit_morphism,
    representable_H,
    representable_Sprime,
    verify_lemma,
)
from diagcat.homspace import LinMorphism
from diagcat.karoubi import KarMorphism, KarObject, direct_sum, kar_object
from diagcat.moebius import special_morphisms, x_e, x_j
from diagcat.partition import DiagramClass, PartitionDiagram
from diagcat.scalar import FieldSpec

F = FieldSpec.generic()
ALL_CLASSES = list(DiagramClass)


def test_report_json_schema():
    r = check_diag(DiagramClass.ALL, 2)
    data = json.loads(r.to_json())
    assert set(data) == {"check", "params", "status", "witness", "elapsed_ms"}
    assert data["status"] == "pass"
    assert data["params"]["class"] == "all"
    assert isinstance(data["elapsed_ms"], int)
    assert r.passed()


def test_diag_passes_all_classes():
    for cls in ALL_CLASSES:
        r = check_diag(cls, 4)
        assert r.status == "pass", (cls, r.witness)


def test_ex1_passes_all_classes():
    for cls in ALL_CLASSES:
        r = check_ex(1, cls, 4)
        assert r.status == "pass", (cls, r.witness)


def test_ex2_sampled_with_structural_flag():
    r = check_ex(2, DiagramClass.ALL, 6, samples=60, seed=11)
    assert r.status == "pass"
    assert "structural pass via (Diag)" in r.witness["mode"]
    assert r.witness["hits"] > 0


def test_ex_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        check_ex(3, DiagramClass.ALL, 2)


def test_uex_epsilon_all():
    u = default_unit_morphism(DiagramClass.ALL, F)
    r = check_uex(u, DiagramClass.ALL, 3)
    assert r.status == "pass-up-to-bound"
    assert r.witness is None


def test_uex_even_blocks_unit():
    u = default_unit_morphism(DiagramClass.EVEN_BLOCKS, F)
    assert u.dom == 2
    r = check_uex(u, DiagramClass.EVEN_BLOCKS, 2)
    assert r.status == "pass-up-to-bound"


def test_uex_scalar_multiple_same_verdict():
    u = default_unit_morphism(DiagramClass.ALL, F)
    r1 = check_uex(u, DiagramClass.ALL, 2)
    r2 = check_uex(u.scale(F.t()), DiagramClass.ALL, 2)
    assert r1.status == r2.status == "pass-up-to-bound"


def test_uex_rejects_zero():
    with pytest.raises(ValueError, match="zero"):
        check_uex(LinMorphism.zero(1, 0), DiagramClass.ALL, 2)


def test_uex_rejects_wrong_target():
    u = LinMorphism.from_diagram(PartitionDiagram.identity(1), F)
    with pytest.raises(ValueError, match="target"):
        check_uex(u, DiagramClass.ALL, 2)


def test_splitting_object_unit_times_eps():
    X = kar_object(
        1,
        LinMorphism.from_diagram(PartitionDiagram.identity(1), F),
        DiagramClass.ALL,
        F,
        name="id",
    )
    eps = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram(1, 0, [(1,)]), F),
        DiagramClass.ALL,
        F,
    )
    r = check_splitting_object(X, eps, "left")
    assert r.status == "pass"
    assert r.witness["denominators"] == ["t"]
    r = check_splitting_object(X, eps, "right")
    assert r.status == "pass"


def test_splitting_object_sprime_sum():
    cls = DiagramClass.EVEN_MANY_ODD_BLOCKS
    x0 = kar_object(
        0,
        LinMorphism.from_diagram(PartitionDiagram.identity(0), F),
        cls,
        F,
        name="id",
    )
    x1 = kar_object(1, special_morphisms("e_1_sprime", 1, F), cls, F, name="e_1_sprime")
    X = direct_sum(x0, x1)
    u = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram(2, 0, [(1, 2)]), F), cls, F
    )
    r = check_splitting_object(X, u, "left")
    assert r.status == "pass"


def test_splitting_object_already_split():
    X = kar_object(
        1,
        LinMorphism.from_diagram(PartitionDiagram.identity(1), F),
        DiagramClass.ALL,
        F,
        name="id",
    )
    ident = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram.identity(1), F),
        DiagramClass.ALL,
        F,
    )
    assert check_splitting_object(X, ident, "left").status == "pass"


def test_splitting_object_zero_rejected():
    eps = KarMorphism.from_lin(
        LinMorphism.from_diagram(PartitionDiagram(1, 0, [(1,)]), F),
        DiagramClass.ALL,
        F,
    )
    with pytest.raises(ValueError, match="must be non-zero"):
        check_splitting_object(KarObject.zero(DiagramClass.ALL, F), eps)
    with pytest.raises(ValueError, match="side"):
        check_splitting_object(
            kar_object(
                0,
                LinMorphism.from_diagram(PartitionDiagram.identity(0), F),
                DiagramClass.ALL,
                F,
            ),
            eps,
            "middle",
        )


def test_split_sweep_small():
    r = check_split_sweep(DiagramClass.ALL, 3, samples=10, seed=5)
    assert r.status == "pass"
    assert r.witness["morphisms_checked"] > 30


def test_representable_h_small_cases():
    # target Hom([1],[0]) is 1-dimensional; phi is a rank-1 bijection
    r = representable_H(2, 1)
    assert r.status == "pass"
    r = representable_H(2, 2)
    assert r.status == "pass"


def test_representable_h_skeleton_counts():
    # one spanning-set instance per set partition of the upper points
    r = representable_H(3, 3)
    assert r.status == "pass"
    assert r.witness["skeleton_instances"] == 1 + 1 + 2 + 5


def test_representable_h_rank_deficit():
    r = representable_H(0, 2)
    assert r.status == "fail"
    rows = {f["m"]: f for f in r.witness["failures"]}
    assert rows[2]["hom_dim"] == 1
    assert rows[2]["target_dim"] == 2
    assert rows[2]["rank"] == 1
    assert "replay" not in r.witness


def test_representable_sprime_generic_and_specialized():
    assert representable_Sprime(4).status == "pass"
    for t in (Fraction(5), Fraction(-1), Fraction(1, 2)):
        assert representable_Sprime(4, FieldSpec.at(t)).status == "pass"


def test_representable_sprime_scalar_case():
    # m = 0: both sides are the scalars and phi is the identity
    r = representable_Sprime(0)
    assert r.status == "pass"


def test_representable_sprime_rejects_t_zero():
    with pytest.raises(ZeroDivisionError, match="requires t != 0"):
        representable_Sprime(2, FieldSpec.at(Fraction(0)))


def test_lemma_absorption_example():
    # a block with two lower points kills x_j
    g = PartitionDiagram(0, 2, [(1, 2)])
    prod = x_j(2, F).compose(LinMorphism.from_diagram(g, F), F)
    assert prod.is_zero()
    r = verify_lemma("absorption", 3, 3)
    assert r.status == "pass"
    assert r.witness["instances"] > 100


def test_lemma_computation_examples():
    p1 = special_morphisms("p_j", 1, F)
    g = LinMorphism.from_diagram(PartitionDiagram(1, 1, [(1, 2)]), F)
    lhs = p1.compose(x_e(1, F), F).compose(g, F)
    assert lhs == LinMorphism.from_diagram(PartitionDiagram(1, 0, [(1,)]), F)

    p2 = special_morphisms("p_j", 2, F)
    g2 = LinMorphism.from_diagram(PartitionDiagram(2, 2, [(1, 3), (2, 4)]), F)
    lhs2 = p2.compose(x_e(2, F), F).compose(g2, F)
    split = LinMorphism.from_diagram(PartitionDiagram(2, 0, [(1,), (2,)]), F)
    merged = LinMorphism.from_diagram(PartitionDiagram(2, 0, [(1, 2)]), F)
    assert lhs2 == split - merged

    r = verify_lemma("computation_H", 3, 3)
    assert r.status == "pass"
    assert r.witness["instances"] > 0


def test_lemma_rejects_unknown_name():
    with pytest.raises(ValueError, match="which"):
        verify_lemma("coassociativity")


def test_crosscheck_cob_small():
    r = check_crosscheck_cob(3)
    assert r.status == "pass"
    assert r.witness["instances"] >= 100


def test_crosscheck_cob_builds_the_st_datum_once():
    """Every pair reads the one memoised S_t datum over Q(t)."""
    from diagcat.cobordism import st_datum

    st_datum.cache_clear()
    r = check_crosscheck_cob(2)
    assert r.status == "pass" and r.witness["instances"] > 10
    info = st_datum.cache_info()
    assert info.misses == 1 and info.currsize == 1
    # one hit per diagram pair; the last 10 instances are handle scalars
    assert info.hits == r.witness["instances"] - 10
