import json

import pytest
from fractions import Fraction

from diagcat import checks, partition
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
    _verify_h_skeleton,
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


def test_the_skeleton_builds_each_g_without_a_point_check(monkeypatch):
    p_entries = [
        special_morphisms("p_j", j, F).compose(x_e(j, F), F) for j in range(4)
    ]
    checked = []
    check = PartitionDiagram.__new__

    def counting(cls, m, n, blocks):
        checked.append((m, n))
        return check(cls, m, n, blocks)

    monkeypatch.setattr(PartitionDiagram, "__new__", staticmethod(counting))
    # at m = 4, f = 1 | 2 | 3 | 4 has j = 4 odd blocks, past p_entries
    assert [_verify_h_skeleton(p_entries, m, F) for m in range(5)] == [1, 1, 2, 5, 14]
    assert checked == []


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


def test_crosscheck_cob_converts_each_walked_diagram_once(monkeypatch):
    """One cobordism per diagram with at most 3 points, not three per pair,
    and per datum 4 phi-gluings, carried from one handle power to the next,
    plus 5 closing eps-gluings."""
    converted, glued = [], []
    to_cob, cob_compose = checks.partition_to_cob, checks.cob_compose
    monkeypatch.setattr(checks, "partition_to_cob", lambda d: converted.append(d) or to_cob(d))
    monkeypatch.setattr(
        checks, "cob_compose", lambda g, f, datum: glued.append(g) or cob_compose(g, f, datum)
    )
    r = check_crosscheck_cob(3)
    assert r.status == "pass" and r.witness["instances"] == 90 + 10
    assert len(converted) == len(set(converted)) == 1 + 2 * 1 + 3 * 2 + 4 * 5
    assert len(glued) == 2 * (4 + 5)


# Planted faults: a tensor that breaks one law of (Diag) at a known pair.
# Each check still reaches its CheckFailed with the first witness that the
# pair-by-pair walk over the shapes in lexicographic order finds.


def _odd_when_four(f, g):
    """Singletons for pairs of non-empty diagrams with four points in all."""
    if f.blocks and g.blocks and f.m + f.n + g.m + g.n == 4:
        return PartitionDiagram.singletons(f.m + g.m, f.n + g.n)
    return partition.tensor(f, g)


def _forget_left(f, g):
    """The tensor with a (1, 1) left factor replaced by 1 | 1'."""
    if (f.m, f.n) == (1, 1):
        f = PartitionDiagram.singletons(1, 1)
    return partition.tensor(f, g)


_SWAP = {
    PartitionDiagram.parse(a): PartitionDiagram.parse(b)
    for a, b in (("1 1' | 2 2'", "1 2 | 1' 2'"), ("1 2 | 1' 2'", "1 1' | 2 2'"))
}


def _swapped(f, g):
    """The tensor followed by a swap of two diagrams, one through the unit:
    injective and within the class, but it breaks (b)."""
    prod = partition.tensor(f, g)
    return _SWAP.get(prod, prod)


@pytest.mark.parametrize(
    "cls, fake, witness",
    [
        (DiagramClass.EVEN_BLOCKS, _odd_when_four, {
            "pair": ["1' 2'", "1' 2'"],
            "problem": "tensor left the class basis",
            "tensor": "1' | 2' | 3' | 4'",
        }),
        (DiagramClass.ALL, _forget_left, {
            "other_pair": ["1 | 1'", "<empty>"],
            "pair": ["1 1'", "<empty>"],
            "problem": "tensor map not injective",
            "tensor": "1 | 1'",
        }),
        (DiagramClass.ALL, _swapped, {
            "pair": ["<empty>", "1 1' | 2 2'"],
            "problem": "factor of a through-unit tensor is not through-unit",
            "tensor": "1 2 | 1' 2'",
        }),
    ],
)
def test_diag_fails_at_a_planted_fault(monkeypatch, cls, fake, witness):
    monkeypatch.setattr(checks, "tensor", fake)
    r = check_diag(cls, 4)
    assert (r.status, r.witness) == ("fail", witness)
    # ex2's structural route is check_diag, so it fails with the same witness
    r = check_ex(2, cls, 4, samples=30, seed=7)
    assert (r.status, r.witness) == ("fail", witness)


@pytest.mark.parametrize(
    "cls, witness",
    [
        (DiagramClass.ALL, {
            "f": "-3 * 1 1'",
            "g": "-1 * <empty>",
            "problem": "factor escapes the through-unit span",
            "tensor": "3 * 1 | 1'",
        }),
        (DiagramClass.EVEN_BLOCKS, {
            "f": "3 * 1 1'",
            "g": "1 * 1' 2'",
            "problem": "factor escapes the through-unit span",
            "tensor": "3 * 1 | 1' | 2' | 3'",
        }),
    ],
)
def test_ex2_samples_fail_at_a_planted_fault(monkeypatch, cls, witness):
    """A LinMorphism tensor that lands every sample on singletons: the
    structural route keeps the true diagram tensor and passes, and the
    first sample with a factor outside the through-unit span fails."""
    monkeypatch.setattr(
        partition,
        "tensor",
        lambda f, g: PartitionDiagram.singletons(f.m + g.m, f.n + g.n),
    )
    r = check_ex(2, cls, 4, samples=30, seed=7)
    assert (r.status, r.witness) == ("fail", witness)
