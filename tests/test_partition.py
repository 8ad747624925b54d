import itertools

import pytest

from diagcat.partition import (
    ComposeResult,
    DiagramClass,
    DiagramParseError,
    PartitionDiagram,
    all_diagrams,
    class_member,
    coarsenings,
    compose,
    factors_through_unit,
    set_partitions,
    tensor,
    upper_partition,
)

BELL = [1, 1, 2, 5, 15, 52, 203]


def D(text):
    return PartitionDiagram.parse(text)


def test_canonical_form_and_equality():
    a = PartitionDiagram(2, 2, [(2, 4), (3, 1)])
    b = PartitionDiagram(2, 2, [(1, 3), (2, 4)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.blocks == ((1, 3), (2, 4))


def test_validation_rejects_bad_covers():
    with pytest.raises(ValueError):
        PartitionDiagram(2, 0, [(1,)])
    with pytest.raises(ValueError):
        PartitionDiagram(1, 0, [(1,), (1,)])


def test_parse_print_roundtrip_all_small_shapes():
    for total in range(0, 5):
        for m in range(total + 1):
            n = total - m
            for d in all_diagrams(m, n):
                assert PartitionDiagram.parse(d.to_text()) == d


def test_parse_errors():
    with pytest.raises(DiagramParseError, match="duplicate"):
        PartitionDiagram.parse("1 1")
    with pytest.raises(DiagramParseError, match="missing point 1"):
        PartitionDiagram.parse("2")
    with pytest.raises(DiagramParseError, match="bad token"):
        PartitionDiagram.parse("1 x'")
    err = None
    try:
        PartitionDiagram.parse("1 | 1")
    except DiagramParseError as exc:
        err = exc
    assert err is not None and err.position == 4


def test_compose_identity():
    ident = PartitionDiagram.identity(2)
    d = D("1 2 1' | 2'")
    assert compose(ident, d) == ComposeResult(d, 0)
    assert compose(d, PartitionDiagram.identity(2)) == ComposeResult(d, 0)


def test_compose_loop_example():
    eps = D("1")  # [1] -> [0]
    eta = D("1'")  # [0] -> [1]
    res = compose(eps, eta)
    assert res.diagram == PartitionDiagram(0, 0, [])
    assert res.loops == 1


def test_compose_merge_example():
    # one middle point identifies two blocks across the interface
    f = D("1 1' | 2")  # [2] -> [1]
    g = D("1 1' 2'")  # [1] -> [2]
    res = compose(g, f)
    assert res.diagram == D("1 1' 2' | 2")
    assert res.loops == 0


def test_tensor_examples():
    assert tensor(D("1"), D("1'")) == D("1 | 1'")
    ident = PartitionDiagram.identity(1)
    assert tensor(ident, ident) == PartitionDiagram.identity(2)
    empty = PartitionDiagram(0, 0, [])
    d = D("1 1'")
    assert tensor(d, empty) == d
    assert tensor(empty, d) == d


def _matrix_of_diagram(d, nrep):
    """Interpolation-functor oracle: 0/1 matrix of d acting on {0..nrep-1}."""
    rows = list(itertools.product(range(nrep), repeat=d.m))
    cols = list(itertools.product(range(nrep), repeat=d.n))
    out = []
    for upper in rows:
        row = []
        for lower in cols:
            value = 1
            for block in d.blocks:
                vals = {
                    upper[p - 1] if p <= d.m else lower[p - d.m - 1] for p in block
                }
                if len(vals) > 1:
                    value = 0
                    break
            row.append(value)
        out.append(row)
    return out


def _matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


def test_compose_against_matrix_representation_oracle():
    nrep = 5
    checked = 0
    for m, k, n in itertools.product(range(3), repeat=3):
        if m + k + n > 4:
            continue
        for f in all_diagrams(m, k):
            for g in all_diagrams(k, n):
                res = compose(g, f)
                lhs = _matmul(_matrix_of_diagram(f, nrep), _matrix_of_diagram(g, nrep))
                expected = _matrix_of_diagram(res.diagram, nrep)
                scale = nrep**res.loops
                assert lhs == [[scale * v for v in row] for row in expected]
                checked += 1
    assert checked > 100


def test_tensor_against_matrix_representation_oracle():
    nrep = 4
    for f in all_diagrams(1, 1):
        for g in all_diagrams(2, 0):
            big = _matrix_of_diagram(tensor(f, g), nrep)
            mf = _matrix_of_diagram(f, nrep)
            mg = _matrix_of_diagram(g, nrep)
            for i, (if_, ig) in enumerate(
                itertools.product(range(nrep), range(nrep * nrep))
            ):
                for j in range(nrep):
                    assert big[i][j] == mf[if_][j] * mg[ig][0]


def test_compose_and_tensor_results_are_canonical():
    # compose and tensor skip the constructor's validation; their results
    # must still equal, hash and print like the validated diagram.
    def rebuilt(d):
        return PartitionDiagram(d.m, d.n, [list(reversed(b)) for b in d.blocks][::-1])

    for m, k, n in itertools.product(range(4), repeat=3):
        if m + k + n > 6:
            continue
        for f in all_diagrams(m, k):
            for g in all_diagrams(k, n):
                for d in (compose(g, f).diagram, tensor(f, g)):
                    r = rebuilt(d)
                    assert (d.blocks, hash(d), d.to_text()) == (
                        r.blocks,
                        hash(r),
                        r.to_text(),
                    )


def test_associativity_exhaustive_small():
    for m, k, l, n in itertools.product(range(3), repeat=4):
        if m + k + l + n > 5:
            continue
        for f in all_diagrams(m, k):
            for g in all_diagrams(k, l):
                for h in all_diagrams(l, n):
                    gf, l1 = compose(g, f)
                    left, l2 = compose(h, gf)
                    hg, l3 = compose(h, g)
                    right, l4 = compose(hg, f)
                    assert left == right
                    assert l1 + l2 == l3 + l4


def test_set_partitions_counts():
    for size, bell in enumerate(BELL[:6]):
        assert sum(1 for _ in set_partitions(range(size))) == bell


def test_coarsenings():
    ident = PartitionDiagram.identity(2)
    cs = coarsenings(ident)
    assert len(cs) == 2
    assert coarsenings(ident, proper=True) == [D("1 2 1' 2'")]
    d3 = PartitionDiagram.singletons(3)
    assert len(coarsenings(d3, proper=True)) == BELL[3] - 1


def test_factors_through_unit():
    assert factors_through_unit(D("1 | 1'"))
    assert not factors_through_unit(D("1 1'"))
    assert factors_through_unit(PartitionDiagram(0, 0, []))


def test_upper_partition():
    g = D("1 1' | 2 3")
    assert upper_partition(g) == D("1 | 2 3")


def test_class_membership_examples():
    assert class_member(D("1 2 1' 2'"), DiagramClass.EVEN_BLOCKS)
    assert not class_member(D("1 | 2 1' 2'"), DiagramClass.EVEN_BLOCKS)
    # two odd blocks is evenly many; an odd total forces an odd count
    assert class_member(D("1 | 1'"), DiagramClass.EVEN_MANY_ODD_BLOCKS)
    assert class_member(D("1 | 2 1' 2'"), DiagramClass.EVEN_MANY_ODD_BLOCKS)
    assert not class_member(D("1"), DiagramClass.EVEN_MANY_ODD_BLOCKS)
    assert not class_member(D("1 2 3 | 4 5"), DiagramClass.EVEN_MANY_ODD_BLOCKS)
    assert class_member(D("1 1' | 2 2'"), DiagramClass.BLOCKS_SIZE_2)
    assert not class_member(D("1 1' 2 2'"), DiagramClass.BLOCKS_SIZE_2)
    # the crossing swap is rejected, nested cups pass
    assert not class_member(D("1 2' | 2 1'"), DiagramClass.NON_CROSSING_SIZE_2)
    assert class_member(D("1 1' | 2 2'"), DiagramClass.NON_CROSSING_SIZE_2)
    assert class_member(D("1 2 | 1' 2'"), DiagramClass.NON_CROSSING_SIZE_2)
    assert class_member(D("1 4 | 2 3"), DiagramClass.NON_CROSSING_SIZE_2)
    assert not class_member(D("1 3 | 2 4"), DiagramClass.NON_CROSSING_SIZE_2)


def test_class_closure_under_compose_and_tensor():
    for cls in DiagramClass:
        for m, k, n in itertools.product(range(3), repeat=3):
            if m + k + n > 5:
                continue
            fs = [d for d in all_diagrams(m, k) if cls.member(d)]
            gs = [d for d in all_diagrams(k, n) if cls.member(d)]
            for f in fs:
                for g in gs:
                    assert cls.member(compose(g, f).diagram)
        for f in all_diagrams(1, 1):
            for g in all_diagrams(2, 1):
                if cls.member(f) and cls.member(g):
                    assert cls.member(tensor(f, g))


def test_diagram_class_from_text():
    assert DiagramClass.from_text("even-blocks") is DiagramClass.EVEN_BLOCKS
    with pytest.raises(ValueError):
        DiagramClass.from_text("nope")
