import itertools

import pytest

from diagcat import partition
from diagcat.homspace import HomBasis, parse_linmorphism
from diagcat.partition import (
    ComposeResult,
    DiagramClass,
    DiagramParseError,
    PartitionDiagram,
    all_diagrams,
    bell_number,
    compose,
    factors_through_unit,
    matching_count,
    merge_blocks,
    odd_block_legs,
    perfect_matchings,
    set_partitions,
    tensor,
    upper_partition,
)
from diagcat.scalar import FieldSpec

BELL = [1, 1, 2, 5, 15, 52, 203]


def D(text):
    return PartitionDiagram.parse(text)


def coarsenings(f: PartitionDiagram, proper=False):
    """All diagrams obtained by merging blocks of f, canonically sorted."""
    out = set()
    nblocks = len(f.blocks)
    for grouping in set_partitions(range(nblocks)):
        if proper and len(grouping) == nblocks:
            continue
        merged = [
            tuple(sorted(p for i in group for p in f.blocks[i])) for group in grouping
        ]
        out.add(PartitionDiagram(f.m, f.n, merged))
    return sorted(out)


def test_canonical_form_and_equality():
    a = PartitionDiagram(2, 2, [(2, 4), (3, 1)])
    b = PartitionDiagram(2, 2, [(1, 3), (2, 4)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.blocks == ((1, 3), (2, 4))


def test_equal_diagrams_are_one_instance():
    d = PartitionDiagram(2, 2, [(1, 3), (2, 4)])
    assert PartitionDiagram(2, 2, [(4, 2), (3, 1)]) is d
    assert D("2 2' | 1' 1") is d
    assert PartitionDiagram.identity(2) is d
    # the memos may hold an instance from before a _canonical.cache_clear,
    # so the computations are run past them
    assert compose.__wrapped__(d, d).diagram is d
    one = PartitionDiagram.identity(1)
    assert tensor.__wrapped__(one, one) is d
    basis = HomBasis(DiagramClass.ALL, 2, 2)
    assert basis.diagrams[basis.index(d)] is d


def test_a_diagram_that_outlives_its_canonical_entry_equals_the_new_one():
    old, ident = D("1 2 | 1'"), PartitionDiagram.identity(2)
    keyed = {old: "kept"}
    first = compose(old, ident)
    partition._canonical.cache_clear()
    new = D("1 2 | 1'")
    assert new is not old
    assert new == old and old == new
    assert not new != old
    assert hash(new) == hash(old)
    assert keyed[new] == "kept"
    before = compose.cache_info()
    assert compose(new, PartitionDiagram.identity(2)) == first
    assert compose.cache_info().hits == before.hits + 1
    assert new != D("1 | 2 | 1'")


def test_a_diagram_is_its_tuple():
    """Equality, hashing and order are tuple's own, so no Python-level
    dunder runs on a lookup, and the hash is that of (m, n, blocks)."""
    for name in ("__eq__", "__hash__", "__lt__"):
        assert getattr(PartitionDiagram, name) is getattr(tuple, name)
    d = D("1 2' | 2 1'")
    assert hash(d) == hash((d.m, d.n, d.blocks))
    assert d == (2, 2, ((1, 4), (2, 3)))
    assert sorted([D("1 2"), D("1 1'"), D("1 | 1'")]) == [
        D("1 | 1'"), D("1 1'"), D("1 2")
    ]


def test_derived_diagrams_skip_the_point_check(monkeypatch):
    """Diagrams built from blocks that are right by construction go
    through _from_valid; only PartitionDiagram() checks the points."""
    f, g = D("1 2 | 3 1' | 2'"), D("1 1' | 2 3 2'")
    checked = []
    check = PartitionDiagram.__new__

    def counting(cls, m, n, blocks):
        checked.append((m, n))
        return check(cls, m, n, blocks)

    monkeypatch.setattr(PartitionDiagram, "__new__", staticmethod(counting))
    walked = sum(1 for t in range(6) for m in range(t + 1) for _ in all_diagrams(m, t - m))
    assert walked == sum((t + 1) * BELL[t] for t in range(6))
    derived = [
        merge_blocks(f, [(0, 2)]),
        upper_partition(g),
        PartitionDiagram.identity(2),
        PartitionDiagram.permutation((1, 0)),
        PartitionDiagram.singletons(2, 1),
    ]
    assert checked == []
    assert derived == [
        D(text) for text in ("1 2 2' | 3 1'", "1 | 2 3", "1 1' | 2 2'", "1 2' | 2 1'", "1 | 2 | 1'")
    ]
    assert checked == [(3, 2), (3, 0), (2, 2), (2, 2), (2, 1)]


def test_validation_rejects_bad_covers():
    with pytest.raises(ValueError):
        PartitionDiagram(2, 0, [(1,)])
    with pytest.raises(ValueError):
        PartitionDiagram(1, 0, [(1,), (1,)])


def test_an_invalid_block_tuple_raises_on_every_call_and_is_not_kept():
    """lru_cache keeps no exception, so the memo of checked block tuples
    checks an invalid tuple again on every call and never stores it; a
    float m misses the entry of the equal int m, which is kept."""
    partition._checked(1, 1, ((1, 2),))
    size = partition._checked.cache_info().currsize
    for m, n, blocks, error in (
        (2, 0, ((1,),), ValueError),
        (1, 0, ((1,), (1,)), ValueError),
        (1, 1, ((1, 3),), ValueError),
        (2, 1, [(1, 2)], ValueError),
        (1.0, 1, ((1, 2),), TypeError),
    ):
        for _ in range(3):
            with pytest.raises(error):
                PartitionDiagram(m, n, blocks)
        assert partition._checked.cache_info().currsize == size


def test_a_list_a_tuple_and_an_unsorted_tuple_give_one_instance():
    """Each block tuple is checked once by the memo; unhashable blocks
    are checked unmemoised; all give the one shared instance.  The memo
    may hold an instance from before a _canonical.cache_clear, so it is
    cleared first."""
    partition._checked.cache_clear()
    d = PartitionDiagram(2, 2, ((1, 3), (2, 4)))
    assert PartitionDiagram(2, 2, ((1, 3), (2, 4))) is d
    assert partition._checked.cache_info()[:2] == (1, 1)  # hits, misses
    assert PartitionDiagram(2, 2, [(1, 3), (2, 4)]) is d
    assert PartitionDiagram(2, 2, [[4, 2], [3, 1]]) is d
    assert PartitionDiagram(2, 2, ((4, 2), (3, 1))) is d
    assert PartitionDiagram(2, 2, ((2, 4), (1, 3))) is d
    assert d.blocks == ((1, 3), (2, 4))


def test_one_shot_blocks_are_read_once():
    """A generator or map of blocks is read once, at the entry: valid
    blocks give the instance of their tuple, invalid ones raise."""
    d = PartitionDiagram(1, 1, ((1, 2),))
    assert PartitionDiagram(1, 1, (b for b in [(1, 2)])) is d
    assert PartitionDiagram(1, 1, map(tuple, [[2, 1]])) is d
    for blocks in ((b for b in [(1,), (1,)]), map(tuple, [[1, 3]])):
        with pytest.raises(ValueError):
            PartitionDiagram(1, 1, blocks)


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
    assert [bell_number(size) for size in range(len(BELL))] == BELL


def test_perfect_matchings_counts():
    # (size-1)!! matchings for an even size, none for an odd one
    assert [matching_count(size) for size in range(9)] == [1, 0, 1, 0, 3, 0, 15, 0, 105]
    for size in range(9):
        found = list(perfect_matchings(range(size)))
        assert len(found) == len(set(found)) == matching_count(size)
        for part in found:
            assert sorted(p for pair in part for p in pair) == list(range(size))


def test_memoised_compose_and_tensor_match_the_uncached_kernels():
    pairs = 0
    for m, k, n in itertools.product(range(7), repeat=3):
        if m + k + n > 6:
            continue
        for f in all_diagrams(m, k):
            for g in all_diagrams(k, n):
                expected = compose.__wrapped__(g, f)
                for _ in range(2):  # the second call is served by the memo
                    got = compose(g, f)
                    assert (got.diagram, got.loops) == (expected.diagram, expected.loops)
                pairs += 1
    assert pairs > 10_000
    shapes = list(itertools.product(range(3), repeat=2))
    small = [d for m, n in shapes for d in all_diagrams(m, n)]
    for f in small:
        for g in small:
            expected = tensor.__wrapped__(f, g)
            assert tensor(f, g) == expected
            assert tensor(f, g) == expected


def test_repeated_lin_compose_is_served_by_the_compose_memo():
    field = FieldSpec.generic()
    f = parse_linmorphism("1 1' + 2 * 1 | 1'", field)
    g = parse_linmorphism("1 | 1' + 1/2 * 1 1'", field)
    compose.cache_clear()
    first = g.compose(f, field)
    before = compose.cache_info()
    assert before.misses > 0
    assert g.compose(f, field) == first
    after = compose.cache_info()
    assert after.hits > before.hits
    assert after.misses == before.misses


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


def test_factors_through_unit_reads_the_block_ends():
    """The two ends of each sorted block decide what counting its upper
    points decides, on every diagram with m+n <= 6."""

    def by_points(f):
        return all(
            sum(1 for p in b if p <= f.m) in (0, len(b)) for b in f.blocks
        )

    seen = 0
    for total in range(7):
        for m in range(total + 1):
            for f in all_diagrams(m, total - m):
                assert factors_through_unit(f) == by_points(f), f
                seen += 1
    assert seen == sum((t + 1) * BELL[t] for t in range(7))


def test_odd_block_legs_adds_one_lower_point_per_odd_block(monkeypatch):
    """g is right by construction and skips the point check."""
    cases = [
        (D("1 3 | 2 4 5 | 6"), D("1 3 | 2 4 5 1' | 6 2'")),
        (D("1 2"), D("1 2")),
        (PartitionDiagram(0, 0, []), PartitionDiagram(0, 0, [])),
    ]
    checked = []
    check = PartitionDiagram.__new__

    def counting(cls, m, n, blocks):
        checked.append((m, n))
        return check(cls, m, n, blocks)

    monkeypatch.setattr(PartitionDiagram, "__new__", staticmethod(counting))
    assert [odd_block_legs(f) for f, _ in cases] == [g for _, g in cases]
    assert checked == []
    with pytest.raises(ValueError, match="no lower points"):
        odd_block_legs(cases[0][1])


def test_upper_partition():
    g = D("1 1' | 2 3")
    assert upper_partition(g) == D("1 | 2 3")


def test_class_membership_examples():
    assert DiagramClass.EVEN_BLOCKS.member(D("1 2 1' 2'"))
    assert not DiagramClass.EVEN_BLOCKS.member(D("1 | 2 1' 2'"))
    # two odd blocks is evenly many; an odd total forces an odd count
    assert DiagramClass.EVEN_MANY_ODD_BLOCKS.member(D("1 | 1'"))
    assert DiagramClass.EVEN_MANY_ODD_BLOCKS.member(D("1 | 2 1' 2'"))
    assert not DiagramClass.EVEN_MANY_ODD_BLOCKS.member(D("1"))
    assert not DiagramClass.EVEN_MANY_ODD_BLOCKS.member(D("1 2 3 | 4 5"))
    assert DiagramClass.BLOCKS_SIZE_2.member(D("1 1' | 2 2'"))
    assert not DiagramClass.BLOCKS_SIZE_2.member(D("1 1' 2 2'"))
    # the crossing swap is rejected, nested cups pass
    assert not DiagramClass.NON_CROSSING_SIZE_2.member(D("1 2' | 2 1'"))
    assert DiagramClass.NON_CROSSING_SIZE_2.member(D("1 1' | 2 2'"))
    assert DiagramClass.NON_CROSSING_SIZE_2.member(D("1 2 | 1' 2'"))
    assert DiagramClass.NON_CROSSING_SIZE_2.member(D("1 4 | 2 3"))
    assert not DiagramClass.NON_CROSSING_SIZE_2.member(D("1 3 | 2 4"))


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
