import random
from fractions import Fraction

import pytest

from diagcat.homspace import (
    CompressedBasis,
    ExactMatrix,
    HomBasis,
    LinMorphism,
    Subspace,
    hom_basis,
    matrix_of,
    parse_linmorphism,
)
from diagcat.partition import DiagramClass, PartitionDiagram, all_diagrams
from diagcat.scalar import FieldSpec

F = FieldSpec.generic()
BELL = [1, 1, 2, 5, 15, 52, 203]


def D(text):
    return PartitionDiagram.parse(text)


def lin(text, dom=None, cod=None):
    return parse_linmorphism(text, F, dom=dom, cod=cod)


def test_hom_basis_bell_counts():
    for m, n in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        assert len(hom_basis(DiagramClass.ALL, m, n)) == BELL[m + n]


def test_hom_basis_even_blocks_counts():
    assert len(hom_basis(DiagramClass.EVEN_BLOCKS, 1, 1)) == 1
    assert len(hom_basis(DiagramClass.EVEN_BLOCKS, 2, 2)) == 4
    assert len(hom_basis(DiagramClass.EVEN_BLOCKS, 1, 0)) == 0


def test_hom_basis_parity_vanishing():
    # evenly-many-odd-blocks forces an even total number of points
    assert len(hom_basis(DiagramClass.EVEN_MANY_ODD_BLOCKS, 1, 0)) == 0
    assert len(hom_basis(DiagramClass.EVEN_MANY_ODD_BLOCKS, 2, 1)) == 0
    assert len(hom_basis(DiagramClass.EVEN_MANY_ODD_BLOCKS, 2, 2)) == BELL[4]
    assert len(hom_basis(DiagramClass.EVEN_MANY_ODD_BLOCKS, 1, 1)) == BELL[2]


def test_hom_basis_matching_counts():
    assert len(hom_basis(DiagramClass.BLOCKS_SIZE_2, 1, 1)) == 1
    assert len(hom_basis(DiagramClass.BLOCKS_SIZE_2, 2, 2)) == 3
    assert len(hom_basis(DiagramClass.BLOCKS_SIZE_2, 3, 3)) == 15
    assert len(hom_basis(DiagramClass.NON_CROSSING_SIZE_2, 2, 2)) == 2
    assert len(hom_basis(DiagramClass.NON_CROSSING_SIZE_2, 3, 3)) == 5


def test_hom_basis_index_roundtrip():
    basis = hom_basis(DiagramClass.ALL, 2, 2)
    for i, d in enumerate(basis):
        assert basis.index(d) == i
    with pytest.raises(KeyError):
        basis.index(D("1 2' | 2 1'") if False else D("1"))


def test_linmorphism_zero_and_scale():
    z = LinMorphism.zero(1, 1)
    assert z.is_zero()
    a = lin("1 * 1 1'")
    assert (a - a).is_zero()
    assert a.scale(F.zero()).is_zero()
    assert a + z == a


def test_circle_evaluates_to_t():
    eps = LinMorphism.from_diagram(D("1"), F)
    eta = lin("1 * 1'")
    circ = eps.compose(eta, F)
    assert circ == lin("t * <empty>", dom=0, cod=0)


def test_compose_bilinear():
    a = lin("1 * 1 1' + 1 * 1 | 1'")
    b = lin("1/2 * 1 1'")
    left = a.compose(b, F)
    right = lin("1/2 * 1 1' + (t)/(2) * 1 | 1'")
    # {1},{1'} after {1,1'}: the middle point joins the upper block, no loop
    assert left == lin("1/2 * 1 1' + 1/2 * 1 | 1'")
    ba = b.compose(a, F)
    assert ba == lin("1/2 * 1 1' + 1/2 * 1 | 1'")
    del right


def test_tensor_of_sums():
    a = lin("1 * 1 + 1 * 1", dom=1, cod=0) if False else lin("2 * 1")
    b = lin("1 * 1'")
    ab = a.tensor(b, F)
    assert ab == lin("2 * 1 | 1'")


def test_text_roundtrip_and_coefficient_forms():
    samples = [
        "1 * <empty>",
        "t * <empty>",
        "-1/2 * 1 1'",
        "(1)/(t) * 1 | 1'",
        "(t^2-1)/(t) * 1 1' + 2 * 1 | 1'",
    ]
    for text in samples:
        parsed = parse_linmorphism(text, F)
        again = parse_linmorphism(parsed.to_text(), F)
        assert parsed == again


def test_parse_rejects_mixed_shapes():
    with pytest.raises(ValueError):
        parse_linmorphism("1 * 1 1' + 1 * 1", F)
    with pytest.raises(ValueError):
        parse_linmorphism("1 * 1 1'", F, dom=2, cod=1)


def test_parse_zero_needs_shape():
    z = parse_linmorphism("0", F, dom=2, cod=1)
    assert z.is_zero() and z.dom == 2 and z.cod == 1
    with pytest.raises(ValueError):
        parse_linmorphism("0", F)


def test_specialized_mode_compose():
    F5 = FieldSpec.at(Fraction(5))
    eps = LinMorphism.from_diagram(D("1"), F5)
    eta = LinMorphism.from_diagram(D("1'"), F5)
    circ = eps.compose(eta, F5)
    assert circ == parse_linmorphism("5 * <empty>", F5)


def test_subspace_add_and_coordinates():
    sub = Subspace(F)
    v1 = {0: F.one(), 1: F.one()}
    v2 = {1: F.one()}
    v3 = {0: F.one(), 1: F.rational(Fraction(2))}
    assert sub.add(v1) is True
    assert sub.add(v2) is True
    assert sub.add(v3) is False  # v3 = v1 + v2
    assert sub.dimension() == 2
    coords = sub.coordinates_of(v3)
    assert coords == {0: F.one(), 1: F.one()}
    assert sub.contains({0: F.one()})
    assert not sub.contains({2: F.one()})
    assert sub.coordinates_of({2: F.one()}) is None


def test_subspace_rational_function_pivots():
    sub = Subspace(F)
    assert sub.add({0: F.t(), 1: F.one()})
    assert sub.add({0: F.one(), 1: F.t()})
    # dependent when t^2 - 1 = 0 only; generically independent
    assert sub.dimension() == 2


def test_compressed_basis():
    a = lin("1 * 1 1'")
    b = lin("1 * 1 | 1'")
    cb = CompressedBasis([a, b, a + b], F)
    assert len(cb) == 2
    coords = cb.coordinates_of(a - b)
    assert coords == [F.one(), F.rational(Fraction(-1))]
    other = lin("1 * 1 1' | 2 2'")
    assert cb.coordinates_of(other) is None


def test_matrix_rank_kernel_solve():
    one = F.one()
    two = F.rational(Fraction(2))
    m = ExactMatrix(2, 2, [[one, two], [two, F.rational(Fraction(4))]], F)
    assert m.rank() == 1
    assert not m.is_bijective()
    ker = m.kernel_basis()
    assert len(ker) == 1
    for row in range(2):
        s = F.zero()
        for col, v in enumerate(ker[0]):
            s = s + m.entries[row][col] * v
        assert s.is_zero()
    inv = ExactMatrix(2, 2, [[one, two], [F.zero(), one]], F)
    assert inv.is_bijective()
    sol = inv.solve([two, one])
    assert sol is not None
    assert inv.multiply_vector(sol) == [two, one]


def test_matrix_solve_inconsistent():
    one = F.one()
    m = ExactMatrix(2, 1, [[one], [one]], F)
    assert m.solve([one, F.zero()]) is None


def test_matrix_random_solve_roundtrip():
    rng = random.Random(31)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = [
            [F.rational(Fraction(rng.randint(-3, 3))) for _ in range(cols)]
            for _ in range(rows)
        ]
        m = ExactMatrix(rows, cols, entries, F)
        x0 = [F.rational(Fraction(rng.randint(-2, 2))) for _ in range(cols)]
        b = m.multiply_vector(x0)
        sol = m.solve(b)
        assert sol is not None
        assert m.multiply_vector(sol) == b


def _random_columns(rng, field, rows, cols):
    """Entries a + b*t with small integers; some columns repeat others."""
    t = field.t()

    def entry():
        a, b = rng.randint(-2, 2), rng.choice((0, 0, 1, -1))
        return field.rational(Fraction(a)) + field.rational(Fraction(b)) * t

    columns = [[entry() for _ in range(rows)] for _ in range(cols)]
    for j in range(1, cols):
        if rng.random() < 0.3:
            c = field.rational(Fraction(rng.randint(-2, 2)))
            columns[j] = [x * c for x in columns[rng.randrange(j)]]
    return columns


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_elimination_kernel_and_solve_shapes(field):
    rng = random.Random(7)
    zero, one = field.zero(), field.one()
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        columns = _random_columns(rng, field, rows, cols)
        m = ExactMatrix.from_columns(columns, rows, field)
        prefix = [ExactMatrix.from_columns(columns[:k], rows, field).rank()
                  for k in range(cols + 1)]
        free = [j for j in range(cols) if prefix[j + 1] == prefix[j]]
        kernel = m.kernel_basis()
        assert len(kernel) == cols - m.rank() == len(free)
        for v, j in zip(kernel, free):
            assert all(x.is_zero() for x in m.multiply_vector(v))
            assert v[j] == one
            assert all(v[k] == zero for k in free if k != j)
        x0 = [field.rational(Fraction(rng.randint(-2, 2))) for _ in range(cols)]
        b = m.multiply_vector(x0)
        x = m.solve(b)
        assert m.multiply_vector(x) == b
        assert all(x[j].is_zero() for j in free)
        units = ([one if i == r else zero for i in range(rows)] for r in range(rows))
        if m.rank() < rows:
            assert any(m.solve(e) is None for e in units)


def test_subspace_numbers_accepted_generators_only():
    one = F.one()
    sub = Subspace(F)
    v1, v2 = {0: one}, {1: one}
    assert sub.add(v1)
    assert not sub.add(v1)
    assert sub.add(v2)
    assert sub.coordinates_of(v2) == {1: one}


def test_matrix_of_identity_map():
    basis = hom_basis(DiagramClass.ALL, 1, 1)
    m = matrix_of(lambda v: v, basis, basis, F)
    assert m.rank() == 2
    assert m.is_bijective()
    for i in range(2):
        for j in range(2):
            assert m.entries[i][j].is_zero() == (i != j)


def test_matrix_of_composition_operator():
    # left multiplication by the split diagram {1},{1'} on Hom([1],[1])
    # sends the merged diagram to the split one and scales the split one
    # by t, so only one direction survives
    basis = hom_basis(DiagramClass.ALL, 1, 1)
    split = LinMorphism.from_diagram(D("1 | 1'"), F)
    m = matrix_of(lambda v: split.compose(v, F), basis, basis, F)
    assert m.rank() == 1


def test_matrix_of_escape_error():
    dom = hom_basis(DiagramClass.EVEN_BLOCKS, 1, 1)
    cod = hom_basis(DiagramClass.EVEN_BLOCKS, 1, 1)
    leak = LinMorphism.from_diagram(D("1 | 1'"), F)

    def fn(v):
        return leak

    with pytest.raises(ValueError, match="escapes"):
        matrix_of(fn, dom, cod, F)


def test_matrix_of_compressed_codomain():
    a = lin("1 * 1 1'")
    b = lin("1 * 1 | 1'")
    cod = CompressedBasis([a + b, a - b], F)
    dom = hom_basis(DiagramClass.ALL, 1, 1)
    m = matrix_of(lambda v: v, dom, cod, F)
    assert m.is_bijective()


def test_hom_basis_respects_class_filter():
    basis = hom_basis(DiagramClass.NON_CROSSING_SIZE_2, 2, 2)
    texts = sorted(d.to_text() for d in basis)
    assert texts == ["1 1' | 2 2'", "1 2 | 1' 2'"]


def test_all_diagrams_matches_hom_basis():
    for m, n in [(0, 0), (1, 1), (2, 1)]:
        assert list(hom_basis(DiagramClass.ALL, m, n)) == sorted(all_diagrams(m, n))
