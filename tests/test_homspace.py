import random
from fractions import Fraction

import pytest

from diagcat import homspace, moebius, partition
from diagcat.homspace import (
    ExactMatrix,
    HomBasis,
    LazyColumns,
    LinMorphism,
    ScaledColumn,
    Subspace,
    hom_basis,
    matrix_of,
    parse_linmorphism,
)
from diagcat.partition import DiagramClass, PartitionDiagram, all_diagrams
from diagcat.scalar import FieldElement, FieldSpec, Poly, specialize, sub_product

F = FieldSpec.generic()
BELL = [1, 1, 2, 5, 15, 52, 203]


def D(text):
    return PartitionDiagram.parse(text)


def lin(text, dom=None, cod=None):
    return parse_linmorphism(text, F, dom=dom, cod=cod)


def vec(entries):
    """Sparse vector of a dense list literal."""
    return {i: c for i, c in enumerate(entries) if not c.is_zero()}


def multiply_vector(a, x):
    """A x for a sparse x, as a sparse vector."""
    out = {}
    for j, v in x.items():
        for i, c in a.columns[j].items():
            cur = out.get(i)
            out[i] = c * v if cur is None else cur + c * v
    return {i: c for i, c in out.items() if not c.is_zero()}


def matrix(grid, field=F):
    """ExactMatrix of a dense row-major grid literal."""
    cols = len(grid[0]) if grid else 0
    return ExactMatrix(len(grid), [vec([row[j] for row in grid]) for j in range(cols)], field)


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


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_linmorphisms_are_equal_and_hash_equal_by_value(field):
    """Terms inserted in either order, or with an explicit zero, give equal
    morphisms with equal hashes; a changed coefficient gives another."""
    rng = random.Random(71)
    basis = tuple(hom_basis(DiagramClass.ALL, 2, 1))
    for _ in range(30):
        chosen = rng.sample(basis, rng.randint(2, len(basis) - 1))
        pairs = [(d, random_rf(rng)) for d in chosen]
        if not field.is_generic():
            pairs = [(d, specialize(c, field.t_value)) for d, c in pairs]
        forward = LinMorphism(2, 1, dict(pairs))
        backward = LinMorphism(2, 1, dict(reversed(pairs)))
        spare = next(d for d in basis if d not in chosen)
        padded = LinMorphism(2, 1, {**dict(pairs), spare: field.zero()})
        assert list(forward.terms) != list(backward.terms)
        for other in (backward, padded):
            assert other == forward and hash(other) == hash(forward)
        assert len({forward, backward, padded}) == 1
        changed = forward + LinMorphism.from_diagram(chosen[0], field)
        assert changed != forward and len({forward, changed}) == 2


def field_scalar(rng, field):
    """A random scalar of field, zero in about one draw of seven."""
    if rng.random() < 1 / 7:
        return field.zero()
    c = random_rf(rng)
    return c if field.is_generic() else specialize(c, field.t_value)


def checked_sum(dom, cod, pairs):
    """The checked LinMorphism of (diagram, coefficient) pairs, repeated
    diagrams summed and zero sums kept for the constructor to drop."""
    terms = {}
    for d, c in pairs:
        terms[d] = terms[d] + c if d in terms else c
    return LinMorphism(dom, cod, terms)


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_every_derived_sum_equals_the_checked_build_of_its_terms(field):
    """Sums, differences, scalings and tensors are built unchecked; each
    equals the checked LinMorphism of the same terms and keeps no zero,
    also where coefficients cancel."""
    rng = random.Random(2701)
    for _ in range(40):
        basis = tuple(hom_basis(DiagramClass.ALL, rng.randint(0, 2), rng.randint(0, 2)))
        dom, cod = basis[0].m, basis[0].n
        pa = [(d, field_scalar(rng, field)) for d in rng.sample(basis, min(3, len(basis)))]
        pb = [(d, field_scalar(rng, field)) for d in rng.sample(basis, min(3, len(basis)))]
        pb += [(d, -c) for d, c in pa if rng.random() < 0.5]  # cancels a term of a
        a, b = checked_sum(dom, cod, pa), checked_sum(dom, cod, pb)
        c = field_scalar(rng, field)
        other = tuple(hom_basis(DiagramClass.ALL, rng.randint(0, 2), rng.randint(0, 1)))
        pe = [(d, field_scalar(rng, field)) for d in rng.sample(other, min(2, len(other)))]
        e = checked_sum(other[0].m, other[0].n, pe)
        builds = [
            (a + b, checked_sum(dom, cod, [*a.terms.items(), *b.terms.items()])),
            (a - b, checked_sum(dom, cod, [*a.terms.items(), *((d, -v) for d, v in b.terms.items())])),
            (-a, checked_sum(dom, cod, [(d, -v) for d, v in a.terms.items()])),
            (a.scale(c), checked_sum(dom, cod, [(d, c * v) for d, v in a.terms.items()])),
            (
                a.tensor(e, field),
                checked_sum(dom + e.dom, cod + e.cod, [
                    (partition.tensor(da, de), ca * ce)
                    for da, ca in a.terms.items()
                    for de, ce in e.terms.items()
                ]),
            ),
        ]
        for derived, checked in builds:
            assert derived == checked
            assert not any(v.is_zero() for v in derived.terms.values())
        assert (a - a).terms == {}


def test_a_formal_sum_keeps_its_hash():
    """The hash of a LinMorphism is computed on first use and kept, by
    the constructor and by every derived build alike."""
    for field in (F, FieldSpec.at(Fraction(5, 2))):
        a = parse_linmorphism("1/2 * 1 1' + 3 * 1 | 1'", field)
        xe = moebius.x_e(2, field)
        fresh = (a, a + a, -a, a.scale(field.rational(3)), a.tensor(a, field), a.compose(a, field))
        assert all(m._hash is None for m in fresh)
        for m in (*fresh, xe):
            want = hash((m.dom, m.cod, frozenset(m.terms.items())))
            assert hash(m) == want and m._hash == want


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


def test_matrix_rank_kernel_solve():
    one = F.one()
    two = F.rational(Fraction(2))
    grid = [[one, two], [two, F.rational(Fraction(4))]]
    m = matrix(grid)
    assert m.rank() == 1
    assert not m.is_bijective()
    ker = m.kernel_basis()
    assert len(ker) == 1
    for row in grid:
        s = F.zero()
        for col, v in ker[0].items():
            s = s + row[col] * v
        assert s.is_zero()
    inv = matrix([[one, two], [F.zero(), one]])
    assert inv.is_bijective()
    sol = inv.solve(vec([two, one]))
    assert sol is not None
    assert multiply_vector(inv, sol) == vec([two, one])


def test_matrix_solve_inconsistent():
    one = F.one()
    m = matrix([[one], [one]])
    assert m.solve(vec([one, F.zero()])) is None


def test_matrix_random_solve_roundtrip():
    rng = random.Random(31)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = [
            [F.rational(Fraction(rng.randint(-3, 3))) for _ in range(cols)]
            for _ in range(rows)
        ]
        m = matrix(entries)
        x0 = vec([F.rational(Fraction(rng.randint(-2, 2))) for _ in range(cols)])
        b = multiply_vector(m, x0)
        sol = m.solve(b)
        assert sol is not None
        assert multiply_vector(m, sol) == b


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
    one = field.one()
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        columns = _random_columns(rng, field, rows, cols)
        columns = [vec(col) for col in columns]
        m = ExactMatrix(rows, columns, field)
        prefix = [ExactMatrix(rows, columns[:k], field).rank()
                  for k in range(cols + 1)]
        free = [j for j in range(cols) if prefix[j + 1] == prefix[j]]
        kernel = m.kernel_basis()
        assert len(kernel) == cols - m.rank() == len(free)
        for v, j in zip(kernel, free):
            assert multiply_vector(m, v) == {}
            assert v[j] == one
            assert all(k not in v for k in free if k != j)
        x0 = vec([field.rational(Fraction(rng.randint(-2, 2))) for _ in range(cols)])
        b = multiply_vector(m, x0)
        x = m.solve(b)
        assert multiply_vector(m, x) == b
        assert all(j not in x for j in free)
        units = ({r: one} for r in range(rows))
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
            assert (i in m.columns[j]) == (i == j)


def test_matrix_degenerate_shapes():
    one = F.one()
    empty_rows = ExactMatrix(0, [{}, {}], F)
    assert empty_rows.rank() == 0
    assert empty_rows.kernel_basis() == [{0: one}, {1: one}]
    assert empty_rows.solve({}) == {}
    no_columns = ExactMatrix(2, [], F)
    assert no_columns.solve({0: one}) is None


def test_matrix_drops_explicit_zeros():
    # a zero kept in a column would become a pivot lead and be inverted
    m = ExactMatrix(1, [{0: F.zero()}], F)
    assert m.rank() == 0
    assert m.kernel_basis() == [{0: F.one()}]
    sub = Subspace(F)
    assert sub.add({0: F.zero(), 1: F.one()})
    assert [(lead, tail) for lead, tail, _, _ in sub.rows] == [(1, {})]


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_subspace_drops_explicit_zero_entries(field):
    sub = Subspace(field)
    assert sub.add({0: field.zero(), 1: field.one()})
    assert sub.dimension() == 1
    assert sub.contains({0: field.zero()})
    assert sub.coordinates_of({0: field.zero(), 1: field.t()}) == {0: field.t()}


def test_matrix_eliminates_once_for_every_query(monkeypatch):
    calls = []
    insert = Subspace._insert

    def counted_insert(self, vec):
        calls.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(Subspace, "_insert", counted_insert)
    one, t = F.one(), F.t()
    m = matrix([[one, t, one + t], [t, one, one + t], [one, one, F.rational(2)]])
    assert m.rank() == 2
    assert m.kernel_basis() == [{0: -one, 1: -one, 2: one}]
    assert m.solve({0: one, 1: t, 2: one}) == {0: one}
    assert m.solve({0: one}) is None
    assert not m.is_bijective()
    assert len(calls) == m.cols == 3


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


def test_hom_basis_respects_class_filter():
    basis = hom_basis(DiagramClass.NON_CROSSING_SIZE_2, 2, 2)
    texts = sorted(d.to_text() for d in basis)
    assert texts == ["1 1' | 2 2'", "1 2 | 1' 2'"]


def test_all_diagrams_matches_hom_basis():
    for m, n in [(0, 0), (1, 1), (2, 1)]:
        assert list(hom_basis(DiagramClass.ALL, m, n)) == sorted(all_diagrams(m, n))


@pytest.mark.parametrize(
    "cls", [DiagramClass.BLOCKS_SIZE_2, DiagramClass.NON_CROSSING_SIZE_2],
    ids=lambda c: c.value,
)
def test_matching_bases_equal_the_filtered_bell_enumeration(cls):
    for size in range(9):
        for m in range(size + 1):
            filtered = sorted(d for d in all_diagrams(m, size - m) if cls.member(d))
            assert HomBasis(cls, m, size - m).diagrams == tuple(filtered)


# ---- elimination against a dense Fraction reference ------------------------------

T0S = (Fraction(5, 2), Fraction(-1, 3), Fraction(7))


def random_rf(rng):
    """A Q(t) scalar with poles at 0 and 1 allowed, none at any t0 of T0S."""
    num = Poly(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))
    if num.is_zero():
        num = Poly([1])
    den = rng.choice([Poly([1]), Poly([0, 1]), Poly([-1, 1]), Poly([0, -1, 1]), Poly([2, 0, 1])])
    return FieldElement.ratfunc(num, den)


def combination(rng, field_scalar, columns, size):
    """A random combination of up to size of the columns, zeros dropped."""
    combo = {}
    for col in rng.sample(columns, min(size, len(columns))):
        c = field_scalar(rng)
        for i, v in col.items():
            combo[i] = combo[i] + c * v if i in combo else c * v
    return {i: v for i, v in combo.items() if not v.is_zero()}


def random_system(rng, field_scalar):
    """Sparse columns, with zero columns and columns dependent on earlier
    ones, and two right-hand sides: one in the span, one random; every
    vector stores nonzero entries only, as Subspace requires."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    columns = []
    for _ in range(cols):
        kind = rng.random()
        if kind < 0.15:
            columns.append({})
        elif kind < 0.4 and columns:
            columns.append(combination(rng, field_scalar, columns, 2))
        else:
            columns.append(
                {i: field_scalar(rng) for i in rng.sample(range(rows), rng.randint(1, rows))}
            )
    inside = {}
    for col in rng.sample(columns, min(2, len(columns))):
        for i, v in col.items():
            inside[i] = inside[i] + v if i in inside else v
    inside = {i: v for i, v in inside.items() if not v.is_zero()}
    random_b = {i: field_scalar(rng) for i in rng.sample(range(rows), rng.randint(1, rows))}
    return rows, columns, (inside, random_b)


def dependent_system(rng, field_scalar):
    """Like random_system, but a few random columns are followed by many
    that combine up to three columns before them, dependent ones among
    them, so that each reduction leaves many multipliers; the right-hand
    side in the span combines up to five columns."""
    rows = rng.randint(2, 6)
    columns = [
        {i: field_scalar(rng) for i in rng.sample(range(rows), rng.randint(1, rows))}
        for _ in range(rng.randint(2, rows))
    ]
    for _ in range(rng.randint(5, 10)):
        columns.append(combination(rng, field_scalar, columns, 3))
    rng.shuffle(columns)
    inside = combination(rng, field_scalar, columns, 5)
    random_b = {i: field_scalar(rng) for i in rng.sample(range(rows), rng.randint(1, rows))}
    return rows, columns, (inside, random_b)


def dense_rref(rows, columns):
    """Pivot columns and the reduced row echelon form of a dense Fraction
    matrix given as a list of column lists."""
    cols = len(columns)
    grid = [[columns[j][i] for j in range(cols)] for i in range(rows)]
    pivots, r = [], 0
    for j in range(cols):
        p = next((i for i in range(r, rows) if grid[i][j] != 0), None)
        if p is None:
            continue
        grid[r], grid[p] = grid[p], grid[r]
        lead = grid[r][j]
        grid[r] = [v / lead for v in grid[r]]
        for i in range(rows):
            if i != r and grid[i][j] != 0:
                f = grid[i][j]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[r])]
        pivots.append(j)
        r += 1
    return pivots, grid


def reference(rows, columns, b):
    """(rank, pivots, kernel basis, solution or None) from the dense RREF,
    vectors as dicts without zeros."""
    pivots, grid = dense_rref(rows, columns)
    cols = len(columns)
    kernel = []
    for j in range(cols):
        if j not in pivots:
            v = {j: Fraction(1)}
            for k, p in enumerate(pivots):
                if grid[k][j] != 0:
                    v[p] = -grid[k][j]
            kernel.append(v)
    aug_pivots, aug = dense_rref(rows, columns + [b])
    if cols in aug_pivots:
        solution = None
    else:
        solution = {p: aug[k][cols] for k, p in enumerate(aug_pivots) if aug[k][cols] != 0}
    return len(pivots), pivots, kernel, solution


def dense(rows, vec, value):
    return [value(vec[i]) if i in vec else Fraction(0) for i in range(rows)]


def results(field, rows, columns, b):
    """rank, pivot columns, kernel basis and solution from ExactMatrix, and
    the Subspace's verdicts and coordinates over the accepted columns."""
    m = ExactMatrix(rows, columns, field)
    space = Subspace(field)
    accepted = [j for j, col in enumerate(columns) if space.add(col)]
    coords = space.coordinates_of(b)
    assert space.contains(b) == (coords is not None)
    if coords is not None:
        assert list(coords) == sorted(coords)
        coords = {accepted[k]: c for k, c in coords.items()}
    solution = m.solve(b)
    assert coords == solution
    kernel = m.kernel_basis()
    # a dependent column's coordinates over the pivot columns are its
    # kernel vector's negated entries
    free = [j for j in range(len(columns)) if j not in accepted]
    for j, vec in zip(free, kernel):
        at = {accepted[k]: -c for k, c in space.coordinates_of(columns[j]).items()}
        assert {**at, j: field.one()} == vec
    return m.rank(), accepted, kernel, solution


def as_fractions(vec, t0=None):
    """vec's entries as Fractions, evaluated at t0 if given, zeros dropped."""
    if vec is None:
        return None
    values = {k: (c.q if t0 is None else specialize(c, t0).q) for k, c in vec.items()}
    return {k: q for k, q in values.items() if q}


T_RATIONAL = FieldSpec.at(Fraction(5, 2))


def rational_scalar(rng):
    numerator = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    return T_RATIONAL.rational(Fraction(numerator, rng.randint(1, 3)))


def assert_rational_t_equals_the_dense_reference(system, seed, rounds):
    field = T_RATIONAL
    rng = random.Random(seed)
    for _ in range(rounds):
        rows, columns, bs = system(rng, rational_scalar)
        fractions = [dense(rows, col, lambda c: c.q) for col in columns]
        for b in bs:
            rank, pivots, kernel, solution = results(field, rows, columns, b)
            ref = reference(rows, fractions, dense(rows, b, lambda c: c.q))
            assert (rank, pivots) == ref[:2]
            assert [as_fractions(v) for v in kernel] == ref[2]
            assert as_fractions(solution) == ref[3]


def test_elimination_at_a_rational_t_equals_the_dense_reference():
    assert_rational_t_equals_the_dense_reference(random_system, 29, 60)


def test_many_dependent_columns_at_a_rational_t_equal_the_dense_reference():
    assert_rational_t_equals_the_dense_reference(dependent_system, 37, 40)


def qt_points_matching_the_dense_reference(system, seed, rounds):
    """Elimination over Q(t) specialised at each t0 of T0S against the
    dense reference at t0; the number of generic points compared."""
    field = FieldSpec.generic()
    rng = random.Random(seed)
    generic_points = 0
    for _ in range(rounds):
        rows, columns, bs = system(rng, random_rf)
        for b in bs:
            rank, pivots, kernel, solution = results(field, rows, columns, b)
            for t0 in T0S:
                at_t0 = [dense(rows, col, lambda c: specialize(c, t0).q) for col in columns]
                ref = reference(rows, at_t0, dense(rows, b, lambda c: specialize(c, t0).q))
                # the rank can only drop at a special t0; elsewhere the RREF,
                # its kernel basis and its solution specialise
                assert ref[0] <= rank
                if (ref[0], ref[1]) != (rank, pivots) or (solution is None) != (ref[3] is None):
                    continue
                generic_points += 1
                assert [as_fractions(v, t0) for v in kernel] == ref[2]
                assert as_fractions(solution, t0) == ref[3]
    return generic_points


def test_elimination_over_qt_specialises_to_the_dense_reference():
    assert qt_points_matching_the_dense_reference(random_system, 31, 40) >= 200


def test_many_dependent_columns_over_qt_specialise_to_the_dense_reference():
    assert qt_points_matching_the_dense_reference(dependent_system, 43, 6) >= 30


def counted_columns(columns, drawn):
    """columns as a sized iterable that appends to drawn each column it
    hands out."""

    def each():
        for col in columns:
            drawn.append(col)
            yield col

    return LazyColumns(len(columns), each())


@pytest.mark.parametrize("field", [F, T_RATIONAL], ids=["generic", "t=5/2"])
def test_queries_in_any_order_equal_the_dense_reference(field):
    """solve draws columns only until b lies in their span; a solve on a
    fresh matrix, after rank(), or among several in a row, and rank() and
    kernel_basis() after a solve that stopped early, all give the dense
    reference's answers (over Q(t) at each generic point of T0S)."""
    scalar, points = (random_rf, T0S) if field is F else (rational_scalar, (None,))
    rng = random.Random(53)
    stopped_early = inconsistent = compared = 0
    rounds = 6 if field is F else 40
    for _ in range(rounds):
        rows, columns, (inside, random_b) = dependent_system(rng, scalar)
        # an early combination, the random b (inconsistent where the rank
        # falls short), and one of up to five columns
        bs = [combination(rng, scalar, columns[:2], 2), random_b, inside]
        drawn = []
        m = ExactMatrix(rows, counted_columns(columns, drawn), field)
        first = m.solve(bs[0])
        # the shortest prefix whose span holds b: up to its last pivot used
        assert len(drawn) == max(first, default=-1) + 1
        stopped_early += len(drawn) < len(columns)
        rank, kernel, pivots = m.rank(), m.kernel_basis(), m._pivots
        assert len(drawn) == m.cols == len(columns)
        fresh = [ExactMatrix(rows, columns, field).solve(b) for b in bs]
        assert first == fresh[0]
        in_a_row = ExactMatrix(rows, columns, field)
        assert [in_a_row.solve(b) for b in bs] == fresh
        after_rank = ExactMatrix(rows, columns, field)
        assert after_rank.rank() == rank
        assert [after_rank.solve(b) for b in bs] == fresh
        inconsistent += fresh.count(None)
        for t0 in points:
            def value(c):
                return c.q if t0 is None else specialize(c, t0).q

            at = [dense(rows, col, value) for col in columns]
            for b, x in zip(bs, fresh):
                ref = reference(rows, at, dense(rows, b, value))
                # the rank can only drop at a special t0 of Q(t)
                if (ref[0], ref[1]) != (rank, pivots) or (x is None) != (ref[3] is None):
                    assert t0 is not None and ref[0] <= rank
                    continue
                compared += 1
                assert [as_fractions(v, t0) for v in kernel] == ref[2]
                assert as_fractions(x, t0) == ref[3]
    assert stopped_early > 0 and inconsistent > 0 and compared >= 2 * rounds


@pytest.mark.parametrize("field", [F, T_RATIONAL], ids=["generic", "t=5/2"])
def test_rank_and_add_do_no_arithmetic_on_multipliers(field, monkeypatch):
    """Every sub_product of rank() and Subspace.add updates a row entry;
    only coordinates back-substitute the multipliers."""
    calls = {"row": 0, "multiplier": 0}
    substituting = []
    back_substitute = Subspace._back_substitute

    def counted(cur, a, b):
        calls["multiplier" if substituting else "row"] += 1
        return sub_product(cur, a, b)

    def counted_back_substitute(self, multipliers):
        substituting.append(True)
        try:
            return back_substitute(self, multipliers)
        finally:
            substituting.pop()

    monkeypatch.setattr(homspace, "sub_product", counted)
    monkeypatch.setattr(Subspace, "_back_substitute", counted_back_substitute)
    scalar = random_rf if field is F else rational_scalar
    rows, columns, _ = dependent_system(random.Random(41), scalar)
    m = ExactMatrix(rows, columns, field)
    rank = m.rank()
    updates = calls["row"]
    # one update per entry past the lead of each row a reduction used, and
    # a reduction used the rows it has multipliers for
    elimination, free = m._space, m._free
    tails = {k: len(tail) for _, tail, _, k in elimination.rows}
    used = elimination.multipliers + list(free.values())
    assert updates == sum(tails[k] for multipliers in used for k in multipliers) > 0
    space = Subspace(field)
    assert sum(space.add(col) for col in columns) == rank < len(columns)
    assert calls == {"row": 2 * updates, "multiplier": 0}
    # the second column is reduced by the first, so expressing the third
    # over the columns takes one back-substitution step
    one = field.one()
    c0, c1 = {0: one, 1: one}, {0: one, 2: one}
    m = ExactMatrix(3, [c0, c1, {0: field.rational(2), 1: one, 2: one}], field)
    assert m.rank() == 2
    assert calls["multiplier"] == 0
    assert m.kernel_basis() == [{0: -one, 1: -one, 2: one}]
    assert calls["multiplier"] == 1


@pytest.mark.parametrize("field", [F, FieldSpec.at(Fraction(5, 2))], ids=["generic", "t=5/2"])
def test_insert_inverts_each_lead_once_and_never_rescales_a_row(field, monkeypatch):
    calls = {"inv": 0, "mul": 0}
    inv, mul = FieldElement.inv, FieldElement.__mul__

    def counted_inv(self):
        calls["inv"] += 1
        return inv(self)

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "inv", counted_inv)
    monkeypatch.setattr(FieldElement, "__mul__", counted_mul)
    two, three = field.rational(Fraction(2)), field.rational(Fraction(3))
    t = field.t()
    sub = Subspace(field)
    # disjoint supports: nothing to reduce, one inverse per row, no product
    assert sub.add({0: two, 1: t, 2: three})
    assert sub.add({3: three, 4: two, 5: t})
    assert calls == {"inv": 2, "mul": 0}
    # reducing by one row takes one product, c times that row's inverse
    assert sub.add({0: three, 6: two})
    assert calls == {"inv": 3, "mul": 1}
    # a generator in the span is not inverted
    assert not sub.add({0: two, 1: t, 2: three})
    assert calls == {"inv": 3, "mul": 2}


@pytest.mark.parametrize("field", [F, T_RATIONAL], ids=["generic", "t=5/2"])
def test_scaled_columns_answer_as_the_columns_they_stand_for(field):
    """A ScaledColumn(k, c) in place of c times column k, pointing at a
    pivot or a dependent column, gives the same column count, rank,
    kernel basis and solutions as the explicit column, and is never a
    pivot."""
    scalar = random_rf if field is F else rational_scalar
    rng = random.Random(61)
    scaled = 0
    for _ in range(12):
        rows, columns, bs = dependent_system(rng, scalar)
        explicit, stand_ins = list(columns), list(columns)
        for _ in range(rng.randint(1, 4)):
            at, c = rng.randrange(len(explicit) + 1), scalar(rng)
            given = [n for n in range(at) if not isinstance(stand_ins[n], ScaledColumn)]
            if not given or c.is_zero():
                continue
            k = rng.choice(given)
            col = {i: c * v for i, v in explicit[k].items()}
            # later columns keep pointing at the columns they pointed at
            stand_ins = [
                ScaledColumn(x.k + (x.k >= at), x.c) if isinstance(x, ScaledColumn) else x
                for x in stand_ins
            ]
            explicit.insert(at, col)
            stand_ins.insert(at, ScaledColumn(k, c))
            scaled += 1
        full, short = ExactMatrix(rows, explicit, field), ExactMatrix(rows, stand_ins, field)
        assert short.cols == full.cols == len(explicit)
        for b in bs:
            assert short.solve(b) == full.solve(b)
        assert short.rank() == full.rank()
        assert short.kernel_basis() == full.kernel_basis()
        assert not any(isinstance(stand_ins[j], ScaledColumn) for j in short._pivots)
    assert scaled > 10


def test_a_scaled_column_names_a_column_given_as_a_vector():
    one = F.one()
    chain = [{0: one}, ScaledColumn(0, one), ScaledColumn(1, one)]
    matrix = ExactMatrix(1, chain, F)
    with pytest.raises(ValueError):
        matrix.rank()


def test_the_through_unit_sub_basis_is_the_filtered_basis(monkeypatch):
    """Every class and m+n <= 6: the diagrams that factor through the unit,
    in basis order, found on the first read and kept."""
    calls = []
    ftu = partition.factors_through_unit
    monkeypatch.setattr(partition, "factors_through_unit", lambda d: calls.append(d) or ftu(d))
    for cls in DiagramClass:
        for total in range(7):
            for m in range(total + 1):
                basis = HomBasis(cls, m, total - m)
                assert calls == []
                want = tuple(d for d in basis.diagrams if ftu(d))
                assert basis.through_unit == want
                assert len(calls) == len(basis)
                assert basis.through_unit is basis.through_unit
                assert len(calls) == len(basis)
                calls.clear()
