"""Linear combinations of diagrams and exact linear algebra over the field.

LinMorphism is a formal sum of diagrams of one shape with FieldElement
coefficients: partition diagrams here, cobordisms in cobordism.  Bilinear
composition and tensor extend the partition diagram operations, with each
loop contributing a factor of t.

Every vector is sparse: a dict from position to nonzero entry, with no
zero entries stored.  All elimination, exact and without tolerances,
happens in one place: Subspace, an incremental sparse echelon basis that
answers membership and coordinates over the generators it accepted.  It
drops any explicit zero entry of a vector it is given.  Its rows are not
rescaled to unit leading entries: each keeps its residue and the inverse
of its lead, and every update is one fused sub_product.  A reduction keeps
only its multipliers, and coordinates come from them by back-substitution.
Everything else is built on it.  ExactMatrix takes a sized iterable of
sparse columns and feeds them left to right into one Subspace, as far as
a query needs, resumed by later queries; rank, kernel, solving and
bijectivity all read that one elimination.  A column its producer knows
to be c times an earlier column k comes as a ScaledColumn(k, c), which is
never reduced and which only the kernel basis expands.  matrix_of
builds the matrix of a linear map into any space that gives sparse
coordinates: a diagram basis, a Karoubi hom space of karoubi, or a
quotient hom space of fpfun, and combine sums those hom spaces' kept
vectors over given coordinates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from . import partition
from .partition import DiagramClass, PartitionDiagram
from .scalar import (
    FieldElement,
    FieldSpec,
    parse_field_element,
    sub_product,
    sum_products,
)


class LinMorphism:
    """A finite formal sum of diagrams in Hom([dom], [cod]); a term is any
    hashable, ordered diagram with its shape in .m and .n.  Equality and
    hashing are by shape and terms, which are never changed after a build,
    so the hash is computed on first use and kept.

    The constructor checks each term's shape and drops zero coefficients;
    a sum derived from built ones (sums, negation, scaling, tensor and
    composite) is right by construction and built by derived_lin."""

    __slots__ = ("dom", "cod", "terms", "_hash")

    def __init__(self, dom, cod, terms):
        self.dom = dom
        self.cod = cod
        clean = {}
        for d, c in terms.items():
            if d.m != dom or d.n != cod:
                raise ValueError(
                    f"term shape ({d.m},{d.n}) does not match morphism ({dom},{cod})"
                )
            if not c.is_zero():
                clean[d] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def zero(cls, dom, cod):
        return cls(dom, cod, {})

    @classmethod
    def from_diagram(cls, d: PartitionDiagram, field: FieldSpec, coeff=None):
        return cls(d.m, d.n, {d: field.one() if coeff is None else coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LinMorphism):
            return NotImplemented
        return (self.dom, self.cod, self.terms) == (other.dom, other.cod, other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dom, self.cod, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other):
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise ValueError("shape mismatch in addition")
        terms = dict(self.terms)
        for d, c in other.terms.items():
            cur = terms.get(d)
            if cur is not None:
                c = cur + c
                if c.is_zero():
                    del terms[d]
                    continue
            terms[d] = c
        return derived_lin(self.dom, self.cod, terms)

    def __neg__(self):
        return derived_lin(self.dom, self.cod, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: FieldElement):
        if c.is_zero():
            return LinMorphism.zero(self.dom, self.cod)
        return derived_lin(self.dom, self.cod, {d: c * v for d, v in self.terms.items()})

    def compose(self, other: "LinMorphism", field: FieldSpec) -> "LinMorphism":
        """self after other, bilinear, loops becoming powers of t."""
        return compose_sum(((self, other),), other.dom, self.cod, field)

    def tensor(self, other: "LinMorphism", field: FieldSpec) -> "LinMorphism":
        """Bilinear; distinct pairs of terms give distinct diagrams."""
        terms = {
            partition.tensor(df, dg): cf * cg
            for df, cf in self.terms.items()
            for dg, cg in other.terms.items()
        }
        return derived_lin(self.dom + other.dom, self.cod + other.cod, terms)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            parts.append(f"{self.terms[d].to_text()} * {d.to_text()}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LinMorphism({self.dom}, {self.cod}, {self.to_text()!r})"


def derived_lin(dom, cod, terms) -> LinMorphism:
    """The LinMorphism of terms derived from checked values, each of shape
    (dom, cod) with a nonzero coefficient; nothing is checked."""
    out = object.__new__(LinMorphism)
    out.dom, out.cod, out.terms, out._hash = dom, cod, terms, None
    return out


def compose_sum(pairs, dom, cod, field: FieldSpec) -> LinMorphism:
    """The sum of g after f over the (g, f) pairs of LinMorphisms, every f
    from [dom] and every g into [cod], loops becoming powers of t.

    The composites of all pairs are collected per diagram as (cf, cg, loops)
    triples, and sum_products normalises each coefficient of the result
    once, however many composites land on its diagram.  Any diagram class
    may meet any other here.
    """
    products = {}
    for g, f in pairs:
        if f.cod != g.dom:
            raise ValueError(
                f"shape mismatch: cannot compose ({g.dom},{g.cod}) after "
                f"({f.dom},{f.cod})"
            )
        if f.dom != dom or g.cod != cod:
            raise ValueError(f"shape mismatch: a term of the sum is not in ({dom},{cod})")
        outer = g.terms.items()
        for df, cf in f.terms.items():
            for dg, cg in outer:
                diagram, loops = partition.compose(dg, df)
                triples = products.get(diagram)
                if triples is None:
                    products[diagram] = [(cf, cg, loops)]
                else:
                    triples.append((cf, cg, loops))
    return derived_lin(dom, cod, sum_products(products, field))  # no zero sums


def _split_top_level(text, sep=" + "):
    parts, depth, cur = [], 0, []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and text.startswith(sep, i):
            parts.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        cur.append(ch)
        i += 1
    parts.append("".join(cur))
    return parts


def parse_linmorphism(text, field: FieldSpec, dom=None, cod=None) -> LinMorphism:
    """Parse "c1 * <diagram> + c2 * <diagram> + ..." text."""
    stripped = text.strip()
    if stripped == "0":
        if dom is None or cod is None:
            raise ValueError("parsing the zero morphism needs an explicit shape")
        return LinMorphism.zero(dom, cod)
    terms = {}
    for part in _split_top_level(stripped):
        if " * " in part:
            coeff_text, _, diagram_text = part.partition(" * ")
            coeff = parse_field_element(coeff_text, field)
        else:
            coeff, diagram_text = field.one(), part
        d = PartitionDiagram.parse(diagram_text)
        cur = terms.get(d)
        terms[d] = coeff if cur is None else cur + coeff
    shapes = {(d.m, d.n) for d in terms}
    if len(shapes) > 1:
        raise ValueError(f"mixed term shapes {sorted(shapes)} in {text!r}")
    (m, n), = shapes
    if dom is not None and (m, n) != (dom, cod):
        raise ValueError(
            f"term shape ({m},{n}) does not match requested ({dom},{cod})"
        )
    return LinMorphism(m, n, terms)


class HomBasis:
    """The canonical diagram basis of Hom([m], [n]) in a diagram class."""

    __slots__ = ("cls", "m", "n", "diagrams", "_index", "_through_unit")

    def __init__(self, cls: DiagramClass, m, n):
        self.cls = cls
        self.m = m
        self.n = n
        # The matching classes hold perfect matchings only, far fewer than
        # the Bell(m+n) set partitions of every other class; the
        # non-crossing ones are generated directly.
        walk = {
            DiagramClass.BLOCKS_SIZE_2: partition.all_matchings,
            DiagramClass.NON_CROSSING_SIZE_2: partition.non_crossing_matchings,
        }.get(cls, partition.all_diagrams)
        self.diagrams = tuple(sorted(d for d in walk(m, n) if cls.member(d)))
        self._index = {d: i for i, d in enumerate(self.diagrams)}
        self._through_unit = None

    @property
    def through_unit(self):
        """The through-unit diagrams in basis order, found on the first read."""
        if self._through_unit is None:
            self._through_unit = tuple(filter(partition.factors_through_unit, self.diagrams))
        return self._through_unit

    def __len__(self):
        return len(self.diagrams)

    def __iter__(self):
        return iter(self.diagrams)

    def index(self, d):
        return self._index[d]

    def coordinates_of(self, lin: LinMorphism):
        """Sparse coordinates of lin, or None if it uses another diagram."""
        if any(d not in self._index for d in lin.terms):
            return None
        return {self._index[d]: c for d, c in lin.terms.items()}


@lru_cache(maxsize=1024)
def hom_basis(cls: DiagramClass, m, n) -> HomBasis:
    return HomBasis(cls, m, n)


class Subspace:
    """Incrementally built subspace of a coordinate space, exact arithmetic.

    Rows are kept sparse (index -> coefficient dicts) in echelon form.  A
    row is the residue a generator left after reduction, not rescaled: it
    keeps its leading entry's inverse, computed once, the entries past its
    lead and the number of its generator.  Accepted generators are numbered
    0, 1, ... in the order they were accepted.  A reduction records only
    its multipliers, the c of each c times a row it takes away, and each
    generator keeps those of its own reduction (the L of an LU
    factorisation), so coordinates over the generators, when asked for,
    come from them by back-substitution.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        # (lead index, entries past the lead, inverse of the lead entry,
        # generator number), each row its residue unscaled
        self.rows = []
        # per generator, the multipliers of its reduction (generator -> c)
        self.multipliers = []

    def _reduce(self, vec):
        """(residue, multipliers) with vec = residue + the sum of
        multipliers[k] times generator k's row.

        Taking c times the normalised row r / lead away from vec is taking
        away c * inv times the stored residue; each updated entry
        cur - (c * inv) * v is normalised once, by sub_product.  An
        explicit zero entry of vec is skipped at a lead and left out of the
        residue, so a lead is never zero; filtering what is left rather
        than the input costs nothing for a vector in the span.
        """
        vec = dict(vec)
        multipliers = {}
        for lead, tail, inv, k in self.rows:
            c = vec.pop(lead, None)
            if c is None or c.is_zero():
                continue
            c = multipliers[k] = c * inv
            _take_away(vec, c, tail)
        return {j: c for j, c in vec.items() if not c.is_zero()}, multipliers

    def _back_substitute(self, multipliers):
        """Coordinates over the generators, in ascending order, of the sum
        of multipliers[k] times generator k's row.  Generator k is its row
        plus its own multipliers times earlier rows, so, newest first, x_k
        is the pending multiplier of row k, and x_k * mu is taken away from
        the pending multiplier of each row i that k has a multiplier mu for.
        """
        pending = dict(multipliers)
        coords = []
        for k in range(max(pending, default=-1), -1, -1):
            x = pending.pop(k, None)
            if x is not None:
                coords.append((k, x))
                _take_away(pending, x, self.multipliers[k])
        return dict(reversed(coords))

    def _insert(self, vec):
        """Add a generator: None if accepted, else its multipliers (the
        span is then unchanged)."""
        residue, multipliers = self._reduce(vec)
        if not residue:
            return multipliers
        lead = min(residue)
        inv = residue.pop(lead).inv()
        self.rows.append((lead, residue, inv, len(self.multipliers)))
        self.rows.sort(key=lambda r: r[0])
        self.multipliers.append(multipliers)
        return None

    def add(self, vec) -> bool:
        """Add a generator; returns True if it enlarged the span."""
        return self._insert(vec) is None

    def dimension(self):
        return len(self.rows)

    def contains(self, vec) -> bool:
        residue, _ = self._reduce(vec)
        return not residue

    def coordinates_of(self, vec):
        """Coordinates over the accepted generators, or None if outside."""
        residue, multipliers = self._reduce(vec)
        if residue:
            return None
        return self._back_substitute(multipliers)


def _take_away(target, c, entries):
    """target - c * entries in place: each updated entry normalised once,
    by sub_product, and dropped when it is zero."""
    for j, v in entries.items():
        nv = sub_product(target.get(j), c, v)
        if nv.is_zero():
            target.pop(j, None)
        else:
            target[j] = nv


def combine(vectors, coords, field: FieldSpec):
    """The sparse vector sum of coords[k] * vectors[k], each entry
    normalised once by one sum_products call."""
    sums = {}
    for k, c in coords.items():
        if not c.is_zero():
            for pos, v in vectors[k].items():
                sums.setdefault(pos, []).append((c, v, 0))
    return sum_products(sums, field)


class LazyColumns:
    """A sized iterable of count columns that iterating `columns` makes one
    at a time, for an ExactMatrix that draws only as many as it needs."""

    __slots__ = ("count", "columns")

    def __init__(self, count, columns):
        self.count = count
        self.columns = columns

    def __len__(self):
        return self.count

    def __iter__(self):
        return iter(self.columns)


class ScaledColumn:
    """In place of a column: c (nonzero) times the earlier column k, from
    a producer that knows the column to be that multiple.  Column k is
    one given as a vector, not another ScaledColumn."""

    __slots__ = ("k", "c")

    def __init__(self, k, c):
        self.k = k
        self.c = c


class ExactMatrix:
    """Matrix over the exact field, kept as sparse columns (row -> entry).

    columns is any sized iterable of columns, each a sparse column or a
    ScaledColumn.  They go left to right into one Subspace, as far as a
    query needs, and later queries resume from there: the accepted columns
    are the pivot columns, and a rejected column keeps its multipliers,
    which only the kernel basis expands into that column's kernel vector.
    A ScaledColumn is never a pivot: it is kept as it is, never reduced,
    and the kernel basis expands it as c times column k.  The pivot
    columns of a prefix are the leading pivot columns of the whole
    matrix, so the kernel basis (one
    vector per free column, with 1 there and nothing at the other free
    columns) and the solution with the free variables at zero are unique
    and the ones reduced row echelon form gives, however far the columns
    were drawn.
    """

    __slots__ = (
        "rows", "cols", "columns", "field", "_space", "_pending", "_pivots", "_free"
    )

    def __init__(self, rows, columns, field: FieldSpec):
        self.rows = rows
        self.cols = len(columns)
        self.columns = columns
        self.field = field
        self._space = Subspace(field)
        self._pending = iter(columns)
        # the pivot columns in order, and each other column's multipliers
        # or ScaledColumn
        self._pivots, self._free = [], {}

    def _draw(self) -> bool:
        """Feed the next column into the elimination; False if none is left."""
        col = next(self._pending, None)
        if col is None:
            return False
        j = len(self._pivots) + len(self._free)
        if isinstance(col, ScaledColumn):
            if isinstance(self._free.get(col.k), ScaledColumn):
                raise ValueError("a ScaledColumn must name a column given as a vector")
            self._free[j] = col
            return True
        multipliers = self._space._insert(col)
        if multipliers is None:
            self._pivots.append(j)
        else:
            self._free[j] = multipliers
        return True

    def _draw_all(self):
        while self._draw():
            pass

    def rank(self) -> int:
        self._draw_all()
        return len(self._pivots)

    def kernel_basis(self):
        """Basis vectors (sparse, one per free column) of the right kernel."""
        self._draw_all()
        out = []
        for j in self._free:
            vec = {self._pivots[k]: -c for k, c in self._coordinates(j).items()}
            vec[j] = self.field.one()
            out.append(vec)
        return out

    def _coordinates(self, j):
        """Free column j over the pivot columns, numbered as generators."""
        free = self._free[j]
        if not isinstance(free, ScaledColumn):
            return self._space._back_substitute(free)
        base = self._free.get(free.k)
        if base is None:  # c times a pivot column
            return {self._pivots.index(free.k): free.c}
        return {k: free.c * x for k, x in self._space._back_substitute(base).items()}

    def solve(self, b):
        """A particular sparse solution of A x = b (free variables zero),
        or None.  Columns are drawn only while b's residue over the rows
        found so far is not zero.  The residue is zero at every earlier
        lead, and so is a new row, so reducing the residue again takes
        away only the new row and leaves it reduced; a drawn column that
        adds no row leaves the residue as it is."""
        space = self._space
        residue, multipliers = space._reduce(b)
        while residue:
            found = len(space.rows)
            if not self._draw():
                return None
            if len(space.rows) > found:
                residue, more = space._reduce(residue)
                multipliers.update(more)
        coords = space._back_substitute(multipliers)
        return {self._pivots[k]: c for k, c in coords.items()}

    def is_bijective(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def matrix_of(
    fn: Callable,
    domain,
    codomain,
    field: FieldSpec,
) -> ExactMatrix:
    """Matrix of a linear map given by fn on a domain basis.

    domain: HomBasis or a sequence of elements fn accepts; codomain: any
    space with len() and a coordinates_of that gives sparse coordinates, or
    None outside its span (HomBasis, KarHom, FpHomSpace).
    If an image does not lie in the span of the codomain, raises.
    """
    if isinstance(domain, HomBasis):
        domain = [LinMorphism.from_diagram(d, field) for d in domain]
    columns = []
    for elem in domain:
        col = codomain.coordinates_of(fn(elem))
        if col is None:
            raise ValueError("image escapes codomain span")
        columns.append(col)
    return ExactMatrix(len(codomain), columns, field)
