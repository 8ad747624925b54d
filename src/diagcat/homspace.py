"""Linear combinations of diagrams and exact linear algebra over the field.

LinMorphism is a formal sum of partition diagrams of one shape with
FieldElement coefficients.  Bilinear composition and tensor extend the
diagram operations, with each loop contributing a factor of t.

All elimination, exact and without tolerances, happens in one place:
Subspace, an incremental sparse echelon basis that answers membership and
coordinates over the generators it accepted.  Everything else is built on
it.  CompressedBasis keeps the independent members of a spanning family
(the hom spaces of the Karoubi envelope are one); ExactMatrix feeds its
columns left to right into a Subspace for rank, kernel, solving and
bijectivity; matrix_of builds the matrix of a linear map into a diagram
basis or a compressed basis.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from . import partition
from .partition import DiagramClass, PartitionDiagram
from .scalar import FieldElement, FieldSpec


class LinMorphism:
    """A finite formal sum of diagrams in Hom([dom], [cod])."""

    __slots__ = ("dom", "cod", "terms")

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

    @classmethod
    def zero(cls, dom, cod):
        return cls(dom, cod, {})

    @classmethod
    def from_diagram(cls, d: PartitionDiagram, field: FieldSpec, coeff=None):
        return cls(d.m, d.n, {d: field.one() if coeff is None else coeff})

    def is_zero(self):
        return not self.terms

    def coefficient(self, d, field: FieldSpec):
        return self.terms.get(d, field.zero())

    def support(self):
        return sorted(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinMorphism):
            return NotImplemented
        if (self.dom, self.cod) != (other.dom, other.cod):
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[d] == other.terms[d] for d in self.terms)

    __hash__ = None

    def __add__(self, other):
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise ValueError("shape mismatch in addition")
        terms = dict(self.terms)
        for d, c in other.terms.items():
            cur = terms.get(d)
            terms[d] = c if cur is None else cur + c
        return LinMorphism(self.dom, self.cod, terms)

    def __neg__(self):
        return LinMorphism(self.dom, self.cod, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: FieldElement):
        if c.is_zero():
            return LinMorphism.zero(self.dom, self.cod)
        return LinMorphism(self.dom, self.cod, {d: c * v for d, v in self.terms.items()})

    def compose(self, other: "LinMorphism", field: FieldSpec) -> "LinMorphism":
        """self after other, bilinear, loops becoming powers of t."""
        if other.cod != self.dom:
            raise ValueError(
                f"shape mismatch: cannot compose ({self.dom},{self.cod}) after "
                f"({other.dom},{other.cod})"
            )
        terms = {}
        for df, cf in other.terms.items():
            for dg, cg in self.terms.items():
                diagram, loops = partition.compose(dg, df)
                c = cf * cg
                if loops:
                    c = c * field.t_power(loops)
                cur = terms.get(diagram)
                terms[diagram] = c if cur is None else cur + c
        return LinMorphism(other.dom, self.cod, terms)

    def tensor(self, other: "LinMorphism", field: FieldSpec) -> "LinMorphism":
        terms = {}
        for df, cf in self.terms.items():
            for dg, cg in other.terms.items():
                d = partition.tensor(df, dg)
                c = cf * cg
                cur = terms.get(d)
                terms[d] = c if cur is None else cur + c
        return LinMorphism(self.dom + other.dom, self.cod + other.cod, terms)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            c = self.terms[d]
            if c.is_one():
                parts.append(f"1 * {d.to_text()}")
            else:
                parts.append(f"{c.to_text()} * {d.to_text()}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LinMorphism({self.dom}, {self.cod}, {self.to_text()!r})"


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
    from .scalar import parse_field_element

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

    __slots__ = ("cls", "m", "n", "diagrams")

    def __init__(self, cls: DiagramClass, m, n):
        self.cls = cls
        self.m = m
        self.n = n
        self.diagrams = tuple(
            sorted(d for d in partition.all_diagrams(m, n) if cls.member(d))
        )

    def __len__(self):
        return len(self.diagrams)

    def __iter__(self):
        return iter(self.diagrams)

    def index(self, d):
        lo, hi = 0, len(self.diagrams)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.diagrams[mid] < d:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self.diagrams) and self.diagrams[lo] == d:
            return lo
        raise KeyError(d)


_hom_basis_cache: dict = {}


def hom_basis(cls: DiagramClass, m, n) -> HomBasis:
    key = (cls, m, n)
    basis = _hom_basis_cache.get(key)
    if basis is None:
        basis = _hom_basis_cache[key] = HomBasis(cls, m, n)
    return basis


def sparse(vec) -> dict:
    """The nonzero entries of a dense vector, keyed by position."""
    return {i: c for i, c in enumerate(vec) if not c.is_zero()}


class Subspace:
    """Incrementally built subspace of a coordinate space, exact arithmetic.

    Rows are kept sparse (index -> coefficient dicts) in echelon form with
    unit leading entries.  Accepted generators are numbered 0, 1, ... in
    the order they were accepted, and every row records its expression over
    them, so membership queries can return coordinates over the accepted
    generators.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows = []  # (lead index, row dict, expression over generators)

    def _reduce(self, vec):
        vec = dict(vec)
        expr = {}
        for lead, row, rexpr in self.rows:
            c = vec.get(lead)
            if c is None or c.is_zero():
                continue
            for j, v in row.items():
                cur = vec.get(j)
                nv = (-c * v) if cur is None else cur - c * v
                if nv.is_zero():
                    vec.pop(j, None)
                else:
                    vec[j] = nv
            for g, v in rexpr.items():
                cur = expr.get(g)
                nv = c * v if cur is None else cur + c * v
                if nv.is_zero():
                    expr.pop(g, None)
                else:
                    expr[g] = nv
        return vec, expr

    def add(self, vec) -> bool:
        """Add a generator; returns True if it enlarged the span."""
        residue, expr = self._reduce(vec)
        if not residue:
            return False
        lead = min(residue)
        inv = residue[lead].inv()
        row = {j: inv * v for j, v in residue.items()}
        rexpr = {g: -inv * v for g, v in expr.items()}
        rexpr[len(self.rows)] = inv
        self.rows.append((lead, row, rexpr))
        self.rows.sort(key=lambda r: r[0])
        return True

    def dimension(self):
        return len(self.rows)

    def contains(self, vec) -> bool:
        residue, _ = self._reduce(vec)
        return not residue

    def coordinates_of(self, vec):
        """Coordinates over the accepted generators, or None if outside."""
        residue, expr = self._reduce(vec)
        if residue:
            return None
        return expr


class CompressedBasis:
    """Linearly independent subfamily of a spanning family, with coordinates.

    Candidates become sparse vectors through _vector_of; those that enlarge
    the span are kept as elements, in order.  This class takes LinMorphisms
    and numbers their diagrams in order of first appearance; subclasses
    supply their own _vector_of (KarHom uses slot offsets).
    """

    def __init__(self, candidates: Iterable[LinMorphism], field: FieldSpec):
        candidates = list(candidates)
        self.field = field
        self.diagram_index = {}
        for lin in candidates:
            for d in lin.terms:
                self.diagram_index.setdefault(d, len(self.diagram_index))
        self._keep_independent(candidates)

    def _keep_independent(self, candidates):
        self.space = Subspace(self.field)
        self.elements = [c for c in candidates if self.space.add(self._vector_of(c))]

    def __len__(self):
        return len(self.elements)

    def dimension(self) -> int:
        return len(self.elements)

    def _vector_of(self, lin: LinMorphism):
        """Sparse vector of lin, or None if it uses a diagram no candidate has."""
        index = self.diagram_index
        if any(d not in index for d in lin.terms):
            return None
        return {index[d]: c for d, c in lin.terms.items()}

    def coordinates_of(self, x):
        """Coefficients over self.elements, or None if x is outside the span."""
        vec = self._vector_of(x)
        coords = None if vec is None else self.space.coordinates_of(vec)
        if coords is None:
            return None
        out = [self.field.zero()] * len(self.elements)
        for k, c in coords.items():
            out[k] = c
        return out


class ExactMatrix:
    """Dense matrix over the exact field; solvers eliminate through Subspace.

    The columns go left to right into a Subspace: the accepted ones are the
    pivot columns, and a rejected column's coordinates over the pivot
    columns give its kernel vector.  The kernel basis (one vector per free
    column, with 1 there and 0 at the other free columns) and the solution
    with the free variables at zero are unique, so they are the ones
    reduced row echelon form gives.
    """

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows, cols, entries, field: FieldSpec):
        self.rows = rows
        self.cols = cols
        self.entries = [list(r) for r in entries]
        self.field = field
        if len(self.entries) != rows or any(len(r) != cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[FieldElement]], rows, field):
        entries = [[columns[j][i] for j in range(len(columns))] for i in range(rows)]
        return cls(rows, len(columns), entries, field)

    def _eliminate(self):
        """The sparse columns, the Subspace they went into, and the pivots."""
        space = Subspace(self.field)
        columns = [sparse(row[j] for row in self.entries) for j in range(self.cols)]
        pivots = [j for j, col in enumerate(columns) if space.add(col)]
        return space, columns, pivots

    def rank(self) -> int:
        return len(self._eliminate()[2])

    def kernel_basis(self):
        """Basis vectors (as lists) of the right kernel."""
        space, columns, pivots = self._eliminate()
        zero, one = self.field.zero(), self.field.one()
        pivot_set = set(pivots)
        out = []
        for j, col in enumerate(columns):
            if j in pivot_set:
                continue
            vec = [zero] * self.cols
            vec[j] = one
            for k, c in space.coordinates_of(col).items():
                vec[pivots[k]] = -c
            out.append(vec)
        return out

    def solve(self, b: Sequence[FieldElement]):
        """A particular solution of A x = b (free variables zero), or None."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        space, _, pivots = self._eliminate()
        coords = space.coordinates_of(sparse(b))
        if coords is None:
            return None
        x = [self.field.zero()] * self.cols
        for k, c in coords.items():
            x[pivots[k]] = c
        return x

    def is_bijective(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def multiply_vector(self, x):
        if len(x) != self.cols:
            raise ValueError("vector length mismatch")
        zero = self.field.zero()
        out = []
        for i in range(self.rows):
            acc = zero
            row = self.entries[i]
            for j, v in enumerate(x):
                if not v.is_zero() and not row[j].is_zero():
                    acc = acc + row[j] * v
            out.append(acc)
        return out


def matrix_of(
    fn: Callable,
    domain,
    codomain,
    field: FieldSpec,
) -> ExactMatrix:
    """Matrix of a linear map given by fn on a domain basis.

    domain: HomBasis or a sequence of elements fn accepts; codomain:
    HomBasis (diagram coordinates) or CompressedBasis (KarHom included).
    If an image does not lie in the span of the codomain, raises.
    """
    if isinstance(domain, HomBasis):
        domain = [LinMorphism.from_diagram(d, field) for d in domain]
    lookup = None
    if isinstance(codomain, HomBasis):
        lookup = {d: i for i, d in enumerate(codomain)}
    columns = []
    for elem in domain:
        image = fn(elem)
        if lookup is None:
            col = codomain.coordinates_of(image)
            if col is None:
                raise ValueError("image escapes codomain span")
        else:
            col = [field.zero()] * len(codomain)
            for d, c in image.terms.items():
                if d not in lookup:
                    raise ValueError(
                        f"image escapes codomain span at diagram {d.to_text()!r}"
                    )
                col[lookup[d]] = c
        columns.append(col)
    return ExactMatrix.from_columns(columns, len(codomain), field)
