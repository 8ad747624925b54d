"""Additive idempotent completion of the diagram categories.

Objects are tuples of word lengths cut by an idempotent matrix E of
LinMorphisms; the familiar summand list ([w1]@e1 ⊕ [w2]@e2 ⊕ ...) is the
block-diagonal case, and single summands come from kar_object.  Keeping a
full matrix cut instead of one idempotent per summand costs nothing here
and lets later constructions (weak kernels of presented functors) stay
inside the same type.

Morphisms are matrices of LinMorphisms satisfying the absorption law
E_cod . F . E_dom = F.  Arithmetic preserves absorption, so only raw
constructions are revalidated.
"""

from __future__ import annotations

from fractions import Fraction

from .homspace import CompressedBasis, LinMorphism, hom_basis, matrix_of
from .moebius import special_morphisms, symmetrizer, x_e, x_j
from .partition import DiagramClass, PartitionDiagram
from .scalar import FieldElement, FieldSpec


def _entry_shapes_ok(entries, dom_words, cod_words):
    if len(entries) != len(cod_words):
        return False
    for row in entries:
        if len(row) != len(dom_words):
            return False
    for i, row in enumerate(entries):
        for j, lin in enumerate(row):
            if lin.dom != dom_words[j] or lin.cod != cod_words[i]:
                return False
    return True


def _mat_zero(dom_words, cod_words):
    return tuple(
        tuple(LinMorphism.zero(w_dom, w_cod) for w_dom in dom_words)
        for w_cod in cod_words
    )


def _mat_add(a, b):
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def _mat_scale(a, c):
    return tuple(tuple(x.scale(c) for x in row) for row in a)


def _mat_compose(b, a, field):
    """Matrix product, entry-wise g after f."""
    if not a or not b:
        return ()
    inner = len(a)
    out = []
    for i in range(len(b)):
        row = []
        for j in range(len(a[0])):
            acc = LinMorphism.zero(a[0][j].dom, b[i][0].cod)
            for k in range(inner):
                if b[i][k].is_zero() or a[k][j].is_zero():
                    continue
                acc = acc + b[i][k].compose(a[k][j], field)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


class KarObject:
    """Words cut by an idempotent matrix over a fixed diagram class."""

    __slots__ = ("cls", "field", "words", "cut", "names")

    def __init__(self, cls: DiagramClass, field: FieldSpec, words, cut, names=None):
        words = tuple(words)
        cut = tuple(tuple(row) for row in cut)
        if not _entry_shapes_ok(cut, words, words):
            raise ValueError("cut matrix shape does not match words")
        for row in cut:
            for lin in row:
                for d in lin.terms:
                    if not cls.member(d):
                        raise ValueError(
                            f"cut term {d.to_text()} is not in class {cls.value}"
                        )
        square = _mat_compose(cut, cut, field)
        if not _mat_eq(square, cut):
            residual = _mat_add(square, _mat_scale(cut, -field.one()))
            raise ValueError(
                "cut is not idempotent; residual e.e - e = "
                + "; ".join(x.to_text() for row in residual for x in row)
            )
        self.cls = cls
        self.field = field
        self.words = words
        self.cut = cut
        self.names = tuple(names) if names is not None else None

    @classmethod
    def word(cls, w: int, diagram_class: DiagramClass, field: FieldSpec):
        """The plain object [w] with identity cut."""
        e = LinMorphism.from_diagram(PartitionDiagram.identity(w), field)
        return cls(diagram_class, field, (w,), ((e,),), names=("id",))

    @classmethod
    def zero(cls, diagram_class: DiagramClass, field: FieldSpec):
        return cls(diagram_class, field, (), (), names=())

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.cut for x in row)

    def is_block_diagonal(self) -> bool:
        return all(
            i == j or x.is_zero()
            for i, row in enumerate(self.cut)
            for j, x in enumerate(row)
        )

    @property
    def summands(self):
        """(word, idempotent) pairs; only defined for block-diagonal cuts."""
        if not self.is_block_diagonal():
            raise ValueError("object cut is not block-diagonal")
        return [(w, self.cut[i][i]) for i, w in enumerate(self.words)]

    def key(self):
        return (
            self.cls,
            self.words,
            tuple(tuple(sorted((d, c.to_text()) for d, c in x.terms.items()))
                  for row in self.cut for x in row),
        )

    def __eq__(self, other):
        return isinstance(other, KarObject) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_text(self) -> str:
        if not self.words:
            return "0"
        if self.is_block_diagonal():
            parts = []
            for i, w in enumerate(self.words):
                if self.names is not None and i < len(self.names):
                    label = self.names[i]
                else:
                    label = self.cut[i][i].to_text()
                parts.append(f"[{w}]@{label}")
            return " ⊕ ".join(parts)
        body = "; ".join(x.to_text() for row in self.cut for x in row)
        words = ",".join(str(w) for w in self.words)
        return f"[{words}]@({body})"

    def __repr__(self):
        return f"KarObject({self.to_text()!r})"


def named_idempotent(name: str, word: int, field: FieldSpec) -> LinMorphism:
    """Resolve id / x_j / e_j / x_j*e_j / e_1_sprime at the given word."""
    if name == "id":
        return LinMorphism.from_diagram(PartitionDiagram.identity(word), field)
    if name == "x_j":
        return x_j(word, field)
    if name == "e_j":
        return symmetrizer(word, field)
    if name == "x_j*e_j":
        return x_e(word, field)
    if name == "e_1_sprime":
        return special_morphisms("e_1_sprime", word, field)
    raise ValueError(f"unknown idempotent name {name!r}")


def kar_object(
    word: int,
    e: LinMorphism,
    cls: DiagramClass,
    field: FieldSpec,
    name: str | None = None,
) -> KarObject:
    """Single-summand object; KarObject rejects a non-idempotent e."""
    if e.dom != word or e.cod != word:
        raise ValueError("idempotent shape does not match word")
    return KarObject(
        cls, field, (word,), ((e,),), names=None if name is None else (name,)
    )


def parse_kar_object(text: str, cls: DiagramClass, field: FieldSpec) -> KarObject:
    """Parse the block-diagonal text form [w]@name ⊕ [w]@name."""
    text = text.strip()
    if text == "0":
        return KarObject.zero(cls, field)
    parts = [p.strip() for p in text.replace("⊕", "(+)").split("(+)")]
    obj = None
    for part in parts:
        if not part.startswith("[") or "]@" not in part:
            raise ValueError(f"bad summand {part!r}; expected [w]@name")
        w_text, _, label = part[1:].partition("]@")
        if not w_text.isdigit():
            raise ValueError(f"bad word length {w_text!r}")
        word = int(w_text)
        try:
            e = named_idempotent(label, word, field)
            name = label
        except ValueError:
            from .homspace import parse_linmorphism

            e = parse_linmorphism(label, field, dom=word, cod=word)
            name = None
        nxt = kar_object(word, e, cls, field, name=name)
        obj = nxt if obj is None else direct_sum(obj, nxt)
    return obj


def direct_sum(a: KarObject, b: KarObject) -> KarObject:
    if a.cls != b.cls:
        raise ValueError("class mismatch in direct sum")
    words = a.words + b.words
    na, nb = len(a.words), len(b.words)
    cut = []
    for i in range(na + nb):
        row = []
        for j in range(na + nb):
            if i < na and j < na:
                row.append(a.cut[i][j])
            elif i >= na and j >= na:
                row.append(b.cut[i - na][j - na])
            else:
                row.append(LinMorphism.zero(words[j], words[i]))
        cut.append(tuple(row))
    names = None
    if a.names is not None and b.names is not None:
        names = a.names + b.names
    return KarObject(a.cls, a.field, words, cut, names=names)


def tensor_object(a: KarObject, b: KarObject) -> KarObject:
    if a.cls != b.cls:
        raise ValueError("class mismatch in tensor")
    field = a.field
    words = tuple(
        wa + wb for wa in a.words for wb in b.words
    )
    cut = []
    for ia in range(len(a.words)):
        for ib in range(len(b.words)):
            row = []
            for ja in range(len(a.words)):
                for jb in range(len(b.words)):
                    row.append(a.cut[ia][ja].tensor(b.cut[ib][jb], field))
            cut.append(tuple(row))
    return KarObject(a.cls, field, words, cut)


class KarMorphism:
    """Matrix of LinMorphisms between KarObjects, absorbed by the cuts."""

    __slots__ = ("dom", "cod", "entries")

    def __init__(self, dom: KarObject, cod: KarObject, entries, validate=True):
        entries = tuple(tuple(row) for row in entries)
        if not _entry_shapes_ok(entries, dom.words, cod.words):
            raise ValueError("entry matrix shape does not match objects")
        if validate:
            if dom.cls != cod.cls:
                raise ValueError("class mismatch between objects")
            for row in entries:
                for lin in row:
                    for d in lin.terms:
                        if not dom.cls.member(d):
                            raise ValueError(
                                f"entry term {d.to_text()} not in class"
                            )
            field = dom.field
            absorbed = _mat_compose(
                cod.cut, _mat_compose(entries, dom.cut, field), field
            )
            if not _mat_eq(absorbed, entries):
                raise ValueError("entries do not absorb the idempotent cuts")
        self.dom = dom
        self.cod = cod
        self.entries = entries

    @classmethod
    def zero(cls, dom: KarObject, cod: KarObject):
        return cls(dom, cod, _mat_zero(dom.words, cod.words), validate=False)

    @classmethod
    def identity(cls, obj: KarObject):
        return cls(obj, obj, obj.cut, validate=False)

    @classmethod
    def from_lin(
        cls, lin: LinMorphism, diagram_class: DiagramClass, field: FieldSpec
    ):
        """Wrap a plain diagram combination as a map of word objects."""
        dom = KarObject.word(lin.dom, diagram_class, field)
        cod = KarObject.word(lin.cod, diagram_class, field)
        return cls(dom, cod, ((lin,),))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, KarMorphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and _mat_eq(self.entries, other.entries)
        )

    def __add__(self, other):
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError("shape mismatch in sum")
        return KarMorphism(
            self.dom, self.cod, _mat_add(self.entries, other.entries), validate=False
        )

    def __sub__(self, other):
        return self + other.scale(-self.dom.field.one())

    def scale(self, c: FieldElement):
        return KarMorphism(
            self.dom, self.cod, _mat_scale(self.entries, c), validate=False
        )

    def to_text(self) -> str:
        rows = []
        for row in self.entries:
            rows.append("[" + ", ".join(x.to_text() for x in row) + "]")
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return (
            f"KarMorphism({self.dom.to_text()} -> {self.cod.to_text()}, "
            f"{self.to_text()})"
        )


def kar_compose(g: KarMorphism, f: KarMorphism) -> KarMorphism:
    """g after f."""
    if f.cod != g.dom:
        raise ValueError("shape mismatch in composition")
    if len(f.cod.words) == 0:
        return KarMorphism.zero(f.dom, g.cod)
    field = f.dom.field
    return KarMorphism(
        f.dom, g.cod, _mat_compose(g.entries, f.entries, field), validate=False
    )


def kar_tensor(f: KarMorphism, g: KarMorphism) -> KarMorphism:
    field = f.dom.field
    dom = tensor_object(f.dom, g.dom)
    cod = tensor_object(f.cod, g.cod)
    entries = []
    for i1 in range(len(f.cod.words)):
        for i2 in range(len(g.cod.words)):
            row = []
            for j1 in range(len(f.dom.words)):
                for j2 in range(len(g.dom.words)):
                    row.append(f.entries[i1][j1].tensor(g.entries[i2][j2], field))
            entries.append(tuple(row))
    return KarMorphism(dom, cod, entries, validate=False)


def kar_direct_sum(f: KarMorphism, g: KarMorphism) -> KarMorphism:
    dom = direct_sum(f.dom, g.dom)
    cod = direct_sum(f.cod, g.cod)
    entries = _mat_zero(dom.words, cod.words)
    entries = [list(row) for row in entries]
    for i, row in enumerate(f.entries):
        for j, x in enumerate(row):
            entries[i][j] = x
    oi, oj = len(f.cod.words), len(f.dom.words)
    for i, row in enumerate(g.entries):
        for j, x in enumerate(row):
            entries[oi + i][oj + j] = x
    return KarMorphism(dom, cod, entries, validate=False)


def kar_row(morphisms) -> KarMorphism:
    """[f1 f2 ...]: dom1 ⊕ dom2 ⊕ ... → common codomain."""
    morphisms = list(morphisms)
    cod = morphisms[0].cod
    if any(m.cod != cod for m in morphisms):
        raise ValueError("row assembly needs a common codomain")
    dom = morphisms[0].dom
    for m in morphisms[1:]:
        dom = direct_sum(dom, m.dom)
    entries = [
        tuple(x for m in morphisms for x in m.entries[i])
        for i in range(len(cod.words))
    ]
    return KarMorphism(dom, cod, entries, validate=False)


def kar_col(morphisms) -> KarMorphism:
    """[f1; f2; ...]: common domain → cod1 ⊕ cod2 ⊕ ..."""
    morphisms = list(morphisms)
    dom = morphisms[0].dom
    if any(m.dom != dom for m in morphisms):
        raise ValueError("column assembly needs a common domain")
    cod = morphisms[0].cod
    for m in morphisms[1:]:
        cod = direct_sum(cod, m.cod)
    entries = [row for m in morphisms for row in m.entries]
    return KarMorphism(dom, cod, entries, validate=False)


class KarHom(CompressedBasis):
    """Compressed basis of Hom(A, B) inside the envelope.

    Candidates E_B . unit(d) . E_A over all entry slots and class diagrams
    are filtered to a basis by exact rank; coordinates are taken in the
    same compressed space, with each slot's diagram basis at its offset.
    """

    def __init__(self, dom: KarObject, cod: KarObject):
        if dom.cls != cod.cls:
            raise ValueError("class mismatch in hom space")
        self.dom = dom
        self.cod = cod
        self.field = dom.field
        self._slot_index = {
            (i, j): hom_basis(dom.cls, w_dom, w_cod)
            for i, w_cod in enumerate(cod.words)
            for j, w_dom in enumerate(dom.words)
        }
        self._keep_independent(
            self._cut_unit(i, j, d)
            for (i, j), basis in self._slot_index.items()
            for d in basis
        )

    def _cut_unit(self, i: int, j: int, d: PartitionDiagram) -> KarMorphism:
        field = self.field
        unit = LinMorphism.from_diagram(d, field)
        entries = []
        for r in range(len(self.cod.words)):
            row = []
            for c in range(len(self.dom.words)):
                left = self.cod.cut[r][i]
                right = self.dom.cut[j][c]
                if left.is_zero() or right.is_zero():
                    row.append(
                        LinMorphism.zero(self.dom.words[c], self.cod.words[r])
                    )
                else:
                    row.append(left.compose(unit, field).compose(right, field))
            entries.append(tuple(row))
        return KarMorphism(self.dom, self.cod, entries, validate=False)

    def _vector_of(self, m: KarMorphism):
        vec = {}
        pos = 0
        for (i, j), basis in self._slot_index.items():
            for d, c in m.entries[i][j].terms.items():
                vec[pos + basis.index(d)] = c
            pos += len(basis)
        return vec

    def coordinates_of(self, m: KarMorphism):
        """Coefficients over self.elements, or None if outside the span."""
        if m.dom != self.dom or m.cod != self.cod:
            raise ValueError("morphism does not live in this hom space")
        return super().coordinates_of(m)

    def from_coordinates(self, coords) -> KarMorphism:
        out = KarMorphism.zero(self.dom, self.cod)
        for c, elem in zip(coords, self.elements):
            if not c.is_zero():
                out = out + elem.scale(c)
        return out


class SplitWitness:
    """g with f.g.f = f, plus the induced idempotents."""

    __slots__ = ("g", "gf", "fg", "kernel_idempotent", "denominators")

    def __init__(self, g, gf, fg, kernel_idempotent, denominators):
        self.g = g
        self.gf = gf
        self.fg = fg
        self.kernel_idempotent = kernel_idempotent
        self.denominators = denominators


def _witness_denominators(g: KarMorphism):
    from .scalar import poly_text

    out = set()
    for row in g.entries:
        for lin in row:
            for c in lin.terms.values():
                if c.kind == "rf" and not c.den.is_one():
                    out.add(poly_text(c.den, "t"))
    return tuple(sorted(out))


def split_solve(f: KarMorphism):
    """Find g with f.g.f = f, or None when the exact system is inconsistent."""
    gh = KarHom(f.cod, f.dom)
    fh = KarHom(f.dom, f.cod)
    target = fh.coordinates_of(f)
    if target is None:
        raise ValueError("morphism escapes its own hom space")
    matrix = matrix_of(
        lambda g: kar_compose(f, kar_compose(g, f)), gh.elements, fh, gh.field
    )
    coords = matrix.solve(target)
    if coords is None:
        return None
    g = gh.from_coordinates(coords)
    if kar_compose(f, kar_compose(g, f)) != f:
        raise AssertionError("split solver produced an invalid witness")
    gf = kar_compose(g, f)
    fg = kar_compose(f, g)
    kernel_idem = KarMorphism.identity(f.dom) - gf
    return SplitWitness(g, gf, fg, kernel_idem, _witness_denominators(g))
