"""Additive idempotent completion of the diagram categories.

Objects are tuples of word lengths cut by an idempotent matrix E of
LinMorphisms; the familiar summand list ([w1]@e1 ⊕ [w2]@e2 ⊕ ...) is the
block-diagonal case, and single summands come from kar_object.  Keeping a
full matrix cut instead of one idempotent per summand costs nothing here
and lets later constructions (weak kernels of presented functors) stay
inside the same type.

Each object has one shared instance per key and names.  A raw cut is
checked idempotent and in its class once, by the KarObject constructor,
which also records whether it is the identity block matrix: such a plain
object (a word, a sum or tensor of words, the zero object) needs no
elimination in its hom spaces with other plain objects.  Words, the zero
object, direct sums and tensor products are right by construction, so
_kar_object builds them unchecked, plain when their parts are; the last
three are memoised over the shared instances.

Morphisms are matrices of LinMorphisms satisfying the absorption law
E_cod . F . E_dom = F.  Each value is checked once, where it enters: the
KarMorphism constructor checks the shape, class and absorption of raw
entries, and from_lin checks class alone, since a word object's cut is the
identity.  Arithmetic, composition, tensors, rows and hom-space elements
preserve absorption, so they build through _kar_morphism, which checks
nothing.
"""

from __future__ import annotations

from functools import lru_cache

from . import partition
from .homspace import (
    ExactMatrix,
    LazyColumns,
    LinMorphism,
    ScaledColumn,
    Subspace,
    combine,
    compose_sum,
    derived_lin,
    hom_basis,
)
from .partition import DiagramClass, PartitionDiagram
from .scalar import FieldElement, FieldSpec, poly_text, sum_products


def _entry_shapes_ok(entries, dom_words, cod_words):
    """Whether entry (i, j) maps word j of dom_words to word i of cod_words."""
    return len(entries) == len(cod_words) and all(
        len(row) == len(dom_words)
        and all(lin.dom == w_dom and lin.cod == w_cod for lin, w_dom in zip(row, dom_words))
        for row, w_cod in zip(entries, cod_words)
    )


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
    """Matrix product, entry-wise g after f: each entry is one compose_sum
    over the inner index.  An a with no rows is read as a map between no
    words, so the product has a row of no entries per row of b."""
    columns = tuple(zip(*a))
    return tuple(
        tuple(
            compose_sum(zip(row, col), col[0].dom, row[0].cod, field)
            for col in columns
        )
        for row in b
    )


def _mat_tensor(a, b, field):
    """Kronecker product, entry-wise x (x) y; b's indices vary fastest."""
    return tuple(
        tuple(x.tensor(y, field) for x in ra for y in rb) for ra in a for rb in b
    )


class KarObject:
    """Words cut by an idempotent matrix over a fixed diagram class.

    Its key is the value (class, field, words, cut), the field before the
    cut, so keys of different fields differ before any scalar is compared.
    Each (key, names) has one shared instance: __new__ looks it up in the
    bounded memo _interned, and __init__ sets its cut on its first
    construction, after the class-membership and idempotence checks, with
    `plain`, whether the cut is the identity block matrix (which is
    idempotent, so the square is not formed), unless _kar_object set both.
    An instance that failed them keeps no cut and raises again.
    """

    __slots__ = ("cls", "field", "words", "cut", "plain", "names", "_key", "_hash")

    def __new__(cls, diagram_class: DiagramClass, field: FieldSpec, words, cut, names=None):
        words = tuple(words)
        cut = tuple(tuple(row) for row in cut)
        if not _entry_shapes_ok(cut, words, words):
            raise ValueError("cut matrix shape does not match words")
        key = (diagram_class, field, words, cut)
        return _interned(key, None if names is None else tuple(names))

    def __init__(self, diagram_class: DiagramClass, field: FieldSpec, words, cut, names=None):
        if hasattr(self, "cut"):
            return
        cut = self._key[3]  # as __new__ read it, since cut may be one-shot
        diagram_class.require((d for row in cut for lin in row for d in lin.terms), "cut")
        one = field.one()
        plain = all(
            x.terms == ({PartitionDiagram.identity(w): one} if i == j else {})
            for i, (row, w) in enumerate(zip(cut, self.words))
            for j, x in enumerate(row)
        )
        square = cut if plain else _mat_compose(cut, cut, field)
        if square != cut:
            residual = _mat_add(square, _mat_scale(cut, -one))
            raise ValueError(
                "cut is not idempotent; residual e.e - e = "
                + "; ".join(x.to_text() for row in residual for x in row)
            )
        self.plain = plain
        self.cut = cut

    @classmethod
    @lru_cache(maxsize=256)
    def word(cls, w: int, diagram_class: DiagramClass, field: FieldSpec):
        """The plain object [w] with identity cut, memoised per
        (w, class, field), so a repeated call builds no cut and no key."""
        e = LinMorphism.from_diagram(PartitionDiagram.identity(w), field)
        return _kar_object(diagram_class, field, (w,), ((e,),), ("id",))

    @classmethod
    @lru_cache(maxsize=64)
    def zero(cls, diagram_class: DiagramClass, field: FieldSpec):
        return _kar_object(diagram_class, field, (), (), ())

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.cut for x in row)

    def is_block_diagonal(self) -> bool:
        return all(
            i == j or x.is_zero()
            for i, row in enumerate(self.cut)
            for j, x in enumerate(row)
        )

    def key(self):
        """Class, field, words and cut, built once per instance."""
        return self._key

    def __eq__(self, other):
        # two instances of one key exist only for differing names, or
        # once an instance outlives its evicted memo entry
        return self is other or (
            isinstance(other, KarObject)
            and self._hash == other._hash
            and self._key == other._key
        )

    def __hash__(self):
        return self._hash

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


@lru_cache(maxsize=1024)
def _interned(key, names) -> KarObject:
    """The one shared KarObject of a key and names, which keeps the key and
    its hash; its cut stays unset until the first KarObject.__init__ on it
    succeeds."""
    obj = object.__new__(KarObject)
    obj.cls, obj.field, obj.words, _ = key
    obj.names, obj._key, obj._hash = names, key, hash(key)
    return obj


def _kar_object(diagram_class, field, words, cut, names, parts=()) -> KarObject:
    """The shared object of a cut, a tuple of row tuples in the class and
    idempotent by construction; nothing is checked.  It is plain when it has
    no words or all its parts (none for a word) are plain."""
    obj = _interned((diagram_class, field, words, cut), names)
    if not hasattr(obj, "cut"):
        obj.plain = not words or all(part.plain for part in parts)
        obj.cut = cut
    return obj


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


def direct_sum(a: KarObject, b: KarObject) -> KarObject:
    """a ⊕ b, named by both names when both objects have names."""
    names = None if a.names is None or b.names is None else a.names + b.names
    return _direct_sum(a, b, names)


@lru_cache(maxsize=1024)
def _direct_sum(a: KarObject, b: KarObject, names) -> KarObject:
    """The block-diagonal cut of a and b, memoised with the names that
    direct_sum gives it, as a's and b's keys omit theirs."""
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
    return _kar_object(a.cls, a.field, words, tuple(cut), names, (a, b))


@lru_cache(maxsize=1024)
def tensor_object(a: KarObject, b: KarObject) -> KarObject:
    if a.cls != b.cls:
        raise ValueError("class mismatch in tensor")
    words = tuple(wa + wb for wa in a.words for wb in b.words)
    cut = _mat_tensor(a.cut, b.cut, a.field)
    return _kar_object(a.cls, a.field, words, cut, None, (a, b))


class KarMorphism:
    """Matrix of LinMorphisms between KarObjects, absorbed by the cuts; it
    is equal to and hashes like the value (dom, cod, entries), and its hash
    is computed on first use and kept."""

    __slots__ = ("dom", "cod", "entries", "_hash")

    def __init__(self, dom: KarObject, cod: KarObject, entries):
        """A morphism from raw entries, checked for shape, class and
        absorption of both cuts."""
        entries = tuple(tuple(row) for row in entries)
        if not _entry_shapes_ok(entries, dom.words, cod.words):
            raise ValueError("entry matrix shape does not match objects")
        if dom.cls != cod.cls:
            raise ValueError("class mismatch between objects")
        dom.cls.require((d for row in entries for lin in row for d in lin.terms), "entry")
        field = dom.field
        absorbed = _mat_compose(cod.cut, _mat_compose(entries, dom.cut, field), field)
        if absorbed != entries:
            raise ValueError("entries do not absorb the idempotent cuts")
        self.dom = dom
        self.cod = cod
        self.entries = entries
        self._hash = None

    @classmethod
    def zero(cls, dom: KarObject, cod: KarObject):
        return _kar_morphism(dom, cod, _mat_zero(dom.words, cod.words))

    @classmethod
    def identity(cls, obj: KarObject):
        return _kar_morphism(obj, obj, obj.cut)

    @classmethod
    def from_lin(
        cls, lin: LinMorphism, diagram_class: DiagramClass, field: FieldSpec
    ):
        """Wrap a plain diagram combination as a map of word objects; the
        identity cuts absorb it, so only its class is checked."""
        diagram_class.require(lin.terms, "entry")
        dom = KarObject.word(lin.dom, diagram_class, field)
        cod = KarObject.word(lin.cod, diagram_class, field)
        return _kar_morphism(dom, cod, ((lin,),))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, KarMorphism)
            and (self.dom, self.cod, self.entries) == (other.dom, other.cod, other.entries)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dom, self.cod, self.entries))
        return self._hash

    def __add__(self, other):
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError("shape mismatch in sum")
        return _kar_morphism(self.dom, self.cod, _mat_add(self.entries, other.entries))

    def __sub__(self, other):
        negated = tuple(tuple(-x for x in row) for row in other.entries)
        return self + _kar_morphism(other.dom, other.cod, negated)

    def scale(self, c: FieldElement):
        return _kar_morphism(self.dom, self.cod, _mat_scale(self.entries, c))

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


def _kar_morphism(dom: KarObject, cod: KarObject, entries) -> KarMorphism:
    """The morphism with the given entries, a tuple of row tuples that
    already absorb both cuts; nothing is checked."""
    m = object.__new__(KarMorphism)
    m.dom, m.cod, m.entries = dom, cod, entries
    m._hash = None
    return m


def kar_compose(g: KarMorphism, f: KarMorphism) -> KarMorphism:
    """g after f."""
    if f.cod != g.dom:
        raise ValueError("shape mismatch in composition")
    if len(f.cod.words) == 0:
        return KarMorphism.zero(f.dom, g.cod)
    field = f.dom.field
    return _kar_morphism(f.dom, g.cod, _mat_compose(g.entries, f.entries, field))


def kar_tensor(f: KarMorphism, g: KarMorphism) -> KarMorphism:
    dom = tensor_object(f.dom, g.dom)
    cod = tensor_object(f.cod, g.cod)
    return _kar_morphism(dom, cod, _mat_tensor(f.entries, g.entries, f.dom.field))


def kar_row(morphisms) -> KarMorphism:
    """[f1 f2 ...]: dom1 ⊕ dom2 ⊕ ... → common codomain."""
    morphisms = list(morphisms)
    cod = morphisms[0].cod
    if any(m.cod != cod for m in morphisms):
        raise ValueError("row assembly needs a common codomain")
    dom = morphisms[0].dom
    for m in morphisms[1:]:
        dom = direct_sum(dom, m.dom)
    entries = tuple(
        tuple(x for m in morphisms for x in m.entries[i])
        for i in range(len(cod.words))
    )
    return _kar_morphism(dom, cod, entries)


def _sandwich(left, right, units, slot_index, field):
    """The slot vectors of L . unit(d) . R, one per ((i, j), d) of units,
    in order, each made only when it is drawn: split_solve's ExactMatrix
    draws them left to right, as far as its solve needs.

    left and right are the entry matrices of L and R, unit(d) has d in
    slot (i, j) and zeros elsewhere, and slot_index lays out the slots of
    the result as KarHom does.  Each vector is composed in two stages, as
    compose_sum composes: d after each term y of R's row j, then each term
    x of L's column i after each inner diagram d . y.  The coefficients
    c_y . t^loops of the y that give one inner diagram in one column of R
    are summed and normalised first, by one sum_products call per unit;
    then the coefficients of the vector are collected by slot position as
    (c_x, inner sum, loops) triples and normalised by one more
    sum_products call.  Both fields take this one path, and no morphism
    is built.

    A unit whose composites d . y, over the terms y of R's row j, are those
    of an earlier unit of the same slot with every loop count shifted by
    one number s gives t^s times that unit's vector; it is yielded as a
    ScaledColumn of that unit and composed no further, so it never reaches
    L.  A shift s other than 0 counts only where t is invertible: over
    Q(t), or at t != 0.
    """
    offsets, pos = {}, 0
    for key, basis in slot_index.items():
        offsets[key] = (pos, basis)
        pos += len(basis)
    one, shifts = field.one(), field.t_value != 0
    by_slot, firsts = {}, {}  # per slot, the terms of L's column and R's row; per key, a unit
    for k, ((i, j), d) in enumerate(units):
        if (i, j) not in by_slot:
            xs = [(a, dx, cx) for a, row in enumerate(left) for dx, cx in row[i].terms.items()]
            ys = [(b, dy, cy) for b, y in enumerate(right[j]) for dy, cy in y.terms.items()]
            by_slot[i, j] = xs, ys
        xs, ys = by_slot[i, j]
        composites = [partition.compose(d, dy) for _, dy, _ in ys]
        shift = composites[0][1] if shifts and composites else 0
        relative = [(dy, loops - shift) for dy, loops in composites] if shift else composites
        first = firsts.setdefault((i, j, tuple(relative)), (k, shift))
        if first[0] != k:
            yield ScaledColumn(first[0], field.t_power(shift - first[1]))
            continue
        sums = {}  # (column of R, d . y) -> a (c_y, 1, loops) per y giving it
        for (b, _, cy), (dy, loops) in zip(ys, composites):
            sums.setdefault((b, dy), []).append((cy, one, loops))
        inner = sum_products(sums, field).items()  # no zero sums
        products = {}
        for a, dx, cx in xs:
            for (b, dy), v in inner:
                offset, basis = offsets[a, b]
                diagram, loops = partition.compose(dx, dy)
                products.setdefault(offset + basis.index(diagram), []).append((cx, v, loops))
        yield sum_products(products, field)


class KarHom:
    """Hom(A, B) inside the envelope, with a basis and coordinates over it.

    A morphism's slot vector lists its entries, each entry slot (i, j)
    with the diagram basis of Hom([w_j], [w_i]) at its offset; there are
    `slots` positions in all.  The cut units E_B . unit(d) . E_A over all
    slot diagrams span the space: _sandwich gives their slot vectors, and
    those that enlarge the span, in order, are kept as the basis
    `elements`, the only candidates built as morphisms; `unit_slots`
    holds the ((i, j), d) of the bare unit(d) of each.  Between two plain
    objects each cut unit is its bare unit, whose slot vector is the unit
    vector of its position, so every unit is kept in position order:
    element k is position k, coordinates are the slot vector itself, and
    no vector is composed or eliminated (`space` is None).  Build it
    through kar_hom, which shares one per pair of objects.
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
        # the slot and diagram at each position of a slot vector
        self._positions = tuple(
            (slot, d) for slot, basis in self._slot_index.items() for d in basis
        )
        self.slots = len(self._positions)
        if dom.plain and cod.plain:
            self.space = None
            self.unit_slots = self._positions
            one = self.field.one()
            self.elements = tuple(self._morphism({k: one}) for k in range(self.slots))
            return
        candidates = _sandwich(
            cod.cut, dom.cut, self._positions, self._slot_index, self.field
        )
        self.space = Subspace(self.field)
        # a ScaledColumn is a multiple of an earlier vector, so never kept
        kept = [
            (unit, vec)
            for unit, vec in zip(self._positions, candidates)
            if not isinstance(vec, ScaledColumn) and self.space.add(vec)
        ]
        self.unit_slots = tuple(unit for unit, _ in kept)
        self._vectors = tuple(vec for _, vec in kept)
        self.elements = tuple(self._morphism(vec) for vec in self._vectors)

    def __len__(self):
        return len(self.elements)

    def slot_vector(self, m: KarMorphism):
        vec = {}
        pos = 0
        for (i, j), basis in self._slot_index.items():
            for d, c in m.entries[i][j].terms.items():
                vec[pos + basis.index(d)] = c
            pos += len(basis)
        return vec

    def _morphism(self, vec) -> KarMorphism:
        """The morphism with the given slot vector, which stores no zero."""
        terms = {slot: {} for slot in self._slot_index}
        for pos, c in vec.items():
            slot, d = self._positions[pos]
            terms[slot][d] = c
        entries = tuple(
            tuple(
                derived_lin(w_dom, w_cod, terms[i, j])
                for j, w_dom in enumerate(self.dom.words)
            )
            for i, w_cod in enumerate(self.cod.words)
        )
        return _kar_morphism(self.dom, self.cod, entries)

    def coordinates_of(self, m: KarMorphism):
        """Coefficients over self.elements, or None if outside the span."""
        if m.dom != self.dom or m.cod != self.cod:
            raise ValueError("morphism does not live in this hom space")
        vec = self.slot_vector(m)
        if self.space is None:
            return dict(sorted(vec.items()))
        return self.space.coordinates_of(vec)

    def from_coordinates(self, coords) -> KarMorphism:
        """The combination of self.elements with the given coefficients,
        each entry of its slot vector normalised once."""
        if self.space is None:
            return self._morphism({k: c for k, c in coords.items() if not c.is_zero()})
        return self._morphism(combine(self._vectors, coords, self.field))


class SplitWitness:
    """g with f.g.f = f, verified by split_solve, and the idempotent g.f;
    f.g, the kernel idempotent id - g.f and the denominators of g are
    derived when they are read."""

    __slots__ = ("f", "g", "gf")

    def __init__(self, f, g, gf):
        self.f = f
        self.g = g
        self.gf = gf

    @property
    def fg(self):
        return kar_compose(self.f, self.g)

    @property
    def kernel_idempotent(self):
        return KarMorphism.identity(self.f.dom) - self.gf

    @property
    def denominators(self):
        """The distinct non-unit denominators of g's coefficients, as text."""
        return tuple(sorted({
            poly_text(c.den, "t")
            for row in self.g.entries
            for lin in row
            for c in lin.terms.values()
            if c.kind == "rf" and not c.den.is_one()
        }))

    def kernel_inclusion(self) -> KarMorphism:
        """The inclusion into f's domain of the summand K that the kernel
        idempotent e cuts; its entries are e, which absorbs both cuts as
        f.g.f = f was verified, so only K's construction checks e."""
        e = self.kernel_idempotent
        dom = e.dom
        k_obj = KarObject(dom.cls, dom.field, dom.words, e.entries)
        return _kar_morphism(k_obj, dom, e.entries)


@lru_cache(maxsize=256)
def kar_hom(dom: KarObject, cod: KarObject) -> KarHom:
    """Hom(dom, cod), built once per pair of objects with equal keys."""
    return KarHom(dom, cod)


def split_solve(f: KarMorphism):
    """Find g with f.g.f = f, or None when the exact system is inconsistent.

    f is split up to a nonzero scalar: with c the coefficient of f's least
    nonzero term in (row, column, diagram) order, _split_witness solves
    c^-1.f once, and its witness g' gives g = c^-1.g' with g.f = g'.(c^-1.f).
    f.g.f = f is verified on every call, solved or remembered, so g.f and
    f.g are idempotents and id - g.f is the kernel idempotent
    (f.(id - g.f) = 0); g.f.g = g is not asked for and does not always hold.
    """
    c = next((x.terms[min(x.terms)] for row in f.entries for x in row if x.terms), None)
    scale = None if c is None or c.is_one() else c.inv()
    solved = _split_witness(f if scale is None else f.scale(scale))
    if solved is None:
        return None
    g, gf = solved
    if scale is not None:
        g = g.scale(scale)
    if kar_compose(f, gf) != f:
        raise AssertionError("split solver produced an invalid witness")
    return SplitWitness(f, g, gf)


@lru_cache(maxsize=1024)
def _split_witness(f: KarMorphism):
    """(g, g.f) for f with the free variables of its exact system at zero,
    or None when the system is inconsistent; split_solve verifies it."""
    gh = kar_hom(f.cod, f.dom)
    fh = kar_hom(f.dom, f.cod)
    target = fh.slot_vector(f)
    if fh.space is not None and not fh.space.contains(target):
        raise ValueError("morphism escapes its own hom space")
    # f lies in the span of the cut units of fh, so it absorbs its cuts:
    # f.E_dom = f = E_cod.f, hence f.(E_dom.U.E_cod).f = f.U.f for the bare
    # unit U of each element of gh, with far fewer terms to compose.  The
    # columns are fh's slot vectors, not coordinates over its basis: both
    # maps are injective on fh's span, so the pivot columns and the
    # solution with the free variables at zero are the same.  solve draws
    # the columns only until f's slot vector lies in their span, and a unit
    # whose f.U.f repeats an earlier one's up to a power of t comes as a
    # ScaledColumn, which is never a pivot and is not composed.
    columns = _sandwich(f.entries, f.entries, gh.unit_slots, fh._slot_index, gh.field)
    matrix = ExactMatrix(fh.slots, LazyColumns(len(gh.unit_slots), columns), gh.field)
    coords = matrix.solve(target)
    if coords is None:
        return None
    g = gh.from_coordinates(coords)
    return g, kar_compose(g, f)
