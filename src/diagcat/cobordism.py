"""Normal-form 2d cobordisms over a Frobenius algebra datum.

A morphism [m] -> [n] is a disjoint union of connected oriented surfaces,
remembered only up to the invariant that survives the relations: which
boundary circles each component carries and its genus.  A datum (alpha, u)
fixes the scalars: a handle polynomial u caps the genus, with x^g reduced
mod u, and a closed genus-i component becomes the scalar alpha(i), read
from the same reduction: the sum of c_k alpha_k over x^i = sum c_k x^k
mod u, with alpha_k the k-th initial value.

Gluing merges components over the shared interface circles with the
parent-list walk that partition.compose runs over blocks; the genus of a
merged component comes from additivity of the Euler characteristic,
g = 1 - (r + sum_i (2 - 2 g_i - b_i)) / 2, where r counts the surviving
boundary circles.  The formula is exercised against the torus and
pair-of-pants examples in the test suite before anything else trusts it.

A formal sum of cobordisms is a homspace.LinMorphism whose terms are
Cobordisms; cob_compose is its composition.

A cobordism is the immutable tuple (m, n, components), so tuple equality,
hashing and order serve it.  Cobordism() checks outside components; glued,
reduced and partition-derived ones are built by _cobordism, which only
sorts them.  The data (one per field), their genus scalars alpha(i) and
the expansions x^g mod u are memoised, shared and never changed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache

from .homspace import LinMorphism, derived_lin
from .partition import DiagramParseError, PartitionDiagram, compose
from .scalar import FieldElement, FieldSpec, Poly, poly_divmod, poly_text, sum_products


class FrobeniusDatum:
    """Genus scalars alpha(i) generated by initial values and a monic u."""

    __slots__ = ("field", "alpha_init", "u")

    def __init__(self, field: FieldSpec, alpha_init, u: Poly):
        if u.degree() < 1:
            raise ValueError("u must have degree at least 1")
        if not u.is_monic():
            raise ValueError("u must be monic")
        if len(alpha_init) != u.degree():
            raise ValueError(
                f"need {u.degree()} initial alpha values, got {len(alpha_init)}"
            )
        self.field = field
        self.alpha_init = tuple(alpha_init)
        self.u = u

    def degree(self) -> int:
        return self.u.degree()

    @lru_cache(maxsize=256)
    def alpha(self, i: int) -> FieldElement:
        """alpha_i = sum of c_k alpha_k over x^i = sum of c_k x^k mod u, the
        linear form that the recurrence alpha_{j+d} = -sum_{k<d} u_k
        alpha_{j+k} extends from the initial values; memoised per (datum, i)."""
        if i < 0:
            raise ValueError("alpha index must be nonnegative")
        acc = self.field.zero()
        for c, a in zip(self.genus_expansion(i), self.alpha_init):
            if c:
                acc = acc + self.field.rational(c) * a
        return acc

    def genus_expansion(self, g: int):
        """Coefficients c_i with x^g = sum c_i x^i mod u, i < deg u."""
        return _genus_expansion(self.u, g)

    def describe(self) -> str:
        init = ", ".join(a.to_text() for a in self.alpha_init)
        return f"alpha=({init}), u={poly_text(self.u, 'x')}"


@lru_cache(maxsize=256)
def _genus_expansion(u: Poly, g: int) -> tuple:
    _, rem = poly_divmod(Poly.x_power(g), u)
    return rem.coeffs


@lru_cache(maxsize=64)
def st_datum(field: FieldSpec) -> FrobeniusDatum:
    """alpha = (t, t, ...), u = x - 1."""
    return FrobeniusDatum(field, (field.t(),), Poly((-1, 1)))


@lru_cache(maxsize=64)
def fibonacci_datum(field: FieldSpec) -> FrobeniusDatum:
    """alpha = (1, 2, 3, 5, ...), u = x^2 - x - 1."""
    return FrobeniusDatum(field, (field.one(), field.rational(2)), Poly((-1, -1, 1)))


class Cobordism(namedtuple("Cobordism", "m n components")):
    """Components (circle tuple, genus) over circles 1..m upper, then lower.

    Closed components (empty circle tuple) and large genera are allowed so
    that intermediate gluing results are representable; normal form under a
    datum additionally demands no closed components and genus < deg u.

    A cobordism is the tuple (m, n, components), and tuple equality,
    hashing and order are its own.  So it equals the plain tuple (m, n,
    components), and the empty cobordism equals the empty diagram; no dict
    or set in the package mixes them, because the terms of a LinMorphism
    are all of one kind.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int, components):
        components = list(components)
        seen = set()
        for circles, genus in components:
            if genus < 0:
                raise ValueError("genus must be nonnegative")
            for p in circles:
                if not 1 <= p <= m + n:
                    raise ValueError(f"circle {p} out of range for ({m},{n})")
                if p in seen:
                    raise ValueError(f"circle {p} used twice")
                seen.add(p)
        if len(seen) != m + n:
            missing = min(set(range(1, m + n + 1)) - seen, default=0)
            raise ValueError(f"boundary circle {missing} not covered")
        return _cobordism(m, n, components)

    def _label(self, p: int) -> str:
        return str(p) if p <= self.m else f"{p - self.m}'"

    def to_text(self) -> str:
        if not self.components:
            return "<empty>"
        parts = []
        for circles, genus in self.components:
            body = " ".join(self._label(p) for p in circles)
            parts.append(f"g={genus}: {body}" if body else f"g={genus}:")
        return " | ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Cobordism":
        text = text.strip()
        if text == "<empty>":
            return cls(0, 0, [])
        raw = []
        max_upper = 0
        max_lower = 0
        for part in text.split("|"):
            part = part.strip()
            if ":" not in part:
                raise DiagramParseError(f"component missing 'g=..:' prefix: {part!r}")
            head, _, body = part.partition(":")
            head = head.strip()
            if not head.startswith("g=") or not head[2:].isdigit():
                raise DiagramParseError(f"bad genus prefix {head!r}")
            genus = int(head[2:])
            circles = []
            for tok in body.split():
                if tok.endswith("'") and tok[:-1].isdigit() and int(tok[:-1]) > 0:
                    circles.append(("lower", int(tok[:-1])))
                    max_lower = max(max_lower, int(tok[:-1]))
                elif tok.isdigit() and int(tok) > 0:
                    circles.append(("upper", int(tok)))
                    max_upper = max(max_upper, int(tok))
                else:
                    raise DiagramParseError(f"bad token {tok!r}")
            raw.append((circles, genus))
        comps = [
            (
                tuple(p if side == "upper" else max_upper + p for side, p in circles),
                genus,
            )
            for circles, genus in raw
        ]
        return cls(max_upper, max_lower, comps)

    def __repr__(self):
        return f'Cobordism({self.m}, {self.n}, "{self.to_text()}")'


def _cobordism(m: int, n: int, components) -> Cobordism:
    """The cobordism of components that are right by construction, sorted
    into canonical form; nothing is checked."""
    components = sorted((tuple(sorted(circles)), genus) for circles, genus in components)
    return tuple.__new__(Cobordism, (m, n, tuple(components)))


def generator(name: str) -> Cobordism:
    """The structure maps: unit, counit, product, coproduct, handle."""
    table = {
        "eta": (0, 1, [((1,), 0)]),
        "eps": (1, 0, [((1,), 0)]),
        "mu": (2, 1, [((1, 2, 3), 0)]),
        "delta": (1, 2, [((1, 2, 3), 0)]),
        "phi": (1, 1, [((1, 2), 1)]),
    }
    if name not in table:
        raise ValueError(f"unknown generator {name!r}")
    return Cobordism(*table[name])


def reduce_normal_form(c: Cobordism, datum: FrobeniusDatum) -> LinMorphism:
    """Strip closed components via alpha and cap every genus below deg u."""
    field = datum.field
    d = datum.degree()
    branches = [([], field.one())]
    for circles, genus in c.components:
        if not circles:
            scalar = datum.alpha(genus)
            branches = [(comps, coeff * scalar) for comps, coeff in branches]
            continue
        if genus < d:
            for comps, _ in branches:
                comps.append((circles, genus))
            continue
        expansion = [
            (i, coeff)
            for i, coeff in enumerate(datum.genus_expansion(genus))
            if coeff
        ]
        new_branches = []
        for comps, coeff in branches:
            for g2, q in expansion:
                new_branches.append(
                    (comps + [(circles, g2)], coeff * field.rational(q))
                )
        branches = new_branches
    terms = {}
    for comps, coeff in branches:
        cob = _cobordism(c.m, c.n, comps)
        cur = terms.get(cob)
        terms[cob] = coeff if cur is None else cur + coeff
    return LinMorphism(c.m, c.n, terms)


def glue_raw(g: Cobordism, f: Cobordism) -> Cobordism:
    """Glue f's lower circles to g's upper circles; no reduction."""
    if f.n != g.m:
        raise ValueError(
            f"shape mismatch: cannot glue ({g.m},{g.n}) after ({f.m},{f.n})"
        )
    m, k, n = f.m, f.n, g.n
    # The components start as f's, each with its upper circles and its Euler
    # characteristic.  Each component of g starts one more, into which it
    # merges, through its upper (middle) circles, the components that hold
    # those circles as lower circles: the parent-list walk of
    # partition.compose.
    owner = [0] * k
    parent = list(range(len(f.components)))
    free, chi = [], []
    for i, (circles, genus) in enumerate(f.components):
        cut = bisect_right(circles, m)
        for p in circles[cut:]:
            owner[p - m - 1] = i
        free.append(list(circles[:cut]))
        chi.append(2 - 2 * genus - len(circles))
    shift = m - k
    for circles, genus in g.components:
        cut = bisect_right(circles, k)
        root = len(parent)
        parent.append(root)
        free.append([p + shift for p in circles[cut:]])
        chi.append(2 - 2 * genus - len(circles))
        for p in circles[:cut]:
            r = owner[p - 1]
            while parent[r] != r:
                r = parent[r]
            if r != root:
                parent[r] = root
                free[root] += free[r]
                chi[root] += chi[r]
                free[r] = None
    out = []
    for circles, euler in zip(free, chi):
        if circles is None:
            continue
        r = len(circles)
        if (r + euler) % 2:
            raise AssertionError("odd Euler characteristic sum in gluing")
        genus = 1 - (r + euler) // 2
        if genus < 0:
            raise AssertionError("negative genus in gluing")
        out.append((circles, genus))
    return _cobordism(m, n, out)


def glue(g: Cobordism, f: Cobordism, datum: FrobeniusDatum) -> LinMorphism:
    return reduce_normal_form(glue_raw(g, f), datum)


def cob_compose(
    g: LinMorphism, f: LinMorphism, datum: FrobeniusDatum
) -> LinMorphism:
    """Bilinear extension of glue; g after f."""
    if f.cod != g.dom:
        raise ValueError("shape mismatch in composition")
    products = {}  # per glued cobordism, its (af * ag, c, 0) triples
    for cf, af in f.terms.items():
        for cg, ag in g.terms.items():
            for cob, c in glue(cg, cf, datum).terms.items():
                products.setdefault(cob, []).append((af * ag, c, 0))
    return derived_lin(f.dom, g.cod, sum_products(products, datum.field))


def partition_to_cob(d: PartitionDiagram) -> Cobordism:
    """The genus-0 cobordism with one component per block of d."""
    return _cobordism(d.m, d.n, [(b, 0) for b in d.blocks])


def partition_crosscheck(f: PartitionDiagram, g: PartitionDiagram, to_cob=partition_to_cob) -> bool:
    """Compare f after g through partitions against the S_t cobordism route,
    with the memoised st_datum over Q(t); to_cob gives a diagram's
    cobordism, so a check over many pairs can convert each diagram once."""
    datum = st_datum(FieldSpec.generic())
    field = datum.field
    diagram, loops = compose(f, g)
    expected = LinMorphism.from_diagram(to_cob(diagram), field, field.t_power(loops))
    got = glue(to_cob(f), to_cob(g), datum)
    return got == expected
