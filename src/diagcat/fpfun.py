"""Finitely presented functors over a designated splitting subcategory.

An object is a presentation rho: Q -> P; it stands for the cokernel of
Hom(-, Q) -> Hom(-, P).  Morphisms are commuting squares (alpha, omega)
taken modulo the squares whose alpha factors through the target
presentation.  Cokernels come from the mapping-cone pattern and kernels
from the weak-kernel construction: tensoring by a split-epi source S
makes the relevant morphisms split, and the kernel of a split morphism
is the summand cut by id - g.f.

Certification of splitting is necessarily bounded: each presentation
records the morphism set against which its summands were checked.

A square is checked once, where it enters: FpMorphism checks that it
commutes.  Identities, composites, zero squares and hom-space
representatives commute by construction and build through _fp_morphism.
"""

from __future__ import annotations

from functools import lru_cache

from .homspace import ExactMatrix, LinMorphism, Subspace, combine, hom_basis, matrix_of
from .karoubi import (
    KarMorphism,
    KarObject,
    kar_compose,
    kar_hom,
    kar_row,
    kar_tensor,
    split_solve,
)
from .partition import DiagramClass, PartitionDiagram
from .scalar import FieldSpec


class FpObject:
    """A presentation rho: Q -> P of a finitely presented functor."""

    __slots__ = ("rho", "certificate")

    def __init__(self, rho: KarMorphism, certificate: dict):
        self.rho = rho
        self.certificate = certificate

    @property
    def P(self) -> KarObject:
        return self.rho.cod

    @property
    def Q(self) -> KarObject:
        return self.rho.dom

    @property
    def field(self) -> FieldSpec:
        return self.rho.cod.field

    @property
    def cls(self) -> DiagramClass:
        return self.rho.cod.cls

    def __eq__(self, other):
        return isinstance(other, FpObject) and self.rho == other.rho

    def __hash__(self):
        return hash(self.rho)

    def to_text(self) -> str:
        return f"coker( {self.rho.to_text()} )"

    def __repr__(self):
        return f"FpObject({self.to_text()})"


@lru_cache(maxsize=1024)
def _certify(obj: KarObject, bound: int) -> int:
    """split_solve X(x)f over all basis diagrams f within the bound.

    The count depends only on the object (its key includes the field) and
    the bound, so it is memoised; a failure raises and is not stored.
    """
    if obj.is_zero() or len(obj.words) == 0:
        return 0
    count = 0
    ident = KarMorphism.identity(obj)
    for m in range(bound + 1):
        for n in range(bound + 1 - m):
            for d in hom_basis(obj.cls, m, n):
                f = KarMorphism.from_lin(
                    LinMorphism.from_diagram(d, obj.field), obj.cls, obj.field
                )
                if split_solve(kar_tensor(ident, f)) is None:
                    raise ValueError(
                        f"summand is not a splitting object against {d.to_text()}"
                    )
                count += 1
    return count


def fp_object(rho: KarMorphism, certify_bound: int = 1) -> FpObject:
    instances = _certify(rho.dom, certify_bound) + _certify(rho.cod, certify_bound)
    certificate = {"bound": certify_bound, "instances": instances}
    return FpObject(rho, certificate)


def yoneda(a: KarObject, certify_bound: int = 1) -> FpObject:
    """The representable functor Hom(-, A) with its trivial presentation."""
    zero = KarObject.zero(a.cls, a.field)
    return fp_object(KarMorphism.zero(zero, a), certify_bound)


def unit_presentation_split_epi(
    field: FieldSpec, cls: DiagramClass = DiagramClass.ALL
) -> FpObject:
    """Presents the unit as the cokernel of id - t^-1.eta.eps on [1]."""
    field.require_nonzero_t("the split unit presentation")
    eta = LinMorphism.from_diagram(PartitionDiagram(0, 1, [(1,)]), field)
    eps = LinMorphism.from_diagram(PartitionDiagram(1, 0, [(1,)]), field)
    ident = LinMorphism.from_diagram(PartitionDiagram.identity(1), field)
    rho_lin = ident - eta.compose(eps, field).scale(field.one() / field.t())
    return fp_object(KarMorphism.from_lin(rho_lin, cls, field))


def fp_embed(
    a: KarObject, unit_presentation: FpObject, certify_bound: int = 1
) -> FpObject:
    """Tensors a presentation of the unit by A on the right."""
    rho = kar_tensor(unit_presentation.rho, KarMorphism.identity(a))
    return fp_object(rho, certify_bound)


class FpMorphism:
    """A commuting square (alpha: P -> P', omega: Q -> Q')."""

    __slots__ = ("src", "dst", "alpha", "omega")

    def __init__(self, src: FpObject, dst: FpObject, alpha, omega):
        if kar_compose(alpha, src.rho) != kar_compose(dst.rho, omega):
            raise ValueError("square does not commute: alpha.rho != rho'.omega")
        self.src = src
        self.dst = dst
        self.alpha = alpha
        self.omega = omega

    def to_text(self) -> str:
        return f"(alpha = {self.alpha.to_text()}, omega = {self.omega.to_text()})"

    def __repr__(self):
        return f"FpMorphism({self.to_text()})"


def _fp_morphism(src: FpObject, dst: FpObject, alpha, omega) -> FpMorphism:
    """The square (alpha, omega), which commutes by construction; nothing
    is checked."""
    phi = object.__new__(FpMorphism)
    phi.src, phi.dst, phi.alpha, phi.omega = src, dst, alpha, omega
    return phi


def fp_identity(m: FpObject) -> FpMorphism:
    return _fp_morphism(m, m, KarMorphism.identity(m.P), KarMorphism.identity(m.Q))


def fp_compose(outer: FpMorphism, inner: FpMorphism) -> FpMorphism:
    if inner.dst != outer.src:
        raise ValueError("shape mismatch in square composition")
    return _fp_morphism(
        inner.src,
        outer.dst,
        kar_compose(outer.alpha, inner.alpha),
        kar_compose(outer.omega, inner.omega),
    )


def fp_zero_morphism(src: FpObject, dst: FpObject) -> FpMorphism:
    return _fp_morphism(
        src, dst, KarMorphism.zero(src.P, dst.P), KarMorphism.zero(src.Q, dst.Q)
    )


class FpHomSpace:
    """R/R' for a pair of presentations, with coordinates in the quotient.

    R is the space of commuting squares; R' the subspace inducing zero on
    cokernels (alpha factors through the target presentation).  A square
    is a sparse vector in the concatenated (alpha, omega) compressed hom
    coordinates.  One Subspace takes a basis of R' first and the
    representatives self.reps after it, so a square's coordinates past the
    R' generators are its class in R/R' over self.reps.  Each rep keeps
    its (alpha, omega) vector, and from_coordinates sums those vectors.

    R/R' depends only on the two presentations, so fp_hom_space builds one
    per pair of equal presentations and shares it: its reps carry the
    objects (and certificates) of the first caller, as kar_hom's spaces
    carry the first caller's names.
    """

    def __init__(self, src: FpObject, dst: FpObject):
        if src.cls != dst.cls:
            raise ValueError("class mismatch")
        self.src = src
        self.dst = dst
        field = src.field
        self.field = field
        self.ha = kar_hom(src.P, dst.P)
        self.ho = kar_hom(src.Q, dst.Q)
        hc = kar_hom(src.Q, dst.P)
        a = len(self.ha)
        pre_rho = matrix_of(
            lambda e: kar_compose(e, src.rho), self.ha.elements, hc, field
        )
        rho_post = matrix_of(
            lambda o: kar_compose(dst.rho, o), self.ho.elements, hc, field
        )
        negated = [{i: -c for i, c in col.items()} for col in rho_post.columns]
        constraint = ExactMatrix(len(hc), pre_rho.columns + negated, field)

        self.space = Subspace(field)
        for beta in kar_hom(src.P, dst.Q).elements:
            self.space.add(
                self._vector_of(kar_compose(dst.rho, beta), kar_compose(beta, src.rho))
            )
        for vec in rho_post.kernel_basis():
            self.space.add({a + k: c for k, c in vec.items()})
        self._rprime_dim = self.space.dimension()
        self._vectors = [v for v in constraint.kernel_basis() if self.space.add(v)]
        self.reps = [self._square(vec) for vec in self._vectors]

    def _square(self, vec) -> FpMorphism:
        """The square with the given (alpha, omega) vector, a combination
        of kernel vectors of the commutation constraint, so it commutes."""
        a = len(self.ha)
        alpha = self.ha.from_coordinates({k: c for k, c in vec.items() if k < a})
        omega = self.ho.from_coordinates({k - a: c for k, c in vec.items() if k >= a})
        return _fp_morphism(self.src, self.dst, alpha, omega)

    def _vector_of(self, alpha, omega):
        """Sparse (alpha, omega) coordinates, or None outside the hom spaces."""
        va = self.ha.coordinates_of(alpha)
        vo = self.ho.coordinates_of(omega)
        if va is None or vo is None:
            return None
        a = len(self.ha)
        return {**va, **{a + k: c for k, c in vo.items()}}

    def __len__(self):
        return len(self.reps)

    def coordinates_of(self, phi: FpMorphism):
        """The class of a square in R/R' over self.reps, or None if the
        square does not lie in R."""
        vec = self._vector_of(phi.alpha, phi.omega)
        coords = None if vec is None else self.space.coordinates_of(vec)
        if coords is None:
            return None
        r = self._rprime_dim
        return {k - r: c for k, c in coords.items() if k >= r}

    def from_coordinates(self, coords) -> FpMorphism:
        """The combination of self.reps with the given coefficients, each
        entry of its (alpha, omega) vector normalised once."""
        return self._square(combine(self._vectors, coords, self.field))


@lru_cache(maxsize=512)
def fp_hom_space(src: FpObject, dst: FpObject) -> FpHomSpace:
    """R/R' for src and dst, built once per pair of equal presentations."""
    return FpHomSpace(src, dst)


def fp_hom(src: FpObject, dst: FpObject):
    """Representative squares for a basis of R/R'."""
    return fp_hom_space(src, dst).reps


def fp_is_zero_morphism(phi: FpMorphism) -> bool:
    return fp_hom_space(phi.src, phi.dst).coordinates_of(phi) == {}


def fp_is_zero_object(m: FpObject) -> bool:
    return len(fp_hom(m, m)) == 0


def fp_cokernel(phi: FpMorphism, certify_bound: int = 0) -> FpObject:
    """Presentation of the cokernel: [rho', alpha]: Q' + P -> P'."""
    return fp_object(kar_row([phi.dst.rho, phi.alpha]), certify_bound)


def _projection(parts, index: int) -> KarMorphism:
    """Projection of a direct sum onto one summand: the row of its identity
    and zero blocks."""
    target = parts[index]
    return kar_row(
        KarMorphism.identity(p) if k == index else KarMorphism.zero(p, target)
        for k, p in enumerate(parts)
    )


@lru_cache(maxsize=64)
def split_epi_section(eps: KarMorphism) -> KarMorphism:
    """The section of a split epimorphism, or an error.

    Memoised per value of eps: the first split of an eps is verified
    (fg = id here, fgf = f in split_solve), and a failure raises and is
    not stored.
    """
    w = split_solve(eps)
    if w is None or w.fg != KarMorphism.identity(eps.cod):
        raise ValueError("eps is not a split epimorphism")
    return w.g


def weak_kernel(theta: KarMorphism, s_split: KarObject, eps: KarMorphism):
    """K with kappa' = (eps (x) A) . kappa, a weak kernel of theta.

    Requires eps: S -> 1 split epi and S (x) theta split; K is the summand
    of S (x) A cut by the kernel idempotent of the split witness.
    """
    field = theta.dom.field
    unit = KarObject.word(0, theta.dom.cls, field)
    if eps.dom != s_split or eps.cod != unit:
        raise ValueError("eps must map the designated S to the unit")
    split_epi_section(eps)
    s_theta = kar_tensor(KarMorphism.identity(s_split), theta)
    w = split_solve(s_theta)
    if w is None:
        raise ValueError("S (x) theta is not split; enlarge S")
    kappa = w.kernel_inclusion()
    eps_a = kar_tensor(eps, KarMorphism.identity(theta.dom))
    kappa_prime = kar_compose(eps_a, kappa)
    if not kar_compose(theta, kappa_prime).is_zero():
        raise AssertionError("weak kernel fails theta . kappa' = 0")
    return kappa.dom, kappa_prime


def fp_kernel(
    phi: FpMorphism,
    s_split: KarObject,
    eps: KarMorphism,
    certify_bound: int = 0,
):
    """Kernel presentation of a square, with its inclusion into the source.

    Two weak kernels: first for [alpha, rho']: P + Q' -> P' (morphisms into
    P whose alpha-image dies in the cokernel), then for [w_P, rho]:
    K1 + Q -> P (the relations).  Returns (kernel, inclusion).
    """
    m, n = phi.src, phi.dst
    theta1 = kar_row([phi.alpha, n.rho])
    k1, k1_incl = weak_kernel(theta1, s_split, eps)
    w_p = kar_compose(_projection([m.P, n.Q], 0), k1_incl)
    theta2 = kar_row([w_p, m.rho])
    v, k2_incl = weak_kernel(theta2, s_split, eps)
    lam_k = kar_compose(_projection([k1, m.Q], 0), k2_incl)
    lam_q = kar_compose(_projection([k1, m.Q], 1), k2_incl)
    kernel = fp_object(lam_k, certify_bound)
    minus = -m.field.one()
    inclusion = FpMorphism(kernel, m, w_p, lam_q.scale(minus))
    if not fp_is_zero_morphism(fp_compose(phi, inclusion)):
        raise AssertionError("kernel inclusion does not kill phi")
    return kernel, inclusion


def weak_kernel_exact_at(
    theta: KarMorphism,
    k_obj: KarObject,
    kappa_prime: KarMorphism,
    probe: KarObject,
) -> bool:
    """Exactness of Hom(X,K) -> Hom(X,A) -> Hom(X,B) at the middle."""
    field = probe.field
    hx = kar_hom(probe, theta.dom)
    hb = kar_hom(probe, theta.cod)
    hk = kar_hom(probe, k_obj)
    kernel = matrix_of(
        lambda h: kar_compose(theta, h), hx.elements, hb, field
    ).kernel_basis()
    image = matrix_of(
        lambda z: kar_compose(kappa_prime, z), hk.elements, hx, field
    )
    for vec in kernel:
        if image.solve(vec) is None:
            return False
    return True


def fp_vanishing_dimension(phi: FpMorphism, probe: FpObject) -> int:
    """dim of {h: dst -> probe with h.phi = 0 in the quotient}."""
    hs = fp_hom_space(phi.dst, probe)
    target = fp_hom_space(phi.src, probe)
    image = matrix_of(lambda h: fp_compose(h, phi), hs.reps, target, hs.field)
    return len(hs) - image.rank()


def fp_covanishing_reps(phi: FpMorphism, probe: FpObject):
    """Representative squares h: probe -> src with phi.h = 0 in the quotient."""
    hs = fp_hom_space(probe, phi.src)
    target = fp_hom_space(probe, phi.dst)
    image = matrix_of(lambda h: fp_compose(phi, h), hs.reps, target, hs.field)
    return [hs.from_coordinates(vec) for vec in image.kernel_basis()]


def fp_factors_through(tail: FpMorphism, h: FpMorphism) -> bool:
    """Whether h: T -> M factors through tail: K -> M in the quotient."""
    if tail.dst != h.dst:
        raise ValueError("codomain mismatch")
    hs = fp_hom_space(h.src, tail.src)
    target = fp_hom_space(h.src, h.dst)
    image = matrix_of(lambda z: fp_compose(tail, z), hs.reps, target, hs.field)
    coords = target.coordinates_of(h)
    if coords is None:
        raise ValueError("h is not a square between its objects")
    return image.solve(coords) is not None
