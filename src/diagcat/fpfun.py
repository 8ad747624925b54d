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
"""

from __future__ import annotations

from .homspace import ExactMatrix, LinMorphism, Subspace, hom_basis, matrix_of, sparse
from .karoubi import (
    KarHom,
    KarMorphism,
    KarObject,
    direct_sum,
    kar_compose,
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

    def to_text(self) -> str:
        return f"coker( {self.rho.to_text()} )"

    def __repr__(self):
        return f"FpObject({self.to_text()})"


def _certify(obj: KarObject, bound: int) -> int:
    """split_solve X(x)f over all basis diagrams f within the bound."""
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


def unit_presentation_trivial(cls: DiagramClass, field: FieldSpec) -> FpObject:
    return yoneda(KarObject.word(0, cls, field), certify_bound=0)


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

    def __init__(self, src: FpObject, dst: FpObject, alpha, omega, validate=True):
        if validate:
            lhs = kar_compose(alpha, src.rho)
            rhs = kar_compose(dst.rho, omega)
            if lhs != rhs:
                raise ValueError("square does not commute: alpha.rho != rho'.omega")
        self.src = src
        self.dst = dst
        self.alpha = alpha
        self.omega = omega

    def __add__(self, other):
        return FpMorphism(
            self.src,
            self.dst,
            self.alpha + other.alpha,
            self.omega + other.omega,
            validate=False,
        )

    def scale(self, c):
        return FpMorphism(
            self.src, self.dst, self.alpha.scale(c), self.omega.scale(c),
            validate=False,
        )

    def to_text(self) -> str:
        return f"(alpha = {self.alpha.to_text()}, omega = {self.omega.to_text()})"

    def __repr__(self):
        return f"FpMorphism({self.to_text()})"


def fp_identity(m: FpObject) -> FpMorphism:
    return FpMorphism(
        m, m, KarMorphism.identity(m.P), KarMorphism.identity(m.Q), validate=False
    )


def fp_compose(outer: FpMorphism, inner: FpMorphism) -> FpMorphism:
    if inner.dst != outer.src:
        raise ValueError("shape mismatch in square composition")
    return FpMorphism(
        inner.src,
        outer.dst,
        kar_compose(outer.alpha, inner.alpha),
        kar_compose(outer.omega, inner.omega),
        validate=False,
    )


def fp_zero_morphism(src: FpObject, dst: FpObject) -> FpMorphism:
    return FpMorphism(
        src,
        dst,
        KarMorphism.zero(src.P, dst.P),
        KarMorphism.zero(src.Q, dst.Q),
        validate=False,
    )


class FpHomSpace:
    """R/R' for a pair of presentations.

    R is the space of commuting squares; R' the subspace inducing zero on
    cokernels (alpha factors through the target presentation).  Coordinates
    live in the concatenated (alpha, omega) compressed hom coordinates.
    """

    def __init__(self, src: FpObject, dst: FpObject):
        if src.cls != dst.cls:
            raise ValueError("class mismatch")
        self.src = src
        self.dst = dst
        field = src.field
        self.field = field
        self.ha = KarHom(src.P, dst.P)
        self.ho = KarHom(src.Q, dst.Q)
        hc = KarHom(src.Q, dst.P)
        a, b = self.ha.dimension(), self.ho.dimension()
        self.size = a + b
        pre_rho = matrix_of(
            lambda e: kar_compose(e, src.rho), self.ha.elements, hc, field
        )
        rho_post = matrix_of(
            lambda o: kar_compose(dst.rho, o), self.ho.elements, hc, field
        )
        constraint = ExactMatrix(
            hc.dimension(),
            a + b,
            [pre + [-c for c in post]
             for pre, post in zip(pre_rho.entries, rho_post.entries)],
            field,
        )
        solutions = constraint.kernel_basis()

        self.rprime_gens = []
        hb = KarHom(src.P, dst.Q)
        for beta in hb.elements:
            va = self.ha.coordinates_of(kar_compose(dst.rho, beta))
            vo = self.ho.coordinates_of(kar_compose(beta, src.rho))
            self.rprime_gens.append(va + vo)
        for vec in rho_post.kernel_basis():
            self.rprime_gens.append([field.zero()] * a + vec)

        span = Subspace(field)
        self._rprime = Subspace(field)
        for g in self.rprime_gens:
            vec = sparse(g)
            span.add(vec)
            self._rprime.add(vec)
        self.reps = []
        for vec in solutions:
            if span.add(sparse(vec)):
                alpha = self.ha.from_coordinates(vec[:a])
                omega = self.ho.from_coordinates(vec[a:])
                self.reps.append(FpMorphism(src, dst, alpha, omega))

    def dimension(self) -> int:
        return len(self.reps)

    def pair_coords(self, phi: FpMorphism):
        """Dense (alpha, omega) coordinates of a square."""
        va = self.ha.coordinates_of(phi.alpha)
        vo = self.ho.coordinates_of(phi.omega)
        if va is None or vo is None:
            raise ValueError("square does not live in this hom space")
        return va + vo

    def is_zero_class(self, phi: FpMorphism) -> bool:
        return self._rprime.contains(sparse(self.pair_coords(phi)))


def fp_hom(src: FpObject, dst: FpObject):
    """Representative squares for a basis of R/R'."""
    return FpHomSpace(src, dst).reps


def fp_is_zero_morphism(phi: FpMorphism) -> bool:
    return FpHomSpace(phi.src, phi.dst).is_zero_class(phi)


def fp_is_zero_object(m: FpObject) -> bool:
    return len(fp_hom(m, m)) == 0


def fp_cokernel(phi: FpMorphism, certify_bound: int = 0) -> FpObject:
    """Presentation of the cokernel: [rho', alpha]: Q' + P -> P'."""
    return fp_object(kar_row([phi.dst.rho, phi.alpha]), certify_bound)


def _projection(parts, index: int) -> KarMorphism:
    """Projection of a direct sum onto one summand."""
    total = parts[0]
    for p in parts[1:]:
        total = direct_sum(total, p)
    target = parts[index]
    offset = sum(len(p.words) for p in parts[:index])
    entries = []
    for i, w_cod in enumerate(target.words):
        row = []
        for j, w_dom in enumerate(total.words):
            if offset <= j < offset + len(target.words):
                row.append(target.cut[i][j - offset])
            else:
                row.append(LinMorphism.zero(w_dom, w_cod))
        entries.append(tuple(row))
    return KarMorphism(total, target, entries, validate=False)


def split_epi_section(eps: KarMorphism) -> KarMorphism:
    """The section of a split epimorphism, or an error."""
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
    e_k = w.kernel_idempotent
    k_obj = KarObject(
        theta.dom.cls, field, e_k.dom.words, e_k.entries
    )
    kappa = KarMorphism(k_obj, e_k.dom, e_k.entries, validate=False)
    eps_a = kar_tensor(eps, KarMorphism.identity(theta.dom))
    kappa_prime = kar_compose(eps_a, kappa)
    if not kar_compose(theta, kappa_prime).is_zero():
        raise AssertionError("weak kernel fails theta . kappa' = 0")
    return k_obj, kappa_prime


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
    hx = KarHom(probe, theta.dom)
    hb = KarHom(probe, theta.cod)
    hk = KarHom(probe, k_obj)
    if hx.dimension() == 0:
        return True
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
    hs = FpHomSpace(phi.dst, probe)
    target = FpHomSpace(phi.src, probe)
    span = Subspace(target.field)
    for g in target.rprime_gens:
        span.add(sparse(g))
    image_rank = 0
    for h in hs.reps:
        vec = target.pair_coords(fp_compose(h, phi))
        if span.add(sparse(vec)):
            image_rank += 1
    return hs.dimension() - image_rank


def fp_covanishing_reps(phi: FpMorphism, probe: FpObject):
    """Representative squares h: probe -> src with phi.h = 0 in the quotient."""
    hs = FpHomSpace(probe, phi.src)
    target = FpHomSpace(probe, phi.dst)
    field = target.field
    columns = [
        target.pair_coords(fp_compose(phi, h)) for h in hs.reps
    ]
    columns += target.rprime_gens
    if not columns:
        return []
    matrix = ExactMatrix.from_columns(columns, target.size, field)
    seen = Subspace(field)
    out = []
    for vec in matrix.kernel_basis():
        head = sparse(vec[: len(hs.reps)])
        if not head or not seen.add(head):
            continue
        combo = fp_zero_morphism(probe, phi.src)
        for i, c in head.items():
            combo = combo + hs.reps[i].scale(c)
        out.append(combo)
    return out


def fp_factors_through(tail: FpMorphism, h: FpMorphism) -> bool:
    """Whether h: T -> M factors through tail: K -> M in the quotient."""
    if tail.dst != h.dst:
        raise ValueError("codomain mismatch")
    hs = FpHomSpace(h.src, tail.src)
    target = FpHomSpace(h.src, h.dst)
    columns = [
        target.pair_coords(fp_compose(tail, z)) for z in hs.reps
    ]
    columns += target.rprime_gens
    rhs = target.pair_coords(h)
    if not columns:
        return target._rprime.contains(sparse(rhs))
    matrix = ExactMatrix.from_columns(columns, target.size, target.field)
    return matrix.solve(rhs) is not None
