"""Bounded mechanical verification of the structural conditions.

Each check runs an exact computation (no tolerances) over all instances
within explicit bounds and returns a CheckReport.  Verdicts about
statements with unbounded quantifiers are reported as pass-up-to-bound.

"Factors through the unit" is used throughout in its combinatorial form:
a basis diagram factors through [0] exactly when no block mixes upper and
lower points.  This is the characterization the categorical arguments
rely on, and for the restricted diagram classes it is deliberately taken
in the ambient category (inside the class itself, the factoring object
may be missing even though the combinatorial condition holds).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .cobordism import (
    CobLin,
    Cobordism,
    cob_compose,
    fibonacci_datum,
    generator,
    partition_crosscheck,
    st_datum,
)
from .homspace import (
    HomBasis,
    LinMorphism,
    Subspace,
    hom_basis,
    matrix_of,
    sparse,
)
from .karoubi import (
    KarHom,
    KarMorphism,
    KarObject,
    direct_sum,
    kar_object,
    kar_tensor,
    split_solve,
)
from .moebius import moebius_x_prime, special_morphisms, symmetrizer, x_e, x_j
from .partition import (
    DiagramClass,
    PartitionDiagram,
    all_diagrams,
    factors_through_unit,
    tensor,
    upper_partition,
)
from .scalar import FieldSpec


@dataclass
class CheckReport:
    check: str
    params: dict
    status: str
    witness: object
    elapsed_ms: int

    def passed(self) -> bool:
        return self.status in ("pass", "pass-up-to-bound")

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _finish(check, params, status, witness, t0) -> CheckReport:
    elapsed = int((time.perf_counter() - t0) * 1000)
    return CheckReport(check, params, status, witness, elapsed)


def _shapes_within(max_points, arity):
    """All tuples of `arity` nonnegative ints with bounded sum."""
    if arity == 0:
        yield ()
        return
    for head in range(max_points + 1):
        for rest in _shapes_within(max_points - head, arity - 1):
            yield (head,) + rest


def check_diag(cls: DiagramClass, max_points: int = 6) -> CheckReport:
    """Injectivity of tensor on basis pairs, and the unit-factoring law.

    (a) (b, b') -> b (x) b' is injective into the basis of the target;
    (b) if b (x) b' factors through the unit, so do b and b'.
    """
    t0 = time.perf_counter()
    params = {"class": cls.value, "max_points": max_points}
    replay = f"diagcat check diag --class {cls.value} --max-points {max_points}"
    seen = {}
    for m, n, m2, n2 in _shapes_within(max_points, 4):
        for b in hom_basis(cls, m, n):
            for b2 in hom_basis(cls, m2, n2):
                prod = tensor(b, b2)
                if not cls.member(prod):
                    witness = {
                        "pair": [b.to_text(), b2.to_text()],
                        "tensor": prod.to_text(),
                        "problem": "tensor left the class basis",
                        "replay": replay,
                    }
                    return _finish("diag", params, "fail", witness, t0)
                key = (m, n, m2, n2, prod)
                if key in seen and seen[key] != (b, b2):
                    other = seen[key]
                    witness = {
                        "pair": [b.to_text(), b2.to_text()],
                        "other_pair": [other[0].to_text(), other[1].to_text()],
                        "tensor": prod.to_text(),
                        "problem": "tensor map not injective",
                        "replay": replay,
                    }
                    return _finish("diag", params, "fail", witness, t0)
                seen[key] = (b, b2)
                if factors_through_unit(prod) and not (
                    factors_through_unit(b) and factors_through_unit(b2)
                ):
                    witness = {
                        "pair": [b.to_text(), b2.to_text()],
                        "tensor": prod.to_text(),
                        "problem": "factor of a through-unit tensor is not through-unit",
                        "replay": replay,
                    }
                    return _finish("diag", params, "fail", witness, t0)
    return _finish("diag", params, "pass", None, t0)


def _through_unit_span(lin: LinMorphism) -> bool:
    """Whether lin lies in the span of through-unit basis diagrams."""
    return all(factors_through_unit(d) for d in lin.terms)


def check_ex(
    mode: int,
    cls: DiagramClass,
    max_points: int = 6,
    samples: int = 200,
    seed: int = 0,
    field: FieldSpec | None = None,
) -> CheckReport:
    """Exactness conditions on hom spaces.

    mode 1: the bilinear map (v, u) -> v (x) u from Hom(1,V) x Hom(U,1)
    into Hom(U,V) has full column rank on class bases.
    mode 2: sampled tensor products that factor through the unit have both
    factors in the through-unit span; the basis-level structural argument
    is rechecked alongside the samples.
    """
    t0 = time.perf_counter()
    field = field or FieldSpec.generic()
    params = {
        "class": cls.value,
        "max_points": max_points,
        "mode": mode,
        "field": field.describe(),
    }
    if mode == 1:
        replay = f"diagcat check ex1 --class {cls.value} --max-points {max_points}"
        for a in range(max_points + 1):
            for b in range(max_points + 1 - a):
                us = hom_basis(cls, a, 0)
                vs = hom_basis(cls, 0, b)
                if not us or not vs:
                    continue
                target = hom_basis(cls, a, b)
                pairs = [(v, u) for v in vs for u in us]
                matrix = matrix_of(
                    lambda vu: LinMorphism.from_diagram(vu[0], field).tensor(
                        LinMorphism.from_diagram(vu[1], field), field
                    ),
                    pairs,
                    target,
                    field,
                )
                rank = matrix.rank()
                if rank != len(pairs):
                    witness = {
                        "U": a,
                        "V": b,
                        "columns": len(pairs),
                        "rank": rank,
                        "problem": "psi_{U,V} not injective",
                        "replay": replay,
                    }
                    return _finish("ex1", params, "fail", witness, t0)
        return _finish("ex1", params, "pass", None, t0)

    if mode != 2:
        raise ValueError("mode must be 1 or 2")
    params["samples"] = samples
    params["seed"] = seed
    replay = (
        f"diagcat check ex2 --class {cls.value} --max-points {max_points}"
        f" --samples {samples} --seed {seed}"
    )
    # structural route: at the basis level this is exactly check_diag (b)
    structural = check_diag(cls, max_points)
    if structural.status != "pass":
        return _finish("ex2", params, "fail", structural.witness, t0)
    rng = random.Random(seed)
    hits = 0
    shapes = [
        (m, n)
        for m in range(max_points + 1)
        for n in range(max_points + 1 - m)
        if m + n <= max_points // 2 and len(hom_basis(cls, m, n)) > 0
    ]
    for _ in range(samples):
        mf, nf = rng.choice(shapes)
        mg, ng = rng.choice(shapes)
        f = _random_combination(rng, cls, mf, nf, field, unit_bias=True)
        g = _random_combination(rng, cls, mg, ng, field, unit_bias=True)
        if f.is_zero() or g.is_zero():
            continue
        prod = f.tensor(g, field)
        if not _through_unit_span(prod):
            continue
        hits += 1
        if not (_through_unit_span(f) and _through_unit_span(g)):
            witness = {
                "f": f.to_text(),
                "g": g.to_text(),
                "tensor": prod.to_text(),
                "problem": "factor escapes the through-unit span",
                "replay": replay,
            }
            return _finish("ex2", params, "fail", witness, t0)
    return _finish(
        "ex2",
        params,
        "pass",
        {"mode": "structural pass via (Diag) + sampled pass", "hits": hits},
        t0,
    )


def _random_combination(rng, cls, m, n, field, unit_bias=False):
    basis = hom_basis(cls, m, n)
    out = LinMorphism.zero(m, n)
    pool = list(basis)
    if unit_bias and rng.random() < 0.5:
        pool = [d for d in pool if factors_through_unit(d)] or pool
    size = rng.randint(1, min(3, len(pool)))
    for d in rng.sample(pool, size):
        c = field.rational(Fraction(rng.randint(-3, 3)))
        out = out + LinMorphism.from_diagram(d, field, coeff=c)
    return out


def default_unit_morphism(cls: DiagramClass, field: FieldSpec) -> LinMorphism:
    """The canonical morphism U -> 1 used for exactness checks."""
    if cls in (DiagramClass.ALL,):
        return LinMorphism.from_diagram(PartitionDiagram(1, 0, [(1,)]), field)
    return LinMorphism.from_diagram(PartitionDiagram(2, 0, [(1, 2)]), field)


def check_uex(
    u: LinMorphism,
    cls: DiagramClass,
    max_target_word: int = 3,
    field: FieldSpec | None = None,
) -> CheckReport:
    """Coequalizer condition for u: U -> 1.

    For every target word V = [k] up to the bound, the kernel of
    f -> f . (u (x) U - U (x) u) on Hom(U, V) must equal the image of
    v -> v . u from Hom(1, V), and v -> v . u must be injective.
    """
    t0 = time.perf_counter()
    field = field or FieldSpec.generic()
    if u.is_zero():
        raise ValueError("the morphism collection U(C) excludes zero morphisms")
    if u.cod != 0:
        raise ValueError("u must have target [0]")
    uw = u.dom
    params = {
        "class": cls.value,
        "u": u.to_text(),
        "max_target_word": max_target_word,
        "field": field.describe(),
    }
    replay = (
        f"diagcat check uex --class {cls.value}"
        f" --max-points {max_target_word} --u \"{u.to_text()}\""
    )
    ident = LinMorphism.from_diagram(PartitionDiagram.identity(uw), field)
    w = u.tensor(ident, field) - ident.tensor(u, field)
    for k in range(max_target_word + 1):
        basis_uv = hom_basis(cls, uw, k)
        basis_1v = hom_basis(cls, 0, k)
        hom_uv = list(basis_uv)
        hom_1v = list(basis_1v)
        if len(hom_uv) == 0 and len(hom_1v) == 0:
            continue
        a = matrix_of(
            lambda f: f.compose(w, field),
            basis_uv,
            hom_basis(cls, 2 * uw, k),
            field,
        )
        kernel = a.kernel_basis()
        b = matrix_of(
            lambda v: v.compose(u, field),
            basis_1v,
            basis_uv,
            field,
        )
        if b.rank() != len(hom_1v):
            witness = {
                "V": k,
                "problem": "v -> v.u is not injective",
                "replay": replay,
            }
            return _finish("uex", params, "fail", witness, t0)
        # image of b inside the kernel, and equality of dimensions
        image = Subspace(field)
        for j in range(len(hom_1v)):
            col = sparse(row[j] for row in b.entries)
            v = LinMorphism.from_diagram(hom_1v[j], field)
            vu = v.compose(u, field)
            if not vu.compose(w, field).is_zero():
                witness = {
                    "V": k,
                    "v": hom_1v[j].to_text(),
                    "problem": "image of v -> v.u escapes the kernel",
                    "replay": replay,
                }
                return _finish("uex", params, "fail", witness, t0)
            image.add(col)
        if image.dimension() != len(kernel):
            witness = {
                "V": k,
                "kernel_dim": len(kernel),
                "image_dim": image.dimension(),
                "problem": "coequalizer kernel exceeds the image of v -> v.u",
                "replay": replay,
            }
            return _finish("uex", params, "fail", witness, t0)
        for vec in kernel:
            if not image.contains(sparse(vec)):
                witness = {
                    "V": k,
                    "problem": "kernel vector outside the image of v -> v.u",
                    "replay": replay,
                }
                return _finish("uex", params, "fail", witness, t0)
    return _finish("uex", params, "pass-up-to-bound", None, t0)


def check_splitting_object(
    x: KarObject, f: KarMorphism, side: str = "left"
) -> CheckReport:
    """Whether X (x) f (or f (x) X) is split."""
    t0 = time.perf_counter()
    if x.is_zero():
        raise ValueError("splitting objects must be non-zero")
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    params = {
        "X": x.to_text(),
        "side": side,
        "class": x.cls.value,
        "field": x.field.describe(),
    }
    ident = KarMorphism.identity(x)
    prod = kar_tensor(ident, f) if side == "left" else kar_tensor(f, ident)
    witness = split_solve(prod)
    if witness is None:
        return _finish(
            "splitting-object",
            params,
            "fail",
            {
                "problem": "X tensor f is not split",
                "replay": "diagcat check split",
            },
            t0,
        )
    return _finish(
        "splitting-object",
        params,
        "pass",
        {"g": witness.g.to_text(), "denominators": list(witness.denominators)},
        t0,
    )


def check_split_sweep(
    cls: DiagramClass = DiagramClass.ALL,
    max_points: int = 4,
    field: FieldSpec | None = None,
    samples: int = 25,
    seed: int = 0,
) -> CheckReport:
    """split_solve on every basis diagram within the bound, plus sampled
    combinations; every returned witness is re-verified exactly."""
    t0 = time.perf_counter()
    field = field or FieldSpec.generic()
    params = {
        "class": cls.value,
        "max_points": max_points,
        "samples": samples,
        "seed": seed,
        "field": field.describe(),
    }
    replay = (
        f"diagcat check split --class {cls.value} --max-points {max_points}"
        f" --samples {samples} --seed {seed}"
    )
    rng = random.Random(seed)
    checked = 0
    cases = []
    for m in range(max_points + 1):
        for n in range(max_points + 1 - m):
            for d in hom_basis(cls, m, n):
                cases.append(LinMorphism.from_diagram(d, field))
    shapes = [
        (m, n)
        for m in range(max_points + 1)
        for n in range(max_points + 1 - m)
        if len(hom_basis(cls, m, n)) > 0
    ]
    for _ in range(samples):
        m, n = rng.choice(shapes)
        lin = _random_combination(rng, cls, m, n, field)
        cases.append(lin)
    for lin in cases:
        f = KarMorphism.from_lin(lin, cls, field)
        w = split_solve(f)
        if w is None:
            witness = {
                "morphism": lin.to_text(),
                "problem": "no split witness found",
                "replay": replay,
            }
            return _finish("split", params, "fail", witness, t0)
        checked += 1
    return _finish("split", params, "pass", {"morphisms_checked": checked}, t0)


def _rep_h_objects(i: int, field: FieldSpec):
    parts = [
        kar_object(j, x_e(j, field), DiagramClass.EVEN_BLOCKS, field, name="x_j*e_j")
        for j in range(i + 1)
    ]
    x = parts[0]
    for part in parts[1:]:
        x = direct_sum(x, part)
    return x


def _phi_matrix(hom: KarHom, p_entries, target: HomBasis, field: FieldSpec):
    """Matrix of h -> p . h into the diagram basis of Hom([m], [0])."""

    def phi(elem):
        total = LinMorphism.zero(hom.dom.words[0], 0)
        for j, p_j in enumerate(p_entries):
            entry = elem.entries[j][0]
            if not entry.is_zero():
                total = total + p_j.compose(entry, field)
        return total

    return matrix_of(phi, hom.elements, target, field)


def representable_H(
    i: int, m_max: int, field: FieldSpec | None = None
) -> CheckReport:
    """Bijectivity of p . - : Hom_H([m], X_0 + ... + X_i) -> Hom_S([m], [0]).

    The even-blocks statement holds for m <= i; probing larger m exhibits
    the rank deficit that makes the full direct sum necessary.
    """
    t0 = time.perf_counter()
    field = field or FieldSpec.generic()
    params = {"i": i, "m_max": m_max, "field": field.describe()}
    replay = f"diagcat check representable-h --i {i} --m-max {m_max}"
    x = _rep_h_objects(i, field)
    p_entries = [
        special_morphisms("p_j", j, field).compose(x_e(j, field), field)
        for j in range(i + 1)
    ]
    skeleton = 0
    failures = []
    for m in range(m_max + 1):
        dom = KarObject.word(m, DiagramClass.EVEN_BLOCKS, field)
        hom = KarHom(dom, x)
        target = hom_basis(DiagramClass.ALL, m, 0)
        matrix = _phi_matrix(hom, p_entries, target, field)
        if not matrix.is_bijective():
            failures.append(
                {
                    "m": m,
                    "hom_dim": hom.dimension(),
                    "target_dim": len(target),
                    "rank": matrix.rank(),
                }
            )
            continue
        skeleton += _verify_h_skeleton(i, m, field)
    if failures:
        witness = {
            "problem": "phi = (p . -) is not bijective",
            "failures": failures,
            "replay": replay,
        }
        return _finish("representable-h", params, "fail", witness, t0)
    return _finish(
        "representable-h",
        params,
        "pass",
        {"skeleton_instances": skeleton},
        t0,
    )


def _verify_h_skeleton(i: int, m: int, field: FieldSpec) -> int:
    """Spanning-set images: phi(q_j x_j e_j g) = x'(f) over orbit reps.

    Orbit representatives of S_j on the even-block diagrams with at most
    one lower point per block correspond to set partitions f of the m
    upper points with exactly j odd blocks; g adds one lower point to
    each odd block of f.
    """
    count = 0
    for f in all_diagrams(m, 0):
        odd = [b for b in f.blocks if len(b) % 2 == 1]
        j = len(odd)
        if j > i:
            continue
        blocks = []
        next_lower = m + 1
        for b in f.blocks:
            if len(b) % 2 == 1:
                blocks.append(tuple(b) + (next_lower,))
                next_lower += 1
            else:
                blocks.append(tuple(b))
        g = PartitionDiagram(m, j, blocks)
        lhs = (
            special_morphisms("p_j", j, field)
            .compose(x_e(j, field), field)
            .compose(LinMorphism.from_diagram(g, field), field)
        )
        if lhs != moebius_x_prime(f, field):
            raise AssertionError(
                f"spanning-set image mismatch at f = {f.to_text()}"
            )
        count += 1
    return count


def representable_Sprime(
    m_max: int, field: FieldSpec | None = None
) -> CheckReport:
    """Bijectivity of (p_0, p_1) . - : Hom_S'([m], X_0 + X_1) -> Hom_S([m],[0])."""
    t0 = time.perf_counter()
    field = field or FieldSpec.generic()
    field.require_nonzero_t("representable_Sprime")
    params = {"m_max": m_max, "field": field.describe()}
    replay = f"diagcat check representable-sprime --m-max {m_max}"
    cls = DiagramClass.EVEN_MANY_ODD_BLOCKS
    x0 = kar_object(
        0,
        LinMorphism.from_diagram(PartitionDiagram.identity(0), field),
        cls,
        field,
        name="id",
    )
    x1 = kar_object(
        1, special_morphisms("e_1_sprime", 1, field), cls, field, name="e_1_sprime"
    )
    x = direct_sum(x0, x1)
    p_entries = [
        special_morphisms("p_j", 0, field),
        special_morphisms("p_j", 1, field).compose(
            special_morphisms("e_1_sprime", 1, field), field
        ),
    ]
    failures = []
    for m in range(m_max + 1):
        dom = KarObject.word(m, cls, field)
        hom = KarHom(dom, x)
        target = hom_basis(DiagramClass.ALL, m, 0)
        matrix = _phi_matrix(hom, p_entries, target, field)
        if not matrix.is_bijective():
            failures.append(
                {
                    "m": m,
                    "hom_dim": hom.dimension(),
                    "target_dim": len(target),
                    "rank": matrix.rank(),
                }
            )
    if failures:
        witness = {
            "problem": "phi = (p . -) is not bijective",
            "failures": failures,
            "replay": replay,
        }
        return _finish("representable-sprime", params, "fail", witness, t0)
    return _finish("representable-sprime", params, "pass", None, t0)


def verify_lemma(
    which: str,
    j_max: int = 3,
    m_max: int = 3,
    field: FieldSpec | None = None,
) -> CheckReport:
    """Exhaustive instances of the absorption / computation lemmas."""
    t0 = time.perf_counter()
    field = field or FieldSpec.generic()
    params = {"which": which, "j_max": j_max, "m_max": m_max}
    replay = f"diagcat check lemma-{which.replace('_', '-')}"
    count = 0
    if which == "absorption":
        for j in range(j_max + 1):
            xj = x_j(j, field)
            for m in range(m_max + 1):
                for g in all_diagrams(m, j):
                    if not any(
                        sum(1 for p in b if p > m) >= 2 for b in g.blocks
                    ):
                        continue
                    prod = xj.compose(LinMorphism.from_diagram(g, field), field)
                    if not prod.is_zero():
                        witness = {
                            "j": j,
                            "g": g.to_text(),
                            "x_j.g": prod.to_text(),
                            "problem": "absorption violated",
                            "replay": replay,
                        }
                        return _finish(
                            "lemma-absorption", params, "fail", witness, t0
                        )
                    count += 1
        return _finish(
            "lemma-absorption", params, "pass", {"instances": count}, t0
        )
    if which != "computation_H":
        raise ValueError("which must be absorption or computation_H")
    for j in range(j_max + 1):
        pxe = special_morphisms("p_j", j, field).compose(x_e(j, field), field)
        for m in range(m_max + 1):
            for g in all_diagrams(m, j):
                if any(len(b) % 2 for b in g.blocks):
                    continue
                if any(sum(1 for p in b if p > m) >= 2 for b in g.blocks):
                    continue
                lhs = pxe.compose(LinMorphism.from_diagram(g, field), field)
                f = upper_partition(g)
                rhs = moebius_x_prime(f, field)
                if lhs != rhs:
                    witness = {
                        "j": j,
                        "g": g.to_text(),
                        "lhs": lhs.to_text(),
                        "rhs": rhs.to_text(),
                        "problem": "computation lemma violated",
                        "replay": replay,
                    }
                    return _finish(
                        "lemma-computation", params, "fail", witness, t0
                    )
                count += 1
    return _finish(
        "lemma-computation", params, "pass", {"instances": count}, t0
    )


def check_crosscheck_cob(max_points: int = 5) -> CheckReport:
    """Partition composition against cobordism gluing, plus handle scalars."""
    t0 = time.perf_counter()
    params = {"max_points": max_points}
    replay = f"diagcat check crosscheck-cob --max-points {max_points}"
    checked = 0
    for m in range(max_points + 1):
        for k in range(max_points + 1 - m):
            for n in range(max_points + 1 - m - k):
                for g in all_diagrams(m, k):
                    for f in all_diagrams(k, n):
                        if not partition_crosscheck(f, g):
                            witness = {
                                "f": f.to_text(),
                                "g": g.to_text(),
                                "problem": "cobordism route disagrees",
                                "replay": replay,
                            }
                            return _finish(
                                "crosscheck-cob", params, "fail", witness, t0
                            )
                        checked += 1
    field = FieldSpec.generic()
    for datum in (st_datum(field), fibonacci_datum(field)):
        for i in range(5):
            cur = CobLin.from_cobordism(generator("eta"), field)
            phi = CobLin.from_cobordism(generator("phi"), field)
            for _ in range(i):
                cur = cob_compose(phi, cur, datum)
            cur = cob_compose(
                CobLin.from_cobordism(generator("eps"), field), cur, datum
            )
            want = CobLin(
                0, 0, {Cobordism(0, 0, []): datum.alpha(i)}
            )
            if cur != want:
                witness = {
                    "datum": datum.describe(),
                    "i": i,
                    "problem": "handle power scalar mismatch",
                    "replay": replay,
                }
                return _finish("crosscheck-cob", params, "fail", witness, t0)
            checked += 1
    return _finish(
        "crosscheck-cob", params, "pass", {"instances": checked}, t0
    )
