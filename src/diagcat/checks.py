"""Bounded mechanical verification of the structural conditions.

Each check runs an exact computation (no tolerances) over all instances
within explicit bounds and returns a CheckReport.  Verdicts about
statements with unbounded quantifiers are reported as pass-up-to-bound.
A check body raises CheckFailed with its witness at the first
counterexample; `_report` times the body and builds the report.  The
checks take library values and know nothing of command lines.

"Factors through the unit" is used throughout in its combinatorial form:
a basis diagram factors through [0] exactly when no block mixes upper and
lower points.  This is the characterization the categorical arguments
rely on, and for the restricted diagram classes it is deliberately taken
in the ambient category (inside the class itself, the factoring object
may be missing even though the combinatorial condition holds).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

from .cobordism import (
    Cobordism,
    cob_compose,
    fibonacci_datum,
    generator,
    partition_crosscheck,
    partition_to_cob,
    st_datum,
)
from .homspace import LinMorphism, compose_sum, hom_basis, matrix_of
from .karoubi import (
    KarMorphism,
    KarObject,
    direct_sum,
    kar_hom,
    kar_object,
    kar_tensor,
    split_solve,
)
from .moebius import moebius_x_prime, special_morphisms, x_e, x_j
from .partition import (
    DiagramClass,
    PartitionDiagram,
    all_diagrams,
    factors_through_unit,
    odd_block_legs,
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

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


class CheckFailed(Exception):
    """Raised by a check body at its counterexample."""

    def __init__(self, witness):
        super().__init__(witness)
        self.witness = witness


def _report(check, params, run, status="pass") -> CheckReport:
    """Time run(): its return value is the witness of `status`, and a
    CheckFailed it raises makes a fail with that witness."""
    t0 = time.perf_counter()
    try:
        witness = run()
    except CheckFailed as failed:
        status, witness = "fail", failed.witness
    elapsed = int((time.perf_counter() - t0) * 1000)
    return CheckReport(check, params, status, witness, elapsed)


def _shapes(bound):
    """Every (m, n) with m + n <= bound, in lexicographic order."""
    return [(m, n) for m in range(bound + 1) for n in range(bound + 1 - m)]


def check_diag(cls: DiagramClass, max_points: int = 6) -> CheckReport:
    """Injectivity of tensor on basis pairs, and the unit-factoring law.

    (a) (b, b') -> b (x) b' is injective into the basis of the target;
    (b) if b (x) b' factors through the unit, so do b and b'.

    Each basis is marked once with whether its diagrams factor through the
    unit; then every pair, shape by shape in lexicographic order, is tested.
    """

    def run():
        marked = {}
        for m, n in _shapes(max_points):
            basis = hom_basis(cls, m, n)
            units = set(basis.through_unit)
            marked[m, n] = [(d, d in units) for d in basis]
        shapes = [
            (left, marked[s])
            for (m, n), left in marked.items()
            for s in _shapes(max_points - m - n)
        ]
        for left, right in shapes:
            seen = {}  # the tensor of each pair of the shape -> the pair
            for b, b_unit in left:
                for b2, b2_unit in right:
                    prod = tensor(b, b2)
                    if not cls.member(prod):
                        raise CheckFailed({
                            "pair": [b.to_text(), b2.to_text()],
                            "tensor": prod.to_text(),
                            "problem": "tensor left the class basis",
                        })
                    pair = (b, b2)
                    other = seen.setdefault(prod, pair)
                    if other is not pair:
                        raise CheckFailed({
                            "pair": [b.to_text(), b2.to_text()],
                            "other_pair": [other[0].to_text(), other[1].to_text()],
                            "tensor": prod.to_text(),
                            "problem": "tensor map not injective",
                        })
                    if not (b_unit and b2_unit) and factors_through_unit(prod):
                        raise CheckFailed({
                            "pair": [b.to_text(), b2.to_text()],
                            "tensor": prod.to_text(),
                            "problem": "factor of a through-unit tensor is not through-unit",
                        })

    return _report("diag", {"class": cls.value, "max_points": max_points}, run)


def _through_unit_span(lin: LinMorphism) -> bool:
    """Whether lin lies in the span of through-unit basis diagrams."""
    return all(factors_through_unit(d) for d in lin.terms)


def check_ex(
    mode: int,
    cls: DiagramClass,
    max_points: int = 6,
    samples: int = 200,
    seed: int = 0,
    field: FieldSpec = FieldSpec(),
) -> CheckReport:
    """Exactness conditions on hom spaces.

    mode 1: the bilinear map (v, u) -> v (x) u from Hom(1,V) x Hom(U,1)
    into Hom(U,V) has full column rank on class bases.
    mode 2: sampled tensor products that factor through the unit have both
    factors in the through-unit span; the basis-level structural argument
    is rechecked alongside the samples.
    """
    params = {
        "class": cls.value,
        "max_points": max_points,
        "mode": mode,
        "field": field.describe(),
    }
    if mode == 1:
        return _report("ex1", params, lambda: _ex1(cls, max_points, field))
    if mode != 2:
        raise ValueError("mode must be 1 or 2")
    params["samples"] = samples
    params["seed"] = seed
    return _report("ex2", params, lambda: _ex2(cls, max_points, samples, seed, field))


def _ex1(cls, max_points, field):
    for a, b in _shapes(max_points):
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
            raise CheckFailed({
                "U": a,
                "V": b,
                "columns": len(pairs),
                "rank": rank,
                "problem": "psi_{U,V} not injective",
            })


def _ex2(cls, max_points, samples, seed, field):
    # structural route: at the basis level this is exactly check_diag (b)
    structural = check_diag(cls, max_points)
    if structural.status != "pass":
        raise CheckFailed(structural.witness)
    rng = random.Random(seed)
    hits = 0
    shapes = [s for s in _shapes(max_points // 2) if hom_basis(cls, *s)]
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
            raise CheckFailed({
                "f": f.to_text(),
                "g": g.to_text(),
                "tensor": prod.to_text(),
                "problem": "factor escapes the through-unit span",
            })
    return {"mode": "structural pass via (Diag) + sampled pass", "hits": hits}


def _random_combination(rng, cls, m, n, field, unit_bias=False):
    basis = hom_basis(cls, m, n)
    pool = basis.diagrams
    if unit_bias and rng.random() < 0.5:
        pool = basis.through_unit or pool
    size = rng.randint(1, min(3, len(pool)))
    terms = {d: field.rational(rng.randint(-3, 3)) for d in rng.sample(pool, size)}
    return LinMorphism(m, n, terms)


def default_unit_morphism(cls: DiagramClass, field: FieldSpec) -> LinMorphism:
    """The canonical morphism U -> 1 used for exactness checks."""
    if cls in (DiagramClass.ALL,):
        return LinMorphism.from_diagram(PartitionDiagram(1, 0, [(1,)]), field)
    return LinMorphism.from_diagram(PartitionDiagram(2, 0, [(1, 2)]), field)


def check_uex(
    u: LinMorphism,
    cls: DiagramClass,
    max_target_word: int = 3,
    field: FieldSpec = FieldSpec(),
) -> CheckReport:
    """Coequalizer condition for u: U -> 1.

    For every target word V = [k] up to the bound, the kernel of
    f -> f . (u (x) U - U (x) u) on Hom(U, V) must equal the image of
    v -> v . u from Hom(1, V), and v -> v . u must be injective.
    """
    if u.is_zero():
        raise ValueError("the morphism collection U(C) excludes zero morphisms")
    if u.cod != 0:
        raise ValueError("u must have target [0]")
    cls.require(u.terms, "u")
    uw = u.dom
    params = {
        "class": cls.value,
        "u": u.to_text(),
        "max_target_word": max_target_word,
        "field": field.describe(),
    }

    def run():
        ident = LinMorphism.from_diagram(PartitionDiagram.identity(uw), field)
        w = u.tensor(ident, field) - ident.tensor(u, field)
        for k in range(max_target_word + 1):
            basis_uv = hom_basis(cls, uw, k)
            basis_1v = hom_basis(cls, 0, k)
            if not basis_uv and not basis_1v:
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
            if b.rank() != len(basis_1v):
                raise CheckFailed({"V": k, "problem": "v -> v.u is not injective"})
            # image of b inside the kernel, and equality of dimensions
            for d in basis_1v:
                vu = LinMorphism.from_diagram(d, field).compose(u, field)
                if not vu.compose(w, field).is_zero():
                    raise CheckFailed({
                        "V": k,
                        "v": d.to_text(),
                        "problem": "image of v -> v.u escapes the kernel",
                    })
            if b.rank() != len(kernel):
                raise CheckFailed({
                    "V": k,
                    "kernel_dim": len(kernel),
                    "image_dim": b.rank(),
                    "problem": "coequalizer kernel exceeds the image of v -> v.u",
                })

    return _report("uex", params, run, status="pass-up-to-bound")


def check_splitting_object(
    x: KarObject, f: KarMorphism, side: str = "left"
) -> CheckReport:
    """Whether X (x) f (or f (x) X) is split."""
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

    def run():
        ident = KarMorphism.identity(x)
        prod = kar_tensor(ident, f) if side == "left" else kar_tensor(f, ident)
        witness = split_solve(prod)
        if witness is None:
            raise CheckFailed({"problem": "X tensor f is not split"})
        return {"g": witness.g.to_text(), "denominators": list(witness.denominators)}

    return _report("splitting-object", params, run)


def check_split_sweep(
    cls: DiagramClass = DiagramClass.ALL,
    max_points: int = 4,
    field: FieldSpec = FieldSpec(),
    samples: int = 25,
    seed: int = 0,
) -> CheckReport:
    """split_solve on every basis diagram within the bound, plus sampled
    combinations; every returned witness is re-verified exactly."""
    params = {
        "class": cls.value,
        "max_points": max_points,
        "samples": samples,
        "seed": seed,
        "field": field.describe(),
    }

    def run():
        rng = random.Random(seed)
        cases = []
        for m, n in _shapes(max_points):
            for d in hom_basis(cls, m, n):
                cases.append(LinMorphism.from_diagram(d, field))
        shapes = [s for s in _shapes(max_points) if hom_basis(cls, *s)]
        for _ in range(samples):
            m, n = rng.choice(shapes)
            lin = _random_combination(rng, cls, m, n, field)
            cases.append(lin)
        for lin in cases:
            f = KarMorphism.from_lin(lin, cls, field)
            if split_solve(f) is None:
                raise CheckFailed({
                    "morphism": lin.to_text(),
                    "problem": "no split witness found",
                })
        return {"morphisms_checked": len(cases)}

    return _report("split", params, run)


def _rep_h_objects(i: int, field: FieldSpec):
    parts = [
        kar_object(j, x_e(j, field), DiagramClass.EVEN_BLOCKS, field, name="x_j*e_j")
        for j in range(i + 1)
    ]
    x = parts[0]
    for part in parts[1:]:
        x = direct_sum(x, part)
    return x


def _phi_bijective(cls, x, p_entries, m_max, field):
    """Bijectivity of phi = (p . -): Hom([m], X) -> Hom_S([m], [0]) for every
    m <= m_max; the fail lists each m where phi is not bijective."""

    def phi(elem):
        # p lies in the ambient class and X in a restricted one, so the
        # row-by-column product p . elem is a class-free compose_sum
        column = (row[0] for row in elem.entries)
        return compose_sum(zip(p_entries, column), elem.dom.words[0], 0, field)

    failures = []
    for m in range(m_max + 1):
        hom = kar_hom(KarObject.word(m, cls, field), x)
        target = hom_basis(DiagramClass.ALL, m, 0)
        matrix = matrix_of(phi, hom.elements, target, field)
        if not matrix.is_bijective():
            failures.append(
                {
                    "m": m,
                    "hom_dim": len(hom),
                    "target_dim": len(target),
                    "rank": matrix.rank(),
                }
            )
    if failures:
        raise CheckFailed(
            {"problem": "phi = (p . -) is not bijective", "failures": failures}
        )


def representable_H(
    i: int, m_max: int, field: FieldSpec = FieldSpec()
) -> CheckReport:
    """Bijectivity of p . - : Hom_H([m], X_0 + ... + X_i) -> Hom_S([m], [0]).

    The even-blocks statement holds for m <= i; probing larger m exhibits
    the rank deficit that makes the full direct sum necessary.
    """

    def run():
        x = _rep_h_objects(i, field)
        p_entries = [
            special_morphisms("p_j", j, field).compose(x_e(j, field), field)
            for j in range(i + 1)
        ]
        _phi_bijective(DiagramClass.EVEN_BLOCKS, x, p_entries, m_max, field)
        skeleton = sum(
            _verify_h_skeleton(p_entries, m, field) for m in range(m_max + 1)
        )
        return {"skeleton_instances": skeleton}

    params = {"i": i, "m_max": m_max, "field": field.describe()}
    return _report("representable-h", params, run)


def _verify_h_skeleton(p_entries, m: int, field: FieldSpec) -> int:
    """Spanning-set images: phi(q_j x_j e_j g) = x'(f) over orbit reps,
    with p_entries[j] = p_j . x_j e_j for each j the check covers.

    Orbit representatives of S_j on the even-block diagrams with at most
    one lower point per block correspond to set partitions f of the m
    upper points with exactly j odd blocks; g adds one lower point to
    each odd block of f.
    """
    count = 0
    for f in all_diagrams(m, 0):
        g = odd_block_legs(f)
        if g.n >= len(p_entries):
            continue
        lhs = p_entries[g.n].compose(LinMorphism.from_diagram(g, field), field)
        if lhs != moebius_x_prime(f, field):
            raise AssertionError(
                f"spanning-set image mismatch at f = {f.to_text()}"
            )
        count += 1
    return count


def representable_Sprime(
    m_max: int, field: FieldSpec = FieldSpec()
) -> CheckReport:
    """Bijectivity of (p_0, p_1) . - : Hom_S'([m], X_0 + X_1) -> Hom_S([m],[0])."""
    field.require_nonzero_t("representable_Sprime")

    def run():
        cls = DiagramClass.EVEN_MANY_ODD_BLOCKS
        x0 = KarObject.word(0, cls, field)
        x1 = kar_object(
            1, special_morphisms("e_1_sprime", 1, field), cls, field, name="e_1_sprime"
        )
        p_entries = [
            special_morphisms("p_j", 0, field),
            special_morphisms("p_j", 1, field).compose(
                special_morphisms("e_1_sprime", 1, field), field
            ),
        ]
        _phi_bijective(cls, direct_sum(x0, x1), p_entries, m_max, field)

    params = {"m_max": m_max, "field": field.describe()}
    return _report("representable-sprime", params, run)


def verify_lemma(
    which: str,
    j_max: int = 3,
    m_max: int = 3,
    field: FieldSpec = FieldSpec(),
) -> CheckReport:
    """Exhaustive instances of the absorption / computation lemmas."""
    params = {"which": which, "j_max": j_max, "m_max": m_max}
    if which == "absorption":
        return _report(
            "lemma-absorption", params, lambda: _absorption(j_max, m_max, field)
        )
    if which != "computation_H":
        raise ValueError("which must be absorption or computation_H")
    return _report(
        "lemma-computation", params, lambda: _computation(j_max, m_max, field)
    )


def _absorption(j_max, m_max, field):
    count = 0
    for j in range(j_max + 1):
        xj = x_j(j, field)
        for m in range(m_max + 1):
            for g in all_diagrams(m, j):
                if not any(sum(1 for p in b if p > m) >= 2 for b in g.blocks):
                    continue
                prod = xj.compose(LinMorphism.from_diagram(g, field), field)
                if not prod.is_zero():
                    raise CheckFailed({
                        "j": j,
                        "g": g.to_text(),
                        "x_j.g": prod.to_text(),
                        "problem": "absorption violated",
                    })
                count += 1
    return {"instances": count}


def _computation(j_max, m_max, field):
    count = 0
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
                    raise CheckFailed({
                        "j": j,
                        "g": g.to_text(),
                        "lhs": lhs.to_text(),
                        "rhs": rhs.to_text(),
                        "problem": "computation lemma violated",
                    })
                count += 1
    return {"instances": count}


def check_crosscheck_cob(max_points: int = 5) -> CheckReport:
    """Partition composition against cobordism gluing, plus handle scalars."""

    def run():
        checked = 0
        field = FieldSpec.generic()
        walks = {s: list(all_diagrams(*s)) for s in _shapes(max_points)}
        # every composite of two walked diagrams is walked too
        cobs = {d: partition_to_cob(d) for ds in walks.values() for d in ds}
        for m, k in walks:
            for n in range(max_points + 1 - m - k):
                for g in walks[m, k]:
                    for f in walks[k, n]:
                        if not partition_crosscheck(f, g, cobs.__getitem__):
                            raise CheckFailed({
                                "f": f.to_text(),
                                "g": g.to_text(),
                                "problem": "cobordism route disagrees",
                            })
                        checked += 1
        gen = {n: LinMorphism.from_diagram(generator(n), field) for n in ("eta", "phi", "eps")}
        for datum in (st_datum(field), fibonacci_datum(field)):
            cur = gen["eta"]  # phi^i . eta, carried from i to i + 1
            for i in range(5):
                if i:
                    cur = cob_compose(gen["phi"], cur, datum)
                want = LinMorphism(0, 0, {Cobordism(0, 0, []): datum.alpha(i)})
                if cob_compose(gen["eps"], cur, datum) != want:
                    raise CheckFailed({
                        "datum": datum.describe(),
                        "i": i,
                        "problem": "handle power scalar mismatch",
                    })
                checked += 1
        return {"instances": checked}

    return _report("crosscheck-cob", {"max_points": max_points}, run)
