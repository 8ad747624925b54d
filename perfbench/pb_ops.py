"""Turn generated specs into program calls.

Every call goes through a module attribute (``karoubi.split_solve``, not a
name imported from it), so that in a traced run the wrappers installed on
the modules see each call.  Import this module only after the final
import of diagcat, since it binds the module objects it finds then.
"""

from __future__ import annotations

import contextlib
import io

import diagcat.cli as cli
import diagcat.cobordism as cobordism
import diagcat.fpfun as fpfun
import diagcat.homspace as homspace
import diagcat.karoubi as karoubi
import diagcat.moebius as moebius
import diagcat.partition as partition
import diagcat.scalar as scalar


def field_of(t):
    return scalar.FieldSpec.generic() if t is None else scalar.FieldSpec.at(t)


def coefficient(spec, field):
    num, den = spec
    if len(num) == 1 and den == (1,):
        return field.rational(num[0])
    if not field.is_generic():
        raise ValueError("specialised fields take rational coefficients only")
    return scalar.FieldElement.ratfunc(scalar.Poly(num), scalar.Poly(den))


def lin_of(spec, field):
    m, n, terms = spec
    return homspace.LinMorphism(
        m,
        n,
        {partition.PartitionDiagram(m, n, blocks): coefficient(c, field) for blocks, c in terms},
    )


def diagram_of(spec):
    m, n, blocks = spec
    return partition.PartitionDiagram(m, n, blocks)


def class_of(name):
    return partition.DiagramClass.from_text(name)


# ---- algebra-mix -------------------------------------------------------------


def _compose(spec):
    field = field_of(None)
    f, g = (lin_of(x, field) for x in spec["lins"])
    return g.compose(f, field)


def _assoc(spec):
    field = field_of(None)
    f, g, h = (lin_of(x, field) for x in spec["lins"])
    return h.compose(g.compose(f, field), field), h.compose(g, field).compose(f, field)


def _tensor(spec):
    field = field_of(None)
    a, b = (lin_of(x, field) for x in spec["lins"])
    return a.tensor(b, field)


def _moebius_x(spec):
    return moebius.moebius_x(diagram_of(spec["diagram"]), field_of(None))


def _moebius_xprime(spec):
    return moebius.moebius_x_prime(diagram_of(spec["diagram"]), field_of(None))


def _xe_product(spec):
    field = field_of(None)
    j = spec["params"][0]
    xe = moebius.x_e(j, field)
    return xe, xe.compose(lin_of(spec["lins"][0], field), field)


def _glue_st(spec):
    field = field_of(None)
    f, g = (cobordism.partition_to_cob(diagram_of(d)) for d in spec["cobs"])
    return cobordism.glue(g, f, cobordism.st_datum(field))


def _glue_fib(spec):
    field = field_of(None)
    f, g = (cobordism.Cobordism(m, n, comps) for m, n, comps in spec["cobs"])
    return cobordism.glue(g, f, cobordism.fibonacci_datum(field))


# ---- split-solve -------------------------------------------------------------


def _split_input(spec):
    field = field_of(spec["t"])
    cls = class_of(spec["cls"])
    lin = lin_of(spec["lin"], field)
    kind = spec["kind"]
    if kind in ("split_basis", "split_combo"):
        return karoubi.KarMorphism.from_lin(lin, cls, field)
    if kind == "split_cut":
        j = lin.dom
        e = moebius.x_e(j, field)
        obj = karoubi.kar_object(j, e, cls, field, name="x_j*e_j")
        cut = e.compose(lin, field).compose(e, field)
        return karoubi.KarMorphism(obj, obj, ((cut,),))
    x_word = spec["params"][0][0]
    if x_word == 1:
        x = karoubi.KarObject.word(1, cls, field)
    else:
        x = karoubi.kar_object(x_word, moebius.x_e(x_word, field), cls, field, name="x_j*e_j")
    f = karoubi.KarMorphism.from_lin(lin, cls, field)
    return karoubi.kar_tensor(karoubi.KarMorphism.identity(x), f)


def _split(spec):
    f = _split_input(spec)
    return f, karoubi.split_solve(f)


# ---- fp-presentations ----------------------------------------------------------


class _Fp:
    """Objects of one fp request, over generic t in the class of all partitions."""

    def __init__(self):
        self.field = field_of(None)
        self.cls = class_of("all")

    def word(self, w):
        return karoubi.KarObject.word(w, self.cls, self.field)

    def yoneda(self, w):
        return fpfun.yoneda(self.word(w))

    def square(self, lin, src, dst):
        alpha = karoubi.KarMorphism.from_lin(lin, self.cls, self.field)
        return fpfun.FpMorphism(src, dst, alpha, karoubi.KarMorphism.zero(src.Q, dst.Q))

    def spec_square(self, spec_lin):
        lin = lin_of(spec_lin, self.field)
        return self.square(lin, self.yoneda(lin.dom), self.yoneda(lin.cod))


def _fp_hom_yy(spec):
    fp = _Fp()
    a, b = spec["params"][:2]
    return len(fpfun.fp_hom(fp.yoneda(a), fp.yoneda(b)))


def _fp_coker(spec):
    fp = _Fp()
    return fpfun.fp_cokernel(fp.spec_square(spec["lin"]))


def _fp_hom_coker_y(spec):
    fp = _Fp()
    coker = fpfun.fp_cokernel(fp.spec_square(spec["lin"]))
    return len(fpfun.fp_hom(coker, fp.yoneda(spec["params"][2])))


def _fp_hom_y_coker(spec):
    fp = _Fp()
    coker = fpfun.fp_cokernel(fp.spec_square(spec["lin"]))
    return len(fpfun.fp_hom(fp.yoneda(spec["params"][2]), coker))


def _fp_vanish(spec):
    fp = _Fp()
    phi = fp.spec_square(spec["lin"])
    return fpfun.fp_vanishing_dimension(phi, fp.yoneda(spec["params"][2]))


def _fp_factors(spec):
    fp = _Fp()
    s, k, m, _ = spec["params"]
    target = fp.yoneda(m)
    tail_lin = lin_of(spec["tail"], fp.field)
    if "z" in spec:
        h_lin = tail_lin.compose(lin_of(spec["z"], fp.field), fp.field)
    else:
        h_lin = lin_of(spec["h"], fp.field)
    tail = fp.square(tail_lin, fp.yoneda(k), target)
    h = fp.square(h_lin, fp.yoneda(s), target)
    return fpfun.fp_factors_through(tail, h)


def _fp_kernel(spec):
    fp = _Fp()
    phi = fp.spec_square(spec["lin"])
    unit_map = homspace.LinMorphism.from_diagram(
        partition.PartitionDiagram(1, 0, [(1,)]), fp.field
    )
    eps = karoubi.KarMorphism.from_lin(unit_map, fp.cls, fp.field)
    kernel, _ = fpfun.fp_kernel(phi, fp.word(1), eps)
    return kernel


# ---- verify-suite --------------------------------------------------------------


def _verify(spec):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(spec["argv"]))
    return code, buf.getvalue()


RUNNERS = {
    "compose": _compose,
    "assoc": _assoc,
    "tensor": _tensor,
    "moebius_x": _moebius_x,
    "moebius_xprime": _moebius_xprime,
    "xe_product": _xe_product,
    "glue_st": _glue_st,
    "glue_fib": _glue_fib,
    "split_basis": _split,
    "split_combo": _split,
    "split_cut": _split,
    "split_xf": _split,
    "fp_hom_yy": _fp_hom_yy,
    "fp_coker": _fp_coker,
    "fp_hom_coker_y": _fp_hom_coker_y,
    "fp_hom_y_coker": _fp_hom_y_coker,
    "fp_vanish": _fp_vanish,
    "fp_factors": _fp_factors,
    "fp_kernel_light": _fp_kernel,
    "fp_kernel_eps": _fp_kernel,
}


def run(spec):
    """Execute one operation; verify-suite kinds all go through the CLI."""
    return RUNNERS.get(spec["kind"], _verify)(spec)


def warm_up():
    """Fill the lazy caches every workload reads: hom bases and Moebius terms."""
    field = field_of(None)
    for cls in partition.DiagramClass:
        for m in range(7):
            for n in range(7 - m):
                homspace.hom_basis(cls, m, n)
    everything = partition.DiagramClass.ALL
    for m in range(6):
        for n in range(6 - m):
            for d in homspace.hom_basis(everything, m, n):
                moebius.moebius_x(d, field)
    for j in range(5):
        moebius.x_e(j, field)
