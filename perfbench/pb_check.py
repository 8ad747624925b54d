"""Check each operation's output against pb_ref, outside the timed call.

Outputs are read attribute by attribute (diagram blocks, coefficient
polynomials, matrix entries) and recomputed with the reference arithmetic;
no program function is called here, so a traced run counts only the work
of the operations themselves.  A check raises CheckFailure on mismatch.
"""

from __future__ import annotations

import json

import pb_ref

# Probe words at which presented functors are evaluated.
PROBES = (0, 1, 2)
KERNEL_PROBES = (0, 1)


class CheckFailure(AssertionError):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailure(message)


# ---- reading program objects ----------------------------------------------------


def scalar_at(fe, t):
    if fe.kind == "q":
        return pb_ref.mod(fe.q)
    return pb_ref.ratfunc_at(fe.num.coeffs, fe.den.coeffs, t)


def lin_at(lin, t):
    return pb_ref.clean({(d.m, d.n, d.blocks): scalar_at(c, t) for d, c in lin.terms.items()})


def kar_at(entries, t):
    return [[lin_at(x, t) for x in row] for row in entries]


def coblin_at(coblin, t):
    return pb_ref.clean(
        {(c.m, c.n, c.components): scalar_at(v, t) for c, v in coblin.terms.items()}
    )


def spec_lin_at(spec, t):
    m, n, terms = spec
    return pb_ref.clean(
        {pb_ref.canon(m, n, blocks): pb_ref.ratfunc_at(num, den, t) for blocks, (num, den) in terms}
    )


def t_of(spec):
    t = spec.get("t")
    return pb_ref.T_CHECK if t is None else pb_ref.mod(t)


# ---- functor values -------------------------------------------------------------


def presentation_value(fp_obj, probe, t):
    """dim of coker(Hom(probe, Q) -> Hom(probe, P)) for a presentation rho: Q -> P."""
    rho = fp_obj.rho
    p_words, q_words = list(rho.cod.words), list(rho.dom.words)
    cut = kar_at(rho.cod.cut, t)
    image_p = pb_ref.image_rank(cut, p_words, p_words, probe, "all", t)
    image_rho = pb_ref.image_rank(kar_at(rho.entries, t), q_words, p_words, probe, "all", t)
    return image_p - image_rho


def coker_value(f, a, b, probe, t):
    """Value at [probe] of coker(Hom(-, a) -> Hom(-, b)) given by f."""
    dim = len(pb_ref.basis("all", probe, b))
    return dim - pb_ref.image_rank([[f]], [a], [b], probe, "all", t)


def kernel_value(f, a, b, probe, t):
    dim = len(pb_ref.basis("all", probe, a))
    return dim - pb_ref.image_rank([[f]], [a], [b], probe, "all", t)


def coker_to_yoneda_dim(f, a, b, c, t):
    """dim Hom(coker f, Hom(-, c)) = dim {h: b -> c with h.f = 0}."""
    return len(pb_ref.basis("all", b, c)) - pb_ref.precompose_rank(f, a, b, c, "all", t)


# ---- per-kind checks ------------------------------------------------------------


def _in_class(lin, cls):
    return all(pb_ref.in_class(cls, *d) for d in lin)


def _compose(spec, out):
    t = pb_ref.T_CHECK
    f, g = (spec_lin_at(x, t) for x in spec["lins"])
    got = lin_at(out, t)
    expect(got == pb_ref.lin_compose(g, f, t), "composition differs from the reference")
    expect(_in_class(got, spec["cls"]), "composition left its diagram class")


def _assoc(spec, out):
    t = pb_ref.T_CHECK
    f, g, h = (spec_lin_at(x, t) for x in spec["lins"])
    want = pb_ref.lin_compose(h, pb_ref.lin_compose(g, f, t), t)
    left, right = (lin_at(x, t) for x in out)
    expect(left == right, "composition is not associative")
    expect(left == want, "triple composition differs from the reference")


def _tensor(spec, out):
    t = pb_ref.T_CHECK
    a, b = (spec_lin_at(x, t) for x in spec["lins"])
    got = lin_at(out, t)
    expect(got == pb_ref.lin_tensor(a, b), "tensor differs from the reference")
    expect(_in_class(got, spec["cls"]), "tensor left its diagram class")


def _moebius(spec, out):
    ref = pb_ref.moebius_x if spec["kind"] == "moebius_x" else pb_ref.moebius_x_prime
    want = ref(spec["diagram"])
    expect(lin_at(out, pb_ref.T_CHECK) == want, f"{spec['kind']} differs from the closed form")


def _xe_product(spec, out):
    t = pb_ref.T_CHECK
    j = spec["params"][0]
    xe, prod = (lin_at(x, t) for x in out)
    expect(xe == pb_ref.x_e(j), "x_j.e_j differs from the reference")
    expect(pb_ref.lin_compose(xe, xe, t) == xe, "x_j.e_j is not idempotent")
    g = spec_lin_at(spec["lins"][0], t)
    expect(prod == pb_ref.lin_compose(xe, g, t), "x_j.e_j product differs")


def _cob(blocks_diagram, genus=0):
    m, n, blocks = blocks_diagram
    return (m, n, tuple(sorted((b, genus) for b in blocks)))


def _glue(spec, out):
    t = pb_ref.T_CHECK
    got = coblin_at(out, t)
    if spec["kind"] == "glue_st":
        f, g = spec["cobs"]
        d, loops = pb_ref.compose(g, f)
        expect(got == {_cob(d): pow(t, loops, pb_ref.P)}, "gluing disagrees with partition composition")
        raw = pb_ref.glue_cob(_cob(g), _cob(f))
        expect(got == pb_ref.reduce_cob(raw, "st", t), "gluing differs from the reference")
    else:
        f, g = spec["cobs"]
        want = pb_ref.reduce_cob(pb_ref.glue_cob(g, f), "fibonacci", t)
        expect(got == want, "gluing differs from the reference")


def _split(spec, out):
    f, w = out
    expect(w is not None, "no splitting witness for a morphism of a semisimple category")
    t = t_of(spec)
    expect(tuple(w.g.dom.words) == tuple(f.cod.words), "witness has the wrong domain")
    expect(tuple(w.g.cod.words) == tuple(f.dom.words), "witness has the wrong codomain")
    fr, gr = kar_at(f.entries, t), kar_at(w.g.entries, t)
    fgf = pb_ref.mat_compose(fr, pb_ref.mat_compose(gr, fr, t), t)
    expect(fgf == fr, "f.g.f differs from f")


def _fp_hom_yy(spec, out):
    a, b = spec["params"][:2]
    expect(out == len(pb_ref.basis("all", a, b)), "Yoneda hom dimension is wrong")


def _fp_coker(spec, out):
    t = pb_ref.T_CHECK
    a, b = spec["lin"][:2]
    f = spec_lin_at(spec["lin"], t)
    for c in PROBES:
        want = coker_value(f, a, b, c, t)
        expect(presentation_value(out, c, t) == want, f"cokernel has the wrong value at [{c}]")


def _fp_hom_coker_y(spec, out):
    t = pb_ref.T_CHECK
    a, b, c = spec["params"]
    f = spec_lin_at(spec["lin"], t)
    expect(out == coker_to_yoneda_dim(f, a, b, c, t), "hom dimension out of a cokernel is wrong")


def _fp_hom_y_coker(spec, out):
    t = pb_ref.T_CHECK
    a, b, c = spec["params"]
    f = spec_lin_at(spec["lin"], t)
    expect(out == coker_value(f, a, b, c, t), "hom dimension into a cokernel is wrong")


def _fp_factors(spec, out):
    t = pb_ref.T_CHECK
    s, k, m, through = spec["params"]
    tail = spec_lin_at(spec["tail"], t)
    if through:
        h = pb_ref.lin_compose(tail, spec_lin_at(spec["z"], t), t)
    else:
        h = spec_lin_at(spec["h"], t)
    target = pb_ref.basis("all", s, m)
    columns = [
        pb_ref.coords(pb_ref.lin_compose(tail, {z: 1}, t), target)
        for z in pb_ref.basis("all", s, k)
    ]
    want = pb_ref.solvable(columns, pb_ref.coords(h, target))
    expect(not through or want, "reference lost a constructed factorisation")
    expect(out is want, "factorisation verdict is wrong")


def _fp_kernel(spec, out):
    t = pb_ref.T_CHECK
    a, b = spec["lin"][:2]
    f = spec_lin_at(spec["lin"], t)
    for c in KERNEL_PROBES:
        want = kernel_value(f, a, b, c, t)
        expect(presentation_value(out, c, t) == want, f"kernel has the wrong value at [{c}]")


# ---- verify-suite ----------------------------------------------------------------


def _count(j_max, m_max, keep):
    total = 0
    for j in range(j_max + 1):
        for m in range(m_max + 1):
            for part in pb_ref.set_partitions(range(1, m + j + 1)):
                total += keep(m, part)
    return total


def _many_lower(m, part):
    return any(sum(1 for p in b if p > m) >= 2 for b in part)


def _known_witness(kind, args):
    """Witness fields whose values follow from counting alone."""
    if kind == "crosscheck-cob":
        bound = args["max-points"]
        count = sum(
            pb_ref.bell(m + k) * pb_ref.bell(k + n)
            for m in range(bound + 1)
            for k in range(bound + 1 - m)
            for n in range(bound + 1 - m - k)
        )
        return {"instances": count + 10}
    if kind == "lemma-absorption":
        return {"instances": _count(args["j-max"], args["m-max"], _many_lower)}
    if kind == "lemma-computation":
        return {"instances": _count(
            args["j-max"],
            args["m-max"],
            lambda m, part: all(len(b) % 2 == 0 for b in part) and not _many_lower(m, part),
        )}
    if kind == "representable-h":
        i = args["i"]
        count = sum(
            1
            for m in range(args["m-max"] + 1)
            for part in pb_ref.set_partitions(range(1, m + 1))
            if sum(len(b) % 2 for b in part) <= i
        )
        return {"skeleton_instances": count}
    return None


def _verify(spec, out):
    code, text = out
    report = json.loads(text)
    kind = spec["kind"]
    argv = spec["argv"]
    args = {argv[i][2:]: argv[i + 1] for i in range(2, len(argv) - 1) if argv[i].startswith("--")}
    for key in ("max-points", "i", "m-max", "j-max"):
        if key in args:
            args[key] = int(args[key])
    expect(report["check"] == kind, "report names another check")
    if "class" in report["params"]:
        expect(report["params"]["class"] == args.get("class", "all"), "report echoes another class")
    if kind == "representable-h" and args["i"] == 0 and args["m-max"] == 2:
        # The known fail: X_0 alone cannot represent Hom([2], [0]).
        expect(code == 1 and report["status"] == "fail", "known fail did not fail")
        row = {"m": 2, "hom_dim": 1, "target_dim": 2, "rank": 1}
        expect(row in report["witness"]["failures"], "known fail has another witness")
        return
    expect(code == 0, f"exit code {code}")
    expect(report["status"] in ("pass", "pass-up-to-bound"), f"status {report['status']}")
    known = _known_witness(kind, args)
    if known is not None:
        for key, value in known.items():
            expect(report["witness"][key] == value, f"{key} is {report['witness'][key]}, not {value}")


CHECKS = {
    "compose": _compose,
    "assoc": _assoc,
    "tensor": _tensor,
    "moebius_x": _moebius,
    "moebius_xprime": _moebius,
    "xe_product": _xe_product,
    "glue_st": _glue,
    "glue_fib": _glue,
    "split_basis": _split,
    "split_combo": _split,
    "split_cut": _split,
    "split_xf": _split,
    "fp_hom_yy": _fp_hom_yy,
    "fp_coker": _fp_coker,
    "fp_hom_coker_y": _fp_hom_coker_y,
    "fp_hom_y_coker": _fp_hom_y_coker,
    "fp_vanish": _fp_hom_coker_y,
    "fp_factors": _fp_factors,
    "fp_kernel_light": _fp_kernel,
    "fp_kernel_eps": _fp_kernel,
}


def check(spec, out):
    CHECKS.get(spec["kind"], _verify)(spec, out)
