"""Command-line surface: parsing, check orchestration, JSON reporting.

Exit codes: 0 all requested checks pass, 1 a check fails (witness printed),
2 usage or precondition errors.  The default truncation bound is 6 total
points; the DIAGCAT_MAX_POINTS environment variable overrides it and an
explicit --max-points flag wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .checks import (
    check_crosscheck_cob,
    check_diag,
    check_ex,
    check_split_sweep,
    check_uex,
    default_unit_morphism,
    representable_H,
    representable_Sprime,
    verify_lemma,
)
from .cobordism import CobLin, Cobordism, fibonacci_datum, glue, st_datum
from .fpfun import (
    FpMorphism,
    fp_cokernel,
    fp_hom,
    fp_is_zero_object,
    fp_kernel,
    fp_embed,
    unit_presentation_split_epi,
    yoneda,
)
from .homspace import hom_basis, parse_linmorphism
from .karoubi import KarMorphism, KarObject
from .moebius import moebius_x, moebius_x_prime
from .partition import DiagramClass, DiagramParseError, PartitionDiagram
from .scalar import FieldSpec


def parse_field(text: str) -> FieldSpec:
    if text == "generic":
        return FieldSpec.generic()
    try:
        return FieldSpec.at(Fraction(text))
    except ValueError:
        raise ValueError(f"--t expects 'generic' or a rational, got {text!r}")


def count(text: str) -> int:
    """A count-like option value: a non-negative int."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text}")
    return value


def resolve_bound(value, default: int) -> int:
    if value is not None:
        return value
    env = os.environ.get("DIAGCAT_MAX_POINTS")
    if env is not None:
        try:
            return count(env)
        except ValueError as exc:
            raise ValueError(f"DIAGCAT_MAX_POINTS: {exc}") from None
    return default


def _add_common(sub):
    sub.add_argument("--t", default="generic", help="generic or a rational like 5 or 1/2")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def _add_class(sub):
    sub.add_argument(
        "--class",
        dest="cls",
        default="all",
        help="diagram class tag (all, even-blocks, even-many-odd-blocks, blocks-size-2, non-crossing-size-2)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagcat",
        description="Exact verification for partition and cobordism diagram categories.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compose", help="compose two morphisms, outer first")
    _add_common(p)
    p.add_argument("outer")
    p.add_argument("inner")

    p = subs.add_parser("tensor", help="tensor two morphisms, left then right")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")

    p = subs.add_parser("moebius", help="Moebius idempotent combinations")
    _add_common(p)
    p.add_argument("kind", choices=["x", "xprime"])
    p.add_argument("diagram")

    p = subs.add_parser("hom-basis", help="list the diagram basis of Hom([m],[n])")
    _add_common(p)
    _add_class(p)
    p.add_argument("m", type=count)
    p.add_argument("n", type=count)

    p = subs.add_parser("cobordism-glue", help="glue two cobordisms, outer first")
    _add_common(p)
    p.add_argument("--datum", default="st", choices=["st", "fibonacci"])
    p.add_argument("outer")
    p.add_argument("inner")

    p = subs.add_parser("check", help="run a named verification")
    p.add_argument(
        "name",
        choices=[
            "diag",
            "ex1",
            "ex2",
            "uex",
            "split",
            "representable-h",
            "representable-sprime",
            "lemma-absorption",
            "lemma-computation",
            "crosscheck-cob",
        ],
    )
    _add_common(p)
    _add_class(p)
    p.add_argument("--max-points", type=count, default=None, help="total points bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=count, default=200)
    p.add_argument("--u", default=None, help="morphism U -> 1 for the uex check")
    p.add_argument("--i", type=count, default=3, help="summand bound for representable-h")
    p.add_argument("--m-max", type=count, default=None)
    p.add_argument("--j-max", type=count, default=3)

    p = subs.add_parser("fp", help="finitely presented functor operations")
    p.add_argument("name", choices=["hom", "coker", "kernel", "embed"])
    _add_common(p)
    _add_class(p)
    p.add_argument("--dom", type=count, default=1, help="domain word for coker/kernel")
    p.add_argument("--cod", type=count, default=0, help="codomain word for coker/kernel")
    p.add_argument("--word", type=count, default=1, help="word for hom/embed")
    p.add_argument("--word2", type=count, default=None, help="second word for hom")
    p.add_argument("--s-word", type=count, default=1, help="splitting source for kernel")
    p.add_argument("--lin", default=None, help="morphism text for coker/kernel")

    return parser


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def run_check(args) -> int:
    cls = DiagramClass.from_text(args.cls)
    field = parse_field(args.t)
    name = args.name
    if name == "diag":
        report = check_diag(cls, resolve_bound(args.max_points, 6))
    elif name == "ex1":
        report = check_ex(1, cls, resolve_bound(args.max_points, 6))
    elif name == "ex2":
        report = check_ex(
            2, cls, resolve_bound(args.max_points, 6), args.samples, args.seed, field
        )
    elif name == "uex":
        u = (
            parse_linmorphism(args.u, field)
            if args.u is not None
            else default_unit_morphism(cls, field)
        )
        report = check_uex(u, cls, resolve_bound(args.max_points, 3), field)
    elif name == "split":
        report = check_split_sweep(
            cls, resolve_bound(args.max_points, 4), field, args.samples, args.seed
        )
    elif name == "representable-h":
        m_max = args.m_max if args.m_max is not None else args.i
        report = representable_H(args.i, m_max, field)
    elif name == "representable-sprime":
        m_max = args.m_max if args.m_max is not None else 4
        report = representable_Sprime(m_max, field)
    elif name == "lemma-absorption":
        m_max = args.m_max if args.m_max is not None else 3
        report = verify_lemma("absorption", args.j_max, m_max, field)
    elif name == "lemma-computation":
        m_max = args.m_max if args.m_max is not None else 3
        report = verify_lemma("computation_H", args.j_max, m_max, field)
    else:
        report = check_crosscheck_cob(resolve_bound(args.max_points, 5))
    if args.json:
        print(report.to_json())
    else:
        print(f"{report.check}: {report.status}")
        if report.witness is not None:
            print("witness: " + json.dumps(report.witness, sort_keys=True))
    return 0 if report.passed() else 1


def run_fp(args) -> int:
    field = parse_field(args.t)
    cls = DiagramClass.from_text(args.cls)
    if args.name == "hom":
        a = args.word
        b = args.word2 if args.word2 is not None else args.cod
        dims = len(
            fp_hom(
                yoneda(KarObject.word(a, cls, field)),
                yoneda(KarObject.word(b, cls, field)),
            )
        )
        _emit(
            {"op": "fp-hom", "a": a, "b": b, "dimension": dims},
            args.json,
            [f"dimension: {dims}"],
        )
        return 0
    if args.name == "embed":
        unit = unit_presentation_split_epi(field, cls)
        obj = fp_embed(KarObject.word(args.word, cls, field), unit)
        _emit(
            {"op": "fp-embed", "word": args.word, "presentation": obj.to_text()},
            args.json,
            [obj.to_text()],
        )
        return 0
    if args.lin is None:
        raise ValueError(f"fp {args.name} needs a morphism argument")
    lin = parse_linmorphism(args.lin, field, dom=args.dom, cod=args.cod)
    src = yoneda(KarObject.word(args.dom, cls, field))
    dst = yoneda(KarObject.word(args.cod, cls, field))
    square = FpMorphism(
        src, dst, KarMorphism.from_lin(lin, cls, field), KarMorphism.zero(src.Q, dst.Q)
    )
    if args.name == "coker":
        obj = fp_cokernel(square)
        zero = fp_is_zero_object(obj)
        _emit(
            {
                "op": "fp-coker",
                "presentation": obj.to_text(),
                "is_zero": zero,
            },
            args.json,
            [obj.to_text(), f"is_zero: {zero}"],
        )
        return 0
    s_obj = KarObject.word(args.s_word, cls, field)
    eps = KarMorphism.from_lin(
        parse_linmorphism(
            " ".join(str(i + 1) for i in range(args.s_word)), field,
            dom=args.s_word, cod=0,
        ),
        cls,
        field,
    )
    kernel, _ = fp_kernel(square, s_obj, eps)
    _emit(
        {
            "op": "fp-kernel",
            "presentation": kernel.to_text(),
            "is_zero": fp_is_zero_object(kernel),
        },
        args.json,
        [kernel.to_text()],
    )
    return 0


def run_plain(args) -> int:
    field = parse_field(args.t)
    if args.command == "compose":
        outer = parse_linmorphism(args.outer, field)
        inner = parse_linmorphism(args.inner, field)
        result = outer.compose(inner, field)
        _emit(
            {"op": "compose", "result": result.to_text()},
            args.json,
            [result.to_text()],
        )
        return 0
    if args.command == "tensor":
        left = parse_linmorphism(args.left, field)
        right = parse_linmorphism(args.right, field)
        result = left.tensor(right, field)
        _emit(
            {"op": "tensor", "result": result.to_text()},
            args.json,
            [result.to_text()],
        )
        return 0
    if args.command == "moebius":
        d = PartitionDiagram.parse(args.diagram)
        fn = moebius_x if args.kind == "x" else moebius_x_prime
        result = fn(d, field)
        _emit(
            {"op": "moebius", "kind": args.kind, "result": result.to_text()},
            args.json,
            [result.to_text()],
        )
        return 0
    if args.command == "hom-basis":
        cls = DiagramClass.from_text(args.cls)
        basis = hom_basis(cls, args.m, args.n)
        texts = [d.to_text() for d in basis]
        _emit(
            {
                "op": "hom-basis",
                "class": cls.value,
                "m": args.m,
                "n": args.n,
                "count": len(texts),
                "diagrams": texts,
            },
            args.json,
            texts + [f"count: {len(texts)}"],
        )
        return 0
    # cobordism-glue
    datum = st_datum(field) if args.datum == "st" else fibonacci_datum(field)
    outer = Cobordism.parse(args.outer)
    inner = Cobordism.parse(args.inner)
    result = glue(outer, inner, datum)
    _emit(
        {"op": "cobordism-glue", "datum": args.datum, "result": result.to_text()},
        args.json,
        [result.to_text()],
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return run_check(args)
        if args.command == "fp":
            return run_fp(args)
        return run_plain(args)
    except (DiagramParseError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
