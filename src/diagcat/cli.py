"""Command-line surface: parsing, check orchestration, JSON reporting.

Each `check` and `fp` name is one row of CHECKS or FP_OPS: the options it
reads with their defaults, and the call it makes.  The name's sub-parser
accepts only those options.  A failing check's witness gets a `replay`
command line that gives every option the check read, resolved.

Exit codes: 0 all requested checks pass, 1 a check fails (witness printed),
2 usage or precondition errors.  The default truncation bound of a check
depends on the check; the DIAGCAT_MAX_POINTS environment variable, read on
every run, overrides it and an explicit --max-points flag wins over both.
A bound, like a hom-basis request, exits 2 when a hom basis it would walk
holds more than MAX_ENUMERATION diagrams, and a moebius request exits 2
when the set partitions of the blocks it merges are more than that.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shlex
import sys
from types import SimpleNamespace

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
from .cobordism import Cobordism, fibonacci_datum, glue, st_datum
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
from .moebius import active_blocks, moebius_x, moebius_x_prime
from .partition import DiagramClass, DiagramParseError, PartitionDiagram
from .partition import bell_number, matching_count, non_crossing_count
from .scalar import FieldSpec, parse_rational

# hom-basis walks every set partition of its m+n points (every perfect or
# non-crossing matching, for the two matching classes) before it filters
# by class; Bell(11) = 678570 still runs in seconds, Bell(12) is refused.
MAX_ENUMERATION = 10**6

# Past this many points a count is not computed (the Bell triangle alone
# takes points²/2 big-integer additions).  Every count grows with the
# points, the matching counts over even points, so the count at
# COUNTED_POINTS, far above the limit, bounds it from below.
COUNTED_POINTS = 100


def _enumeration(cls: DiagramClass, points: int):
    """How many diagrams a hom basis with m+n = points walks in cls, or a
    lower bound past COUNTED_POINTS, and that count as text."""
    if cls is DiagramClass.BLOCKS_SIZE_2:
        count, label, noun = matching_count, f"({points}-1)!!", "perfect matchings"
    elif cls is DiagramClass.NON_CROSSING_SIZE_2:
        count, label = non_crossing_count, f"Catalan({points // 2})"
        noun = "non-crossing matchings"
    else:
        count, label, noun = bell_number, f"Bell({points})", "set partitions"
    if points > COUNTED_POINTS and (points % 2 == 0 or count is bell_number):
        size = count(COUNTED_POINTS)
        return size, f"{label} > 10^{len(str(size)) - 1} {noun}"
    size = count(points)
    return size, f"{label} = {size} {noun}"


def _refuse_enumeration(what: str, cls: DiagramClass, points: int) -> None:
    size, walk = _enumeration(cls, points)
    if size > MAX_ENUMERATION:
        raise ValueError(
            f"{what} would enumerate {walk}, more than the limit of {MAX_ENUMERATION}"
        )


def _first_refused(cls: DiagramClass) -> int:
    points = 0
    while _enumeration(cls, points)[0] <= MAX_ENUMERATION:
        points += 1
    return points


# A --max-points bound N walks a hom basis for every m+n <= N, so it is
# refused from the first m+n that hom-basis refuses: 12 for the Bell
# classes, 16 for blocks-size-2 and 28 for non-crossing-size-2.
FIRST_REFUSED = {cls: _first_refused(cls) for cls in DiagramClass}


def parse_field(text: str) -> FieldSpec:
    if text == "generic":
        return FieldSpec.generic()
    try:
        return FieldSpec.at(parse_rational(text))
    except ValueError:
        raise ValueError(f"--t expects 'generic' or a rational, got {text!r}")


def count(text: str) -> int:
    """A count-like option value: a non-negative int."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text}")
    return value


def env_bound(default: int):
    """A --max-points default read when the check runs: DIAGCAT_MAX_POINTS
    if it is set, else `default`."""

    def resolve(_options) -> int:
        env = os.environ.get("DIAGCAT_MAX_POINTS")
        if env is None:
            return default
        try:
            return count(env)
        except ValueError as exc:
            raise ValueError(f"DIAGCAT_MAX_POINTS: {exc}") from None

    return resolve


# Each option a check or fp name may read: flag -> (argparse type, help).
OPTIONS = {
    "class": (str, "diagram class tag (all, even-blocks, even-many-odd-blocks, "
              "blocks-size-2, non-crossing-size-2)"),
    "t": (str, "generic or a rational like 5 or 1/2"),
    "max-points": (count, "total points bound; DIAGCAT_MAX_POINTS overrides the default"),
    "samples": (count, "number of random combinations"),
    "seed": (int, "seed of the random combinations"),
    "u": (str, "morphism U -> 1 (default: the canonical one of the class)"),
    "i": (count, "summand bound"),
    "m-max": (count, "largest source word [m]"),
    "j-max": (count, "largest j"),
    "word": (count, "word of the (first) object"),
    "word2": (count, "word of the second object"),
    "dom": (count, "domain word of the morphism"),
    "cod": (count, "codomain word of the morphism"),
    "s-word": (count, "source word of the splitting epi"),
    "lin": (str, "morphism text [dom] -> [cod]"),
}


# check name -> (the options it reads with their defaults, the call it makes).
# A callable default is computed when the check runs, from the options before
# it; a None default makes the option required.  The calls name the checks
# through this module's globals, so that a wrapper put there sees each call.
CHECKS = {
    "diag": (
        {"class": "all", "max-points": env_bound(6)},
        lambda o: check_diag(o.cls, o.max_points),
    ),
    "ex1": (
        {"class": "all", "max-points": env_bound(6)},
        lambda o: check_ex(1, o.cls, o.max_points),
    ),
    "ex2": (
        {"class": "all", "max-points": env_bound(6), "samples": 200, "seed": 0,
         "t": "generic"},
        lambda o: check_ex(2, o.cls, o.max_points, o.samples, o.seed, o.field),
    ),
    "uex": (
        {"class": "all", "max-points": env_bound(3), "t": "generic",
         "u": lambda o: default_unit_morphism(o.cls, o.field).to_text()},
        lambda o: check_uex(
            parse_linmorphism(o.u, o.field), o.cls, o.max_points, o.field
        ),
    ),
    "split": (
        {"class": "all", "max-points": env_bound(4), "samples": 200, "seed": 0,
         "t": "generic"},
        lambda o: check_split_sweep(o.cls, o.max_points, o.field, o.samples, o.seed),
    ),
    "representable-h": (
        {"i": 3, "m-max": lambda o: o.i, "t": "generic"},
        lambda o: representable_H(o.i, o.m_max, o.field),
    ),
    "representable-sprime": (
        {"m-max": 4, "t": "generic"},
        lambda o: representable_Sprime(o.m_max, o.field),
    ),
    "lemma-absorption": (
        {"j-max": 3, "m-max": 3, "t": "generic"},
        lambda o: verify_lemma("absorption", o.j_max, o.m_max, o.field),
    ),
    "lemma-computation": (
        {"j-max": 3, "m-max": 3, "t": "generic"},
        lambda o: verify_lemma("computation_H", o.j_max, o.m_max, o.field),
    ),
    "crosscheck-cob": (
        {"max-points": env_bound(5)},
        lambda o: check_crosscheck_cob(o.max_points),
    ),
}


def _word(o, n: int) -> KarObject:
    return KarObject.word(n, o.cls, o.field)


def _fp_square(o) -> FpMorphism:
    """The morphism Hom(-, [dom]) -> Hom(-, [cod]) given by --lin."""
    lin = parse_linmorphism(o.lin, o.field, dom=o.dom, cod=o.cod)
    src = yoneda(_word(o, o.dom))
    dst = yoneda(_word(o, o.cod))
    return FpMorphism(
        src, dst, KarMorphism.from_lin(lin, o.cls, o.field), KarMorphism.zero(src.Q, dst.Q)
    )


def _fp_hom(o):
    dims = len(fp_hom(yoneda(_word(o, o.word)), yoneda(_word(o, o.word2))))
    payload = {"op": "fp-hom", "a": o.word, "b": o.word2, "dimension": dims}
    return payload, [f"dimension: {dims}"]


def _fp_embed(o):
    obj = fp_embed(_word(o, o.word), unit_presentation_split_epi(o.field, o.cls))
    payload = {"op": "fp-embed", "word": o.word, "presentation": obj.to_text()}
    return payload, [obj.to_text()]


def _fp_coker(o):
    obj = fp_cokernel(_fp_square(o))
    zero = fp_is_zero_object(obj)
    payload = {"op": "fp-coker", "presentation": obj.to_text(), "is_zero": zero}
    return payload, [obj.to_text(), f"is_zero: {zero}"]


def _fp_kernel(o):
    square = _fp_square(o)
    eps_text = " ".join(str(i + 1) for i in range(o.s_word))
    eps = parse_linmorphism(eps_text, o.field, dom=o.s_word, cod=0)
    kernel, _ = fp_kernel(
        square, _word(o, o.s_word), KarMorphism.from_lin(eps, o.cls, o.field)
    )
    payload = {
        "op": "fp-kernel",
        "presentation": kernel.to_text(),
        "is_zero": fp_is_zero_object(kernel),
    }
    return payload, [kernel.to_text()]


# fp name -> (the options it reads with their defaults, the call it makes).
FP_OPS = {
    "hom": ({"class": "all", "t": "generic", "word": 1, "word2": 0}, _fp_hom),
    "embed": ({"class": "all", "t": "generic", "word": 1}, _fp_embed),
    "coker": (
        {"class": "all", "t": "generic", "dom": 1, "cod": 0, "lin": None},
        _fp_coker,
    ),
    "kernel": (
        {"class": "all", "t": "generic", "dom": 1, "cod": 0, "s-word": 1, "lin": None},
        _fp_kernel,
    ),
}


def _add_common(sub):
    sub.add_argument("--t", default="generic", help=OPTIONS["t"][1])
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


@functools.lru_cache(maxsize=1)
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
    p.add_argument("--class", dest="cls", default="all", help=OPTIONS["class"][1])
    p.add_argument("m", type=count)
    p.add_argument("n", type=count)

    p = subs.add_parser("cobordism-glue", help="glue two cobordisms, outer first")
    _add_common(p)
    p.add_argument("--datum", default="st", choices=["st", "fibonacci"])
    p.add_argument("outer")
    p.add_argument("inner")

    for command, table, text in (
        ("check", CHECKS, "run a named verification"),
        ("fp", FP_OPS, "finitely presented functor operations"),
    ):
        names = subs.add_parser(command, help=text).add_subparsers(
            dest="name", required=True
        )
        for name, (defaults, _call) in table.items():
            p = names.add_parser(name)
            for flag, default in defaults.items():
                kind, help_text = OPTIONS[flag]
                p.add_argument(
                    f"--{flag}", type=kind, help=help_text, required=default is None,
                    default=None if callable(default) else default,
                )
            p.add_argument("--json", action="store_true", help="emit a JSON report")
            p.set_defaults(parser=p)

    return parser


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _resolve(args, defaults):
    """The options a name reads, defaults filled in, as a command line gives
    them; and the namespace its call reads, where --class is `cls` and --t
    is `field`."""
    values, o = {}, SimpleNamespace()
    for flag, default in defaults.items():
        value = getattr(args, flag.replace("-", "_"))
        if value is None:
            value = default(o)
        values[flag] = value
        if flag == "class":
            o.cls = DiagramClass.from_text(value)
        elif flag == "t":
            o.field = parse_field(value)
        else:
            setattr(o, flag.replace("-", "_"), value)
    if "max-points" in values:
        bound = values["max-points"]
        cls = getattr(o, "cls", DiagramClass.ALL)
        points = FIRST_REFUSED[cls]
        if bound >= points:
            source = "--max-points" if args.max_points is not None else "DIAGCAT_MAX_POINTS ="
            _refuse_enumeration(f"{source} {bound} (at m+n = {points})", cls, points)
    return values, o


def _replay(name, values) -> str:
    """The command line that reruns check `name` with its resolved options."""
    words = ["diagcat", "check", name]
    for flag, value in values.items():
        words += [f"--{flag}", str(value)]
    return shlex.join(words)


def run_check(args) -> int:
    defaults, call = CHECKS[args.name]
    values, o = _resolve(args, defaults)
    report = call(o)
    if report.status == "fail":
        report.witness["replay"] = _replay(args.name, values)
    if args.json:
        print(report.to_json())
    else:
        print(f"{report.check}: {report.status}")
        if report.witness is not None:
            print("witness: " + json.dumps(report.witness, sort_keys=True))
    return 0 if report.passed() else 1


def run_fp(args) -> int:
    defaults, call = FP_OPS[args.name]
    payload, lines = call(_resolve(args, defaults)[1])
    _emit(payload, args.json, lines)
    return 0


def run_plain(args) -> int:
    field = parse_field(args.t)
    if args.command == "hom-basis":
        cls = DiagramClass.from_text(args.cls)
        _refuse_enumeration(f"hom-basis {args.m} {args.n}", cls, args.m + args.n)
        texts = [d.to_text() for d in hom_basis(cls, args.m, args.n)]
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
    if args.command == "compose":
        outer = parse_linmorphism(args.outer, field)
        inner = parse_linmorphism(args.inner, field)
        result = outer.compose(inner, field)
        payload = {"op": "compose"}
    elif args.command == "tensor":
        left = parse_linmorphism(args.left, field)
        right = parse_linmorphism(args.right, field)
        result = left.tensor(right, field)
        payload = {"op": "tensor"}
    elif args.command == "moebius":
        # x(f) and x'(f) walk every set partition of the blocks they merge
        f = PartitionDiagram.parse(args.diagram)
        if args.kind == "x":
            fn, merged = moebius_x, f.blocks
        else:
            fn, merged = moebius_x_prime, active_blocks(f)
        _refuse_enumeration(f"moebius {args.kind}", DiagramClass.ALL, len(merged))
        result = fn(f, field)
        payload = {"op": "moebius", "kind": args.kind}
    else:  # cobordism-glue
        datum = st_datum(field) if args.datum == "st" else fibonacci_datum(field)
        outer = Cobordism.parse(args.outer)
        inner = Cobordism.parse(args.inner)
        result = glue(outer, inner, datum)
        payload = {"op": "cobordism-glue", "datum": args.datum}
    payload["result"] = result.to_text()
    _emit(payload, args.json, [payload["result"]])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # a check or fp name reports an option it does not read under its own usage
        getattr(args, "parser", parser).error(f"unrecognized arguments: {' '.join(extras)}")
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
