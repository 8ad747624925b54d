"""Command-line surface: parsing, check orchestration, JSON reporting.

Each command is one row of COMMANDS, and each `check` and `fp` name one
row of CHECKS or FP_OPS: the arguments and options it reads with their
defaults, and the call it makes.  One loop builds every row into its
sub-parser, which accepts only those options.  A line that starts with a
row's words is parsed by that row's sub-parser alone; help and errors of
the levels above come from the whole tree.  A failing check's witness
gets a `replay` command line that gives every option the check read,
resolved.

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


# Each option a command or a check or fp name may read: flag -> (argparse
# type or its choices, help).
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
    "datum": (("st", "fibonacci"), "Frobenius datum of the gluing"),
}

# Each positional argument a command may read: name -> (argparse type or its
# choices, help).
ARGUMENTS = {
    "outer": (str, "the morphism applied second"),
    "inner": (str, "the morphism applied first"),
    "left": (str, "the left tensor factor"),
    "right": (str, "the right tensor factor"),
    "kind": (("x", "xprime"), "x(f) or x'(f)"),
    "diagram": (str, "the partition diagram f"),
    "m": (count, "source word"),
    "n": (count, "target word"),
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


def _result(payload: dict, result):
    """A command's payload with its result, and the result as its one line."""
    payload["result"] = result.to_text()
    return payload, [payload["result"]]


def _compose(o):
    """compose two morphisms, outer first"""
    outer = parse_linmorphism(o.outer, o.field)
    inner = parse_linmorphism(o.inner, o.field)
    return _result({"op": "compose"}, outer.compose(inner, o.field))


def _tensor(o):
    """tensor two morphisms, left then right"""
    left = parse_linmorphism(o.left, o.field)
    right = parse_linmorphism(o.right, o.field)
    return _result({"op": "tensor"}, left.tensor(right, o.field))


def _moebius(o):
    """Moebius idempotent combinations"""
    # x(f) and x'(f) walk every set partition of the blocks they merge
    f = PartitionDiagram.parse(o.diagram)
    if o.kind == "x":
        fn, merged = moebius_x, f.blocks
    else:
        fn, merged = moebius_x_prime, active_blocks(f)
    _refuse_enumeration(f"moebius {o.kind}", DiagramClass.ALL, len(merged))
    return _result({"op": "moebius", "kind": o.kind}, fn(f, o.field))


def _hom_basis(o):
    """list the diagram basis of Hom([m],[n])"""
    _refuse_enumeration(f"hom-basis {o.m} {o.n}", o.cls, o.m + o.n)
    texts = [d.to_text() for d in hom_basis(o.cls, o.m, o.n)]
    payload = {
        "op": "hom-basis",
        "class": o.cls.value,
        "m": o.m,
        "n": o.n,
        "count": len(texts),
        "diagrams": texts,
    }
    return payload, texts + [f"count: {len(texts)}"]


def _cobordism_glue(o):
    """glue two cobordisms, outer first"""
    datum = st_datum(o.field) if o.datum == "st" else fibonacci_datum(o.field)
    result = glue(Cobordism.parse(o.outer), Cobordism.parse(o.inner), datum)
    return _result({"op": "cobordism-glue", "datum": o.datum}, result)


# command -> (the arguments and options it reads, with the options'
# defaults, the call it makes).  The arguments are the names in ARGUMENTS,
# always required; the call's docstring is the command's help.
COMMANDS = {
    "compose": ({"outer": None, "inner": None, "t": "generic"}, _compose),
    "tensor": ({"left": None, "right": None, "t": "generic"}, _tensor),
    "moebius": ({"kind": None, "diagram": None, "t": "generic"}, _moebius),
    "hom-basis": ({"m": None, "n": None, "class": "all"}, _hom_basis),
    "cobordism-glue": (
        {"outer": None, "inner": None, "t": "generic", "datum": "st"},
        _cobordism_glue,
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


# (command, its table, its help): a plain command is a row of COMMANDS, and
# each check or fp name a row of its command's table.
TABLES = (
    (None, COMMANDS, None),
    ("check", CHECKS, "run a named verification"),
    ("fp", FP_OPS, "finitely presented functor operations"),
)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagcat",
        description="Exact verification for partition and cobordism diagram categories.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # the words that pick each leaf parser, (command,) or (command, name),
    # and that leaf: the tree's own sub-parser, so both routes share it
    parser.leaves = {}
    for command, table, text in TABLES:
        names = subs
        if command:
            names = subs.add_parser(command, help=text).add_subparsers(
                dest="name", required=True
            )
        for name, (defaults, call) in table.items():
            # a call without a docstring keeps its name out of the help listing
            p = names.add_parser(name, **({"help": call.__doc__} if call.__doc__ else {}))
            for flag, default in defaults.items():
                positional = flag in ARGUMENTS
                kind, help_text = (ARGUMENTS if positional else OPTIONS)[flag]
                spec = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
                if not positional:
                    flag = f"--{flag}"
                    spec["required"] = default is None
                    spec["default"] = None if callable(default) else default
                p.add_argument(flag, help=help_text, **spec)
            p.add_argument("--json", action="store_true", help="emit a JSON report")
            p.set_defaults(parser=p, defaults=defaults, call=call)
            parser.leaves[(command, name) if command else (name,)] = p
    return parser


def parse(argv):
    """argv's namespace and the words it did not read.  A line that starts
    with the words of a leaf is parsed by that leaf alone, and gets the
    `command` (and `name`) the tree would set; every other line goes
    through the tree, which prints the help and the errors of its levels."""
    parser = build_parser()
    for words in (tuple(argv[:1]), tuple(argv[:2])):
        leaf = parser.leaves.get(words)
        if leaf is not None:
            args, extras = leaf.parse_known_args(argv[len(words):])
            vars(args).update(zip(("command", "name"), words))
            return args, extras
    return parser.parse_known_args(argv)


def _resolve(args, defaults):
    """The arguments and options a command or name reads, defaults filled
    in, as a command line gives them; and the namespace its call reads,
    where --class is `cls` and --t is `field`."""
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
    values, o = _resolve(args, args.defaults)
    report = args.call(o)
    if report.status == "fail":
        report.witness["replay"] = _replay(args.name, values)
    if args.json:
        print(report.to_json())
    else:
        print(f"{report.check}: {report.status}")
        if report.witness is not None:
            print("witness: " + json.dumps(report.witness, sort_keys=True))
    return 0 if report.passed() else 1


def _option(flag):
    """The OPTIONS name that flag names in full or, as argparse's
    allow_abbrev reads it, as a prefix of that one name alone; else None."""
    if flag in OPTIONS:
        return flag
    names = [name for name in OPTIONS if name.startswith(flag)]
    return names[0] if len(names) == 1 else None


def _unread(argv, defaults):
    """Each option of argv that its command or name does not read, with
    the value it was given."""
    words = []
    for k, word in enumerate(argv):
        flag = _option(word[2:].partition("=")[0])
        if word.startswith("--") and flag is not None and flag not in defaults:
            words += argv[k : k + (1 if "=" in word else 2)]
    return words


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extras = parse(argv)
    if extras:
        # a command or name reports an option it does not read under its own
        # usage, with its value: argparse, not knowing that the option takes
        # one, may have read the value as an argument
        unread = _unread(argv, args.defaults) or extras
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        if args.command == "check":
            return run_check(args)
        payload, lines = args.call(_resolve(args, args.defaults)[1])
    except (DiagramParseError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, sort_keys=True) if args.json else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
