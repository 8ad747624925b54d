"""Per-layer tracing of diagcat from outside the package.

A traced run wraps public functions and methods of each package module;
the untraced run installs nothing.  Each wrapper keeps a frame on one
stack: a layer's self time is its call's duration minus the time its
wrapped descendants took, so nested layers are not counted twice.  Calls
of the coarse layers are kept as spans (id, parent id, layer, start, end,
self, operation index) in memory and written out at the end; the tiny,
very frequent layers (scalar arithmetic, diagram composition) keep only
counters and summed time.

Functions are replaced at every module attribute that holds them, so a
name imported into another module (``checks.split_solve``,
``fpfun.split_solve``) is wrapped too.  Classes are instrumented through
their methods, which every binding of the class shares.
"""

from __future__ import annotations

import importlib
import sys
import time

# (layer, module, function names, kept as spans)
FUNCTIONS = (
    ("partition.compose", "diagcat.partition", ("compose",), False),
    ("partition.tensor", "diagcat.partition", ("tensor",), False),
    ("scalar.poly_gcd", "diagcat.scalar", ("poly_gcd",), False),
    ("scalar.poly_divmod", "diagcat.scalar", ("poly_divmod",), False),
    ("karoubi.split_solve", "diagcat.karoubi", ("split_solve",), True),
    ("karoubi.kar_compose", "diagcat.karoubi", ("kar_compose",), False),
    ("karoubi.kar_object", "diagcat.karoubi", ("kar_object",), True),
    (
        "moebius",
        "diagcat.moebius",
        ("moebius_x", "moebius_x_prime", "symmetrizer", "x_j", "x_e", "special_morphisms"),
        False,
    ),
    ("cobordism.glue", "diagcat.cobordism", ("glue",), False),
    ("fpfun.weak_kernel", "diagcat.fpfun", ("weak_kernel",), True),
    ("fpfun.fp_object", "diagcat.fpfun", ("fp_object",), True),
    (
        "checks",
        "diagcat.checks",
        (
            "check_diag",
            "check_ex",
            "check_uex",
            "check_split_sweep",
            "check_splitting_object",
            "representable_H",
            "representable_Sprime",
            "verify_lemma",
            "check_crosscheck_cob",
        ),
        True,
    ),
    ("cli.main", "diagcat.cli", ("main",), True),
)

# (layer, module, class, method names, kept as spans)
METHODS = (
    ("scalar.ratfunc", "diagcat.scalar", "FieldElement", ("ratfunc",), False),
    (
        "scalar.arith",
        "diagcat.scalar",
        "FieldElement",
        ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inv"),
        False,
    ),
    ("homspace.lin_compose", "diagcat.homspace", "LinMorphism", ("compose",), False),
    ("homspace.elim", "diagcat.homspace", "ExactMatrix", ("rank", "kernel_basis", "solve"), True),
    ("homspace.subspace", "diagcat.homspace", "Subspace", ("add", "contains", "coordinates_of"), False),
    ("karoubi.kar_hom", "diagcat.karoubi", "KarHom", ("__init__",), True),
    ("karoubi.kar_object", "diagcat.karoubi", "KarObject", ("__init__",), True),
    ("fpfun.fp_hom_space", "diagcat.fpfun", "FpHomSpace", ("__init__",), True),
)


class Layer:
    __slots__ = ("name", "spanned", "calls", "self_s", "extra")

    def __init__(self, name, spanned):
        self.name = name
        self.spanned = spanned
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    """Frame stack, layer counters and span store of one traced run."""

    def __init__(self, clock=time.perf_counter, max_spans=1_000_000):
        self.clock = clock
        self.stack = []
        self.layers = {}
        self.spans = []
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.op_index = -1
        self._next_id = 0
        self.seen = {}

    def layer(self, name, spanned):
        if name not in self.layers:
            self.layers[name] = Layer(name, spanned)
        return self.layers[name]

    def repeat(self, family, key):
        """Record a construction key; True if this run built it before."""
        seen = self.seen.setdefault(family, set())
        h = hash(key)
        if h in seen:
            return True
        seen.add(h)
        return False

    def wrap(self, layer, fn, hook=None):
        """fn timed as one call of layer; hook(layer, args, result) runs untimed."""
        stack = self.stack
        clock = self.clock
        spanned = layer.spanned

        def close(frame, t0, t1, t_end):
            stack.pop()
            own = (t1 - t0) - frame[0]
            layer.calls += 1
            layer.self_s += own
            if spanned:
                if len(self.spans) < self.max_spans:
                    self.spans.append((frame[1], frame[2], layer.name, t0, t1, own, self.op_index))
                else:
                    self.dropped_spans += 1
            if stack:
                # the parent excludes this call and its bookkeeping
                stack[-1][0] += t_end - t0

        def wrapper(*args, **kwargs):
            parent_span = stack[-1][1] if stack else 0
            if spanned:
                self._next_id += 1
                frame = [0.0, self._next_id, parent_span]
            else:
                frame = [0.0, parent_span, parent_span]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                close(frame, t0, t1, t1)
                raise
            t1 = clock()
            if hook is not None:
                hook(layer, args, result)
            close(frame, t0, t1, clock())
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


# ---- hooks: counts taken from arguments and results ------------------------------


def _hook_term_pairs(layer, args, result):
    layer.add("term_pairs", len(args[0].terms) * len(args[1].terms))


def _hook_cells(layer, args, result):
    layer.add("cells", args[0].rows * args[0].cols)


def _hook_useful_add(layer, args, result):
    layer.add("adds", 1)
    layer.add("useful_adds", int(result))


def _kar_morphism_key(m):
    return (m.dom.key(), m.cod.key(), m.to_text())


def _hooks(tracer):
    def kar_hom(layer, args, result):
        hom = args[0]
        layer.add("candidates", sum(len(b) for b in hom._slot_index.values()))
        layer.add("dimension", len(hom.elements))
        layer.add("repeats", int(tracer.repeat("kar_hom", (hom.dom.key(), hom.cod.key()))))

    def fp_hom_space(layer, args, result):
        space = args[0]
        key = (_kar_morphism_key(space.src.rho), _kar_morphism_key(space.dst.rho))
        layer.add("repeats", int(tracer.repeat("fp_hom_space", key)))

    def fp_object(layer, args, result):
        layer.add("certify_instances", result.certificate["instances"])

    return {
        ("homspace.lin_compose", "compose"): _hook_term_pairs,
        ("homspace.elim", "rank"): _hook_cells,
        ("homspace.elim", "kernel_basis"): _hook_cells,
        ("homspace.elim", "solve"): _hook_cells,
        ("homspace.subspace", "add"): _hook_useful_add,
        ("karoubi.kar_hom", "__init__"): kar_hom,
        ("fpfun.fp_hom_space", "__init__"): fp_hom_space,
        ("fpfun.fp_object", "fp_object"): fp_object,
    }


# ---- installation -----------------------------------------------------------------


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "diagcat" or name.startswith("diagcat.")]


class Installation:
    """The wrappers installed on the loaded diagcat modules, and how to undo them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.undo = []
        self.originals = {}
        hooks = _hooks(tracer)
        for _, module_name, *_rest in FUNCTIONS + METHODS:
            importlib.import_module(module_name)
        modules = _package_modules()
        for layer_name, module_name, names, spanned in FUNCTIONS:
            module = sys.modules[module_name]
            layer = tracer.layer(layer_name, spanned)
            for name in names:
                original = getattr(module, name)
                wrapper = tracer.wrap(layer, original, hooks.get((layer_name, name)))
                self.originals[id(original)] = (original, f"{module_name}.{name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        for layer_name, module_name, class_name, names, spanned in METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            layer = tracer.layer(layer_name, spanned)
            for name in names:
                raw = cls.__dict__[name]
                hook = hooks.get((layer_name, name))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(layer, raw.__func__, hook))
                else:
                    wrapped = tracer.wrap(layer, raw, hook)
                self.originals[id(raw)] = (raw, f"{module_name}.{class_name}.{name}")
                self._set(cls, name, wrapped)

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def escapes(self):
        """Bindings in the package that still reach an unwrapped original."""
        found = []
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                if id(value) in self.originals and self.originals[id(value)][0] is value:
                    found.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type):
                    for name, raw in vars(value).items():
                        if id(raw) in self.originals and self.originals[id(raw)][0] is raw:
                            found.append(f"{mod.__name__}.{attr}.{name}")
        return found

    def remove(self):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


# ---- reading the results ------------------------------------------------------------


def self_times(spans):
    """Self time per layer from complete spans (id, parent, layer, start, end, ...).

    A span's self time is its duration minus the durations of its direct
    children; on one thread the children are disjoint and inside it.
    """
    child = {}
    for span in spans:
        child[span[1]] = child.get(span[1], 0.0) + (span[4] - span[3])
    out = {}
    for span in spans:
        own = (span[4] - span[3]) - child.get(span[0], 0.0)
        out[span[2]] = out.get(span[2], 0.0) + own
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops, time_scale=1.0):
    """Per-layer metrics per completed operation; times multiplied by time_scale."""
    layers = tracer.layers

    def get(name):
        return layers.get(name) or Layer(name, False)

    def calls(name):
        return get(name).calls / ops

    def self_s(*names):
        return sum(get(n).self_s for n in names) * time_scale / ops

    def extra(name, key):
        return get(name).extra.get(key, 0)

    sub = get("homspace.subspace")
    kh = get("karoubi.kar_hom")
    fh = get("fpfun.fp_hom_space")
    return {
        "partition.compose.calls": calls("partition.compose"),
        "partition.compose.self_s": self_s("partition.compose"),
        "partition.tensor.calls": calls("partition.tensor"),
        "partition.tensor.self_s": self_s("partition.tensor"),
        "scalar.ratfunc.calls": calls("scalar.ratfunc"),
        "scalar.poly_gcd.calls": calls("scalar.poly_gcd"),
        "scalar.self_s": self_s("scalar.ratfunc", "scalar.poly_gcd", "scalar.poly_divmod", "scalar.arith"),
        "homspace.lin_compose.calls": calls("homspace.lin_compose"),
        "homspace.lin_compose.term_pairs": extra("homspace.lin_compose", "term_pairs") / ops,
        "homspace.lin_compose.self_s": self_s("homspace.lin_compose"),
        "homspace.elim.calls": calls("homspace.elim"),
        "homspace.elim.cells": extra("homspace.elim", "cells") / ops,
        "homspace.elim.self_s": self_s("homspace.elim"),
        "homspace.subspace.add_calls": sub.extra.get("adds", 0) / ops,
        "homspace.subspace.useful_ratio": _ratio(sub.extra.get("useful_adds", 0), sub.extra.get("adds", 0)),
        "homspace.subspace.self_s": self_s("homspace.subspace"),
        "karoubi.kar_hom.calls": calls("karoubi.kar_hom"),
        "karoubi.kar_hom.candidates": kh.extra.get("candidates", 0) / ops,
        "karoubi.kar_hom.useful_ratio": _ratio(kh.extra.get("dimension", 0), kh.extra.get("candidates", 0)),
        "karoubi.kar_hom.repeat_ratio": _ratio(kh.extra.get("repeats", 0), kh.calls),
        "karoubi.kar_hom.self_s": self_s("karoubi.kar_hom"),
        "karoubi.split_solve.calls": calls("karoubi.split_solve"),
        "karoubi.split_solve.self_s": self_s("karoubi.split_solve"),
        "karoubi.kar_compose.calls": calls("karoubi.kar_compose"),
        "karoubi.kar_compose.self_s": self_s("karoubi.kar_compose"),
        "karoubi.kar_object.calls": calls("karoubi.kar_object"),
        "karoubi.kar_object.self_s": self_s("karoubi.kar_object"),
        "moebius.calls": calls("moebius"),
        "moebius.self_s": self_s("moebius"),
        "cobordism.glue.calls": calls("cobordism.glue"),
        "cobordism.glue.self_s": self_s("cobordism.glue"),
        "fpfun.fp_hom_space.calls": calls("fpfun.fp_hom_space"),
        "fpfun.fp_hom_space.repeat_ratio": _ratio(fh.extra.get("repeats", 0), fh.calls),
        "fpfun.fp_hom_space.self_s": self_s("fpfun.fp_hom_space"),
        "fpfun.weak_kernel.calls": calls("fpfun.weak_kernel"),
        "fpfun.weak_kernel.self_s": self_s("fpfun.weak_kernel"),
        "fpfun.certify.instances": extra("fpfun.fp_object", "certify_instances") / ops,
        "checks.self_s": self_s("checks"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }
