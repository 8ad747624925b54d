"""Tests of the benchmark's own parts: reference, tracer, generator, checks."""

from __future__ import annotations

import itertools

import pytest

import pb_check
import pb_gen
import pb_ops
import pb_ref
import pb_trace
from diagcat import partition
from diagcat.scalar import FieldSpec


def _ref_of(d):
    return (d.m, d.n, d.blocks)


def test_reference_composer_matches_partition_compose_exhaustively():
    pairs = 0
    for m, k, n in itertools.product(range(4), repeat=3):
        if m + k + n > 5:
            continue
        for f in partition.all_diagrams(m, k):
            for g in partition.all_diagrams(k, n):
                got = partition.compose(g, f)
                want, loops = pb_ref.compose(_ref_of(g), _ref_of(f))
                assert (_ref_of(got.diagram), got.loops) == (want, loops)
                assert _ref_of(partition.tensor(f, g)) == pb_ref.tensor(_ref_of(f), _ref_of(g))
                pairs += 1
    assert pairs > 1500


def test_reference_bases_match_class_membership_and_bell_numbers():
    for m in range(4):
        for n in range(4 - m):
            assert len(pb_ref.basis("all", m, n)) == pb_ref.bell(m + n)
            for cls in partition.DiagramClass:
                got = sorted(_ref_of(d) for d in partition.all_diagrams(m, n) if cls.member(d))
                assert got == pb_ref.basis(cls.value, m, n)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # outer [0, 10] calls inner [1, 4] and inner [5, 9]; the second inner
    # calls leaf [6, 8], a counter-only layer.
    clock = FakeClock([0, 1, 4, 4, 5, 6, 8, 8, 9, 9, 10, 10])
    tracer = pb_trace.Tracer(clock=clock)
    outer_layer = tracer.layer("outer", True)
    inner_layer = tracer.layer("inner", True)
    leaf_layer = tracer.layer("leaf", False)
    leaf = tracer.wrap(leaf_layer, lambda: None)

    def inner_body(call_leaf):
        if call_leaf:
            leaf()

    inner = tracer.wrap(inner_layer, inner_body)
    outer = tracer.wrap(outer_layer, lambda: (inner(False), inner(True)))
    outer()
    assert outer_layer.self_s == pytest.approx(10 - 3 - 4)
    assert inner_layer.self_s == pytest.approx(3 + (4 - 2))
    assert leaf_layer.self_s == pytest.approx(2)
    assert (outer_layer.calls, inner_layer.calls, leaf_layer.calls) == (1, 2, 1)
    ids = {span[2]: span for span in tracer.spans if span[2] == "outer"}
    assert all(span[1] == ids["outer"][0] for span in tracer.spans if span[2] == "inner")
    # Offline arithmetic over the kept spans: the leaf is not a span, so
    # its time stays inside the second inner span.
    assert pb_trace.self_times(tracer.spans) == pytest.approx({"outer": 3.0, "inner": 7.0})


def test_generator_is_deterministic_and_keeps_the_mix_across_seeds():
    for workload in pb_gen.WORKLOADS:
        size = len(pb_gen.slots(workload))
        first = list(itertools.islice(pb_gen.stream(workload, 7), 2 * size))
        again = list(itertools.islice(pb_gen.stream(workload, 7), 2 * size))
        other = list(itertools.islice(pb_gen.stream(workload, 8), 2 * size))
        assert repr(first) == repr(again)
        assert repr(first) != repr(other)

        def mix(ops):
            return sorted((c, spec["kind"], repr(spec["params"])) for c, spec in ops)

        assert mix(first) == mix(other)


def test_tracer_wraps_every_binding_and_restores_them():
    import diagcat.checks as checks
    import diagcat.fpfun as fpfun
    import diagcat.karoubi as karoubi

    original = karoubi.split_solve
    installation = pb_trace.Installation(pb_trace.Tracer())
    try:
        assert installation.escapes() == []
        assert checks.split_solve is fpfun.split_solve is karoubi.split_solve
        assert karoubi.split_solve is not original
    finally:
        installation.remove()
    assert checks.split_solve is fpfun.split_solve is karoubi.split_solve is original


def test_checks_reject_a_wrong_composition():
    spec = next(
        spec for _, spec in pb_gen.stream("algebra-mix", 3) if spec["kind"] == "compose"
    )
    field = FieldSpec.generic()
    f, g = (pb_ops.lin_of(lin, field) for lin in spec["lins"])
    right = g.compose(f, field)
    pb_check.check(spec, right)
    with pytest.raises(pb_check.CheckFailure):
        pb_check.check(spec, right.scale(field.t()))
