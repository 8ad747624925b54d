"""Acceptance suite: eleven exact-arithmetic criteria with runtime caps.

Each test covers one numbered criterion and prints a single
``criterion N: PASS/FAIL`` line (visible with ``pytest -s``).  All
comparisons are exact; there are no numerical tolerances anywhere.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from diagcat.checks import (
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
from diagcat.fpfun import (
    FpMorphism,
    fp_cokernel,
    fp_compose,
    fp_covanishing_reps,
    fp_factors_through,
    fp_hom,
    fp_is_zero_morphism,
    fp_kernel,
    fp_vanishing_dimension,
    weak_kernel,
    weak_kernel_exact_at,
    yoneda,
)
from diagcat.homspace import LinMorphism, hom_basis, parse_linmorphism
from diagcat.karoubi import KarHom, KarMorphism, KarObject, split_solve
from diagcat.moebius import symmetrizer, x_e, x_j
from diagcat.partition import DiagramClass, PartitionDiagram
from diagcat.scalar import FieldSpec

BELL = [1, 1, 2, 5, 15, 52, 203]

LAW_CLASSES = (
    DiagramClass.ALL,
    DiagramClass.EVEN_BLOCKS,
    DiagramClass.EVEN_MANY_ODD_BLOCKS,
    DiagramClass.BLOCKS_SIZE_2,
)


@contextmanager
def criterion(num: int, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"criterion {num}: PASS ({elapsed:.2f}s)")


def shape_tuples(slots: int, total: int):
    """All tuples of `slots` nonnegative ints summing to at most `total`."""
    if slots == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in shape_tuples(slots - 1, total - head):
            yield (head,) + rest


def run_cli(*args, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "diagcat.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_01_basis_counts():
    with criterion(1, 5):
        for m in range(7):
            for n in range(7 - m):
                assert len(hom_basis(DiagramClass.ALL, m, n)) == BELL[m + n]
                expected = BELL[m + n] if (m + n) % 2 == 0 else 0
                got = len(hom_basis(DiagramClass.EVEN_MANY_ODD_BLOCKS, m, n))
                assert got == expected


def test_criterion_02_category_laws():
    field = FieldSpec.generic()

    def lift(cls, m, n):
        return [LinMorphism.from_diagram(d, field) for d in hom_basis(cls, m, n)]

    with criterion(2, 60):
        for cls in LAW_CLASSES:
            for m, k, l, n in shape_tuples(4, 6):
                fs = lift(cls, m, k)
                gs = lift(cls, k, l)
                hs = lift(cls, l, n)
                if not (fs and gs and hs):
                    continue
                for f in fs:
                    for g in gs:
                        gf = g.compose(f, field)
                        for h in hs:
                            assert h.compose(gf, field) == h.compose(g, field).compose(
                                f, field
                            )
            for a, b, c in shape_tuples(3, 6):
                pairs1 = [
                    (f, g, g.compose(f, field))
                    for f in lift(cls, a, b)
                    for g in lift(cls, b, c)
                ]
                if not pairs1:
                    continue
                for a2, b2, c2 in shape_tuples(3, 6 - (a + b + c)):
                    pairs2 = [
                        (f2, g2, g2.compose(f2, field))
                        for f2 in lift(cls, a2, b2)
                        for g2 in lift(cls, b2, c2)
                    ]
                    for f, g, gf in pairs1:
                        for f2, g2, gf2 in pairs2:
                            lhs = g.tensor(g2, field).compose(f.tensor(f2, field), field)
                            assert lhs == gf.tensor(gf2, field)


def test_criterion_03_diag_and_ex1_all_classes():
    with criterion(3, 60):
        for cls in DiagramClass:
            assert check_diag(cls, 6).passed(), cls.value
            assert check_ex(1, cls, 6).passed(), cls.value


def test_criterion_04_uex_spot_check():
    field = FieldSpec.generic()
    with criterion(4, 30):
        for cls in (
            DiagramClass.ALL,
            DiagramClass.EVEN_BLOCKS,
            DiagramClass.EVEN_MANY_ODD_BLOCKS,
        ):
            u = default_unit_morphism(cls, field)
            assert check_uex(u, cls, 3, field).passed(), cls.value


def test_criterion_05_lemma_suite():
    field = FieldSpec.generic()
    with criterion(5, 120):
        assert verify_lemma("absorption", 3, 3, field).passed()
        assert verify_lemma("computation_H", 3, 3, field).passed()
        for j in range(5):
            xj = x_j(j, field)
            ej = symmetrizer(j, field)
            xe = x_e(j, field)
            assert xj.compose(xj, field) == xj
            assert ej.compose(ej, field) == ej
            assert xe.compose(xe, field) == xe


def test_criterion_06_representable_h():
    field = FieldSpec.generic()
    with criterion(6, 300):
        for i in range(4):
            assert representable_H(i, i, field).passed(), f"i={i}"
        bad = representable_H(0, 2, field)
        assert bad.status == "fail"
        rows = bad.witness["failures"]
        assert {"m": 2, "hom_dim": 1, "target_dim": 2, "rank": 1} in rows


def test_criterion_07_representable_sprime():
    with criterion(7, 120):
        assert representable_Sprime(4, FieldSpec.generic()).passed()
        for q in (Fraction(5), Fraction(-1), Fraction(1, 2)):
            assert representable_Sprime(4, FieldSpec.at(q)).passed(), str(q)
        with pytest.raises(ZeroDivisionError, match="requires t != 0"):
            representable_Sprime(4, FieldSpec.at(Fraction(0)))


def test_criterion_08_splitting_semisimplicity():
    field = FieldSpec.generic()
    with criterion(8, 120):
        checked = 0
        for m, n in shape_tuples(2, 4):
            for d in hom_basis(DiagramClass.ALL, m, n):
                lin = LinMorphism.from_diagram(d, field)
                f = KarMorphism.from_lin(lin, DiagramClass.ALL, field)
                w = split_solve(f)
                assert w is not None, d.to_text()
                assert kar_compose_pair(kar_compose_pair(f, w.g), f) == f
                checked += 1
        assert checked == 104
        sweep = check_split_sweep(DiagramClass.ALL, 4, field, samples=25, seed=0)
        assert sweep.passed()
        assert sweep.witness["morphisms_checked"] >= 104


def test_criterion_09_cobordism_crosscheck():
    with criterion(9, 60):
        report = check_crosscheck_cob(5)
        assert report.passed()
        assert report.witness["instances"] >= 1000


def test_criterion_10_mod_s_layer():
    field = FieldSpec.generic()
    cls = DiagramClass.ALL
    with criterion(10, 60):
        words = [KarObject.word(w, cls, field) for w in range(3)]
        probes = [yoneda(w) for w in words]
        for a in words:
            for b in words:
                assert len(fp_hom(yoneda(a), yoneda(b))) == len(KarHom(a, b))

        eta = KarMorphism.from_lin(
            parse_linmorphism("1'", field, dom=0, cod=1), cls, field
        )
        src, dst = yoneda(words[0]), yoneda(words[1])
        phi = FpMorphism(src, dst, eta, KarMorphism.zero(src.Q, dst.Q))
        coker = fp_cokernel(phi)
        for probe in probes:
            assert len(fp_hom(coker, probe)) == fp_vanishing_dimension(phi, probe)

        eps = KarMorphism.from_lin(
            parse_linmorphism("1", field, dom=1, cod=0), cls, field
        )
        src, dst = yoneda(words[1]), yoneda(words[0])
        phi = FpMorphism(src, dst, eps, KarMorphism.zero(src.Q, dst.Q))
        kernel, incl = fp_kernel(phi, words[1], eps)
        assert fp_is_zero_morphism(fp_compose(phi, incl))
        factored = 0
        for probe in probes:
            for h in fp_covanishing_reps(phi, probe):
                assert fp_factors_through(incl, h)
                factored += 1
        assert factored >= 3
        assert [len(fp_hom(kernel, p)) for p in probes] == [0, 1, 3]

        k_obj, kappa_prime = weak_kernel(eps, words[1], eps)
        assert kar_is_zero(kar_compose_pair(eps, kappa_prime))
        for w in words:
            assert weak_kernel_exact_at(eps, k_obj, kappa_prime, w)


def kar_compose_pair(g, f):
    from diagcat.karoubi import kar_compose

    return kar_compose(g, f)


def kar_is_zero(m):
    return m == KarMorphism.zero(m.dom, m.cod)


def test_criterion_11_cli_round_trip_and_determinism():
    with criterion(11, 90):
        for m in range(7):
            for n in range(7 - m):
                for d in hom_basis(DiagramClass.ALL, m, n):
                    assert PartitionDiagram.parse(d.to_text()) == d

        r = run_cli("compose", "--t", "5", "1", "1'")
        assert r.returncode == 0
        assert r.stdout.strip() == "5 * <empty>"

        r = run_cli("check", "representable-sprime", "--m-max", "3", "--t", "generic", "--json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["status"] == "pass"

        r = run_cli("check", "representable-sprime", "--t", "0")
        assert r.returncode == 2
        assert "requires t != 0" in r.stderr

        args = (
            "check", "ex2", "--class", "all", "--max-points", "4",
            "--samples", "40", "--seed", "11", "--json",
        )
        first = run_cli(*args, hashseed="3")
        second = run_cli(*args, hashseed="77")
        a = json.loads(first.stdout)
        b = json.loads(second.stdout)
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert first.returncode == second.returncode == 0
