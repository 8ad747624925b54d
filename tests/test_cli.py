"""End-to-end command-line tests run through subprocesses."""

import json
import os
import subprocess
import sys

from diagcat.homspace import hom_basis
from diagcat.partition import DiagramClass, PartitionDiagram


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "diagcat.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_compose_spec_example():
    r = run_cli("compose", "--t", "5", "1", "1'")
    assert r.returncode == 0
    assert r.stdout.strip() == "5 * <empty>"


def test_compose_generic_loop():
    r = run_cli("compose", "1", "1'")
    assert r.returncode == 0
    assert r.stdout.strip() == "t * <empty>"


def test_tensor_identity():
    r = run_cli("tensor", "1 1'", "1 1'")
    assert r.returncode == 0
    assert r.stdout.strip() == "1 * 1 1' | 2 2'"


def test_parse_error_exits_2():
    r = run_cli("compose", "1 1", "1'")
    assert r.returncode == 2
    assert "duplicate point" in r.stderr


def test_shape_mismatch_exits_2():
    r = run_cli("compose", "1 1'", "1 2")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_unknown_subcommand_exits_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_moebius_x_singleton():
    r = run_cli("moebius", "x", "1")
    assert r.returncode == 0
    assert r.stdout.strip() == "1 * 1"


def test_hom_basis_count_line():
    r = run_cli("hom-basis", "2", "1", "--class", "all")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[-1] == "count: 5"
    assert len(lines) == 6


def test_hom_basis_json():
    r = run_cli("hom-basis", "1", "1", "--class", "blocks-size-2", "--json")
    payload = json.loads(r.stdout)
    assert payload["count"] == 1
    assert payload["diagrams"] == ["1 1'"]


def test_cobordism_glue():
    r = run_cli("cobordism-glue", "--datum", "st", "g=0: 1", "g=0: 1'")
    assert r.returncode == 0
    assert r.stdout.strip() == "t * <empty>"


def test_check_pass_exit_zero():
    r = run_cli("check", "diag", "--class", "even-blocks", "--max-points", "4")
    assert r.returncode == 0
    assert r.stdout.strip() == "diag: pass"


def test_check_fail_exit_one_with_witness():
    r = run_cli("check", "representable-h", "--i", "0", "--m-max", "2", "--json")
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["status"] == "fail"
    rows = payload["witness"]["failures"]
    assert {"m": 2, "hom_dim": 1, "target_dim": 2, "rank": 1} in rows


def test_check_sprime_spec_example():
    r = run_cli("check", "representable-sprime", "--m-max", "3", "--t", "generic", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["status"] == "pass"


def test_check_sprime_t_zero_exits_2():
    r = run_cli("check", "representable-sprime", "--t", "0")
    assert r.returncode == 2
    assert "requires t != 0" in r.stderr


def test_check_uex_custom_u():
    r = run_cli("check", "uex", "--class", "all", "--u", "1", "--max-points", "2")
    assert r.returncode == 0
    assert "pass-up-to-bound" in r.stdout


def test_check_report_schema():
    r = run_cli("check", "lemma-absorption", "--j-max", "2", "--m-max", "2", "--json")
    payload = json.loads(r.stdout)
    assert set(payload) == {"check", "params", "status", "witness", "elapsed_ms"}


def test_env_var_bound_and_flag_precedence():
    slow = run_cli(
        "check", "diag", "--class", "blocks-size-2", "--json",
        env_extra={"DIAGCAT_MAX_POINTS": "2"},
    )
    assert json.loads(slow.stdout)["params"]["max_points"] == 2
    flagged = run_cli(
        "check", "diag", "--class", "blocks-size-2", "--max-points", "4", "--json",
        env_extra={"DIAGCAT_MAX_POINTS": "2"},
    )
    assert json.loads(flagged.stdout)["params"]["max_points"] == 4


def test_fp_hom_dimension():
    r = run_cli("fp", "hom", "--word", "1", "--word2", "1", "--json")
    assert json.loads(r.stdout)["dimension"] == 2


def test_fp_coker_of_split_epi_vanishes():
    r = run_cli("fp", "coker", "--dom", "1", "--cod", "0", "--lin", "1", "--json")
    payload = json.loads(r.stdout)
    assert payload["is_zero"] is True


def test_fp_kernel_prints_presentation():
    r = run_cli("fp", "kernel", "--dom", "1", "--cod", "0", "--lin", "1")
    assert r.returncode == 0
    assert r.stdout.startswith("coker(")


def test_fp_embed_requires_nonzero_t():
    r = run_cli("fp", "embed", "--word", "1", "--t", "0")
    assert r.returncode == 2
    assert "requires t != 0" in r.stderr


def test_fp_missing_lin_exits_2():
    r = run_cli("fp", "coker")
    assert r.returncode == 2


def test_round_trip_small_diagrams():
    for cls in DiagramClass:
        for m in range(4):
            for n in range(4 - m):
                for d in hom_basis(cls, m, n):
                    assert PartitionDiagram.parse(d.to_text()) == d


def test_round_trip_via_cli():
    d = PartitionDiagram.parse("1 2' | 2 3 1' | 3'")
    r = run_cli("tensor", d.to_text(), "<empty>")
    assert r.returncode == 0
    text = r.stdout.strip().split(" * ", 1)[1]
    assert PartitionDiagram.parse(text) == d


def test_json_byte_stability():
    args = ("check", "ex2", "--class", "all", "--max-points", "4",
            "--samples", "40", "--seed", "7", "--json")
    first = run_cli(*args, env_extra={"PYTHONHASHSEED": "1"})
    second = run_cli(*args, env_extra={"PYTHONHASHSEED": "99"})
    a = json.loads(first.stdout)
    b = json.loads(second.stdout)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert first.returncode == second.returncode == 0


def test_options_only_where_read():
    r = run_cli("compose", "--max-points", "3", "1", "1'")
    assert r.returncode == 2
