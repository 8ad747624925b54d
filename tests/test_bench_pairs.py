"""The pair-comparison tool: its verdicts over synthetic pairs, and one
short algebra-mix pair of this checkout against itself."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_pairs(base, change, change_failed=0):
    """One pair per (base, change) value of the metric "m", 100 operations
    a run; the change's runs fail change_failed of theirs."""
    def run(value, failed):
        return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": {"m": value}}

    return [
        {"seed": i, "base": run(b, 0), "change": run(c, change_failed)}
        for i, (b, c) in enumerate(zip(base, change))
    ]


HIGHER = {"m": {"better": "higher", "bound": 0.2}}
LOWER = {"m": {"better": "lower", "bound": 0.25}}


@pytest.mark.parametrize(
    "base, change, specs, change_failed, verdict",
    [
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120] * 10, HIGHER, 0, "gain"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120] * 10, HIGHER, 1, "gain voided by failures"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99], [120] * 9, HIGHER, 0, "within bound"),
        ([10, 10, 10], [13, 13, 13], LOWER, 0, "over bound"),
        ([100, 200, 50], [110, 90, 160], HIGHER, 0, "unresolved"),
        ([100, 200, 50], [210, 220, 230], HIGHER, 0, "within bound"),
        ([100, 101, 99], [100, 100, 100], HIGHER, 0, "within bound"),
        ([100, 101, 99], [50, 50, 50], {}, 0, "no gain"),
    ],
    ids=["gain", "voided", "too-few-pairs", "over-bound", "unresolved",
         "every-run-better", "within-bound", "unbounded"],
)
def test_summarise_reads_each_verdict(base, change, specs, change_failed, verdict):
    (summary,) = load_tool().summarise(synthetic_pairs(base, change, change_failed), specs).values()
    assert summary["verdict"] == verdict


def test_an_incorrect_run_exits_non_zero_after_the_file_is_written(tmp_path, monkeypatch):
    tool = load_tool()
    pairs = synthetic_pairs([100], [100], change_failed=3)
    monkeypatch.setattr(tool, "compare", lambda base_dir, base_rev, args: {"pairs": pairs})
    out = tmp_path / "BENCH_incorrect.json"
    args = ["--base-dir", ROOT, "--workload", "algebra-mix", "--pairs", "1", "--seed0", "0"]
    with pytest.raises(SystemExit, match="incorrect runs: seed 0 change"):
        tool.main(args + ["--out", str(out)])
    assert json.loads(out.read_text())["workloads"]["algebra-mix"]["pairs"] == pairs


def test_one_pair_writes_a_bench_file_of_every_metric(tmp_path):
    out = tmp_path / "BENCH_selftest.json"
    proc = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
            "--base-dir", ROOT, "--workload", "algebra-mix", "--pairs", "1",
            "--seed0", "31", "--seconds", "1", "--label", "selftest", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["label"] == "selftest" and list(doc["workloads"]) == ["algebra-mix"]
    entry = doc["workloads"]["algebra-mix"]
    assert entry["seeds"] == [31] and entry["seconds"] == 1 and entry["trace"] == 0
    assert entry["failed"] == {"base": 0, "change": 0}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    (pair,) = entry["pairs"]
    assert pair["seed"] == 31 and pair["first"] == "base"
    for side in ("base", "change"):
        run = pair[side]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 100
        assert set(run["metrics"]) == names
    assert set(entry["summary"]) == names
    for name, s in entry["summary"].items():
        for side in ("base", "change"):
            q = s[side]
            assert q["q1"] == q["median"] == q["q3"] == pair[side]["metrics"][name]
        assert s["wins"] in (0, 1) and s["verdict"] in ("gain", "over bound", "unresolved", "within bound")
        assert s["bound"] > 0 and s["better"] in ("higher", "lower")
    # every metric is printed with both medians and the wins its summary records
    lines = {line.split(":")[0]: line for line in proc.stdout.splitlines()}
    for name, s in entry["summary"].items():
        assert lines[name].startswith(f"{name}: base ")
        assert f"wins {s['wins']}/1," in lines[name]
