"""The pair-comparison tool, on one short algebra-mix pair of this checkout
against itself."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    # every metric is printed with both medians and its wins
    assert all(f"{name}: base " in proc.stdout for name in names) and "wins 1/1" in proc.stdout
