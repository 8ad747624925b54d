"""Compare a base checkout with this one by alternating perfbench pairs.

    python3 tools/bench_pairs.py (--base-dir DIR | --base REV) --workload W
        --pairs N --seed0 S [--seconds 15] [--trace 0|1] [--label L] [--out FILE]

Pair i runs ``perfbench/run.py --workload W --seed S+i`` once in the base
checkout and once in the root of this one, each with its own unchanged
``perfbench/``; even pairs run the base first and odd pairs the change.
``--base REV`` checks REV out into a temporary ``git worktree`` outside the
repository and removes it afterwards.

For every metric the runs print, the tool reports each side's median and
quartiles, the change in the medians, and the pairs the change won (ties
count for neither).  Each metric's direction and bound come from
``BENCHMARK.json``.  A gain is read when, over at least ten pairs, the
change wins at least nine tenths of them and the medians differ by more
than the base's interquartile range, unless a larger share of the
change's operations failed, which voids the gain; a bounded metric whose
median is worse than its bound reads as over the bound; one whose base
spread is wider than its bound reads as unresolved, unless every change
run beats every base run.  Every
run and the summary go to ``BENCH_<label>.json`` (``--out``), where they
replace that workload's earlier entry (a traced run's key is the workload
and " traced").  The tool exits non-zero, after writing the file, when
any run reports itself incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 400  # perfbench/run.py bounds its own children below this
MIN_CLAIM_PAIRS = 10


def load_metric_specs(root):
    """name -> {"better", "bound"} from BENCHMARK.json; layers have no bound."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for entry in bench.get(kind, ()):
            specs[entry["name"]] = {"better": entry["better"], "bound": entry.get("bound")}
    return specs


def git_rev(directory):
    """The commit checked out in directory, marked -dirty when tracked files
    differ from it; None if directory is no git checkout."""
    proc = subprocess.run(
        ["git", "-C", directory, "describe", "--always", "--dirty", "--abbrev=12"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(directory, workload, seed, seconds, trace):
    """One perfbench run in directory: its last output line, parsed."""
    cmd = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: perfbench exited with code {proc.returncode} in {directory}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def quartiles(values):
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def failure_share(pairs, side):
    """The share of side's attempted operations that failed, over all pairs."""
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted else 0.0


def summarise(pairs, specs):
    """Per metric: both sides' quartiles, the median change, wins and a
    verdict; a gain of a change whose operations fail in a larger share
    than the base's reads "gain voided by failures"."""
    out = {}
    more_failures = failure_share(pairs, "change") > failure_share(pairs, "base")
    names = [name for name in pairs[0]["base"]["metrics"] if name in pairs[0]["change"]["metrics"]]
    for name in names:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        spec = specs.get(name, {"better": "higher", "bound": None})
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
        rel = (cmed - bmed) / bmed if bmed else None
        bound = spec["bound"]
        n = len(pairs)
        if n >= MIN_CLAIM_PAIRS and 10 * wins >= 9 * n and sign * (cmed - bmed) > bq3 - bq1:
            verdict = "gain voided by failures" if more_failures else "gain"
        elif bound is not None and rel is not None and -sign * rel > bound:
            verdict = "over bound"
        elif (
            bound is not None
            and bmed
            and (bq3 - bq1) / abs(bmed) > bound
            and not all(sign * (c - b) > 0 for c in change for b in base)
        ):
            verdict = "unresolved"
        else:
            verdict = "within bound" if bound is not None else "no gain"
        out[name] = {
            "better": spec["better"],
            "bound": bound,
            "base": {"q1": bq1, "median": bmed, "q3": bq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "median_change": rel,
            "wins": wins,
            "verdict": verdict,
        }
    return out


def compare(base_dir, base_rev, args):
    specs = load_metric_specs(ROOT)
    pairs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            directory = base_dir if side == "base" else ROOT
            pair[side] = run_once(directory, args.workload, seed, args.seconds, args.trace)
        pairs.append(pair)
        name = next(iter(pair["base"]["metrics"]))
        print(
            f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): {name} "
            f"{pair['base']['metrics'][name]:.6g} -> {pair['change']['metrics'][name]:.6g}",
            flush=True,
        )
    summary = summarise(pairs, specs)
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("base", "change")}
    attempted = {side: sum(p[side]["attempted"] for p in pairs) for side in ("base", "change")}
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}")
    print(f"failed: base {failed['base']} of {attempted['base']}, change {failed['change']} of {attempted['change']}")
    for name, s in summary.items():
        b, c = s["base"], s["change"]
        rel = "n/a" if s["median_change"] is None else f"{100 * s['median_change']:+.1f}%"
        print(
            f"{name}: base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
            f" change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
            f" {rel}, wins {s['wins']}/{len(pairs)}, {s['verdict']}"
        )
    return {
        "base": base_rev,
        "change": git_rev(ROOT),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": [p["seed"] for p in pairs],
        "failed": failed,
        "attempted": attempted,
        "pairs": pairs,
        "summary": summary,
    }


def write(path, label, key, entry):
    """Put entry under key in the BENCH file at path, keeping the others."""
    doc = {"label": label, "workloads": {}}
    if os.path.isfile(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["workloads"][key] = entry
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base-dir", help="a checkout of the base revision")
    base.add_argument("--base", help="a git revision, checked out into a temporary worktree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="names the output BENCH_<label>.json; default the workload")
    parser.add_argument("--out", help="the output file; default BENCH_<label>.json at the root")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    label = args.label or args.workload
    out = args.out or os.path.join(ROOT, f"BENCH_{label}.json")

    if args.base_dir is not None:
        base_dir = os.path.abspath(args.base_dir)
        if not os.path.isfile(os.path.join(base_dir, "perfbench", "run.py")):
            raise SystemExit(f"error: no perfbench/run.py in {args.base_dir}")
        entry = compare(base_dir, git_rev(base_dir), args)
    else:
        tmp = tempfile.mkdtemp(prefix="bench-base-")
        worktree = os.path.join(tmp, "base")
        try:
            subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", worktree, args.base], check=True)
            entry = compare(worktree, git_rev(worktree), args)
        finally:
            subprocess.run(
                ["git", "-C", ROOT, "worktree", "remove", "--force", worktree],
                check=False, capture_output=True,
            )
            shutil.rmtree(tmp, ignore_errors=True)
            subprocess.run(["git", "-C", ROOT, "worktree", "prune"], check=False)
    write(out, label, args.workload + (" traced" if args.trace else ""), entry)
    print(f"wrote {out}")
    incorrect = [
        f"seed {p['seed']} {side}" for p in entry["pairs"] for side in ("base", "change")
        if not p[side]["correct"]
    ]
    if incorrect:
        raise SystemExit("error: incorrect runs: " + ", ".join(incorrect))


if __name__ == "__main__":
    main()
