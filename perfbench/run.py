"""diagcat benchmark: one command, one workload, all metrics with units.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Each run starts one worker process (pb_worker.py) that sets up, runs the
workload as a closed loop with one client, checks every result, and
reports.  --trace 0 prints the end-to-end metrics; --trace 1 runs the
workload once untraced and once traced and prints the per-layer metrics,
including trace.overhead_ratio (untraced over traced throughput).  Spans
of the traced run go to .perfbench_out/.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pb_gen  # noqa: E402

# Per-child wall-clock budgets keep a run, traced runs included, below the
# 180 s a run may take.
CHILD_TIMEOUT_S = {0: 170, 1: 85}
HARD_LIMIT_S = {0: 120, 1: 55}

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("self_s"):
        return "s/op"
    return "count/op"


def run_worker(root, args, traced):
    cmd = [
        sys.executable,
        os.path.join(HERE, "pb_worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--hard-limit", str(HARD_LIMIT_S[args.trace]),
    ]
    if traced:
        cmd += ["--spans", os.path.join(root, ".perfbench_out", f"spans-{args.workload}-{args.seed}.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S[args.trace]
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pb_gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diagcat", "__init__.py")):
        raise SystemExit("error: run from the root of a diagcat checkout (src/diagcat not found)")

    plain = run_worker(root, args, traced=False)
    runs = [plain]
    print(
        f"{args.workload} seed {args.seed}: closed loop, 1 client, "
        f"{plain['attempted']} ops in {plain['cycles']} cycles, "
        f"{plain['busy_s']:.2f} s busy of {plain['wall_s']:.2f} s"
    )
    print(
        f"times at reference speed (scale {plain['time_scale']:.3f}); raw: "
        f"throughput {plain['raw_throughput_ops_s']:.6g} 1/s, setup {plain['raw_setup_s']:.6g} s"
    )
    for failure in plain["failures"]:
        print(f"FAILED {failure}")
    if args.trace == 0:
        metrics = {name: {"value": plain[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
        print(
            f"latency samples {plain['attempted']}; "
            f"error_rate {plain['failed'] / plain['attempted']:.6g} "
            f"({plain['failed']} of {plain['attempted']})"
        )
        properties = {"kind_share": plain["kind_share"], "t_share": plain["t_share"]}
    else:
        traced = run_worker(root, args, traced=True)
        runs.append(traced)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = {
            "value": plain["throughput_ops_s"] / traced["throughput_ops_s"],
            "unit": "ratio",
        }
        for failure in traced["failures"]:
            print(f"FAILED (traced) {failure}")
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
        print(f"spans {traced['spans']} kept, {traced['dropped_spans']} dropped")
        properties = {
            "kind_share": traced["kind_share"],
            "t_share": traced["t_share"],
            "repeat_share": traced["repeat_share"],
        }
    print("properties " + json.dumps(properties, sort_keys=True))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
