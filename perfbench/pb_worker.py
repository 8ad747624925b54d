"""One workload run in its own process: set up, loop, check, summarise.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  The loop is
closed with one client: each operation starts when the previous one has
returned and been checked.  It runs whole cycles of the workload's slot
list until --seconds have passed and at least MIN_OPS operations are
done, so every run sees the same operation mix.  The last line of
standard output is a JSON summary for run.py.

Machine-speed normalisation: on a shared machine the speed at which the
same pure-Python work runs drifts by tens of percent over seconds, for
every process alike.  A Speedometer therefore times a fixed calibration
loop (the benchmark's own code, never the program's) every PERIOD_S of
wall time, from a timer signal, so that samples fall inside long
operations too, and next to every operation unless a sample is at most
MIN_GAP_S old.  Each timed interval, minus the time the samples took,
is scaled by CAL_REF_S / (mean calibration time of the samples during
it and the nearest one on either side).  Reported times are thus seconds
at the reference speed where one calibration loop takes CAL_REF_S; the
raw wall-clock figures are reported alongside.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

import pb_check
import pb_gen
import pb_trace

SETUP_REPEATS = 9
MIN_OPS = 100
MAX_FAILURE_NOTES = 5
CAL_REF_S = 0.0003
PERIOD_S = 0.25
MIN_GAP_S = 0.01


def _calibration_work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 80):
        acc += Fraction(i, i + 1)
        table[(i, i % 7)] = tuple(sorted((i * j * 7919) % 101 for j in range(4)))
    return acc, len(table)


def calibrate():
    """Time of the calibration loop now: best of three, so an interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Speedometer:
    """Calibration samples every PERIOD_S of wall time, taken from SIGALRM."""

    def __init__(self):
        self.starts = []
        self.cals = []
        self.spent = 0.0
        self._sampling = False

    def _sample(self, *_signal_args):
        if self._sampling:  # the timer fired during a sample taken by refresh()
            return
        self._sampling = True
        t0 = time.perf_counter()
        cal = calibrate()
        self.starts.append(t0)
        self.cals.append(cal)
        self.spent += time.perf_counter() - t0
        self._sampling = False

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def mark(self):
        """A point in time, with the sampling time spent so far."""
        return time.perf_counter(), self.spent

    def refresh(self):
        """Sample now unless a sample is at most MIN_GAP_S old."""
        if time.perf_counter() - self.starts[-1] >= MIN_GAP_S:
            self._sample()

    def raw(self, start, end):
        """Duration between two marks, less the sampling done in between."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def scaled(self, start, end):
        """raw(start, end) at the reference speed: by the samples taken
        during the interval and the nearest one on either side."""
        lo = bisect.bisect_left(self.starts, start[0])
        hi = bisect.bisect_left(self.starts, end[0])
        near = self.cals[max(lo - 1, 0):hi + 1]
        return self.raw(start, end) * CAL_REF_S * len(near) / sum(near)


def _purge_program():
    for name in list(sys.modules):
        if name == "diagcat" or name.startswith("diagcat.") or name == "pb_ops":
            del sys.modules[name]
    gc.collect()


def set_up(speed):
    """Import diagcat and fill its lazy caches, SETUP_REPEATS times from scratch.

    Returns the pb_ops module of the last round, the raw time of each
    round and the same times at reference speed.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        _purge_program()
        start = speed.mark()
        ops = importlib.import_module("pb_ops")
        ops.warm_up()
        end = speed.mark()
        raw.append(speed.raw(start, end))
        scaled.append(speed.scaled(start, end))
    return ops, raw, scaled


def smoothed_percentile(sorted_values, q, half_width=5):
    """Mean of the values ranked between the (q - half_width)th and
    (q + half_width)th percentiles of an ascending list.

    A single order statistic jumps between neighbouring values from run to
    run where operation costs are sparse; the window mean does not.
    """
    n = len(sorted_values)
    lo = n * (q - half_width) // 100
    hi = max(lo + 1, -(-n * (q + half_width) // 100))
    window = sorted_values[lo:hi]
    return sum(window) / len(window)


def measure(speed, run, workload, seed, seconds, hard_limit, tracer=None):
    marks = []
    kinds = Counter()
    t_modes = Counter()
    failures = []
    failed = 0
    cycles = 0
    start = time.perf_counter()
    for cycle, spec in pb_gen.stream(workload, seed):
        if cycle != cycles:
            cycles = cycle
            now = time.perf_counter() - start
            if (now >= seconds and len(marks) >= MIN_OPS) or now >= hard_limit:
                break
        if tracer is not None:
            tracer.op_index = len(marks)
        kinds[spec["kind"]] += 1
        t_modes[pb_gen.t_mode(spec)] += 1
        speed.refresh()
        begin = speed.mark()
        try:
            out = run(spec)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        marks.append((begin, speed.mark()))
        speed.refresh()
        if error is None:
            try:
                pb_check.check(spec, out)
            except Exception as exc:  # a wrong or unreadable output fails the operation
                error = exc
        if error is not None:
            failed += 1
            if len(failures) < MAX_FAILURE_NOTES:
                failures.append(f"{spec['kind']} {spec.get('params')}: {type(error).__name__}: {error}")
    wall = time.perf_counter() - start
    return marks, {
        "failed": failed,
        "failures": failures,
        "cycles": cycles,
        "wall_s": wall,
        "kind_share": {k: v / len(marks) for k, v in sorted(kinds.items())},
        "t_share": {k: v / len(marks) for k, v in sorted(t_modes.items())},
    }


def summarise(speed, marks, summary):
    """Latency and throughput figures, raw and at reference speed."""
    latencies = [speed.raw(a, b) for a, b in marks]
    normal = [speed.scaled(a, b) for a, b in marks]
    attempted, failed = len(marks), summary["failed"]
    ordered = sorted(normal)
    summary.update(
        attempted=attempted,
        busy_s=sum(latencies),
        time_scale=sum(normal) / sum(latencies),
        raw_throughput_ops_s=(attempted - failed) / sum(latencies),
        throughput_ops_s=(attempted - failed) / sum(normal),
        latency_p50_ms=smoothed_percentile(ordered, 50) * 1000,
        latency_p90_ms=smoothed_percentile(ordered, 90) * 1000,
    )
    return summary


def instrument(ops, traced):
    """The operation runner: plain, or wrapped with every layer traced."""
    if not traced:
        return None, None, ops.run
    tracer = pb_trace.Tracer()
    installation = pb_trace.Installation(tracer)
    escapes = installation.escapes()
    if escapes:
        raise SystemExit(f"unwrapped bindings remain: {escapes}")
    return tracer, installation, tracer.wrap(tracer.layer("op", True), ops.run)


def report_trace(tracer, summary, spans_path):
    layers = pb_trace.layer_metrics(tracer, summary["attempted"], summary["time_scale"])
    summary["layers"] = layers
    summary["repeat_share"] = {
        "kar_hom": layers["karoubi.kar_hom.repeat_ratio"],
        "fp_hom_space": layers["fpfun.fp_hom_space.repeat_ratio"],
    }
    summary["spans"] = len(tracer.spans)
    summary["dropped_spans"] = tracer.dropped_spans
    os.makedirs(os.path.dirname(spans_path) or ".", exist_ok=True)
    with open(spans_path, "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(pb_gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--hard-limit", type=float, required=True)
    parser.add_argument("--spans", default=None, help="traced run: write spans to this file")
    args = parser.parse_args(argv)

    with Speedometer() as speed:
        ops, setup_raw, setup_scaled = set_up(speed)
        tracer, installation, run = instrument(ops, args.spans is not None)
        gc.collect()
        marks, summary = measure(speed, run, args.workload, args.seed, args.seconds, args.hard_limit, tracer)
    summarise(speed, marks, summary)
    summary["setup_s"] = statistics.median(setup_scaled)
    summary["raw_setup_s"] = statistics.median(setup_raw)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        installation.remove()
        report_trace(tracer, summary, args.spans)
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
