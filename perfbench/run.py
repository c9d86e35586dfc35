"""qsl2r benchmark: replays the paper's checks on four workloads and prints
end-to-end metrics (--trace 0) or per-layer metrics from a traced run
(--trace 1).  Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A human-readable report, the
environment and every failing cell go to standard error and, with the
spans of a traced run, to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter, deque
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracing import (FRONTIER, PER_LAYER, SUITE, SWEEP, SYMBOLIC, OpCounter,  # noqa: E402
                     Tracer, coverage_gaps, layer_metrics)

E2E = (("wall_s", "s"), ("cell_p50_s", "s"), ("cell_tail_s", "s"),
       ("pass_share", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 15
# Nominal time of reference_loop(); see Clock.
REF_SECONDS = 0.010
TAIL_MIN_CELLS = 100  # cells per pass needed for a percentile tail
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_checkout():
    if not (ROOT / "src" / "qsl2r" / "__init__.py").is_file():
        fail(f"no qsl2r sources under {ROOT / 'src'}; run from a checkout of the repository")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        declared = ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                    [(m["name"], m["unit"]) for m in spec["per_layer"]])
        if declared != (list(E2E), list(PER_LAYER)):
            fail("BENCHMARK.json metrics differ from the metrics this benchmark reports")


def limit_threads():
    """One BLAS thread (the matrices are at most 31 x 31); never above nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        val = os.environ.get(var, "")
        if not (val.isdigit() and 1 <= int(val) <= nproc):
            os.environ[var] = "1"


def environment():
    import numpy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# reference speed
# ---------------------------------------------------------------------------


def reference_loop():
    acc, table = 0, {}
    for i in range(70000):
        acc += (i * 7919) % 104729
        table[i & 1023] = acc
    return acc


class Clock:
    """Scales durations to a fixed reference speed.

    A shared virtual machine can change speed by 20-30% within a minute, for
    every process alike, so raw seconds from runs a minute apart can differ
    by more than any useful bound.  A fixed pure-Python loop is timed between
    cells, at most every REFRESH_S, and three times after a gap longer than
    a second.  A duration from t0 to t1 is reported as measured seconds x
    REF_SECONDS / (median loop time sampled within WINDOW_S of [t0, t1]).
    A change to qsl2r does not touch the loop, so the scaled times move
    only with the program's own cost.  Raw seconds go to the report too.
    """

    REFRESH_S = 0.25
    WINDOW_S = 1.0

    def __init__(self):
        self._samples = deque(maxlen=64)  # (time taken, loop seconds)
        for _ in range(5):
            self._sample()

    def _sample(self):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self._samples.append((t1, t1 - t0))

    def refresh(self):
        gap = perf_counter() - self._samples[-1][0]
        if gap > self.REFRESH_S:
            for _ in range(3 if gap > 1.0 else 1):
                self._sample()

    def scale(self, t0, t1):
        near = [d for t, d in self._samples if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        if len(near) < 3:
            near = [d for _, d in list(self._samples)[-5:]]
        return REF_SECONDS / statistics.median(near)


# ---------------------------------------------------------------------------
# passes and verdicts
# ---------------------------------------------------------------------------


def run_pass(cells, clock, tracer=None):
    """Run every cell once, closed loop.  Returns the pass time (sum of the
    cell times), raw and scaled, and per cell (cell, scaled seconds, output,
    exception, runtime warnings)."""
    records = []
    raw = scaled = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cell in cells:
            clock.refresh()
            if tracer is not None:
                tracer.cell = cell.id
            t0 = perf_counter()
            try:
                out, err = cell.run(), None
            except Exception as exc:  # one bad cell must not end the run
                out, err = None, exc
            t1 = perf_counter()
            clock.refresh()
            n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            caught.clear()
            dt = (t1 - t0) * clock.scale(t0, t1)
            raw += t1 - t0
            scaled += dt
            records.append((cell, dt, out, err, n_warn))
    return raw, scaled, records


def judge(record):
    """(verdict, detail, wrong) where wrong marks a pass the reference
    check contradicts, or an output the check could not read."""
    cell, _, out, err, _ = record
    if err is not None:
        return "error", f"{type(err).__name__}: {err}", False
    try:
        program_ok, reference_ok, detail = cell.check(out)
    except Exception as exc:
        return "fail", f"unreadable output ({type(exc).__name__}: {exc})", True
    if program_ok and reference_ok:
        return "pass", "", False
    return "fail", detail or "the program reported a failure", program_ok


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.wrong = 0

    def add(self, records):
        for rec in records:
            verdict, detail, wrong = judge(rec)
            self.attempted += 1
            self.wrong += wrong
            if verdict != "pass":
                self.failures.append({"cell": rec[0].id, "verdict": verdict, "detail": detail})


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def setup_seconds(workload, seed, clock):
    """Median over fresh interpreters of spawn -> first cell ready, after one
    warm-up start that leaves the bytecode caches written: (raw, scaled)."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        clock.refresh()
        t0 = perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        ready = float(proc.stdout.split()[-1])
        clock.refresh()
        if i:
            raw.append(ready - t0)
            scaled.append(raw[-1] * clock.scale(t0, ready))
    return statistics.median(raw), statistics.median(scaled)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile, with its beta weights in
    their normal approximation: the order statistics weighted by a normal
    kernel centred on rank share p, of width sqrt(p (1 - p) / (n + 2)).
    Cell times come in clusters (by Q, d and P), and a single order
    statistic jumps between clusters when a few cells trade places."""
    ordered = sorted(values)
    n = len(ordered)
    width = math.sqrt(2 * p * (1 - p) / (n + 2))
    cdf = [math.erf((i / n - p) / width) for i in range(n + 1)]
    weights = [b - a for a, b in zip(cdf, cdf[1:])]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(times, slowest):
    """(value, what it is): the highest percentile that one pass's cell list
    has ten cells beyond, estimated over all the run's cells, so that the
    percentile does not move with the number of passes that fit.  With
    fewer than TAIL_MIN_CELLS cells in a pass, the median over passes of
    each pass's slowest cell."""
    per_pass = len(times) // len(slowest)
    if per_pass < TAIL_MIN_CELLS:
        return statistics.median(slowest), "median over passes of the slowest cell"
    p = 1.0 - 10 / per_pass
    return quantile(times, p), f"p{100 * p:.2f}"


def measure(wl, seconds):
    clock = Clock()
    raw_walls, walls, times, slowest, tally = [], [], [], [], Tally()
    fixed = wl.fixed_passes(seconds)
    start = perf_counter()
    while True:
        t0 = perf_counter()
        raw, scaled, records = run_pass(wl.cells(len(walls)), clock)
        raw_walls.append(raw)
        walls.append(scaled)
        times += [rec[1] for rec in records]
        slowest.append(max(rec[1] for rec in records))
        tally.add(records)
        del records  # outputs of one pass must not stay alive through the next
        if fixed is not None:
            if len(walls) == fixed:
                break
        elif perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    raw_setup_s, setup_s = setup_seconds(wl.name, wl.seed, clock)
    tail_s, tail_what = tail(times, slowest)
    values = {
        "wall_s": statistics.median(walls),
        "cell_p50_s": quantile(times, 0.5),
        "cell_tail_s": tail_s,
        "pass_share": 1.0 - len(tally.failures) / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
    notes = {"passes_scaled_s": walls, "passes_raw_s": raw_walls,
             "setup_raw_s": raw_setup_s, "cells": len(times), "cell_tail": tail_what,
             "failed_share": len(tally.failures) / tally.attempted}
    return tally, metrics, notes


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------


def suite_instrumented(cells, mode, sink):
    """Suite cells re-pointed at the in-process launcher; the launcher's
    spans or counts are appended to sink."""
    from workloads import Cell, ChildFailed, Suite, run_child, suite_output

    def make(cell):
        def run():
            rc, out, err = run_child(Suite.instrumented_argv(cell.id, mode))
            if rc != 0:
                raise ChildFailed(f"launcher exit {rc}: {err.strip()[-300:]}")
            res = json.loads(out)
            sink.append(res)
            return suite_output(res["rc"], res["stdout"], res["stderr"])
        return Cell(cell.id, run, cell.check)
    return [make(c) for c in cells]


def merge_spans(summaries):
    out = {}
    for summary in summaries:
        for name, s in summary.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            for key, v in s.items():
                acc[key] += v
    return out


def code_digest():
    """Digest of qsl2r's and this benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsl2r").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def counts_repeat(wl, counts):
    """Counts for the same sources and seed must repeat exactly: compare with
    the file an earlier run left, or leave one for the next run."""
    path = OUT_DIR / f"counts-{wl.name}-seed{wl.seed}-{code_digest()}.json"
    if path.is_file():
        return json.loads(path.read_text()) == counts
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def traced(wl):
    cells = wl.cells(0)
    clock = Clock()
    tally = Tally()
    _, wall_plain, records = run_pass(cells, clock)
    tally.add(records)
    if wl.in_process:
        tracer = Tracer()
        with tracer.active():
            _, wall_traced, records = run_pass(cells, clock, tracer)
        spans, span_records = tracer.summary(), tracer.records()
        n_warn, emitted = sum(rec[4] for rec in records), 0
        tally.add(records)
        counter = OpCounter()
        with counter.active():
            _, _, records = run_pass(cells, clock)
        counts = dict(counter.counts)
    else:
        traced_out, counted_out = [], []
        _, wall_traced, records = run_pass(suite_instrumented(cells, "traced", traced_out),
                                           clock)
        tally.add(records)
        spans = merge_spans(r["spans"] for r in traced_out)
        span_records = [rec for r in traced_out for rec in r["records"]]
        n_warn = sum(r["runtime_warnings"] for r in traced_out)
        emitted = sum(len(r["stdout"].encode()) for r in traced_out)
        _, _, records = run_pass(suite_instrumented(cells, "counted", counted_out), clock)
        counts = dict(sum((Counter(r["counts"]) for r in counted_out), Counter()))
    tally.add(records)

    gaps = coverage_gaps(wl.name, spans, counts)
    if gaps:
        fail(f"no calls recorded on {wl.name} for {', '.join(gaps)}; a wrapper was bypassed")
    repeat_ok = counts_repeat(wl, counts)
    if not repeat_ok:
        print("perfbench: operation counts differ from an earlier run with the same "
              "sources and seed", file=sys.stderr)
        tally.wrong += 1
    (OUT_DIR / f"{wl.name}-seed{wl.seed}-spans.json").write_text(json.dumps(span_records))
    metrics = layer_metrics(spans, counts, wall_traced - wall_plain, n_warn, emitted)
    notes = {"untraced_wall_s": wall_plain, "traced_wall_s": wall_traced,
             "counts_repeat": repeat_ok}
    return tally, metrics, notes


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(SUITE, SWEEP, SYMBOLIC, FRONTIER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    check_checkout()
    limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    if args.setup_probe:
        print(repr(perf_counter()))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    tally, metrics, notes = traced(wl) if args.trace else measure(wl, args.seconds)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "attempted": tally.attempted,
              "failed": len(tally.failures), "wrong": tally.wrong, "notes": notes,
              "metrics": metrics, "failures": tally.failures}
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    err = sys.stderr
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} cells, {len(tally.failures)} failed, "
          f"{tally.wrong} wrong", file=err)
    print(f"environment {json.dumps(report['environment'])}", file=err)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}", file=err)
    for key, val in notes.items():
        print(f"  note {key}: {val}", file=err)
    for f in tally.failures:
        print(f"  {f['verdict']:5s} {f['cell']}: {f['detail']}", file=err)

    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
