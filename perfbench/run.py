"""hopfcyc benchmark: one workload per process, timed end to end, or traced
per module.

    python3 perfbench/run.py --workload {symbolic,cochain,bridge} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``.
The load is a closed loop with one client: the ops of a workload run one
after another in this process, with no threads, as a CLI user waits for
each report.  Passes over the ops repeat until ``--seconds`` is spent; every
op's result is checked against a known answer after its timing stops.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Pass
times are counted in calibration loops (``*_calib``): while a pass runs, a
timer signal times a slice of the ``calib_s`` loop every 50 ms, and each
op's seconds are divided by the loop's mean time during that op.  The host
this was built on switches between two speeds every 0.1 s to 3 s, and the
share of slow time drifts over minutes, so the same pass took 1x to 1.4x
the seconds while its count of loops stayed within a few per cent.  Each
``*_calib`` metric is the median over the passes; the seconds go to the run
record.  A pass of ``symbolic`` or ``bridge`` takes most of a 30-second run,
so those two get one pass per run and their pass metrics are single
samples; ``samples`` in the run record says how many each metric has.
``setup_s`` is the fastest of many fresh set-up processes, half of them
started before the passes and half after.

``--trace 1`` runs one untraced pass and one traced pass, both sampled the
same way, and reports the per-layer metrics.  The last stdout line is the
result object; the line before it is the run record (Python version, nproc,
seed, commit, sample counts, ``calib_s``), which is also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fresh set-up processes before the passes, and again after them; one more
# runs first, untimed, so that a first run in a new checkout does not time
# bytecode compilation.  The set-up cost is fixed and host slow-downs only add
# to it, in bursts of 0.1 s to a few seconds that take up a share of the time
# near one half, so the median of the probes jumps between the fast and the
# slow state; their minimum does not.  Probes at both ends of the run keep one
# burst from covering all of them.
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 120
TRACE_OVERHEAD = "trace.overhead_ratio"
# The calibration loop runs CALIB_ITERATIONS steps; while a pass runs, a
# slice of CALIB_SLICE steps (under 0.5 ms, 1% of the time) is timed every
# SAMPLE_PERIOD_S, often enough to follow the host's changes of speed.
CALIB_ITERATIONS = 15000
CALIB_SLICE = 60
SAMPLE_PERIOD_S = 0.05


def calib_loop(steps: int) -> None:
    """A fixed pure-Python ``Fraction`` loop that calls no hopfcyc code.
    Every step costs the same, so a slice of it times the whole in
    proportion."""
    for i in range(steps):
        x = Fraction(i % 97 + 1, i % 89 + 1) * Fraction(i % 7 + 1, i % 5 + 1) + Fraction(i % 3, 7)
        if x <= 0:
            raise AssertionError("calibration step lost its sign")


def calibrate() -> float:
    """Seconds for the whole calibration loop.  Timed before and after every
    run, it shows host-speed drift between runs."""
    t0 = time.perf_counter()
    calib_loop(CALIB_ITERATIONS)
    return time.perf_counter() - t0


class CalibSampler:
    """While active, times a slice of the calibration loop every
    SAMPLE_PERIOD_S from a SIGALRM handler, and keeps each slice's time
    scaled to the whole loop.  The handler runs between bytecodes of the
    program's own thread, so the slices sample the speed the program gets."""

    def __init__(self):
        self.samples: list[float] = []
        self._old_handler = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calib_loop(CALIB_SLICE)
        self.samples.append((time.perf_counter() - t0) * CALIB_ITERATIONS / CALIB_SLICE)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)


def measure_setup(workload: str, seed: int, warm_up: bool) -> list[float]:
    """Seconds from process start to the first op (interpreter start, the
    hopfcyc import, input generation), once per fresh probe process."""
    samples = []
    for k in range(SETUP_PROBES + warm_up):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise workloads.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        # perf_counter is CLOCK_MONOTONIC, shared by both processes
        ready = float(proc.stdout.split()[-1])
        if k or not warm_up:
            samples.append(ready - t0)
    return samples


def run_pass(ops, trace: tracer.Tracer | None = None) -> dict:
    """One pass over the ops, sampled by a CalibSampler.  Only ``op.run`` is
    timed; a raise or a failed check counts as a failed op and the pass goes
    on."""
    op_s, op_cpu_s, op_samples, failures = {}, {}, {}, []
    with CalibSampler() as sampler:
        for op in ops:
            gc.collect()
            span = trace.span(f"cli.{op.name}") if trace else contextlib.nullcontext()
            res, err = None, None
            first = len(sampler.samples)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with span:
                    res = op.run()
            except Exception as e:  # an op that raises is a failed op, not a crash
                err = f"raised {type(e).__name__}: {e}"
            op_s[op.name] = time.perf_counter() - w0
            op_cpu_s[op.name] = time.process_time() - c0
            op_samples[op.name] = sampler.samples[first:]
            if err is None:
                try:
                    err = op.check(res)
                except Exception as e:
                    err = f"check raised {type(e).__name__}: {e}"
            if err is not None:
                failures.append(f"{op.name}: {err}")
            del res
    # an op too short to be sampled is counted at the pass's mean loop time,
    # and a pass too short to be sampled at a whole loop's time after it
    pass_calib = statistics.mean([x for xs in op_samples.values() for x in xs] or [calibrate()])
    loop_s = {name: statistics.mean(xs) if xs else pass_calib for name, xs in op_samples.items()}
    op_calib = {name: op_s[name] / loop_s[name] for name in op_s}
    return {
        "wall_calib": sum(op_calib.values()),
        "cpu_calib": sum(op_cpu_s[name] / loop_s[name] for name in op_s),
        "max_op_calib": max(op_calib.values()),
        "wall_s": sum(op_s.values()),
        "cpu_s": sum(op_cpu_s.values()),
        "max_op_s": max(op_s.values()),
        "calib_s": pass_calib,
        "calib_samples": sum(map(len, op_samples.values())),
        "op_s": op_s,
        "op_calib": op_calib,
        "failures": failures,
    }


def git_commit() -> str | None:
    """The checked-out commit, or None if the checkout is no git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


# Pass metrics counted in calibration loops, and the same in seconds, which
# go to the run record only.
PASS_METRICS = ("wall_calib", "cpu_calib", "max_op_calib")
PASS_SECONDS = ("wall_s", "cpu_s", "max_op_s")


def end_to_end(args, ops, record) -> dict:
    setup = measure_setup(args.workload, args.seed, warm_up=True)
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_pass(ops))
        pass_s = time.perf_counter() - t
        # stop before a pass that would end past --seconds (always one pass)
        if time.perf_counter() - start + pass_s > args.seconds:
            break
    setup += measure_setup(args.workload, args.seed, warm_up=False)
    record["setup_samples_s"] = setup
    values = {name: statistics.median(p[name] for p in passes) for name in PASS_METRICS}
    # ru_maxrss is in KiB on Linux
    values.update(setup_s=min(setup), peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    record["pass_medians"] = {name: statistics.median(p[name] for p in passes) for name in PASS_SECONDS}
    record["samples"] = {name: len(passes) for name in PASS_METRICS + PASS_SECONDS}
    record["samples"].update(setup_s=len(setup), peak_rss_mb=1)
    record["passes"] = passes
    return values


def traced(args, ops, record) -> dict:
    base = run_pass(ops)
    with tracer.Tracer() as tr:
        traced_pass = run_pass(ops, tr)
    totals = tr.totals()
    counters = {f"{tracer.RREF}.cells": tr.rref_cells, f"{tracer.RREF}.nnz": tr.rref_nnz}
    values = {}
    for name in tracer.layer_metric_names(workloads.op_names()):
        fn, key = name.rsplit(".", 1)
        if name in counters:
            values[name] = counters[name]
        elif fn.startswith("cli."):
            values[name] = traced_pass["op_s"].get(fn[4:], 0.0)
        else:
            values[name] = totals.get(fn, tracer.NO_CALLS)[key]
    values[TRACE_OVERHEAD] = traced_pass["wall_calib"] / base["wall_calib"]
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.gz"
    tr.write_spans(spans)
    record["samples"] = {name: 1 for name in values}
    record["spans"] = {"count": len(tr.span_name), "file": str(spans.relative_to(ROOT))}
    record["passes"] = [base, traced_pass]
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    try:
        declared = declared_metrics(bool(args.trace))
        workloads.import_program()
    except (OSError, KeyError, json.JSONDecodeError, workloads.SetupError) as e:
        print(f"perfbench: cannot set up: {e}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
    OUT.mkdir(exist_ok=True)
    calib = [calibrate()]
    ops = workloads.build(args.workload, args.seed)
    try:
        values = (traced if args.trace else end_to_end)(args, ops, record)
    except workloads.SetupError as e:
        print(f"perfbench: cannot set up: {e}", file=sys.stderr)
        return 2
    calib.append(calibrate())
    record["calib_s"] = statistics.median(calib)
    record["calib_samples_s"] = calib

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: BENCHMARK.json names metrics this run lacks: {missing}", file=sys.stderr)
        return 2
    passes = record["passes"]
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    record["ops_failed_ratio"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
