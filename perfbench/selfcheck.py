"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py

Every run lasts ``run_seconds`` of BENCHMARK.json.

1. Runs every workload traced twice with seed 1, and requires every
   count (``.calls``, ``linalg.rref.cells``, ``linalg.rref.nnz``) to repeat
   exactly.  Reports the tracing overhead of each run.
2. Runs ``symbolic`` untraced on seeds 1, 2, 3 and reports the spread of
   ``wall_calib`` as (max − min) / median, so that a claim measured on a
   held-out seed can be judged against it.  Host noise is part of that spread; the
   spread of the seeded round-trip ops alone, over the same median, is the
   part the seed can cause.
3. Checks that the per-layer metrics of BENCHMARK.json are exactly those
   the tracer defines, and that ``layer_map.json`` names only metrics and
   workloads that BENCHMARK.json declares.

Writes ``perfbench/out/selfcheck.json``; exits 1 if a count differs, a run
fails, or the layer map names an unknown metric.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".cells", ".nnz")
SEEDS = (1, 2, 3)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {proc.stderr.strip()}")
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {result['failed']} ops failed")
    return {k: v["value"] for k, v in result["metrics"].items()}, json.loads(record_line)["run_record"]


def check_declared(spec: dict) -> list[str]:
    workloads.import_program()
    defined = tracer.layer_metric_names(workloads.op_names()) + [run.TRACE_OVERHEAD]
    declared = [m["name"] for m in spec["per_layer"]]
    if declared == defined:
        return []
    return [f"per_layer of BENCHMARK.json differs from the tracer's metrics: "
            f"{sorted(set(declared) ^ set(defined)) or 'order'}"]


def check_layer_map(spec: dict) -> list[str]:
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = {w["name"] for w in spec["workloads"]}
    problems = []
    for row in layer_map:
        for m in row["layer_metrics"] + row["moves"]:
            if m not in metrics:
                problems.append(f"unknown metric {m}")
        for w in row["on"] + row["flat_on"]:
            if w not in names:
                problems.append(f"unknown workload {w}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"counts": {}, "trace_overhead": {}, "problems": check_declared(spec) + check_layer_map(spec)}

    for w in (w["name"] for w in spec["workloads"]):
        runs = [bench(w, SEEDS[0], seconds, trace=1)[0] for _ in range(2)]
        counts = [{k: v for k, v in r.items() if k.endswith(COUNT_SUFFIXES)} for r in runs]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        report["counts"][w] = {"compared": len(counts[0]), "differ": differ}
        report["trace_overhead"][w] = [r[run.TRACE_OVERHEAD] for r in runs]
        report["problems"] += [f"{w}: count {k} differs between runs" for k in differ]
        print(f"{w}: {len(counts[0])} counts, {len(differ)} differ; "
              f"overhead {', '.join(f'{x:.3f}' for x in report['trace_overhead'][w])}", flush=True)

    runs = {s: bench("symbolic", s, seconds, trace=0) for s in SEEDS}
    walls = {s: m["wall_calib"] for s, (m, _) in runs.items()}
    # the seed only changes the round-trip ops; their time bounds its effect
    seeded = {
        s: sum(t for op, t in rec["passes"][0]["op_calib"].items() if op.startswith("roundtrip-"))
        for s, (_, rec) in runs.items()
    }
    med = statistics.median(walls.values())
    report["symbolic_seed_wall_calib"] = walls
    report["symbolic_seed_spread"] = (max(walls.values()) - min(walls.values())) / med
    report["symbolic_seeded_ops_calib"] = seeded
    report["symbolic_seeded_ops_spread"] = (max(seeded.values()) - min(seeded.values())) / med
    print(
        f"symbolic wall_calib by seed {walls}: spread {report['symbolic_seed_spread']:.3f} of the median; "
        f"seeded ops {seeded}: spread {report['symbolic_seeded_ops_spread']:.4f} of the median wall_calib"
    )

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "selfcheck.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for problem in report["problems"]:
        print(f"selfcheck: {problem}", file=sys.stderr)
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
