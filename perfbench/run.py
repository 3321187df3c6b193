"""The repository benchmark: one workload, measured for a fixed time.

Usage::

    python3 perfbench/run.py --workload sim-idle-gossip --seed 1 --seconds 50 --trace 0

Run it from the repository root.  Each measured run is a fresh interpreter
(``measure.py``) started again and again until ``--seconds`` is used up (at
least ``MIN_RUNS`` runs).  Every run's output is checked; the report prints
every run, then per metric its median, min, max and sample count, and ends
with one JSON line::

    {"correct": ..., "attempted": runs, "failed": runs failing the check,
     "metrics": {name: {"value": median, "unit": unit}}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced runs with runs under the layer wrappers of
``layers.py`` and reports its per-layer metrics, ``trace_overhead_frac``
among them.

``--seed`` is the repetition seed.  It sets ``PYTHONHASHSEED`` in every
interpreter the run starts and changes no input: the schedule must not
depend on it, and the fingerprint check holds every seed to that.
``--workload-seed`` picks the inputs (see ``workloads.py``); its default, 0,
is the input set the benchmark was sized on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fewest measured runs per invocation, whatever ``--seconds`` says; a
#: traced invocation alternates, so it needs two of each.
MIN_RUNS = 3
MIN_RUNS_TRACED = 4
#: One measured run may not take longer than this.
RUN_TIMEOUT_S = 120


def measure_once(workload: str, workload_seed: int, trace: bool, outdir: str, env) -> dict:
    """Start ``measure.py`` in a fresh interpreter and return its record."""
    command = [sys.executable, str(HERE / "measure.py"), workload, str(workload_seed),
               "1" if trace else "0", outdir]
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        command + [repr(spawned_at)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise SystemExit(f"{workload}: a run took longer than {RUN_TIMEOUT_S} s")
    finally:
        # Real workers are the run's children; none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise SystemExit(f"{workload}: measured run exited with code {process.returncode}")
    record = json.loads(stdout.strip().splitlines()[-1])
    record["traced"] = trace
    record["duration_s"] = time.monotonic() - spawned_at
    return record


def print_runs(runs, columns) -> None:
    print(f"{'run':>3} {'mode':>8} " + " ".join(f"{m:>14}" for m in columns) + "  check")
    for index, run in enumerate(runs):
        cells = " ".join(f"{run['metrics'][m]:>14.6g}" for m in columns)
        mode = "traced" if run["traced"] else "untraced"
        print(f"{index:>3} {mode:>8} {cells}  {'; '.join(run['problems']) or 'ok'}")
        if run["per_worker_nodes"] is not None:
            print(f"{'':>12} nodes expanded per worker: {run['per_worker_nodes']}")


def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':<38} {'unit':>9} {'median':>14} {'min':>14} {'max':>14} {'n':>3}")
    for name, unit, values in rows:
        print(f"  {name:<38} {unit:>9} {statistics.median(values):>14.6g} "
              f"{min(values):>14.6g} {max(values):>14.6g} {len(values):>3}")


def fingerprint_problems(runs) -> list:
    """A deterministic workload must repeat its schedule on every run."""
    prints = [run["fingerprint"] for run in runs if run["fingerprint"] is not None]
    if not prints:
        return []
    for name, value in prints[0].items():
        print(f"  fingerprint {name}: {value!r}")
    distinct = {json.dumps(p, sort_keys=True) for p in prints}
    if len(distinct) > 1:
        return [f"FLAG: schedule fingerprint differs across runs: {sorted(distinct)}"]
    print(f"  fingerprint repeats exactly across {len(prints)} runs")
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="repetition seed (PYTHONHASHSEED)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="input seed; 0 is the set the benchmark was sized on")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(ROOT / "src")])
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")

    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    runs = []
    min_runs = MIN_RUNS_TRACED if args.trace else MIN_RUNS
    started = time.monotonic()
    try:
        while True:
            trace = bool(args.trace) and len(runs) % 2 == 1
            runs.append(measure_once(args.workload, args.workload_seed, trace, outdir, env))
            elapsed = time.monotonic() - started
            typical = statistics.median(run["duration_s"] for run in runs)
            if len(runs) >= min_runs and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    print(f"workload {args.workload}  workload-seed {args.workload_seed}  "
          f"seed {args.seed}  {len(runs)} runs in {time.monotonic() - started:.1f} s")
    print_runs(runs, end_to_end)
    untraced = [run for run in runs if not run["traced"]]
    traced = [run for run in runs if run["traced"]]
    failed = sum(1 for run in runs if run["problems"])
    problems = fingerprint_problems(runs)

    rows = [(name, unit, [run["metrics"][name] for run in untraced])
            for name, unit in end_to_end.items()]
    print_table("end-to-end (untraced runs)", rows + [("failed_frac", "share", [failed / len(runs)])])
    if traced:
        wall = {mode: statistics.median(r["metrics"]["wall_s"] for r in group)
                for mode, group in (("traced", traced), ("untraced", untraced))}
        for run in traced:
            run["layers"]["trace_overhead_frac"] = wall["traced"] / wall["untraced"] - 1.0
            if run["traced_workers"] < len(run["per_worker_nodes"] or ()):
                problems.append(f"only {run['traced_workers']} worker timing dumps were written")
        rows = [(name, unit, [run["layers"][name] for run in traced])
                for name, unit in per_layer.items()]
        print_table("per layer (traced runs)", rows)
    for problem in problems:
        print(problem)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, unit, values in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
