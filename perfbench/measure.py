"""One measured run in a fresh interpreter; prints one JSON line.

Usage: ``python perfbench/measure.py WORKLOAD WORKLOAD_SEED TRACE OUTDIR SPAWNED_AT``

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` covers interpreter start, imports, the tree
build and the ``Scenario`` construction.  ``TRACE`` 1 installs the layer
wrappers of :mod:`layers` before anything is built.  ``run.py`` starts one of
these per run because reference makespans are cached per process and a
finished run's tries and freed pages stay with it: repeats inside one
process would measure warm state and an RSS that only grows.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> None:
    workload_name, workload_seed, trace, outdir, spawned_at = argv
    from repro.scenario import run_scenario

    from workloads import WORKLOADS, check_output, fingerprint, outcome_metrics

    workload = WORKLOADS[workload_name]
    tracer = None
    if trace == "1":
        from layers import LayerTracer, install

        tracer = LayerTracer()
        install(tracer, outdir)
        run_scenario = tracer.wrap("scenario", "run_scenario", run_scenario)
    tree, scenario = workload.build(int(workload_seed))
    ready = time.monotonic()

    result = run_scenario(scenario, workload.backend)
    wall = time.monotonic() - ready

    rss_kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    nodes = len(tree)
    record = {
        "problems": check_output(scenario, result),
        "fingerprint": fingerprint(result, nodes) if workload.deterministic else None,
        "metrics": {
            "wall_s": wall,
            "setup_s": ready - float(spawned_at),
            "peak_rss_mb": rss_kib / 1024.0,
            **outcome_metrics(result, nodes),
        },
        "per_worker_nodes": {name: w.nodes_expanded for name, w in sorted(result.workers.items())}
        if workload.backend == "realexec" else None,
    }
    if tracer is not None:
        from layers import absorb_workers, layer_metrics

        record["traced_workers"] = absorb_workers(tracer, outdir)
        record["layers"] = layer_metrics(tracer, result, nodes)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
