"""CHURN — the work-vs-faults gate under live churn.

The churn machinery (live heartbeat failure detection, restart-mode rejoin
through gossip first contact) must make worker departures *survivable*, not
free: a leave→return cycle costs the redone subtree of the departed worker
plus the detector's heartbeat traffic, and nothing else.  This benchmark
runs the same seeded workload twice — failure-free and with one worker
leaving and returning mid-run — with identical detector settings, then gates
the churn run on the Dwork/Halpern/Waarts work accounting:

* both runs terminate on the true optimum;
* the churned run expands at most ``WORK_FACTOR ×`` the clean run's nodes
  (redone work is bounded by what one worker can lose);
* the rejoin really took the bounded first-contact path (one rejoin, zero
  whole-table snapshots anywhere in the run).

The timing of the churned run is tracked against
``benchmarks/BENCH_BASELINE.json`` by ``compare_baseline.py``, so a PR that
fattens the failure-detector or rejoin paths shows up on the regression
trajectory alongside the other hot-path benchmarks.
"""

import pytest

from _harness import effective_scale, print_experiment
from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.distributed import AlgorithmConfig, run_tree_simulation

#: The churned run may expand at most this multiple of the clean run's
#: nodes: one departed worker can lose (and force the redo of) its own
#: share of the tree, not the whole tree over again.
WORK_FACTOR = 1.6
N_WORKERS = 4
#: worker-02 leaves at 0.3 s and returns at 1.2 s (simulated time); the
#: runner holds termination open until the return has played out.
CHURN_EVENTS = ((0.3, "worker-02", "leave"), (1.2, "worker-02", "return"))


def _config() -> AlgorithmConfig:
    return AlgorithmConfig(
        selection_rule=SelectionRule.DEPTH_FIRST,
        failure_detector=True,
        fd_heartbeat_interval=0.1,
        fd_fail_timeout=0.4,
        fd_cleanup_timeout=0.8,
    )


@pytest.mark.benchmark(group="churn")
def test_churn_work_vs_faults(benchmark):
    scale = effective_scale(1.0)
    nodes = max(61, int(301 * scale))
    tree = generate_random_tree(
        RandomTreeSpec(nodes=nodes, mean_node_time=0.01, seed=13, name="churn-bench")
    )

    def clean():
        return run_tree_simulation(
            tree, N_WORKERS, config=_config(), seed=13, prune=False,
            compute_uniprocessor_time=False,
        )

    def churned():
        return run_tree_simulation(
            tree, N_WORKERS, config=_config(), seed=13, prune=False,
            compute_uniprocessor_time=False,
            churn_events=CHURN_EVENTS, churn_mode="restart",
        )

    clean_result = clean()
    churn_result = benchmark.pedantic(churned, rounds=1, iterations=1)

    work_ratio = churn_result.total_nodes_expanded / clean_result.total_nodes_expanded
    rejoiner = churn_result.workers["worker-02"]
    print_experiment(
        f"CHURN WORK-VS-FAULTS — random tree ({nodes} nodes, {N_WORKERS} workers, "
        f"scale={scale:g})",
        f"clean run     : {clean_result.total_nodes_expanded:5d} nodes, "
        f"makespan {clean_result.makespan:6.3f} s\n"
        f"churned run   : {churn_result.total_nodes_expanded:5d} nodes, "
        f"makespan {churn_result.makespan:6.3f} s\n"
        f"work ratio    : {work_ratio:.3f}x  (gate: <{WORK_FACTOR:g}x)\n"
        f"rejoins       : {rejoiner.rejoins}, unavailable "
        f"{rejoiner.unavailable_time:.2f} s, whole-table snapshots "
        f"{sum(s.table_gossips_sent for s in churn_result.workers.values())}",
    )

    # Correctness first: churn must never cost the answer.
    assert clean_result.solved_correctly and clean_result.all_terminated
    assert churn_result.solved_correctly and churn_result.all_terminated
    assert churn_result.best_value == pytest.approx(clean_result.best_value)
    # The churn actually happened and took the bounded rejoin path.
    assert rejoiner.leaves == 1 and rejoiner.rejoins == 1
    assert sum(s.table_gossips_sent for s in churn_result.workers.values()) == 0
    # The gate: bounded redone work.
    assert churn_result.total_nodes_expanded >= clean_result.total_nodes_expanded
    assert work_ratio < WORK_FACTOR, (
        f"churn work ratio {work_ratio:.3f}x exceeds the {WORK_FACTOR:g}x gate"
    )
