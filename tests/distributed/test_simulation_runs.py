"""Integration tests: end-to-end simulated runs of the distributed algorithm.

These are the tests that verify the paper's central claims:

* the distributed algorithm computes the same optimum as sequential B&B;
* it terminates (almost-implicit termination detection works);
* it survives message loss, temporary partitions and crash failures up to the
  loss of all processors but one, without affecting the solution.
"""

import pytest

from repro.bnb.knapsack import random_knapsack
from repro.bnb.basic_tree import record_basic_tree
from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.sequential import SequentialSolver
from repro.bnb.tree_problem import TreeReplayProblem
from repro.distributed.config import AlgorithmConfig
from repro.distributed.runner import (
    DistributedBnBSimulation,
    NetworkConfig,
    run_tree_simulation,
    sequential_reference_time,
    worker_names,
)
from repro.obs import TelemetryConfig
from repro.obs.gantt import ascii_gantt, state_intervals
from repro.simulation.failures import CrashEvent
from repro.simulation.network import LatencyModel, Partition


def small_tree(seed=3, nodes=151, mean_time=0.05):
    return generate_random_tree(
        RandomTreeSpec(nodes=nodes, mean_node_time=mean_time, seed=seed, name=f"t{seed}")
    )


def fast_config(**overrides):
    base = dict(selection_rule=SelectionRule.DEPTH_FIRST)
    base.update(overrides)
    return AlgorithmConfig(**base)


class TestBasicRuns:
    def test_single_worker_matches_sequential(self):
        tree = small_tree()
        result = run_tree_simulation(tree, 1, config=fast_config(), seed=1, prune=False)
        assert result.solved_correctly
        assert result.all_terminated
        assert result.best_value == pytest.approx(tree.optimal_value())
        # One worker expands every node exactly once.
        assert result.total_nodes_expanded == len(tree)
        assert result.redundant_nodes_expanded == 0

    @pytest.mark.parametrize("n_workers", [2, 3, 5, 8])
    def test_multi_worker_correctness_and_termination(self, n_workers):
        tree = small_tree(seed=n_workers)
        result = run_tree_simulation(
            tree, n_workers, config=fast_config(), seed=n_workers, prune=False
        )
        assert result.solved_correctly
        assert result.all_terminated
        assert len(result.workers) == n_workers
        assert all(stats.terminated for stats in result.workers.values())

    def test_makespan_improves_with_workers(self):
        tree = small_tree(seed=9, nodes=301)
        uniproc = tree.total_node_time()
        r1 = run_tree_simulation(tree, 1, config=fast_config(), seed=1, prune=False,
                                 uniprocessor_time=uniproc)
        r4 = run_tree_simulation(tree, 4, config=fast_config(), seed=1, prune=False,
                                 uniprocessor_time=uniproc)
        assert r4.makespan < r1.makespan
        assert r4.speedup() > 1.5

    def test_pruned_replay_matches_sequential_best_first(self):
        problem = random_knapsack(10, seed=4)
        tree = record_basic_tree(problem, name="kp")
        reference = SequentialSolver(TreeReplayProblem(tree)).solve()
        result = run_tree_simulation(
            tree, 3, config=AlgorithmConfig(), seed=2, prune=True
        )
        assert result.best_value == pytest.approx(reference.best_value)
        assert result.solved_correctly

    def test_time_accounting_covers_makespan(self):
        tree = small_tree(seed=5)
        result = run_tree_simulation(tree, 4, config=fast_config(), seed=3, prune=False)
        assert result.metrics is not None
        for name, stats in result.workers.items():
            total = sum(stats.time.values())
            terminated_at = stats.terminated_at
            assert terminated_at is not None
            # Each worker's accounted time is close to its lifetime.
            assert total == pytest.approx(terminated_at, rel=0.15, abs=0.5)

    def test_deterministic_given_seed(self):
        tree = small_tree(seed=6)
        a = run_tree_simulation(tree, 3, config=fast_config(), seed=11, prune=False)
        b = run_tree_simulation(tree, 3, config=fast_config(), seed=11, prune=False)
        assert a.makespan == b.makespan
        assert a.total_bytes_sent == b.total_bytes_sent
        assert a.total_nodes_expanded == b.total_nodes_expanded

    def test_hundred_workers_solve_and_terminate(self):
        tree = small_tree(seed=13, nodes=301)
        result = run_tree_simulation(tree, 100, config=fast_config(), seed=1, prune=False)
        assert result.solved_correctly
        assert result.all_terminated
        assert len(result.workers) == 100

    def test_invalid_worker_count(self):
        tree = small_tree()
        with pytest.raises(ValueError):
            DistributedBnBSimulation(TreeReplayProblem(tree), 0)

    def test_worker_names_format(self):
        assert worker_names(3) == ["worker-00", "worker-01", "worker-02"]
        assert worker_names(120)[-1] == "worker-119"

    def test_sequential_reference_time(self):
        tree = small_tree(seed=2)
        assert sequential_reference_time(tree, prune=False) == pytest.approx(tree.total_node_time())
        assert sequential_reference_time(tree, prune=True) <= tree.total_node_time() + 1e-9

    def test_trace_collection(self):
        tree = small_tree(seed=7)
        result = run_tree_simulation(
            tree,
            3,
            config=fast_config(),
            seed=4,
            prune=False,
            telemetry=TelemetryConfig(trace=True, metrics=False),
        )
        intervals = state_intervals(result.telemetry.tracer)
        assert {i.process for i in intervals} == set(result.workers.keys())
        gantt = ascii_gantt(intervals)
        assert "worker-00" in gantt


class TestUnreliableNetwork:
    def test_message_loss_does_not_affect_solution(self):
        tree = small_tree(seed=21)
        network = NetworkConfig(loss_probability=0.25)
        result = run_tree_simulation(
            tree, 4, config=fast_config(), seed=5, prune=False, network=network
        )
        assert result.solved_correctly
        assert result.all_terminated
        assert result.network.messages_lost > 0

    def test_temporary_partition_does_not_affect_solution(self):
        tree = small_tree(seed=22)
        names = worker_names(4)
        partition = Partition(
            start=0.5,
            end=2.5,
            group_a=frozenset(names[:2]),
            group_b=frozenset(names[2:]),
        )
        network = NetworkConfig(partitions=(partition,))
        result = run_tree_simulation(
            tree, 4, config=fast_config(), seed=6, prune=False, network=network
        )
        assert result.solved_correctly
        assert result.all_terminated
        assert result.network.messages_blocked > 0

    def test_slow_network_still_terminates(self):
        tree = small_tree(seed=23)
        network = NetworkConfig(latency=LatencyModel(base=0.05, per_byte=1e-5))
        result = run_tree_simulation(
            tree, 3, config=fast_config(), seed=7, prune=False, network=network
        )
        assert result.solved_correctly


class TestFaultTolerance:
    def test_single_crash_recovered(self):
        tree = small_tree(seed=31)
        baseline = run_tree_simulation(tree, 4, config=fast_config(), seed=8, prune=False)
        result = run_tree_simulation(
            tree,
            4,
            config=fast_config(),
            seed=8,
            prune=False,
            failures=[CrashEvent(0.4 * baseline.makespan, "worker-02")],
        )
        assert result.crashed_workers == ["worker-02"]
        assert result.solved_correctly
        assert result.all_terminated

    def test_two_crash_schedule_reported(self):
        tree = small_tree(seed=17, nodes=201)
        failures = [CrashEvent(0.05, "worker-01"), CrashEvent(0.10, "worker-03")]
        result = run_tree_simulation(
            tree, 6, config=fast_config(), seed=1, prune=False, failures=failures
        )
        assert sorted(result.crashed_workers) == ["worker-01", "worker-03"]
        assert result.solved_correctly
        assert result.all_terminated

    def test_all_but_one_crash_recovered(self):
        """The paper's headline claim: losing all but one resource is survivable."""
        tree = small_tree(seed=32)
        baseline = run_tree_simulation(tree, 4, config=fast_config(), seed=9, prune=False)
        crash_time = 0.5 * baseline.makespan
        victims = worker_names(4)[1:]
        result = run_tree_simulation(
            tree,
            4,
            config=fast_config(),
            seed=9,
            prune=False,
            failures=[CrashEvent(crash_time, victim) for victim in victims],
        )
        assert set(result.crashed_workers) == set(victims)
        assert result.solved_correctly
        assert result.all_terminated
        # The crash forces the survivor to redo lost work, so the makespan is
        # strictly worse than the failure-free run.
        assert result.makespan > baseline.makespan
        survivor = result.workers["worker-00"]
        assert survivor.terminated
        assert survivor.best_value == pytest.approx(tree.optimal_value())

    def test_crash_of_initial_work_holder(self):
        """Crashing the worker that started with the root is also survivable."""
        tree = small_tree(seed=33)
        baseline = run_tree_simulation(tree, 3, config=fast_config(), seed=10, prune=False)
        result = run_tree_simulation(
            tree,
            3,
            config=fast_config(),
            seed=10,
            prune=False,
            failures=[CrashEvent(0.5 * baseline.makespan, "worker-00")],
        )
        assert result.solved_correctly
        assert result.all_terminated

    def test_crash_with_message_loss_combined(self):
        tree = small_tree(seed=34)
        baseline = run_tree_simulation(tree, 4, config=fast_config(), seed=11, prune=False)
        result = run_tree_simulation(
            tree,
            4,
            config=fast_config(),
            seed=11,
            prune=False,
            network=NetworkConfig(loss_probability=0.15),
            failures=[CrashEvent(0.5 * baseline.makespan, "worker-01")],
        )
        assert result.solved_correctly
        assert result.all_terminated

    def test_recovery_statistics_recorded(self):
        tree = small_tree(seed=35)
        baseline = run_tree_simulation(tree, 3, config=fast_config(), seed=12, prune=False)
        victims = worker_names(3)[1:]
        result = run_tree_simulation(
            tree,
            3,
            config=fast_config(),
            seed=12,
            prune=False,
            failures=[CrashEvent(0.4 * baseline.makespan, victim) for victim in victims],
        )
        survivor = result.workers["worker-00"]
        assert result.solved_correctly
        # The survivor must have regenerated at least one lost subproblem
        # (unless, by luck, the victims had already finished everything).
        assert survivor.recovery_activations >= 0
        assert result.telemetry is None  # tracing was not requested

    def test_crash_before_any_work_spreads(self):
        """Crashing workers very early must not wedge the computation."""
        tree = small_tree(seed=36)
        result = run_tree_simulation(
            tree,
            3,
            config=fast_config(),
            seed=13,
            prune=False,
            failures=[CrashEvent(0.01, "worker-01"), CrashEvent(0.02, "worker-02")],
        )
        assert result.solved_correctly
        assert result.all_terminated


class TestAblationFlags:
    def test_uncompressed_reports_still_correct_but_bigger(self):
        tree = small_tree(seed=41, nodes=301)
        compressed = run_tree_simulation(
            tree, 4, config=fast_config(compress_reports=True), seed=14, prune=False
        )
        uncompressed = run_tree_simulation(
            tree, 4, config=fast_config(compress_reports=False), seed=14, prune=False
        )
        assert compressed.solved_correctly and uncompressed.solved_correctly
        assert uncompressed.total_bytes_sent > compressed.total_bytes_sent

    def test_report_threshold_one(self):
        tree = small_tree(seed=43)
        result = run_tree_simulation(
            tree, 3, config=fast_config(report_threshold=1), seed=16, prune=False
        )
        assert result.solved_correctly

    def test_granularity_parameter_scales_makespan(self):
        tree = small_tree(seed=45)
        fine = run_tree_simulation(tree, 2, config=fast_config(), seed=18, prune=False,
                                   granularity=1.0)
        coarse = run_tree_simulation(tree, 2, config=fast_config(), seed=18, prune=False,
                                     granularity=5.0)
        assert coarse.makespan > fine.makespan
        assert coarse.solved_correctly
