"""Edge-case tests for the run orchestration layer."""

import pytest

from repro.bnb.knapsack import random_knapsack
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.pool import SelectionRule
from repro.distributed.config import AlgorithmConfig
from repro.distributed.runner import (
    DistributedBnBSimulation,
    NetworkConfig,
    run_tree_simulation,
)
from repro.simulation.network import LatencyModel


def small_tree(seed=51):
    return generate_random_tree(
        RandomTreeSpec(nodes=101, mean_node_time=0.02, seed=seed, name="runner-tree")
    )


class TestRunnerConstruction:
    def test_network_config_paper_default(self):
        config = NetworkConfig.paper_default()
        assert config.latency.base == pytest.approx(0.0015)
        assert config.loss_probability == 0.0
        assert config.partitions == ()

    def test_simulation_on_a_direct_problem(self):
        """The runner also accepts non-replay problems (e.g. knapsack directly)."""
        problem = random_knapsack(8, seed=2)
        sim = DistributedBnBSimulation(
            problem,
            3,
            config=AlgorithmConfig(),
            seed=4,
            reference_optimum=problem.solve_exact(),
        )
        result = sim.run()
        assert result.all_terminated
        assert result.best_value == pytest.approx(problem.solve_exact(), abs=1e-6)

    def test_build_is_idempotent_entry_point(self):
        tree = small_tree()
        from repro.bnb.tree_problem import TreeReplayProblem

        sim = DistributedBnBSimulation(TreeReplayProblem(tree, prune=False), 2,
                                       config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST))
        sim.build()
        assert len(sim.workers) == 2
        result = sim.run()  # run() must not rebuild and lose the workers
        assert result.n_workers == 2
        assert result.all_terminated

    def test_max_events_cap_stops_early(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree,
            2,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            max_events=50,
        )
        # The run was cut short: not everyone terminated, and the result says so.
        assert not result.all_terminated

    def test_max_sim_time_cap(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree,
            2,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            max_sim_time=0.05,
        )
        assert result.makespan <= 0.05 + 1e-9
        assert not result.all_terminated

    def test_explicit_uniprocessor_time_skips_reference_solve(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree,
            2,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            uniprocessor_time=123.0,
        )
        assert result.uniprocessor_time == 123.0

    def test_disable_reference_computation(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree,
            2,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            compute_uniprocessor_time=False,
        )
        assert result.uniprocessor_time is None
        assert result.speedup() is None

    def test_custom_latency_model_is_used(self):
        tree = small_tree()
        slow = run_tree_simulation(
            tree,
            3,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=2,
            prune=False,
            network=NetworkConfig(latency=LatencyModel(base=0.02, per_byte=1e-5)),
        )
        fast = run_tree_simulation(
            tree,
            3,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=2,
            prune=False,
        )
        # Both configurations must stay correct; with such a small workload the
        # interleaving noise can outweigh the latency difference, so we only
        # check that the runs are not byte-identical (the model was applied).
        assert slow.solved_correctly and fast.solved_correctly
        assert (slow.makespan, slow.total_bytes_sent) != (fast.makespan, fast.total_bytes_sent)

    def test_zero_base_latency_solves(self):
        result = run_tree_simulation(
            small_tree(),
            2,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            compute_uniprocessor_time=False,
            network=NetworkConfig(latency=LatencyModel(base=0.0, per_byte=0.0)),
        )
        assert result.all_terminated
        assert result.solved_correctly

    def test_engine_counters_exposed(self):
        result = run_tree_simulation(
            small_tree(),
            4,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            compute_uniprocessor_time=False,
        )
        counters = result.engine_counters
        assert counters["events_processed"] > 0
        assert counters["peak_heap_len"] > 0
        assert counters["entity_steps"] > 0

    def test_engine_counters_are_the_single_engine_set(self):
        result = run_tree_simulation(
            small_tree(),
            4,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            compute_uniprocessor_time=False,
        )
        assert set(result.engine_counters) == {
            "events_processed",
            "peak_heap_len",
            "compactions",
            "entity_steps",
        }

    def test_engine_counters_deterministic_given_seed(self):
        def once():
            return run_tree_simulation(
                small_tree(),
                4,
                config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
                seed=5,
                prune=False,
                compute_uniprocessor_time=False,
            )

        a, b = once(), once()
        assert a.engine_counters == b.engine_counters
        assert a.makespan == b.makespan
        assert a.total_bytes_sent == b.total_bytes_sent

    @pytest.mark.parametrize(
        "keyword, value", [("shards", 2), ("shard_processes", True), ("use_arena", False)]
    )
    def test_removed_engine_keywords_rejected(self, keyword, value):
        with pytest.raises(TypeError):
            run_tree_simulation(
                small_tree(), 2, compute_uniprocessor_time=False, **{keyword: value}
            )

    def test_simulation_has_no_arena_switch(self):
        from repro.bnb.tree_problem import TreeReplayProblem

        with pytest.raises(TypeError):
            DistributedBnBSimulation(
                TreeReplayProblem(small_tree(), prune=False), 2, use_arena=False
            )

    def test_workers_share_one_arena(self):
        from repro.bnb.tree_problem import TreeReplayProblem
        from repro.core.arena import TrieArena

        tree = small_tree()
        sim = DistributedBnBSimulation(TreeReplayProblem(tree, prune=False), 3)
        sim.build()
        arenas = {id(worker.tracker.arena) for worker in sim.workers}
        assert len(arenas) == 1
        assert isinstance(sim.workers[0].tracker.arena, TrieArena)
        result = sim.run()
        assert result.all_terminated
        assert result.best_value == pytest.approx(tree.optimal_value())

    def test_messages_by_kind_counts(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree, 3, config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=3, prune=False,
        )
        kinds = result.messages_by_kind
        assert kinds["work_reports"] > 0
        assert kinds["work_requests"] >= 0
        assert set(kinds) == {
            "work_requests",
            "work_grants",
            "work_denials",
            "work_reports",
            "table_gossips",
            "delta_gossips",
            "gossip_acks",
            "heartbeats",
        }
        # Per-kind byte accounting covers every message the run injected.
        assert sum(result.bytes_by_kind.values()) == result.total_bytes_sent
