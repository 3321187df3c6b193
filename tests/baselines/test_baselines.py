"""Tests for the centralised and DIB-style baselines."""

import pytest

from repro.baselines.central import run_central_simulation
from repro.baselines.dib import run_dib_simulation
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.tree_problem import TreeReplayProblem
from repro.distributed.runner import NetworkConfig
from repro.simulation.failures import CrashEvent


@pytest.fixture(scope="module")
def workload():
    tree = generate_random_tree(
        RandomTreeSpec(nodes=151, mean_node_time=0.05, seed=17, name="baseline-tree")
    )
    problem = TreeReplayProblem(tree, prune=False)
    return tree, problem


def correct(value, tree):
    optimum = tree.optimal_value()
    return value is not None and abs(value - optimum) <= 1e-9 * max(1.0, abs(optimum))


class TestCentralBaseline:
    def test_failure_free_run(self, workload):
        tree, problem = workload
        result = run_central_simulation(problem, 3, seed=1, max_sim_time=500.0)
        assert result.terminated
        assert correct(result.best_value, tree)
        assert result.nodes_expanded >= len(tree) - 1
        assert not result.manager_crashed
        assert result.total_bytes_sent > 0

    def test_worker_crash_recovered_by_manager(self, workload):
        tree, problem = workload
        result = run_central_simulation(
            problem,
            3,
            seed=1,
            failures=[CrashEvent(1.0, "cworker-01")],
            max_sim_time=500.0,
        )
        assert result.terminated
        assert correct(result.best_value, tree)
        assert result.crashed_workers == ["cworker-01"]

    def test_manager_crash_is_fatal(self, workload):
        tree, problem = workload
        result = run_central_simulation(
            problem,
            3,
            seed=1,
            failures=[CrashEvent(1.0, "manager")],
            max_sim_time=15.0,
        )
        assert result.manager_crashed
        assert not result.terminated

    def test_single_worker(self, workload):
        tree, problem = workload
        result = run_central_simulation(problem, 1, seed=2, max_sim_time=500.0)
        assert result.terminated
        assert correct(result.best_value, tree)

    def test_invalid_worker_count(self, workload):
        _tree, problem = workload
        with pytest.raises(ValueError):
            run_central_simulation(problem, 0)


class TestDibBaseline:
    def test_failure_free_run(self, workload):
        tree, problem = workload
        result = run_dib_simulation(problem, 3, seed=1, max_sim_time=500.0)
        assert result.terminated
        assert correct(result.best_value, tree)
        assert result.nodes_expanded >= len(tree) - 1
        assert not result.root_machine_crashed

    def test_worker_crash_recovered_by_responsible_machine(self, workload):
        tree, problem = workload
        result = run_dib_simulation(
            problem,
            3,
            seed=1,
            failures=[CrashEvent(1.0, "dworker-01")],
            max_sim_time=500.0,
            redo_timeout=2.0,
        )
        assert result.terminated
        assert correct(result.best_value, tree)
        assert "dworker-01" in result.crashed_workers

    def test_root_machine_crash_prevents_termination(self, workload):
        """DIB's structural weakness: the responsibility root must survive."""
        tree, problem = workload
        result = run_dib_simulation(
            problem,
            3,
            seed=1,
            failures=[CrashEvent(1.0, "dworker-00")],
            max_sim_time=15.0,
        )
        assert result.root_machine_crashed
        assert not result.terminated

    def test_single_machine(self, workload):
        tree, problem = workload
        result = run_dib_simulation(problem, 1, seed=3, max_sim_time=500.0)
        assert result.terminated
        assert correct(result.best_value, tree)

    def test_invalid_worker_count(self, workload):
        _tree, problem = workload
        with pytest.raises(ValueError):
            run_dib_simulation(problem, 0)


RUNNERS = {"central": run_central_simulation, "dib": run_dib_simulation}


class TestNetworkInput:
    """``network=`` is the baselines' only network input."""

    @pytest.mark.parametrize("keyword", ["latency", "loss_probability"])
    @pytest.mark.parametrize("baseline", sorted(RUNNERS))
    def test_per_field_network_keywords_rejected(self, workload, baseline, keyword):
        _tree, problem = workload
        with pytest.raises(TypeError):
            RUNNERS[baseline](problem, 2, **{keyword: 0.0})

    @pytest.mark.parametrize("baseline", sorted(RUNNERS))
    def test_network_none_is_paper_default(self, workload, baseline):
        tree, problem = workload
        default = RUNNERS[baseline](problem, 3, seed=4, max_sim_time=500.0)
        explicit = RUNNERS[baseline](
            problem, 3, seed=4, max_sim_time=500.0, network=NetworkConfig.paper_default()
        )
        assert default.terminated and explicit.terminated
        assert correct(default.best_value, tree)
        assert default.makespan == explicit.makespan
        assert default.total_bytes_sent == explicit.total_bytes_sent
        assert default.messages_sent == explicit.messages_sent
