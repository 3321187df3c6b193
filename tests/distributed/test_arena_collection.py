"""Schedule parity of arena collection in the simulated runner.

The runner collects the shared completion-trie arena between events.  The
arena only ever changes the cost of table operations, never their results,
so a run that collects many times must be the same run as one that never
collects: same events, messages, makespan, work and bytes, worker by
worker.  The floor is lowered so that these small runs collect repeatedly.
"""

import pytest

import repro.distributed.runner as runner
from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.core.codeset import CodeSet
from repro.distributed.config import AlgorithmConfig
from repro.distributed.runner import run_tree_simulation
from repro.simulation.failures import CrashEvent

_NEVER = 10**9
_CHURN = [
    (0.3, "worker-02", "leave"),
    (1.2, "worker-02", "return"),
    (0.5, "worker-04", "leave"),
    (1.6, "worker-04", "return"),
]
_ARENA_COUNTERS = ("arena_collections", "arena_nodes_reclaimed", "arena_peak_nodes")


def _tree(seed):
    return generate_random_tree(
        RandomTreeSpec(nodes=201, mean_node_time=0.02, seed=seed, name="collect-tree")
    )


def _fd_config(**overrides):
    return AlgorithmConfig(
        selection_rule=SelectionRule.DEPTH_FIRST,
        failure_detector=True,
        fd_heartbeat_interval=0.1,
        fd_fail_timeout=0.4,
        fd_cleanup_timeout=0.8,
        **overrides,
    )


def _run(monkeypatch, floor, **kwargs):
    monkeypatch.setattr(runner, "_ARENA_COLLECT_FLOOR", floor)
    return run_tree_simulation(prune=False, compute_uniprocessor_time=False, **kwargs)


def _schedule(result):
    counters = {
        k: v for k, v in result.engine_counters.items() if k not in _ARENA_COUNTERS
    }
    return {
        "engine": counters,
        "makespan": result.makespan,
        "messages": dict(result.messages_by_kind),
        "bytes": result.total_bytes_sent,
        "bytes_by_kind": dict(result.bytes_by_kind),
        "expanded": result.total_nodes_expanded,
        "redundant": result.redundant_nodes_expanded,
        "workers": {name: stats.as_dict() for name, stats in result.workers.items()},
    }


def _assert_parity(monkeypatch, floor=32, **kwargs):
    collected = _run(monkeypatch, floor, **kwargs)
    plain = _run(monkeypatch, _NEVER, **kwargs)
    assert collected.engine_counters["arena_collections"] >= 3
    assert collected.engine_counters["arena_nodes_reclaimed"] > 0
    assert plain.engine_counters["arena_collections"] == 0
    assert plain.engine_counters["arena_nodes_reclaimed"] == 0
    # A collected arena never peaks above the uncollected one.
    assert (
        collected.engine_counters["arena_peak_nodes"]
        <= plain.engine_counters["arena_peak_nodes"]
    )
    assert collected.solved_correctly and collected.all_terminated
    assert _schedule(collected) == _schedule(plain)
    return collected


class TestCollectionScheduleParity:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_config_with_crashes(self, monkeypatch, seed):
        _assert_parity(
            monkeypatch,
            tree=_tree(10 + seed),
            n_workers=6,
            seed=seed,
            failures=[CrashEvent(time=0.4, entity="worker-02")],
        )

    def test_whole_table_snapshots_in_flight(self, monkeypatch):
        # Without delta gossip, table gossip ships frozen dict views of the
        # sender's table.  Those ride through collections unremapped, and a
        # restarted (empty) receiver adopts one wholesale, reading its arena
        # id: the view must re-derive that id after the epoch bump.
        stale_reads = []
        sync = CodeSet._arena_sync

        def counting_sync(codes):
            if codes._aepoch != codes._arena.epoch:
                stale_reads.append(codes)
            return sync(codes)

        monkeypatch.setattr(CodeSet, "_arena_sync", counting_sync)
        result = _assert_parity(
            monkeypatch,
            tree=_tree(31),
            n_workers=6,
            seed=1,
            config=_fd_config(delta_gossip=False),
            churn_events=_CHURN,
            churn_mode="restart",
            floor=16,
        )
        assert result.messages_by_kind["table_gossips"] > 0
        assert stale_reads, "no stale frozen view was read; the case lost its point"

    def test_restart_churn_with_rejoins(self, monkeypatch):
        result = _assert_parity(
            monkeypatch,
            tree=_tree(31),
            n_workers=5,
            seed=4,
            config=_fd_config(),
            churn_events=_CHURN,
            churn_mode="restart",
        )
        assert result.workers["worker-02"].rejoins == 1
        assert result.workers["worker-04"].rejoins == 1
