"""The trimmed algorithm configuration and the single trace store.

``AlgorithmConfig`` keeps only the knobs the paper names or a benchmark
turns; every other former field is a constant of the worker, and passing it
is an error instead of a silently honoured (or silently ignored) override.
Worker timelines live in the run tracer only.
"""

import dataclasses
import importlib

import pytest

from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.distributed import AlgorithmConfig, run_tree_simulation
from repro.distributed.stats import RunResult
from repro.obs import Tracer
from repro.scenario import Scenario

KNOBS = [
    "report_threshold",
    "report_fanout",
    "report_staleness",
    "table_gossip_interval",
    "delta_gossip",
    "compress_reports",
    "failure_detector",
    "fd_heartbeat_interval",
    "fd_fail_timeout",
    "fd_cleanup_timeout",
    "recovery_failed_threshold",
    "selection_rule",
]

#: Former fields, each with a value of its old type.  ``granularity`` is
#: among them: the knob that scales node times is ``Scenario.granularity``.
REMOVED = {
    "flush_report_when_idle": False,
    "table_gossip_when_idle": False,
    "compress_against_table": True,
    "lb_keep_at_least": 3,
    "lb_donation_max": 8,
    "lb_donation_fraction": 0.25,
    "work_request_timeout": 0.5,
    "idle_poll_interval": 0.2,
    "lb_retry_backoff": 0.2,
    "lb_prefer_shallow": False,
    "fd_fanout": 2,
    "termination_echo": True,
    "recovery_idle_threshold": 1.0,
    "recovery_idle_cost_factor": 5.0,
    "recovery_bootstrap_timeout": 20.0,
    "recovery_strategy": "random",
    "abort_redundant_work": False,
    "send_root_report": False,
    "granularity": 2.0,
    "share_best_solution": False,
    "msg_processing_base": 1e-3,
    "msg_processing_per_byte": 1e-6,
    "msg_send_cost": 1e-3,
    "contraction_cost_per_op": 1e-4,
    "rebuild_cost_per_decision": 1e-4,
}


def test_config_fields_are_the_twelve_knobs():
    assert [f.name for f in dataclasses.fields(AlgorithmConfig)] == KNOBS
    assert len(REMOVED) == 25


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_config_field_rejected(name):
    with pytest.raises(TypeError):
        AlgorithmConfig(**{name: REMOVED[name]})


def test_scenario_has_no_enable_trace():
    with pytest.raises(TypeError):
        Scenario(enable_trace=True)


def test_run_tree_simulation_has_no_enable_trace():
    tree = generate_random_tree(RandomTreeSpec(nodes=15, seed=1, name="t"))
    with pytest.raises(TypeError):
        run_tree_simulation(tree, 2, compute_uniprocessor_time=False, enable_trace=True)


def test_second_trace_store_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.simulation.tracing")
    assert not hasattr(Tracer, "add_timeline")
    assert "trace" not in {f.name for f in dataclasses.fields(RunResult)}
