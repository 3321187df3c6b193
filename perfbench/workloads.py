"""The benchmark's workloads, its output check and its end-to-end metrics.

Each workload is a :class:`repro.scenario.Scenario` built from a *workload
seed*.  Workload seed 0 reproduces the sizing runs the workloads were chosen
from (tree seed 42 / run seed 3 for ``sim-idle-gossip``, 7 / 5 for
``sim-crash-churn``, 7 / 0 for ``real-tcp``); seed ``n`` adds ``n`` to every
tree seed and run seed (the churn draws follow the run seed), so a claim can
be rechecked on inputs it was not tuned on.

Why each workload exists is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bnb.basic_tree import BasicTree
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.scenario import ChurnSpec, FailureSpec, Scenario, ScenarioResult, WorkloadSpec


@dataclass(frozen=True)
class Workload:
    """One named workload: the backend it runs on and how to build it."""

    name: str
    backend: str
    #: Builds ``(tree, scenario)`` from a workload seed.  The tree is built
    #: here, outside ``run_scenario``, so that ``wall_s`` excludes it.
    build: Callable[[int], Tuple[BasicTree, Scenario]]

    @property
    def deterministic(self) -> bool:
        """Simulated runs repeat their schedule exactly; real processes do not."""
        return self.backend == "simulated"


def _random_tree(nodes: int, mean_node_time: float, seed: int) -> BasicTree:
    return generate_random_tree(
        RandomTreeSpec(
            nodes=nodes,
            mean_node_time=mean_node_time,
            seed=seed,
            name=f"random-{nodes}n-s{seed}",
        )
    )


def _prebuilt(tree: BasicTree) -> WorkloadSpec:
    return WorkloadSpec(kind="tree", tree=tree, name=tree.name)


def _idle_gossip(seed: int) -> Tuple[BasicTree, Scenario]:
    # The bench_scale.py tier at 40%: 400 workers racing 801 nodes, so most
    # workers starve and the time goes to gossip, merges and the event heap.
    tree = _random_tree(801, 0.05, 42 + seed)
    return tree, Scenario(
        name="sim-idle-gossip",
        workload=_prebuilt(tree),
        n_workers=400,
        seed=3 + seed,
        prune=False,
    )


#: Workers 1-8 crash at simulated t=3.0 in ``sim-crash-churn``.
_CHURN_VICTIMS = tuple(range(1, 9))


def _crash_churn(seed: int) -> Tuple[BasicTree, Scenario]:
    # ``at_time`` (not ``at_fraction``) so the backend runs no hidden
    # failure-free reference run inside the timed call.
    tree = _random_tree(20_001, 0.01, 7 + seed)
    return tree, Scenario(
        name="sim-crash-churn",
        workload=_prebuilt(tree),
        n_workers=16,
        seed=5 + seed,
        prune=False,
        failures=(FailureSpec(victims=_CHURN_VICTIMS, at_time=3.0),),
        churn=ChurnSpec(
            spare=(0,) + _CHURN_VICTIMS,
            mean_uptime=4.0,
            mean_downtime=1.0,
            start_after=1.0,
            horizon=12.0,
            speed_range=(0.6, 1.4),
        ),
    )


def _real_tcp(seed: int) -> Tuple[BasicTree, Scenario]:
    tree = _random_tree(60_001, 0.01, 7 + seed)
    return tree, Scenario(
        name="real-tcp",
        workload=_prebuilt(tree),
        n_workers=2,
        seed=seed,
        prune=False,
        transport="tcp",
        node_sleep=0.0,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sim-idle-gossip", "simulated", _idle_gossip),
        Workload("sim-crash-churn", "simulated", _crash_churn),
        Workload("real-tcp", "realexec", _real_tcp),
    )
}


def surviving_outcomes_missing(result: ScenarioResult) -> int:
    """Surviving realexec workers whose outcome never reached the driver."""
    if result.backend != "realexec":
        return 0
    raw = result.raw
    departed = set(raw.killed) | set(raw.churned_out)
    survivors = result.n_workers - len(departed)
    return survivors - len([n for n in raw.outcomes if n not in departed])


def check_output(scenario: Scenario, result: ScenarioResult) -> List[str]:
    """Every reason the run's output is wrong; empty when it is right."""
    problems = []
    if not result.terminated:
        problems.append("run did not terminate")
    if result.solved_correctly is not True:
        problems.append(f"solved_correctly is {result.solved_correctly!r}")
    scheduled = sum(len(spec.victims) for spec in scenario.failures)
    if len(result.crashed_workers) != scheduled:
        # A crash that never fired is a failure, not a lucky run.
        problems.append(f"{len(result.crashed_workers)} workers crashed, {scheduled} were scheduled")
    missing = surviving_outcomes_missing(result)
    if missing:
        problems.append(f"{missing} surviving worker outcome(s) never reached the driver")
    return problems


def outcome_metrics(result: ScenarioResult, tree_nodes: int) -> Dict[str, float]:
    """The end-to-end metrics read off the result (the timings come from the caller)."""
    return {
        "makespan_s": result.makespan,
        "work_ratio": result.total_nodes_expanded / tree_nodes,
        "bytes_per_node": result.bytes_total / tree_nodes,
    }


def fingerprint(result: ScenarioResult, tree_nodes: int) -> Dict[str, float]:
    """Schedule fingerprint: equal on every run of a deterministic workload."""
    return {
        "events": result.engine_counters.get("events_processed", 0),
        "messages": result.messages_total,
        **outcome_metrics(result, tree_nodes),
    }
