"""The :class:`Backend` protocol and the four registered implementations.

A backend turns one :class:`~repro.scenario.spec.Scenario` into one
:class:`~repro.scenario.result.ScenarioResult`:

* ``simulated`` — the paper's mechanism on the discrete-event engine
  (:class:`~repro.distributed.runner.DistributedBnBSimulation`);
* ``central``   — the centralised manager/worker baseline
  (:func:`~repro.baselines.central.run_central_simulation`);
* ``dib``       — the DIB-style responsibility-tracking baseline
  (:func:`~repro.baselines.dib.run_dib_simulation`);
* ``realexec``  — real OS processes over a pluggable transport
  (:class:`~repro.realexec.driver.LocalCluster`; ``Scenario(transport=
  "uds")`` selects Unix-domain sockets and ``Scenario(transport="tcp")``
  a TCP listener instead of pipes).

Backends translate the scenario's canonical worker names (``worker-NN``)
into their own naming, resolve fractional failure times by running a
failure-free reference first, and normalise their native results into the
one shared shape.  New backends register through :func:`register_backend`.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..bnb.tree_problem import TreeReplayProblem
from ..distributed.runner import NetworkConfig, run_tree_simulation
from ..obs import MetricsRegistry, Telemetry, get_logger
from ..obs.ingest import ingest_scenario_totals
from ..simulation.failures import CrashEvent
from ..simulation.network import Partition
from .result import ScenarioResult, WorkerSummary
from .spec import ChurnSchedule, Scenario, translate_canonical

logger = get_logger("scenario.runner")

__all__ = [
    "Backend",
    "register_backend",
    "get_backend",
    "backend_names",
    "run_scenario",
    "compare_backends",
    "SimulatedBackend",
    "CentralBackend",
    "DibBackend",
    "RealexecBackend",
]


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a scenario and return the normalised result."""

    name: str

    def run(self, scenario: Scenario) -> ScenarioResult:  # pragma: no cover - protocol
        ...


_BACKENDS: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Register a backend under its ``name`` (replacing any previous one)."""
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r} (registered: {', '.join(sorted(_BACKENDS))})"
        ) from None


def backend_names() -> List[str]:
    """Names of every registered backend."""
    return sorted(_BACKENDS)


def run_scenario(scenario: Scenario, backend: str = "simulated") -> ScenarioResult:
    """Run one scenario on one backend — the library's single entry point."""
    logger.info(
        "running scenario %r on backend %r (%d workers)",
        scenario.name,
        backend,
        scenario.n_workers,
    )
    result = get_backend(backend).run(scenario)
    logger.info(
        "scenario %r finished: makespan=%.3f terminated=%s",
        scenario.name,
        result.makespan,
        result.terminated,
    )
    return result


def compare_backends(
    scenario: Scenario, backends: Sequence[str] = ("simulated", "central", "dib")
) -> Dict[str, ScenarioResult]:
    """Run the same scenario on several backends; results keyed by backend."""
    return {name: run_scenario(scenario, name) for name in backends}


# --------------------------------------------------------------------------- #
# Shared translation helpers
# --------------------------------------------------------------------------- #
def _translate_network(network: NetworkConfig, names: Sequence[str]) -> NetworkConfig:
    """Rewrite partition groups from canonical names to backend names.

    Uses the same strict :func:`~repro.scenario.spec.translate_canonical`
    mapping as failure victims, so a partition naming a worker that does not
    exist at this worker count raises instead of silently becoming a no-op
    partition (every backend translates, including ``simulated``, where the
    mapping is the identity but the validation still applies).
    """
    if not network.partitions:
        return network
    translated = tuple(
        Partition(
            start=p.start,
            end=p.end,
            group_a=frozenset(translate_canonical(n, names) for n in p.group_a),
            group_b=frozenset(translate_canonical(n, names) for n in p.group_b),
        )
        for p in network.partitions
    )
    return replace(network, partitions=translated)


def _resolve_failures(
    scenario: Scenario,
    names: Sequence[str],
    *,
    critical: str,
    reference_makespan: Optional[float],
) -> List[CrashEvent]:
    """Turn the backend-agnostic failure specs into scheduled crash events."""
    events: List[CrashEvent] = []
    for spec in scenario.failures:
        if spec.at_time is not None:
            when = spec.at_time
        else:
            assert spec.at_fraction is not None
            if reference_makespan is None:
                raise ValueError("fractional failure times need a reference makespan")
            when = spec.at_fraction * reference_makespan
        for victim in spec.resolve_victims(names, critical=critical):
            events.append(CrashEvent(when, victim))
    return events


def _baseline_time_cap(scenario: Scenario, reference: Optional[float]) -> float:
    """Simulated-time cap for the baseline runs (they may never terminate)."""
    if scenario.max_sim_time is not None:
        return scenario.max_sim_time
    if reference is not None:
        return max(60.0, 30.0 * reference)
    return 10_000.0


def _reference_key(scenario: Scenario) -> Scenario:
    """The failure-free variant fractional failure times are measured against.

    Presentation-only fields are normalised away so scenarios differing only
    by name (or by their failure schedule) share one reference run.
    """
    return scenario.with_overrides(
        name="__reference__",
        description="",
        failures=(),
        churn=None,
        enable_trace=False,
        telemetry=None,
        compute_uniprocessor_time=False,
        uniprocessor_time=None,
    )


def _resolve_churn(
    scenario: Scenario, names: Sequence[str], backend_name: str
) -> Optional["ChurnSchedule"]:
    """Materialise the scenario's churn spec against one backend's names.

    A distribution-driven spec without an explicit horizon gets one from the
    backend's failure-free makespan (×1.5, so the churn process outlives the
    undisturbed run — mirroring how fractional failure times resolve).
    """
    if scenario.churn is None:
        return None
    horizon = scenario.churn.horizon
    if scenario.churn.needs_horizon():
        horizon = 1.5 * _reference_makespan(backend_name, _reference_key(scenario))
    return scenario.churn.resolve(names, default_seed=scenario.seed, horizon=horizon)


def _baseline_telemetry(
    scenario: Scenario, result: ScenarioResult, backend: str
) -> Optional[Telemetry]:
    """Metrics-only telemetry for the baseline backends.

    The ``central`` and ``dib`` runners have no per-layer instrumentation, so
    their telemetry is the normalised cross-backend totals folded into a
    registry; structured tracing is not supported there (documented in
    ``docs/OBSERVABILITY.md``).
    """
    cfg = scenario.telemetry
    if cfg is None or not cfg.metrics:
        return None
    return Telemetry(
        metrics=ingest_scenario_totals(MetricsRegistry(), result),
        meta={"backend": backend, "scenario": scenario.name},
    )


@lru_cache(maxsize=16)
def _reference_makespan(backend_name: str, key: Scenario) -> float:
    """Failure-free makespan of ``key`` on one backend, memoised.

    Scenarios are frozen and the runs deterministic, so equal keys always
    produce the same makespan; the cache spares sweeps (e.g. the
    fault-tolerance comparison, whose cases differ only by failure
    schedule) one redundant reference simulation per case.
    """
    return get_backend(backend_name)._failure_free_makespan(key)


# --------------------------------------------------------------------------- #
# simulated — the paper's mechanism on the discrete-event engine
# --------------------------------------------------------------------------- #
class SimulatedBackend:
    """The fully decentralised, fault-tolerant algorithm (the paper's)."""

    name = "simulated"

    def _failure_free_makespan(self, scenario: Scenario) -> float:
        names = scenario.canonical_worker_names()
        return run_tree_simulation(
            scenario.build_tree(),
            scenario.n_workers,
            config=scenario.config,
            network=_translate_network(scenario.network, names),
            seed=scenario.seed,
            granularity=scenario.granularity,
            prune=scenario.prune,
            max_sim_time=scenario.max_sim_time,
            max_events=scenario.max_events,
            compute_uniprocessor_time=False,
        ).makespan

    def run(self, scenario: Scenario) -> ScenarioResult:
        tree = scenario.build_tree()
        names = scenario.canonical_worker_names()
        # Identity mapping on this backend, but the translation still
        # validates partition members against the worker count.
        network = _translate_network(scenario.network, names)

        reference = None
        if scenario.needs_reference_run():
            reference = _reference_makespan(self.name, _reference_key(scenario))
        events = _resolve_failures(
            scenario, names, critical=names[0], reference_makespan=reference
        )
        churn = _resolve_churn(scenario, names, self.name)
        config = scenario.config
        churn_events: List[Tuple[float, str, str]] = []
        churn_mode = "restart"
        worker_speeds: Dict[str, float] = {}
        if churn is not None:
            # Churn makes fault handling emergent: peer eviction must come
            # from the live failure detector, and a terminated group must be
            # able to answer a late rejoiner — flip both on for this run.
            config = config.with_overrides(failure_detector=True, termination_echo=True)
            churn_events = churn.events()
            churn_mode = churn.mode
            worker_speeds = dict(churn.speeds)
        result = run_tree_simulation(
            tree,
            scenario.n_workers,
            config=config,
            network=network,
            failures=events,
            churn_events=churn_events,
            churn_mode=churn_mode,
            worker_speeds=worker_speeds,
            seed=scenario.seed,
            granularity=scenario.granularity,
            prune=scenario.prune,
            enable_trace=scenario.enable_trace,
            max_sim_time=scenario.max_sim_time,
            max_events=scenario.max_events,
            uniprocessor_time=scenario.uniprocessor_time,
            compute_uniprocessor_time=(
                scenario.compute_uniprocessor_time and scenario.uniprocessor_time is None
            ),
            telemetry=scenario.telemetry,
        )
        if result.telemetry is not None:
            result.telemetry.meta.setdefault("scenario", scenario.name)

        workers = {
            name: WorkerSummary(
                name=name,
                nodes_expanded=stats.nodes_expanded,
                reports_sent=stats.reports_sent,
                recoveries=stats.recovery_activations,
                best_value=stats.best_value,
                crashed=stats.crashed,
                terminated=stats.terminated,
            )
            for name, stats in result.workers.items()
        }
        return ScenarioResult(
            scenario=scenario.name,
            backend=self.name,
            n_workers=scenario.n_workers,
            makespan=result.makespan,
            best_value=result.best_value,
            reference_optimum=result.reference_optimum,
            terminated=result.all_terminated,
            crashed_workers=tuple(result.crashed_workers),
            total_nodes_expanded=result.total_nodes_expanded,
            redundant_nodes_expanded=result.redundant_nodes_expanded,
            recoveries=sum(w.recoveries for w in workers.values()),
            evictions=sum(s.peers_evicted for s in result.workers.values()),
            rejoins=sum(s.rejoins for s in result.workers.values()),
            unavailable_time=sum(s.unavailable_time for s in result.workers.values()),
            messages_total=result.network.messages_sent if result.network else 0,
            bytes_total=result.total_bytes_sent,
            bytes_by_kind=dict(result.bytes_by_kind),
            uniprocessor_time=result.uniprocessor_time,
            workers=workers,
            engine_counters=dict(result.engine_counters),
            raw=result,
            telemetry=result.telemetry,
        )


# --------------------------------------------------------------------------- #
# central — the manager/worker baseline
# --------------------------------------------------------------------------- #
class CentralBackend:
    """Centralised manager/worker design (critical node: the manager)."""

    name = "central"

    def _failure_free_makespan(self, scenario: Scenario) -> float:
        from ..baselines.central import central_worker_names, run_central_simulation

        names = central_worker_names(scenario.n_workers)
        return run_central_simulation(
            TreeReplayProblem(
                scenario.build_tree(),
                granularity=scenario.granularity,
                prune=scenario.prune,
            ),
            scenario.n_workers,
            seed=scenario.seed,
            network=_translate_network(scenario.network, names),
            max_sim_time=_baseline_time_cap(scenario, None),
        ).makespan

    def run(self, scenario: Scenario) -> ScenarioResult:
        from ..baselines.central import central_worker_names, run_central_simulation

        tree = scenario.build_tree()
        problem = TreeReplayProblem(
            tree, granularity=scenario.granularity, prune=scenario.prune
        )
        names = central_worker_names(scenario.n_workers)
        network = _translate_network(scenario.network, names)

        reference = None
        if scenario.needs_reference_run():
            reference = _reference_makespan(self.name, _reference_key(scenario))
        events = _resolve_failures(
            scenario, names, critical="manager", reference_makespan=reference
        )
        churn = _resolve_churn(scenario, names, self.name)
        if churn is not None:
            # No rejoin path in the centralised baseline: a churned worker's
            # first leave becomes a permanent crash (later windows are moot).
            for victim, when in sorted(churn.first_leaves().items()):
                events.append(CrashEvent(when, victim))
        result = run_central_simulation(
            problem,
            scenario.n_workers,
            failures=events,
            seed=scenario.seed,
            network=network,
            max_sim_time=_baseline_time_cap(scenario, reference),
        )

        workers = {
            name: WorkerSummary(
                name=name,
                nodes_expanded=result.nodes_by_worker.get(name, 0),
                best_value=result.best_value,
                crashed=name in result.crashed_workers,
                terminated=name in result.terminated_workers,
            )
            for name in names
        }
        scenario_result = ScenarioResult(
            scenario=scenario.name,
            backend=self.name,
            n_workers=scenario.n_workers,
            makespan=result.makespan,
            best_value=result.best_value,
            reference_optimum=tree.optimal_value(),
            terminated=result.terminated,
            crashed_workers=tuple(result.crashed_workers)
            + (("manager",) if result.manager_crashed else ()),
            total_nodes_expanded=result.nodes_expanded,
            recoveries=result.reassignments,
            messages_total=result.messages_sent,
            bytes_total=result.total_bytes_sent,
            bytes_by_kind=dict(result.bytes_by_kind),
            workers=workers,
            raw=result,
        )
        scenario_result.telemetry = _baseline_telemetry(
            scenario, scenario_result, self.name
        )
        return scenario_result


# --------------------------------------------------------------------------- #
# dib — the responsibility-tracking baseline
# --------------------------------------------------------------------------- #
class DibBackend:
    """DIB-style decentralised design (critical node: the root machine)."""

    name = "dib"

    def _failure_free_makespan(self, scenario: Scenario) -> float:
        from ..baselines.dib import dib_worker_names, run_dib_simulation

        names = dib_worker_names(scenario.n_workers)
        return run_dib_simulation(
            TreeReplayProblem(
                scenario.build_tree(),
                granularity=scenario.granularity,
                prune=scenario.prune,
            ),
            scenario.n_workers,
            seed=scenario.seed,
            network=_translate_network(scenario.network, names),
            max_sim_time=_baseline_time_cap(scenario, None),
        ).makespan

    def run(self, scenario: Scenario) -> ScenarioResult:
        from ..baselines.dib import dib_worker_names, run_dib_simulation

        tree = scenario.build_tree()
        problem = TreeReplayProblem(
            tree, granularity=scenario.granularity, prune=scenario.prune
        )
        names = dib_worker_names(scenario.n_workers)
        network = _translate_network(scenario.network, names)

        reference = None
        if scenario.needs_reference_run():
            reference = _reference_makespan(self.name, _reference_key(scenario))
        events = _resolve_failures(
            scenario, names, critical=names[0], reference_makespan=reference
        )
        churn = _resolve_churn(scenario, names, self.name)
        if churn is not None:
            # DIB redoes a departed worker's responsibilities but has no
            # rejoin path either: first leave = permanent crash.
            for victim, when in sorted(churn.first_leaves().items()):
                events.append(CrashEvent(when, victim))
        result = run_dib_simulation(
            problem,
            scenario.n_workers,
            failures=events,
            seed=scenario.seed,
            network=network,
            max_sim_time=_baseline_time_cap(scenario, reference),
        )

        workers = {
            name: WorkerSummary(
                name=name,
                nodes_expanded=result.nodes_by_worker.get(name, 0),
                recoveries=result.redone_by_worker.get(name, 0),
                best_value=result.best_value,
                crashed=name in result.crashed_workers,
                terminated=name in result.terminated_workers,
            )
            for name in names
        }
        scenario_result = ScenarioResult(
            scenario=scenario.name,
            backend=self.name,
            n_workers=scenario.n_workers,
            makespan=result.makespan,
            best_value=result.best_value,
            reference_optimum=tree.optimal_value(),
            terminated=result.terminated,
            crashed_workers=tuple(result.crashed_workers),
            total_nodes_expanded=result.nodes_expanded,
            recoveries=result.redone_problems,
            messages_total=result.messages_sent,
            bytes_total=result.total_bytes_sent,
            bytes_by_kind=dict(result.bytes_by_kind),
            workers=workers,
            raw=result,
        )
        scenario_result.telemetry = _baseline_telemetry(
            scenario, scenario_result, self.name
        )
        return scenario_result


# --------------------------------------------------------------------------- #
# realexec — real OS processes over a pluggable transport
# --------------------------------------------------------------------------- #
class RealexecBackend:
    """The same core objects on real ``multiprocessing`` workers.

    Honours ``Scenario.transport`` (``"pipe"``, ``"uds"`` or ``"tcp"``),
    ``wire_generations`` (rolling upgrades), ``node_sleep`` and
    ``max_seconds``.  Failure times are wall-clock
    (:meth:`~repro.scenario.spec.FailureSpec.wall_clock_delay`).
    """

    name = "realexec"

    def run(self, scenario: Scenario) -> ScenarioResult:
        from ..realexec.driver import LocalCluster

        tree = scenario.build_tree()
        cluster = LocalCluster(
            tree,
            scenario.n_workers,
            seed=scenario.seed,
            node_sleep=scenario.node_sleep,
            max_seconds=scenario.max_seconds,
            prune=scenario.prune,
            report_threshold=scenario.config.report_threshold,
            report_fanout=scenario.config.report_fanout,
            recovery_failed_threshold=scenario.config.recovery_failed_threshold,
            wire_generations=scenario.wire_generations,
            transport=scenario.transport,
            telemetry=scenario.telemetry,
        )
        kill_schedule = [
            (
                spec.wall_clock_delay(),
                spec.resolve_victims(cluster.names, critical=cluster.names[0]),
            )
            for spec in scenario.failures
        ]
        churn = None
        if scenario.churn is not None:
            # Churn times are wall-clock seconds here.  A distribution-driven
            # spec without an explicit horizon uses the run's wall-clock cap
            # (there is no cheap failure-free reference run to measure).
            # Per-worker speed multipliers are simulation-only and ignored.
            horizon = scenario.churn.horizon
            if scenario.churn.needs_horizon():
                horizon = scenario.max_seconds
            churn = scenario.churn.resolve(
                cluster.names, default_seed=scenario.seed, horizon=horizon
            )
        result = cluster.run(
            kill_schedule=kill_schedule,
            churn_schedule=churn.events() if churn is not None else (),
            churn_mode=churn.mode if churn is not None else "restart",
        )

        departed = set(result.killed) | set(result.churned_out)
        workers = {
            name: WorkerSummary(
                name=name,
                nodes_expanded=outcome.nodes_expanded,
                reports_sent=outcome.reports_sent,
                recoveries=outcome.recoveries,
                best_value=outcome.best_value,
                crashed=name in departed,
                terminated=outcome.terminated,
            )
            for name, outcome in result.outcomes.items()
        }
        for name in departed:
            workers.setdefault(name, WorkerSummary(name=name, crashed=True))
        survivors = [w for w in workers.values() if not w.crashed]
        scenario_result = ScenarioResult(
            scenario=scenario.name,
            backend=self.name,
            n_workers=scenario.n_workers,
            makespan=result.wall_time,
            best_value=result.best_value,
            reference_optimum=result.reference_optimum,
            terminated=result.surviving_terminated,
            crashed_workers=tuple(result.killed) + tuple(result.churned_out),
            total_nodes_expanded=sum(w.nodes_expanded for w in workers.values()),
            recoveries=sum(w.recoveries for w in survivors),
            rejoins=len(result.rejoined),
            unavailable_time=result.unavailable_time,
            messages_total=result.messages_forwarded,
            bytes_total=result.bytes_forwarded,
            bytes_by_kind=dict(result.bytes_by_kind),
            workers=workers,
            raw=result,
        )
        if result.telemetry is not None:
            result.telemetry.meta.setdefault("scenario", scenario.name)
            scenario_result.telemetry = result.telemetry
        return scenario_result


register_backend(SimulatedBackend())
register_backend(CentralBackend())
register_backend(DibBackend())
register_backend(RealexecBackend())
