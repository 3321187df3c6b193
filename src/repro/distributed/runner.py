"""Run configuration and orchestration of simulated distributed B&B runs.

:class:`DistributedBnBSimulation` builds the whole experiment — engine,
network (latency / loss / partitions), workers, crash schedule, metrics and
trace — runs it to termination and returns a
:class:`~repro.distributed.stats.RunResult` with the paper's metrics filled
in.  :func:`run_tree_simulation` is the one-call convenience wrapper used by
the examples and most benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..bnb.basic_tree import BasicTree
from ..bnb.problem import BranchAndBoundProblem
from ..bnb.tree_problem import TreeReplayProblem
from ..core.arena import TrieArena
from ..obs import MetricsRegistry, Telemetry, TelemetryConfig, Tracer
from ..obs.ingest import ingest_run_result
from ..simulation.engine import SimulationEngine
from ..simulation.failures import ChurnInjector, CrashEvent, FailureInjector
from ..simulation.metrics import MetricsCollector
from ..simulation.network import LatencyModel, Network, Partition
from ..simulation.rng import RngRegistry
from ..simulation.tracing import TimelineTrace
from .config import AlgorithmConfig
from .messages import MessageKinds
from .stats import RunResult, WorkerRunStats
from .worker import WorkerEntity

__all__ = [
    "NetworkConfig",
    "DistributedBnBSimulation",
    "run_tree_simulation",
    "sequential_reference_time",
    "worker_names",
]


def worker_names(n: int, prefix: str = "worker") -> List[str]:
    """Canonical worker names (``worker-00``, ``worker-01``, …)."""
    width = max(2, len(str(max(0, n - 1))))
    return [f"{prefix}-{i:0{width}d}" for i in range(n)]


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Network-side parameters of a run."""

    latency: LatencyModel = field(default_factory=LatencyModel.paper_default)
    loss_probability: float = 0.0
    partitions: Sequence[Partition] = ()

    @classmethod
    def paper_default(cls) -> "NetworkConfig":
        """The paper's 1.5 ms + 0.005 ms/byte, lossless network."""
        return cls()


class DistributedBnBSimulation:
    """Builds and runs one simulated distributed B&B execution."""

    def __init__(
        self,
        problem: BranchAndBoundProblem,
        n_workers: int,
        *,
        config: Optional[AlgorithmConfig] = None,
        network: Optional[NetworkConfig] = None,
        failures: Iterable[CrashEvent] = (),
        seed: int = 0,
        enable_trace: bool = False,
        reference_optimum: Optional[float] = None,
        uniprocessor_time: Optional[float] = None,
        expected_node_cost: float = 0.0,
        max_sim_time: Optional[float] = None,
        max_events: Optional[int] = None,
        telemetry: Optional[TelemetryConfig] = None,
        churn_events: Sequence[Tuple[float, str, str]] = (),
        churn_mode: str = "restart",
        worker_speeds: Optional[Mapping[str, float]] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.problem = problem
        self.n_workers = n_workers
        self.expected_node_cost = expected_node_cost
        self.config = config if config is not None else AlgorithmConfig.paper_default()
        self.network_config = network if network is not None else NetworkConfig.paper_default()
        self.failures = list(failures)
        self.seed = seed
        self.enable_trace = enable_trace
        self.reference_optimum = reference_optimum
        self.uniprocessor_time = uniprocessor_time
        self.max_sim_time = max_sim_time
        self.max_events = max_events

        # Built lazily by :meth:`build`.
        self.engine: Optional[SimulationEngine] = None
        self.net: Optional[Network] = None
        self.workers: List[WorkerEntity] = []
        #: Persistent scan position for :meth:`_stop_condition` (see there).
        self._stop_scan = 0
        self.metrics = MetricsCollector()
        self.trace: Optional[TimelineTrace] = TimelineTrace() if enable_trace else None
        self.injector = FailureInjector(self.failures)
        #: Non-permanent leave/return schedule (churn); a return resets the
        #: stop-condition scan because a rejoined worker is no longer
        #: terminated (the scan's monotonicity assumption briefly breaks).
        self.worker_speeds: Dict[str, float] = dict(worker_speeds or {})
        self.churn_injector: Optional[ChurnInjector] = (
            ChurnInjector(churn_events, mode=churn_mode, on_return=self._on_churn_return)
            if churn_events
            else None
        )

        # Run-wide telemetry (repro.obs).  Tracing needs per-worker state
        # intervals, so it forces an internal TimelineTrace even when the
        # caller did not ask for one on the result; ``self.trace`` (and
        # therefore ``RunResult.trace``) stays None unless ``enable_trace``.
        self.telemetry_config = telemetry
        self.tracer: Optional[Tracer] = None
        self._worker_timeline: Optional[TimelineTrace] = self.trace
        if telemetry is not None and telemetry.trace:
            self.tracer = Tracer(process="engine")
            if self._worker_timeline is None:
                self._worker_timeline = TimelineTrace()
        # When metrics are requested the registry exists *before* the run so
        # workers can observe histograms (gossip delta sizes, eviction
        # latencies) into it live; ingestion at the end reuses it.
        self.obs_registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if telemetry is not None and telemetry.metrics else None
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(self) -> "DistributedBnBSimulation":
        """Instantiate the engine, network, workers and failure schedule."""
        rng = RngRegistry(self.seed)
        self.engine = SimulationEngine()
        self.net = Network(
            self.engine,
            latency=self.network_config.latency,
            loss_probability=self.network_config.loss_probability,
            partitions=self.network_config.partitions,
            rng=rng.stream("network"),
        )
        # Per-kind traffic accounting (the network is protocol-agnostic, so
        # the classifier is installed here, where the protocol is known).
        self.net.classify = MessageKinds.of
        self.net.tracer = self.tracer

        names = worker_names(self.n_workers)
        root_sub = self.problem.root_subproblem()
        # One process-wide arena: every worker's completed table and all of
        # its per-peer gossip views intern their trie nodes here, so shared
        # completion state is stored once instead of once per view.
        arena = TrieArena()
        self.workers = []
        self._stop_scan = 0
        for index, name in enumerate(names):
            worker = WorkerEntity(
                name,
                self.problem,
                self.config,
                names,
                rng=rng.stream(f"worker:{name}"),
                metrics=self.metrics,
                trace=self._worker_timeline,
                initial_work=[root_sub] if index == 0 else [],
                expected_node_cost=self.expected_node_cost,
                arena=arena,
                tracer=self.tracer,
                speed=self.worker_speeds.get(name, 1.0),
                obs_metrics=self.obs_registry,
            )
            self.net.register(worker)
            self.workers.append(worker)

        self.injector.install(self.engine, self.net)
        if self.churn_injector is not None:
            self.churn_injector.install(self.engine, self.net)
        return self

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _on_churn_return(self, name: str) -> None:
        # A rejoined worker may be un-terminated again: restart the
        # otherwise-monotone stop scan from the beginning.
        self._stop_scan = 0

    def _stop_condition(self) -> bool:
        # Evaluated after every event, so the naive all()-scan would cost
        # O(workers) per event.  "Dead or terminated" is monotone — a worker
        # that passed the test once passes it forever — so scanning resumes
        # where the last call found its counterexample: O(1) amortised.
        # (Churn breaks monotonicity at each return event, which resets the
        # scan; while a return is still pending the run must not stop.)
        if self.churn_injector is not None and self.churn_injector.pending_returns > 0:
            return False
        workers = self.workers
        i = self._stop_scan
        n = len(workers)
        while i < n:
            worker = workers[i]
            if worker.alive and not worker.terminated:
                self._stop_scan = i
                return False
            i += 1
        return True

    def run(self) -> RunResult:
        """Run the simulation to completion and assemble the result."""
        if self.engine is None:
            self.build()
        assert self.engine is not None and self.net is not None

        for worker in self.workers:
            worker.on_start()

        self.engine.run(
            until=self.max_sim_time,
            max_events=self.max_events,
            stop_when=self._stop_condition,
        )
        end_time = self.engine.now
        if self._worker_timeline is not None:
            self._worker_timeline.finish(end_time)

        result = self._collect_results(end_time)
        result.telemetry = self._build_telemetry(end_time, result)
        return result

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _collect_results(self, end_time: float) -> RunResult:
        """Aggregate per-worker outcomes into a :class:`RunResult`."""
        assert self.net is not None and self.engine is not None
        workers = self.workers
        problem = self.problem
        network_stats = self.net.stats
        worker_stats: Dict[str, WorkerRunStats] = {}
        crashed: List[str] = []
        best_value: Optional[float] = None
        all_terminated = True
        makespan = 0.0
        total_expanded = 0
        total_bb_time = 0.0
        expanded_union: set = set()
        expanded_total_codes = 0

        for worker in workers:
            stats = worker.finalize_stats()
            worker_stats[worker.name] = stats
            total_expanded += stats.nodes_expanded
            total_bb_time += stats.time.get("bb", 0.0)
            expanded_union |= worker._expanded_codes
            expanded_total_codes += len(worker._expanded_codes)
            if stats.crashed:
                crashed.append(worker.name)
                continue
            if not stats.terminated:
                all_terminated = False
            if stats.terminated_at is not None:
                makespan = max(makespan, stats.terminated_at)
            if stats.best_value is not None:
                if best_value is None or problem.is_improvement(stats.best_value, best_value):
                    best_value = stats.best_value

        if makespan == 0.0:
            makespan = end_time

        messages_by_kind: Dict[str, int] = {
            "work_requests": 0,
            "work_grants": 0,
            "work_denials": 0,
            "work_reports": 0,
            "table_gossips": 0,
            "delta_gossips": 0,
            "gossip_acks": 0,
            "heartbeats": 0,
        }
        counters = {
            "events_processed": self.engine.events_processed,
            "peak_heap_len": self.engine.peak_heap_len,
            "compactions": self.engine.compactions,
        }
        entity_steps = 0
        for worker in workers:
            stats = worker.stats
            messages_by_kind["work_requests"] += stats.work_requests_sent
            messages_by_kind["work_grants"] += stats.work_grants_sent
            messages_by_kind["work_denials"] += stats.work_denials_sent
            messages_by_kind["work_reports"] += stats.reports_sent
            messages_by_kind["table_gossips"] += stats.table_gossips_sent
            messages_by_kind["delta_gossips"] += stats.delta_gossips_sent
            messages_by_kind["gossip_acks"] += stats.gossip_acks_sent
            messages_by_kind["heartbeats"] += stats.heartbeats_sent
            entity_steps += stats.entity_steps
        counters["entity_steps"] = entity_steps

        redundant_nodes = expanded_total_codes - len(expanded_union)

        return RunResult(
            n_workers=self.n_workers,
            makespan=makespan,
            best_value=best_value,
            reference_optimum=self.reference_optimum,
            all_terminated=all_terminated,
            crashed_workers=crashed,
            workers=worker_stats,
            total_nodes_expanded=total_expanded,
            redundant_nodes_expanded=max(0, redundant_nodes),
            total_bb_time=total_bb_time,
            uniprocessor_time=self.uniprocessor_time,
            metrics=self.metrics,
            network=network_stats,
            total_bytes_sent=network_stats.bytes_sent,
            messages_by_kind=messages_by_kind,
            bytes_by_kind=dict(self.net.kind_bytes),
            trace=self.trace,
            engine_counters=counters,
        )

    def _build_telemetry(
        self, end_time: float, result: RunResult
    ) -> Optional[Telemetry]:
        """Assemble the run's :class:`~repro.obs.Telemetry`, if configured."""
        cfg = self.telemetry_config
        if cfg is None or not cfg.enabled:
            return None
        tracer: Optional[Tracer] = None
        if cfg.trace and self.tracer is not None:
            tracer = self.tracer
            tracer.span(
                "run",
                0.0,
                end_time,
                process="engine",
                category="engine",
                args={"workers": self.n_workers},
            )
            if self._worker_timeline is not None:
                tracer.add_timeline(self._worker_timeline, category="worker")
            for name, stats in result.workers.items():
                if stats.crashed and stats.crashed_at is not None:
                    tracer.event(
                        "crash", ts=stats.crashed_at, process=name, category="engine"
                    )
        metrics: Optional[MetricsRegistry] = None
        if cfg.metrics:
            metrics = ingest_run_result(
                self.obs_registry if self.obs_registry is not None else MetricsRegistry(),
                result,
            )
        return Telemetry(
            tracer=tracer,
            metrics=metrics,
            meta={"backend": "simulated", "clock": "sim-seconds"},
        )


def sequential_reference_time(
    tree: BasicTree, *, granularity: float = 1.0, prune: bool = True
) -> float:
    """Uniprocessor execution time of a tree: the cost of a sequential run.

    This is the reference the speedup curve of Figure 4 is measured against —
    the time a single processor would need on the same workload.  With
    ``prune=False`` (the paper's treatment of random test trees) this is just
    the sum of all node times; with pruning it is measured by an actual
    sequential run.
    """
    from ..bnb.pool import SelectionRule
    from ..bnb.sequential import SequentialSolver

    if not prune:
        return tree.total_node_time() * granularity
    problem = TreeReplayProblem(tree, granularity=granularity, prune=True)
    result = SequentialSolver(problem).solve()
    return result.total_cost


def run_tree_simulation(
    tree: BasicTree,
    n_workers: int,
    *,
    config: Optional[AlgorithmConfig] = None,
    network: Optional[NetworkConfig] = None,
    failures: Iterable[CrashEvent] = (),
    seed: int = 0,
    granularity: float = 1.0,
    prune: bool = True,
    enable_trace: bool = False,
    max_sim_time: Optional[float] = None,
    max_events: Optional[int] = None,
    uniprocessor_time: Optional[float] = None,
    compute_uniprocessor_time: bool = True,
    telemetry: Optional[TelemetryConfig] = None,
    churn_events: Sequence[Tuple[float, str, str]] = (),
    churn_mode: str = "restart",
    worker_speeds: Optional[Mapping[str, float]] = None,
) -> RunResult:
    """Run the distributed algorithm on a basic tree and return the result.

    This is the entry point the paper's experiments map onto: a precomputed
    (or random) basic tree, a processor count, a network model, an optional
    crash schedule, and the algorithm configuration.  ``uniprocessor_time``
    may be passed explicitly (parameter sweeps compute it once and reuse it);
    otherwise it is measured with a sequential pruned run unless
    ``compute_uniprocessor_time`` is disabled.

    As an *experiment-facing* entry point this is superseded by the unified
    Scenario API (``repro.scenario``, backend ``"simulated"``), which wraps
    it; it remains the supported programmatic runner underneath.
    """
    if uniprocessor_time is None and compute_uniprocessor_time:
        uniprocessor_time = sequential_reference_time(tree, granularity=granularity, prune=prune)
    problem = TreeReplayProblem(tree, granularity=granularity, prune=prune)
    expected_node_cost = tree.mean_node_time() * granularity
    sim = DistributedBnBSimulation(
        problem,
        n_workers,
        config=config,
        network=network,
        failures=failures,
        seed=seed,
        enable_trace=enable_trace,
        reference_optimum=tree.optimal_value(),
        uniprocessor_time=uniprocessor_time,
        expected_node_cost=expected_node_cost,
        max_sim_time=max_sim_time,
        max_events=max_events,
        telemetry=telemetry,
        churn_events=churn_events,
        churn_mode=churn_mode,
        worker_speeds=worker_speeds,
    )
    return sim.run()
