"""The normalised result every scenario backend returns.

Four runners used to return four incompatible result types
(:class:`~repro.distributed.stats.RunResult`,
:class:`~repro.baselines.central.CentralRunResult`,
:class:`~repro.baselines.dib.DibRunResult`,
:class:`~repro.realexec.driver.LocalClusterResult`).  A
:class:`ScenarioResult` is the one shape the analysis layer consumes: the
solution and its correctness, the termination time, per-kind byte
accounting, the recovery/crash counters, and normalised per-worker stats.
The counters follow the work-vs-faults accounting of Dwork, Halpern &
Waarts: ``total_nodes_expanded`` is the *work* actually performed,
``redundant_nodes_expanded`` the part of it that was re-done because of
failures (or conservative recovery), and ``recoveries`` how often the
fault-tolerance mechanism fired — which is what makes the numbers of the
four designs comparable on one table.

The backend-native result stays available as :attr:`ScenarioResult.raw` for
analyses that need backend-specific detail (e.g. the simulated run's
timeline trace or the realexec router's per-link counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["WorkerSummary", "ScenarioResult", "format_comparison"]


@dataclass
class WorkerSummary:
    """Normalised per-worker statistics (the cross-backend subset)."""

    name: str
    nodes_expanded: int = 0
    reports_sent: int = 0
    recoveries: int = 0
    best_value: Optional[float] = None
    crashed: bool = False
    terminated: bool = False

    def as_dict(self) -> dict:
        """Flat dictionary (report/CSV friendly)."""
        return {
            "name": self.name,
            "nodes_expanded": self.nodes_expanded,
            "reports_sent": self.reports_sent,
            "recoveries": self.recoveries,
            "best_value": self.best_value,
            "crashed": self.crashed,
            "terminated": self.terminated,
        }


@dataclass
class ScenarioResult:
    """Aggregate result of one scenario run on one backend."""

    #: Scenario and backend names, for provenance.
    scenario: str
    backend: str
    #: Number of workers the run started with.
    n_workers: int
    #: Completion time: simulated seconds, or wall-clock seconds (realexec).
    makespan: float
    #: Best objective value known to the surviving workers.
    best_value: Optional[float]
    #: Reference optimum of the workload, if known.
    reference_optimum: Optional[float]
    #: True when every surviving worker detected termination.
    terminated: bool
    #: Workers that crashed (or were killed) during the run.
    crashed_workers: Tuple[str, ...] = ()
    #: Work actually performed, across all workers (includes redundancy).
    total_nodes_expanded: int = 0
    #: Work performed more than once system-wide (the cost of faults).
    redundant_nodes_expanded: int = 0
    #: Fault-tolerance activations (recoveries / reassignments / redos).
    recoveries: int = 0
    #: Peer evictions driven by the live failure detector (churn runs).
    evictions: int = 0
    #: Workers that left and successfully returned (churn runs).
    rejoins: int = 0
    #: Total worker-seconds spent unavailable to churn (churn runs).
    unavailable_time: float = 0.0
    #: Messages injected into the transport.
    messages_total: int = 0
    #: Bytes injected into the transport.
    bytes_total: int = 0
    #: Bytes by message kind (simulated: wire-size model; realexec: encoded).
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Sequential reference time, when the scenario asked for it.
    uniprocessor_time: Optional[float] = None
    #: Normalised per-worker statistics.
    workers: Dict[str, WorkerSummary] = field(default_factory=dict)
    #: Engine-level scale counters (simulated backend): ``events_processed``,
    #: ``peak_heap_len``, ``compactions`` and ``entity_steps``.
    engine_counters: Dict[str, int] = field(default_factory=dict)
    #: The backend-native result object (RunResult, CentralRunResult, …).
    raw: object = None
    #: Collected run telemetry (:class:`repro.obs.Telemetry`) when the
    #: scenario carried a telemetry config; ``None`` otherwise.
    telemetry: object = None

    # ------------------------------------------------------------------ #
    # Correctness and derived metrics
    # ------------------------------------------------------------------ #
    @property
    def solved_correctly(self) -> Optional[bool]:
        """True when the surviving system knows the reference optimum."""
        if self.reference_optimum is None:
            return None
        if self.best_value is None:
            return False
        return abs(self.best_value - self.reference_optimum) <= 1e-9 * max(
            1.0, abs(self.reference_optimum)
        )

    def speedup(self) -> Optional[float]:
        """Speedup against the sequential reference time, when measured."""
        if self.uniprocessor_time is None or self.makespan <= 0:
            return None
        return self.uniprocessor_time / self.makespan

    def redundant_work_fraction(self) -> float:
        """Fraction of performed work that was redundant (re-done)."""
        if self.total_nodes_expanded == 0:
            return 0.0
        return self.redundant_nodes_expanded / self.total_nodes_expanded

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """One-row summary: the same keys for every backend (the schema)."""
        return {
            "scenario": self.scenario,
            "backend": self.backend,
            "workers": self.n_workers,
            "makespan_s": round(self.makespan, 3),
            "terminated": self.terminated,
            "best_value": self.best_value,
            "solved_correctly": self.solved_correctly,
            "crashed": len(self.crashed_workers),
            "nodes_expanded": self.total_nodes_expanded,
            "redundant_work_fraction": round(self.redundant_work_fraction(), 4),
            "recoveries": self.recoveries,
            "evictions": self.evictions,
            "rejoins": self.rejoins,
            "unavailable_time_s": round(self.unavailable_time, 3),
            "messages": self.messages_total,
            "bytes_sent": self.bytes_total,
            "speedup": None if self.speedup() is None else round(self.speedup(), 2),
        }

    def as_row(self) -> Dict[str, object]:
        """Compact row for sweep tables (examples and the CLI)."""
        return {
            "backend": self.backend,
            "workers": self.n_workers,
            "makespan_s": round(self.makespan, 3),
            "speedup": None if self.speedup() is None else round(self.speedup(), 2),
            "nodes": self.total_nodes_expanded,
            "recoveries": self.recoveries,
            "crashed": len(self.crashed_workers),
            "terminated": self.terminated,
            "correct": self.solved_correctly,
        }

    def report(self, title: Optional[str] = None) -> str:
        """Human-readable key/value block of :meth:`summary`."""
        from ..analysis.tables import format_kv

        heading = title if title is not None else f"--- {self.scenario} on {self.backend} ---"
        return format_kv(self.summary(), title=heading)


def format_comparison(results: Dict[str, "ScenarioResult"], *, title: str = "") -> str:
    """Render one summary row per backend as a comparison table."""
    from ..analysis.tables import format_table

    rows = [result.summary() for _, result in sorted(results.items())]
    return format_table(rows, title=title or "--- backend comparison ---")
