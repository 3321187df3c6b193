"""Configuration of the distributed fault-tolerant B&B algorithm.

:class:`AlgorithmConfig` holds the knobs the paper names and the ablation
and churn benchmarks turn, so experiments are fully described by a workload
(a basic tree), a processor count, a network model, a failure schedule and
one of these objects.  The knobs, with the paper's terminology:

* ``report_threshold`` (the paper's *c*) and ``report_fanout`` (*m*) — when a
  work report is emitted and to how many random members it is pushed;
* ``report_staleness`` — the "has not been updated for a long time" rule;
* ``table_gossip_interval`` — how often a completed-table update is pushed
  to one random member, and ``delta_gossip`` — whether that update is a
  per-peer delta or the paper's whole snapshot;
* ``compress_reports`` — the paper's report compression (ABL-COMPRESS);
* ``failure_detector`` and the three ``fd_*`` timings — the live heartbeat
  detector used on churn runs;
* ``recovery_failed_threshold`` — "how soon failure is suspected after a
  machine unsuccessfully tries to get work";
* ``selection_rule`` — the pool's subproblem selection order.

Everything else the worker needs (load-balancing donation sizes, poll and
timeout intervals, the simulated per-operation costs that feed the Figure 3
/ Table 1 overhead decomposition) is a constant in
:mod:`repro.distributed.worker`.  Node-time granularity is a property of the
workload: :attr:`repro.scenario.Scenario.granularity`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..bnb.pool import SelectionRule

__all__ = ["AlgorithmConfig"]


@dataclass(frozen=True, slots=True)
class AlgorithmConfig:
    """Tunables of the distributed algorithm (see module docstring)."""

    # ----------------------- work reports (Section 5.3.2) ----------------- #
    #: Number of newly completed codes that triggers a work report (paper: c).
    report_threshold: int = 10
    #: Number of random members each work report is sent to (paper: m).
    report_fanout: int = 2
    #: Send a report anyway if the pending list has been idle this long (s).
    report_staleness: Optional[float] = 2.0
    #: Interval between full-table gossip pushes to one random member (s).
    table_gossip_interval: Optional[float] = 30.0
    #: Gossip table *deltas* instead of whole snapshots: track per peer what
    #: it last acknowledged covering and ship only the uncovered codes
    #: (acknowledged with tiny digest echoes).  Steady-state table-gossip
    #: bytes drop by an order of magnitude on the paper workloads
    #: (``benchmarks/bench_delta_gossip.py`` gates ≥3×); disabling restores
    #: the paper's literal whole-snapshot push, which the convergence
    #: property tests use as the reference behaviour.
    delta_gossip: bool = True
    #: Compress outgoing reports (sibling merge + ancestor drop).  Disabling
    #: this is the ABL-COMPRESS ablation.
    compress_reports: bool = True

    # ----------------------- failure detection (churn) -------------------- #
    #: Run the counter-based epidemic failure detector (van Renesse et al.)
    #: inside every worker: heartbeat gossip rounds, staleness-driven peer
    #: eviction, and incarnation-based readmission of restarted workers.  A
    #: terminated worker then also answers late traffic with one root report
    #: per sender, so a worker rejoining after global termination converges
    #: at once.  Off by default — the scenario layer enables it for churn
    #: runs; the non-churn seeded runs stay byte-identical with it disabled.
    failure_detector: bool = False
    #: Interval between heartbeat increments/gossip rounds (s).
    fd_heartbeat_interval: float = 0.5
    #: A peer whose heartbeat has not increased for this long is suspected.
    fd_fail_timeout: float = 2.0
    #: A suspected peer is evicted after this long without an increase.
    fd_cleanup_timeout: float = 4.0

    # ----------------------- fault tolerance ------------------------------ #
    #: Consecutive unsuccessful work requests before loss is suspected.
    recovery_failed_threshold: int = 4

    # ----------------------- search behaviour ----------------------------- #
    #: Pool selection rule used by every worker.
    selection_rule: SelectionRule = SelectionRule.BEST_FIRST

    # ----------------------------------------------------------------------#
    def __post_init__(self) -> None:
        if self.report_threshold < 1:
            raise ValueError("report_threshold must be at least 1")
        if self.report_fanout < 1:
            raise ValueError("report_fanout must be at least 1")
        if self.recovery_failed_threshold < 1:
            raise ValueError("recovery_failed_threshold must be at least 1")
        if self.failure_detector:
            if self.fd_heartbeat_interval <= 0:
                raise ValueError("fd_heartbeat_interval must be positive")
            if self.fd_fail_timeout <= 0 or self.fd_cleanup_timeout < self.fd_fail_timeout:
                raise ValueError("fd_cleanup_timeout must be >= fd_fail_timeout > 0")

    def with_overrides(self, **changes) -> "AlgorithmConfig":
        """Return a copy with some fields replaced (sweep helper)."""
        return replace(self, **changes)

    @classmethod
    def paper_default(cls) -> "AlgorithmConfig":
        """Configuration matching the paper's described, unoptimised setup.

        "Work reports are sent to randomly chosen resources, without
        eliminating redundant messages.  When out of work, resources ask
        randomly chosen resources for work, without using previous experience
        to increase performance."
        """
        return cls()
