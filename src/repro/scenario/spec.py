"""Declarative experiment specifications: the :class:`Scenario` dataclass.

The paper's evaluation is comparative — the problem-specific mechanism vs. a
central manager vs. DIB, under crashes, on simulated and real transports —
so an experiment must be *describable once* and runnable everywhere.  A
:class:`Scenario` is that description: a workload, a worker count, a network
model, a failure schedule, the algorithm configuration and a seed.  Nothing
in it names a backend; the same frozen object runs on the ``simulated``,
``central``, ``dib`` and ``realexec`` backends (see
:mod:`repro.scenario.backends`), which is the separation of fault-tolerance
*policy* (this spec) from *mechanism* (the backend) that De Florio's
application-layer fault-tolerance survey argues for.

Workers are named canonically (``worker-00`` … ``worker-NN``); each backend
maps those names onto its own (``cworker-…``, ``dworker-…``, ``rworker-…``),
so failure schedules and network partitions written against the canonical
names apply to every backend.  The special victim ``"critical"`` resolves to
the backend's most critical node — the central manager, the DIB root
machine, or plain ``worker-00`` for the designs that have no critical node.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..bnb.basic_tree import BasicTree
from ..bnb.pool import SelectionRule
from ..distributed.config import AlgorithmConfig
from ..distributed.runner import NetworkConfig, worker_names
from ..obs import TelemetryConfig

__all__ = [
    "WorkloadSpec",
    "FailureSpec",
    "AvailabilitySpec",
    "ChurnSpec",
    "ChurnSchedule",
    "Scenario",
    "TelemetryConfig",
    "CRITICAL",
    "canonical_index",
    "translate_canonical",
]

#: Victim placeholder resolving to the backend's most critical node.
CRITICAL = "critical"

#: Canonical worker names (``worker-NN``), as produced by ``worker_names``.
_CANONICAL_RE = re.compile(r"^worker-(\d+)$")


def canonical_index(victim: Union[int, str]) -> Optional[int]:
    """Worker index of a canonical reference (``2`` or ``"worker-02"``).

    ``None`` for anything else — backend-specific entity names like the
    central ``"manager"`` are not canonical.  This is the single definition
    of "canonical worker reference" shared by victim resolution, partition
    translation and the CLI's shrink logic.
    """
    if isinstance(victim, int):
        return victim
    match = _CANONICAL_RE.match(victim)
    return int(match.group(1)) if match else None


def translate_canonical(name: Union[int, str], names: Sequence[str]) -> str:
    """Map a canonical worker reference onto one backend's entity names.

    Non-canonical strings pass through verbatim; canonical references out
    of range raise — a typo'd victim or partition member must fail loudly,
    not silently run a different experiment than the spec claims.
    """
    index = canonical_index(name)
    if index is None:
        return str(name)
    if not (0 <= index < len(names)):
        raise ValueError(
            f"canonical worker reference {name!r} out of range for "
            f"{len(names)} workers"
        )
    return names[index]

#: Workload kinds :meth:`WorkloadSpec.build` understands.
_WORKLOAD_KINDS = ("tiny", "figure3", "table1", "random", "knapsack", "tree")


@dataclass(frozen=True)
class WorkloadSpec:
    """How to build the workload tree — declaratively, from a seed.

    ``kind`` selects the family:

    * ``"tiny"`` / ``"figure3"`` / ``"table1"`` — the named paper workloads
      (:mod:`repro.analysis.figures`); ``scale`` shrinks the node count;
    * ``"random"`` — a calibrated random basic tree of ``nodes`` nodes with
      ``mean_node_time`` seconds per node;
    * ``"knapsack"`` — record the basic tree of a random 0/1 knapsack
      instance with ``nodes`` items and attach a synthetic cost model of
      ``mean_node_time`` seconds per node (the paper's full experimental
      pipeline);
    * ``"tree"`` — an explicit, prebuilt :class:`~repro.bnb.basic_tree.
      BasicTree` carried in :attr:`tree` (used by benchmarks that must
      factor workload construction out of a timing).
    """

    kind: str = "random"
    #: Node count for ``random``; item count for ``knapsack``; unused else.
    nodes: int = 301
    #: Mean per-node cost in seconds (``random``/``knapsack``).
    mean_node_time: float = 0.01
    #: Workload seed (independent of the scenario's run seed).
    seed: int = 7
    #: Size multiplier: node count for the tree kinds, item count for
    #: ``knapsack``.  Ignored only by ``tree`` (the tree is already built).
    scale: float = 1.0
    #: Optional display name override.
    name: Optional[str] = None
    #: Prebuilt tree for ``kind="tree"``.
    tree: Optional[BasicTree] = None

    def __post_init__(self) -> None:
        if self.kind not in _WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r} (known: {_WORKLOAD_KINDS})")
        if self.kind == "tree" and self.tree is None:
            raise ValueError("workload kind 'tree' requires an explicit tree")
        if self.nodes < 1:
            raise ValueError("nodes must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def build(self) -> BasicTree:
        """Build (or return) the workload tree."""
        if self.kind == "tree":
            assert self.tree is not None
            return self.tree
        from ..analysis.figures import figure3_tree, table1_tree, tiny_tree

        if self.kind == "tiny":
            return tiny_tree(seed=self.seed, scale=self.scale)
        if self.kind == "figure3":
            return figure3_tree(scale=self.scale, seed=self.seed)
        if self.kind == "table1":
            return table1_tree(scale=self.scale, seed=self.seed)
        if self.kind == "knapsack":
            from ..bnb.cost_model import NodeTimeModel, assign_node_times
            from ..bnb.basic_tree import record_basic_tree
            from ..bnb.knapsack import random_knapsack

            items = max(4, int(round(self.nodes * self.scale)))
            problem = random_knapsack(items, seed=self.seed)
            tree = record_basic_tree(problem, name=self.name or f"knapsack-{items}")
            return assign_node_times(
                tree, NodeTimeModel(mean=self.mean_node_time, cv=0.4, seed=self.seed)
            )
        from ..bnb.random_tree import RandomTreeSpec, generate_random_tree

        nodes = max(3, int(round(self.nodes * self.scale)))
        if nodes % 2 == 0:  # basic trees are binary: node counts are odd
            nodes += 1
        return generate_random_tree(
            RandomTreeSpec(
                nodes=nodes,
                mean_node_time=self.mean_node_time,
                seed=self.seed,
                name=self.name or f"random-{nodes}n",
            )
        )

    def describe(self) -> str:
        """One-line human description."""
        if self.kind == "tree":
            return f"prebuilt tree {getattr(self.tree, 'name', '?')}"
        if self.kind in ("tiny", "figure3", "table1"):
            return f"{self.kind} paper workload (scale {self.scale:g}, seed {self.seed})"
        if self.kind == "knapsack":
            return f"recorded knapsack tree ({self.nodes} items, seed {self.seed})"
        return f"random tree ({self.nodes} nodes, {self.mean_node_time:g}s/node, seed {self.seed})"


@dataclass(frozen=True)
class FailureSpec:
    """One failure-injection instruction, backend-agnostic.

    ``victims`` name workers by canonical name (``worker-01``), by index
    (``1``), or with the placeholder :data:`CRITICAL`.  Exactly when the
    crash happens depends on which of the timing fields is set:

    * ``at_time`` — absolute simulated time (simulated backends);
    * ``at_fraction`` — fraction of the *failure-free makespan* of the same
      scenario on the same backend (the paper's "at about 85% of the
      execution time" phrasing); the backend runs a failure-free reference
      first to resolve it;
    * ``after_seconds`` — wall-clock seconds after process start, used by the
      ``realexec`` backend (real kills cannot be scheduled in simulated
      time).  Defaults to 0.5 s when only simulated timings are given.
    """

    victims: Tuple[Union[int, str], ...]
    at_time: Optional[float] = None
    at_fraction: Optional[float] = None
    after_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.victims:
            raise ValueError("a FailureSpec needs at least one victim")
        if self.at_time is not None and self.at_fraction is not None:
            raise ValueError("set at_time or at_fraction, not both")
        if self.at_time is None and self.at_fraction is None:
            object.__setattr__(self, "at_fraction", 0.5)
        if self.at_fraction is not None and not (0.0 <= self.at_fraction <= 1.0):
            raise ValueError("at_fraction must be in [0, 1]")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError("at_time must be non-negative")
        if self.after_seconds is not None and self.after_seconds < 0:
            raise ValueError("after_seconds must be non-negative")

    def resolve_victims(self, names: Sequence[str], *, critical: str) -> List[str]:
        """Map the victim specs onto one backend's entity names.

        Indices and canonical ``worker-NN`` names are validated against the
        worker count (:func:`translate_canonical`) — a typo'd or
        out-of-range victim must fail loudly, not silently produce a
        failure-free run that claims to have survived a crash.  Any other
        string passes through verbatim (backend-specific entities like the
        central ``"manager"``).
        """
        return [
            critical if victim == CRITICAL else translate_canonical(victim, names)
            for victim in self.victims
        ]

    def wall_clock_delay(self) -> float:
        """Kill delay for the realexec backend (wall-clock seconds)."""
        if self.after_seconds is not None:
            return self.after_seconds
        if self.at_time is not None:
            return self.at_time
        return 0.5


#: Churn modes: a leaving worker is either frozen in place (``suspend``, the
#: SIGSTOP/laptop-lid model) or loses all volatile state and rejoins with a
#: higher incarnation (``restart``, the reboot/kill+rejoin model).
_CHURN_MODES = ("restart", "suspend")


@dataclass(frozen=True)
class AvailabilitySpec:
    """Explicit availability trace for one worker.

    ``down`` is a tuple of ``(leave, return)`` intervals in simulated
    seconds (wall-clock seconds on ``realexec``) during which the worker is
    unavailable; ``float("inf")`` as a return time means the worker never
    comes back.  ``speed`` is a relative speed multiplier applied to the
    worker's node-expansion cost (2.0 = twice as fast), modelling the
    heterogeneous desktops of the paper's campus-network deployment.
    """

    worker: Union[int, str]
    down: Tuple[Tuple[float, float], ...] = ()
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        windows = tuple((float(a), float(b)) for a, b in self.down)
        previous_end = -1.0
        for leave, ret in windows:
            if leave < 0:
                raise ValueError("availability windows cannot start before t=0")
            if ret <= leave:
                raise ValueError(
                    f"availability window ({leave:g}, {ret:g}) must have return > leave"
                )
            if leave <= previous_end:
                raise ValueError("availability windows must be sorted and non-overlapping")
            previous_end = ret
        object.__setattr__(self, "down", windows)


@dataclass(frozen=True)
class ChurnSpec:
    """A churn/availability process over the whole worker population.

    Two sources, freely mixed:

    * **trace-driven** — explicit :class:`AvailabilitySpec` entries in
      ``availability`` pin individual workers to exact leave/return windows
      (and per-worker speeds);
    * **distribution-driven** — when ``mean_uptime`` is set, every worker
      without an explicit entry (and not in ``spare``) draws alternating
      exponential up/down intervals seeded from ``seed`` (falling back to
      the scenario seed), over ``[start_after, horizon)``.  A ``None``
      horizon is resolved by the backend as a multiple of the failure-free
      makespan, mirroring ``FailureSpec.at_fraction``.

    ``mode`` picks the paper-relevant semantics: ``"restart"`` (a returning
    worker lost its pool and completed-table view and must re-converge via
    gossip first contact) or ``"suspend"`` (the worker is frozen and resumes
    with its state intact, as under SIGSTOP).  ``speed_range`` draws uniform
    per-worker speed multipliers for workers without an explicit speed.
    """

    availability: Tuple[AvailabilitySpec, ...] = ()
    #: Mean up-interval (exponential) enabling distribution-driven churn.
    mean_uptime: Optional[float] = None
    #: Mean down-interval (exponential) for distribution-driven churn.
    mean_downtime: float = 0.5
    #: No distribution-driven leave is drawn before this time.
    start_after: float = 0.0
    #: End of the distribution-driven churn process; ``None`` = resolved by
    #: the backend from the failure-free makespan.
    horizon: Optional[float] = None
    #: Workers exempt from distribution-driven churn (canonical refs).  The
    #: default keeps worker-00 — the root holder, and the critical node of
    #: the baseline designs — always available.
    spare: Tuple[Union[int, str], ...] = (0,)
    #: Uniform range for drawn per-worker speed multipliers.
    speed_range: Optional[Tuple[float, float]] = None
    mode: str = "restart"
    #: Churn-process seed; ``None`` = derive from the scenario seed.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in _CHURN_MODES:
            raise ValueError(f"unknown churn mode {self.mode!r} (known: {_CHURN_MODES})")
        object.__setattr__(self, "availability", tuple(self.availability))
        object.__setattr__(self, "spare", tuple(self.spare))
        if self.mean_uptime is not None and self.mean_uptime <= 0:
            raise ValueError("mean_uptime must be positive")
        if self.mean_downtime <= 0:
            raise ValueError("mean_downtime must be positive")
        if self.start_after < 0:
            raise ValueError("start_after must be non-negative")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.speed_range is not None:
            low, high = self.speed_range
            if low <= 0 or high < low:
                raise ValueError("speed_range must be (low, high) with 0 < low <= high")
            object.__setattr__(self, "speed_range", (float(low), float(high)))
        seen = set()
        for entry in self.availability:
            index = canonical_index(entry.worker)
            key = index if index is not None else str(entry.worker)
            if key in seen:
                raise ValueError(f"duplicate availability entry for worker {entry.worker!r}")
            seen.add(key)

    def needs_horizon(self) -> bool:
        """True when distribution-driven churn needs a resolved horizon."""
        return self.mean_uptime is not None and self.horizon is None

    def resolve(
        self,
        names: Sequence[str],
        *,
        default_seed: int,
        horizon: Optional[float] = None,
    ) -> "ChurnSchedule":
        """Materialise the churn process against one backend's worker names.

        Deterministic: the same spec, names and seeds always produce the
        same schedule.  Per-worker draws are seeded from the worker *index*
        (never from hashing the name — ``PYTHONHASHSEED`` randomisation
        would break reproducibility) so the schedule is identical across
        backends whose names differ only by prefix.
        """
        if horizon is None:
            horizon = self.horizon
        if self.mean_uptime is not None and horizon is None:
            raise ValueError(
                "distribution-driven churn needs a horizon (set ChurnSpec.horizon "
                "or let the backend resolve it from the failure-free makespan)"
            )
        base_seed = self.seed if self.seed is not None else default_seed
        windows: Dict[str, Tuple[Tuple[float, float], ...]] = {}
        speeds: Dict[str, float] = {}
        explicit = set()
        for entry in self.availability:
            name = translate_canonical(entry.worker, names)
            explicit.add(name)
            if entry.down:
                windows[name] = entry.down
            if entry.speed != 1.0:
                speeds[name] = entry.speed
        spare = {translate_canonical(ref, names) for ref in self.spare}
        for index, name in enumerate(names):
            stream = random.Random(base_seed * 1_000_003 + 7919 * index)
            if (
                self.mean_uptime is not None
                and name not in explicit
                and name not in spare
            ):
                assert horizon is not None
                drawn: List[Tuple[float, float]] = []
                now = self.start_after + stream.expovariate(1.0 / self.mean_uptime)
                while now < horizon:
                    down_for = stream.expovariate(1.0 / self.mean_downtime)
                    drawn.append((now, now + down_for))
                    now += down_for + stream.expovariate(1.0 / self.mean_uptime)
                if drawn:
                    windows[name] = tuple(drawn)
            if self.speed_range is not None and name not in explicit:
                low, high = self.speed_range
                speeds[name] = stream.uniform(low, high)
        return ChurnSchedule(mode=self.mode, windows=windows, speeds=speeds)


@dataclass(frozen=True)
class ChurnSchedule:
    """A resolved churn process: concrete windows per backend worker name.

    Produced by :meth:`ChurnSpec.resolve`; consumed by the backends as
    plain ``(time, worker, action)`` tuples so the simulation layer never
    imports the scenario package.
    """

    mode: str
    windows: Dict[str, Tuple[Tuple[float, float], ...]]
    speeds: Dict[str, float]

    def events(self) -> List[Tuple[float, str, str]]:
        """All ``(time, worker, action)`` events, time-ordered.

        ``action`` is ``"leave"`` or ``"return"``; a window returning at
        ``inf`` emits only its leave.
        """
        events: List[Tuple[float, str, str]] = []
        for name, intervals in self.windows.items():
            for leave, ret in intervals:
                events.append((leave, name, "leave"))
                if ret != float("inf"):
                    events.append((ret, name, "return"))
        events.sort()
        return events

    def first_leaves(self) -> Dict[str, float]:
        """Each churned worker's first leave time (for crash-only backends)."""
        return {
            name: intervals[0][0]
            for name, intervals in self.windows.items()
            if intervals
        }


def _default_algorithm_config() -> AlgorithmConfig:
    # Depth-first selection matches the paper's experiments (random trees are
    # replayed without elimination, so depth-first keeps the pools small).
    return AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST)


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment, runnable on every backend.

    The fields split into *what is computed* (``workload``, ``prune``,
    ``granularity``), *who computes it* (``n_workers``), *over what*
    (``network``, ``transport``, ``wire_generations``), *what goes wrong*
    (``failures``) and *how the mechanism is tuned* (``config``).  ``seed``
    makes the whole run deterministic on the simulated backends.

    See ``docs/SCENARIOS.md`` for the full field reference and the
    backend-support matrix.
    """

    name: str = "scenario"
    description: str = ""
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    n_workers: int = 3
    seed: int = 0
    config: AlgorithmConfig = field(default_factory=_default_algorithm_config)
    network: NetworkConfig = field(default_factory=NetworkConfig.paper_default)
    failures: Tuple[FailureSpec, ...] = ()
    #: Churn/availability process (worker leave/return, speeds, flapping);
    #: ``None`` = every worker stays up unless ``failures`` kills it.
    churn: Optional[ChurnSpec] = None
    #: Replay the tree with dynamic pruning against the incumbent.
    prune: bool = False
    #: Constant factor applied to all node times.
    granularity: float = 1.0
    #: Record a timeline trace (simulated backend only).
    enable_trace: bool = False
    #: Run-wide telemetry (structured tracing and/or the metrics registry,
    #: see :mod:`repro.obs`); ``None`` collects nothing.
    telemetry: Optional[TelemetryConfig] = None
    #: Measure the sequential reference time (enables ``speedup()``).
    compute_uniprocessor_time: bool = False
    #: Explicit sequential reference time, for sweeps that measured it once
    #: (takes precedence over ``compute_uniprocessor_time``).
    uniprocessor_time: Optional[float] = None
    #: Simulated-time cap (``None`` = backend default).
    max_sim_time: Optional[float] = None
    max_events: Optional[int] = None
    # ----- realexec-only knobs (ignored by the simulated backends) -------- #
    #: Transport between real worker processes: ``"pipe"``, ``"uds"`` or
    #: ``"tcp"`` (validated against the realexec transport registry).
    transport: str = "pipe"
    #: Per-worker wire-format generation (rolling-upgrade runs).
    wire_generations: Optional[Tuple[int, ...]] = None
    #: Artificial per-node sleep, to emulate heavier nodes on real processes.
    node_sleep: float = 0.0
    #: Wall-clock budget of a realexec run.
    max_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        # The valid transports live in one place: the realexec registry
        # (imported lazily — the spec layer stays import-light).
        from ..realexec.transport import validate_transport

        validate_transport(self.transport)
        if self.wire_generations is not None and len(self.wire_generations) != self.n_workers:
            raise ValueError("wire_generations must name one generation per worker")
        if self.granularity < 0:
            raise ValueError("granularity must be non-negative")
        if self.failures:
            object.__setattr__(self, "failures", tuple(self.failures))

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def with_overrides(self, **changes) -> "Scenario":
        """Return a copy with some fields replaced (sweep helper)."""
        return replace(self, **changes)

    def build_tree(self) -> BasicTree:
        """Build the workload tree."""
        return self.workload.build()

    def canonical_worker_names(self) -> List[str]:
        """The backend-independent worker names (``worker-00`` …)."""
        return worker_names(self.n_workers)

    def needs_reference_run(self) -> bool:
        """True when a failure is scheduled as a fraction of the makespan.

        Also true for distribution-driven churn without an explicit horizon:
        the backend resolves the churn horizon from the same failure-free
        reference run.
        """
        if any(spec.at_fraction is not None for spec in self.failures):
            return True
        return self.churn is not None and self.churn.needs_horizon()
