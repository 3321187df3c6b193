"""Per-layer timing installed from outside the program.

:func:`install` wraps the public entry points of each layer of ``repro``
(and the few engine callbacks that carry the worker protocol) in place, from
this file, so the program under test is not edited.  Every wrapped call opens
a span on one stack; when it returns, its duration is added to the calling
span's child time, and its *self time* -- duration minus the time of the
wrapped calls nested inside it -- is credited to its layer.  A function
re-entered while it is already on the stack (``wire.encode`` encodes the
envelope and then its payload) is passed through, so its calls and seconds
count each outermost call once.

Real workers are forked from the traced process and inherit the wrappers.
The wrapped worker entry clears the inherited state, runs the worker and,
before the process exits (also when the driver terminates it), writes its
own counts to ``worker-<pid>.json`` in the run's output directory; the
parent adds those files to its own counts with :meth:`LayerTracer.absorb`.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.process
import os
import signal
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from workloads import surviving_outcomes_missing

#: Layers whose self time is reported, in report order.
LAYERS = ("scenario", "simulation", "distributed", "core", "bnb", "gossip")

#: The ``CompletionTracker`` methods timed one by one.
TRACKER_METHODS = (
    "merge_report",
    "merge_delta",
    "build_delta_snapshot",
    "record_completed",
    "build_report",
)

#: ``WorkerEntity`` methods the engine and network call into: ``_step`` is
#: the posted step callback, the ``on_*`` hooks are the timer, delivery,
#: start and churn callbacks.
WORKER_HANDLERS = (
    "_step",
    "on_wakeup",
    "on_message_queued",
    "on_start",
    "on_crash",
    "on_suspend",
    "on_revive",
)

#: ``GossipFailureDetector`` methods (its whole public surface).
DETECTOR_METHODS = (
    "tick",
    "digest",
    "digest_wire_size",
    "merge",
    "alive",
    "suspected",
    "cleanup",
    "members",
    "staleness",
    "heartbeat_of",
    "restart_member",
    "choose_targets",
)

Observer = Callable[["LayerTracer", tuple, object], None]


class LayerTracer:
    """Span stack plus the counts and seconds gathered by the wrappers."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self._open: Counter = Counter()
        #: Outermost calls and inclusive seconds per ``layer.function``.
        self.calls: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        #: Self seconds per layer.
        self.self_seconds: Dict[str, float] = defaultdict(float)
        #: Counts recorded by observers (changed merges, frame kinds, ...).
        self.counts: Counter = Counter()
        #: Monotonic timestamps of realexec milestones.
        self.marks: Dict[str, float] = {}
        self.arenas: list = []

    def wrap(self, layer: str, name: str, fn: Callable, observe: Optional[Observer] = None):
        key = f"{layer}.{name}"
        stack, is_open = self._stack, self._open
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_open[key]:
                return fn(*args, **kwargs)
            is_open[key] = 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                is_open[key] = 0
                self_seconds[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                calls[key] += 1
                seconds[key] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, layer: str, name: Optional[str] = None,
              observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` by its wrapped version."""
        setattr(owner, attr, self.wrap(layer, name or attr, getattr(owner, attr), observe))

    def reset(self) -> None:
        """Forget everything (in place: the wrappers hold these objects)."""
        self._stack.clear()
        self._open.clear()
        for store in (self.calls, self.seconds, self.self_seconds, self.counts,
                      self.marks):
            store.clear()
        self.arenas.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": {**self.counts, "arena_nodes": self.arena_nodes()},
        }

    def absorb(self, snap: dict) -> None:
        """Add another process's :meth:`snapshot` to these counts."""
        self.calls.update(snap["calls"])
        for key, value in snap["seconds"].items():
            self.seconds[key] += value
        for key, value in snap["self_seconds"].items():
            self.self_seconds[key] += value
        self.counts.update(snap["counts"])

    def arena_nodes(self) -> int:
        return sum(len(arena) for arena in self.arenas)


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module's binding of ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _count_true(counter_key: str) -> Observer:
    def observe(tracer: LayerTracer, args: tuple, result: object) -> None:
        if result is True:
            tracer.counts[counter_key] += 1
    return observe


def _observe_evaluate(tracer: LayerTracer, args: tuple, decision) -> None:
    if decision.code is not None:
        tracer.counts["core.recovery_evaluate.hits"] += 1


def _observe_encode(tracer: LayerTracer, args: tuple, frame: bytes) -> None:
    tracer.counts["wire.encode.bytes"] += len(frame)
    payload = getattr(args[0], "payload", None)
    if payload is not None:
        tracer.counts[f"frames.{type(payload).__name__}"] += 1


def install(tracer: LayerTracer, outdir: str) -> None:
    """Wrap every traced entry point; worker dumps go to ``outdir``."""
    from repro import wire
    from repro.bnb.sequential import NodeExpander
    from repro.core.arena import TrieArena
    from repro.core.completion import CompletionTracker
    from repro.core.recovery import RecoveryPolicy
    from repro.distributed.worker import WorkerEntity
    from repro.gossip.failure_detector import GossipFailureDetector
    from repro.realexec import driver
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.network import Network

    tracer.patch(SimulationEngine, "run", "simulation")
    tracer.patch(Network, "send", "simulation", "net_send")
    for attr in WORKER_HANDLERS:
        tracer.patch(WorkerEntity, attr, "distributed")
    for attr in TRACKER_METHODS:
        observe = _count_true(f"core.{attr}.changed") if attr.startswith("merge_") else None
        tracer.patch(CompletionTracker, attr, "core", observe=observe)
    tracer.patch(RecoveryPolicy, "evaluate", "core", "recovery_evaluate", _observe_evaluate)
    tracer.patch(NodeExpander, "expand", "bnb")
    for attr in DETECTOR_METHODS:
        tracer.patch(GossipFailureDetector, attr, "gossip")

    arena_init = TrieArena.__init__

    def capture_arena(arena, *args, **kwargs):
        arena_init(arena, *args, **kwargs)
        tracer.arenas.append(arena)

    TrieArena.__init__ = capture_arena

    for fn, observe in ((wire.encode, _observe_encode), (wire.decode, None)):
        _rebind(fn, tracer.wrap("wire", fn.__name__, fn, observe))

    cluster_run = driver.LocalCluster.run

    @functools.wraps(cluster_run)
    def timed_cluster_run(cluster, *args, **kwargs):
        tracer.marks["cluster_enter"] = time.monotonic()
        result = cluster_run(cluster, *args, **kwargs)
        tracer.marks["cluster_exit"] = time.monotonic()
        return result

    driver.LocalCluster.run = tracer.wrap("realexec", "cluster", timed_cluster_run)

    process_start = multiprocessing.process.BaseProcess.start

    @functools.wraps(process_start)
    def timed_start(process):
        tracer.marks.setdefault("first_start", time.monotonic())
        process_start(process)
        tracer.marks["last_started"] = time.monotonic()

    multiprocessing.process.BaseProcess.start = timed_start

    worker_main = driver.worker_main

    def traced_worker(config, connection):
        tracer.reset()
        finishing = False

        def stop(signum, frame):
            # The driver terminates workers that are still running; exit
            # through the ``finally`` below so the counts are written.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            if not finishing:
                raise SystemExit(0)

        signal.signal(signal.SIGTERM, stop)
        try:
            worker_main(config, connection)
        finally:
            finishing = True
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            path = os.path.join(outdir, f"worker-{os.getpid()}.json")
            with open(path + ".tmp", "w") as handle:
                json.dump(tracer.snapshot(), handle)
            os.replace(path + ".tmp", path)

    driver.worker_main = traced_worker


def absorb_workers(tracer: LayerTracer, outdir: str) -> int:
    """Add (and delete) the worker dumps in ``outdir``; returns how many."""
    names = sorted(n for n in os.listdir(outdir) if n.startswith("worker-") and n.endswith(".json"))
    for name in names:
        path = os.path.join(outdir, name)
        with open(path) as handle:
            tracer.absorb(json.load(handle))
        os.remove(path)
    return len(names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer, result, tree_nodes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced run (workers already absorbed)."""
    calls, seconds, counts = tracer.calls, tracer.seconds, tracer.counts
    metrics: Dict[str, float] = {f"{layer}.self_s": tracer.self_seconds.get(layer, 0.0)
                                 for layer in LAYERS}

    engine = result.engine_counters
    metrics["simulation.events"] = engine.get("events_processed", 0)
    metrics["simulation.peak_heap"] = engine.get("peak_heap_len", 0)
    metrics["simulation.net_send.calls"] = calls["simulation.net_send"]
    metrics["simulation.net_send.s"] = seconds.get("simulation.net_send", 0.0)

    requests = grants = 0
    if result.backend == "simulated":
        stats = result.raw.workers.values()
        requests = sum(s.work_requests_sent for s in stats)
        grants = sum(s.work_grants_sent for s in stats)
    metrics["distributed.msgs_per_node"] = result.messages_total / tree_nodes
    metrics["distributed.work_requests"] = requests
    metrics["distributed.grant_ratio"] = _ratio(grants, requests)
    metrics["distributed.recoveries"] = result.recoveries

    for attr in TRACKER_METHODS:
        metrics[f"core.{attr}.calls"] = calls[f"core.{attr}"]
        metrics[f"core.{attr}.s"] = seconds.get(f"core.{attr}", 0.0)
    for attr in ("merge_report", "merge_delta"):
        metrics[f"core.{attr}.changed_frac"] = _ratio(
            counts[f"core.{attr}.changed"], calls[f"core.{attr}"]
        )
    metrics["core.recovery_evaluate.calls"] = calls["core.recovery_evaluate"]
    metrics["core.recovery_evaluate.hit_frac"] = _ratio(
        counts["core.recovery_evaluate.hits"], calls["core.recovery_evaluate"]
    )
    metrics["core.arena_nodes"] = tracer.arena_nodes() + counts["arena_nodes"]

    metrics["bnb.expand.calls"] = calls["bnb.expand"]
    metrics["bnb.expand.s"] = seconds.get("bnb.expand", 0.0)

    metrics["gossip.calls"] = sum(calls[f"gossip.{attr}"] for attr in DETECTOR_METHODS)
    metrics["gossip.evictions"] = result.evictions
    metrics["gossip.rejoins"] = result.rejoins

    for direction in ("encode", "decode"):
        metrics[f"wire.{direction}.calls"] = calls[f"wire.{direction}"]
        metrics[f"wire.{direction}.s"] = seconds.get(f"wire.{direction}", 0.0)
    metrics["wire.encode.bytes"] = counts["wire.encode.bytes"]

    metrics.update(_realexec_metrics(tracer, result))
    return metrics


def _realexec_metrics(tracer: LayerTracer, result) -> Dict[str, float]:
    names = ("spawn_s", "teardown_s", "frames", "frames_dropped", "load_imbalance",
             "grant_ratio", "outcomes_missing")
    if result.backend != "realexec":
        return {f"realexec.{name}": 0 for name in names}
    raw, marks, counts = result.raw, tracer.marks, tracer.counts
    expanded = [w.nodes_expanded for w in result.workers.values()]
    loop_end = marks["first_start"] + raw.wall_time
    return {
        "realexec.spawn_s": marks["last_started"] - marks["cluster_enter"],
        "realexec.teardown_s": marks["cluster_exit"] - loop_end,
        "realexec.frames": raw.messages_forwarded,
        "realexec.frames_dropped": raw.messages_dropped,
        "realexec.load_imbalance": _ratio(max(expanded), sum(expanded)),
        "realexec.grant_ratio": _ratio(counts["frames.WorkGrant"], counts["frames.WorkRequest"]),
        "realexec.outcomes_missing": surviving_outcomes_missing(result),
    }
