"""Worker state spans in the run tracer and the ASCII Gantt rendered from them."""

from types import SimpleNamespace

import pytest

from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.tree_problem import TreeReplayProblem
from repro.distributed.config import AlgorithmConfig
from repro.distributed.worker import WorkerEntity
from repro.obs import Tracer
from repro.obs.gantt import StateInterval, ascii_gantt, state_durations, state_intervals


def traced_worker():
    """A worker with a tracer and a hand-driven clock (no engine needed)."""
    tree = generate_random_tree(RandomTreeSpec(nodes=7, seed=1, name="gantt-tree"))
    tracer = Tracer(process="engine")
    worker = WorkerEntity(
        "p0", TreeReplayProblem(tree, prune=False), AlgorithmConfig(), ["p0"], tracer=tracer
    )
    clock = SimpleNamespace(now=0.0)
    worker.engine = clock

    def enter(state, at):
        clock.now = at
        worker._trace_state(state)

    return worker, tracer, enter


class TestWorkerStateSpans:
    def test_state_intervals(self):
        worker, tracer, enter = traced_worker()
        enter("working", 0.0)
        enter("idle", 2.0)
        enter("working", 3.0)
        worker.finish_trace(5.0)
        intervals = state_intervals(tracer)
        assert [(i.state, i.start, i.end) for i in intervals] == [
            ("working", 0.0, 2.0),
            ("idle", 2.0, 3.0),
            ("working", 3.0, 5.0),
        ]
        durations = state_durations(intervals)["p0"]
        assert durations["working"] == pytest.approx(4.0)
        assert durations["idle"] == pytest.approx(1.0)
        assert all(record[3] == "worker" for record in tracer.records())

    def test_same_state_transition_is_ignored(self):
        worker, tracer, enter = traced_worker()
        enter("working", 0.0)
        enter("working", 1.0)
        worker.finish_trace(2.0)
        assert state_intervals(tracer) == [StateInterval("p0", "working", 0.0, 2.0)]

    def test_zero_length_interval_is_dropped(self):
        # Two transitions at the same instant: the zero-length first state
        # must not produce a span, and the second state owns the time.
        worker, tracer, enter = traced_worker()
        enter("working", 1.0)
        enter("recovery", 1.0)
        worker.finish_trace(2.0)
        intervals = state_intervals(tracer)
        assert [i.state for i in intervals] == ["recovery"]
        assert intervals[0].duration == pytest.approx(1.0)

    def test_finish_at_open_time_drops_zero_length_tail(self):
        worker, tracer, enter = traced_worker()
        enter("working", 0.0)
        enter("idle", 3.0)
        worker.finish_trace(3.0)
        assert [i.state for i in state_intervals(tracer)] == ["working"]

    def test_out_of_order_transition_does_not_corrupt(self):
        # A transition stamped *before* the open interval's start must not
        # emit a negative-duration span; the new state simply takes over
        # from its own (earlier) timestamp.
        worker, tracer, enter = traced_worker()
        enter("working", 5.0)
        enter("idle", 3.0)
        worker.finish_trace(10.0)
        assert state_intervals(tracer) == [StateInterval("p0", "idle", 3.0, 7.0)]


class TestAsciiGantt:
    def test_one_row_per_process(self):
        gantt = ascii_gantt(
            [
                StateInterval("p0", "working", 0.0, 1.0),
                StateInterval("p1", "idle", 0.0, 1.0),
            ],
            width=40,
        )
        rows = gantt.splitlines()
        assert rows[0].strip().startswith("p0 |#")
        assert rows[1].strip().startswith("p1 |.")
        assert "t=1.00s" in rows[2]

    def test_empty_gantt(self):
        assert "empty" in ascii_gantt([])

    def test_ignores_non_worker_spans(self):
        tracer = Tracer(process="engine")
        tracer.span("run", 0.0, 3.0, category="engine")
        tracer.span("working", 0.0, 3.0, process="w0", category="worker")
        assert [i.process for i in state_intervals(tracer)] == ["w0"]
