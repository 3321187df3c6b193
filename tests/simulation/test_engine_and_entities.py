"""Tests for the discrete-event engine, entities and failure injection."""

import pytest

from repro.simulation.engine import SimulationEngine, SimulationError
from repro.simulation.entity import Entity, QueuedMessage
from repro.simulation.failures import (
    CrashEvent,
    FailureInjector,
    fractional_crash_schedule,
    random_crash_schedule,
)
from repro.simulation.network import Network
from repro.simulation.rng import RngRegistry


class TestEngine:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 3.0
        assert engine.events_processed == 3

    def test_ties_break_by_insertion_order(self):
        engine = SimulationEngine()
        order = []
        for label in "abc":
            engine.schedule(1.0, lambda l=label: order.append(l))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_cancel_event(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        assert handle.cancelled
        engine.run()
        assert fired == []

    def test_run_until(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(2))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        # The remaining event can still be processed by a later run.
        engine.run()
        assert fired == [1, 2]

    def test_run_max_events_and_stop_when(self):
        engine = SimulationEngine()
        counter = []
        for i in range(10):
            engine.schedule(float(i), lambda i=i: counter.append(i))
        engine.run(max_events=3)
        assert len(counter) == 3
        engine.run(stop_when=lambda: len(counter) >= 5)
        assert len(counter) == 5

    def test_stop_requested_from_callback(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: (fired.append(1), engine.stop()))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1]

    def test_events_scheduled_during_run(self):
        engine = SimulationEngine()
        seen = []

        def first():
            seen.append("first")
            engine.schedule(1.0, lambda: seen.append("second"))

        engine.schedule(1.0, first)
        engine.run()
        assert seen == ["first", "second"]
        assert engine.now == 2.0

    def test_drain_cancelled(self):
        engine = SimulationEngine()
        handles = [engine.schedule(1.0, lambda: None) for _ in range(5)]
        for handle in handles[:4]:
            handle.cancel()
        engine.drain_cancelled()
        assert engine.pending_events() == 1

    def test_peak_heap_len_is_a_high_water_mark(self):
        engine = SimulationEngine()
        for delay in (1.0, 2.0, 3.0):
            engine.schedule(delay, lambda: None)
        engine.run()
        assert engine.pending_events() == 0
        assert engine.events_processed == 3
        assert engine.peak_heap_len == 3

    def test_handle_metadata(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.5, lambda: None, label="probe")
        assert handle.time == 1.5
        assert handle.label == "probe"


class _Recorder(Entity):
    """Test entity: remembers messages and wakeups."""

    def __init__(self, name):
        super().__init__(name)
        self.messages = []
        self.wakeups = []

    def on_message(self, message: QueuedMessage) -> None:
        self.messages.append(message)

    def on_wakeup(self, reason: str) -> None:
        self.wakeups.append((self.engine.now, reason))


class TestEntity:
    def build(self):
        engine = SimulationEngine()
        network = Network(engine, rng=RngRegistry(0).stream("net"))
        a, b = _Recorder("a"), _Recorder("b")
        network.register(a)
        network.register(b)
        return engine, network, a, b

    def test_send_and_process(self):
        engine, network, a, b = self.build()
        a.send("b", "hello")
        engine.run()
        assert len(b.inbox) == 1
        processed = b.process_pending_messages()
        assert processed == 1
        assert b.messages[0].payload == "hello"
        assert b.messages[0].sender == "a"
        assert b.messages[0].delivered_at > b.messages[0].sent_at

    def test_timers_fire_on_living_entities_only(self):
        engine, network, a, b = self.build()
        a.set_timer(1.0, "tick")
        b.set_timer(1.0, "tick")
        b.crash()
        engine.run()
        assert a.wakeups and a.wakeups[0][1] == "tick"
        assert b.wakeups == []

    def test_crash_semantics(self):
        engine, network, a, b = self.build()
        a.send("b", "before")
        engine.run()
        b.crash()
        assert not b.alive
        assert b.inbox == type(b.inbox)()  # cleared
        assert a.send("b", "after") is False
        # Crashing twice is a no-op.
        crashed_at = b.crashed_at
        b.crash()
        assert b.crashed_at == crashed_at
        # A crashed entity cannot send.
        assert b.send("a", "zombie") is False

    def test_drain_inbox(self):
        engine, network, a, b = self.build()
        a.send("b", 1)
        a.send("b", 2)
        engine.run()
        drained = b.drain_inbox()
        assert len(drained) == 2
        assert len(b.inbox) == 0


class TestFailureInjection:
    def test_scheduled_crashes_fire(self):
        engine = SimulationEngine()
        network = Network(engine, rng=RngRegistry(0).stream("net"))
        a, b = _Recorder("a"), _Recorder("b")
        network.register(a)
        network.register(b)
        injector = FailureInjector([CrashEvent(1.0, "a")])
        injector.install(engine, network)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert not a.alive and b.alive
        assert injector.crashed == ["a"]
        assert len(injector) == 1

    def test_crash_of_unknown_entity_is_ignored(self):
        engine = SimulationEngine()
        network = Network(engine, rng=RngRegistry(0).stream("net"))
        injector = FailureInjector([CrashEvent(1.0, "ghost")])
        injector.install(engine, network)
        engine.run()
        assert injector.crashed == []

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CrashEvent(-1.0, "a")

    def test_random_schedule_respects_spare(self):
        names = [f"w{i}" for i in range(6)]
        schedule = random_crash_schedule(
            names, n_failures=5, start=1.0, end=2.0, seed=3, spare="w0"
        )
        assert len(schedule) == 5
        assert all(event.entity != "w0" for event in schedule)
        assert all(1.0 <= event.time <= 2.0 for event in schedule)
        with pytest.raises(ValueError):
            random_crash_schedule(names, n_failures=6, start=0, end=1, spare="w0")

    def test_fractional_schedule(self):
        names = ["a", "b", "c"]
        schedule = fractional_crash_schedule(
            names, victims=["b", "c"], fraction=0.85, reference_makespan=10.0
        )
        assert {e.entity for e in schedule} == {"b", "c"}
        assert all(e.time == pytest.approx(8.5) for e in schedule)
        with pytest.raises(ValueError):
            fractional_crash_schedule(names, victims=["zz"], fraction=0.5, reference_makespan=1.0)
        with pytest.raises(ValueError):
            fractional_crash_schedule(names, victims=["a"], fraction=1.5, reference_makespan=1.0)


class TestRngRegistry:
    def test_streams_are_deterministic_and_independent(self):
        r1 = RngRegistry(42)
        r2 = RngRegistry(42)
        assert r1.stream("x").random() == r2.stream("x").random()
        assert r1.stream("a").random() != r1.stream("b").random()
        assert r1.stream("a") is r1.stream("a")

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()

    def test_spawn(self):
        child_a = RngRegistry(7).spawn("sub")
        child_b = RngRegistry(7).spawn("sub")
        assert child_a.master_seed == child_b.master_seed
        assert child_a.master_seed != 7
