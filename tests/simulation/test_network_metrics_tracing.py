"""Tests for the network model and metrics accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.engine import SimulationEngine
from repro.simulation.entity import Entity, QueuedMessage
from repro.simulation.metrics import MetricsCollector, StorageAccount, TimeAccount, TIME_CATEGORIES
from repro.simulation.network import LatencyModel, Network, Partition
from repro.simulation.rng import RngRegistry


class _Sink(Entity):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, message: QueuedMessage) -> None:
        self.received.append(message)


class _SizedPayload:
    def __init__(self, size):
        self._size = size

    def wire_size(self):
        return self._size


def build(loss=0.0, partitions=(), latency=None):
    engine = SimulationEngine()
    network = Network(
        engine,
        latency=latency or LatencyModel.paper_default(),
        loss_probability=loss,
        partitions=partitions,
        rng=RngRegistry(3).stream("net"),
    )
    a, b = _Sink("a"), _Sink("b")
    network.register(a)
    network.register(b)
    return engine, network, a, b


class TestLatencyModel:
    def test_paper_parameters(self):
        model = LatencyModel.paper_default()
        # 1.5 ms + 0.005 ms/byte: a 1000-byte message takes 6.5 ms.
        assert model.latency(0) == pytest.approx(0.0015)
        assert model.latency(1000) == pytest.approx(0.0065)

    def test_jitter_only_with_rng(self):
        model = LatencyModel(base=0.001, per_byte=0.0, jitter_fraction=0.5)
        assert model.latency(10) == pytest.approx(0.001)
        import random

        jittered = model.latency(10, random.Random(1))
        assert 0.001 <= jittered <= 0.0015

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_latency_monotone_in_size(self, small, large):
        model = LatencyModel.paper_default()
        lo, hi = sorted((small, large))
        assert model.latency(lo) <= model.latency(hi)


class TestNetwork:
    def test_delivery_and_latency(self):
        engine, network, a, b = build()
        assert a.send("b", _SizedPayload(1000))
        engine.run()
        b.process_pending_messages()
        assert len(b.received) == 1
        message = b.received[0]
        assert message.size_bytes == 1000
        assert message.delivered_at == pytest.approx(0.0065)

    def test_unknown_and_dead_destination(self):
        engine, network, a, b = build()
        assert a.send("ghost", "x") is False
        b.crash()
        assert a.send("b", "x") is False
        assert network.stats.messages_to_dead == 2

    def test_duplicate_registration_rejected(self):
        engine, network, a, b = build()
        with pytest.raises(ValueError):
            network.register(_Sink("a"))

    def test_loss(self):
        engine, network, a, b = build(loss=1.0 - 1e-9)
        sent_any = False
        for _ in range(20):
            a.send("b", "x")
            sent_any = True
        engine.run()
        assert sent_any
        assert network.stats.messages_lost == 20
        assert len(b.inbox) == 0

    def test_invalid_loss_probability(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            Network(engine, loss_probability=1.5)

    def test_partition_blocks_both_directions_during_window(self):
        partition = Partition(start=0.0, end=10.0, group_a=frozenset({"a"}), group_b=frozenset({"b"}))
        engine, network, a, b = build(partitions=[partition])
        assert a.send("b", "x") is False
        assert b.send("a", "y") is False
        assert network.stats.messages_blocked == 2
        # After the window closes, traffic flows again.
        engine.schedule(11.0, lambda: a.send("b", "late"))
        engine.run()
        assert len(b.inbox) == 1

    def test_partition_does_not_affect_others(self):
        partition = Partition(start=0.0, end=10.0, group_a=frozenset({"a"}), group_b=frozenset({"x"}))
        engine, network, a, b = build(partitions=[partition])
        assert a.send("b", "x") is True

    def test_broadcast_and_traffic_accounting(self):
        engine, network, a, b = build()
        c = _Sink("c")
        network.register(c)
        scheduled = network.broadcast("a", ["a", "b", "c"], _SizedPayload(100))
        assert scheduled == 2  # never to self
        engine.run()
        assert network.stats.bytes_sent == 200
        assert network.total_megabytes_sent() == pytest.approx(200 / 1e6)
        assert network.megabytes_sent_by("a") == pytest.approx(200 / 1e6)
        assert network.megabytes_sent_by("nobody") == 0.0
        per = network.per_entity["a"].as_dict()
        assert per["messages_sent"] == 2

    def test_living_entities(self):
        engine, network, a, b = build()
        b.crash()
        assert [e.name for e in network.living_entities()] == ["a"]
        assert len(network.entities()) == 2


class TestMetrics:
    def test_time_account_basics(self):
        account = TimeAccount()
        account.add("bb", 2.0)
        account.add("idle", 1.0)
        assert account.total() == pytest.approx(3.0)
        assert account.busy() == pytest.approx(2.0)
        assert account.fractions()["bb"] == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            account.add("bogus", 1.0)
        with pytest.raises(ValueError):
            account.add("bb", -1.0)

    def test_empty_fractions(self):
        assert TimeAccount().fractions() == {c: 0.0 for c in TIME_CATEGORIES}

    def test_storage_account_peak_and_redundant(self):
        storage = StorageAccount()
        storage.update(100, redundant=10)
        storage.update(50, redundant=40)
        assert storage.peak_bytes == 100
        assert storage.redundant_bytes == 10  # captured at the peak
        storage.update(200, redundant=60)
        assert storage.peak_bytes == 200
        assert storage.redundant_bytes == 60

    def test_collector_aggregation(self):
        collector = MetricsCollector()
        collector.charge("w1", "bb", 4.0)
        collector.charge("w1", "idle", 1.0)
        collector.charge("w2", "bb", 5.0)
        collector.count("w1", "reports", 3)
        collector.update_storage("w1", 1000, 500)
        collector.update_storage("w2", 200, 0)
        assert collector.total_time("bb") == pytest.approx(9.0)
        assert collector.system_fractions()["bb"] == pytest.approx(9.0 / 10.0)
        assert collector.total_storage_bytes() == 1200
        assert collector.redundant_storage_bytes() == 500
        assert collector.counter_total("reports") == 3
        table = collector.per_process_table()
        assert len(table) == 2
        assert table[0]["process"] == "w1"

    def test_empty_collector(self):
        collector = MetricsCollector()
        assert collector.system_fractions() == {c: 0.0 for c in TIME_CATEGORIES}
        assert collector.total_storage_bytes() == 0
