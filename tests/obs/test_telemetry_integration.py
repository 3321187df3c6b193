"""End-to-end telemetry: one merged trace per run, on every backend.

The acceptance bar for the observability subsystem: a ``quickstart``
(simulated) run and a scaled ``figure3`` (realexec) run each produce a
Chrome-trace document with complete spans from at least three layers, the
metrics registry aggregates run-wide totals, and none of it changes
simulated outcomes or leaks into runs that did not ask for telemetry.
"""

from repro.obs.chrome import category_span_counts, load_chrome_trace
from repro.scenario import Scenario, TelemetryConfig, WorkloadSpec, run_scenario
from repro.scenario.cli import main as cli_main


def _quickstart(telemetry):
    from repro.scenario import get_scenario

    return get_scenario("quickstart").with_overrides(telemetry=telemetry)


class TestSimulatedTelemetry:
    def test_quickstart_trace_covers_three_layers(self):
        result = run_scenario(_quickstart(TelemetryConfig()), backend="simulated")
        telemetry = result.telemetry
        assert telemetry is not None and telemetry.tracer is not None
        document = telemetry.chrome_trace()
        counts = category_span_counts(document)
        assert len(counts) >= 3
        assert counts.get("worker", 0) > 0
        assert counts.get("transport", 0) > 0
        assert counts.get("engine", 0) > 0
        assert document["repro"]["meta"]["backend"] == "simulated"
        assert document["repro"]["meta"]["clock"] == "sim-seconds"

    def test_telemetry_does_not_change_outcomes_or_expose_trace(self):
        plain = run_scenario(_quickstart(None), backend="simulated")
        traced = run_scenario(_quickstart(TelemetryConfig()), backend="simulated")
        assert plain.telemetry is None
        assert traced.makespan == plain.makespan
        assert traced.best_value == plain.best_value
        assert traced.total_nodes_expanded == plain.total_nodes_expanded
        # Telemetry must not flip on the legacy RunResult.trace surface.
        assert traced.raw.trace is None

    def test_metrics_snapshot_has_engine_network_and_worker_families(self):
        result = run_scenario(_quickstart(TelemetryConfig()), backend="simulated")
        counters = result.telemetry.snapshot()["counters"]
        families = {key.split("{")[0] for key in counters}
        assert "engine_events_processed" in families
        assert "net_bytes_sent" in families
        assert "worker_nodes_expanded" in families

    def test_engine_metrics_equal_run_engine_counters(self):
        result = run_scenario(_quickstart(TelemetryConfig()), backend="simulated")
        snapshot = result.telemetry.snapshot()
        engine = result.raw.engine_counters
        assert snapshot["counters"]["engine_events_processed"] == engine["events_processed"]
        assert snapshot["counters"]["engine_entity_steps"] == engine["entity_steps"]
        assert snapshot["counters"]["engine_compactions"] == engine["compactions"]
        assert snapshot["gauges"]["engine_peak_heap_len"]["value"] == engine["peak_heap_len"]

    def test_metrics_only_config_skips_tracer(self):
        result = run_scenario(
            _quickstart(TelemetryConfig(trace=False, metrics=True)),
            backend="simulated",
        )
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.tracer is None
        assert telemetry.metrics is not None


class TestRealexecTelemetry:
    def test_figure3_scaled_trace_covers_three_layers(self, tmp_path):
        scenario = Scenario(
            name="figure3-telemetry",
            workload=WorkloadSpec(kind="figure3", scale=0.05, seed=7),
            n_workers=3,
            seed=7,
            max_seconds=20.0,
            telemetry=TelemetryConfig(),
        )
        result = run_scenario(scenario, backend="realexec")
        assert result.terminated
        telemetry = result.telemetry
        assert telemetry is not None and telemetry.tracer is not None
        path = tmp_path / "figure3.json"
        telemetry.write_chrome_trace(path)
        document = load_chrome_trace(path)
        counts = category_span_counts(document)
        assert len(counts) >= 3
        assert counts.get("worker", 0) >= 3  # one run span per worker
        assert counts.get("transport", 0) > 0  # router forwards
        assert counts.get("driver", 0) >= 1  # the cluster run span
        # All processes merged into one trace.
        processes = telemetry.tracer.processes()
        assert "driver" in processes and "router" in processes
        assert any(p.startswith("rworker-") for p in processes)
        # Worker metrics crossed the wire and merged with the router's.
        counters = telemetry.snapshot()["counters"]
        families = {key.split("{")[0] for key in counters}
        assert "router_messages_forwarded" in families
        assert "worker_frames_received" in families

    def test_realexec_without_telemetry_has_no_frames(self):
        scenario = Scenario(
            name="figure3-quiet",
            workload=WorkloadSpec(kind="figure3", scale=0.05, seed=7),
            n_workers=2,
            seed=7,
            max_seconds=20.0,
        )
        result = run_scenario(scenario, backend="realexec")
        assert result.terminated
        assert result.telemetry is None
        assert "worker_telemetry" not in result.raw.bytes_by_kind


class TestCliTelemetry:
    def test_run_trace_flag_then_inspect(self, tmp_path, capsys):
        trace_path = tmp_path / "quickstart.json"
        code = cli_main(["run", "quickstart", "--trace", str(trace_path)])
        assert code == 0
        assert trace_path.exists()
        document = load_chrome_trace(trace_path)
        assert len(category_span_counts(document)) >= 3
        capsys.readouterr()

        code = cli_main(["inspect", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "categories" in out
        assert "worker-00" in out  # the Gantt rows
        assert "top counters" in out

    def test_run_metrics_flag_prints_exposition(self, capsys):
        code = cli_main(["run", "quickstart", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "--- metrics ---" in out
        assert "# TYPE engine_events_processed counter" in out

    def test_inspect_rejects_non_trace(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert cli_main(["inspect", str(bogus)]) == 2
        assert "error" in capsys.readouterr().out
