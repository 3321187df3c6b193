"""repro.obs — the run-wide telemetry subsystem.

Monitoring is a fault-tolerance mechanism in its own right (De Florio's
application-level FT catalogue lists it alongside recovery and replication),
and the paper's own evaluation is built on execution logs.  This package
gives every backend one shared observability stack:

* :mod:`repro.obs.trace` — structured tracing: spans and instant events with
  sim-time or wall-clock timestamps, a no-op path when disabled;
* :mod:`repro.obs.chrome` — the Chrome trace-event exporter (Perfetto /
  ``about://tracing``) and the loader behind ``python -m repro inspect``;
* :mod:`repro.obs.gantt` — worker state spans read back from a tracer or a
  saved trace and rendered as the ASCII Gantt chart of Figures 5/6;
* :mod:`repro.obs.metrics` — the labeled counter/gauge/histogram registry
  with snapshot and Prometheus text exposition;
* :mod:`repro.obs.ingest` — bridges folding the codebase's existing counter
  structures (engine counters, traffic stats, worker stats, router links)
  into the registry;
* :mod:`repro.obs.logging` — the ``repro.*`` logger hierarchy and the CLI's
  verbosity wiring.

:class:`TelemetryConfig` is the frozen knob carried by
:class:`~repro.scenario.spec.Scenario`; :class:`Telemetry` is the collected
artifact returned on :class:`~repro.scenario.result.ScenarioResult`.
See ``docs/OBSERVABILITY.md`` for the full guide and overhead bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from .chrome import chrome_trace_dict, load_chrome_trace, write_chrome_trace
from .logging import configure_logging, get_logger
from .metrics import MetricsRegistry, RssSampler
from .trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "TelemetryConfig",
    "Telemetry",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "RssSampler",
    "chrome_trace_dict",
    "write_chrome_trace",
    "load_chrome_trace",
    "configure_logging",
    "get_logger",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """What telemetry a run should collect (hashable — rides on Scenario).

    ``trace`` records spans/events for the Chrome-trace export; ``metrics``
    populates the labeled registry.  ``Scenario(telemetry=None)`` (the
    default) collects nothing and keeps the instrumented hot paths on their
    single ``is None`` check.
    """

    trace: bool = True
    metrics: bool = True

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics


class Telemetry:
    """The collected telemetry of one run: a tracer and/or a registry."""

    def __init__(
        self,
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        #: Provenance (scenario/backend names …) embedded in exports.
        self.meta: Dict[str, Any] = dict(meta) if meta else {}

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace-event document (empty trace when tracing off)."""
        tracer = self.tracer if self.tracer is not None else Tracer()
        return chrome_trace_dict(
            tracer,
            metrics=self.metrics.snapshot() if self.metrics is not None else None,
            meta=self.meta,
        )

    def write_chrome_trace(self, path: Any) -> Dict[str, Any]:
        """Write the Chrome trace-event JSON to ``path``."""
        import json

        document = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        return document

    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry ("" when metrics off)."""
        return self.metrics.to_prometheus() if self.metrics is not None else ""

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict snapshot of the registry ({} when metrics off)."""
        return self.metrics.snapshot() if self.metrics is not None else {}
