"""Observability: transaction tracing and the unified telemetry registry.

Usage::

    from repro.obs import ObservabilityHub

    hub = ObservabilityHub(snapshot_interval_s=5.0)
    cluster.attach(hub)
    cluster.run(duration_s=120.0, warmup_s=30.0)
    hub.export_trace("trace.json")          # load in ui.perfetto.dev
    hub.export_telemetry("telemetry.json")

With no hub attached (the default), every instrumentation site is a single
``is not None`` test on a pre-bound ``None`` attribute: seeded runs are
bit-identical with the package entirely unused.
"""

from repro.obs.hub import ObservabilityHub
from repro.obs.registry import Counter, TELEMETRY_SCHEMA_VERSION, TelemetryRegistry
from repro.obs.trace import (
    CERTIFY,
    CPU,
    LatencyHistogram,
    QUEUE,
    READS,
    STAGE_NAMES,
    StageLatencyAggregator,
    Tracer,
    TxnTrace,
)

__all__ = [
    "CERTIFY",
    "CPU",
    "Counter",
    "LatencyHistogram",
    "ObservabilityHub",
    "QUEUE",
    "READS",
    "STAGE_NAMES",
    "StageLatencyAggregator",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryRegistry",
    "Tracer",
    "TxnTrace",
]
