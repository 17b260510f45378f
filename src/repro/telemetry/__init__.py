"""repro.telemetry — the operator plane over the metrics registry.

Four cooperating pieces, assembled by :class:`TelemetryPlane`:

* :class:`~repro.telemetry.server.TelemetryServer` — threaded
  stdlib-HTTP scrape surface (``/metrics``, ``/health``, ``/alerts``,
  ``/flight``);
* :class:`~repro.telemetry.relay.RegistryRelay` — merges child-process
  registry snapshots into the parent registry (used by the multiproc
  :class:`~repro.msgq.multiproc.ProcessShardBridge`);
* :class:`~repro.telemetry.alerts.AlertEvaluator` — declarative
  :class:`~repro.telemetry.alerts.AlertRule` evaluation with the
  pending→firing→resolved state machine;
* :class:`~repro.telemetry.recorder.FlightRecorder` — rolling registry
  snapshots dumped to JSON on alert firing or service crash.

``LustreMonitor`` builds a plane when configured with
``telemetry_port=`` (or ``telemetry=``) and adds its services to its
supervision tree, whatever its shard count; everything also composes
by hand for tests and embedders.

The names are re-exported lazily: a shard child imports only
:mod:`repro.telemetry.relay`, never the HTTP server.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "AlertEvaluator": ".alerts",
    "AlertRule": ".alerts",
    "AlertState": ".alerts",
    "parse_rule": ".alerts",
    "recommended_rules": ".alerts",
    "FlightRecorder": ".recorder",
    "RegistryRelay": ".relay",
    "decode_state": ".relay",
    "encode_state": ".relay",
    "PROMETHEUS_CONTENT_TYPE": ".server",
    "TelemetryServer": ".server",
    "TelemetryConfig": ".plane",
    "TelemetryPlane": ".plane",
})

__all__ = [
    "AlertEvaluator",
    "AlertRule",
    "AlertState",
    "FlightRecorder",
    "PROMETHEUS_CONTENT_TYPE",
    "RegistryRelay",
    "TelemetryConfig",
    "TelemetryPlane",
    "TelemetryServer",
    "decode_state",
    "encode_state",
    "parse_rule",
    "recommended_rules",
]
