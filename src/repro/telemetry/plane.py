"""The telemetry plane: one monitor's server, alert evaluator and recorder.

:class:`TelemetryPlane` assembles the pieces of :mod:`repro.telemetry`
over one registry, as :class:`TelemetryConfig` describes; the monitor
adds its services to its supervision tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.metrics.registry import MetricsRegistry
from repro.runtime.supervisor import Supervisor
from repro.telemetry.alerts import (
    AlertEvaluator,
    AlertRule,
    parse_rule,
    recommended_rules,
)
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.server import TelemetryServer

__all__ = ["TelemetryConfig", "TelemetryPlane"]


@dataclass(frozen=True)
class TelemetryConfig:
    """How a monitor's telemetry plane is assembled.

    port:
        TCP port for the exposition server; 0 binds an ephemeral port
        (read it back from ``TelemetryPlane.port``).
    rules / recommended:
        Extra alert rules (text form, see
        :func:`~repro.telemetry.alerts.parse_rule`) and whether the
        stock :func:`recommended_rules` set is included.
    flight_dir:
        Directory for flight-recorder dumps; None picks a fresh temp
        directory on first dump.
    """

    port: int = 0
    host: str = "127.0.0.1"
    rules: Tuple[str, ...] = field(default_factory=tuple)
    recommended: bool = True
    eval_interval: float = 0.5
    flight_dir: Optional[str] = None
    flight_capacity: int = 120
    flight_interval: float = 0.5
    namespace: str = "repro"


class TelemetryPlane:
    """Server + evaluator + recorder wired together over one registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        config: Optional[TelemetryConfig] = None,
        health_provider: Optional[Callable[[], Mapping[str, Any]]] = None,
    ) -> None:
        self.config = config or TelemetryConfig()
        self.registry = registry
        rules: list[AlertRule] = []
        if self.config.recommended:
            rules.extend(recommended_rules())
        rules.extend(parse_rule(text) for text in self.config.rules)
        self.evaluator = AlertEvaluator(
            registry,
            rules=tuple(rules),
            interval=self.config.eval_interval,
        )
        self.recorder = FlightRecorder(
            registry,
            directory=self.config.flight_dir,
            capacity=self.config.flight_capacity,
            interval=self.config.flight_interval,
            health_provider=health_provider,
        )
        self.evaluator.on_transition.append(self.recorder.on_alert)
        self.server = TelemetryServer(
            registry,
            port=self.config.port,
            host=self.config.host,
            namespace=self.config.namespace,
            health_provider=health_provider,
            alerts_provider=self.evaluator.alerts,
            flight_provider=self.recorder.describe,
        )

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def services(self):
        """The plane's services in start order."""
        return [self.evaluator, self.recorder, self.server]

    def add_to(self, supervisor: Supervisor) -> None:
        """Register every plane service as a supervised child."""
        for service in self.services():
            supervisor.add_child(service)

    def close(self) -> None:
        for service in reversed(self.services()):
            service.close()
