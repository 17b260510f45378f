"""The exposition server: stdlib-HTTP scrape surface for operators.

A :class:`TelemetryServer` is an ordinary supervised
:class:`~repro.runtime.Service` wrapping a
:class:`~http.server.ThreadingHTTPServer`.  The socket is bound (and
the ephemeral port resolved) in the constructor, so callers can read
``server.port`` before ``start()``; the worker loop then steps
``handle_request()`` with a short socket timeout, which keeps shutdown
responsive without a dedicated ``serve_forever`` thread to unwind.

Routes:

``/metrics``
    Prometheus text exposition 0.0.4 of the shared registry.
``/health``
    Supervision-tree health JSON (``Supervisor.health()``); responds
    ``503`` when any service in the tree is crashed so load balancers
    and probes can act on it.
``/alerts``
    The alert evaluator's rules, non-ok instances, and history.
``/flight``
    The flight recorder's ring status and dump paths.
``/``
    A plain-text index of the above.

Everything is read-only GET; there is deliberately no mutation surface.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional

from repro.metrics.registry import MetricsRegistry
from repro.runtime.service import Service, WorkerSpec
from repro.util.logging import get_logger

__all__ = ["TelemetryServer", "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-telemetry/1.0"
    #: Set per-server by TelemetryServer (class is instantiated by the
    #: HTTP machinery, so configuration rides on the server object).

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self._send(status, "application/json; charset=utf-8", body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        telemetry: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                telemetry.scrapes.inc()
                body = telemetry.render_metrics().encode("utf-8")
                self._send(200, PROMETHEUS_CONTENT_TYPE, body)
            elif path == "/health":
                health = telemetry.health_payload()
                status = 503 if health.get("degraded") else 200
                self._send_json(status, health)
            elif path == "/alerts":
                self._send_json(200, telemetry.alerts_payload())
            elif path == "/flight":
                self._send_json(200, telemetry.flight_payload())
            elif path == "/":
                body = (
                    "repro telemetry\n"
                    "  /metrics  Prometheus text exposition\n"
                    "  /health   supervision-tree health JSON\n"
                    "  /alerts   alert rules, instances, history\n"
                    "  /flight   flight-recorder status\n"
                ).encode("utf-8")
                self._send(200, "text/plain; charset=utf-8", body)
            else:
                self._send_json(404, {"error": f"no route {path!r}"})
        except BrokenPipeError:
            pass
        except Exception as exc:
            telemetry.errors.inc()
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except Exception:
                pass

    def log_message(self, format: str, *args: Any) -> None:
        telemetry: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        telemetry.log.debug("%s - %s", self.address_string(), format % args)


class TelemetryServer(Service):
    """Supervised HTTP exposition server over a shared registry.

    port=0 binds an ephemeral port; read :attr:`port` for the resolved
    one.  *health_provider*, *alerts_provider* and *flight_provider*
    are optional zero-arg callables backing the non-metrics routes.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        namespace: str = "repro",
        health_provider: Optional[Callable[[], Mapping[str, Any]]] = None,
        alerts_provider: Optional[Callable[[], Mapping[str, Any]]] = None,
        flight_provider: Optional[Callable[[], Mapping[str, Any]]] = None,
        name: str = "telemetry-server",
    ) -> None:
        super().__init__(name, registry)
        self.registry = registry
        self.namespace = namespace
        self.health_provider = health_provider
        self.alerts_provider = alerts_provider
        self.flight_provider = flight_provider
        self.log = get_logger(f"telemetry.{name}")
        self.scrapes = self.metrics.counter("scrapes")
        self.errors = self.metrics.counter("request_errors")
        self.server = ThreadingHTTPServer((host, port), _Handler)
        self.server.daemon_threads = True
        # handle_request() blocks at most this long, so the worker loop
        # notices stop promptly even with no traffic.
        self.server.timeout = 0.1
        self.server.telemetry = self  # type: ignore[attr-defined]
        self.host, self.port = self.server.server_address[:2]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- service plumbing ---------------------------------------------------

    def worker_specs(self) -> list[WorkerSpec]:
        # handle_request blocks on the listening socket itself (up to
        # server.timeout), so the worker runs it back to back.
        return [WorkerSpec("serve", self._serve_step, interval=0.0)]

    def _serve_step(self) -> None:
        self.server.handle_request()

    def on_close(self) -> None:
        self.server.server_close()

    # -- route payloads -----------------------------------------------------

    def render_metrics(self) -> str:
        return self.registry.render_prometheus(namespace=self.namespace)

    def health_payload(self) -> Dict[str, Any]:
        if self.health_provider is None:
            return {"state": "unknown", "services": {}, "degraded": False}
        health = dict(self.health_provider())
        services = health.get("services") or {}
        degraded = health.get("state") == "crashed" or any(
            isinstance(record, Mapping) and record.get("state") == "crashed"
            for record in services.values()
        )
        health["degraded"] = degraded
        return health

    def alerts_payload(self) -> Mapping[str, Any]:
        if self.alerts_provider is None:
            return {"firing": 0, "rules": [], "instances": [], "history": []}
        return self.alerts_provider()

    def flight_payload(self) -> Mapping[str, Any]:
        if self.flight_provider is None:
            return {"dumps": [], "depth": 0}
        return self.flight_provider()
