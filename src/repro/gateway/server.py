"""GatewayServer: the asyncio HTTP/WebSocket front door to a cluster.

The paper's end state is cyberinfrastructure *many users program
against*; until now the monitor's API surface was in-process
(``ClusterClient``).  The gateway is the service
tier in front of the cluster — one supervised
:class:`~repro.runtime.Service` owning an asyncio event loop, speaking
the minimal HTTP/1.1 + RFC-6455 vocabulary in
:mod:`repro.gateway.http`:

``POST /v1/auth``
    API key → session bearer token (:mod:`repro.gateway.auth`).
``GET /v1/events``
    Cursor-paged historic queries with **server-side filter
    push-down**: the tenant's filter is compiled through the existing
    :class:`~repro.ripple.index.RuleIndex` and pruned *before*
    serialisation, and the opaque ``(shard, seq)``-watermark cursor
    (:mod:`repro.cluster.client`) makes every page resumable.
``GET /v1/stats``
    Gateway + per-tenant + cluster counters.
``GET /health``
    Gateway health composed with the cluster supervision tree
    (503 when degraded), mirroring the telemetry plane's probe.
``WS /v1/stream``
    Live fan-out through the :class:`~repro.gateway.hub.StreamHub`:
    per-tenant token buckets, bounded per-socket queues,
    slow-consumer shedding.

Cluster access goes through the
:class:`~repro.cluster.client.AsyncClusterClient` facade (blocking
scatter-gather on the default executor), so one stuck shard request
never freezes the loop's other connections.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.cluster.client import (
    ClusterClient,
    decode_cursor,
    encode_cursor,
)
from repro.errors import ReproError
from repro.gateway.auth import AuthError, AuthStore, QuotaExceeded, Session
from repro.gateway.filters import (
    FilterIndexCache,
    SubscriptionFilter,
    parse_filter,
)
from repro.gateway.http import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    FrameParser,
    ProtocolError,
    Request,
    encode_close,
    encode_frame,
    read_request,
    render_response,
    render_upgrade,
)
from repro.gateway.hub import StreamHub
from repro.metrics.registry import MetricsRegistry
from repro.runtime.service import Service, WorkerSpec
from repro.util.logging import get_logger

__all__ = ["GatewayConfig", "GatewayServer", "attach_gateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway service knobs.

    fetch_page:
        Raw events fetched from the cluster per scatter-gather round
        while filling one filtered ``/v1/events`` page.
    max_scan:
        Upper bound on raw events scanned for a single request — a
        selective filter over a huge window answers with a resumable
        cursor instead of scanning retention unboundedly.
    """

    host: str = "127.0.0.1"
    port: int = 0
    session_ttl: float = 3600.0
    default_page: int = 256
    fetch_page: int = 512
    max_scan: int = 100_000
    request_timeout: float = 10.0
    stream_wait: float = 0.25

    def __post_init__(self) -> None:
        if self.fetch_page < 1 or self.default_page < 1:
            raise ValueError("page sizes must be >= 1")


class GatewayServer(Service):
    """Supervised asyncio HTTP/WS service in front of a cluster.

    The listening socket is bound in the constructor so ``port`` is
    readable before ``start()`` (the telemetry-server idiom); the
    worker thread then owns a private event loop for the service's
    lifetime.
    """

    def __init__(
        self,
        cluster_client: ClusterClient,
        auth: Optional[AuthStore] = None,
        config: Optional[GatewayConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        health_provider: Optional[Callable[[], Mapping[str, Any]]] = None,
        name: str = "gateway",
    ) -> None:
        super().__init__(name, registry, scope="gateway")
        self.config = config or GatewayConfig()
        self.client = cluster_client
        self.aclient = cluster_client.as_async()
        self.auth = auth or AuthStore(
            registry=self.metrics.registry,
            session_ttl=self.config.session_ttl,
        )
        self.health_provider = health_provider
        self.hub = StreamHub(self.metrics, clock=self.auth.clock)
        self.log = get_logger(f"gateway.{name}")
        # Request-surface counters (gateway scope in the shared registry).
        self._requests = self.metrics.counter("requests")
        self._request_errors = self.metrics.counter("request_errors")
        self._auth_ok = self.metrics.counter("auth_ok")
        self._auth_failures = self.metrics.counter("auth_failures")
        self._rate_limited = self.metrics.counter("rate_limited")
        self._pages_served = self.metrics.counter("pages_served")
        self._events_scanned = self.metrics.counter("events_scanned")
        self._events_returned = self.metrics.counter("events_returned")
        self._ws_connects = self.metrics.counter("ws_connects")
        self._ws_rejects = self.metrics.counter("ws_rejects")
        #: Compiled-filter reuse across /v1/events requests (LRU keyed
        #: on normalized query params; see FilterIndexCache).
        self._filter_cache = FilterIndexCache()
        self._filter_cache_hits = self.metrics.counter("filter_cache_hits")
        self._filter_cache_misses = self.metrics.counter("filter_cache_misses")
        self.metrics.gauge_fn(
            "filter_cache_size", lambda: len(self._filter_cache)
        )
        self._sock: Optional[socket.socket] = None
        self._bind()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The loop's half of the halt flag: ``on_halt`` sets it on the
        #: loop, which ends ``_serve``.
        self._serve_stop: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        #: Set once the loop is accepting connections (start barrier).
        self.ready = threading.Event()

    def _bind(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, getattr(self, "port", None) or self.config.port))
        sock.listen(256)
        self.host, self.port = sock.getsockname()[:2]
        self._sock = sock

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- service plumbing ----------------------------------------------------

    def worker_specs(self) -> list[WorkerSpec]:
        # The step runs the event loop until stop, so it needs no
        # wake-up of its own.
        return [WorkerSpec("loop", self._loop_step, interval=0.0)]

    def _loop_step(self) -> int:
        if self._sock is None:
            # A previous serve cycle consumed the socket; rebind the
            # same port so a supervisor restart keeps the address.
            self._bind()
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            self._loop = None
            with contextlib.suppress(Exception):
                loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()
        return 1

    async def _serve(self) -> None:
        server = await asyncio.start_server(self._handle_conn, sock=self._sock)
        # Made before the flag is read: a stop either sees it or came
        # before the read.
        self._serve_stop = asyncio.Event()
        self.ready.set()
        try:
            if not self._halt.is_set():
                await self._serve_stop.wait()
        finally:
            self._serve_stop = None
            self.ready.clear()
            server.close()
            self._sock = None  # closed with the server; rebind on restart
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )
            with contextlib.suppress(Exception):
                await server.wait_closed()

    def start(self) -> None:
        super().start()
        # Callers (tests, demo, supervisor siblings) may connect the
        # moment start() returns; wait for the accept loop.
        self.ready.wait(timeout=5.0)

    def on_halt(self) -> None:
        loop, serve_stop = self._loop, self._serve_stop
        if loop is not None and serve_stop is not None:
            with contextlib.suppress(RuntimeError):  # the loop has closed
                loop.call_soon_threadsafe(serve_stop.set)

    def on_close(self) -> None:
        self.hub.close()
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None
        self.client.close()

    # -- connection handling -------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), timeout=self.config.request_timeout
                )
            except (ProtocolError, asyncio.IncompleteReadError) as exc:
                self._request_errors.inc()
                await self._respond(
                    writer, 400, {"error": f"bad request: {exc}"}
                )
                return
            except asyncio.TimeoutError:
                self._request_errors.inc()
                return
            if request is None:
                return
            self._requests.inc()
            if request.path == "/v1/stream" and request.wants_websocket:
                await self._handle_stream(request, reader, writer)
                return
            status, payload = await self._dispatch(request)
            await self._respond(writer, status, payload)
        except asyncio.CancelledError:
            # Shutdown cancelled this connection; finish quietly so the
            # server task gathering us doesn't log a phantom error.
            return
        except Exception as exc:
            self._request_errors.inc()
            self.log.warning(
                "request failed: %s: %s", type(exc).__name__, exc
            )
            with contextlib.suppress(Exception):
                await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        writer.write(render_response(status, body))
        await writer.drain()

    # -- REST routes ---------------------------------------------------------

    async def _dispatch(self, request: Request) -> Tuple[int, Any]:
        path, method = request.path, request.method
        if path == "/v1/auth":
            if method != "POST":
                return 405, {"error": "POST only"}
            return self._route_auth(request)
        if path == "/v1/events":
            if method != "GET":
                return 405, {"error": "GET only"}
            return await self._route_events(request)
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "GET only"}
            return await self._route_stats(request)
        if path == "/health":
            return self._route_health()
        if path == "/":
            return 200, {
                "service": "repro-gateway",
                "routes": [
                    "POST /v1/auth",
                    "GET /v1/events",
                    "GET /v1/stats",
                    "WS /v1/stream",
                    "GET /health",
                ],
            }
        return 404, {"error": f"no route {path!r}"}

    def _route_auth(self, request: Request) -> Tuple[int, Any]:
        try:
            data = json.loads(request.body or b"{}")
        except ValueError:
            return 400, {"error": "body must be JSON"}
        key = data.get("key") if isinstance(data, dict) else None
        if not isinstance(key, str) or not key:
            return 400, {"error": 'body must be {"key": "..."}'}
        try:
            session = self.auth.authenticate(key)
        except AuthError as exc:
            self._auth_failures.inc()
            return 401, {"error": str(exc)}
        self._auth_ok.inc()
        return 200, {
            "token": session.token,
            "tenant": session.tenant,
            "expires_at": session.expires_at,
        }

    def _authorize(self, request: Request) -> Session:
        try:
            return self.auth.check_request(request.bearer_token())
        except AuthError:
            self._auth_failures.inc()
            raise
        except QuotaExceeded:
            self._rate_limited.inc()
            raise

    @staticmethod
    def _error_status(exc: ReproError) -> int:
        return getattr(exc, "status", 500)

    async def _route_events(self, request: Request) -> Tuple[int, Any]:
        try:
            session = self._authorize(request)
        except (AuthError, QuotaExceeded) as exc:
            return self._error_status(exc), {"error": str(exc)}
        try:
            filt = parse_filter(
                prefix=request.query.get("prefix"),
                types=request.query.get("types"),
                pattern=request.query.get("pattern"),
                include_directories=request.query.get("dirs"),
            )
        except (ValueError, ReproError) as exc:
            return 400, {"error": f"bad filter: {exc}"}
        try:
            limit = int(request.query.get("limit", self.config.default_page))
        except ValueError:
            return 400, {"error": "limit must be an integer"}
        limit = max(1, min(limit, session.quota.max_page_size))
        cursor = request.query.get("cursor")
        try:
            entries, next_cursor, exhausted, scanned = (
                await self._filtered_page(filt, cursor, limit)
            )
        except ValueError as exc:  # malformed / foreign cursor
            return 400, {"error": str(exc)}
        self._pages_served.inc()
        self._events_scanned.inc(scanned)
        self._events_returned.inc(len(entries))
        tenant_metrics = self.auth.tenant_metrics(session.tenant)
        tenant_metrics.counter("events_returned").inc(len(entries))
        return 200, {
            "events": [
                {"shard": shard, "seq": seq, "event": event.to_dict()}
                for shard, seq, event in entries
            ],
            "cursor": next_cursor,
            "exhausted": exhausted,
            "matched": len(entries),
            "scanned": scanned,
        }

    async def _filtered_page(
        self,
        filt: SubscriptionFilter,
        cursor: Optional[str],
        limit: int,
    ) -> Tuple[list, str, bool, int]:
        """Fill one filtered page, pruning through the rule index.

        The filter compiles to a single-rule
        :class:`~repro.ripple.index.RuleIndex` and raw cluster pages
        are pruned via ``matching_batch`` — the same compiled path the
        fan-out hub and the Ripple agents use — **before** any event
        is serialised.  Compiled indexes are LRU-cached on the
        normalized filter params, so paging through a window (or many
        tenants sharing one filter shape) pays construction once.  The
        returned cursor reflects exactly the raw events consumed, so a
        resume never skips or repeats.
        """
        index, hit = self._filter_cache.get(filt)
        (self._filter_cache_hits if hit else self._filter_cache_misses).inc()
        resumed = decode_cursor(cursor, self.client.shard_ids)
        watermarks = {
            shard_id: resumed.get(shard_id, 0)
            for shard_id in self.client.shard_ids
        }
        out: list = []
        scanned = 0
        exhausted = False
        while len(out) < limit and scanned < self.config.max_scan:
            page = await self.aclient.page(
                encode_cursor(watermarks), limit=self.config.fetch_page
            )
            if not page.entries:
                exhausted = page.exhausted
                break
            matches = index.matching_batch(
                [event for _shard, _seq, event in page.entries]
            )
            limit_hit = False
            for (shard, seq, event), (_event, rules) in zip(
                page.entries, matches
            ):
                scanned += 1
                if seq > watermarks.get(shard, 0):
                    watermarks[shard] = seq
                if rules:
                    out.append((shard, seq, event))
                    if len(out) >= limit:
                        limit_hit = True
                        break
            if limit_hit:
                break
            if page.exhausted:
                exhausted = True
                break
        return out, encode_cursor(watermarks), exhausted, scanned

    async def _route_stats(self, request: Request) -> Tuple[int, Any]:
        try:
            self._authorize(request)
        except (AuthError, QuotaExceeded) as exc:
            return self._error_status(exc), {"error": str(exc)}
        cluster = await self.aclient.stats()
        return 200, {
            "gateway": self.metrics.snapshot(),
            "tenants": {
                tenant: self.auth.tenant_metrics(tenant).snapshot()
                for tenant in self.auth.tenants()
            },
            "streams": [
                {
                    "tenant": sub.tenant,
                    "filter": sub.filter.describe(),
                    "delivered": sub.delivered,
                    "shed": sub.shed,
                    "depth": sub.depth,
                }
                for sub in self.hub.subscribers()
            ],
            "cluster": cluster.get("totals", {}),
        }

    def _route_health(self) -> Tuple[int, Any]:
        """Gateway health composed with the cluster supervision tree."""
        payload: dict[str, Any] = {"gateway": self.health()}
        degraded = self.crashed
        if self.health_provider is not None:
            cluster = dict(self.health_provider())
            payload["cluster"] = cluster
            services = cluster.get("services") or {}
            degraded = degraded or cluster.get("state") == "crashed" or any(
                isinstance(record, Mapping)
                and record.get("state") == "crashed"
                for record in services.values()
            )
        payload["degraded"] = degraded
        return (503 if degraded else 200), payload

    # -- live streams --------------------------------------------------------

    async def _handle_stream(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            session = self._authorize(request)
        except (AuthError, QuotaExceeded) as exc:
            self._ws_rejects.inc()
            await self._respond(writer, self._error_status(exc), {"error": str(exc)})
            return
        try:
            filt = parse_filter(
                prefix=request.query.get("prefix"),
                types=request.query.get("types"),
                pattern=request.query.get("pattern"),
                include_directories=request.query.get("dirs"),
            )
        except (ValueError, ReproError) as exc:
            self._ws_rejects.inc()
            await self._respond(writer, 400, {"error": f"bad filter: {exc}"})
            return
        if self.hub.streams_for(session.tenant) >= session.quota.max_streams:
            self._ws_rejects.inc()
            self.auth.tenant_metrics(session.tenant).counter(
                "stream_rejects"
            ).inc()
            await self._respond(
                writer,
                429,
                {
                    "error": (
                        f"tenant {session.tenant!r} at its stream quota "
                        f"({session.quota.max_streams})"
                    )
                },
            )
            return
        key = request.header("sec-websocket-key")
        if not key:
            self._ws_rejects.inc()
            await self._respond(writer, 400, {"error": "missing WS key"})
            return
        # Subscribe BEFORE completing the upgrade: once the client sees
        # 101, its filter is live in the hub — no publish can slip
        # between handshake and registration.
        subscriber = self.hub.subscribe(
            session.tenant,
            filt,
            session.quota,
            self.auth.tenant_metrics(session.tenant),
        )
        subscriber.bind(asyncio.get_running_loop())
        try:
            writer.write(render_upgrade(key))
            await writer.drain()
        except Exception:
            self.hub.unsubscribe(subscriber)
            raise
        self._ws_connects.inc()
        closed = asyncio.Event()
        reader_task = asyncio.get_running_loop().create_task(
            self._ws_reader(reader, writer, closed)
        )
        try:
            while not closed.is_set() and not self._halt.is_set():
                run = subscriber.drain()
                if run:
                    for frame in run:
                        writer.write(frame)
                    await writer.drain()
                else:
                    await subscriber.wait(self.config.stream_wait)
            with contextlib.suppress(Exception):
                writer.write(encode_close())
                await writer.drain()
        finally:
            self.hub.unsubscribe(subscriber)
            reader_task.cancel()
            with contextlib.suppress(BaseException):
                await reader_task

    async def _ws_reader(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        closed: asyncio.Event,
    ) -> None:
        """Drain client frames: answer pings, notice close/EOF."""
        parser = FrameParser()
        try:
            while True:
                data = await reader.read(4096)
                if not data:
                    break
                for opcode, payload in parser.feed(data):
                    if opcode == OP_CLOSE:
                        with contextlib.suppress(Exception):
                            writer.write(encode_close())
                            await writer.drain()
                        return
                    if opcode == OP_PING:
                        writer.write(encode_frame(OP_PONG, payload))
                        await writer.drain()
        except (asyncio.CancelledError, ConnectionError):
            raise
        except Exception:
            pass
        finally:
            closed.set()


def attach_gateway(
    cluster,
    auth: Optional[AuthStore] = None,
    config: Optional[GatewayConfig] = None,
    consumer_name: str = "gateway-feed",
) -> GatewayServer:
    """Wire a gateway onto a :class:`~repro.core.LustreMonitor`.

    Builds the live scatter-gather client, the auth store (sharing the
    cluster's registry so tenant series land in one scrape), the
    internal SUB consumer feeding the fan-out hub, and registers the
    gateway under the cluster's supervisor — call before
    ``cluster.start()`` so the supervision tree starts it in order.
    """
    auth = auth or AuthStore(
        registry=cluster.registry,
        session_ttl=(config or GatewayConfig()).session_ttl,
    )
    client = ClusterClient.for_cluster(cluster, live=True)
    gateway = GatewayServer(
        client,
        auth=auth,
        config=config,
        registry=cluster.registry,
        health_provider=cluster.supervisor.health,
    )
    gateway.feed = cluster.subscribe(
        lambda _seq, _event: None,
        name=consumer_name,
        batch_callback=gateway.hub.publish_entries,
    )
    cluster.supervisor.add_child(gateway)
    return gateway
