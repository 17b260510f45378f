"""The multiproc transport backend: process-per-shard aggregation.

The inproc fabric shares one GIL, so shard count buys concurrency but
not CPU — the sharded-ingest bench plateaus regardless of shards.  This
module moves each shard's store+publish work into its own **child
process** while keeping every other component untouched:

* The parent side of a shard is a :class:`ProcessShardBridge` — a
  :class:`~repro.runtime.Service` that binds the shard's *real* inproc
  endpoints (PULL for reports, PUB for events, REP for the API) on the
  parent context.  Collectors, consumers, and clients connect to those
  endpoints exactly as they would to an in-process
  :class:`~repro.core.aggregator.Aggregator`; none of them can tell
  the difference.
* The child process runs a stock ``Aggregator`` driven synchronously.
  Report batches travel parent→child as marshal-framed bytes
  (:mod:`repro.msgq.framing` — pickle-free data plane); published
  batches and acknowledgements travel child→parent the same way.

**At-least-once across the process boundary.**  The bridge keeps every
forwarded batch in an in-flight map until the child acknowledges it
(acks are sent *after* the batch's publications, so an acked batch's
events are already on their way to subscribers).  When the child dies —
crash or :meth:`ProcessShardBridge.kill_child` — the bridge respawns it
seeded with ``start_seq = last acked seq + 1`` and replays the
in-flight batches in order.  The replayed batches receive the *same*
sequence numbers they would have had, so consumers' per-shard
watermarks dedup any double-published events exactly; nothing is lost
and nothing is delivered twice.  (The child's in-memory historic
window does not survive the restart — the live stream is the
loss-free path, as for a PUB message missed by a slow joiner.)

**Waking.**  The bridge never polls, and its pump never blocks: it
runs on the process scheduler with every other woken step.  Its
``bridge`` worker is rung by its own PULL and REP sockets (a report or
a request arriving) and by a ``reader`` thread, which only blocks on
the child→parent queue's pipe and the child's process sentinel: it
hands the frames it reads over and rings the bridge, so every frame is
handled on the scheduler.  Acks, publications and replies are handled
as they arrive, a child that dies is respawned at once, and reports or
requests held back by a full child inbox (they stay in their mailbox)
move on as soon as the child acks.

Children are started with the ``spawn`` method by default: forking a
multi-threaded parent (the scheduler, bridge readers, queue feeder
threads) risks cloning held locks; a fresh interpreter does not.
``spawn`` installs the parent's ``sys.path`` in the child before it
unpickles :func:`_shard_main`, so the child finds ``repro`` however
the parent did.  Its boot is the respawn latency, so it imports only
what it runs: the package ``__init__``s on its path export lazily.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import count
from multiprocessing.connection import wait
from typing import Any, Optional

from repro.errors import WouldBlock
from repro.msgq.context import Context
from repro.msgq.framing import (
    decode_entries,
    decode_report,
    encode_entries,
    encode_report,
)
from repro.runtime.scheduler import Wake
from repro.runtime.service import Service, ServiceCrash, WorkerSpec
from repro.telemetry.relay import RegistryRelay, decode_state

__all__ = ["MultiprocTransport", "ProcessShardBridge", "ShardChildSpec"]

#: Default child start method (see module docstring).
DEFAULT_START_METHOD = "spawn"

#: How often (seconds) the child ships its registry snapshot to the
#: parent; 0 disables the relay.  Snapshots ride the ordinary child
#: output queue, so they are strictly ordered with pubs and acks.
DEFAULT_RELAY_INTERVAL = 0.25

#: Frames the parent→child queue holds before the bridge stops
#: draining its PULL socket (backpressure propagates to collectors
#: through the socket's own credits).
DEFAULT_INBOX_FRAMES = 64

#: Longest the reader worker blocks on the child before re-checking
#: for a stop (seconds): stopping a bridge waits up to this long.
_READER_TIMEOUT = 0.05

#: Most frames the reader hands over per ring, so a streaming child
#: cannot keep the handoff lock from the pump.
_READER_BATCH = 64

#: The child's capture subscription must never drop a publication —
#: it is drained after every batch, so depth stays one batch deep.
_CAPTURE_HWM = 1 << 30


@dataclass(frozen=True)
class ShardChildSpec:
    """Everything a spawned shard process needs (must stay picklable)."""

    shard_id: str
    config: Any  # AggregatorConfig; typed loosely to avoid a core import
    start_seq: int = 1
    want_pubs: bool = False
    flush_batch_events: Optional[int] = None
    relay_interval: float = DEFAULT_RELAY_INTERVAL


def _forward_pubs(capture, events_q, want_pubs: bool) -> None:
    """Ship the publications of the batch just handled to the parent.

    With no parent-side subscribers the frames are skipped entirely
    (the capture queue is still drained so it never grows).
    """
    try:
        messages = capture.recv_many(block=False)
    except WouldBlock:
        return
    if not want_pubs:
        return
    for topic, payload in messages:
        events_q.put(("pub", topic, encode_entries(payload)))


def _shard_main(spec: ShardChildSpec, inbox_q, events_q) -> None:
    """Child process entry point: a synchronously driven Aggregator.

    Frames in: ``("batch", bid, bytes)``, ``("req", rid, bytes)``,
    ``("want", bool)``, ``("tune", {...})``, ``("relay",)``,
    ``("stop",)``.
    Frames out: ``("pub", topic, bytes)``, ``("ack", bid, last_seq)``,
    ``("reply", rid, bytes)``, ``("metrics", bytes)``,
    ``("crashed", reason)``.

    Publications are forwarded *before* the batch's ack, so an acked
    batch's events are always ahead of the ack in the FIFO — the
    ordering the bridge's at-least-once accounting relies on.
    """
    from repro.core.aggregator import Aggregator
    from repro.metrics.registry import MetricsRegistry
    from repro.telemetry.relay import encode_state

    transport = Context()
    aggregator = Aggregator(
        transport, spec.config, registry=MetricsRegistry(),
        name=spec.shard_id,
    )
    if aggregator.store.last_seq >= spec.start_seq:
        # A durable store recovered *past* the parent's ack watermark
        # (it logged batches whose acks never arrived).  Trim back to
        # the watermark: the parent replays every unacked batch, so the
        # replayed events regenerate their original sequence numbers
        # and downstream watermark dedup works unchanged.  The acked
        # history below the watermark survives the restart.
        aggregator.store.discard_after(spec.start_seq - 1)
    elif spec.start_seq > 1:
        # Resume the sequence space where the acked history ended, so
        # replayed in-flight batches get their original numbers.
        aggregator.store._next_seq = max(
            aggregator.store._next_seq, spec.start_seq
        )
    if spec.flush_batch_events is not None:
        aggregator.flush_batch_events = spec.flush_batch_events
    capture = (
        transport.sub(hwm=_CAPTURE_HWM)
        .connect(spec.config.publish_endpoint)
        .subscribe("")
    )
    want_pubs = spec.want_pubs
    parent = multiprocessing.parent_process()

    def _ship_metrics() -> None:
        # Best-effort only against a full output queue: the parent is
        # behind on real work, and dropping a snapshot delays one relay
        # tick.  Any other fault escapes and kills the child loudly.
        state = aggregator.metrics.registry.export_state()
        try:
            events_q.put_nowait(("metrics", encode_state(state)))
        except queue.Full:
            pass

    last_relay = time.monotonic()

    def _maybe_relay() -> None:
        nonlocal last_relay
        if spec.relay_interval <= 0:
            return
        now = time.monotonic()
        if now - last_relay >= spec.relay_interval:
            _ship_metrics()
            last_relay = now

    while True:
        try:
            frame = inbox_q.get(timeout=0.1)
        except queue.Empty:
            if parent is not None and not parent.is_alive():
                break
            _maybe_relay()
            continue
        kind = frame[0]
        if kind == "stop":
            break
        try:
            if kind == "batch":
                bid, data = frame[1], frame[2]
                aggregator._handle_batch(decode_report(data))
                _forward_pubs(capture, events_q, want_pubs)
                events_q.put(("ack", bid, aggregator.store.last_seq))
            elif kind == "req":
                rid, data = frame[1], frame[2]
                request = pickle.loads(data)
                try:
                    answer = aggregator._answer(request)
                except Exception as exc:  # delivered to the requester
                    answer = exc
                events_q.put(("reply", rid, pickle.dumps(answer)))
            elif kind == "want":
                want_pubs = bool(frame[1])
            elif kind == "tune":
                knobs = frame[1]
                if "batch_events" in knobs:
                    aggregator.flush_batch_events = int(
                        knobs["batch_events"]
                    )
            elif kind == "relay":
                _ship_metrics()
                last_relay = time.monotonic()
            _maybe_relay()
        except Exception as exc:
            try:
                events_q.put_nowait(
                    ("crashed", f"{type(exc).__name__}: {exc}")
                )
            except Exception:
                pass
            raise
    # Graceful exit: a last snapshot (so the parent's merged series end
    # at the child's final truth), then flush the durable backend
    # (no-op for memory) so a clean stop leaves no torn tail for the
    # next incarnation.
    if spec.relay_interval > 0:
        _ship_metrics()
    aggregator.store.close()


class ProcessShardBridge(Service):
    """Parent-side stand-in for one aggregator shard running out-of-proc.

    Duck-types the slice of :class:`~repro.core.aggregator.Aggregator`
    the rest of the system touches — ``config``, ``pump_once``,
    ``serve_api_once``, ``worker_specs``, the occupancy/flush-tuning
    hooks — so `LustreMonitor` swaps it in per shard
    based on the transport config and nothing downstream changes.
    """

    def __init__(
        self,
        shard_id: str,
        config,
        context: Context,
        registry=None,
        start_method: str = DEFAULT_START_METHOD,
        inbox_frames: int = DEFAULT_INBOX_FRAMES,
        relay_interval: float = DEFAULT_RELAY_INTERVAL,
    ) -> None:
        super().__init__(shard_id, registry)
        self.config = config
        self.context = context
        self.inbound = context.pull(hwm=config.hwm).bind(
            config.inbound_endpoint
        )
        self.publisher = context.pub(hwm=config.hwm).bind(
            config.publish_endpoint
        )
        self.api = context.rep(hwm=config.hwm).bind(config.api_endpoint)
        self._wake = Wake()
        self.inbound.wakers.add(self._wake)
        self.api.wakers.add(self._wake)
        self._mp = multiprocessing.get_context(start_method)
        self._inbox_frames = inbox_frames
        self._inbox_q = None
        self._events_q = None
        self._proc = None
        self._pump_lock = threading.RLock()
        #: Child frames the reader thread read, in order, not yet
        #: handled.  Every read of the child queue happens under
        #: ``_handoff_lock`` and lands here before any later one.
        self._handoff: deque = deque()
        self._handoff_lock = threading.Lock()
        #: Set by every (re)spawn: the reader waits on it after seeing
        #: the child die, instead of spinning on the dead sentinel.
        self._respawned = threading.Event()
        self._bid_counter = count(1)
        self._rid_counter = count(1)
        #: Forwarded-but-unacked batches, by batch id, in send order.
        self._inflight: dict[int, bytes] = {}
        self._pending_replies: dict[int, Any] = {}
        self._pending_requests: dict[int, bytes] = {}
        self._last_acked_seq = 0
        self._want_pubs = False
        self._flush_batch_events = config.batch_events
        self._tuning_dirty = False
        self._child_error: Optional[str] = None
        #: Consecutive child deaths without a single new ack — a child
        #: that cannot even start must not turn the pump into a fork
        #: storm; after a few fruitless respawns the bridge crashes
        #: itself and the supervisor's restart policy takes over.
        self._fruitless_respawns = 0
        self._spawn_acked = 0
        # Counters mirror the Aggregator's names so cluster stats read
        # uniformly across backends.
        self._batches_received = self.metrics.counter("batches_received")
        self._events_forwarded = self.metrics.counter("events_forwarded")
        self._batches_acked = self.metrics.counter("batches_acked")
        self._events_published = self.metrics.counter("events_published")
        self._batches_published = self.metrics.counter("batches_published")
        self._child_restarts = self.metrics.counter("child_restarts")
        self.metrics.gauge_fn("events_stored", lambda: self._last_acked_seq)
        self.metrics.gauge_fn(
            "store_len",
            lambda: min(self._last_acked_seq, config.store_max_events),
        )
        self.metrics.gauge_fn("inflight_batches", lambda: len(self._inflight))
        self.metrics.gauge_fn("inbound_depth", lambda: self.inbound.pending)
        self.metrics.gauge_fn("inbound_hwm", lambda: self.inbound.hwm)
        self.metrics.gauge_fn("inbound_credits", lambda: self.inbound.credits)
        self.metrics.gauge_fn("api_depth", lambda: self.api.pending)
        # Child→parent metrics relay: child registry snapshots merge
        # into the parent registry under this bridge's scope.  The epoch
        # bumps on every (re)spawn so relayed counters resume monotone
        # across child incarnations; parent-local series (the mirrors
        # above) always win over relayed ones.
        self.relay_interval = relay_interval
        self._relay_epoch = 0
        self._relay = RegistryRelay(
            self.metrics.registry,
            scope=self.metrics.scope,
            strip_scopes=(shard_id,),
        )
        self._relay_frames = self.metrics.counter("relay_frames")
        self._spawn()

    # -- tuning / observability hooks (Aggregator-compatible) ---------------

    def occupancy(self) -> tuple[int, int]:
        """(depth, capacity) for the adaptive flush controller — parent
        backlog plus batches already committed to the child."""
        return (self.inbound.pending + len(self._inflight), self.config.hwm)

    @property
    def flush_batch_events(self) -> int:
        return self._flush_batch_events

    @flush_batch_events.setter
    def flush_batch_events(self, value: int) -> None:
        with self._pump_lock:
            self._flush_batch_events = int(value)
            self._tuning_dirty = True
        self._wake.set()

    @property
    def busy(self) -> bool:
        """True while any batch or request is still crossing the bridge."""
        return bool(
            self._inflight or self._pending_replies or self.inbound.pending
        )

    @property
    def events_stored(self) -> int:
        """Events the child has durably acked (same name as Aggregator)."""
        return self._last_acked_seq

    # -- child lifecycle ----------------------------------------------------

    def _spawn(self) -> None:
        self._inbox_q = self._mp.Queue(self._inbox_frames)
        self._events_q = self._mp.Queue(self._inbox_frames * 4 + 16)
        # New incarnation: relayed counters fold the dead child's final
        # values into their offsets.  Bumped before any frame from the
        # new child can arrive.
        self._relay_epoch += 1
        spec = ShardChildSpec(
            shard_id=self.name,
            config=self.config,
            start_seq=self._last_acked_seq + 1,
            want_pubs=self._want_pubs,
            flush_batch_events=(
                self._flush_batch_events
                if self._flush_batch_events != self.config.batch_events
                else None
            ),
            relay_interval=self.relay_interval,
        )
        self._proc = self._mp.Process(
            target=_shard_main,
            args=(spec, self._inbox_q, self._events_q),
            name=f"shard-{self.name}",
            daemon=True,
        )
        self._proc.start()
        self._spawn_acked = self._last_acked_seq
        # Replay: unacked batches in original order get their original
        # sequence numbers (the child was seeded past the acked ones).
        for bid, data in sorted(self._inflight.items()):
            self._inbox_q.put(("batch", bid, data))
        for rid, data in sorted(self._pending_requests.items()):
            self._inbox_q.put(("req", rid, data))
        self._tuning_dirty = self._flush_batch_events != self.config.batch_events
        self._respawned.set()

    def _discard_queues(self) -> None:
        for q in (self._inbox_q, self._events_q):
            if q is None:
                continue
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        self._inbox_q = self._events_q = None
        self._respawned.clear()

    def _ensure_child(self) -> int:
        proc = self._proc
        if proc is not None and proc.is_alive():
            return 0
        if proc is not None:
            proc.join(timeout=0.5)
            # Whatever the dead child managed to emit is still real
            # work: acks clear in-flight, pubs reach subscribers.
            self._drain_child()
            self._discard_queues()
            self._child_restarts.inc()
            if self._last_acked_seq > self._spawn_acked:
                self._fruitless_respawns = 0
            else:
                self._fruitless_respawns += 1
                if self._fruitless_respawns >= 5:
                    raise ServiceCrash(
                        f"shard child {self.name!r} keeps dying without "
                        f"progress (last error: {self._child_error})"
                    )
        self._spawn()
        return 1

    def request_metrics(self) -> bool:
        """Ask the child for an immediate registry snapshot (the reply
        arrives as a ``metrics`` frame on a later pump).  Returns False
        when the control queue is full — retry on the next pump."""
        try:
            self._inbox_q.put_nowait(("relay",))
            return True
        except Exception:
            return False

    @property
    def relay_merges(self) -> int:
        """Relay snapshots merged into the parent registry so far."""
        return self._relay.merges

    def kill_child(self) -> None:
        """SIGKILL the shard process (failover testing).  The next pump
        respawns it and replays the in-flight batches."""
        proc = self._proc
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)

    def _shutdown_child(self) -> None:
        proc = self._proc
        if proc is None:
            return
        if proc.is_alive():
            try:
                self._inbox_q.put(("stop",), timeout=0.2)
            except Exception:
                pass
            proc.join(timeout=1.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)
        self._discard_queues()
        self._proc = None

    # -- pumping ------------------------------------------------------------

    def _inbox_capacity(self) -> int:
        try:
            depth = self._inbox_q.qsize()
        except (NotImplementedError, OSError):
            depth = 0
        return max(self._inbox_frames - depth, 0)

    def _sync_want_pubs(self) -> int:
        # _want_pubs tracks what the child believes; it only advances
        # when the frame is actually queued (put_nowait, so a wedged or
        # dying child can never block the pump — the sync just retries).
        has_subs = self.publisher.subscriber_count > 0
        work = 0
        if has_subs != self._want_pubs:
            try:
                self._inbox_q.put_nowait(("want", has_subs))
                self._want_pubs = has_subs
                work += 1
            except queue.Full:
                pass
        if self._tuning_dirty:
            try:
                self._inbox_q.put_nowait(
                    ("tune", {"batch_events": self._flush_batch_events})
                )
                self._tuning_dirty = False
                work += 1
            except queue.Full:
                pass  # retried on the next pump
        return work

    def _forward_reports(self) -> int:
        work = 0
        capacity = self._inbox_capacity()
        while capacity > 0:
            try:
                payload = self.inbound.recv(block=False)
            except WouldBlock:
                break
            data = encode_report(payload)
            bid = next(self._bid_counter)
            try:
                self._inbox_q.put_nowait(("batch", bid, data))
            except queue.Full:
                # The report stays in the PULL mailbox for a later pump.
                self.inbound.requeue([payload])
                break
            self._inflight[bid] = data
            self._batches_received.inc()
            try:
                self._events_forwarded.inc(len(payload))
            except TypeError:
                pass
            capacity -= 1
            work += 1
        return work

    def _forward_requests(self) -> int:
        work = 0
        while self._inbox_capacity() > 0:
            try:
                request, channel = self.api.recv(timeout=0)
            except WouldBlock:
                break
            rid = next(self._rid_counter)
            data = pickle.dumps(request)
            try:
                self._inbox_q.put_nowait(("req", rid, data))
            except queue.Full:
                # Give the request back to the REP mailbox untouched.
                self.api._requests.requeue([(request, channel)])
                break
            self._pending_replies[rid] = channel
            self._pending_requests[rid] = data
            work += 1
        return work

    def _handle_frame(self, frame) -> None:
        kind = frame[0]
        if kind == "pub":
            topic, data = frame[1], frame[2]
            if self.publisher.subscriber_count:
                batch = decode_entries(data)
                self.publisher.send(topic, batch)
                self._batches_published.inc()
                self._events_published.inc(len(batch))
        elif kind == "ack":
            bid, last_seq = frame[1], frame[2]
            self._inflight.pop(bid, None)
            self._last_acked_seq = max(self._last_acked_seq, last_seq)
            self._batches_acked.inc()
        elif kind == "reply":
            rid, data = frame[1], frame[2]
            channel = self._pending_replies.pop(rid, None)
            self._pending_requests.pop(rid, None)
            if channel is not None:
                channel.send(pickle.loads(data))
        elif kind == "metrics":
            self._relay.merge(decode_state(frame[1]), self._relay_epoch)
            self._relay_frames.inc()
        elif kind == "crashed":
            self._child_error = frame[1]
            self._service_log.warning(
                "shard child crashed: %s", self._child_error
            )

    def _take_frames(self, events_q, limit: Optional[int] = None) -> list:
        """Read the child's pending frames, in order (handoff lock held)."""
        frames: list = []
        if events_q is None:  # between a child's death and its respawn
            return frames
        while limit is None or len(frames) < limit:
            try:
                frames.append(events_q.get_nowait())
            except (queue.Empty, OSError, ValueError):
                break
        return frames

    def _drain_child(self) -> int:
        with self._handoff_lock:
            frames = list(self._handoff)
            self._handoff.clear()
            frames += self._take_frames(self._events_q)
        for frame in frames:
            self._handle_frame(frame)
        return len(frames)

    def pump_once(self, timeout: float = 0.0) -> int:
        """One bridge sweep; returns the number of frames moved.

        Order matters: child liveness first (respawn+replay), then the
        want-pubs/tuning sync (control frames precede data in the
        FIFO), then report/API forwarding, then the child's output.
        *timeout* is accepted for Aggregator signature compatibility;
        the bridge never blocks — its service workers do the waiting.
        """
        with self._pump_lock:
            work = self._ensure_child()
            work += self._sync_want_pubs()
            work += self._forward_reports()
            work += self._forward_requests()
            work += self._drain_child()
            return work

    def serve_api_once(self, timeout: float = 0.0) -> bool:
        """Pump until the bridge settles one step (MonitorClient's
        deterministic ``call_with_pump`` driver calls this)."""
        work = self.pump_once()
        if work == 0 and timeout > 0:
            time.sleep(min(timeout, 0.005))
        return work > 0

    # -- service runtime ----------------------------------------------------

    def _wait_child(self, timeout: float) -> list:
        """Block until the child has output or has died (or *timeout*);
        returns what is ready.  A queue closed under the wait by a
        respawn counts as ready, so the caller re-reads."""
        events_q, proc = self._events_q, self._proc
        if events_q is None or proc is None:
            self._respawned.wait(timeout)
            return []
        try:
            return wait([events_q._reader, proc.sentinel], timeout=timeout)
        except (OSError, ValueError):
            return [None]

    def _read_child(self) -> None:
        """Reader step: wait for the child, hand its frames over, ring.

        The reader never handles a frame itself — the bridge step does,
        on the scheduler.  After the child dies it rings once and waits
        for the respawn rather than spinning on the dead sentinel.
        """
        events_q, proc = self._events_q, self._proc
        ready = self._wait_child(_READER_TIMEOUT)
        if not ready:
            return
        if events_q is not None and events_q._reader in ready:
            with self._handoff_lock:
                self._handoff.extend(
                    self._take_frames(events_q, _READER_BATCH)
                )
        if proc is not None and proc.sentinel in ready:
            self._respawned.clear()
            if self._proc is proc:
                self._wake.set()
                self._respawned.wait(_READER_TIMEOUT)
            return
        self._wake.set()

    def worker_specs(self) -> list[WorkerSpec]:
        # The reader blocks in its own step, so it keeps a thread.
        return [
            WorkerSpec("bridge", self.pump_once, wake=self._wake),
            WorkerSpec("reader", self._read_child, interval=0.0),
        ]

    def on_stop(self) -> None:
        # Final settle: collect outstanding acks/replies so a stop in
        # the middle of a burst does not leave batches unaccounted.
        deadline = time.monotonic() + 2.0
        while self.busy:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if self.pump_once() == 0:
                self._wait_child(remaining)

    def on_close(self) -> None:
        self.inbound.wakers.remove(self._wake)
        self.api.wakers.remove(self._wake)
        with self._pump_lock:
            self._shutdown_child()
        self.inbound.close()
        self.publisher.close()
        self.api.close()


class MultiprocTransport(Context):
    """An inproc context extended with the process-per-shard factory.

    Parent-side sockets are ordinary inproc sockets (collectors,
    consumers, and clients need no changes); :meth:`process_shard`
    manufactures the bridges that put each shard's aggregation work in
    its own process.  Closing the transport shuts the bridges (and
    their children) down first, then the socket population.
    """

    scheme = "multiproc"

    def __init__(self, start_method: str = DEFAULT_START_METHOD) -> None:
        super().__init__()
        self.start_method = start_method
        self._bridges: list[ProcessShardBridge] = []

    def process_shard(
        self, shard_id: str, config, registry=None,
        relay_interval: float = DEFAULT_RELAY_INTERVAL,
    ) -> ProcessShardBridge:
        """Spawn one shard's child process and return its bridge."""
        bridge = ProcessShardBridge(
            shard_id, config, self,
            registry=registry, start_method=self.start_method,
            relay_interval=relay_interval,
        )
        self._bridges.append(bridge)
        return bridge

    def close(self) -> None:
        for bridge in self._bridges:
            bridge.close()
        self._bridges.clear()
        super().close()
