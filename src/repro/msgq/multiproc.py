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
* The child process runs only the shard's store half
  (:class:`~repro.core.shard.ShardStore`, spawned at
  :func:`~repro.core.shard._shard_main`): no aggregator, sockets,
  scheduler or publish counters.  Report batches travel parent→child as
  marshal-framed bytes (:mod:`repro.msgq.framing` — pickle-free data
  plane), and the child answers each with one small ack frame.
* A batch crosses the process boundary once.  The bridge keeps each
  forwarded report's events beside its frame, and publishes those very
  objects when the ack arrives, through the same publish code the
  in-process ``Aggregator`` runs
  (:class:`~repro.core.aggregator.StoredBatchPublisher`).

**Publish on ack.**  The child stores a batch and acks it with the last
sequence number it assigned (and the batch's ``aggregated_ts`` stamp
when traced); a batch of *n* events holds ``last_seq - n + 1 ..
last_seq``.  The bridge keeps every forwarded batch in an in-flight map
until that ack, and publishes the batch on it — once, since a batch id
is acked at most once.  When the child dies — crash or
:meth:`ProcessShardBridge.kill_child` — the bridge first handles every
ack the dead child wrote, then respawns it seeded with ``start_seq =
last acked seq + 1`` and replays the still-unacked batches in order.
The replayed batches receive the *same* sequence numbers they would
have had and are published on their one ack, so each ``(shard, seq)``
is published exactly once by construction; nothing is lost and nothing
is delivered twice.  (The child's in-memory historic window does not
survive the restart — the live stream is the loss-free path, as for a
PUB message missed by a slow joiner.)

**Waking.**  The bridge never polls, and its pump never blocks: it
runs on the process scheduler with every other woken step.  Its
``bridge`` worker is rung by its own PULL and REP sockets (a report or
a request arriving) and by a ``reader`` thread, which only blocks on
the child's output pipe, its process sentinel and a self-pipe that a
stop and every respawn write, with no timeout: it reads the frames
with ``recv_bytes``, hands them over and rings the bridge, so every
frame is handled on the scheduler.  Acks (and so publications) and
replies are handled as they arrive, a child that dies is respawned at
once, and reports or requests held back by a full child inbox (they
stay in their mailbox) move on as soon as the child catches up.

**One pipe write per hop.**  Each direction is one one-way
``multiprocessing.Pipe``, and the thread that produces a frame writes
it (``send_bytes`` of a marshal tuple): no queue buffer and no feeder
thread stand between a frame and the pipe.  A full pipe blocks its
writer.  The child may block, since the ``reader`` always drains its
output; the bridge may not, so it counts the pipe pages it has written
since it last saw the inbox pipe empty and writes a frame only while
that count fits the pipe's capacity (``F_GETPIPE_SZ``), and at most
``inbox_frames`` frames; the rest wait in the PULL socket, whose
credits push back on collectors.  A report too
long to ever fit is cut at event boundaries into several batches.
The parent closes its copies of the child's pipe ends, so the death of
either side is an EOF for the other.

Children are started with the ``spawn`` method by default: forking a
multi-threaded parent (the scheduler, bridge readers) risks cloning
held locks; a fresh interpreter does not.
``spawn`` installs the parent's ``sys.path`` in the child before it
unpickles :func:`~repro.core.shard._shard_main` and its
:class:`~repro.core.shard.ShardChildSpec`, so the child finds
``repro`` however the parent did.  Its boot is the respawn latency, so
it imports only what it runs: the spawn target lives in the lean
:mod:`repro.core.shard` (not here), the frame pipes in
:mod:`repro.msgq.pipes`, and the package ``__init__``s on its path
export lazily.
"""

from __future__ import annotations

import contextlib
import marshal
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from itertools import count
from multiprocessing.connection import wait
from typing import Any, Optional

from repro.core.aggregator import StoredBatchPublisher
from repro.core.events import ReportBatch, iter_report
from repro.core.shard import DEFAULT_RELAY_INTERVAL, ShardChildSpec, _shard_main
from repro.errors import WouldBlock
from repro.metrics.tracing import TRACE_SCOPE, make_tracer
from repro.msgq.context import Context
from repro.msgq.framing import encode_report
from repro.msgq.pipes import (
    _PAGE,
    DEFAULT_MAX_FRAMES,
    _frame_pages,
    _FramePipe,
    _read_frame,
)

# The codec stays importable from here by name: perfbench's tracer
# wraps ``decode_report``, ``encode_entries`` and ``decode_entries`` in
# this module (the shard child decodes reports in repro.core.shard).
from repro.msgq.framing import (  # noqa: F401
    decode_entries,
    decode_report,
    encode_entries,
)
from repro.runtime.scheduler import Wake
from repro.runtime.service import Service, ServiceCrash, WorkerSpec
from repro.telemetry.relay import RegistryRelay, decode_state

__all__ = ["MultiprocTransport", "ProcessShardBridge"]

#: Default child start method (see module docstring).
DEFAULT_START_METHOD = "spawn"

#: Most frames the reader hands over per ring, so a streaming child
#: cannot keep the handoff lock from the pump.
_READER_BATCH = 64


def _split_report(payload, nbytes: int, window: int) -> list:
    """Cut a report whose frame of *nbytes* overflows a *window*-page
    pipe into consecutive reports of about half a window each (so one
    can wait in the pipe while the child handles another).  Returns []
    for a report that cannot be cut: not an event list, or one event.
    """
    if isinstance(payload, ReportBatch):
        events = payload.events
    elif isinstance(payload, list):
        events = payload
    else:
        return []
    if len(events) < 2:
        return []
    parts = min(max(-(-nbytes * 2 // (window * _PAGE)), 2), len(events))
    size = -(-len(events) // parts)
    chunks = [events[i:i + size] for i in range(0, len(events), size)]
    if isinstance(payload, ReportBatch):
        return [ReportBatch(chunk, payload.collected_ts) for chunk in chunks]
    return chunks


class ProcessShardBridge(StoredBatchPublisher, Service):
    """Parent-side stand-in for one aggregator shard running out-of-proc.

    Duck-types the slice of :class:`~repro.core.aggregator.Aggregator`
    the rest of the system touches — ``config``, ``pump_once``,
    ``serve_api_once``, ``worker_specs``, the occupancy/flush-tuning
    hooks — so `LustreMonitor` swaps it in per shard
    based on the transport config and nothing downstream changes.  It
    publishes with the aggregator's own publish half, so its
    ``flush_batch_events`` is the live knob the autotuner turns.
    """

    def __init__(
        self,
        shard_id: str,
        config,
        context: Context,
        registry=None,
        start_method: str = DEFAULT_START_METHOD,
        inbox_frames: int = DEFAULT_MAX_FRAMES,
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
        #: The parent's ends of the child's pipes: it writes the inbox
        #: and reads the output.
        self._inbox: Optional[_FramePipe] = None
        self._outbox = None
        self._proc = None
        self._pump_lock = threading.RLock()
        #: Frames a respawned child gets before any new work.
        self._replay: deque = deque()
        #: ``(item, id, data, frame)`` for the report and the request
        #: whose frame did not fit the pipe: the item waits at the head
        #: of its mailbox, and the next pump re-sends the same frame.
        self._held_report: Optional[tuple] = None
        self._held_request: Optional[tuple] = None
        #: Child frames the reader thread read, in order, not yet
        #: handled.  Every read of the output pipe happens under
        #: ``_handoff_lock`` and lands here before any later one.
        self._handoff: deque = deque()
        self._handoff_lock = threading.Lock()
        #: Set by every (re)spawn: a caller that waits on the child
        #: while it is being replaced waits on this instead.
        self._respawned = threading.Event()
        #: The reader's self-pipe, written by a stop and by every
        #: (re)spawn: the reader blocks on it beside the child's pipe
        #: and sentinel, with no timeout.
        self._ring_r, self._ring_w = os.pipe()
        os.set_blocking(self._ring_r, False)
        os.set_blocking(self._ring_w, False)
        self._bid_counter = count(1)
        self._rid_counter = count(1)
        #: Forwarded-but-unacked batches, by batch id, in send order:
        #: ``(frame data, events, collected_ts)``.  The data is what a
        #: respawned child is replayed; the events are what the ack
        #: publishes.
        self._inflight: dict[int, tuple[bytes, Any, Optional[float]]] = {}
        self._pending_replies: dict[int, Any] = {}
        self._pending_requests: dict[int, bytes] = {}
        self._last_acked_seq = 0
        #: Live flush knob, as on the Aggregator (the config is frozen).
        self.flush_batch_events = config.batch_events
        #: Records the ``aggregate`` and ``publish`` stages of the
        #: batches it publishes, under this bridge's scope (the child
        #: stamps ``aggregated_ts`` and acks it).
        self.tracer = make_tracer(
            self.metrics,
            config.trace_sample_rate,
            scope=f"{self.metrics.scope}.{TRACE_SCOPE}",
        )
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
        inbox_r, inbox_w = self._mp.Pipe(duplex=False)
        self._outbox, outbox_w = self._mp.Pipe(duplex=False)
        self._inbox = _FramePipe(inbox_w, self._inbox_frames)
        # New incarnation: relayed counters fold the dead child's final
        # values into their offsets.  Bumped before any frame from the
        # new child can arrive.
        self._relay_epoch += 1
        spec = ShardChildSpec(
            shard_id=self.name,
            config=self.config,
            start_seq=self._last_acked_seq + 1,
            relay_interval=self.relay_interval,
        )
        self._proc = self._mp.Process(
            target=_shard_main,
            args=(spec, inbox_r, outbox_w),
            name=f"shard-{self.name}",
            daemon=True,
        )
        try:
            self._proc.start()
        finally:
            # Only the child holds these ends now, so its death is an
            # EOF on the output pipe and ours is one on its inbox.
            inbox_r.close()
            outbox_w.close()
        self._spawn_acked = self._last_acked_seq
        # Replay: unacked batches in original order get their original
        # sequence numbers (the child was seeded past the acked ones).
        self._replay = deque(
            [
                ("batch", bid, batch[0])
                for bid, batch in sorted(self._inflight.items())
            ]
            + [
                ("req", rid, data)
                for rid, data in sorted(self._pending_requests.items())
            ]
        )
        self._respawned.set()
        self._ring_reader()

    def _discard_pipes(self) -> None:
        with self._handoff_lock:
            conns = [self._outbox]
            if self._inbox is not None:
                conns.append(self._inbox.conn)
            for conn in conns:
                if conn is not None:
                    with contextlib.suppress(OSError):
                        conn.close()
            self._inbox = self._outbox = None
        self._respawned.clear()

    def _ensure_child(self) -> int:
        proc = self._proc
        if proc is not None and proc.is_alive():
            return 0
        if proc is not None:
            proc.join(timeout=0.5)
            # Whatever the dead child managed to emit is still real
            # work: an ack publishes its batch, which then needs no
            # replay.  Its pipe ends are closed, so reading here ends
            # at EOF.
            self._drain_child(read=True)
            self._discard_pipes()
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
        when the child's inbox pipe is full — retry on the next pump."""
        with self._pump_lock:
            if self._inbox is None:
                return False
            return self._send(marshal.dumps(("relay",)))

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
            # EOF on its inbox stops the child after the frames ahead.
            with contextlib.suppress(OSError):
                self._inbox.conn.close()
            proc.join(timeout=1.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)
        self._discard_pipes()
        self._proc = None

    # -- pumping ------------------------------------------------------------

    def _send(self, frame: bytes) -> bool:
        """Write one encoded frame if it fits the inbox pipe now."""
        try:
            return self._inbox.write_if_fits(frame)
        except OSError:
            # The child died; its next incarnation gets what counts
            # (in-flight batches and pending requests) at spawn.
            return True

    def _held_fits(self, held: Optional[tuple]) -> bool:
        return held is None or self._inbox.fits(_frame_pages(len(held[3])))

    def _flush_replay(self) -> int:
        work = 0
        while self._replay and self._send(marshal.dumps(self._replay[0])):
            self._replay.popleft()
            work += 1
        return work

    def _forward_reports(self) -> int:
        work = 0
        while not self._replay and self._held_fits(self._held_report):
            try:
                payload = self.inbound.recv(block=False)
            except WouldBlock:
                break
            held = self._held_report
            if held is not None and held[0] is payload:
                _, bid, data, frame = held
            else:
                data = encode_report(payload)
                window = self._inbox.window
                if _frame_pages(len(data)) > window:
                    parts = _split_report(payload, len(data), window)
                    if parts:
                        self.inbound.requeue(parts)
                        continue
                bid = next(self._bid_counter)
                frame = marshal.dumps(("batch", bid, data))
            if not self._send(frame):
                # The report stays in the PULL mailbox for a later pump.
                self.inbound.requeue([payload])
                self._held_report = (payload, bid, data, frame)
                break
            self._held_report = None
            events, collected_ts = iter_report(payload)
            self._inflight[bid] = (data, events, collected_ts)
            self._batches_received.inc()
            self._events_forwarded.inc(len(events))
            work += 1
        return work

    def _forward_requests(self) -> int:
        work = 0
        while not self._replay and self._held_fits(self._held_request):
            try:
                request, channel = self.api.recv(timeout=0)
            except WouldBlock:
                break
            held = self._held_request
            if held is not None and held[0] is request:
                _, rid, data, frame = held
            else:
                rid = next(self._rid_counter)
                data = pickle.dumps(request)
                frame = marshal.dumps(("req", rid, data))
            if not self._send(frame):
                # Give the request back to the REP mailbox untouched.
                self.api._requests.requeue([(request, channel)])
                self._held_request = (request, rid, data, frame)
                break
            self._held_request = None
            self._pending_replies[rid] = channel
            self._pending_requests[rid] = data
            work += 1
        return work

    def _handle_frame(self, frame) -> None:
        kind = frame[0]
        if kind == "ack":
            bid, last_seq, aggregated_ts = frame[1:]
            batch = self._inflight.pop(bid, None)
            self._last_acked_seq = max(self._last_acked_seq, last_seq)
            self._batches_acked.inc()
            if batch is not None:
                _data, events, collected_ts = batch
                self._publish_stored(
                    events, last_seq - len(events) + 1,
                    collected_ts, aggregated_ts,
                )
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

    def _take_frames(self, outbox, limit: Optional[int] = None) -> list:
        """Read the child's pending frames, in order (handoff lock held).

        Reads nothing from a pipe a respawn has replaced, and stops at
        EOF: a dead child's death is its sentinel's to report.
        """
        frames: list = []
        if outbox is None or outbox is not self._outbox:
            return frames
        try:
            while (limit is None or len(frames) < limit) and outbox.poll():
                frames.append(_read_frame(outbox))
        except (EOFError, OSError):
            pass
        return frames

    def _drain_child(self, read: bool = False) -> int:
        """Handle the frames handed over; with *read*, also read the
        output pipe here (no reader thread runs, or the child is dead).
        """
        with self._handoff_lock:
            frames = list(self._handoff)
            self._handoff.clear()
            if read:
                frames += self._take_frames(self._outbox)
        for frame in frames:
            self._handle_frame(frame)
        return len(frames)

    def pump_once(self, timeout: float = 0.0) -> int:
        """One bridge sweep; returns the number of frames moved.

        Order matters: child liveness first (respawn), then the replay
        of a respawned child's unanswered frames, then report/API
        forwarding, then the child's output (whose acks publish).
        *timeout* is accepted for Aggregator signature compatibility;
        the bridge never blocks — its service workers do the waiting.
        While the ``reader`` thread runs, only it reads the child's
        pipe, so a frame the child is still writing never holds the
        scheduler.
        """
        with self._pump_lock:
            work = self._ensure_child()
            work += self._flush_replay()
            work += self._forward_reports()
            work += self._forward_requests()
            work += self._drain_child(read=not self._worker_threads)
            return work

    def serve_api_once(self, timeout: float = 0.0) -> bool:
        """One pump step for a caller that answers the API itself (a
        pumped ``ClusterClient`` request on an unstarted bridge).

        A step that moved nothing waits up to *timeout* for the child's
        next frame (or its death), so the reply is handled by the very
        next step.
        """
        work = self.pump_once()
        if work == 0 and timeout > 0:
            self._wait_child(timeout)
        return work > 0

    # -- service runtime ----------------------------------------------------

    def _wait_child(self, timeout: float) -> list:
        """Block until the child has output or has died (or *timeout*);
        returns what is ready.  A pipe closed under the wait by a
        respawn counts as ready, so the caller re-reads."""
        outbox, proc = self._outbox, self._proc
        if outbox is None or proc is None:
            self._respawned.wait(timeout)
            return []
        try:
            return wait([outbox, proc.sentinel], timeout=timeout)
        except (OSError, ValueError):
            return [None]

    def _ring_reader(self) -> None:
        # A full pipe already holds a ring; a closed bridge has no reader.
        if self._ring_w is not None:
            with contextlib.suppress(BlockingIOError):
                os.write(self._ring_w, b"\0")

    def _drain_rings(self) -> None:
        with contextlib.suppress(BlockingIOError):
            while os.read(self._ring_r, 4096):
                pass

    def _await(self, handles: list) -> list:
        """Block until one of *handles* (and the self-pipe) is ready.
        A handle closed under the wait by a respawn counts as a ring."""
        try:
            return wait([*handles, self._ring_r])
        except (OSError, ValueError):
            return [self._ring_r]

    def _read_child(self) -> None:
        """Reader step: wait for the child, hand its frames over, ring.

        The reader never handles a frame itself — the bridge step does,
        on the scheduler.  A ring of the self-pipe (a stop, or a
        respawn) ends the step, so the worker loop re-checks for a stop
        and the next step waits on the current child.  After the child
        dies the reader rings the bridge once and waits for that ring
        rather than spinning on the dead sentinel (or on the EOF of its
        pipe).
        """
        outbox, proc = self._outbox, self._proc
        if outbox is None or proc is None:
            self._await([])
            self._drain_rings()
            return
        ready = self._await([outbox, proc.sentinel])
        if outbox in ready:
            with self._handoff_lock:
                frames = self._take_frames(outbox, _READER_BATCH)
                self._handoff.extend(frames)
            if frames:
                self._wake.set()
            elif proc.sentinel not in ready:
                # EOF: the child is on its way out; wait for its death.
                ready = self._await([proc.sentinel])
        if self._ring_r in ready:
            self._drain_rings()
        elif proc.sentinel in ready and self._proc is proc:
            self._wake.set()
            self._await([])
            self._drain_rings()

    def worker_specs(self) -> list[WorkerSpec]:
        # The reader blocks in its own step, so it keeps a thread.
        return [
            WorkerSpec("bridge", self.pump_once, wake=self._wake),
            WorkerSpec("reader", self._read_child, interval=0.0),
        ]

    def on_start(self) -> None:
        # The last stop's ring must not end the new reader's first wait.
        self._drain_rings()

    def on_halt(self) -> None:
        self._ring_reader()

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
        os.close(self._ring_r)
        os.close(self._ring_w)
        self._ring_w = None
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
