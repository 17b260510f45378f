"""Load generation: open-loop schedules, unthrottled bursts, REST prober.

The generator runs in the benchmark's main thread and drives the
in-memory filesystem directly (the filesystem substrate lives in this
process).  While it waits for the next due time it reads the WebSocket
stream, so frames are stamped as they arrive.  The REST prober is the
only other benchmark thread: a paced closed loop over ``GET /v1/events``
(filtered, cursor-paged pages that follow the log) and ``GET /v1/stats``.  At most two
connections are open at once: the stream and one REST request.

Latencies are timed from each op's *due* time: in an open loop that is
its slot in the fixed schedule, so a stalled generator shows up as
latency (and as ``loadgen.late_*``); in an unthrottled burst it is the
moment the op was issued.
"""

from __future__ import annotations

import http.client
import threading
import time
from collections import defaultdict


def apply(fs, op) -> None:
    """Execute one planned op against the filesystem."""
    if op.kind == "create":
        fs.create(op.path)
    elif op.kind == "write":
        fs.write(op.path, 4096)
    elif op.kind == "rename":
        fs.rename(op.path, op.dst)
    else:
        fs.unlink(op.path)


class GaugeSampler:
    """Samples queue depths and ChangeLog backlog (traced runs only)."""

    def __init__(self, system, period: float = 0.005) -> None:
        self.system = system
        self.period = period
        self._next = 0.0
        self.max: dict[str, float] = defaultdict(float)

    def maybe(self) -> None:
        now = time.perf_counter()
        if now < self._next:
            return
        self._next = now + self.period
        system = self.system
        peaks = self.max
        backlog = sum(changelog.backlog for changelog in system.fs.changelogs())
        peaks["changelog_backlog"] = max(peaks["changelog_backlog"], backlog)
        depth = system.service.event_queue.visible_depth
        peaks["cloudq_depth"] = max(peaks["cloudq_depth"], depth)
        hub = max(
            (sub.depth for sub in system.gateway.hub.subscribers()), default=0
        )
        peaks["hub_depth"] = max(peaks["hub_depth"], hub)
        for bridge in system.cluster.bridges.values():
            inflight = bridge.metrics.value("inflight_batches")
            peaks["inflight_batches"] = max(peaks["inflight_batches"], inflight)


def run_open_loop(system, plan, rate: float, seconds: float, deadline: float,
                  sampler=None):
    """Issue ``rate * seconds`` ops on a fixed schedule.

    Returns ``(ops, late)``: ``[(op, due)]`` and per-op lateness in
    seconds (issue time minus due time).
    """
    fs = system.fs
    total = int(rate * seconds)
    ops, late = [], []
    start = time.perf_counter() + 0.01
    for index in range(total):
        op = next(plan)
        due = start + index / rate
        while True:
            now = time.perf_counter()
            if now >= due:
                break
            system.pump_stream(min(due - now, 0.05))
            if sampler is not None:
                sampler.maybe()
        if now > deadline:
            raise TimeoutError("open loop ran past the run deadline")
        late.append(now - due)
        apply(fs, op)
        ops.append((op, due))
    return ops, late


def run_bursts(system, plan, burst_ops: int, bursts: int, deadline: float,
               sampler=None):
    """*bursts* unthrottled bursts of *burst_ops* creates each.

    Each burst waits until all of its events reached the subscriber and
    yields one ingest rate: ``burst_ops`` over first op to last delivery.
    Returns ``(ops, rates)``.
    """
    fs = system.fs
    ops, rates = [], []
    for _burst in range(bursts):
        target = len(system.deliveries) + burst_ops
        first = time.perf_counter()
        for index in range(burst_ops):
            op = next(plan)
            issued = time.perf_counter()
            apply(fs, op)
            ops.append((op, issued))
            if index % 256 == 0:
                system.pump_stream(0.0)
                if sampler is not None:
                    sampler.maybe()
        while len(system.deliveries) < target:
            system.pump_stream(0.001)
            if sampler is not None:
                sampler.maybe()
            if time.perf_counter() > deadline:
                raise TimeoutError("burst never fully delivered")
        rates.append(burst_ops / (system.deliveries[target - 1][3] - first))
    return ops, rates


def wait_idle(system, deadline: float, settle: float = 0.2) -> None:
    """Wait until every consumer, bridge and the action queue caught up."""
    cluster = system.cluster
    quiet_since = None
    while True:
        now = time.perf_counter()
        busy = (
            any(c.subscription.pending for c in cluster.consumers)
            or any(b.busy for b in cluster.bridges.values())
            or system.service.event_queue.visible_depth
            or system.agent.inbox
        )
        if busy:
            quiet_since = None
        elif quiet_since is None:
            quiet_since = now
        elif now - quiet_since >= settle:
            return
        if now > deadline:
            raise TimeoutError("pipeline never went idle")
        system.pump_stream(0.005)


class RestProber:
    """Paced closed-loop REST client on its own thread.

    One request at a time: the next is due a seeded, jittered
    :data:`INTERVAL` (uniform over 0.5x to 1.5x) after the previous one
    started, or as soon as it answers if that is later.  The pacing
    keeps the number of requests, and so the REST work a run does,
    independent of how fast the answers come; the jitter keeps the
    requests from locking onto the aggregators' API poll periods.  The
    ``/v1/events`` pages follow the log: each resumes from the previous
    page's cursor, also once the reader has caught up, so a request
    reads what arrived since the last one and its cost does not grow
    with the store.
    """

    #: Every n-th request is ``GET /v1/stats``; the rest page ``/v1/events``.
    STATS_EVERY = 4
    #: Mean pacing interval between request starts (seconds).
    INTERVAL = 0.025

    def __init__(self, system, rng) -> None:
        self.system = system
        self.rng = rng
        #: (kind, status, seconds, started) per request.
        self.samples: list[tuple[str, int, float, float]] = []
        self._halt = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="bench-rest-prober", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._halt.set()
        if self._thread.ident is None:
            return
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():
            raise RuntimeError("REST prober did not stop")

    def _run(self) -> None:
        system = self.system
        query = dict(system.workload.rest_filter, limit=64)
        cursor = None
        count = 0
        due = time.perf_counter()
        while not self._halt.is_set():
            count += 1
            kind = "stats" if count % self.STATS_EVERY == 0 else "events"
            started = time.perf_counter()
            try:
                if kind == "stats":
                    status, _payload = system.client.request(
                        "GET", "/v1/stats", token=system.token
                    )
                else:
                    status, payload = system.client.request(
                        "GET", "/v1/events", token=system.token,
                        query={**query, "cursor": cursor},
                    )
                    if status == 200:
                        cursor = payload["cursor"]
            except (OSError, http.client.HTTPException, ValueError):
                status = 0
            now = time.perf_counter()
            self.samples.append((kind, status, now - started, started))
            due = max(due + self.INTERVAL * self.rng.uniform(0.5, 1.5), now)
            self._halt.wait(due - now)
