"""Tests for the pluggable transport layer.

Covers the transport refactor end to end:

* the factory: URL scheme → backend, unknown schemes rejected;
* the equivalence property: InprocTransport (the Context under its
  contract name) delivers exactly the same message sequences the
  pre-refactor msgq did — driven with hypothesis over randomized
  put/get interleavings;
* credit-based flow control: credits = hwm - depth, observable on
  every socket, and `send_many` progressing in credit-sized waves;
* shed-priority semantics: under HWM pressure sheddable payloads are
  dropped highest-priority-first and counted, must-deliver payloads
  never;
* the RepSocket hwm satellite: constructor parameter plumbed from
  AggregatorConfig instead of hardcoded;
* REQ/REP timeout and socket-closed paths, and Context teardown
  closing the whole socket population idempotently;
* per-socket occupancy gauges in the metrics registry;
* the adaptive flush controller: grow under pressure, shrink when
  relaxed with high publish latency, clamped both ways;
* the multiproc backend: bridge roundtrip + historic API, cluster
  equivalence against inproc on an identical trace, and the
  shard-kill-under-load zero-loss property;
* publish on ack: a child SIGKILLed with batches in flight still has
  each ``(shard, seq)`` published exactly once, the parent decodes no
  published entries, a traced cluster records all four stages, and
  the bridge cuts the same topic runs and chunks as an Aggregator.
"""

import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterClient, ClusterConfig, ClusterMonitor
from repro.core import (
    AdaptiveFlushController,
    Aggregator,
    AggregatorConfig,
    Consumer,
    FlushTuning,
)
from repro.core.events import EventType, FileEvent
from repro.errors import MessagingError, SocketClosed, WouldBlock
from repro.lustre import LustreFilesystem
from repro.lustre.mds import DnePolicy
from repro.metrics import MetricsRegistry
from repro.msgq import Context, InprocTransport, Transport, make_transport
from repro.msgq.framing import (
    decode_entries,
    decode_report,
    encode_entries,
    encode_report,
)
from repro.msgq.multiproc import MultiprocTransport
from repro.msgq.pipes import _pipe_unread
from repro.util.clock import ManualClock


def make_event(path, event_type=EventType.CREATED, timestamp=1.0):
    return FileEvent(
        event_type=event_type,
        path=path,
        is_dir=False,
        timestamp=timestamp,
        name=path.rsplit("/", 1)[-1],
        source="lustre",
    )


def pump_until(bridge, predicate, timeout=15.0, extra=()):
    """Drive a bridge (and optional extra pumps) until *predicate*."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        bridge.pump_once()
        for step in extra:
            step()
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


class TestTransportFactory:
    def test_default_is_inproc(self):
        transport = make_transport()
        assert isinstance(transport, Context)
        assert transport.scheme == "inproc"

    def test_inproc_alias_is_context(self):
        assert InprocTransport is Context
        assert isinstance(Context(), Transport)

    def test_url_scheme_prefix_parses(self):
        assert make_transport("inproc://whatever").scheme == "inproc"

    def test_multiproc_scheme(self):
        transport = make_transport("multiproc")
        try:
            assert isinstance(transport, MultiprocTransport)
            assert transport.scheme == "multiproc"
            # It is also a full inproc context (parent-side sockets).
            assert isinstance(transport, Context)
        finally:
            transport.close()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(MessagingError, match="unknown transport"):
            make_transport("tcp://10.0.0.1:5555")


# ---------------------------------------------------------------------------
# Equivalence: the refactored fabric delivers exactly what the old one did
# ---------------------------------------------------------------------------


class TestInprocEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(st.integers(), max_size=40),
        hwm=st.integers(min_value=1, max_value=8),
        drain=st.integers(min_value=1, max_value=9),
    )
    def test_push_pull_delivers_everything_in_order(self, items, hwm, drain):
        """Interleaved credit-limited puts + partial drains lose nothing.

        This is the delivery oracle for the credit rework: whatever
        wave pattern `put_many` chooses, the receiver observes exactly
        the sent sequence — same items, same order, no duplicates —
        just as the pre-refactor fabric guaranteed.
        """
        transport = make_transport("inproc")
        pull = transport.pull(hwm=hwm).bind("inproc://sink")
        push = transport.push(hwm=hwm).connect("inproc://sink")
        received = []
        cursor = 0
        while cursor < len(items) or pull.pending:
            if cursor < len(items):
                chunk = items[cursor:cursor + hwm]  # fits the mark
                try:
                    push.send_many(list(chunk), timeout=0)
                    cursor += len(chunk)
                except WouldBlock:
                    pass  # no credits this round; drain below frees some
            try:
                received.extend(pull.recv_many(max_messages=drain, block=False))
            except WouldBlock:
                pass
        assert received == items
        assert push.sent == len(items)

    @settings(max_examples=30, deadline=None)
    @given(hwm=st.integers(min_value=1, max_value=6),
           total=st.integers(min_value=7, max_value=40))
    def test_oversized_group_progresses_in_credit_waves(self, hwm, total):
        """A group larger than hwm admits exactly the credits granted."""
        transport = make_transport("inproc")
        pull = transport.pull(hwm=hwm).bind("inproc://sink")
        push = transport.push(hwm=hwm).connect("inproc://sink")
        items = list(range(total))
        with pytest.raises(WouldBlock, match=f"{hwm}/{total}"):
            push.send_many(items, timeout=0.01)
        assert pull.pending == hwm
        assert pull.credits == 0
        # Draining grants credits back, and the retry tail continues.
        drained = pull.recv_many(block=False)
        assert drained == items[:hwm]
        assert pull.credits == hwm


class TestCredits:
    def test_credits_are_free_capacity(self):
        transport = make_transport("inproc")
        pull = transport.pull(hwm=5).bind("inproc://sink")
        push = transport.push(hwm=5).connect("inproc://sink")
        assert pull.credits == 5
        push.send_many([1, 2, 3])
        assert pull.credits == 2
        pull.recv_many(block=False)
        assert pull.credits == 5

    def test_requeue_overshoot_floors_credits_at_zero(self):
        transport = make_transport("inproc")
        pull = transport.pull(hwm=2).bind("inproc://sink")
        push = transport.push(hwm=2).connect("inproc://sink")
        push.send_many([1, 2])
        taken = pull.recv_many(block=False)
        pull.requeue(taken + [3])  # bypasses the mark by design
        assert pull.pending == 3
        assert pull.credits == 0

    def test_sub_and_rep_expose_occupancy(self):
        transport = make_transport("inproc")
        pub = transport.pub().bind("inproc://events")
        sub = transport.sub(hwm=4).connect("inproc://events").subscribe("")
        assert (sub.hwm, sub.credits) == (4, 4)
        pub.send("t", "x")
        assert (sub.pending, sub.credits) == (1, 3)
        rep = transport.rep(hwm=3).bind("inproc://api")
        assert (rep.hwm, rep.credits, rep.pending) == (3, 3, 0)


# ---------------------------------------------------------------------------
# Shed-priority load shedding
# ---------------------------------------------------------------------------


class TestShedPriority:
    def test_sheddable_dropped_instead_of_blocking(self):
        transport = make_transport("inproc")
        pull = transport.pull(hwm=2).bind("inproc://sink")
        push = transport.push(hwm=2).connect("inproc://sink")
        # 4 payloads into a 2-slot sink: the two sheddable ones go.
        payloads = [("must", 0), ("shed-low", 1), ("must", 0), ("shed-hi", 2)]
        push.send_many(payloads, timeout=0.05, shed_priority=lambda p: p[1])
        assert [p[0] for p in pull.recv_many(block=False)] == ["must", "must"]
        assert push.shed == 2
        assert pull.shed == 2
        assert push.sent == 2

    def test_highest_priority_sheds_first(self):
        transport = make_transport("inproc")
        pull = transport.pull(hwm=3).bind("inproc://sink")
        push = transport.push(hwm=3).connect("inproc://sink")
        payloads = [("a", 1), ("b", 3), ("c", 2), ("d", 0)]
        # Credits cover 3 of 4: exactly one must shed — the priority-3.
        push.send_many(payloads, timeout=0.05, shed_priority=lambda p: p[1])
        kept = [p[0] for p in pull.recv_many(block=False)]
        assert kept == ["a", "c", "d"]
        assert push.shed == 1

    def test_must_deliver_still_raises_on_timeout(self):
        transport = make_transport("inproc")
        pull = transport.pull(hwm=1).bind("inproc://sink")
        push = transport.push(hwm=1).connect("inproc://sink")
        push.send(("occupy", 0))
        with pytest.raises(WouldBlock):
            push.send_many(
                [("must", 0), ("must", 0)],
                timeout=0.01,
                shed_priority=lambda p: p[1],
            )
        assert push.shed == 0

    def test_all_sheddable_never_raises(self):
        transport = make_transport("inproc")
        pull = transport.pull(hwm=1).bind("inproc://sink")
        push = transport.push(hwm=1).connect("inproc://sink")
        push.send(("occupy", 0))
        push.send_many(
            [("shed", 1), ("shed", 1)],
            timeout=0.01,
            shed_priority=lambda p: p[1],
        )
        assert push.shed == 2
        assert pull.pending == 1  # only the occupier

    def test_within_hwm_group_survives_transient_shortfall(self):
        # A group that fits the mark must NOT shed on an instantaneous
        # credit shortfall: it blocks like the non-shedding path, and a
        # drain before the deadline delivers everything.
        import threading

        transport = make_transport("inproc")
        pull = transport.pull(hwm=2).bind("inproc://sink")
        push = transport.push(hwm=2).connect("inproc://sink")
        push.send(("occupy", 0))
        push.send(("occupy", 0))

        def drain_soon():
            time.sleep(0.05)
            pull.recv_many(block=False)

        drainer = threading.Thread(target=drain_soon)
        drainer.start()
        try:
            push.send_many(
                [("must", 0), ("shed", 5)],
                timeout=2.0,
                shed_priority=lambda p: p[1],
            )
        finally:
            drainer.join()
        assert push.shed == 0
        assert [p[0] for p in pull.recv_many(block=False)] == [
            "must",
            "shed",
        ]

    def test_within_hwm_deadline_shed_then_admits_must_deliver(self):
        # At deadline expiry the sheddable item is dropped, and the
        # surviving must-deliver is admitted into the credits the shed
        # just freed instead of failing the call.
        transport = make_transport("inproc")
        pull = transport.pull(hwm=4).bind("inproc://sink")
        push = transport.push(hwm=4).connect("inproc://sink")
        for _ in range(3):
            push.send(("occupy", 0))
        push.send_many(
            [("must", 0), ("shed", 5)],
            timeout=0.05,
            shed_priority=lambda p: p[1],
        )
        assert push.shed == 1
        kept = [p[0] for p in pull.recv_many(block=False)]
        assert kept == ["occupy", "occupy", "occupy", "must"]


# ---------------------------------------------------------------------------
# RepSocket hwm satellite + REQ/REP edge paths + Context teardown
# ---------------------------------------------------------------------------


class TestRepSocketHwm:
    def test_hwm_is_a_constructor_parameter(self):
        transport = make_transport("inproc")
        rep = transport.rep(hwm=2).bind("inproc://api")
        assert rep.hwm == 2

    def test_aggregator_plumbs_config_hwm_to_api_socket(self):
        transport = make_transport("inproc")
        config = AggregatorConfig(hwm=123)
        aggregator = Aggregator(transport, config)
        assert aggregator.api.hwm == 123

    def test_full_request_queue_times_out_instead_of_hanging(self):
        transport = make_transport("inproc")
        transport.rep(hwm=1).bind("inproc://api")
        req = transport.req().connect("inproc://api")
        started = time.monotonic()
        with pytest.raises(WouldBlock):
            req.request("one", timeout=0.05)  # nobody serving
        # The wait was bounded by the timeout, not the reply.
        assert time.monotonic() - started < 2.0


class TestReqRepClosedPaths:
    def test_request_to_closed_server_raises_socket_closed(self):
        transport = make_transport("inproc")
        rep = transport.rep().bind("inproc://api")
        req = transport.req().connect("inproc://api")
        rep.close()
        with pytest.raises(SocketClosed):
            req.request("hello", timeout=0.1)

    def test_recv_on_closed_rep_raises(self):
        transport = make_transport("inproc")
        rep = transport.rep().bind("inproc://api")
        rep.close()
        with pytest.raises(SocketClosed):
            rep.recv(timeout=0)

    def test_request_on_closed_req_raises(self):
        transport = make_transport("inproc")
        transport.rep().bind("inproc://api")
        req = transport.req().connect("inproc://api")
        req.close()
        with pytest.raises(SocketClosed):
            req.request("hello")

    def test_request_timeout_without_server_thread(self):
        transport = make_transport("inproc")
        transport.rep().bind("inproc://api")
        req = transport.req(timeout=0.02).connect("inproc://api")
        with pytest.raises(WouldBlock):
            req.request("hello")  # default timeout from constructor


class TestContextTeardown:
    def test_close_closes_every_registered_socket(self):
        transport = make_transport("inproc")
        pub = transport.pub().bind("inproc://events")
        pull = transport.pull().bind("inproc://sink")
        rep = transport.rep().bind("inproc://api")
        # Unbound / connect-only sockets are part of the population too.
        sub = transport.sub().connect("inproc://events")
        push = transport.push().connect("inproc://sink")
        req = transport.req().connect("inproc://api")
        transport.close()
        for socket in (pub, pull, rep, sub, push, req):
            assert socket.closed
        assert transport.endpoints() == []

    def test_close_is_idempotent(self):
        transport = make_transport("inproc")
        socket = transport.pub().bind("inproc://events")
        transport.close()
        transport.close()  # second close finds nothing left to do
        socket.close()  # and a socket's own close stays a no-op
        assert transport.closed

    def test_factories_refuse_after_close(self):
        transport = make_transport("inproc")
        transport.close()
        for factory in (
            transport.pub, transport.sub, transport.push,
            transport.pull, transport.req, transport.rep,
        ):
            with pytest.raises(MessagingError, match="closed"):
                factory()


# ---------------------------------------------------------------------------
# Occupancy gauges
# ---------------------------------------------------------------------------


class TestOccupancyGauges:
    def test_aggregator_exports_inbound_occupancy(self):
        transport = make_transport("inproc")
        registry = MetricsRegistry()
        aggregator = Aggregator(
            transport, AggregatorConfig(hwm=10), registry=registry
        )
        push = transport.push(hwm=10).connect(
            aggregator.config.inbound_endpoint
        )
        push.send([make_event("/a")])
        snap = aggregator.metrics.snapshot()
        assert snap["inbound_depth"] == 1
        assert snap["inbound_hwm"] == 10
        assert snap["inbound_credits"] == 9
        aggregator.pump_once()
        snap = aggregator.metrics.snapshot()
        assert (snap["inbound_depth"], snap["inbound_credits"]) == (0, 10)

    def test_consumer_exports_subscription_occupancy(self):
        transport = make_transport("inproc")
        registry = MetricsRegistry()
        aggregator = Aggregator(transport, AggregatorConfig(), registry=registry)
        from repro.core import Consumer

        consumer = Consumer(
            transport, lambda seq, event: None, registry=registry
        )
        push = transport.push().connect(aggregator.config.inbound_endpoint)
        push.send([make_event("/a")])
        aggregator.pump_once()
        snap = consumer.metrics.snapshot()
        assert snap["sub_depth"] == 1
        assert snap["sub_credits"] == snap["sub_hwm"] - 1


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_report_roundtrip_list(self):
        events = [make_event(f"/d/{i}") for i in range(5)]
        decoded = decode_report(encode_report(events))
        assert decoded == events

    def test_report_roundtrip_traced(self):
        from repro.core.events import ReportBatch

        batch = ReportBatch(tuple(make_event(f"/d/{i}") for i in range(3)), 7.5)
        decoded = decode_report(encode_report(batch))
        assert isinstance(decoded, ReportBatch)
        assert decoded.collected_ts == 7.5
        assert list(decoded.events) == list(batch.events)

    def test_entries_roundtrip_preserves_stamps_and_shard(self):
        from repro.core.events import EventBatch

        batch = EventBatch(
            tuple((i, make_event(f"/d/{i}")) for i in range(4)),
            collected_ts=1.0, aggregated_ts=2.0, published_ts=3.0,
            shard="shard1",
        )
        decoded = decode_entries(encode_entries(batch))
        assert decoded == batch

    def test_non_event_payload_falls_back_to_pickle(self):
        payload = {"not": "events"}
        assert decode_report(encode_report(payload)) == payload


# ---------------------------------------------------------------------------
# Adaptive flush controller
# ---------------------------------------------------------------------------


class _FakeShard:
    def __init__(self, depth, hwm, batch_events=256):
        self.depth = depth
        self.hwm = hwm
        self.flush_batch_events = batch_events

    def occupancy(self):
        return (self.depth, self.hwm)


class TestAdaptiveFlushController:
    def test_grows_under_pressure(self):
        registry = MetricsRegistry()
        shard = _FakeShard(depth=80, hwm=100, batch_events=256)
        controller = AdaptiveFlushController(
            registry, {"s0": shard}, tuning=FlushTuning()
        )
        assert controller.tick() == 1
        assert shard.flush_batch_events == 512

    def test_growth_clamped_at_max(self):
        registry = MetricsRegistry()
        tuning = FlushTuning(max_batch_events=600)
        shard = _FakeShard(depth=80, hwm=100, batch_events=512)
        controller = AdaptiveFlushController(registry, {"s0": shard}, tuning)
        controller.tick()
        assert shard.flush_batch_events == 600

    def test_shrinks_when_relaxed_and_publish_slow(self):
        registry = MetricsRegistry()
        registry.histogram("pipeline.publish").record(0.2, count=100)
        shard = _FakeShard(depth=0, hwm=100, batch_events=1024)
        controller = AdaptiveFlushController(
            registry, {"s0": shard}, tuning=FlushTuning()
        )
        assert controller.tick() == 1
        assert shard.flush_batch_events == 512

    def test_no_shrink_when_publish_fast(self):
        registry = MetricsRegistry()
        registry.histogram("pipeline.publish").record(0.001, count=100)
        shard = _FakeShard(depth=0, hwm=100, batch_events=1024)
        controller = AdaptiveFlushController(
            registry, {"s0": shard}, tuning=FlushTuning()
        )
        assert controller.tick() == 0
        assert shard.flush_batch_events == 1024

    def test_unbounded_ceiling_treated_as_max(self):
        registry = MetricsRegistry()
        registry.histogram("pipeline.publish").record(0.2, count=100)
        tuning = FlushTuning(max_batch_events=1000)
        shard = _FakeShard(depth=0, hwm=100, batch_events=0)
        controller = AdaptiveFlushController(registry, {"s0": shard}, tuning)
        controller.tick()
        assert shard.flush_batch_events == 500

    def test_tunes_aggregator_batch_ceiling(self):
        registry = MetricsRegistry()
        transport = make_transport("inproc")
        aggregator = Aggregator(
            transport, AggregatorConfig(hwm=4, batch_events=128),
            registry=registry,
        )
        push = transport.push(hwm=4).connect(
            aggregator.config.inbound_endpoint
        )
        for _ in range(3):
            push.send([make_event("/a")])
        tuning = FlushTuning()
        controller = AdaptiveFlushController(
            registry, {"agg": aggregator}, tuning=tuning
        )
        assert controller.tick() == 1
        assert aggregator.flush_batch_events == 256
        # Nothing was pumped, so the shard is still pressured and the
        # ceiling keeps growing by the tuning's factor.
        assert controller.tick() == 1
        assert aggregator.flush_batch_events == 256 * tuning.grow_factor

    def test_invalid_tuning_rejected(self):
        with pytest.raises(ValueError):
            FlushTuning(min_batch_events=0)
        with pytest.raises(ValueError):
            FlushTuning(relax_ratio=0.9, pressure_ratio=0.5)
        with pytest.raises(ValueError):
            FlushTuning(grow_factor=1.0)

    def test_cluster_autotune_wiring(self):
        fs = LustreFilesystem(
            num_mds=1, mdts_per_mds=2,
            dne_policy=DnePolicy.ROUND_ROBIN, clock=ManualClock(),
        )
        cluster = ClusterMonitor(
            fs,
            ClusterConfig(
                num_shards=2,
                namespace="autotune-test",
                autotune=True,
                aggregator=AggregatorConfig(hwm=4, batch_events=64),
            ),
        )
        try:
            handles = list(cluster.shard_handles.values())
            push = cluster.context.push(hwm=4).connect(
                cluster.shard_configs["shard0"].inbound_endpoint
            )
            for _ in range(3):
                push.send([make_event("/a")])
            assert cluster.autotune_once() == 1
            assert cluster.shard_handles["shard0"].flush_batch_events == 128
            assert handles[1].flush_batch_events == 64  # unpressured
        finally:
            cluster.shutdown()


# ---------------------------------------------------------------------------
# Multiproc backend
# ---------------------------------------------------------------------------


class TestMultiprocBridge:
    def test_roundtrip_and_api(self):
        transport = make_transport("multiproc")
        config = AggregatorConfig(shard_label="s0", trace_sample_rate=0.0)
        bridge = transport.process_shard("s0", config)
        try:
            sub = transport.sub().connect(config.publish_endpoint).subscribe("")
            push = transport.push().connect(config.inbound_endpoint)
            events = [make_event(f"/m/{i}") for i in range(12)]
            push.send(events[:6])
            push.send(events[6:])

            got = []

            def poll():
                try:
                    for _topic, payload in sub.recv_many(block=False):
                        assert payload.shard == "s0"
                        got.extend(payload.entries)
                except WouldBlock:
                    pass

            assert pump_until(
                bridge, lambda: len(got) == 12 and not bridge.busy,
                extra=[poll],
            )
            assert [seq for seq, _ in got] == list(range(1, 13))
            assert [e.path for _, e in got] == [e.path for e in events]

            client = ClusterClient.for_aggregator(
                transport, bridge, timeout=10.0
            )
            assert client.last_seq() == {"s0": 12}
            page = client.page(limit=5)
            assert [seq for _, seq, _ in page] == [1, 2, 3, 4, 5]
        finally:
            transport.close()

    def test_kill_and_replay_preserves_sequence_numbers(self):
        transport = make_transport("multiproc")
        config = AggregatorConfig(shard_label="s0", trace_sample_rate=0.0)
        bridge = transport.process_shard("s0", config)
        try:
            push = transport.push().connect(config.inbound_endpoint)
            push.send([make_event(f"/m/{i}") for i in range(8)])
            assert pump_until(bridge, lambda: not bridge.busy)
            assert bridge.events_stored == 8

            bridge.kill_child()
            push.send([make_event(f"/m/{i}") for i in range(8, 11)])
            assert pump_until(bridge, lambda: not bridge.busy)
            assert bridge.events_stored == 11
            assert bridge.metrics.snapshot()["child_restarts"] >= 1

            client = ClusterClient.for_aggregator(
                transport, bridge, timeout=10.0
            )
            # The respawned child resumed the sequence space: the new
            # events carry 9..11, not 1..3.
            page = client.events_since(8)
            assert [seq for _, seq, _ in page] == [9, 10, 11]
        finally:
            transport.close()

    def test_close_terminates_child(self):
        transport = make_transport("multiproc")
        bridge = transport.process_shard(
            "s0", AggregatorConfig(trace_sample_rate=0.0)
        )
        proc = bridge._proc
        assert proc.is_alive()
        transport.close()
        assert not proc.is_alive()


def _run_cluster_trace(transport_name, namespace):
    """Identical synthetic activity through either backend; returns the
    delivered (shard, seq, path) set and the cluster's stats."""
    fs = LustreFilesystem(
        num_mds=2, mdts_per_mds=2,
        dne_policy=DnePolicy.ROUND_ROBIN, clock=ManualClock(),
    )
    cluster = ClusterMonitor(
        fs,
        ClusterConfig(
            num_shards=2,
            namespace=namespace,
            transport=transport_name,
            aggregator=AggregatorConfig(trace_sample_rate=0.0),
        ),
    )
    delivered = []
    try:
        cluster.subscribe(lambda seq, event: delivered.append((seq, event)))
        for d in range(4):
            fs.makedirs(f"/proj{d}")
            for i in range(6):
                fs.create(f"/proj{d}/f{i}.dat")
        cluster.drain()
        paths = sorted(
            event.path for _seq, event in delivered if event.path
        )
        return paths, len(delivered)
    finally:
        cluster.shutdown()


class TestMultiprocCluster:
    def test_started_cluster_runs_no_queue_feeder_thread(self):
        """A process hop is one pipe write by the producing thread: no
        ``multiprocessing.Queue`` feeder thread carries the frames."""
        fs = LustreFilesystem(
            num_mds=2, mdts_per_mds=1, dne_policy=DnePolicy.ROUND_ROBIN
        )
        cluster = ClusterMonitor(
            fs,
            ClusterConfig(
                num_shards=2, namespace="no-feeder", transport="multiproc"
            ),
        )
        delivered = set()
        cluster.subscribe(lambda seq, event: delivered.add(event.path))
        cluster.start()
        try:
            for d in range(2):
                fs.makedirs(f"/nf{d}")
            created = {f"/nf{i % 2}/f{i}" for i in range(20)}
            for path in sorted(created):
                fs.create(path)
            deadline = time.monotonic() + 20.0
            while not created <= delivered and time.monotonic() < deadline:
                time.sleep(0.01)
            assert created <= delivered
            names = [thread.name for thread in threading.enumerate()]
            assert "QueueFeederThread" not in names
        finally:
            cluster.shutdown()

    def test_delivers_same_event_set_as_inproc(self):
        inproc_paths, inproc_count = _run_cluster_trace("inproc", "eq-in")
        multi_paths, multi_count = _run_cluster_trace("multiproc", "eq-mp")
        assert multi_paths == inproc_paths
        assert multi_count == inproc_count

    def test_shard_kill_under_load_loses_nothing(self):
        """The acceptance property: SIGKILL a shard process mid-stream,
        keep feeding, and every event still arrives exactly once."""
        fs = LustreFilesystem(
            num_mds=2, mdts_per_mds=2,
            dne_policy=DnePolicy.ROUND_ROBIN, clock=ManualClock(),
        )
        cluster = ClusterMonitor(
            fs,
            ClusterConfig(
                num_shards=2,
                namespace="kill-test",
                transport="multiproc",
                aggregator=AggregatorConfig(trace_sample_rate=0.0),
            ),
        )
        delivered = []
        try:
            cluster.subscribe(
                lambda seq, event: delivered.append((seq, event))
            )
            created = []
            for d in range(4):
                fs.makedirs(f"/load{d}")
            for i in range(40):
                path = f"/load{i % 4}/f{i}.dat"
                fs.create(path)
                created.append(path)
                if i == 10:
                    cluster.pump()  # get batches moving first
                    cluster.crash_shard("shard0")  # real SIGKILL
                if i == 25:
                    cluster.crash_shard("shard1")
            cluster.drain()
            got_paths = sorted(
                event.path for _seq, event in delivered
                if event.path and "/f" in event.path
            )
            assert got_paths == sorted(created)  # nothing lost...
            assert len(got_paths) == len(set(got_paths))  # ...no dups
            restarts = sum(
                bridge.metrics.snapshot()["child_restarts"]
                for bridge in cluster.bridges.values()
            )
            assert restarts >= 1  # the fault actually happened
        finally:
            cluster.shutdown()


# ---------------------------------------------------------------------------
# Publish on ack: a batch crosses the process boundary once
# ---------------------------------------------------------------------------


def _long_event(index):
    # Long paths make the child's output large if it ever ships events.
    return make_event(f"/ack/{'x' * 120}/f{index:05d}")


def _published(sub, got):
    """Take every published batch waiting on *sub* into *got*."""
    try:
        for topic, batch in sub.recv_many(block=False):
            got.append((topic, tuple(seq for seq, _ in batch.entries)))
    except WouldBlock:
        pass


class TestPublishOnAck:
    def test_sigkill_with_batches_in_flight_publishes_each_seq_once(self):
        transport = make_transport("multiproc")
        config = AggregatorConfig(
            inbound_endpoint="inproc://once.reports",
            publish_endpoint="inproc://once.events",
            api_endpoint="inproc://once.api",
            shard_label="s0",
            trace_sample_rate=0.0,
            batch_events=5,
        )
        bridge = transport.process_shard("s0", config, relay_interval=0)
        delivered = []
        consumer = Consumer(
            transport, lambda seq, event: delivered.append((seq, event)),
            config=config, name="once",
        )
        try:
            bridge.pump_once()  # the child meets its subscriber first
            push = transport.push().connect(config.inbound_endpoint)
            total = 0
            for _ in range(12):
                push.send([_long_event(total + i) for i in range(100)])
                total += 100
            # Forward for a while without reading the child's output:
            # whatever the child sends back stays in its pipe.
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                bridge._forward_reports()
                time.sleep(0.01)
            assert _pipe_unread(bridge._outbox) > 0
            # Freeze the child, forward what fits behind it, and kill it
            # with batches in flight.
            proc = bridge._proc
            os.kill(proc.pid, signal.SIGSTOP)
            bridge._forward_reports()
            assert bridge._inflight
            bridge.kill_child()

            def settled():
                bridge.pump_once()
                consumer.poll_once()
                return len(delivered) >= total and not bridge.busy

            assert wait_for(settled, 30.0)
            consumer.poll_once()
            seqs = [seq for seq, _ in delivered]
            assert seqs == list(range(1, total + 1))  # none lost, in order
            published = bridge.metrics.snapshot()["events_published"]
            assert published == total == len(set(seqs))
            assert consumer.duplicates_skipped == 0
            assert [event.path for _, event in delivered] == [
                _long_event(i).path for i in range(total)
            ]
            assert bridge.metrics.snapshot()["child_restarts"] == 1
        finally:
            consumer.close()
            transport.close()

    def test_parent_decodes_no_entries_and_shares_parent_fids(
        self, monkeypatch
    ):
        import repro.msgq.framing as framing
        import repro.msgq.multiproc as multiproc

        calls = []
        original = framing.decode_entries

        def counting(data):
            calls.append(len(data))
            return original(data)

        monkeypatch.setattr(framing, "decode_entries", counting)
        monkeypatch.setattr(multiproc, "decode_entries", counting)
        fs = LustreFilesystem(
            num_mds=2, mdts_per_mds=1,
            dne_policy=DnePolicy.ROUND_ROBIN, clock=ManualClock(),
        )
        cluster = ClusterMonitor(
            fs,
            ClusterConfig(
                num_shards=2, namespace="no-decode", transport="multiproc",
                aggregator=AggregatorConfig(trace_sample_rate=0.0),
            ),
        )
        delivered = []
        try:
            cluster.subscribe(lambda seq, event: delivered.append(event))
            dirs = [f"/share{d}" for d in range(4)]
            for directory in dirs:
                fs.makedirs(directory)
            created = [f"{dirs[i % 4]}/f{i}" for i in range(80)]
            for path in created:
                fs.create(path)
            cluster.drain()
            files = [event for event in delivered if event.path in created]
            assert sorted(event.path for event in files) == sorted(created)
            assert calls == []
            for directory in dirs:
                fids = {
                    id(event.parent_fid) for event in files
                    if event.path.startswith(directory + "/")
                }
                assert len(fids) == 1, directory
        finally:
            cluster.shutdown()

    def test_traced_multiproc_cluster_records_all_four_stages(self):
        fs = LustreFilesystem(
            num_mds=2, mdts_per_mds=1, dne_policy=DnePolicy.ROUND_ROBIN
        )
        cluster = ClusterMonitor(
            fs,
            ClusterConfig(
                num_shards=2, namespace="traced-mp", transport="multiproc",
                aggregator=AggregatorConfig(trace_sample_rate=1.0),
            ),
        )
        delivered = []
        try:
            cluster.subscribe(lambda seq, event: delivered.append(event))
            for d in range(4):
                fs.makedirs(f"/trace{d}")
                for i in range(10):
                    fs.create(f"/trace{d}/f{i}")
            cluster.drain()
            assert len(delivered) >= 44
            histograms = cluster.registry.histograms()
            recorded = {
                name: histogram.total for name, histogram in histograms.items()
            }
            assert recorded.get("pipeline.collect", 0) > 0
            assert recorded.get("pipeline.deliver", 0) > 0
            for bridge in cluster.bridges.values():
                if not bridge.metrics.snapshot()["events_published"]:
                    continue
                scope = bridge.metrics.scope
                assert recorded.get(f"{scope}.pipeline.aggregate", 0) > 0
                assert recorded.get(f"{scope}.pipeline.publish", 0) > 0
        finally:
            cluster.shutdown()

    def test_topic_runs_and_chunks_match_inproc(self):
        config = AggregatorConfig(
            inbound_endpoint="inproc://chunks.reports",
            publish_endpoint="inproc://chunks.events",
            api_endpoint="inproc://chunks.api",
            shard_label="s0",
            trace_sample_rate=0.0,
            topic_by_path=True,
            batch_events=3,
        )
        tops = ["a", "a", "b", "a", "a", "a", "a", "c", "c", "b", "b", "b"]
        reports = [
            [make_event(f"/{top}/f{i}") for i, top in enumerate(tops)],
            [make_event(f"/{top}/g{i}") for i, top in enumerate(reversed(tops))],
        ]

        def run(transport, pump):
            sub = transport.sub().connect(config.publish_endpoint).subscribe("")
            push = transport.push().connect(config.inbound_endpoint)
            for report in reports:
                push.send(report)
            got = []
            total = sum(len(report) for report in reports)

            def done():
                pump()
                _published(sub, got)
                return sum(len(seqs) for _, seqs in got) >= total

            assert wait_for(done, 20.0)
            return got

        inproc = Context()
        aggregator = Aggregator(inproc, config)
        try:
            expected = run(inproc, aggregator.pump_once)
        finally:
            aggregator.close()
            inproc.close()
        multiproc = make_transport("multiproc")
        try:
            bridge = multiproc.process_shard("s0", config)
            got = run(multiproc, bridge.pump_once)
        finally:
            multiproc.close()
        assert got == expected
        assert ("events./a", (1, 2)) in got  # a topic run, cut at 3
        assert ("events./a", (4, 5, 6)) in got
