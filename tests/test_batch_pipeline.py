"""Regression + property tests for the batched aggregator hot path.

Covers the four bug fixes that rode along with end-to-end batching:

1. ``FidResolver.resolve_many`` charges one batch invocation plus one
   unit per unique FID (see test_fid2path.py for the unit-level tests).
2. ``EventStore.save``/``load`` round-trip the lifetime
   ``total_stored``/``total_rotated`` counters.
3. ``Aggregator.serve_api_once`` computes the answer first and sends
   exactly once on the one-shot REQ/REP channel.
4. ``EventStore.extend`` is atomic: one lock acquisition, contiguous
   sequence numbers per batch even under concurrent extenders.

Plus the tentpole properties: the batch wire format (EventBatch), the
indexed ``since`` scan, the flush
policies, and a hypothesis property that batched and per-event ingest
produce identical store contents and publish order.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Aggregator,
    AggregatorConfig,
    Consumer,
    EventBatch,
    EventStore,
)
from repro.core.events import EventType, FileEvent, approx_wire_bytes
from repro.errors import MessagingError, WouldBlock
from repro.msgq import Context


def make_event(path, event_type=EventType.CREATED, timestamp=1.0):
    return FileEvent(
        event_type=event_type,
        path=path,
        is_dir=False,
        timestamp=timestamp,
        name=path.rsplit("/", 1)[-1],
        source="lustre",
    )


# ---------------------------------------------------------------------------
# Atomic extend (bug 4) + indexed since
# ---------------------------------------------------------------------------


class TestAtomicExtend:
    def test_extend_is_one_lock_acquisition(self):
        store = EventStore()
        store.extend([make_event(f"/a/f{i}") for i in range(100)])
        assert store.lock_acquisitions == 1
        assert store.total_stored == 100

    def test_extend_assigns_contiguous_seqs(self):
        store = EventStore()
        seqs = store.extend([make_event(f"/a/f{i}") for i in range(10)])
        assert seqs == list(range(1, 11))

    def test_append_still_works(self):
        store = EventStore()
        assert store.append(make_event("/a/f")) == 1
        assert store.append(make_event("/a/g")) == 2

    def test_concurrent_extends_never_interleave_a_batch(self):
        store = EventStore()
        results = {}

        def worker(tag):
            batch = [make_event(f"/{tag}/f{i}") for i in range(50)]
            results[tag] = store.extend(batch)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in "abcd"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for seqs in results.values():
            # Each batch's numbering is one contiguous run.
            assert seqs == list(range(seqs[0], seqs[0] + 50))
        all_seqs = sorted(s for seqs in results.values() for s in seqs)
        assert all_seqs == list(range(1, 201))
        # And the stored order matches the issued numbering.
        assert [seq for seq, _ in store.since(0)] == list(range(1, 201))

    def test_extend_rotation_keeps_window_contiguous(self):
        store = EventStore(max_events=10)
        store.extend([make_event(f"/a/f{i}") for i in range(25)])
        assert store.total_rotated == 15
        assert store.oldest_retained_seq == 16
        assert [seq for seq, _ in store.since(0)] == list(range(16, 26))


class TestIndexedSince:
    def test_since_never_scans_below_seq(self):
        store = EventStore()
        store.extend([make_event(f"/a/f{i}") for i in range(1000)])
        store.reset_op_counters()
        result = store.since(990)
        assert [seq for seq, _ in result] == list(range(991, 1001))
        # The scan-count probe: only matched entries were touched.
        assert store.events_scanned == 10

    def test_since_honors_limit_during_scan(self):
        store = EventStore()
        store.extend([make_event(f"/a/f{i}") for i in range(1000)])
        store.reset_op_counters()
        result = store.since(0, limit=5)
        assert [seq for seq, _ in result] == [1, 2, 3, 4, 5]
        assert store.events_scanned == 5

    def test_since_after_rotation(self):
        store = EventStore(max_events=100)
        store.extend([make_event(f"/a/f{i}") for i in range(250)])
        assert store.since(100)[0][0] == 151  # below-window seq clamps
        assert store.since(200, limit=3) == store.since(200)[:3]
        assert store.since(250) == []

    def test_since_bisect_fallback_on_noncontiguous_window(self):
        # A hand-built store with a gap exercises the bisect path.
        store = EventStore()
        store._events.extend(
            [(1, make_event("/a")), (5, make_event("/b")),
             (9, make_event("/c"))]
        )
        store._next_seq = 10
        assert [seq for seq, _ in store.since(1)] == [5, 9]
        assert [seq for seq, _ in store.since(5)] == [9]
        assert store.since(9) == []


# ---------------------------------------------------------------------------
# save/load counter persistence (bug 2)
# ---------------------------------------------------------------------------


class TestPersistedCounters:
    def test_save_load_roundtrips_lifetime_counters(self, tmp_path):
        store = EventStore(max_events=10)
        store.extend([make_event(f"/a/f{i}") for i in range(25)])
        assert (store.total_stored, store.total_rotated) == (25, 15)
        path = str(tmp_path / "store.jsonl")
        store.save(path)
        restored = EventStore.load(path)
        assert restored.total_stored == 25
        assert restored.total_rotated == 15
        assert restored.last_seq == 25
        # Numbering continues without reuse and keeps counting.
        restored.append(make_event("/a/new"))
        assert restored.total_stored == 26

    def test_load_derives_counters_from_legacy_header(self, tmp_path):
        import json

        store = EventStore(max_events=10)
        store.extend([make_event(f"/a/f{i}") for i in range(25)])
        path = str(tmp_path / "store.jsonl")
        store.save(path)
        # Strip the new header fields, as a pre-fix save would have.
        with open(path) as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        del header["total_stored"], header["total_rotated"]
        lines[0] = json.dumps(header) + "\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        restored = EventStore.load(path)
        assert restored.total_stored == 25
        assert restored.total_rotated == 15


# ---------------------------------------------------------------------------
# serve_api_once sends exactly once (bug 3)
# ---------------------------------------------------------------------------


class _CountingChannel:
    """A reply channel that records sends and can fail on demand."""

    def __init__(self, fail=False):
        self.sends = []
        self.fail = fail

    def send(self, value):
        self.sends.append(value)
        if self.fail:
            raise MessagingError("injected send failure")


class TestServeApiOnce:
    def build(self):
        context = Context()
        return Aggregator(context, AggregatorConfig(
            inbound_endpoint="inproc://api-in",
            publish_endpoint="inproc://api-pub",
            api_endpoint="inproc://api-rep",
        ))

    def test_handler_error_is_sent_exactly_once(self):
        aggregator = self.build()
        channel = _CountingChannel()
        aggregator.api._requests.put(({"op": "no-such-op"}, channel))
        assert aggregator.serve_api_once() is True
        assert len(channel.sends) == 1
        assert isinstance(channel.sends[0], ValueError)

    def test_send_failure_does_not_send_twice(self):
        # Regression: the old code answered inside try/except and sent
        # the *exception* as a second reply when the send itself failed,
        # violating the one-shot REQ/REP contract.
        aggregator = self.build()
        channel = _CountingChannel(fail=True)
        aggregator.api._requests.put(({"op": "last_seq"}, channel))
        with pytest.raises(MessagingError):
            aggregator.serve_api_once()
        assert len(channel.sends) == 1  # never a second send

    def test_reply_channel_is_one_shot(self):
        context = Context()
        server = context.rep().bind("inproc://one-shot")
        client = context.req().connect("inproc://one-shot")
        result = {}

        def requester():
            result["reply"] = client.request("ping", timeout=5.0)

        thread = threading.Thread(target=requester)
        thread.start()
        request, reply_channel = server.recv(timeout=5.0)
        reply_channel.send("pong")
        with pytest.raises(MessagingError):
            reply_channel.send("pong again")
        thread.join()
        assert result["reply"] == "pong"

    def test_normal_answer_still_delivered(self):
        aggregator = self.build()
        aggregator.store.extend([make_event("/a/f")])
        channel = _CountingChannel()
        aggregator.api._requests.put(({"op": "last_seq"}, channel))
        aggregator.serve_api_once()
        assert channel.sends == [1]


# ---------------------------------------------------------------------------
# Batch wire format + shim
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_event_batch_entries(self):
        event = make_event("/a/f")
        batch = EventBatch(((1, event), (2, event)))
        assert batch.entries == ((1, event), (2, event))
        assert len(batch) == 2
        assert batch.first_seq == 1
        assert batch.last_seq == 2

    def test_consumer_reads_batches_from_a_second_publisher(self):
        context = Context()
        config = AggregatorConfig(
            inbound_endpoint="inproc://second-in",
            publish_endpoint="inproc://second-pub",
            api_endpoint="inproc://second-rep",
        )
        Aggregator(context, config)  # binds endpoints the consumer needs
        seen = []
        consumer = Consumer(
            context, lambda seq, ev: seen.append(seq), config=config
        )
        publisher = context.pub().bind("inproc://second-pub2")
        # A second publisher on the consumer's subscription.
        consumer.subscription.connect("inproc://second-pub2")
        publisher.send(
            config.publish_topic, EventBatch(((1, make_event("/a/f")),))
        )
        publisher.send(
            config.publish_topic,
            EventBatch(((2, make_event("/a/g")), (3, make_event("/a/h")))),
        )
        assert consumer.poll_once() == 3
        assert seen == [1, 2, 3]
        assert consumer.batches_consumed == 2

    def test_aggregator_publishes_topic_runs_in_seq_order(self):
        context = Context()
        config = AggregatorConfig(
            inbound_endpoint="inproc://group-in",
            publish_endpoint="inproc://group-pub",
            api_endpoint="inproc://group-rep",
            topic_by_path=True,
        )
        aggregator = Aggregator(context, config)
        subscriber = (
            context.sub().connect("inproc://group-pub").subscribe("events")
        )
        batch = [
            make_event("/projects/a"),
            make_event("/scratch/b"),
            make_event("/projects/c"),
            make_event("/projects/d"),
        ]
        aggregator._handle_batch(batch)
        # One PUB message per contiguous same-topic run — never regrouped
        # across runs, so chunks go out in global sequence order.
        assert aggregator.batches_published == 3
        messages = subscriber.recv_many(block=False)
        assert [
            (topic, [seq for seq, _ in payload.entries])
            for topic, payload in messages
        ] == [
            ("events./projects", [1]),
            ("events./scratch", [2]),
            ("events./projects", [3, 4]),
        ]

    def test_broad_prefix_subscriber_gets_every_event_of_multitopic_batch(
        self,
    ):
        # Regression: grouping a whole batch per topic published seqs
        # [1, 3] then [2, 4]; a broad-prefix subscriber's watermark
        # dedup then dropped seq 2 as a duplicate.
        context = Context()
        config = AggregatorConfig(
            inbound_endpoint="inproc://broad-in",
            publish_endpoint="inproc://broad-pub",
            api_endpoint="inproc://broad-rep",
            topic_by_path=True,
        )
        aggregator = Aggregator(context, config)
        seen = []
        # Default topic "events" matches every per-path topic.
        consumer = Consumer(
            context, lambda seq, ev: seen.append(seq), config=config
        )
        aggregator._handle_batch(
            [make_event(p) for p in ["/a/f", "/b/f", "/a/g", "/b/g"]]
        )
        assert consumer.poll_once() == 4
        assert seen == [1, 2, 3, 4]
        assert consumer.duplicates_skipped == 0

    def test_flush_policy_splits_batches(self):
        context = Context()
        config = AggregatorConfig(
            inbound_endpoint="inproc://flush-in",
            publish_endpoint="inproc://flush-pub",
            api_endpoint="inproc://flush-rep",
            batch_events=4,
        )
        aggregator = Aggregator(context, config)
        subscriber = (
            context.sub().connect("inproc://flush-pub").subscribe("events")
        )
        aggregator._handle_batch([make_event(f"/a/f{i}") for i in range(10)])
        messages = subscriber.recv_many(block=False)
        assert [len(p.entries) for _t, p in messages] == [4, 4, 2]
        # Order is preserved across chunks.
        seqs = [s for _t, p in messages for s, _e in p.entries]
        assert seqs == list(range(1, 11))

    def test_byte_flush_policy(self):
        events = [make_event(f"/a/f{i}") for i in range(6)]
        per_event = approx_wire_bytes(events[0])
        context = Context()
        config = AggregatorConfig(
            inbound_endpoint="inproc://bytes-in",
            publish_endpoint="inproc://bytes-pub",
            api_endpoint="inproc://bytes-rep",
            batch_bytes=per_event * 2,
        )
        aggregator = Aggregator(context, config)
        subscriber = (
            context.sub().connect("inproc://bytes-pub").subscribe("events")
        )
        aggregator._handle_batch(events)
        messages = subscriber.recv_many(block=False)
        assert [len(p.entries) for _t, p in messages] == [2, 2, 2]

    def test_config_rejects_negative_flush_knobs(self):
        with pytest.raises(ValueError):
            AggregatorConfig(batch_events=-1)
        with pytest.raises(ValueError):
            AggregatorConfig(batch_bytes=-1)


# ---------------------------------------------------------------------------
# send_many / recv_many fabric extensions
# ---------------------------------------------------------------------------


class TestFabricBatching:
    def test_send_many_is_one_fabric_op_to_one_sink(self):
        context = Context()
        sink_a = context.pull().bind("inproc://many-a")
        sink_b = context.pull().bind("inproc://many-b")
        push = context.push().connect("inproc://many-a").connect(
            "inproc://many-b"
        )
        push.send_many(["x", "y", "z"])
        assert push.send_ops == 1
        assert push.sent == 3
        # The whole group landed on one sink, in order.
        assert sink_a.recv_many(block=False) == ["x", "y", "z"]
        with pytest.raises(WouldBlock):
            sink_b.recv_many(block=False)

    def test_send_many_larger_than_hwm_does_not_deadlock(self):
        context = Context()
        sink = context.pull(hwm=3).bind("inproc://wave")
        push = context.push(hwm=3).connect("inproc://wave")
        received = []

        def drain():
            while len(received) < 10:
                try:
                    received.extend(sink.recv_many(timeout=1.0))
                except WouldBlock:
                    break

        thread = threading.Thread(target=drain)
        thread.start()
        push.send_many(list(range(10)), timeout=5.0)
        thread.join()
        assert received == list(range(10))

    def test_recv_many_raises_would_block_when_empty(self):
        context = Context()
        sink = context.pull().bind("inproc://empty")
        with pytest.raises(WouldBlock):
            sink.recv_many(block=False)

    def test_send_many_within_hwm_is_all_or_nothing(self):
        context = Context()
        sink = context.pull(hwm=4).bind("inproc://atomic")
        push = context.push(hwm=4).connect("inproc://atomic")
        push.send(0)  # leave room for only 3
        with pytest.raises(WouldBlock):
            push.send_many(["a", "b", "c", "d"], timeout=0.05)
        # Nothing from the failed group was admitted or counted sent.
        assert push.sent == 1
        assert sink.recv_many(block=False) == [0]

    def test_send_many_accounts_for_partial_multiwave_delivery(self):
        # A group larger than the HWM moves in waves; when a later wave
        # times out, `sent` must reflect the messages the sink already
        # admitted (the old code reported zero, so re-reports
        # duplicated the delivered chunks).
        context = Context()
        sink = context.pull(hwm=3).bind("inproc://partial")
        push = context.push(hwm=3).connect("inproc://partial")
        with pytest.raises(WouldBlock) as excinfo:
            push.send_many(list(range(10)), timeout=0.05)
        assert push.sent == 3
        assert "3/10" in str(excinfo.value)
        assert sink.recv_many(block=False) == [0, 1, 2]

    def test_send_many_timeout_is_a_deadline_across_waves(self):
        import time as _time

        context = Context()
        sink = context.pull(hwm=1).bind("inproc://deadline")
        push = context.push(hwm=1).connect("inproc://deadline")
        stop = threading.Event()

        def slow_drain():
            # One item per 0.2s: each wave's wait succeeds well inside
            # a fresh 0.5s timeout, so the old per-wave timeout would
            # let all 8 waves through (~1.6s total).  A 0.5s *deadline*
            # must give up partway instead.
            while not stop.is_set():
                _time.sleep(0.2)
                try:
                    sink.recv_many(block=False)
                except WouldBlock:
                    pass

        thread = threading.Thread(target=slow_drain, daemon=True)
        thread.start()
        try:
            with pytest.raises(WouldBlock):
                push.send_many(list(range(8)), timeout=0.5)
            assert push.sent < 8
        finally:
            stop.set()
            thread.join()


# ---------------------------------------------------------------------------
# Property: batched ≡ per-event ingest
# ---------------------------------------------------------------------------


PATHS = st.sampled_from(
    ["/projects/a", "/projects/b", "/scratch/x", "/scratch/y", "/home/u"]
)


def build_aggregator(tag, topic_by_path, batch_events=0):
    context = Context()
    config = AggregatorConfig(
        inbound_endpoint=f"inproc://prop-in-{tag}",
        publish_endpoint=f"inproc://prop-pub-{tag}",
        api_endpoint=f"inproc://prop-rep-{tag}",
        topic_by_path=topic_by_path,
        batch_events=batch_events,
    )
    aggregator = Aggregator(context, config)
    subscriber = (
        context.sub()
        .connect(config.publish_endpoint)
        .subscribe(config.publish_topic)
    )
    return aggregator, subscriber


def published_entries(subscriber):
    """Publish order, global and per-topic: ([seq, ...], {topic: [seq, ...]})."""
    global_order = []
    per_topic = {}
    while True:
        try:
            messages = subscriber.recv_many(block=False)
        except WouldBlock:
            return global_order, per_topic
        for topic, payload in messages:
            seqs = [seq for seq, _event in payload.entries]
            global_order.extend(seqs)
            per_topic.setdefault(topic, []).extend(seqs)


class TestBatchedEqualsPerEvent:
    @settings(max_examples=30, deadline=None)
    @given(
        paths=st.lists(PATHS, min_size=0, max_size=40),
        topic_by_path=st.booleans(),
        batch_events=st.sampled_from([0, 1, 3]),
    )
    def test_same_store_contents_and_publish_order(
        self, paths, topic_by_path, batch_events
    ):
        events = [make_event(path) for path in paths]
        batched, batched_sub = build_aggregator(
            "b", topic_by_path, batch_events
        )
        single, single_sub = build_aggregator("s", topic_by_path)
        # Batched path: the whole list in one _handle_batch call.
        batched._handle_batch(list(events))
        # Per-event path: one call per event.
        for event in events:
            single._handle_batch([event])
        assert batched.store.since(0) == single.store.since(0)
        assert batched.events_stored == single.events_stored == len(events)
        # Identical sequence order on the wire — *globally*, not just
        # per topic: a broad-prefix subscriber matching every per-path
        # topic must see monotone seqs or its watermark dedup loses
        # events.
        batched_global, batched_topics = published_entries(batched_sub)
        single_global, single_topics = published_entries(single_sub)
        assert batched_global == single_global == list(
            range(1, len(events) + 1)
        )
        assert batched_topics == single_topics
        # And batching actually amortised the store lock.
        if events:
            assert batched.store.lock_acquisitions < \
                single.store.lock_acquisitions or len(events) == 1
