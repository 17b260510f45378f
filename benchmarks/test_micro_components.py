"""Component microbenchmarks: the hot paths of the live implementation."""

import os

import pytest

from repro.cloudq import ReliableQueue
from repro.core.aggregator import Aggregator, AggregatorConfig
from repro.core.events import EventType, FileEvent
from repro.core.processor import PathCache
from repro.core.store import EventStore
from repro.lustre.fid import Fid
from repro.msgq import Context

#: Workload size for the ingest micro-benchmark; the CI smoke step
#: shrinks it so the counter assertions run in seconds.
INGEST_EVENTS = int(os.environ.get("INGEST_BENCH_EVENTS", "5000"))
INGEST_BATCH = 100


def make_event(index):
    return FileEvent(
        event_type=EventType.CREATED, path=f"/d/f{index}", is_dir=False,
        timestamp=float(index), name=f"f{index}", source="lustre",
        fid=f"0x1:{index}:0x0", parent_fid="0x1:0x1:0x0",
        mdt_index=0, record_index=index,
    )


class TestEventStoreBench:
    def test_bench_append(self, benchmark):
        store = EventStore(max_events=10_000)
        counter = {"n": 0}

        def append():
            counter["n"] += 1
            store.append(make_event(counter["n"]))

        benchmark(append)

    def test_bench_since_on_full_store(self, benchmark):
        store = EventStore(max_events=10_000)
        for index in range(10_000):
            store.append(make_event(index))
        result = benchmark(store.since, 9_900)
        assert len(result) == 100

    def test_bench_query_by_prefix(self, benchmark):
        store = EventStore(max_events=10_000)
        for index in range(10_000):
            store.append(make_event(index))
        result = benchmark(store.query, path_prefix="/d/f42", limit=10)
        assert result

    def test_bench_typed_query_scans_only_its_bucket(self, benchmark):
        # 10k events, four types round-robin: a typed query must touch
        # only that type's bucket (2500 entries), not the whole window.
        store = EventStore(max_events=10_000)
        types = [EventType.CREATED, EventType.DELETED,
                 EventType.MODIFIED, EventType.ATTRIB]
        store.extend([
            FileEvent(
                event_type=types[index % 4], path=f"/d/f{index}",
                is_dir=False, timestamp=float(index), name=f"f{index}",
                source="lustre",
            )
            for index in range(10_000)
        ])
        def typed_query():
            store.reset_op_counters()
            return store.query(event_type=EventType.DELETED)

        result = benchmark.pedantic(typed_query, rounds=3, iterations=1)
        assert len(result) == 2_500
        assert store.events_scanned == 2_500  # bucket-sized, not 10k

    def test_bench_time_window_query_bisects(self, benchmark):
        # Monotone timestamps: a narrow window must scan only in-window
        # entries, located by binary search.
        store = EventStore(max_events=10_000)
        for index in range(10_000):
            store.append(make_event(index))
        def window_query():
            store.reset_op_counters()
            return store.query(since_time=5_000.0, until_time=5_099.0)

        result = benchmark.pedantic(window_query, rounds=3, iterations=1)
        assert len(result) == 100
        assert store.events_scanned == 100  # window-sized, not 10k


class TestIngestBatchingBench:
    """Per-event vs batched ingest through the real store+publish path.

    The win is verified with *operation counters*, not wall-clock: the
    batched path must take one store lock per batch and perform at most
    one PUB send per same-topic run of a batch (exactly one per batch
    on a single-topic workload), while the per-event path pays both
    costs per event.
    """

    @staticmethod
    def build(tag):
        context = Context()
        config = AggregatorConfig(
            inbound_endpoint=f"inproc://ingest-in-{tag}",
            publish_endpoint=f"inproc://ingest-pub-{tag}",
            api_endpoint=f"inproc://ingest-rep-{tag}",
            store_max_events=max(INGEST_EVENTS, 1),
        )
        aggregator = Aggregator(context, config)
        subscriber = (
            context.sub(hwm=10_000_000)
            .connect(config.publish_endpoint)
            .subscribe(config.publish_topic)
        )
        return aggregator, subscriber

    def test_bench_ingest_per_event(self, benchmark):
        events = [make_event(index) for index in range(INGEST_EVENTS)]
        counter = {"round": 0}

        def per_event():
            aggregator, _sub = self.build(f"pe{counter['round']}")
            counter["round"] += 1
            for event in events:
                aggregator._handle_batch([event])
            return aggregator

        aggregator = benchmark.pedantic(per_event, rounds=3, iterations=1)
        # The per-event path pays one lock and one publish per event.
        assert aggregator.store.lock_acquisitions == INGEST_EVENTS
        assert aggregator.publisher.published == INGEST_EVENTS

    def test_bench_ingest_batched(self, benchmark):
        events = [make_event(index) for index in range(INGEST_EVENTS)]
        batches = [
            events[start:start + INGEST_BATCH]
            for start in range(0, len(events), INGEST_BATCH)
        ]
        counter = {"round": 0}

        def batched():
            aggregator, _sub = self.build(f"b{counter['round']}")
            counter["round"] += 1
            for batch in batches:
                aggregator._handle_batch(batch)
            return aggregator

        aggregator = benchmark.pedantic(batched, rounds=3, iterations=1)
        # O(1) lock acquisitions per batch, ≤1 fabric send per
        # (batch, topic) — one topic here, so exactly one per batch.
        assert aggregator.store.lock_acquisitions == len(batches)
        assert aggregator.publisher.published == len(batches)
        assert aggregator.batches_published == len(batches)
        assert aggregator.events_stored == INGEST_EVENTS

    def test_since_on_full_store_is_indexed(self):
        """Scan-count probe: ``since(seq)`` against a full 100k-event
        store touches only the entries above *seq*, never the window
        below it (the old implementation scanned all 100k)."""
        size = min(100_000, max(INGEST_EVENTS * 20, 1000))
        store = EventStore(max_events=size)
        store.extend([make_event(index) for index in range(size)])
        store.reset_op_counters()
        tail = store.since(size - 50)
        assert len(tail) == 50
        assert store.events_scanned == 50  # not `size`
        store.reset_op_counters()
        page = store.since(0, limit=25)
        assert len(page) == 25
        assert store.events_scanned == 25  # limit bounds the scan itself


class TestClusterIngestBench:
    """Throughput of the sharded aggregation tier's real hot path.

    Report batches flow through the rendezvous-routing sink onto real
    per-shard PUSH/PULL sockets and are pumped by stock aggregators —
    the exact cluster ingest path, minus collectors.  Verified by
    counters: every event lands on exactly one shard, and the spread
    covers all shards.
    """

    SHARDS = 4

    @staticmethod
    def make_mdt_event(index, mdt_index):
        return FileEvent(
            event_type=EventType.CREATED, path=f"/d{mdt_index}/f{index}",
            is_dir=False, timestamp=float(index), name=f"f{index}",
            source="lustre", mdt_index=mdt_index, record_index=index,
        )

    def build(self, tag):
        from repro.core.monitor import PushSink, ShardRoutingSink
        from repro.core.router import ShardMap, ShardRouter

        context = Context()
        shard_ids = tuple(f"shard{i}" for i in range(self.SHARDS))
        router = ShardRouter(ShardMap(shard_ids))
        shards, sinks = {}, {}
        for shard_id in shard_ids:
            config = AggregatorConfig(
                inbound_endpoint=f"inproc://{tag}.{shard_id}.in",
                publish_endpoint=f"inproc://{tag}.{shard_id}.pub",
                api_endpoint=f"inproc://{tag}.{shard_id}.api",
                store_max_events=max(INGEST_EVENTS, 1),
                shard_label=shard_id,
            )
            shards[shard_id] = Aggregator(
                context, config, name=f"{tag}.{shard_id}"
            )
            sinks[shard_id] = PushSink(
                context.push().connect(config.inbound_endpoint)
            )
        return ShardRoutingSink(router, sinks), shards

    def test_bench_cluster_ingest(self, benchmark):
        batches = [
            [
                self.make_mdt_event(index, mdt_index=(start // INGEST_BATCH) % 16)
                for index in range(start, start + INGEST_BATCH)
            ]
            for start in range(0, INGEST_EVENTS, INGEST_BATCH)
        ]
        counter = {"round": 0}

        def sharded_ingest():
            sink, shards = self.build(f"clb{counter['round']}")
            counter["round"] += 1
            sink.send_many(batches)
            for shard in shards.values():
                shard.pump_once()
            return shards

        shards = benchmark.pedantic(sharded_ingest, rounds=3, iterations=1)
        stored = {
            shard_id: shard.events_stored
            for shard_id, shard in shards.items()
        }
        assert sum(stored.values()) == sum(len(b) for b in batches)
        # Rendezvous routing is deterministic over the shard-id set, so
        # each shard must have stored exactly its routed share.
        from repro.core.router import ShardMap

        shard_map = ShardMap(tuple(shards))
        expected = {shard_id: 0 for shard_id in shards}
        for batch in batches:
            expected[shard_map.route(f"mdt:{batch[0].mdt_index}")] += len(batch)
        assert stored == expected


class TestTracingOverheadBench:
    """Op-counter proof that stage tracing costs what it claims.

    ``trace_sample_rate=0.0`` must compile to no-ops: zero histograms
    registered, zero histogram lock acquisitions, and the batched-path
    invariants (one store lock / one PUB send per batch) unchanged.
    At the default rate 1.0, tracing adds exactly one histogram lock
    per published chunk and nothing else.
    """

    @staticmethod
    def build(tag, sample_rate):
        context = Context()
        config = AggregatorConfig(
            inbound_endpoint=f"inproc://trace-in-{tag}",
            publish_endpoint=f"inproc://trace-pub-{tag}",
            api_endpoint=f"inproc://trace-rep-{tag}",
            store_max_events=max(INGEST_EVENTS, 1),
            trace_sample_rate=sample_rate,
        )
        return Aggregator(context, config)

    @staticmethod
    def feed(aggregator):
        events = [make_event(index) for index in range(INGEST_EVENTS)]
        batches = [
            events[start:start + INGEST_BATCH]
            for start in range(0, len(events), INGEST_BATCH)
        ]
        for batch in batches:
            aggregator._handle_batch(batch)
        return batches

    def test_tracing_disabled_adds_zero_lock_acquisitions(self, benchmark):
        counter = {"round": 0}

        def run():
            aggregator = self.build(f"off{counter['round']}", 0.0)
            counter["round"] += 1
            self.feed(aggregator)
            return aggregator

        aggregator = benchmark.pedantic(run, rounds=3, iterations=1)
        registry = aggregator.metrics.registry
        # No histograms exist at all, so no histogram lock was ever
        # taken — the disabled path performs zero tracing work.
        assert registry.histograms() == {}
        assert sum(
            h.lock_acquisitions for h in registry.histograms().values()
        ) == 0
        # The batching invariants are untouched.
        batches = INGEST_EVENTS // INGEST_BATCH
        assert aggregator.store.lock_acquisitions == batches
        assert aggregator.publisher.published == batches

    def test_tracing_enabled_costs_one_lock_per_chunk(self, benchmark):
        counter = {"round": 0}

        def run():
            aggregator = self.build(f"on{counter['round']}", 1.0)
            counter["round"] += 1
            self.feed(aggregator)
            return aggregator

        aggregator = benchmark.pedantic(run, rounds=3, iterations=1)
        registry = aggregator.metrics.registry
        batches = INGEST_EVENTS // INGEST_BATCH
        # Raw-list input carries no collected_ts, so only the publish
        # stage records: exactly one histogram lock per published chunk
        # (single topic + default flush policy => one chunk per batch).
        locks = {
            name: h.lock_acquisitions
            for name, h in registry.histograms().items()
        }
        assert locks == {"pipeline.publish": batches}
        assert registry.histogram("pipeline.publish").total == batches
        # Store/publish invariants hold at full sampling too.
        assert aggregator.store.lock_acquisitions == batches
        assert aggregator.publisher.published == batches


class TestQueueBench:
    def test_bench_sqs_send_receive_delete(self, benchmark):
        queue = ReliableQueue("bench", visibility_timeout=60.0)

        def round_trip():
            queue.send({"k": 1})
            (message,) = queue.receive()
            queue.delete(message.receipt)

        benchmark(round_trip)
        assert queue.approximate_depth == 0

    def test_bench_pubsub_fan_out_10(self, benchmark):
        context = Context()
        publisher = context.pub().bind("inproc://bench")
        subscribers = [
            context.sub(hwm=1_000_000).connect("inproc://bench").subscribe("")
            for _ in range(10)
        ]

        def publish():
            publisher.send("t", "payload")

        benchmark(publish)
        assert all(sub.pending > 0 for sub in subscribers)


class TestPathCacheBench:
    def test_bench_hit(self, benchmark):
        cache = PathCache(capacity=4096)
        fids = [Fid(1, index) for index in range(4096)]
        for index, fid in enumerate(fids):
            cache.put(fid, f"/dir{index}")
        target = fids[123]
        path = benchmark(cache.get, target)
        assert path == "/dir123"

    def test_bench_invalidate_prefix(self, benchmark):
        def build_and_invalidate():
            cache = PathCache(capacity=4096)
            for index in range(2048):
                cache.put(Fid(1, index), f"/tree/sub{index % 8}/d{index}")
            return cache.invalidate_prefix("/tree/sub3")

        removed = benchmark.pedantic(build_and_invalidate, rounds=20,
                                     iterations=1)
        assert removed == 256


class TestChangelogPipelineBench:
    def test_bench_lustre_create_op(self, benchmark):
        from repro.lustre import LustreFilesystem

        fs = LustreFilesystem()
        fs.mkdir("/d")
        user = fs.changelogs()[0].register_user()
        counter = {"n": 0}

        def create():
            counter["n"] += 1
            fs.create(f"/d/f{counter['n']}")
            changelog = fs.changelogs()[0]
            changelog.clear(user, changelog.last_index)

        benchmark(create)
