"""Tests for the sharded aggregation tier.

Covers the cluster subsystem end to end:

* deterministic rendezvous routing and versioned shard maps (including
  the rebalance property: removing a shard moves only its keys);
* the consumer watermark regression — a single global watermark drops a
  lagging shard's fresh events as "duplicates"; per-shard watermarks
  must not;
* the crash-safe aggregator pump — batches drained from the inbound
  mailbox but not yet stored are requeued when the pump crashes, so a
  shard crash between collector purge and store loses nothing;
* the tentpole property: an N-shard ClusterMonitor delivers exactly
  the same event *set* as a single-aggregator LustreMonitor on an
  identical trace;
* live shard failover: kill one shard mid-run, supervisor restarts it,
  zero event loss and no duplicates;
* ClusterClient scatter-gather: merged ``events_since``/``query``/
  ``recent`` in ``(shard, seq)`` total order, summed ``stats()``, and
  cluster-wide ``catch_up`` against per-shard watermarks.
"""

import asyncio
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    ClusterMonitor,
    decode_cursor,
    encode_cursor,
)
from repro.core import (
    Aggregator,
    AggregatorConfig,
    Consumer,
    EventBatch,
    LustreMonitor,
    MonitorConfig,
)
from repro.core.events import EventType, FileEvent
from repro.core.router import ShardMap, ShardRouter
from repro.lustre import LustreFilesystem
from repro.lustre.mds import DnePolicy
from repro.msgq import Context
from repro.runtime import RestartPolicy, ServiceCrash
from repro.util.clock import ManualClock
from repro.workloads.traces import TraceReplayer, synthetic_trace


def make_event(path, event_type=EventType.CREATED, timestamp=1.0):
    return FileEvent(
        event_type=event_type,
        path=path,
        is_dir=False,
        timestamp=timestamp,
        name=path.rsplit("/", 1)[-1],
        source="lustre",
    )


def wait_for(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def build_cluster(num_shards=3, num_mds=2, mdts_per_mds=2, **kwargs):
    fs = LustreFilesystem(
        num_mds=num_mds,
        mdts_per_mds=mdts_per_mds,
        dne_policy=DnePolicy.ROUND_ROBIN,
        clock=ManualClock(),
    )
    cluster = ClusterMonitor(
        fs, ClusterConfig(num_shards=num_shards, **kwargs)
    )
    return fs, cluster


def populate(fs, dirs=6, files_per_dir=5):
    """Spread activity across directories (and, with DNE, MDTs)."""
    paths = []
    for d in range(dirs):
        fs.makedirs(f"/proj{d}")
        for i in range(files_per_dir):
            path = f"/proj{d}/f{i}.dat"
            fs.create(path)
            paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Routing: rendezvous hashing + versioned shard maps
# ---------------------------------------------------------------------------


class TestShardMap:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardMap(())

    def test_rejects_duplicate_shards(self):
        with pytest.raises(ValueError):
            ShardMap(("a", "a"))

    def test_route_is_deterministic_across_instances(self):
        a = ShardMap(("shard0", "shard1", "shard2"))
        b = ShardMap(("shard0", "shard1", "shard2"))
        keys = [f"mdt:{i}" for i in range(64)]
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]

    def test_keys_spread_across_shards(self):
        shard_map = ShardMap(("shard0", "shard1", "shard2", "shard3"))
        owners = {shard_map.route(f"mdt:{i}") for i in range(256)}
        assert owners == set(shard_map.shards)

    def test_without_bumps_version_and_drops_shard(self):
        shard_map = ShardMap(("a", "b", "c"))
        successor = shard_map.without("b")
        assert successor.version == shard_map.version + 1
        assert successor.shards == ("a", "c")
        with pytest.raises(KeyError):
            shard_map.without("nope")

    def test_with_shards_bumps_version_and_dedups(self):
        shard_map = ShardMap(("a", "b"))
        successor = shard_map.with_shards("c", "a")
        assert successor.shards == ("a", "b", "c")
        assert successor.version == shard_map.version + 1

    @settings(max_examples=40, deadline=None)
    @given(
        num_shards=st.integers(min_value=2, max_value=6),
        removed=st.integers(min_value=0, max_value=5),
    )
    def test_removing_a_shard_moves_only_its_keys(self, num_shards, removed):
        """The rendezvous property the whole rebalance story rests on."""
        removed %= num_shards
        shards = tuple(f"shard{i}" for i in range(num_shards))
        before = ShardMap(shards)
        after = before.without(f"shard{removed}")
        for i in range(128):
            key = f"mdt:{i}"
            owner = before.route(key)
            if owner == f"shard{removed}":
                assert after.route(key) != owner
            else:
                assert after.route(key) == owner

    def test_restore_returns_original_assignment(self):
        before = ShardMap(("shard0", "shard1", "shard2"))
        roundtrip = before.without("shard1").with_shards("shard1")
        keys = [f"mdt:{i}" for i in range(128)]
        # with_shards appends, so membership order may differ — but
        # rendezvous scoring ignores order entirely.
        assert [before.route(k) for k in keys] == [
            roundtrip.route(k) for k in keys
        ]


class TestShardRouter:
    def test_swap_rejects_stale_versions(self):
        router = ShardRouter(ShardMap(("a", "b")))
        with pytest.raises(ValueError):
            router.swap(ShardMap(("a",), version=1))

    def test_retire_and_restore_bump_versions(self):
        router = ShardRouter(ShardMap(("a", "b")))
        router.retire("a")
        assert router.shards == ("b",)
        assert router.version == 2
        router.restore("a")
        assert set(router.shards) == {"a", "b"}
        assert router.version == 3

    def test_route_counts_decisions(self):
        router = ShardRouter(ShardMap(("a", "b")))
        for i in range(5):
            router.route(f"k{i}")
        assert router.routed == 5


# ---------------------------------------------------------------------------
# Consumer watermarks (satellite regression)
# ---------------------------------------------------------------------------


class TestPerShardWatermarks:
    def _consumer(self, ctx):
        config = AggregatorConfig(
            inbound_endpoint="inproc://wm.reports",
            publish_endpoint="inproc://wm.events",
            api_endpoint="inproc://wm.api",
        )
        pub = ctx.pub().bind(config.publish_endpoint)
        ctx.rep().bind(config.api_endpoint)
        seen = []
        consumer = Consumer(
            ctx, lambda seq, ev: seen.append((seq, ev)), config=config
        )
        return pub, consumer, seen

    def _batch(self, shard, prefix, seqs):
        return EventBatch(
            tuple((seq, make_event(f"/{prefix}/f{seq}")) for seq in seqs),
            shard=shard,
        )

    def test_lagging_shard_events_not_dropped_as_duplicates(self):
        """Regression: one global watermark means a fast shard at seq
        10 makes a lagging shard's seqs 1..5 look like replays."""
        pub, consumer, seen = self._consumer(Context())
        pub.send("events", self._batch("shard0", "fast", range(1, 11)))
        consumer.poll_once()
        pub.send("events", self._batch("shard1", "lag", range(1, 6)))
        consumer.poll_once()
        assert len(seen) == 15
        assert consumer.duplicates_skipped == 0
        assert consumer.watermark("shard0") == 10
        assert consumer.watermark("shard1") == 5

    def test_replays_still_deduped_per_shard(self):
        pub, consumer, seen = self._consumer(Context())
        batch = self._batch("shard0", "a", range(1, 6))
        pub.send("events", batch)
        consumer.poll_once()
        pub.send("events", batch)  # replay of the same shard's seqs
        consumer.poll_once()
        assert len(seen) == 5
        assert consumer.duplicates_skipped == 5

    def test_unlabelled_batches_keep_single_watermark_semantics(self):
        """Pre-cluster publishers (shard=None) behave exactly as before:
        one watermark, readable via the legacy ``last_seq`` name."""
        pub, consumer, seen = self._consumer(Context())
        pub.send(
            "events",
            EventBatch(tuple((i, make_event(f"/x/f{i}")) for i in (1, 2, 3))),
        )
        consumer.poll_once()
        assert consumer.last_seq == 3
        pub.send("events", EventBatch(((2, make_event("/x/f2")),)))
        consumer.poll_once()
        assert len(seen) == 3
        assert consumer.duplicates_skipped == 1


# ---------------------------------------------------------------------------
# Crash-safe pump (requeue of drained-but-unstored batches)
# ---------------------------------------------------------------------------


class TestCrashSafePump:
    def _aggregator(self, tag):
        ctx = Context()
        config = AggregatorConfig(
            inbound_endpoint=f"inproc://{tag}.reports",
            publish_endpoint=f"inproc://{tag}.events",
            api_endpoint=f"inproc://{tag}.api",
        )
        aggregator = Aggregator(ctx, config)
        push = ctx.push().connect(config.inbound_endpoint)
        return aggregator, push

    def test_crash_mid_pump_requeues_unstored_batches(self):
        """Regression: pump_once drained the mailbox then crashed,
        losing every drained-but-unstored batch (collectors had
        already purged)."""
        aggregator, push = self._aggregator("crashpump")
        batches = [
            [make_event(f"/b{n}/f{i}") for i in range(4)] for n in range(3)
        ]
        for batch in batches:
            push.send(batch)

        original = aggregator.store.extend
        state = {"calls": 0}

        def crash_on_second(events):
            state["calls"] += 1
            if state["calls"] == 2:
                raise ServiceCrash("injected mid-pump")
            return original(events)

        aggregator.store.extend = crash_on_second
        with pytest.raises(ServiceCrash):
            aggregator.pump_once()
        # Batch 1 stored; batches 2 and 3 back in the mailbox, in order.
        assert aggregator.store.last_seq == 4
        assert aggregator.inbound.pending == 2

        aggregator.store.extend = original
        aggregator.pump_once()
        assert aggregator.store.last_seq == 12
        paths = [event.path for _seq, event in aggregator.store.since(0)]
        assert paths == [
            f"/b{n}/f{i}" for n in range(3) for i in range(4)
        ]

    def test_crash_after_store_does_not_requeue_that_batch(self):
        """A batch whose store committed must not be replayed — that
        would assign the same events fresh sequence numbers."""
        aggregator, push = self._aggregator("crashpub")
        push.send([make_event("/a/f0")])

        original_send = aggregator.publisher.send

        def crash_publish(topic, message):
            aggregator.publisher.send = original_send
            raise ServiceCrash("injected at publish")

        aggregator.publisher.send = crash_publish
        with pytest.raises(ServiceCrash):
            aggregator.pump_once()
        assert aggregator.store.last_seq == 1
        assert aggregator.inbound.pending == 0  # stored → not requeued
        aggregator.pump_once()
        assert aggregator.store.last_seq == 1  # no duplicate storage


# ---------------------------------------------------------------------------
# Tentpole property: cluster ≡ single-aggregator delivery set
# ---------------------------------------------------------------------------


def delivered_set(monitor_like, fs, ops):
    seen = []
    monitor_like.subscribe(lambda seq, ev: seen.append(ev))
    TraceReplayer(fs).replay(ops)
    monitor_like.drain()
    return seen


class TestClusterEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_shards=st.integers(min_value=1, max_value=4),
    )
    def test_cluster_delivers_same_event_set_as_single_aggregator(
        self, seed, num_shards
    ):
        """N shards repartition the stream; they must not change it."""

        def build_fs():
            return LustreFilesystem(
                num_mds=2,
                mdts_per_mds=2,
                dne_policy=DnePolicy.ROUND_ROBIN,
                clock=ManualClock(),
            )

        ops = list(synthetic_trace(100, seed=seed))
        fs_single = build_fs()
        single = LustreMonitor(fs_single, MonitorConfig())
        fs_cluster = build_fs()
        cluster = ClusterMonitor(
            fs_cluster, ClusterConfig(num_shards=num_shards)
        )
        try:
            single_events = delivered_set(single, fs_single, ops)
            cluster_events = delivered_set(cluster, fs_cluster, ops)
            assert set(cluster_events) == set(single_events)
            assert len(cluster_events) == len(single_events)
        finally:
            single.shutdown()
            cluster.shutdown()

    def test_mdt_streams_have_shard_affinity(self):
        """All of one MDT's events land on the shard that owns it."""
        fs, cluster = build_cluster(num_shards=3)
        try:
            cluster.subscribe(lambda seq, ev: None)
            populate(fs)
            cluster.drain()
            client = ClusterClient.for_cluster(cluster)
            for shard_id in cluster.shard_ids:
                page = [
                    entry
                    for entry in client.events_since(0)
                    if entry[0] == shard_id
                ]
                for _shard, _seq, event in page:
                    assert cluster.shard_of(event.mdt_index) == shard_id
        finally:
            cluster.shutdown()


# ---------------------------------------------------------------------------
# Failover
# ---------------------------------------------------------------------------


class TestShardFailover:
    def test_deterministic_crash_loses_nothing(self):
        """Injected crash before store → requeue → replay, exactly once."""
        fs, cluster = build_cluster(num_shards=3)
        seen = []
        try:
            cluster.subscribe(lambda seq, ev: seen.append(ev))
            paths = populate(fs)
            cluster.drain()
            before = len(seen)
            victim = cluster.shard_of(0)
            cluster.crash_shard(victim)
            fs.create("/proj0/crashy.dat")
            with pytest.raises(ServiceCrash):
                cluster.drain()
            cluster.drain()  # deterministic stand-in for the restart
            assert len(seen) == before + 1
            all_paths = [e.path for e in seen]
            assert len(all_paths) == len(set(all_paths))
            assert len(seen) >= len(paths) + 1
        finally:
            cluster.shutdown()

    def test_live_shard_kill_recovers_with_zero_loss(self):
        """Kill one shard mid-run under supervision: the supervisor
        restarts it, the requeued batch replays, and every event
        arrives exactly once."""
        fs, cluster = build_cluster(
            num_shards=2,
            restart_policy=RestartPolicy(max_restarts=5, backoff_base=0.01),
        )
        seen = []
        cluster.subscribe(lambda seq, ev: seen.append(ev))
        victim = cluster.shard_of(0)
        shard = cluster.shards[victim]
        try:
            cluster.start()
            first = populate(fs, dirs=4, files_per_dir=5)
            assert wait_for(lambda: len(seen) >= len(first) + 4)
            cluster.crash_shard(victim)
            more = []
            for i in range(10):
                path = f"/proj0/late{i}.dat"
                fs.create(path)
                more.append(path)
            expected = len(first) + 4 + len(more)  # +4 mkdir events
            assert wait_for(lambda: shard.restart_count >= 1)
            assert wait_for(lambda: len(seen) == expected)
        finally:
            cluster.shutdown()
        paths = [e.path for e in seen]
        assert len(paths) == len(set(paths)) == expected
        assert set(more) <= set(paths)

    def test_retire_reroutes_new_keys_and_restore_brings_them_back(self):
        fs, cluster = build_cluster(num_shards=2)
        try:
            cluster.subscribe(lambda seq, ev: None)
            victim = cluster.shard_of(0)
            survivor = next(
                s for s in cluster.shard_ids if s != victim
            )
            cluster.retire_shard(victim)
            populate(fs, dirs=4, files_per_dir=3)
            cluster.drain()
            stats = cluster.stats()
            assert stats.per_shard[victim]["events_stored"] == 0
            assert stats.per_shard[survivor]["events_stored"] > 0
            assert stats.shard_map_version == 2
            cluster.restore_shard(victim)
            fs.create("/proj0/back.dat")
            cluster.drain()
            assert (
                cluster.stats().per_shard[cluster.shard_of(0)][
                    "events_stored"
                ]
                > 0
            )
        finally:
            cluster.shutdown()


# ---------------------------------------------------------------------------
# Scatter-gather client
# ---------------------------------------------------------------------------


class TestClusterClient:
    def _drained_cluster(self):
        fs, cluster = build_cluster(num_shards=3)
        seen = []
        cluster.subscribe(lambda seq, ev: seen.append(ev))
        populate(fs)
        cluster.drain()
        return fs, cluster, seen

    def test_events_since_merges_all_shards_in_total_order(self):
        fs, cluster, seen = self._drained_cluster()
        try:
            client = ClusterClient.for_cluster(cluster)
            merged = client.events_since(0)
            assert len(merged) == len(seen)
            assert {e for _s, _q, e in merged} == set(seen)
            # (shard, seq) total order: shards grouped in membership
            # order, seqs ascending within each shard.
            order = {s: i for i, s in enumerate(client.shard_ids)}
            keys = [(order[s], q) for s, q, _e in merged]
            assert keys == sorted(keys)
        finally:
            cluster.shutdown()

    def test_events_since_resumes_from_per_shard_cursors(self):
        fs, cluster, seen = self._drained_cluster()
        try:
            client = ClusterClient.for_cluster(cluster)
            cursors = client.last_seq()
            assert client.events_since(cursors) == []
            fs.create("/proj0/new.dat")
            cluster.drain()
            fresh = client.events_since(cursors)
            assert [e.path for _s, _q, e in fresh] == ["/proj0/new.dat"]
        finally:
            cluster.shutdown()

    def test_stats_totals_equal_sum_of_per_shard_registries(self):
        """The acceptance criterion: summed scatter-gather stats match
        the per-shard registry scopes exactly."""
        fs, cluster, seen = self._drained_cluster()
        try:
            answer = ClusterClient.for_cluster(cluster).stats()
            for metric in ("events_stored", "events_published", "store_len"):
                expected = sum(
                    shard.metrics.snapshot().get(metric, 0)
                    for shard in cluster.shards.values()
                )
                assert answer["totals"][metric] == expected
            assert answer["totals"]["events_stored"] == len(seen)
            assert set(answer["per_shard"]) == set(cluster.shard_ids)
        finally:
            cluster.shutdown()

    def test_recent_returns_newest_cluster_wide(self):
        fs, cluster, seen = self._drained_cluster()
        try:
            fs.clock.advance(10.0)
            for i in range(3):
                fs.create(f"/proj1/newest{i}.dat")
            cluster.drain()
            newest = ClusterClient.for_cluster(cluster).recent(3)
            assert {e.path for _s, _q, e in newest} == {
                f"/proj1/newest{i}.dat" for i in range(3)
            }
        finally:
            cluster.shutdown()

    def test_query_filters_across_shards(self):
        fs, cluster, seen = self._drained_cluster()
        try:
            client = ClusterClient.for_cluster(cluster)
            under = client.query(path_prefix="/proj2")
            assert under
            for _shard, _seq, event in under:
                assert event.path.startswith("/proj2")
            summary = client.activity_summary("/")
            assert summary["created"] == len(
                [e for e in seen if e.event_type == EventType.CREATED]
            )
        finally:
            cluster.shutdown()

    def test_metrics_exposition_covers_every_shard(self):
        fs, cluster, seen = self._drained_cluster()
        try:
            client = ClusterClient.for_cluster(cluster)
            exposition = client.metrics()["prometheus"]
            for shard_id in cluster.shard_ids:
                # Shard scopes are reserved via unique_scope(), so they
                # render as a scope label on one shared family.
                assert (
                    f'repro_events_stored_total{{scope="{shard_id}"}}'
                    in exposition
                )
        finally:
            cluster.shutdown()

    def test_catch_up_backfills_and_suppresses_duplicates(self):
        fs, cluster, seen = self._drained_cluster()
        try:
            late_events = []
            late = cluster.subscribe(
                lambda seq, ev: late_events.append(ev), name="late"
            )
            client = ClusterClient.for_cluster(cluster)
            recovered = client.catch_up(late)
            assert recovered == len(seen)
            assert set(late_events) == set(seen)
            # A second catch-up pages from the advanced watermarks —
            # nothing to fetch, nothing re-delivered.
            assert client.catch_up(late) == 0
            assert len(late_events) == len(seen)
            # And a replayed entry is still suppressed by the dedup.
            shard, seq, event = client.events_since(0)[0]
            late.deliver(seq, event, source=shard)
            assert late.duplicates_skipped == 1
            assert len(late_events) == len(seen)
            # Live delivery after catch-up continues seamlessly, and a
            # catch-up after live delivery re-fetches nothing (live and
            # historic paths share the per-shard watermarks).
            baseline = len(late_events)
            fs.create("/proj0/after.dat")
            cluster.drain()
            assert late_events[-1].path == "/proj0/after.dat"
            assert client.catch_up(late) == 0
            assert len(late_events) == baseline + 1
        finally:
            cluster.shutdown()


# ---------------------------------------------------------------------------
# Opaque cursor paging + async facade
# ---------------------------------------------------------------------------


class TestClusterCursorPaging:
    def _drained_cluster(self):
        fs, cluster = build_cluster(num_shards=3)
        seen = []
        cluster.subscribe(lambda seq, ev: seen.append(ev))
        populate(fs)
        cluster.drain()
        return fs, cluster, seen

    @pytest.mark.parametrize("limit", [1, 2, 3, 7, 29, 500])
    def test_page_walk_never_skips_or_duplicates(self, limit):
        """Walking page() at any page size reproduces events_since(0)
        exactly — the boundary may fall mid-shard without loss."""
        fs, cluster, _seen = self._drained_cluster()
        try:
            client = ClusterClient.for_cluster(cluster)
            reference = client.events_since(0)
            walked, cursor = [], None
            while True:
                page = client.page(cursor, limit=limit)
                assert len(page) <= limit
                walked.extend(page.entries)
                cursor = page.cursor
                if page.exhausted:
                    break
            assert walked == reference
            # The final cursor is at the head: nothing more to read.
            assert len(client.page(cursor, limit=limit)) == 0
        finally:
            cluster.shutdown()

    def test_cursor_resumes_across_new_events(self):
        fs, cluster, _seen = self._drained_cluster()
        try:
            client = ClusterClient.for_cluster(cluster)
            cursor = client.head_cursor()
            fs.create("/proj0/later.dat")
            cluster.drain()
            entries, cursor = client.events_since_all(cursor)
            assert [e.path for _s, _q, e in entries] == ["/proj0/later.dat"]
            # The returned token resumes past what was consumed.
            assert client.events_since_all(cursor)[0] == []
        finally:
            cluster.shutdown()

    def test_cursor_tokens_are_opaque_and_validated(self):
        fs, cluster, _seen = self._drained_cluster()
        try:
            client = ClusterClient.for_cluster(cluster)
            token = client.head_cursor()
            watermarks = decode_cursor(token, client.shard_ids)
            assert set(watermarks) <= set(client.shard_ids)
            assert encode_cursor(watermarks) == token
            with pytest.raises(ValueError):
                client.page("corrupt~~~token")
            with pytest.raises(ValueError):
                client.page(encode_cursor({"shard99": 5}))
        finally:
            cluster.shutdown()

    def test_async_facade_matches_sync_answers(self):
        fs, cluster, _seen = self._drained_cluster()
        try:
            client = ClusterClient.for_cluster(cluster)
            sync_entries, _ = client.events_since_all()
            sync_stats = client.stats()

            async def drive():
                aclient = client.as_async()
                entries, cursor = await aclient.events_since_all()
                page = await aclient.page(limit=5)
                stats = await aclient.stats()
                head = await aclient.head_cursor()
                return entries, cursor, page, stats, head

            entries, cursor, page, stats, head = asyncio.run(drive())
            assert entries == sync_entries
            assert len(page) == 5
            # api_requests keeps counting between the two stats calls;
            # the pipeline counters must agree exactly.
            for metric in ("events_stored", "events_published", "store_len"):
                assert stats["totals"][metric] == sync_stats["totals"][metric]
            assert decode_cursor(head) == client.last_seq()
            # The resume token covers everything: nothing left after it.
            assert client.events_since_all(cursor)[0] == []
        finally:
            cluster.shutdown()
