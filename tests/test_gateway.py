"""Tests for the multi-tenant gateway tier.

Covers the layers bottom-up:

* auth store — key/session lifecycle, expiry on a ManualClock, and the
  request token bucket's exact boundary;
* opaque cursors — encode/decode round-trip (property-based) and
  rejection of malformed or foreign tokens;
* filter push-down — the RuleIndex-pruned gateway path returns exactly
  the events the reference linear filter accepts (property-based,
  mirroring the ``matching`` ≡ ``matching_linear`` discipline);
* fan-out hub — per-subscriber bounded queues, rate-limit shedding on
  a deterministic clock, and tenant isolation;
* the live service — REST statuses (200/401/429), WebSocket handshake
  and rejection before upgrade, cursor-paged backfill over a started
  multi-shard cluster, and the acceptance scenario: 200+ concurrent
  subscribers across three tenants each receiving exactly their
  tenant's events exactly once while a slow consumer sheds without
  stalling anyone else.
"""

import asyncio
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterMonitor,
    decode_cursor,
    encode_cursor,
)
from repro.core.events import EventType, FileEvent
from repro.gateway import (
    AuthError,
    AuthStore,
    FilterIndexCache,
    GatewayClient,
    Quota,
    QuotaExceeded,
    StreamHub,
    StreamRejected,
    StreamSubscriber,
    SubscriptionFilter,
    attach_gateway,
    parse_filter,
)
from repro.gateway.http import (
    OP_PING,
    OP_TEXT,
    FrameParser,
    encode_frame,
)
from repro.lustre import LustreFilesystem
from repro.metrics.registry import MetricsRegistry
from repro.ripple.index import RuleIndex
from repro.telemetry.alerts import recommended_rules
from repro.util.clock import ManualClock


def make_event(path, event_type=EventType.CREATED, is_dir=False):
    return FileEvent(
        event_type=event_type, path=path, is_dir=is_dir, timestamp=1.0,
        name=path.rsplit("/", 1)[-1], source="test",
    )


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# Auth store
# ---------------------------------------------------------------------------


class TestAuthStore:
    def test_key_session_lifecycle(self):
        store = AuthStore(clock=ManualClock())
        record = store.issue_key("alice")
        session = store.authenticate(record.key)
        assert session.tenant == "alice"
        assert store.session(session.token).token == session.token
        with pytest.raises(AuthError):
            store.authenticate("not-a-key")
        with pytest.raises(AuthError):
            store.session("not-a-token")
        with pytest.raises(AuthError):
            store.session(None)

    def test_session_expiry_on_manual_clock(self):
        clock = ManualClock()
        store = AuthStore(clock=clock, session_ttl=60.0)
        session = store.authenticate(store.issue_key("alice").key)
        clock.advance(59.9)
        assert store.session(session.token).tenant == "alice"
        clock.advance(0.2)
        with pytest.raises(AuthError, match="expired"):
            store.session(session.token)

    def test_revoke_kills_sessions(self):
        store = AuthStore(clock=ManualClock())
        record = store.issue_key("alice")
        session = store.authenticate(record.key)
        assert store.revoke_key(record.key)
        with pytest.raises(AuthError):
            store.session(session.token)
        with pytest.raises(AuthError):
            store.authenticate(record.key)
        assert not store.revoke_key("unknown")

    def test_request_bucket_boundary_exact(self):
        clock = ManualClock()
        store = AuthStore(clock=clock)
        quota = Quota(requests_per_sec=1.0, request_burst=2.0)
        session = store.authenticate(
            store.issue_key("alice", quota=quota).key
        )
        assert store.check_request(session.token)
        assert store.check_request(session.token)
        with pytest.raises(QuotaExceeded):
            store.check_request(session.token)
        clock.advance(1.0)  # refills exactly one token
        assert store.check_request(session.token)
        with pytest.raises(QuotaExceeded):
            store.check_request(session.token)
        metrics = store.tenant_metrics("alice").snapshot()
        assert metrics["requests"] == 3
        assert metrics["rate_limited"] == 2

    def test_tenant_scopes_are_unique(self):
        registry = MetricsRegistry()
        store = AuthStore(registry=registry)
        store.issue_key("alice")
        store.issue_key("bob")
        alice = store.tenant_metrics("alice")
        assert alice is store.tenant_metrics("alice")
        assert alice.scope != store.tenant_metrics("bob").scope
        assert alice.scope.startswith("gateway_tenant_alice")

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            Quota(max_page_size=0)
        with pytest.raises(ValueError):
            Quota(stream_queue=0)


# ---------------------------------------------------------------------------
# Opaque cursors
# ---------------------------------------------------------------------------


class TestCursors:
    @given(
        st.dictionaries(
            st.sampled_from(["shard0", "shard1", "shard2", "shard3"]),
            st.integers(min_value=0, max_value=2**40),
        )
    )
    def test_roundtrip(self, watermarks):
        token = encode_cursor(watermarks)
        assert decode_cursor(token) == watermarks
        assert "=" not in token  # URL-safe, unpadded

    def test_empty_cursor(self):
        assert decode_cursor(None) == {}
        assert decode_cursor("") == {}

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            decode_cursor("!!!not-base64!!!")
        with pytest.raises(ValueError):
            decode_cursor("aGVsbG8")  # valid base64, not a JSON object

    def test_foreign_shards_rejected(self):
        token = encode_cursor({"shard9": 12})
        with pytest.raises(ValueError, match="unknown shard"):
            decode_cursor(token, ("shard0", "shard1"))


# ---------------------------------------------------------------------------
# Filter push-down equivalence
# ---------------------------------------------------------------------------


_SEGMENTS = st.sampled_from(["proj", "alice", "bob", "run1", "data"])
_NAMES = st.sampled_from(
    ["out.h5", "out.log", "scan.tiff", "notes.txt", "f"]
)
_PATHS = st.builds(
    lambda segs, name: "/" + "/".join(list(segs) + [name]),
    st.lists(_SEGMENTS, min_size=0, max_size=3),
    _NAMES,
)
_EVENTS = st.builds(
    make_event,
    _PATHS,
    st.sampled_from(list(EventType)),
    st.booleans(),
)
_FILTERS = st.builds(
    SubscriptionFilter,
    path_prefix=st.builds(
        lambda segs: "/" + "/".join(segs),
        st.lists(_SEGMENTS, min_size=0, max_size=2),
    ),
    event_types=st.one_of(
        st.none(),
        st.frozensets(
            st.sampled_from(list(EventType)), min_size=1, max_size=3
        ),
    ),
    name_pattern=st.sampled_from(["*", "*.h5", "*.tiff", "out.*"]),
    include_directories=st.booleans(),
)


class TestFilterPushdown:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_EVENTS, max_size=30), _FILTERS)
    def test_index_pruning_equals_linear_filtering(self, events, filt):
        """Gateway-side RuleIndex pruning == client-side linear filter."""
        index = RuleIndex([filt.to_rule()])
        pushed_down = [
            event
            for event, rules in index.matching_batch(events)
            if rules
        ]
        linear = [event for event in events if filt.matches(event)]
        assert pushed_down == linear

    def test_parse_filter_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            parse_filter(types="created,exploded")

    def test_parse_filter_defaults(self):
        filt = parse_filter()
        assert filt.path_prefix == "/"
        assert filt.event_types is None
        assert filt.matches(make_event("/any/f"))

    def test_describe_is_stable(self):
        filt = parse_filter(
            prefix="/proj", types="created", pattern="*.h5"
        )
        assert "/proj" in filt.describe()
        assert "created" in filt.describe()


class TestFilterIndexCache:
    def test_identical_filters_share_one_index(self):
        cache = FilterIndexCache(maxsize=4)
        first, hit_a = cache.get(
            parse_filter(prefix="/proj", types="created", pattern="*.h5")
        )
        second, hit_b = cache.get(
            parse_filter(prefix="/proj", types="created", pattern="*.h5")
        )
        assert (hit_a, hit_b) == (False, True)
        assert first is second
        assert (cache.misses, cache.hits) == (1, 1)

    def test_distinct_filters_do_not_collide(self):
        cache = FilterIndexCache()
        index_a, hit_a = cache.get(parse_filter(prefix="/a"))
        index_b, hit_b = cache.get(parse_filter(prefix="/b"))
        assert not hit_a and not hit_b
        assert index_a is not index_b

    def test_key_normalizes_prefix(self):
        # "/proj/alice" and "/proj/alice/" are the same subtree; the
        # cache must not compile two indexes for them.
        cache = FilterIndexCache()
        first, _ = cache.get(parse_filter(prefix="/proj/alice"))
        second, hit = cache.get(parse_filter(prefix="/proj/alice/"))
        assert hit and first is second

    def test_lru_evicts_oldest(self):
        cache = FilterIndexCache(maxsize=2)
        cache.get(parse_filter(prefix="/a"))
        cache.get(parse_filter(prefix="/b"))
        cache.get(parse_filter(prefix="/c"))  # evicts /a
        assert len(cache) == 2
        _, hit = cache.get(parse_filter(prefix="/a"))
        assert not hit


# ---------------------------------------------------------------------------
# Fan-out hub
# ---------------------------------------------------------------------------


class TestStreamHub:
    def _hub(self, clock=None):
        registry = MetricsRegistry()
        return StreamHub(registry.scoped("gateway"), clock=clock), registry

    def test_shed_on_full_queue(self):
        quota = Quota(stream_queue=2)
        sub = StreamSubscriber("t", SubscriptionFilter(), quota)
        assert sub.offer(b"a")
        assert sub.offer(b"b")
        assert not sub.offer(b"c")  # queue full -> shed
        assert sub.delivered == 2
        assert sub.shed == 1
        assert sub.drain() == [b"a", b"b"]
        assert sub.offer(b"d")  # drained -> accepts again

    def test_shed_on_rate_limit_boundary(self):
        clock = ManualClock()
        quota = Quota(
            stream_events_per_sec=1.0, stream_burst=2.0, stream_queue=100
        )
        sub = StreamSubscriber(
            "t", SubscriptionFilter(), quota, clock=clock
        )
        assert sub.offer(b"a")
        assert sub.offer(b"b")
        assert not sub.offer(b"c")  # bucket empty -> shed
        clock.advance(1.0)
        assert sub.offer(b"d")
        assert sub.shed == 1

    def test_closed_subscriber_refuses(self):
        sub = StreamSubscriber("t", SubscriptionFilter(), Quota())
        sub.close()
        assert not sub.offer(b"a")
        assert sub.shed == 0  # closed is not shed

    def test_fanout_respects_filters(self):
        hub, _registry = self._hub()
        alice = hub.subscribe(
            "alice", SubscriptionFilter(path_prefix="/proj/alice"), Quota()
        )
        bob = hub.subscribe(
            "bob", SubscriptionFilter(path_prefix="/proj/bob"), Quota()
        )
        entries = [
            (1, make_event("/proj/alice/a.h5")),
            (2, make_event("/proj/bob/b.h5")),
            (3, make_event("/proj/alice/c.h5")),
            (4, make_event("/elsewhere/d.h5")),
        ]
        delivered = hub.publish_entries(entries, source="shard0")
        assert delivered == 3
        assert alice.delivered == 2
        assert bob.delivered == 1
        parser = FrameParser()
        frames = []
        for frame in alice.drain():
            frames.extend(parser.feed(frame))
        assert [opcode for opcode, _ in frames] == [OP_TEXT, OP_TEXT]
        import json

        decoded = [json.loads(payload) for _op, payload in frames]
        assert [d["event"]["path"] for d in decoded] == [
            "/proj/alice/a.h5", "/proj/alice/c.h5",
        ]
        assert all(d["shard"] == "shard0" for d in decoded)

    def test_one_slow_subscriber_does_not_stall_others(self):
        hub, registry = self._hub()
        slow = hub.subscribe(
            "slow",
            SubscriptionFilter(),
            Quota(stream_queue=2),
        )
        fast = hub.subscribe("fast", SubscriptionFilter(), Quota())
        entries = [(seq, make_event(f"/d/f{seq}")) for seq in range(1, 21)]
        hub.publish_entries(entries)
        assert fast.delivered == 20
        assert slow.delivered == 2
        assert slow.shed == 18
        snapshot = registry.snapshot("gateway")
        assert snapshot["stream_shed"] == 18
        assert snapshot["stream_delivered"] == 22

    def test_unsubscribe_removes_from_index(self):
        hub, _registry = self._hub()
        sub = hub.subscribe("t", SubscriptionFilter(), Quota())
        assert hub.streams_for("t") == 1
        hub.unsubscribe(sub)
        assert hub.streams_for("t") == 0
        assert hub.publish_entries([(1, make_event("/d/f"))]) == 0


# ---------------------------------------------------------------------------
# WebSocket framing
# ---------------------------------------------------------------------------


class TestFraming:
    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=300), st.booleans(), st.integers(1, 7))
    def test_frame_roundtrip_any_chunking(self, payload, mask, chunk):
        wire = encode_frame(OP_TEXT, payload, mask=mask)
        parser = FrameParser()
        messages = []
        for start in range(0, len(wire), chunk):
            messages.extend(parser.feed(wire[start:start + chunk]))
        assert messages == [(OP_TEXT, payload)]

    def test_control_frames_between_data(self):
        parser = FrameParser()
        wire = (
            encode_frame(OP_PING, b"hb")
            + encode_frame(OP_TEXT, b"data", mask=True)
        )
        assert parser.feed(wire) == [(OP_PING, b"hb"), (OP_TEXT, b"data")]


# ---------------------------------------------------------------------------
# Live gateway over a started cluster
# ---------------------------------------------------------------------------


@pytest.fixture
def live_gateway():
    fs = LustreFilesystem(num_mds=2)
    for tenant in ("alice", "bob", "carol"):
        fs.makedirs(f"/proj/{tenant}")
    cluster = ClusterMonitor(fs, ClusterConfig(num_shards=2))
    gateway = attach_gateway(cluster)
    cluster.start()
    try:
        yield fs, cluster, gateway, GatewayClient(gateway.host, gateway.port)
    finally:
        cluster.shutdown()


class TestGatewayService:
    def test_auth_statuses(self, live_gateway):
        _fs, _cluster, gateway, api = live_gateway
        key = gateway.auth.issue_key("alice")
        payload = api.auth(key.key)
        assert payload["tenant"] == "alice"
        status, body = api.request("POST", "/v1/auth", body={"key": "bad"})
        assert status == 401 and "error" in body
        status, _body = api.request("POST", "/v1/auth", body={"nope": 1})
        assert status == 400
        status, _body = api.request("GET", "/v1/auth")
        assert status == 405
        status, _body = api.request("GET", "/v1/missing")
        assert status == 404
        assert gateway.metrics.value("auth_failures") == 1

    def test_events_requires_auth_and_respects_quota(self, live_gateway):
        _fs, _cluster, gateway, api = live_gateway
        status, _ = api.request("GET", "/v1/events")
        assert status == 401
        status, _ = api.request("GET", "/v1/events", token="bogus")
        assert status == 401
        key = gateway.auth.issue_key(
            "alice", quota=Quota(requests_per_sec=0.001, request_burst=2.0)
        )
        token = api.auth(key.key)["token"]
        assert api.request("GET", "/v1/events", token=token)[0] == 200
        assert api.request("GET", "/v1/events", token=token)[0] == 200
        status, body = api.request("GET", "/v1/events", token=token)
        assert status == 429 and "exceeded" in body["error"]
        assert gateway.metrics.value("rate_limited") == 1

    def test_backfill_paged_and_filtered(self, live_gateway):
        fs, _cluster, gateway, api = live_gateway
        for index in range(30):
            fs.create(f"/proj/alice/pre{index}.h5")
            fs.create(f"/proj/bob/other{index}.log")
        token = api.auth(gateway.auth.issue_key("alice").key)["token"]
        assert wait_until(
            lambda: len(
                api.events_all(token, prefix="/proj/alice", types="created")
            ) >= 30
        )
        # Page size 7 forces multiple cursor hops; nothing skipped or
        # duplicated, and bob's subtree is pruned server-side.
        events = api.events_all(
            token, prefix="/proj/alice", types="created", limit=7
        )
        paths = [entry["event"]["path"] for entry in events]
        assert sorted(paths) == sorted(
            f"/proj/alice/pre{i}.h5" for i in range(30)
        )
        assert len(set(paths)) == 30

        # A resumed cursor sees only what happened after it.
        page = api.events(token, prefix="/proj/alice", types="created")
        cursor = page["cursor"]
        assert page["exhausted"]
        fs.create("/proj/alice/fresh.h5")
        assert wait_until(
            lambda: [
                entry["event"]["path"]
                for entry in api.events_all(
                    token, prefix="/proj/alice", types="created",
                    cursor=cursor,
                )
            ] == ["/proj/alice/fresh.h5"]
        )
        assert gateway.metrics.value("events_scanned") > 0

    def test_repeated_queries_reuse_filter_cache(self, live_gateway):
        fs, _cluster, gateway, api = live_gateway
        fs.create("/proj/alice/a.h5")
        token = api.auth(gateway.auth.issue_key("alice").key)["token"]
        assert wait_until(
            lambda: api.events(token, prefix="/proj/alice")["matched"] > 0
        )
        hits_before = gateway.metrics.value("filter_cache_hits")
        misses_before = gateway.metrics.value("filter_cache_misses")
        for _ in range(3):
            api.events(token, prefix="/proj/alice", types="created")
        # One compile at most for the new (prefix, types) shape; the
        # repeats ride the cached index.
        assert (
            gateway.metrics.value("filter_cache_misses") - misses_before <= 1
        )
        assert gateway.metrics.value("filter_cache_hits") - hits_before >= 2

    def test_page_limit_clamped_to_quota(self, live_gateway):
        fs, _cluster, gateway, api = live_gateway
        for index in range(12):
            fs.create(f"/proj/alice/f{index}")
        key = gateway.auth.issue_key(
            "alice", quota=Quota(max_page_size=5)
        )
        token = api.auth(key.key)["token"]
        assert wait_until(
            lambda: api.events(token, prefix="/proj/alice")["matched"] > 0
        )
        page = api.events(token, prefix="/proj/alice", limit=500)
        assert page["matched"] <= 5

    def test_stats_and_health(self, live_gateway):
        _fs, _cluster, gateway, api = live_gateway
        token = api.auth(gateway.auth.issue_key("alice").key)["token"]
        stats = api.stats(token)
        assert "gateway" in stats and "cluster" in stats
        assert stats["tenants"]["alice"]["auth_ok"] == 1
        status, payload = api.health()
        assert status == 200
        assert payload["degraded"] is False
        assert payload["gateway"]["state"] == "running"
        assert "services" in payload["cluster"]

    def test_stream_rejected_before_upgrade(self, live_gateway):
        _fs, _cluster, gateway, api = live_gateway
        with pytest.raises(StreamRejected) as excinfo:
            api.stream("bogus-token")
        assert excinfo.value.status == 401
        key = gateway.auth.issue_key("alice", quota=Quota(max_streams=1))
        token = api.auth(key.key)["token"]
        stream = api.stream(token, prefix="/proj/alice")
        try:
            with pytest.raises(StreamRejected) as excinfo:
                api.stream(token, prefix="/proj/alice")
            assert excinfo.value.status == 429
        finally:
            stream.close()
        assert gateway.metrics.value("ws_rejects") == 2

    def test_acceptance_fanout_exactly_once(self, live_gateway):
        """200+ subscribers, 3 tenants: every matching event exactly
        once, filters enforced server-side, counter-verified."""
        fs, _cluster, gateway, api = live_gateway
        tenants = ("alice", "bob", "carol")
        per_tenant = 68  # 204 concurrent sockets total
        events_each = 25
        quota = Quota(max_streams=128, request_burst=300.0)
        streams = {}
        for tenant in tenants:
            token = api.auth(gateway.auth.issue_key(tenant, quota=quota).key)[
                "token"
            ]
            streams[tenant] = [
                api.stream(token, prefix=f"/proj/{tenant}", types="created")
                for _ in range(per_tenant)
            ]
        try:
            for index in range(events_each):
                for tenant in tenants:
                    fs.create(f"/proj/{tenant}/live{index}.dat")

            all_streams = [s for group in streams.values() for s in group]

            def everyone_done():
                for stream in all_streams:
                    stream.pump(0.0)
                return all(
                    len(s.received) >= events_each for s in all_streams
                )

            assert wait_until(everyone_done, timeout=30.0)
            expected = {
                tenant: sorted(
                    f"/proj/{tenant}/live{i}.dat" for i in range(events_each)
                )
                for tenant in tenants
            }
            for tenant in tenants:
                for stream in streams[tenant]:
                    paths = [
                        message["event"]["path"]
                        for message in stream.received
                    ]
                    # Exactly once: every matching event, no duplicates,
                    # nothing from any other tenant's subtree.
                    assert sorted(paths) == expected[tenant]
            # Counter-verified through the shared metrics plane.
            total = len(tenants) * per_tenant * events_each
            assert gateway.metrics.value("stream_delivered") == total
            assert gateway.metrics.value("stream_shed") == 0
            assert gateway.metrics.value("ws_connects") == len(all_streams)
        finally:
            for group in streams.values():
                for stream in group:
                    stream.close()

    def test_slow_consumer_sheds_without_stalling(self, live_gateway):
        fs, _cluster, gateway, api = live_gateway
        slow_key = gateway.auth.issue_key(
            "alice",
            quota=Quota(stream_events_per_sec=0.001, stream_burst=5.0),
        )
        fast_key = gateway.auth.issue_key("bob")
        slow = api.stream(
            api.auth(slow_key.key)["token"], prefix="/proj", types="created"
        )
        fast = api.stream(
            api.auth(fast_key.key)["token"], prefix="/proj", types="created"
        )
        try:
            for index in range(50):
                fs.create(f"/proj/carol/f{index}.dat")
            def fast_caught_up():
                fast.pump(0.0)
                return len(fast.received) >= 50

            assert wait_until(fast_caught_up, timeout=20.0)
            slow.pump(0.2)
            assert len(fast.received) == 50  # the fast tenant saw it all
            assert len(slow.received) <= 5  # burst only; the rest shed
            assert wait_until(
                lambda: gateway.metrics.value("stream_shed") >= 45
            )
            tenant_shed = gateway.auth.tenant_metrics("alice").value(
                "stream_shed"
            )
            assert tenant_shed >= 45
        finally:
            slow.close()
            fast.close()

    def test_tenant_series_reach_prometheus(self, live_gateway):
        _fs, _cluster, gateway, api = live_gateway
        api.auth(gateway.auth.issue_key("alice").key)
        exposition = gateway.metrics.registry.render_prometheus()
        assert "gateway_tenant_alice" in exposition
        assert 'scope="gateway"' in exposition


# ---------------------------------------------------------------------------
# Stock alert rules
# ---------------------------------------------------------------------------


class TestGatewayStop:
    def test_idle_loop_sleeps_on_an_event_and_stops_promptly(
        self, monkeypatch
    ):
        callers = []
        real_sleep = asyncio.sleep

        def recording_sleep(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_sleep(*args, **kwargs)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)
        cluster = ClusterMonitor(
            LustreFilesystem(num_mds=1), ClusterConfig(num_shards=1)
        )
        gateway = attach_gateway(cluster)
        cluster.start()
        try:
            time.sleep(0.2)
            assert gateway.ready.is_set()
            assert "_serve" not in callers
            started = time.monotonic()
            gateway.stop()
            assert time.monotonic() - started < 1.0
            assert not gateway.ready.is_set()
        finally:
            cluster.shutdown()


class TestGatewayAlertRules:
    def test_recommended_rules_cover_gateway(self):
        names = {rule.name for rule in recommended_rules()}
        assert {"gateway-auth-failures", "gateway-stream-shed"} <= names

    def test_gateway_rules_match_gateway_series(self):
        rules = {rule.name: rule for rule in recommended_rules()}
        assert rules["gateway-auth-failures"].metric == "*.auth_failures"
        assert rules["gateway-stream-shed"].kind == "rate"
