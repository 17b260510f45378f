"""Tests for the operator telemetry plane.

Covers the relay (child→parent registry merge with epoch offset
tracking), the alert-rule engine (grammar, state machine, ratio/rate/
absence kinds), the flight recorder (ring, dumps, crash triggers), the
HTTP exposition server, plane assembly — and the acceptance scenario:
SIGKILL a multiproc shard child under load, then verify one HTTP
scrape shows the respawned child's store/pipeline series with
monotone-continued counters while ``/alerts`` walks the
``child-restarts`` alert through firing→resolved.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.metrics.registry import MetricsRegistry
from repro.runtime import Supervisor
from repro.telemetry import (
    AlertEvaluator,
    AlertRule,
    FlightRecorder,
    RegistryRelay,
    TelemetryConfig,
    TelemetryPlane,
    TelemetryServer,
    decode_state,
    encode_state,
    parse_rule,
    recommended_rules,
)


def fetch(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        body = response.read().decode("utf-8")
        content_type = response.headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return json.loads(body)
    return body


def wait_for(predicate, timeout: float = 15.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# Relay
# ---------------------------------------------------------------------------


def child_registry(scope_base: str = "s0") -> tuple[MetricsRegistry, str]:
    registry = MetricsRegistry()
    scope = registry.unique_scope(scope_base)
    return registry, scope


class TestRegistryRelay:
    def test_counters_gauges_histograms_merge_under_scope(self):
        child, scope = child_registry()
        child.counter(f"{scope}.events_stored").inc(5)
        child.gauge(f"{scope}.depth").set(9)
        child.histogram("pipeline.aggregate").record(0.001, 4)
        parent = MetricsRegistry()
        relay = RegistryRelay(parent, "shard0", strip_scopes=(scope,))
        applied = relay.merge(child.export_state(), epoch=1)
        assert applied > 0
        snapshot = parent.snapshot()
        assert snapshot["shard0.events_stored"] == 5
        assert snapshot["shard0.depth"] == 9
        # Unscoped child series nest under the bridge scope.
        assert "shard0.pipeline.aggregate" in parent.export_state()[
            "histograms"
        ]

    def test_encode_decode_roundtrip(self):
        child, scope = child_registry()
        child.counter(f"{scope}.n").inc(3)
        child.histogram(f"{scope}.h").record(0.01, 2)
        state = decode_state(encode_state(child.export_state()))
        assert state["counters"][f"{scope}.n"] == 3
        assert state["histograms"][f"{scope}.h"]["total"] == 2

    def test_counters_resume_monotone_across_epochs(self):
        parent = MetricsRegistry()
        relay = RegistryRelay(parent, "shard0", strip_scopes=("s0",))
        first, scope = child_registry()
        first.counter(f"{scope}.events_stored").inc(10)
        relay.merge(first.export_state(), epoch=1)
        assert parent.counter("shard0.events_stored").value == 10
        # Respawn: the new incarnation starts from zero.
        second, scope = child_registry()
        second.counter(f"{scope}.events_stored").inc(3)
        relay.merge(second.export_state(), epoch=2)
        assert parent.counter("shard0.events_stored").value == 13
        second.counter(f"{scope}.events_stored").inc(2)
        relay.merge(second.export_state(), epoch=2)
        assert parent.counter("shard0.events_stored").value == 15

    def test_histogram_buckets_fold_across_epochs(self):
        parent = MetricsRegistry()
        relay = RegistryRelay(parent, "shard0", strip_scopes=("s0",))
        first, scope = child_registry()
        first.histogram("pipeline.publish").record(0.001, 6)
        relay.merge(first.export_state(), epoch=1)
        second, scope = child_registry()
        second.histogram("pipeline.publish").record(0.002, 4)
        relay.merge(second.export_state(), epoch=2)
        merged = parent.export_state()["histograms"][
            "shard0.pipeline.publish"
        ]
        assert merged["total"] == 10
        assert sum(merged["counts"]) == 10

    def test_parent_local_series_shadow_relayed_ones(self):
        parent = MetricsRegistry()
        parent.gauge("shard0.depth").set(42)
        relay = RegistryRelay(parent, "shard0", strip_scopes=("s0",))
        child, scope = child_registry()
        child.gauge(f"{scope}.depth").set(7)
        child.gauge(f"{scope}.other").set(8)
        relay.merge(child.export_state(), epoch=1)
        snapshot = parent.snapshot()
        assert snapshot["shard0.depth"] == 42
        assert snapshot["shard0.other"] == 8

    def test_relayed_exposition_conforms(self):
        from tests.test_prometheus_conformance import check_exposition

        parent = MetricsRegistry()
        bridge_scope = parent.unique_scope("shard0")
        parent.counter(f"{bridge_scope}.batches_received").inc(2)
        relay = RegistryRelay(parent, bridge_scope, strip_scopes=("s0",))
        child, scope = child_registry()
        child.counter(f"{scope}.api_requests").inc(4)
        child.histogram("pipeline.publish").record(0.001, 3)
        relay.merge(child.export_state(), epoch=1)
        text = parent.render_prometheus()
        check_exposition(text)
        assert 'repro_api_requests_total{scope="shard0"} 4' in text


# ---------------------------------------------------------------------------
# Alert rules
# ---------------------------------------------------------------------------


class TestAlertRuleParsing:
    def test_threshold_with_ratio_and_duration(self):
        rule = parse_rule(
            "pressure: *.inbound_depth / *.inbound_hwm > 0.8 for 10s"
        )
        assert rule.name == "pressure"
        assert rule.kind == "threshold"
        assert rule.metric == "*.inbound_depth"
        assert rule.divisor == "*.inbound_hwm"
        assert rule.op == ">"
        assert rule.threshold == 0.8
        assert rule.duration == 10.0

    def test_rate_rule(self):
        rule = parse_rule("restarts: rate(*.child_restarts) > 0")
        assert rule.kind == "rate"
        assert rule.metric == "*.child_restarts"
        assert rule.duration == 0.0

    def test_absence_rule(self):
        rule = parse_rule("stale: absent(*.events_stored) for 30s")
        assert rule.kind == "absence"
        assert rule.duration == 30.0

    def test_name_defaults_from_condition(self):
        rule = parse_rule("*.credits <= 0")
        assert rule.metric == "*.credits"
        assert rule.op == "<="
        assert rule.name

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rule("not a rule at all!!!")

    def test_rejects_rate_with_divisor(self):
        with pytest.raises(ValueError):
            parse_rule("rate(*.a) / *.b > 0")

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", metric="m", op="~")

    def test_spec_round_trips_readably(self):
        assert (
            parse_rule("p: *.depth / *.hwm > 0.8 for 5s").spec()
            == "*.depth / *.hwm > 0.8 for 5s"
        )

    def test_recommended_rules_cover_runbook_failures(self):
        names = {rule.name for rule in recommended_rules()}
        assert {
            "shard-inbound-pressure",
            "credit-exhaustion",
            "child-restarts",
            "store-fsync-lag",
        } <= names


class TestAlertEvaluator:
    def _evaluator(self, rules, registry=None):
        registry = registry or MetricsRegistry()
        return registry, AlertEvaluator(registry, rules=tuple(rules))

    def test_threshold_pending_then_firing_then_resolved(self):
        registry, evaluator = self._evaluator(
            [parse_rule("hot: *.depth / *.hwm > 0.8 for 5s")]
        )
        registry.gauge("shard0.depth").set(90)
        registry.gauge("shard0.hwm").set(100)
        assert evaluator.evaluate_once(now=0.0) == 0  # pending
        assert evaluator.evaluate_once(now=2.0) == 0  # still pending
        assert evaluator.evaluate_once(now=5.0) == 1  # fired
        registry.gauge("shard0.depth").set(10)
        assert evaluator.evaluate_once(now=6.0) == 0
        (instance,) = [
            record for record in evaluator.alerts()["instances"]
            if record["rule"] == "hot"
        ]
        assert instance["state"] == "resolved"
        assert instance["series"] == "shard0.depth"

    def test_ratio_pairs_series_per_shard(self):
        registry, evaluator = self._evaluator(
            [parse_rule("hot: *.depth / *.hwm > 0.8")]
        )
        registry.gauge("shard0.depth").set(90)
        registry.gauge("shard0.hwm").set(100)
        registry.gauge("shard1.depth").set(5)
        registry.gauge("shard1.hwm").set(100)
        assert evaluator.evaluate_once(now=0.0) == 1
        firing = [
            record for record in evaluator.alerts()["instances"]
            if record["state"] == "firing"
        ]
        assert [record["series"] for record in firing] == ["shard0.depth"]

    def test_zero_divisor_never_breaches(self):
        registry, evaluator = self._evaluator(
            [parse_rule("hot: *.depth / *.hwm > 0.8")]
        )
        registry.gauge("shard0.depth").set(90)
        registry.gauge("shard0.hwm").set(0)
        assert evaluator.evaluate_once(now=0.0) == 0

    def test_rate_fires_on_increase_and_resolves_when_flat(self):
        registry, evaluator = self._evaluator(
            [parse_rule("restarts: rate(*.child_restarts) > 0")]
        )
        counter = registry.counter("shard0.child_restarts")
        evaluator.evaluate_once(now=0.0)  # primes the previous sample
        counter.inc()
        assert evaluator.evaluate_once(now=1.0) == 1
        assert evaluator.evaluate_once(now=2.0) == 0
        states = [
            record["state"] for record in evaluator.history
            if record["rule"] == "restarts"
        ]
        assert states == ["firing", "resolved"]

    def test_absence_fires_when_no_series_matches(self):
        registry, evaluator = self._evaluator(
            [parse_rule("gone: absent(*.heartbeat) for 2s")]
        )
        assert evaluator.evaluate_once(now=0.0) == 0  # pending
        assert evaluator.evaluate_once(now=2.5) == 1  # fired
        registry.gauge("svc.heartbeat").set(1)
        assert evaluator.evaluate_once(now=3.0) == 0
        (instance,) = evaluator.alerts()["instances"]
        assert instance["state"] == "resolved"

    def test_firing_count_exported_as_root_gauge(self):
        registry, evaluator = self._evaluator(
            [parse_rule("hot: *.depth > 5")]
        )
        registry.gauge("shard0.depth").set(10)
        evaluator.evaluate_once(now=0.0)
        assert registry.snapshot()["alerts_firing"] == 1
        assert "repro_alerts_firing 1" in registry.render_prometheus()

    def test_transition_callbacks_fire_and_broken_sinks_are_counted(self):
        registry, evaluator = self._evaluator(
            [parse_rule("hot: *.depth > 5")]
        )
        seen = []

        def broken(record, old, new):
            raise RuntimeError("sink down")

        evaluator.on_transition.append(broken)
        evaluator.on_transition.append(
            lambda record, old, new: seen.append((old, new))
        )
        registry.gauge("shard0.depth").set(10)
        evaluator.evaluate_once(now=0.0)
        assert seen == [("ok", "firing")]
        assert evaluator.metrics.value("callback_errors") == 1

    def test_history_is_bounded(self):
        registry, evaluator = self._evaluator(
            [parse_rule("hot: *.depth > 5")], MetricsRegistry()
        )
        evaluator.history = type(evaluator.history)(maxlen=4)
        gauge = registry.gauge("shard0.depth")
        for tick in range(10):
            gauge.set(10 if tick % 2 == 0 else 0)
            evaluator.evaluate_once(now=float(tick))
        assert len(evaluator.history) == 4


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_dump_writes_frames(self, tmp_path):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        recorder = FlightRecorder(
            registry, directory=str(tmp_path), capacity=3
        )
        for tick in range(5):
            counter.inc()
            recorder.tick(now=float(tick))
        path = recorder.dump("unit-test", now=10.0)
        assert path is not None
        payload = json.loads(open(path).read())
        assert payload["reason"] == "unit-test"
        assert len(payload["frames"]) == 3  # capacity bound
        assert payload["frames"][-1]["metrics"]["events"] == 5

    def test_cooldown_suppresses_repeat_dumps(self, tmp_path):
        registry = MetricsRegistry()
        recorder = FlightRecorder(
            registry, directory=str(tmp_path), cooldown=5.0
        )
        assert recorder.dump("flap", now=0.0) is not None
        assert recorder.dump("flap", now=2.0) is None
        assert recorder.dump("flap", now=6.0) is not None
        assert recorder.dump("other", now=6.5) is not None

    def test_alert_hook_dumps_on_firing_only(self, tmp_path):
        registry = MetricsRegistry()
        recorder = FlightRecorder(registry, directory=str(tmp_path))
        recorder.on_alert({"rule": "hot"}, "pending", "firing")
        recorder.on_alert({"rule": "hot"}, "firing", "resolved")
        assert len(recorder.dumps) == 1
        assert "alert-hot" in recorder.dumps[0]

    def test_crash_and_restart_in_health_trigger_dumps(self, tmp_path):
        registry = MetricsRegistry()
        health = {
            "services": {
                "agg": {"state": "running", "restart_count": 0},
            }
        }
        recorder = FlightRecorder(
            registry, directory=str(tmp_path),
            health_provider=lambda: health, cooldown=0.0,
        )
        assert recorder.tick(now=0.0) == 0
        health["services"]["agg"] = {"state": "crashed", "restart_count": 0}
        assert recorder.tick(now=1.0) == 1  # crash dump
        assert recorder.tick(now=2.0) == 0  # not re-dumped while crashed
        health["services"]["agg"] = {"state": "running", "restart_count": 1}
        assert recorder.tick(now=3.0) == 1  # restart dump
        reasons = [path.rsplit("-", 1)[-1] for path in recorder.dumps]
        assert len(recorder.dumps) == 2
        assert any("crash" in path for path in recorder.dumps)
        assert any("restart" in path for path in recorder.dumps)

    def test_lazy_temp_directory(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(registry)
        assert recorder.directory is None
        path = recorder.dump("lazy")
        assert path is not None and recorder.directory in path


# ---------------------------------------------------------------------------
# HTTP server + plane
# ---------------------------------------------------------------------------


class TestTelemetryServer:
    def test_metrics_health_alerts_flight_and_404(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        health = {"state": "running", "services": {}}
        server = TelemetryServer(
            registry,
            health_provider=lambda: health,
            alerts_provider=lambda: {"firing": 0, "instances": []},
            flight_provider=lambda: {"dumps": [], "depth": 2},
        )
        server.start()
        try:
            url = server.url
            body = fetch(url + "/metrics")
            assert "repro_requests_total 3" in body
            assert fetch(url + "/health")["state"] == "running"
            assert fetch(url + "/alerts")["firing"] == 0
            assert fetch(url + "/flight")["depth"] == 2
            assert "/metrics" in fetch(url + "/")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(url + "/nope")
            assert excinfo.value.code == 404
        finally:
            server.close()

    def test_health_degrades_to_503_on_crashed_service(self):
        registry = MetricsRegistry()
        health = {
            "state": "running",
            "services": {"agg": {"state": "crashed"}},
        }
        server = TelemetryServer(registry, health_provider=lambda: health)
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url + "/health")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["degraded"] is True
        finally:
            server.close()

    def test_metrics_content_type_and_scrape_counter(self):
        registry = MetricsRegistry()
        server = TelemetryServer(registry)
        server.start()
        try:
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=5.0
            ) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
            assert wait_for(lambda: server.scrapes.value == 1)
        finally:
            server.close()

    def test_port_is_resolved_before_start(self):
        server = TelemetryServer(MetricsRegistry())
        try:
            assert server.port > 0
        finally:
            server.close()


class TestTelemetryPlane:
    def test_assembles_and_registers_under_supervisor(self):
        registry = MetricsRegistry()
        supervisor = Supervisor("tree", registry=registry)
        plane = TelemetryPlane(
            registry,
            TelemetryConfig(rules=("custom: *.depth > 5",)),
            health_provider=supervisor.health,
        )
        plane.add_to(supervisor)
        names = {service.name for service in supervisor.children()}
        assert {"alerts", "flight-recorder", "telemetry-server"} <= names
        rule_names = {rule.name for rule in plane.evaluator.rules}
        assert "custom" in rule_names
        assert "child-restarts" in rule_names  # recommended included
        plane.close()

    def test_recommended_rules_can_be_disabled(self):
        plane = TelemetryPlane(
            MetricsRegistry(), TelemetryConfig(recommended=False)
        )
        assert plane.evaluator.rules == []
        plane.close()

    def test_alert_firing_reaches_recorder(self, tmp_path):
        registry = MetricsRegistry()
        plane = TelemetryPlane(
            registry,
            TelemetryConfig(
                rules=("hot: *.depth > 5",),
                recommended=False,
                flight_dir=str(tmp_path),
            ),
        )
        registry.gauge("shard0.depth").set(10)
        plane.evaluator.evaluate_once(now=0.0)
        assert len(plane.recorder.dumps) == 1
        assert "alert-hot" in plane.recorder.dumps[0]
        plane.close()


# ---------------------------------------------------------------------------
# Acceptance: SIGKILL a multiproc shard child under load
# ---------------------------------------------------------------------------


class TestMultiprocScrapeAcceptance:
    def _build(self, tmp_path):
        from repro.cluster import ClusterConfig, ClusterMonitor
        from repro.lustre import LustreFilesystem
        from repro.lustre.mds import DnePolicy

        fs = LustreFilesystem(
            num_mds=2, mdts_per_mds=2, dne_policy=DnePolicy.ROUND_ROBIN
        )
        cluster = ClusterMonitor(
            fs,
            ClusterConfig(
                num_shards=2,
                transport="multiproc",
                telemetry=TelemetryConfig(
                    eval_interval=0.05,
                    flight_dir=str(tmp_path),
                    flight_interval=0.1,
                ),
            ),
        )
        return fs, cluster

    def _scrape(self, cluster) -> str:
        return fetch(cluster.telemetry.url + "/metrics")

    def _relayed_counts(self, exposition: str, shard_id: str) -> dict:
        """Child-relayed series of one shard: pipeline publish counts
        and api/store series, keyed by family."""
        values = {}
        for line in exposition.splitlines():
            if line.startswith("#") or f'scope="{shard_id}"' not in line:
                continue
            name = line.split("{", 1)[0]
            if name in (
                "repro_pipeline_publish_count",
                "repro_api_requests_total",
                "repro_store_last_seq",
            ):
                values[name] = float(line.rsplit(" ", 1)[1])
        return values

    def _load(self, fs, start: int, count: int) -> None:
        # Spread across directories: routing hashes by location, so a
        # single directory would land every event on one shard.
        for index in range(start, start + count):
            fs.create(f"/proj/d{index % 8}/f{index}.dat")

    def test_scrape_survives_child_sigkill_with_monotone_series(
        self, tmp_path
    ):
        fs, cluster = self._build(tmp_path)
        cluster.subscribe(lambda _seq, _event: None)
        for index in range(8):
            fs.makedirs(f"/proj/d{index}")
        cluster.start()
        try:
            self._load(fs, 0, 60)
            assert wait_for(lambda: cluster.stats().events_stored >= 60)
            # Target the busiest shard — the one whose child certainly
            # processed events before the kill.
            per_shard = cluster.stats().per_shard
            shard_id = max(
                per_shard, key=lambda sid: per_shard[sid]["events_stored"]
            )
            bridge = cluster.bridges[shard_id]

            # Wait until a relay frame *after* the load landed — the
            # first frame ships at child start with everything at zero.
            def relayed_ready():
                counts = self._relayed_counts(
                    self._scrape(cluster), shard_id
                )
                return (
                    counts.get("repro_store_last_seq", 0) > 0
                    and counts.get("repro_pipeline_publish_count", 0) > 0
                )

            assert wait_for(relayed_ready)
            before = self._relayed_counts(self._scrape(cluster), shard_id)

            # SIGKILL the child under continued load.
            bridge.kill_child()
            self._load(fs, 60, 60)
            assert wait_for(lambda: cluster.stats().events_stored >= 120)
            assert wait_for(
                lambda: self._relayed_counts(
                    self._scrape(cluster), shard_id
                ).get("repro_pipeline_publish_count", 0)
                > before["repro_pipeline_publish_count"]
            )

            # ONE scrape: respawned child's series present, counters
            # monotone (gauges like store_last_seq may legitimately
            # reset with the fresh child store — presence suffices).
            exposition = self._scrape(cluster)
            after = self._relayed_counts(exposition, shard_id)
            assert set(before) <= set(after)
            for family, value in before.items():
                if family == "repro_store_last_seq":
                    continue
                assert after[family] >= value, (
                    f"{family} regressed: {value} -> {after[family]}"
                )
            assert after["repro_pipeline_publish_count"] > before[
                "repro_pipeline_publish_count"
            ]
            assert (
                f'repro_child_restarts_total{{scope="{shard_id}"}} 1'
                in exposition
            )

            # /alerts walked child-restarts through firing -> resolved.
            def restart_states():
                return [
                    record["state"]
                    for record in fetch(
                        cluster.telemetry.url + "/alerts"
                    )["history"]
                    if record["rule"] == "child-restarts"
                ]

            assert wait_for(lambda: "firing" in restart_states())
            assert wait_for(lambda: "resolved" in restart_states())

            # The firing alert also produced a flight-recorder dump.
            flight = fetch(cluster.telemetry.url + "/flight")
            assert any(
                "child-restarts" in path for path in flight["dumps"]
            )
        finally:
            cluster.shutdown()

    def test_exposition_with_relay_passes_conformance(self, tmp_path):
        from tests.test_prometheus_conformance import check_exposition

        fs, cluster = self._build(tmp_path)
        cluster.subscribe(lambda _seq, _event: None)
        fs.makedirs("/proj")
        cluster.start()
        try:
            for index in range(30):
                fs.create(f"/proj/f{index}.dat")
            assert wait_for(lambda: cluster.stats().events_stored >= 30)
            assert wait_for(
                lambda: all(
                    bridge.relay_merges > 0
                    for bridge in cluster.bridges.values()
                )
            )
            check_exposition(self._scrape(cluster))
        finally:
            cluster.shutdown()


class TestMultiprocScrapeSeriesSet:
    """A respawned shard child relays the same series as the one it
    replaced: a SIGKILL changes values, never the set a scrape shows."""

    @staticmethod
    def _shard_series(exposition: str) -> set:
        """``family{labels}`` of every sample under a shard scope."""
        return {
            line.rsplit(" ", 1)[0]
            for line in exposition.splitlines()
            if not line.startswith("#") and 'scope="shard' in line
        }

    def test_series_set_survives_child_sigkill(self):
        from repro.cluster import ClusterConfig, ClusterMonitor
        from repro.lustre import LustreFilesystem
        from repro.lustre.mds import DnePolicy

        fs = LustreFilesystem(
            num_mds=2, mdts_per_mds=2, dne_policy=DnePolicy.ROUND_ROBIN
        )
        cluster = ClusterMonitor(
            fs,
            ClusterConfig(
                num_shards=2,
                namespace="series-set",
                transport="multiproc",
                telemetry=TelemetryConfig(eval_interval=0.05),
            ),
        )
        cluster.subscribe(lambda _seq, _event: None)
        for index in range(8):
            fs.makedirs(f"/proj/d{index}")
        cluster.start()

        def load(start: int, count: int) -> None:
            for index in range(start, start + count):
                fs.create(f"/proj/d{index % 8}/f{index}.dat")

        def relayed_after(merges: dict) -> bool:
            # Two merges past the mark: the second one left a child
            # that had already handled the load sent before the mark.
            return all(
                bridge.relay_merges >= merges[shard_id] + 2
                for shard_id, bridge in cluster.bridges.items()
            )

        try:
            load(0, 60)
            assert wait_for(lambda: cluster.stats().events_stored >= 60)
            marks = {s: b.relay_merges for s, b in cluster.bridges.items()}
            assert wait_for(lambda: relayed_after(marks))
            scrape = fetch(cluster.telemetry.url + "/metrics")
            before = self._shard_series(scrape)
            assert {"shard0", "shard1"} == {
                label.split('scope="', 1)[1].split('"', 1)[0]
                for label in before
            }

            bridge = cluster.bridges["shard0"]
            bridge.kill_child()
            load(60, 60)
            assert wait_for(lambda: cluster.stats().events_stored >= 120)
            assert wait_for(
                lambda: bridge.metrics.snapshot()["child_restarts"] >= 1
            )
            marks = {s: b.relay_merges for s, b in cluster.bridges.items()}
            assert wait_for(lambda: relayed_after(marks))
            after = self._shard_series(
                fetch(cluster.telemetry.url + "/metrics")
            )
            assert sorted(after ^ before) == []
        finally:
            cluster.shutdown()


class TestDeterministicBridgeRelay:
    """Deterministic (pump-driven) relay via request_metrics()."""

    def test_request_metrics_round_trip(self):
        from repro.core.aggregator import AggregatorConfig
        from repro.msgq.multiproc import MultiprocTransport

        registry = MetricsRegistry()
        transport = MultiprocTransport()
        config = AggregatorConfig(
            inbound_endpoint="inproc://tr.reports",
            publish_endpoint="inproc://tr.events",
            api_endpoint="inproc://tr.api",
        )
        bridge = transport.process_shard(
            "shard0", config, registry=registry, relay_interval=0.0
        )
        try:
            assert bridge.request_metrics()
            assert wait_for(
                lambda: bridge.pump_once() is not None
                and bridge.relay_merges > 0
            )
            assert "shard0.store_last_seq" in registry.snapshot()
        finally:
            transport.close()
