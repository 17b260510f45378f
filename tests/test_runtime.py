"""Tests for the service runtime: lifecycle, supervision, metrics.

Covers the Service/Supervisor contracts directly, plus the two
regressions the runtime was built to prevent: shutdown losing in-flight
events (stop ordering) and a crashed collector wedging the pipeline
(supervised restart with no event loss).
"""

import threading
import time

import pytest

from repro.core import LustreMonitor, MonitorConfig
from repro.lustre import LustreFilesystem
from repro.metrics import MetricsRegistry
from repro.runtime import (
    RestartPolicy,
    Service,
    ServiceCrash,
    Supervisor,
    Wake,
    WorkerSpec,
)
from repro.util.clock import ManualClock


class Ticker(Service):
    """A minimal service: one worker appending to a list."""

    def __init__(self, name="ticker", registry=None, fail_after=None):
        super().__init__(name, registry)
        self.ticks = []
        self.fail_after = fail_after
        self.started_hooks = 0
        self.stopped_hooks = 0
        self.closed_hooks = 0
        self.wake = Wake()

    def tick(self):
        if self.fail_after is not None and len(self.ticks) >= self.fail_after:
            raise ServiceCrash("injected")
        self.ticks.append(len(self.ticks))
        return 1

    def worker_specs(self):
        return [WorkerSpec("tick", self.tick, wake=self.wake)]

    def on_start(self):
        self.started_hooks += 1

    def on_stop(self):
        self.stopped_hooks += 1

    def on_close(self):
        self.closed_hooks += 1


class CrashOnDemand(Service):
    """An idle service whose next step crashes once when asked."""

    def __init__(self, name="on-demand"):
        super().__init__(name)
        self.crash_next = False
        self.wake = Wake()

    def step(self):
        if self.crash_next:
            self.crash_next = False
            raise ServiceCrash("injected")
        return 0

    def worker_specs(self):
        return [WorkerSpec("step", self.step, wake=self.wake)]


def wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class TestServiceLifecycle:
    def test_double_start_is_noop(self):
        service = Ticker()
        service.start()
        workers = service.health()["workers"]
        assert workers == ["ticker-tick"]
        service.start()  # must not register a second set of workers
        assert service.health()["workers"] == workers
        assert service.started_hooks == 1
        service.close()

    def test_stop_joins_workers_and_flushes(self):
        service = Ticker()
        service.start()
        assert wait_for(lambda: len(service.ticks) > 0)
        service.stop()
        assert service.stopped_hooks == 1
        assert service.state.value == "stopped"
        assert service.health()["workers"] == []
        count = len(service.ticks)
        time.sleep(0.02)
        assert len(service.ticks) == count  # workers really stopped

    def test_stop_without_start_is_noop(self):
        service = Ticker()
        service.stop()
        assert service.stopped_hooks == 0
        assert service.state.value == "new"

    def test_close_after_stop_is_safe_and_once_only(self):
        service = Ticker()
        service.start()
        service.stop()
        service.close()
        service.close()
        assert service.closed_hooks == 1
        with pytest.raises(ServiceCrash):
            service.start()  # closed services cannot restart

    def test_crash_marks_state_and_records_error(self):
        service = Ticker(fail_after=3)
        service.start()
        assert wait_for(lambda: service.crashed)
        assert "injected" in repr(service.last_error)
        assert service.stats()["crashes"] == 1
        service.close()

    def test_periodic_worker_waits_between_steps(self):
        class Sweeper(Service):
            def __init__(self):
                super().__init__("sweeper")
                self.sweeps = 0

            def worker_specs(self):
                return [WorkerSpec("sweep", self.sweep, interval=10.0)]

            def sweep(self):
                self.sweeps += 1

        sweeper = Sweeper()
        sweeper.start()
        time.sleep(0.05)
        sweeper.stop()
        # A 10s-period sweeper never fires in 50ms — and stop does not
        # block for the rest of the period.
        assert sweeper.sweeps == 0


class Woken(Service):
    """A woken worker whose step takes work from a list of jobs.

    Nothing re-runs an idle woken step on a timer, so only a ring can
    make it step again — a polling loop cannot pass these tests.
    """

    def __init__(self):
        super().__init__("woken")
        self.wake = Wake()
        self.jobs = []
        self.done = []
        self.steps = 0
        #: Called once, inside the next step, after it drained the jobs.
        self.after_drain = None

    def step(self):
        self.steps += 1
        moved = 0
        while self.jobs:
            self.done.append((self.jobs.pop(0), time.monotonic()))
            moved += 1
        if self.after_drain is not None:
            hook, self.after_drain = self.after_drain, None
            hook()
        return moved

    def worker_specs(self):
        return [WorkerSpec("step", self.step, wake=self.wake)]

    def ring(self, job):
        self.jobs.append(job)
        self.wake.set()


def settle(service):
    """Wait until the worker has taken its first, idle step."""
    assert wait_for(lambda: service.steps >= 1)
    time.sleep(0.02)


class TestWokenWorkers:
    def test_rung_worker_steps_within_50ms(self):
        service = Woken()
        service.start()
        try:
            settle(service)
            rung = time.monotonic()
            service.ring("a")
            assert wait_for(lambda: service.done, timeout=1.0)
            assert service.done[0][1] - rung < 0.05
        finally:
            service.close()

    def test_ring_during_a_step_is_not_lost(self):
        service = Woken()
        service.start()
        try:
            settle(service)
            # An idle step (woken with nothing to do) sees a job arrive
            # after its drain: the step reports no work, so only the
            # ring it kept can run the next step.
            service.after_drain = lambda: service.ring("late")
            service.wake.set()
            assert wait_for(lambda: service.done, timeout=1.0)
            assert service.done[0][0] == "late"
        finally:
            service.close()

    def test_stop_on_idle_woken_service_is_prompt(self):
        service = Woken()
        service.start()
        settle(service)
        begun = time.monotonic()
        service.stop()
        assert time.monotonic() - begun < 0.2
        assert service.health()["workers"] == []
        service.close()

    def test_spec_needs_exactly_one_mode(self):
        with pytest.raises(ValueError, match="exactly one"):
            WorkerSpec("idle", lambda: 0)
        with pytest.raises(ValueError, match="exactly one"):
            WorkerSpec(
                "both", lambda: 0, wake=Wake(), interval=1.0
            )

    def test_idle_wakeups_counted(self):
        service = Woken()
        service.start()
        try:
            settle(service)
            assert service.stats()["idle_wakeups"] == 1
            service.wake.set()  # a ring with no work behind it
            assert wait_for(lambda: service.stats()["idle_wakeups"] == 2)
            service.ring("job")  # a ring with work: not idle
            assert wait_for(lambda: service.done)
            time.sleep(0.02)
            # The useful step is followed by one idle re-check.
            assert service.stats()["idle_wakeups"] == 3
        finally:
            service.close()


class TestSupervisor:
    def test_start_and_stop_follow_dependency_order(self):
        log = []

        class Probe(Service):
            def __init__(self, name):
                super().__init__(name)

            def on_start(self):
                log.append(("start", self.name))

            def on_stop(self):
                log.append(("stop", self.name))

        supervisor = Supervisor("sup")
        supervisor.add_child(Probe("aggregator"))
        supervisor.add_child(Probe("collector"), after=["aggregator"])
        supervisor.add_child(Probe("consumer"), before=["aggregator"])
        supervisor.start()
        supervisor.stop()
        starts = [name for verb, name in log if verb == "start"]
        stops = [name for verb, name in log if verb == "stop"]
        assert starts == ["consumer", "aggregator", "collector"]
        assert stops == list(reversed(starts))

    def test_unknown_dependency_rejected(self):
        supervisor = Supervisor("sup")
        with pytest.raises(ValueError):
            supervisor.add_child(Ticker("a"), after=["nope"])

    def test_cycle_detected(self):
        supervisor = Supervisor("sup")
        a = supervisor.add_child(Ticker("a"))
        b = supervisor.add_child(Ticker("b"), after=[a])
        supervisor._children[a].after.append(b)  # force a cycle
        with pytest.raises(ValueError, match="cycle"):
            supervisor._start_order()

    def test_duplicate_names_get_unique_keys(self):
        supervisor = Supervisor("sup")
        first = supervisor.add_child(Ticker("worker"))
        second = supervisor.add_child(Ticker("worker"))
        assert first == "worker"
        assert second == "worker#2"
        assert supervisor.child(second) is not supervisor.child(first)

    def test_crashed_child_restarted_with_backoff(self):
        registry = MetricsRegistry()
        policy = RestartPolicy(max_restarts=3, backoff_base=1.0)
        supervisor = Supervisor("sup", policy=policy, registry=registry)
        child = Ticker("flaky", fail_after=2)
        supervisor.add_child(child)
        child.start()
        assert wait_for(lambda: child.crashed)
        # Deterministic supervision: first sweep schedules the backoff,
        # nothing restarts before the window elapses.
        assert supervisor.supervise_once(now=100.0) == 0
        assert child.crashed
        assert supervisor.supervise_once(now=100.5) == 0
        # Past the 1s backoff the child comes back.
        child.fail_after = None  # "fixed" across the restart
        assert supervisor.supervise_once(now=101.1) == 1
        assert child.running
        assert child.restart_count == 1
        assert supervisor.stats()["restarts"] == 1
        supervisor.close()

    def test_supervisor_gives_up_after_max_restarts(self):
        policy = RestartPolicy(max_restarts=2, backoff_base=0.0)
        supervisor = Supervisor("sup", policy=policy)
        child = Ticker("doomed", fail_after=0)
        supervisor.add_child(child)
        child.start()
        now = 0.0
        for _ in range(20):
            if supervisor._children["doomed"].gave_up:
                break
            supervisor.supervise_once(now=now)
            wait_for(lambda: not child.running or child.crashed)
            now += 1.0
        assert supervisor._children["doomed"].gave_up
        assert child.restart_count == policy.max_restarts
        health = supervisor.health()["services"]["doomed"]
        assert health["state"] == "crashed"
        supervisor.close()

    def test_child_added_while_running_starts_immediately(self):
        supervisor = Supervisor("sup")
        supervisor.start()
        child = Ticker("late")
        supervisor.add_child(child)
        assert child.running
        supervisor.close()
        assert not child.running

    def test_live_supervision_restarts_crashed_child(self):
        policy = RestartPolicy(max_restarts=5, backoff_base=0.001)
        supervisor = Supervisor("sup", policy=policy)
        child = Ticker("flaky", fail_after=1)
        supervisor.add_child(child)
        supervisor.start()
        try:
            assert wait_for(lambda: child.crashed)
            child.fail_after = None
            assert wait_for(lambda: child.running and child.restart_count >= 1)
        finally:
            supervisor.close()

    def test_supervisor_sweeps_only_when_a_crash_or_backoff_rings(self):
        supervisor = Supervisor(
            "sup-woken", policy=RestartPolicy(backoff_base=0.05)
        )
        child = CrashOnDemand()
        supervisor.add_child(child)
        sweeps = []
        sweep = supervisor.supervise_once
        supervisor.supervise_once = lambda: (sweeps.append(1), sweep())[1]
        supervisor.start()
        try:
            time.sleep(0.2)
            idle_sweeps = len(sweeps)
            assert idle_sweeps <= 1  # the step every start runs
            child.crash_next = True
            child.wake.set()
            # The crash rings a sweep; the pending backoff rings the
            # restart.
            assert wait_for(lambda: child.restart_count == 1 and child.running)
            time.sleep(0.1)
            assert len(sweeps) - idle_sweeps <= 4
        finally:
            supervisor.close()


class TestMetricsRegistry:
    def test_counters_and_gauges_snapshot(self):
        registry = MetricsRegistry()
        scoped = registry.scoped("svc")
        scoped.counter("hits").inc(3)
        scoped.gauge("depth").set(7)
        scoped.gauge_fn("derived", lambda: 42)
        assert scoped.snapshot() == {"hits": 3, "depth": 7, "derived": 42}
        # The parent sees the same values under dotted names.
        assert registry.value("svc.hits") == 3

    def test_unique_scope_suffixes(self):
        registry = MetricsRegistry()
        assert registry.unique_scope("svc") == "svc"
        assert registry.unique_scope("svc") == "svc#2"
        assert registry.unique_scope("svc") == "svc#3"

    def test_counter_is_thread_safe(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")

        def bump():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 40_000


def build_monitor(**kwargs):
    fs = LustreFilesystem(num_mds=1, clock=ManualClock())
    fs.makedirs("/proj/data")
    monitor = LustreMonitor(fs, MonitorConfig(**kwargs))
    return fs, monitor


class TestMonitorStopOrdering:
    def test_stop_flushes_inflight_events_to_consumers(self):
        """Regression: events still in the pipeline when stop() is called
        must reach consumers before their subscription is torn down."""
        fs, monitor = build_monitor()
        seen = []
        monitor.subscribe(lambda seq, ev: seen.append(seq))
        monitor.start()
        try:
            for index in range(50):
                fs.create(f"/proj/data/f{index}")
        finally:
            # Stop immediately: most events are likely still in flight.
            monitor.stop()
        assert len(seen) == 50

    def test_consumers_stop_after_aggregator(self):
        fs, monitor = build_monitor()
        monitor.subscribe(lambda seq, ev: None, name="late")
        order = [
            service.name for service in monitor.supervisor.children()
        ]
        # Start order: consumers first, the shard, then collectors —
        # stop is the reverse, so the consumer outlives the shard.
        assert order.index("late") < order.index("shard0")
        assert all(
            order.index("shard0") < order.index(c.name)
            for c in monitor.collectors
        )


class CrashingSink:
    """An EventSink that kills the collector worker N times."""

    def __init__(self, inner, crashes):
        self.inner = inner
        self.crashes_left = crashes
        self.batches = 0

    def send(self, payload):
        if self.crashes_left > 0:
            self.crashes_left -= 1
            raise ServiceCrash("sink blew up")
        self.inner.send(payload)
        self.batches += 1


class TestFaultInjection:
    def test_killed_collector_restarted_without_event_loss(self):
        """A collector crash mid-poll is restarted by the supervisor and
        re-reads unpurged records: at-least-once, no loss."""
        fs, monitor = build_monitor(
            restart_policy=RestartPolicy(max_restarts=10, backoff_base=0.001),
        )
        collector = monitor.collectors[0]
        collector.sink = CrashingSink(collector.sink, crashes=2)
        seen = []
        monitor.subscribe(lambda seq, ev: seen.append(ev.path))
        monitor.start()
        try:
            for index in range(20):
                fs.create(f"/proj/data/f{index}")
            assert wait_for(lambda: len(seen) >= 20, timeout=10.0)
        finally:
            monitor.stop()
        # The crash really happened and the supervisor brought it back.
        assert collector.sink.crashes_left == 0
        assert collector.restart_count >= 1
        # Report-before-purge: every event was delivered despite the
        # crashes (dedup not needed here because the crash occurs before
        # any partial report).
        assert sorted(set(seen)) == sorted(
            f"/proj/data/f{index}" for index in range(20)
        )
        # Health reflects the restarts through the shared registry.
        services = monitor.stats().services
        key = collector.metrics.scope
        assert services[key]["restart_count"] == collector.restart_count

    def test_monitor_stats_include_service_health(self):
        fs, monitor = build_monitor()
        fs.create("/proj/data/f")
        monitor.drain()
        stats = monitor.stats()
        assert stats.records_read == 1
        for record in stats.services.values():
            assert {"state", "restart_count", "workers", "last_error"} <= set(
                record
            )
