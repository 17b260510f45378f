"""The process scheduler: one ready queue, one thread, every woken step.

Pins the contract of :mod:`repro.runtime.scheduler`: rings are
deduplicated but never lost, a crash stays inside its service, ``stop()``
waits for an in-flight step (and cannot deadlock when a step calls it),
over-budget steps are counted where an operator sees them, timers serve
the readiness no enqueue reports, and a started system idles on a
handful of threads.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cloudq import ReliableQueue, ServerlessExecutor
from repro.core.events import EventType, FileEvent
from repro.errors import WouldBlock
from repro.metrics import MetricsRegistry
from repro.msgq.multiproc import _FramePipe
from repro.runtime import (
    RestartPolicy,
    Service,
    ServiceCrash,
    Supervisor,
    Wake,
    WorkerSpec,
)
from repro.runtime.scheduler import STEP_BUDGET

SRC = str(Path(__file__).resolve().parent.parent / "src")


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def scheduler_threads():
    return [t for t in threading.enumerate() if t.name == "scheduler"]


class Jobs(Service):
    """A woken worker draining a job list; *during_step* runs inside
    every step after the drain."""

    def __init__(self, name="jobs", registry=None):
        super().__init__(name, registry)
        self.wake = Wake()
        self.jobs = []
        self.done = []
        self.steps = 0
        self.during_step = None
        self.step_threads = set()

    def step(self):
        self.steps += 1
        self.step_threads.add(threading.current_thread().name)
        moved = 0
        while self.jobs:
            self.done.append(self.jobs.pop(0))
            moved += 1
        if self.during_step is not None:
            self.during_step(self)
        return moved

    def worker_specs(self):
        return [WorkerSpec("step", self.step, wake=self.wake)]

    def add(self, job):
        self.jobs.append(job)
        self.wake.set()


def settled(service):
    """Wait until the first (idle) step ran and the queue went quiet."""
    assert wait_for(lambda: service.steps >= 1)
    time.sleep(0.05)


class TestRinging:
    def test_steps_run_on_the_one_scheduler_thread(self):
        first, second = Jobs("first"), Jobs("second")
        first.start()
        second.start()
        try:
            first.add("a")
            second.add("b")
            assert wait_for(lambda: first.done and second.done)
            assert first.step_threads == second.step_threads == {"scheduler"}
            assert len(scheduler_threads()) == 1
        finally:
            first.close()
            second.close()

    def test_n_rings_during_one_step_cause_one_rerun(self):
        service = Jobs()
        service.start()
        try:
            settled(service)
            steps = service.steps

            def ring_many(svc):
                svc.during_step = None
                for _ in range(10):
                    svc.wake.set()

            service.during_step = ring_many
            service.wake.set()
            time.sleep(0.1)
            # The rung step, then exactly one re-run for the ten rings.
            assert service.steps == steps + 2
        finally:
            service.close()

    def test_rings_while_queued_are_absorbed(self):
        service = Jobs()
        blocker = Jobs("blocker")
        release = threading.Event()
        blocker.during_step = lambda svc: release.wait(5.0)
        service.start()
        try:
            settled(service)
            steps = service.steps
            blocker.start()  # its first step holds the scheduler thread
            assert wait_for(lambda: blocker.steps == 1)
            for _ in range(10):
                service.wake.set()
            release.set()
            time.sleep(0.1)
            assert service.steps == steps + 1
        finally:
            release.set()
            blocker.close()
            service.close()

    def test_a_ring_during_a_step_is_never_lost(self):
        service = Jobs()
        entered, resume = threading.Event(), threading.Event()

        def hold(svc):
            svc.during_step = None
            entered.set()
            resume.wait(5.0)

        service.start()
        try:
            settled(service)
            service.during_step = hold
            service.wake.set()
            assert entered.wait(5.0)
            # The step already drained its jobs: only the ring it kept
            # can bring this one in.
            service.add("late")
            resume.set()
            assert wait_for(lambda: service.done == ["late"], timeout=1.0)
        finally:
            resume.set()
            service.close()

    def test_ring_before_start_and_after_stop_is_harmless(self):
        service = Jobs()
        service.add("early")  # unbound wake: nothing queued yet
        service.start()
        try:
            assert wait_for(lambda: service.done == ["early"])
        finally:
            service.stop()
        steps = service.steps
        service.add("after-stop")
        time.sleep(0.05)
        assert service.steps == steps
        service.close()


class Crashy(Jobs):
    """Crashes on a "boom" job the first time, leaving it queued."""

    def __init__(self, name="crashy"):
        super().__init__(name)
        self.crashed_once = False

    def step(self):
        if not self.crashed_once and self.jobs and self.jobs[0] == "boom":
            self.crashed_once = True
            raise ServiceCrash("injected")
        return super().step()


class TestCrashIsolation:
    def test_only_the_failing_service_crashes_and_restarts_losslessly(self):
        crashy, other = Crashy(), Jobs("other")
        supervisor = Supervisor(
            "sched-sup",
            policy=RestartPolicy(backoff_base=0.3),
        )
        supervisor.add_child(crashy)
        supervisor.add_child(other)
        supervisor.start()
        try:
            crashy.add("boom")
            assert wait_for(lambda: crashy.crashed)
            # While it waits out its backoff, the other service steps on.
            other.add("meanwhile")
            assert wait_for(lambda: other.done == ["meanwhile"], timeout=0.2)
            assert crashy.crashed and other.running
            assert wait_for(lambda: crashy.restart_count == 1)
            crashy.add("after")
            assert wait_for(lambda: crashy.done == ["boom", "after"])
            assert crashy.stats()["crashes"] == 1
        finally:
            supervisor.close()


class TestStop:
    def test_stop_from_another_thread_waits_for_the_inflight_step(self):
        service = Jobs()
        entered, resume = threading.Event(), threading.Event()
        finished = []

        def hold(svc):
            svc.during_step = None
            entered.set()
            resume.wait(5.0)
            finished.append(time.monotonic())

        service.start()
        settled(service)
        service.during_step = hold
        service.wake.set()
        assert entered.wait(5.0)
        stopped = []
        stopper = threading.Thread(
            target=lambda: (service.stop(), stopped.append(time.monotonic()))
        )
        stopper.start()
        time.sleep(0.1)
        assert not stopped  # still waiting for the step
        resume.set()
        stopper.join(5.0)
        assert stopped and finished and finished[0] <= stopped[0]
        service.close()

    def test_stop_from_a_scheduled_step_does_not_deadlock(self):
        service = Jobs()
        service.during_step = lambda svc: svc.stop() if svc.done else None
        service.start()
        try:
            service.add("last")
            assert wait_for(lambda: service.state.value == "stopped", 2.0)
        finally:
            service.close()

    def test_supervisor_restart_from_a_step_does_not_deadlock(self):
        crashy = Crashy()
        supervisor = Supervisor(
            "sched-restart",
            policy=RestartPolicy(backoff_base=0.0),
        )
        supervisor.add_child(crashy)
        supervisor.start()
        try:
            crashy.add("boom")
            assert wait_for(lambda: crashy.restart_count == 1, 2.0)
            assert wait_for(lambda: crashy.done == ["boom"], 2.0)
            assert crashy.running
        finally:
            supervisor.close()

    def test_scheduler_thread_exits_once_nothing_is_registered(self):
        # A fresh interpreter: no other test's service keeps it alive.
        code = textwrap.dedent("""
            import threading, time
            from repro.runtime import Service, Wake, WorkerSpec

            class One(Service):
                def worker_specs(self):
                    return [WorkerSpec("step", lambda: 0, wake=Wake())]

            def names():
                return sorted(t.name for t in threading.enumerate())

            service = One("one")
            assert names() == ["MainThread"], names()
            service.start()
            assert names() == ["MainThread", "scheduler"], names()
            service.close()
            deadline = time.monotonic() + 2.0
            while names() != ["MainThread"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert names() == ["MainThread"], names()
            service = One("again")
            service.start()  # a later start brings the thread back
            assert names() == ["MainThread", "scheduler"], names()
            service.close()
        """)
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC},
            check=True,
            timeout=60,
        )


class TestBudget:
    def test_over_budget_step_is_counted_and_scraped(self):
        from repro.telemetry.server import TelemetryServer

        registry = MetricsRegistry()
        service = Jobs("slow", registry=registry)
        server = TelemetryServer(registry, port=0)
        server.start()
        service.start()
        try:
            settled(service)
            assert registry.counter("runtime.steps_over_budget").value == 0
            service.during_step = lambda svc: time.sleep(STEP_BUDGET * 1.5)
            service.add("slow")
            assert wait_for(
                lambda: registry.counter("runtime.steps_over_budget").value >= 1
            )
            service.during_step = None
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as r:
                body = r.read().decode()
            line = next(
                ln for ln in body.splitlines()
                if ln.startswith("repro_runtime_steps_over_budget")
            )
            assert float(line.split()[-1]) >= 1
        finally:
            service.close()
            server.close()


class TestTimers:
    def test_periodic_worker_steps_on_the_timer_heap(self):
        class Sweeper(Service):
            def __init__(self):
                super().__init__("sweeper")
                self.sweeps = []

            def worker_specs(self):
                return [WorkerSpec("sweep", self.sweep, interval=0.01)]

            def sweep(self):
                self.sweeps.append(threading.current_thread().name)

        sweeper = Sweeper()
        sweeper.start()
        try:
            assert wait_for(lambda: len(sweeper.sweeps) >= 5, 2.0)
            assert set(sweeper.sweeps) == {"scheduler"}
            assert sweeper.health()["workers"] == ["sweeper-sweep"]
        finally:
            sweeper.close()

    def test_visibility_timeout_rings_the_executor(self):
        """A failed message reappears after its visibility timeout; a
        timer rings the executor, nothing polls for it."""
        queue = ReliableQueue("sched-vis", visibility_timeout=0.2)
        attempts = []

        def handler(body):
            attempts.append(time.monotonic())
            if len(attempts) == 1:
                raise RuntimeError("fail once")

        executor = ServerlessExecutor(queue, handler, concurrency=1)
        executor.start()
        try:
            queue.send("x")
            assert wait_for(lambda: len(attempts) == 2, 2.0)
            assert attempts[1] - attempts[0] >= 0.15
            assert wait_for(lambda: executor.successes == 1)
        finally:
            executor.close()

    def test_wake_rejects_a_plain_event(self):
        with pytest.raises(TypeError, match="Wake"):
            WorkerSpec("step", lambda: 0, wake=threading.Event())


def test_started_query_shaped_system_idles_on_few_threads():
    """A 2-shard cluster with gateway, subscriber and a Ripple agent:
    main, the scheduler and the gateway's event loop — nothing else
    needs a thread of its own."""
    from repro.cluster import ClusterConfig, ClusterMonitor
    from repro.gateway import attach_gateway
    from repro.lustre import DnePolicy, LustreFilesystem
    from repro.ripple import Action, RippleAgent, RippleService, Trigger

    fs = LustreFilesystem(num_mds=2, dne_policy=DnePolicy.ROUND_ROBIN)
    fs.makedirs("/q")
    cluster = ClusterMonitor(
        fs, ClusterConfig(num_shards=2, namespace="sched-idle")
    )
    attach_gateway(cluster)
    seen, acted = [], []
    cluster.subscribe(lambda _seq, event: seen.append(event.path))
    service = RippleService()
    agent = RippleAgent("lustre", filesystem=fs)
    agent.register_callable(
        "record", lambda _agent, event, _params: acted.append(event.path)
    )
    service.register_agent(agent)
    service.add_rule(
        Trigger(agent_id="lustre", path_prefix="/q"),
        Action("callable", "lustre", {"function": "record"}),
    )
    cluster.subscribe(
        lambda _seq, _event: None,
        name="agent-feed",
        batch_callback=lambda entries: agent.ingest_batch(
            [event for _seq, event in entries]
        ),
    )
    before = threading.active_count()
    cluster.start()
    service.start()
    agent.start()
    try:
        fs.create("/q/probe")
        assert wait_for(lambda: "/q/probe" in seen and "/q/probe" in acted)
        time.sleep(0.2)
        # At most the scheduler and the gateway loop join main (other
        # tests' leftovers are discounted through *before*).
        assert threading.active_count() - before <= 3
    finally:
        agent.close()
        service.shutdown()
        cluster.shutdown()


class _FullPipe(_FramePipe):
    """A child inbox with no room: its pipe holds unread bytes, and a
    frame written fails the test."""

    def __init__(self):
        self._reader, writer = multiprocessing.Pipe(duplex=False)
        writer.send_bytes(b"unread")
        super().__init__(writer)

    def write(self, frame):
        raise AssertionError("a frame was written into a full pipe")


class TestBridgeNeverBlocks:
    def _bridge(self, namespace, **kwargs):
        from repro.core import AggregatorConfig
        from repro.msgq.multiproc import MultiprocTransport

        transport = MultiprocTransport()
        config = AggregatorConfig(
            inbound_endpoint=f"inproc://{namespace}.reports",
            publish_endpoint=f"inproc://{namespace}.events",
            api_endpoint=f"inproc://{namespace}.api",
        )
        return transport, transport.process_shard("shard0", config, **kwargs)

    def test_full_child_inbox_leaves_reports_and_requests_in_their_mailbox(self):
        transport, bridge = self._bridge("sched-full")
        real_inbox = bridge._inbox
        try:
            push = transport.push().connect(bridge.config.inbound_endpoint)
            push.send([
                FileEvent(EventType.CREATED, "/r/a", False, 0.0, "a", "lustre")
            ])
            box = []
            requester = threading.Thread(
                target=lambda: box.append(
                    _ask(transport, bridge.config.api_endpoint)
                ),
                daemon=True,
            )
            requester.start()
            assert wait_for(lambda: bridge.api.pending == 1)
            bridge._inbox = _FullPipe()
            started = time.monotonic()
            assert bridge._forward_reports() == 0
            assert bridge._forward_requests() == 0
            assert time.monotonic() - started < 0.5  # no blocking put
            assert bridge.inbound.pending == 1 and not bridge._inflight
            assert bridge.api.pending == 1 and not bridge._pending_replies
            # With room again, both move on and the request is answered.
            bridge._inbox = real_inbox
            assert wait_for(lambda: bridge.pump_once() >= 0 and box, 10.0)
            assert wait_for(
                lambda: bridge.pump_once() >= 0 and bridge.events_stored == 1,
                10.0,
            )
        finally:
            bridge._inbox = real_inbox
            transport.close()

    def test_stopped_child_never_holds_a_bridge_step(self):
        from repro.msgq.framing import encode_report

        # No metrics relay: a stopped child must be idle, not mid-write.
        transport, bridge = self._bridge("sched-stopped", relay_interval=0)
        proc = bridge._proc
        try:
            sub = transport.sub().connect(bridge.config.publish_endpoint)
            sub.subscribe("")
            push = transport.push().connect(bridge.config.inbound_endpoint)
            capacity = bridge._inbox.window * os.sysconf("SC_PAGE_SIZE")
            paths = []

            def report(count):
                events = []
                for _ in range(count):
                    path = f"/stop/f{len(paths)}"
                    paths.append(path)
                    events.append(
                        FileEvent(EventType.CREATED, path, False, 0.0, "f", "lustre")
                    )
                return events

            reports = [report(100) for _ in range(3)] + [report(4000)]
            reports += [report(100) for _ in range(10)]
            assert len(encode_report(reports[3])) > capacity
            assert sum(len(encode_report(r)) for r in reports) > 2 * capacity
            os.kill(proc.pid, signal.SIGSTOP)
            # Should a step block on the child anyway, this kills the
            # child so the step returns (late) and fails the bound.
            guard = threading.Timer(5.0, proc.kill)
            guard.start()
            try:
                for events in reports:
                    push.send(events)
                for _ in range(20):
                    started = time.monotonic()
                    bridge.pump_once()
                    assert time.monotonic() - started < STEP_BUDGET
                # What did not fit waits in the PULL mailbox.
                assert bridge.inbound.pending > 0
            finally:
                guard.cancel()
                os.kill(proc.pid, signal.SIGCONT)
            got = []

            def delivered():
                bridge.pump_once()
                try:
                    for _topic, batch in sub.recv_many(block=False):
                        got.extend(batch.entries)
                except WouldBlock:
                    pass
                return len(got) >= len(paths) and not bridge.busy

            assert wait_for(delivered, 30.0)
            assert [event.path for _seq, event in got] == paths
            assert [seq for seq, _event in got] == list(
                range(1, len(paths) + 1)
            )
            assert bridge._proc is proc  # stopped, never respawned
        finally:
            transport.close()

    def test_child_frames_are_handled_on_the_scheduler(self):
        from repro.core import LustreMonitor, MonitorConfig
        from repro.lustre import LustreFilesystem
        from repro.msgq.multiproc import ProcessShardBridge

        fs = LustreFilesystem(num_mds=1)
        fs.makedirs("/b")
        monitor = LustreMonitor(
            fs, MonitorConfig(namespace="sched-frames", transport="multiproc")
        )
        seen = []
        monitor.subscribe(lambda _seq, event: seen.append(event.path))
        handled_on = set()
        bridge = monitor.bridges["shard0"]
        handle = bridge._handle_frame

        def recording(frame):
            handled_on.add(threading.current_thread().name)
            return handle(frame)

        bridge._handle_frame = recording
        assert isinstance(bridge, ProcessShardBridge)
        monitor.start()
        try:
            for index in range(20):
                fs.create(f"/b/f{index}")
            assert wait_for(lambda: len(seen) == 20, 20.0)
            assert handled_on == {"scheduler"}
        finally:
            monitor.shutdown()


def _ask(transport, endpoint):
    socket = transport.req().connect(endpoint)
    try:
        return socket.request({"op": "stats"}, timeout=10.0)
    finally:
        socket.close()
