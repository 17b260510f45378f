"""Tests for the Ripple agent + cloud service, including failure injection."""

import pytest

from repro.core.events import EventType, FileEvent
from repro.errors import RippleError
from repro.ripple import (
    Action,
    RippleAgent,
    RippleService,
    ServiceConfig,
    Trigger,
)
from repro.util.clock import ManualClock


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def service(clock):
    return RippleService(clock=clock)


def wired_agent(service, agent_id="dev", watch="/in"):
    agent = RippleAgent(agent_id)
    service.register_agent(agent)
    agent.attach_local_filesystem()
    agent.fs.makedirs(watch)
    return agent


class TestRegistration:
    def test_duplicate_agent_rejected(self, service):
        service.register_agent(RippleAgent("x"))
        with pytest.raises(RippleError):
            service.register_agent(RippleAgent("x"))

    def test_rules_distributed_on_registration(self, service):
        service.add_rule(
            Trigger(agent_id="late", path_prefix="/w"),
            Action("email", "late", {"to": "a@b"}),
        )
        agent = RippleAgent("late")
        agent.fs.makedirs("/w")
        service.register_agent(agent)
        assert len(agent.rules) == 1

    def test_rules_distributed_on_add(self, service):
        agent = wired_agent(service)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )
        assert len(agent.rules) == 1

    def test_remove_rule_refreshes_agent(self, service):
        agent = wired_agent(service)
        rule = service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )
        service.remove_rule(rule.rule_id)
        assert agent.rules == []


class TestRuleDeltas:
    """Rule changes reach the agent as deltas on one long-lived index."""

    COUNTERS = (
        "ripple_candidates_considered",
        "ripple_rules_evaluated",
        "ripple_program_recompiles",
    )

    def test_index_and_counters_survive_rule_churn(self, service):
        agent = RippleAgent("dev")
        service.register_agent(agent)
        index = agent.rule_index
        seen = []

        def match(path):
            agent.ingest_event(FileEvent(
                event_type=EventType.CREATED, path=path, is_dir=False,
                timestamp=1.0, name=path.rsplit("/", 1)[-1], source="test",
            ))

        def check():
            assert agent.rule_index is index
            snapshot = agent.metrics.snapshot()
            current = [snapshot[name] for name in self.COUNTERS]
            if seen:
                assert all(
                    now >= before for now, before in zip(current, seen[-1])
                ), (seen[-1], current)
            seen.append(current)

        csv = service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in", name_pattern="*.csv"),
            Action("email", "dev", {"to": "a@b"}),
        )
        check()
        every = service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )
        check()
        match("/in/a.csv")
        check()
        assert agent.events_matched == 1
        service.remove_rule(csv.rule_id)
        check()
        match("/in/b.csv")
        check()
        service.set_rule_enabled(every.rule_id, False)
        check()
        match("/in/c.csv")
        check()
        assert agent.events_matched == 2
        service.set_rule_enabled(every.rule_id, True)
        check()
        match("/in/d.csv")
        check()
        assert agent.events_matched == 3
        # The counters really moved: three matching rounds surfaced
        # candidates and each rule change dirtied a bucket program.
        candidates, evaluated, recompiles = seen[-1]
        assert candidates >= 3 and evaluated >= 3 and recompiles >= 3


class TestWatcherPlacement:
    """Watchers are placed per rule delta, never nested."""

    def email(self, to="a@b"):
        return Action("email", "dev", {"to": to})

    def test_nested_prefixes_fire_an_action_once(self, service):
        agent = RippleAgent("dev")
        service.register_agent(agent)
        agent.attach_local_filesystem()
        agent.fs.makedirs("/a/b")
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/a/b", name_pattern="*.x"),
            self.email("b@x"),
        )
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/a", name_pattern="*.y"),
            self.email("a@y"),
        )
        agent.fs.create("/a/b/f.x", b"1")
        service.run_until_quiet()
        # One schedule covers /a/b now: the event is seen once, not once
        # per watched ancestor, so the /a/b action runs once.
        assert [m["to"] for m in service.outbox] == ["b@x"]
        assert agent.events_reported == 1
        assert agent.actions_executed == 1

    def test_prefix_watched_once_its_directory_exists(self, service):
        agent = wired_agent(service)
        service.add_rule(Trigger(agent_id="dev", path_prefix="/late"),
                         self.email())
        agent.fs.makedirs("/late")
        agent.fs.create("/late/early", b"")
        service.run_until_quiet()
        assert service.outbox == []  # no watcher yet: no directory then
        # Any later rule change retries the waiting prefix.
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in", name_pattern="*.z"),
            self.email(),
        )
        agent.fs.create("/late/f", b"")
        service.run_until_quiet()
        assert len(service.outbox) == 1

    def test_removed_rule_no_longer_waits_for_its_directory(self, service):
        agent = wired_agent(service)
        rule = service.add_rule(Trigger(agent_id="dev", path_prefix="/late"),
                                self.email())
        service.remove_rule(rule.rule_id)
        agent.fs.makedirs("/late")
        before = agent.observer.directories_watched
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in", name_pattern="*.z"),
            self.email(),
        )
        assert agent.observer.directories_watched == before + 1  # /in only

    def test_rules_installed_before_attach_are_watched_on_attach(
        self, service
    ):
        agent = RippleAgent("dev")
        agent.fs.makedirs("/in")
        service.add_rule(Trigger(agent_id="dev", path_prefix="/in"),
                         self.email())
        service.register_agent(agent)
        agent.attach_local_filesystem()
        agent.fs.create("/in/f", b"")
        service.run_until_quiet()
        assert len(service.outbox) == 1


class TestEventFlow:
    def test_rule_fires_end_to_end(self, service):
        agent = wired_agent(service)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in", name_pattern="*.csv"),
            Action("email", "dev", {"to": "pi@lab", "subject": "new {name}"}),
        )
        agent.fs.create("/in/run.csv", b"1,2")
        service.run_until_quiet()
        assert [m["subject"] for m in service.outbox] == ["new run.csv"]

    def test_non_matching_events_not_reported(self, service):
        agent = wired_agent(service)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in", name_pattern="*.csv"),
            Action("email", "dev", {"to": "pi@lab"}),
        )
        agent.fs.create("/in/readme.txt", b"x")
        service.run_until_quiet()
        assert agent.events_seen == 1
        assert agent.events_matched == 0
        assert service.events_accepted == 0

    def test_service_reevaluates_rules_authoritatively(self, service):
        """A rule removed between detection and processing must not fire."""
        agent = wired_agent(service)
        rule = service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "pi@lab"}),
        )
        agent.fs.create("/in/f.bin", b"")
        agent.drain_detection()  # event reported, queued
        service.remove_rule(rule.rule_id)
        service.run_until_quiet()
        assert service.outbox == []

    def test_action_routed_to_different_agent(self, service):
        source = wired_agent(service, "source", "/out")
        target = RippleAgent("target")
        service.register_agent(target)
        service.add_rule(
            Trigger(agent_id="source", path_prefix="/out"),
            Action("command", "target",
                   {"command": "mkdir", "src": "/mirrored"}),
        )
        source.fs.create("/out/f", b"")
        service.run_until_quiet()
        assert target.fs.is_dir("/mirrored")

    def test_rule_chain_pipelines(self, service):
        agent = wired_agent(service)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in", name_pattern="*.raw"),
            Action("command", "dev",
                   {"command": "copy", "dst": "{dir}/{stem}.stage1"}),
        )
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in", name_pattern="*.stage1"),
            Action("command", "dev",
                   {"command": "copy", "dst": "{dir}/{stem}.stage2"}),
        )
        agent.fs.create("/in/x.raw", b"d")
        service.run_until_quiet()
        assert agent.fs.exists("/in/x.stage1")
        assert agent.fs.exists("/in/x.stage2")

    def test_multiple_rules_fire_for_one_event(self, service):
        agent = wired_agent(service)
        for index in range(3):
            service.add_rule(
                Trigger(agent_id="dev", path_prefix="/in"),
                Action("email", "dev", {"to": f"user{index}@lab"}),
            )
        agent.fs.create("/in/f", b"")
        service.run_until_quiet()
        assert len(service.outbox) == 3


class TestReliability:
    def test_report_retries_until_accepted(self, service):
        agent = wired_agent(service)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )
        failures = {"left": 3}
        service.report_fault = (
            lambda agent_id, event: failures.__setitem__("left", failures["left"] - 1)
            or failures["left"] >= 0
        )
        agent.fs.create("/in/f", b"")
        service.run_until_quiet()
        assert agent.report_retries == 3
        assert agent.events_reported == 1
        assert len(service.outbox) == 1

    def test_report_abandoned_after_budget(self, service):
        agent = wired_agent(service)
        agent.max_report_retries = 2
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )
        service.report_fault = lambda agent_id, event: True  # always fail
        agent.fs.create("/in/f", b"")
        agent.drain_detection()
        assert agent.reports_abandoned == 1
        assert service.events_accepted == 0

    def test_report_fault_retried_then_logged_once_when_abandoned(
        self, service, caplog
    ):
        agent = wired_agent(service)
        agent.max_report_retries = 2
        rule = service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )
        service.report_fault = lambda agent_id, event: True  # always fail
        agent.fs.create("/in/f", b"")
        with caplog.at_level("WARNING", logger="repro.ripple.agent"):
            agent.drain_detection()
        assert agent.report_retries == 3
        assert agent.reports_abandoned == 1
        abandoned = [r.getMessage() for r in caplog.records
                     if r.name == "repro.ripple.agent"]
        assert len(abandoned) == 1
        assert "dev" in abandoned[0] and "/in/f" in abandoned[0]
        assert str([rule.rule_id]) in abandoned[0]

    def test_report_bug_propagates_instead_of_retrying(self, service):
        agent = wired_agent(service)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )

        def broken(agent_id, event):
            raise TypeError("bug in the report path")

        service.report_fault = broken
        agent.fs.create("/in/f", b"")
        with pytest.raises(TypeError):
            agent.drain_detection()
        assert agent.report_retries == 0
        assert agent.reports_abandoned == 0

    def test_failed_action_retried_then_succeeds(self, service):
        agent = wired_agent(service)
        attempts = {"n": 0}

        def flaky(agent, event, parameters):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        agent.register_callable("flaky", flaky)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("callable", "dev", {"function": "flaky"}),
        )
        agent.fs.create("/in/f", b"")
        service.run_until_quiet()
        assert attempts["n"] == 3
        assert service.actions_retried == 2
        assert not service.failed_actions
        assert service.results[-1].success

    def test_action_parked_after_attempt_budget(self, clock):
        service = RippleService(ServiceConfig(max_action_attempts=2), clock=clock)
        agent = wired_agent(service)

        def always_fails(agent, event, parameters):
            raise RuntimeError("permanent")

        agent.register_callable("dead", always_fails)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("callable", "dev", {"function": "dead"}),
        )
        agent.fs.create("/in/f", b"")
        service.run_until_quiet()
        assert len(service.failed_actions) == 1
        request, result = service.failed_actions[0]
        assert request.attempts == 2
        assert not result.success

    def test_queue_entry_redelivered_after_dispatch_crash(self, service, clock):
        """A dispatch failure (lambda crash) leaves the entry in the
        queue; the visibility timeout re-drives it."""
        agent = wired_agent(service)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )
        crashes = {"left": 1}

        def crash_once(request):
            if crashes["left"] > 0:
                crashes["left"] -= 1
                return True
            return False

        service.dispatch_fault = crash_once
        agent.fs.create("/in/f", b"")
        service.step()  # first lambda invocation crashes
        assert service.outbox == []
        clock.advance(service.config.visibility_timeout + 1)
        service.run_until_quiet()
        assert len(service.outbox) == 1

    def test_cleanup_redrives_faster_than_visibility_timeout(self, service, clock):
        agent = wired_agent(service)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )
        crashes = {"left": 1}
        service.dispatch_fault = (
            lambda request: crashes.__setitem__("left", crashes["left"] - 1)
            or crashes["left"] >= 0
        )
        agent.fs.create("/in/f", b"")
        service.step()
        assert service.event_queue.in_flight == 1
        clock.advance(service.config.cleanup_stall_threshold + 1)
        service.cleanup.sweep_once()
        assert service.event_queue.visible_depth == 1
        service.run_until_quiet()
        assert len(service.outbox) == 1


class TestLiveService:
    def test_threaded_service_processes_events(self):
        import time

        service = RippleService()
        agent = wired_agent(service)
        service.add_rule(
            Trigger(agent_id="dev", path_prefix="/in"),
            Action("email", "dev", {"to": "a@b"}),
        )
        agent.attach_local_filesystem().start(poll_interval=0.001)
        service.start()
        try:
            agent.fs.create("/in/f", b"")
            deadline = time.time() + 3
            while not service.outbox and time.time() < deadline:
                time.sleep(0.01)
                agent.execute_pending()
        finally:
            service.stop()
            agent.observer.stop()
        assert len(service.outbox) == 1
