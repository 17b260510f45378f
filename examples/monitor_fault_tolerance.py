#!/usr/bin/env python
"""Fault tolerance walk-through: what the monitor and Ripple guarantee.

Demonstrates the reliability mechanisms the paper describes:

1. **ChangeLog purge pointers** — a collector crash between read and
   clear re-delivers records; nothing is lost (at-least-once).
2. **The rotating catalog + historic API** — a consumer that joins late
   (or drops messages) catches up via the Aggregator's API.
3. **Ripple report retries + the SQS/cleanup loop** — injected service
   failures are absorbed by agent retries; injected action failures are
   retried by the service up to its attempt budget.

Run:  python examples/monitor_fault_tolerance.py
"""

from repro.core import LustreMonitor
from repro.lustre import LustreFilesystem
from repro.ripple import Action, RippleAgent, RippleService, Trigger


def demo_purge_pointer_replay() -> None:
    print("-- 1. collector crash/replay (purge pointers)")
    fs = LustreFilesystem()
    fs.makedirs("/d")
    changelog = fs.changelogs()[0]
    user = changelog.register_user()
    for index in range(5):
        fs.create(f"/d/f{index}")
    # Read but "crash" before clearing: records stay.
    first_read = changelog.read(user)
    assert len(first_read) == 5
    replay = changelog.read(user)
    assert [r.index for r in replay] == [r.index for r in first_read]
    print(f"   re-read after crash delivered the same {len(replay)} records")
    changelog.clear(user, replay[-1].index)
    assert changelog.read(user) == []
    assert changelog.backlog == 0
    print("   after clear: backlog purged, nothing re-delivered")


def demo_consumer_catch_up() -> None:
    print("-- 2. late subscriber catch-up (rotating catalog + API)")
    fs = LustreFilesystem()
    fs.makedirs("/d")
    monitor = LustreMonitor(fs)
    for index in range(10):
        fs.create(f"/d/f{index}")
    monitor.drain()  # events flow while nobody is subscribed
    late_events = []
    consumer = monitor.subscribe(
        lambda seq, ev: late_events.append(seq), name="late-joiner"
    )
    assert not late_events, "slow joiner misses the live stream"
    missed = consumer.catch_up(api_server=monitor.shard_handles["shard0"])
    print(f"   late joiner recovered {missed} events via the historic API")
    assert missed == 10
    monitor.shutdown()


def demo_ripple_retries() -> None:
    print("-- 3. Ripple reliability (report retries + action retries)")
    service = RippleService()
    agent = RippleAgent("dev")
    service.register_agent(agent)
    agent.attach_local_filesystem()
    agent.fs.makedirs("/in")

    # Fail the first two report attempts of every event.
    failures = {"remaining": 2}

    def flaky_report(_agent_id, _event):
        if failures["remaining"] > 0:
            failures["remaining"] -= 1
            return True
        return False

    service.report_fault = flaky_report

    # An action that fails once, then succeeds.
    attempts = {"n": 0}

    def flaky_analysis(agent, event, parameters):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("transient failure")
        agent.write_file("/in/done.marker", b"ok")
        return "done"

    agent.register_callable("analysis", flaky_analysis)
    service.add_rule(
        Trigger(agent_id="dev", path_prefix="/in", name_pattern="*.csv"),
        Action("callable", "dev", {"function": "analysis"}),
        name="flaky-analysis",
    )

    agent.fs.create("/in/data.csv", b"a,b\n1,2\n")
    service.run_until_quiet()

    print(f"   report retries: {agent.report_retries} (then accepted)")
    print(f"   action attempts: {attempts['n']} "
          f"(service retried {service.actions_retried} time(s))")
    assert agent.report_retries == 2
    assert attempts["n"] == 2
    assert agent.fs.exists("/in/done.marker")
    assert not service.failed_actions


def main() -> None:
    demo_purge_pointer_replay()
    demo_consumer_catch_up()
    demo_ripple_retries()
    print("fault tolerance OK")


if __name__ == "__main__":
    main()
