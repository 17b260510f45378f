#!/usr/bin/env python
"""Facility-wide automation: relays, the rule DSL and a query client.

Puts the library's extension features together the way a computing
facility would deploy them:

* two Lustre filesystems (``home`` and ``scratch``), each with its own
  scalable monitor;
* a **facility relay** merging both event streams into one;
* rules written in the **WHEN/THEN DSL** (the way users would actually
  configure them) driving a Ripple agent fed from the merged stream;
* a **MonitorClient** answering operator questions from the relay's
  historic catalog.

Run:  python examples/facility_rules.py
"""

from repro.core import LustreMonitor, MonitorConfig
from repro.core.client import MonitorClient
from repro.core.consumer import Consumer
from repro.core.relay import facility_relay
from repro.lustre import LustreFilesystem
from repro.ripple import RippleAgent, RippleService
from repro.ripple.dsl import install_rules

RULES = """
# archive finished results from scratch
WHEN created OF *.result UNDER /jobs ON facility
THEN command ON facility WITH command=copy dst=/archive/{name}

# purge core dumps anywhere, site-wide
WHEN created OF core.* UNDER / ON facility
THEN command ON facility WITH command=delete src={path}
"""


def main() -> None:
    home = LustreFilesystem(num_mds=1)
    scratch = LustreFilesystem(num_mds=2)
    for fs in (home, scratch):
        fs.makedirs("/jobs")
        fs.makedirs("/archive")
    home_monitor = LustreMonitor(home, MonitorConfig(namespace="home"))
    scratch_monitor = LustreMonitor(scratch, MonitorConfig(namespace="scratch"))

    relay = facility_relay(
        [home_monitor, scratch_monitor], names=["home", "scratch"]
    )

    # The agent executes on scratch (where the data lives) but *detects*
    # through the merged facility stream.
    service = RippleService()
    agent = RippleAgent("facility", filesystem=scratch)
    service.register_agent(agent)
    consumer = Consumer(
        relay.context,
        lambda _seq, event: agent.ingest_event(event),
        config=relay.config,
        name="facility-agent",
    )
    rules = install_rules(service, RULES)
    print("installed rules:")
    for rule in rules:
        print(f"  {rule.describe()}")
    print()

    # --- activity on both filesystems -----------------------------------
    with scratch.job("sim.8841"):
        scratch.create("/jobs/run1.result", size=4096)
        scratch.create("/jobs/core.8841", size=1 << 20)
    home.create("/jobs/notes.txt", size=128)  # matches no rule

    def pump():
        home_monitor.drain()
        scratch_monitor.drain()
        relay.pump_once()
        consumer.poll_once()
        service.run_until_quiet()

    for _ in range(4):
        pump()

    print("scratch /archive :", scratch.listdir("/archive"))
    print("scratch /jobs    :", scratch.listdir("/jobs"))
    assert scratch.listdir("/archive") == ["run1.result"]
    assert "core.8841" not in scratch.listdir("/jobs")

    # --- operator queries over the merged history -------------------------
    client = MonitorClient(relay.context, relay.config)
    client.api_server = relay
    summary = client.activity_summary("/")
    print("facility activity summary:", summary)
    jobs = [
        event.jobid
        for _seq, event in client.query(path_prefix="/jobs")
        if event.jobid
    ]
    print("job ids seen under /jobs:", sorted(set(jobs)))
    assert "sim.8841" in jobs
    assert summary["created"] >= 3
    print("facility rules OK")


if __name__ == "__main__":
    main()
