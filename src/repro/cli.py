"""Command-line interface: run experiments and demos from a shell.

Usage (also via ``python -m repro``):

    repro experiments list
    repro experiments run table2 --testbed iota
    repro experiments run all
    repro throughput --testbed aws --duration 20 --batch-size 64
    repro figure3 --days 36
    repro changelog-demo
    repro metrics-demo --events 500 --prometheus

Every subcommand prints the same tables the paper reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.harness import (
    experiment_figure3,
    experiment_table1,
    experiment_table2,
    experiment_table3,
    experiment_throughput,
)
from repro.perf import AWS, IOTA, TestbedProfile

_PROFILES: Dict[str, TestbedProfile] = {"aws": AWS, "iota": IOTA}


def _profile(name: str) -> TestbedProfile:
    try:
        return _PROFILES[name.lower()]
    except KeyError:
        raise SystemExit(
            f"unknown testbed {name!r}; choose from {sorted(_PROFILES)}"
        ) from None


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_experiments(args: argparse.Namespace) -> int:
    runners: Dict[str, Callable[[], str]] = {
        "table1": lambda: "\n".join(experiment_table1()),
        "table2": lambda: "\n\n".join(
            experiment_table2(profile).render() for profile in (AWS, IOTA)
        ),
        "throughput": lambda: "\n\n".join(
            experiment_throughput(profile, duration=args.duration).render()
            for profile in (AWS, IOTA)
        ),
        "table3": lambda: experiment_table3(duration=args.duration).render(),
        "figure3": lambda: experiment_figure3().render(),
    }
    if args.action == "list":
        print("available experiments:")
        for name in runners:
            print(f"  {name}")
        print("  all")
        return 0
    targets = list(runners) if args.name == "all" else [args.name]
    for target in targets:
        runner = runners.get(target)
        if runner is None:
            print(
                f"unknown experiment {target!r}; try 'experiments list'",
                file=sys.stderr,
            )
            return 2
        print(f"=== {target} ===")
        print(runner())
        print()
    return 0


def cmd_throughput(args: argparse.Namespace) -> int:
    report = experiment_throughput(
        _profile(args.testbed),
        duration=args.duration,
        batch_size=args.batch_size,
        cache_size=args.cache_size,
        num_mds=args.num_mds,
        transport=args.transport,
    )
    print(report.render())
    return 0


def cmd_figure3(args: argparse.Namespace) -> int:
    report = experiment_figure3(days=args.days, base_files=args.base_files,
                                seed=args.seed)
    print(report.render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Generate or replay operation traces."""
    from repro.workloads.traces import TraceOp, TraceReplayer, synthetic_trace

    if args.trace_action == "generate":
        count = 0
        with open(args.output, "w", encoding="utf-8") as handle:
            for op in synthetic_trace(args.ops, seed=args.seed,
                                      n_directories=args.directories):
                handle.write(op.to_line() + "\n")
                count += 1
        print(f"wrote {count} operations to {args.output}")
        return 0
    # replay
    from repro.lustre import LustreFilesystem
    from repro.util.clock import ManualClock

    fs = LustreFilesystem(num_mds=args.num_mds, clock=ManualClock())
    replayer = TraceReplayer(fs)
    with open(args.path, "r", encoding="utf-8") as handle:
        ops = [TraceOp.from_line(line) for line in handle if line.strip()]
    applied = replayer.replay(ops)
    print(f"replayed {applied}/{len(ops)} operations "
          f"({replayer.skipped} skipped)")
    print(f"changelog records generated: {fs.total_changelog_records()}")
    for changelog in fs.changelogs():
        print(f"  MDT{changelog.mdt_index}: {changelog.total_appended}")
    return 0


def cmd_rules(args: argparse.Namespace) -> int:
    """Validate a rules file written in the WHEN/THEN DSL."""
    from repro.errors import RuleValidationError
    from repro.ripple.dsl import parse_rules

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        rules = parse_rules(text)
    except RuleValidationError as exc:
        print(f"invalid rules file: {exc}", file=sys.stderr)
        return 1
    print(f"{len(rules)} rule(s) OK")
    for rule in rules:
        print(f"  {rule.describe()}")
    return 0


def cmd_changelog_demo(args: argparse.Namespace) -> int:
    """Create a tiny filesystem and dump its ChangeLog (Table 1 style)."""
    from repro.lustre import LustreFilesystem
    from repro.util.clock import ManualClock

    fs = LustreFilesystem(num_mds=args.num_mds, clock=ManualClock())
    fs.makedirs("/demo/data")
    with fs.job("demo.1"):
        fs.create("/demo/data/data1.txt", size=1024)
        fs.write("/demo/data/data1.txt", 2048)
        fs.rename("/demo/data/data1.txt", "/demo/data/data2.txt")
        fs.unlink("/demo/data/data2.txt")
    for changelog in fs.changelogs():
        if changelog.backlog:
            print(f"-- MDT{changelog.mdt_index} ChangeLog --")
            for line in changelog.dump():
                print(line)
    return 0


def cmd_health_demo(args: argparse.Namespace) -> int:
    """Run a live supervised monitor briefly and print its health tree."""
    from repro.core import LustreMonitor
    from repro.lustre import LustreFilesystem

    fs = LustreFilesystem(num_mds=args.num_mds)
    fs.makedirs("/demo/data")
    monitor = LustreMonitor(fs)
    monitor.subscribe(lambda _seq, _event: None, name="demo")
    monitor.start()
    try:
        for index in range(args.events):
            fs.create(f"/demo/data/f{index}")
        monitor.drain()
        print("== supervision tree ==")
        for key, record in monitor.health()["services"].items():
            workers = ", ".join(record["workers"]) or "-"
            print(
                f"{key:24s} {record['state']:8s} "
                f"restarts={record['restart_count']} workers=[{workers}]"
            )
        print("\n== registry snapshot ==")
        for name, value in sorted(monitor.registry.snapshot().items()):
            print(f"{name:44s} {value}")
    finally:
        monitor.shutdown()
    return 0


def cmd_metrics_demo(args: argparse.Namespace) -> int:
    """Run the sim pipeline and print per-stage latency percentiles."""
    from repro.cluster import ClusterClient
    from repro.core import AggregatorConfig, LustreMonitor, MonitorConfig
    from repro.lustre import LustreFilesystem

    # Default wall clock: event timestamps and tracer stamps share a
    # clock domain, so the collect stage is meaningful.
    fs = LustreFilesystem(num_mds=args.num_mds)
    fs.makedirs("/demo/data")
    monitor = LustreMonitor(
        fs,
        MonitorConfig(
            aggregator=AggregatorConfig(
                trace_sample_rate=args.sample_rate
            )
        ),
    )
    monitor.subscribe(lambda _seq, _event: None, name="demo")
    try:
        for index in range(args.events):
            fs.create(f"/demo/data/f{index}")
            if args.batch and (index + 1) % args.batch == 0:
                monitor.pump()
        monitor.drain()
        stages = monitor.stats().stage_latency
        print("== per-stage latency (seconds) ==")
        header = (
            f"{'stage':10s} {'count':>7s} {'p50':>10s} {'p95':>10s} "
            f"{'p99':>10s} {'mean':>10s} {'max':>10s}"
        )
        print(header)
        if not stages:
            print("(tracing disabled: sample rate 0)")
        for stage in ("collect", "aggregate", "publish", "deliver",
                      "relay", "action"):
            summary = stages.get(stage)
            if summary is None:
                continue
            print(
                f"{stage:10s} {summary['count']:7d} "
                f"{summary['p50']:10.6f} {summary['p95']:10.6f} "
                f"{summary['p99']:10.6f} {summary['mean']:10.6f} "
                f"{summary['max']:10.6f}"
            )
        if args.prometheus:
            client = ClusterClient.for_cluster(monitor)
            print("\n== prometheus exposition ==")
            print(client.metrics()["prometheus"], end="")
            client.close()
    finally:
        monitor.shutdown()
    return 0


def cmd_cluster_demo(args: argparse.Namespace) -> int:
    """Run a sharded cluster, kill a shard, recover, print merged stats."""
    from repro.cluster import ClusterClient, ClusterConfig, ClusterMonitor
    from repro.lustre import LustreFilesystem
    from repro.lustre.mds import DnePolicy
    from repro.runtime import ServiceCrash
    from repro.util.clock import ManualClock

    fs = LustreFilesystem(
        num_mds=args.num_mds,
        mdts_per_mds=2,
        dne_policy=DnePolicy.ROUND_ROBIN,
        clock=ManualClock(),
    )
    from repro.core.aggregator import AggregatorConfig

    cluster = ClusterMonitor(
        fs,
        ClusterConfig(
            num_shards=args.shards,
            transport=args.transport,
            aggregator=AggregatorConfig(store_url=args.store_url),
            telemetry_port=args.telemetry_port,
        ),
    )
    delivered = []
    cluster.subscribe(lambda _seq, event: delivered.append(event))
    try:
        print(
            f"== cluster: {args.shards} shard(s), {args.num_mds} MDS, "
            f"map v{cluster.router.version} =="
        )
        if cluster.telemetry is not None:
            # This demo steps the pipeline deterministically (no
            # supervisor), so the scrape server's worker needs an
            # explicit start to answer HTTP during the run.
            cluster.telemetry.server.start()
            print(f"telemetry: {cluster.telemetry.url}/metrics")
        for index in range(args.events):
            fs.makedirs(f"/demo/d{index % 8}")
            fs.create(f"/demo/d{index % 8}/f{index}")
        cluster.drain()
        print(f"generated+delivered: {len(delivered)} events")

        # Kill the shard that owns the directory we keep writing to,
        # so the crash provably hits the in-flight batch.
        target_mdt = next(
            event.mdt_index
            for event in delivered
            if event.path and event.path.startswith("/demo/d0/")
        )
        victim = cluster.shard_of(target_mdt)
        print(f"\n== killing {victim} mid-batch ==")
        cluster.crash_shard(victim)
        for index in range(args.events, args.events + 10):
            fs.create(f"/demo/d0/f{index}")
        try:
            cluster.drain()
        except ServiceCrash as crash:
            print(f"shard crashed: {crash}")
        recovered_before = len(delivered)
        cluster.drain()  # requeued batches replay after the restart
        print(
            f"recovered: +{len(delivered) - recovered_before} events "
            "replayed, none lost"
        )
        unique = len({event.path for event in delivered})
        print(f"delivered {len(delivered)} events, {unique} unique paths")

        print("\n== merged cluster stats ==")
        client = ClusterClient.for_cluster(cluster)
        answer = client.stats()
        totals = answer["totals"]
        for metric in (
            "events_stored", "events_published", "batches_received",
            "api_requests",
        ):
            if metric in totals:
                print(f"{metric:24s} {totals[metric]}")
        print("\n== per-shard ==")
        stats = cluster.stats()
        for shard_id, record in stats.per_shard.items():
            print(
                f"{shard_id:8s} stored={record['events_stored']:6d} "
                f"published={record['events_published']:6d} "
                f"restarts={record['restart_count']}"
            )
        client.close()
        if cluster.telemetry is not None:
            import urllib.request

            with urllib.request.urlopen(
                f"{cluster.telemetry.url}/metrics"
            ) as response:
                exposition = response.read().decode("utf-8")
            shard_lines = [
                line for line in exposition.splitlines()
                if "scope=" in line and not line.startswith("#")
            ]
            print(f"\n== scraped {cluster.telemetry.url}/metrics "
                  f"({len(exposition.splitlines())} lines) ==")
            for line in shard_lines[:10]:
                print(line)
    finally:
        cluster.shutdown()
    return 0


def cmd_telemetry_demo(args: argparse.Namespace) -> int:
    """Exercise the telemetry plane: scrape, induce an alert, resolve it."""
    import json
    import time
    import urllib.request

    from repro.cluster import ClusterConfig, ClusterMonitor
    from repro.lustre import LustreFilesystem
    from repro.telemetry import TelemetryConfig

    fs = LustreFilesystem(num_mds=args.num_mds)
    fs.makedirs("/demo/data")
    cluster = ClusterMonitor(
        fs,
        ClusterConfig(
            num_shards=args.shards,
            transport=args.transport,
            telemetry=TelemetryConfig(
                port=args.port,
                # Fires while events flow, resolves when the load stops.
                rules=("demo-ingest: rate(*.events_stored) > 0",),
                eval_interval=0.1,
                flight_interval=0.1,
            ),
        ),
    )
    cluster.subscribe(lambda _seq, _event: None, name="demo")
    url = cluster.telemetry.url

    def fetch(path):
        with urllib.request.urlopen(url + path, timeout=5.0) as response:
            body = response.read().decode("utf-8")
        if path == "/metrics":
            return body
        return json.loads(body)

    def demo_states():
        return {
            inst["state"]
            for inst in fetch("/alerts")["instances"]
            if inst["rule"] == "demo-ingest"
        }

    cluster.start()
    try:
        print(f"== telemetry plane at {url} ==")
        print("routes: /metrics /health /alerts /flight")

        print("\n== inducing the demo-ingest alert (sustained load) ==")
        deadline = time.monotonic() + 20.0
        index = 0
        while time.monotonic() < deadline and "firing" not in demo_states():
            for _ in range(20):
                fs.create(f"/demo/data/f{index}")
                index += 1
            time.sleep(0.05)
        states = demo_states()
        print(f"alert states under load: {sorted(states) or ['(none)']}")

        print("\n== load stopped; waiting for resolution ==")
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and "resolved" not in demo_states():
            time.sleep(0.1)
        print(f"alert states after: {sorted(demo_states()) or ['(none)']}")

        print("\n== scrape ==")
        exposition = fetch("/metrics")
        interesting = [
            line for line in exposition.splitlines()
            if line.startswith("repro_alerts_firing")
            or ("events_stored" in line and not line.startswith("#"))
        ]
        print(f"{len(exposition.splitlines())} lines; highlights:")
        for line in interesting[:8]:
            print(f"  {line}")

        health = fetch("/health")
        print(f"\nhealth: state={health['state']} "
              f"services={len(health['services'])} "
              f"degraded={health['degraded']}")

        history = fetch("/alerts")["history"]
        print(f"alert history: {len(history)} transition(s)")
        for record in history[-4:]:
            print(f"  {record['rule']}: {record['from']} -> {record['state']}")

        flight = fetch("/flight")
        print(f"flight recorder: {flight['depth']} frame(s) buffered, "
              f"{len(flight['dumps'])} dump(s)")
        for path in flight["dumps"][:3]:
            print(f"  {path}")
    finally:
        cluster.shutdown()
    return 0


def cmd_gateway_demo(args: argparse.Namespace) -> int:
    """Run a cluster behind the gateway: auth, backfill, live fan-out."""
    import time

    from repro.cluster import ClusterConfig, ClusterMonitor
    from repro.gateway import GatewayClient, attach_gateway
    from repro.lustre import LustreFilesystem

    fs = LustreFilesystem(num_mds=args.num_mds)
    fs.makedirs("/proj/alice")
    fs.makedirs("/proj/bob")
    cluster = ClusterMonitor(
        fs,
        ClusterConfig(num_shards=args.shards, transport=args.transport),
    )
    gateway = attach_gateway(cluster)
    alice = gateway.auth.issue_key("alice")
    bob = gateway.auth.issue_key("bob")
    cluster.start()
    lost = 0
    try:
        print(
            f"== gateway at {gateway.url} "
            f"in front of {args.shards} shard(s) =="
        )
        api = GatewayClient(gateway.host, gateway.port)

        # Historic backfill: events that land before anyone connects.
        for index in range(args.events):
            fs.create(f"/proj/alice/pre{index}.dat")
        cluster.drain()
        token = api.auth(alice.key)["token"]
        backfill = api.events_all(
            token, prefix="/proj/alice", types="created", limit=32
        )
        print(
            f"tenant alice authenticated; cursor-paged backfill "
            f"returned {len(backfill)} created events"
        )
        status, _payload = api.request("GET", "/v1/events", token="bogus")
        print(f"bogus token -> HTTP {status}")

        # Live fan-out: N sockets on alice's subtree, one on bob's.
        streams = [
            api.stream(token, prefix="/proj/alice", types="created")
            for _ in range(args.clients)
        ]
        bob_stream = api.stream(api.auth(bob.key)["token"], prefix="/proj/bob")
        for index in range(args.events):
            fs.create(f"/proj/alice/live{index}.dat")
        cluster.drain()
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            for stream in streams:
                stream.pump(0.01)
            bob_stream.pump(0.0)
            if all(len(s.received) >= args.events for s in streams):
                break
        counts = [len(stream.received) for stream in streams]
        lost = sum(max(0, args.events - count) for count in counts)
        print(
            f"live fan-out: {args.clients} subscriber(s) x "
            f"{args.events} events; received min={min(counts)} "
            f"max={max(counts)}, lost={lost}"
        )
        crossed = len(bob_stream.received)
        print(
            f"bob's stream (other subtree): {crossed} events "
            "(push-down keeps it at 0)"
        )
        lost += crossed

        stats = api.stats(token)
        snapshot = stats["gateway"]
        print("\n== gateway counters ==")
        for metric in (
            "requests", "auth_ok", "auth_failures", "pages_served",
            "events_scanned", "events_returned", "stream_published",
            "stream_delivered", "stream_shed",
        ):
            if metric in snapshot:
                print(f"{metric:20s} {snapshot[metric]}")
        for stream in streams:
            stream.close()
        bob_stream.close()
    finally:
        cluster.shutdown()
    if lost:
        print(f"EVENT LOSS: {lost} event(s) missing or misrouted",
              file=sys.stderr)
        return 1
    return 0


def cmd_store_demo(args: argparse.Namespace) -> int:
    """Demonstrate the durable segment-log store: ingest, crash, recover."""
    import shutil
    import tempfile
    import time

    from repro.core.events import EventType, FileEvent
    from repro.core.storage import open_store

    directory = args.dir or tempfile.mkdtemp(prefix="repro-store-")
    url = (
        f"segments://{directory}?segment_bytes={args.segment_bytes}"
        f"&fsync={args.fsync}"
    )
    print(f"== segment-log store at {url} ==")
    store = open_store(url, max_events=args.window)
    base = time.time()
    events = [
        FileEvent(
            EventType.CREATED, f"/demo/f{index}", False, base + index,
            name=f"f{index}", source="store-demo",
        )
        for index in range(args.events)
    ]
    for start in range(0, len(events), 100):
        store.extend(events[start:start + 100])
    stats = store.backend.stats()
    print(
        f"ingested {store.total_stored} events "
        f"(window {len(store)}, rotated {store.total_rotated})"
    )
    print(
        f"log: {stats['segments']} segment(s), {stats['log_bytes']} bytes, "
        f"{stats['fsyncs']} fsyncs, {stats['rotations']} rotations, "
        f"{stats['compacted_segments']} compacted"
    )

    # Simulated crash: walk away without close() — no flush, no fsync
    # beyond policy.  The next open replays the log.
    print("\n== simulated crash (no clean shutdown) ==")
    del store
    recovered = open_store(url, max_events=args.window)
    print(
        f"recovered: last_seq={recovered.last_seq} "
        f"window={len(recovered)} total_stored={recovered.total_stored}"
    )
    tail = recovered.recent(3)
    for seq, event in tail:
        print(f"  seq {seq}: {event.event_type.value} {event.path}")
    recovered.close()
    if args.dir is None:
        shutil.rmtree(directory, ignore_errors=True)
    else:
        print(f"\nlog kept at {directory}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SDCI / scalable Lustre monitor reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser(
        "experiments", help="run the paper's tables/figures"
    )
    experiments_sub = experiments.add_subparsers(dest="action", required=True)
    experiments_sub.add_parser("list", help="list available experiments")
    run = experiments_sub.add_parser("run", help="run one experiment (or all)")
    run.add_argument("name", help="experiment name or 'all'")
    run.add_argument("--duration", type=float, default=30.0,
                     help="virtual seconds for model runs")
    experiments.set_defaults(func=cmd_experiments)

    throughput = subparsers.add_parser(
        "throughput", help="run the throughput model with custom knobs"
    )
    throughput.add_argument("--testbed", default="iota",
                            help="aws or iota")
    throughput.add_argument("--duration", type=float, default=30.0)
    throughput.add_argument("--batch-size", type=int, default=1)
    throughput.add_argument("--cache-size", type=int, default=0)
    throughput.add_argument("--num-mds", type=int, default=1)
    throughput.add_argument("--transport", default="pushpull",
                            choices=("pushpull", "pubsub", "reqrep"))
    throughput.set_defaults(func=cmd_throughput)

    figure3 = subparsers.add_parser(
        "figure3", help="NERSC dump differencing + scaling analysis"
    )
    figure3.add_argument("--days", type=int, default=36)
    figure3.add_argument("--base-files", type=int, default=850_000)
    figure3.add_argument("--seed", type=int, default=7)
    figure3.set_defaults(func=cmd_figure3)

    trace = subparsers.add_parser(
        "trace", help="generate or replay operation traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_action", required=True)
    generate = trace_sub.add_parser("generate", help="write a synthetic trace")
    generate.add_argument("--ops", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--directories", type=int, default=8)
    generate.add_argument("-o", "--output", required=True)
    replay = trace_sub.add_parser("replay", help="replay a trace on a fresh fs")
    replay.add_argument("path")
    replay.add_argument("--num-mds", type=int, default=1)
    trace.set_defaults(func=cmd_trace)

    rules = subparsers.add_parser(
        "rules", help="validate a WHEN/THEN rules file"
    )
    rules.add_argument("path", help="rules file to validate")
    rules.set_defaults(func=cmd_rules)

    demo = subparsers.add_parser(
        "changelog-demo", help="dump a sample ChangeLog (Table 1 style)"
    )
    demo.add_argument("--num-mds", type=int, default=1)
    demo.set_defaults(func=cmd_changelog_demo)

    health = subparsers.add_parser(
        "health-demo",
        help="run a live supervised monitor and print its health tree",
    )
    health.add_argument("--num-mds", type=int, default=2)
    health.add_argument("--events", type=int, default=50)
    health.set_defaults(func=cmd_health_demo)

    metrics = subparsers.add_parser(
        "metrics-demo",
        help="run the sim pipeline and print per-stage latency percentiles",
    )
    metrics.add_argument("--num-mds", type=int, default=1)
    metrics.add_argument("--events", type=int, default=500)
    metrics.add_argument("--batch", type=int, default=64,
                         help="pump the pipeline every N creates (0 = once)")
    metrics.add_argument("--sample-rate", type=float, default=1.0,
                         help="tracing sample rate (0 disables tracing)")
    metrics.add_argument("--prometheus", action="store_true",
                         help="also dump the Prometheus exposition")
    metrics.set_defaults(func=cmd_metrics_demo)

    cluster = subparsers.add_parser(
        "cluster-demo",
        help="run a sharded aggregation cluster, kill a shard, recover, "
        "and print merged stats",
    )
    cluster.add_argument("--shards", type=int, default=3)
    cluster.add_argument(
        "--transport", choices=("inproc", "multiproc"), default="inproc",
        help="shard backend: in-process aggregators or one child "
        "process per shard",
    )
    cluster.add_argument("--num-mds", type=int, default=2)
    cluster.add_argument("--events", type=int, default=120)
    cluster.add_argument(
        "--store-url", default="memory://",
        help="shard store durability: memory:// (volatile) or "
        "segments:///path (per-shard append-only logs)",
    )
    cluster.add_argument(
        "--telemetry-port", type=int, default=None,
        help="serve /metrics, /health and /alerts over HTTP on this "
        "port (0 = ephemeral); omit to leave the telemetry plane off",
    )
    cluster.set_defaults(func=cmd_cluster_demo)

    telemetry = subparsers.add_parser(
        "telemetry-demo",
        help="run a cluster with the telemetry plane, scrape /metrics "
        "over HTTP, and induce + resolve an alert",
    )
    telemetry.add_argument("--shards", type=int, default=2)
    telemetry.add_argument("--num-mds", type=int, default=2)
    telemetry.add_argument(
        "--transport", choices=("inproc", "multiproc"), default="inproc",
        help="multiproc also exercises the child->parent metrics relay",
    )
    telemetry.add_argument("--port", type=int, default=0,
                           help="HTTP port (0 = ephemeral)")
    telemetry.set_defaults(func=cmd_telemetry_demo)

    gateway = subparsers.add_parser(
        "gateway-demo",
        help="run a cluster behind the HTTP/WS gateway: authenticate, "
        "page the backfill, and fan events out to live subscribers",
    )
    gateway.add_argument("--shards", type=int, default=2)
    gateway.add_argument("--num-mds", type=int, default=2)
    gateway.add_argument(
        "--transport", choices=("inproc", "multiproc"), default="inproc"
    )
    gateway.add_argument("--clients", type=int, default=10,
                         help="live WebSocket subscribers to open")
    gateway.add_argument("--events", type=int, default=100,
                         help="events per phase (backfill and live)")
    gateway.set_defaults(func=cmd_gateway_demo)

    store = subparsers.add_parser(
        "store-demo",
        help="ingest into a durable segment-log store, simulate a crash, "
        "and recover the history from the log",
    )
    store.add_argument("--events", type=int, default=5000)
    store.add_argument("--window", type=int, default=2000)
    store.add_argument("--segment-bytes", type=int, default=65536)
    store.add_argument(
        "--fsync", choices=("never", "rotate", "always"), default="rotate"
    )
    store.add_argument(
        "--dir", default=None,
        help="log directory (default: a temp dir, removed afterwards)",
    )
    store.set_defaults(func=cmd_store_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
