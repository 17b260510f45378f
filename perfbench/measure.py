"""One benchmark run: set-ups, the measured window, oracle and metrics.

End-to-end metrics (``--trace 0``), all timed with ``perf_counter``:

* ``setup_s`` — median over the run's set-ups of the time from building
  the filesystem to the first probe event having reached the
  subscriber, the WebSocket stream and the Ripple action.
* ``deliver_p50_ms`` — op due time to the ``cluster.subscribe`` callback.
* ``action_p50_ms`` — op due time to the Ripple ``callable`` action
  running.
* ``peak_rss_mb`` — the process's peak resident set plus the largest
  reaped child's.

Each ``_p50_ms`` is the median of per-slice medians (:func:`sliced_p50`).

Printed by every run but reported among the per-layer metrics
(``--trace 1``, from its untraced pass), because they do not repeat
within a bound on a shared host (see ``UNBOUNDED_UNITS``):

* ``ws_p50_ms`` — op due time to the ``/v1/stream`` frame read by the
  client;
* ``rest_p50_ms`` — round trip of the prober's ``GET /v1/events`` and
  ``GET /v1/stats`` requests;
* the 99th percentiles of the four latencies;
* ``ingest_eps`` — events delivered to the subscriber per second, first
  op to last delivery (open loop), or the median over bursts (flood);
* ``cpu_us_per_event`` — process CPU over the measured window (minus
  the oracle's own bookkeeping) plus the CPU of the shard children
  reaped at teardown, per generated op (flood: parent CPU during the
  bursts plus the children's, per burst op).

``failed``/``attempted`` carry the oracle's counts.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

from harness import System, check_hygiene, stop_resource_tracker
from loadgen import GaugeSampler, RestProber, run_bursts, run_open_loop, wait_idle
from oracle import Tally, check_run, wait_complete

#: The bounded end-to-end metrics (``--trace 0``), with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "deliver_p50_ms": "ms",
    "action_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: End-to-end numbers that do not repeat within a bound on a shared
#: host: printed by every run, but reported (from the untraced pass)
#: among the per-layer metrics (see README.md).  A REST round trip is a
#: chain of request/reply hops (to each shard in turn, across the process
#: bridge in flood), each waiting for an idle worker to wake, so it
#: stretches with every stall of the host.  A stream frame passes the
#: hub's own consumer, the gateway's event loop and the reading thread,
#: and its median moved half again as much as the delivery median
#: between runs of flood.  A 99th percentile over one run's samples rests
#: on a handful of rare stalls.  The burst ingest rate of the
#: multiprocess pipeline follows whatever share of the host its three
#: busy processes get, and CPU per op moves with the host's load too.
UNBOUNDED_UNITS = {
    "ws_p50_ms": "ms",
    "rest_p50_ms": "ms",
    "ingest_eps": "1/s",
    "cpu_us_per_event": "us",
    "deliver_p99_ms": "ms",
    "ws_p99_ms": "ms",
    "action_p99_ms": "ms",
    "rest_p99_ms": "ms",
}


@dataclass
class Report:
    lines: list = field(default_factory=list)
    result: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


#: A latency median is taken per slice of the measured phase (by due
#: time, or request start for REST) and the metric is the median of the
#: slices' medians: a stall from outside that hits one slice moves it
#: little.
SLICES = 10


def sliced_p50(samples) -> float:
    """Median over :data:`SLICES` time slices of each slice's median;
    *samples* are ``(time, value)`` pairs."""
    first = min(t for t, _value in samples)
    span = max(t for t, _value in samples) - first or 1.0
    slices: list = [[] for _ in range(SLICES)]
    for t, value in samples:
        slices[min(int((t - first) / span * SLICES), SLICES - 1)].append(value)
    return statistics.median(percentile(s, 50) for s in slices if s)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of *values* (0 <= q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fingerprint() -> dict:
    """Host and code identity for the report header."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as handle:
                ref = handle.read().strip()
        commit = ref[:12]
    except OSError:
        digest = hashlib.sha1()
        for base, _dirs, files in sorted(os.walk(os.path.join(root, "src"))):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(base, name), "rb") as handle:
                        digest.update(handle.read())
        commit = "src-" + digest.hexdigest()[:12]
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


# -- one measured window ----------------------------------------------------


def _measure(system: System, seed: int, seconds: float, deadline: float, tracer):
    """Drive the workload against a built system; returns raw samples.

    Open-loop workloads run the prober throughout and every metric
    covers every op.  Flood first runs a quiet open loop with the prober
    running (every latency comes from it), then a fixed number of
    unthrottled bursts (ingest rate and CPU come from them): within a
    burst, latency is queueing behind the burst itself and moves with
    the generator's share of the interpreter lock; stream, action and
    REST latency are further set by lock starvation and head-of-line
    blocking at the process bridge.  None of these repeat run to run.
    """
    w = system.workload
    rng = random.Random(seed)
    plan = w.plan(rng)
    sampler = GaugeSampler(system) if tracer is not None else None
    before = _layer_counters(system)
    install_ms = 0.0
    if tracer is not None:
        install_ms = tracer.total("RippleService.add_rule").wall_ns / 1e6
        tracer.reset()
    prober = RestProber(system, random.Random(f"prober-{seed}"))
    n_setup = len(system.deliveries)
    window_cpu0 = time.process_time()
    started = time.perf_counter()
    rates, late = [], []
    try:
        if w.rate is not None:
            prober.start()
            ops, late = run_open_loop(system, plan, w.rate, seconds, deadline, sampler)
            main_ops = front_ops = ops
        else:
            prober.start()
            front_ops, late = run_open_loop(
                system, w.quiet_plan(rng), w.quiet_rate, seconds / 2, deadline,
                sampler,
            )
            prober.stop()
            wait_idle(system, deadline)
            burst_cpu0 = time.process_time()
            bursts = max(1, round(w.burst_ops_per_second * seconds / w.burst_ops))
            main_ops, rates = run_bursts(
                system, plan, w.burst_ops, bursts, deadline, sampler
            )
            burst_cpu = time.process_time() - burst_cpu0
            ops = front_ops + main_ops
        complete, bookkeeping = wait_complete(
            system, n_setup + len(ops),
            min(deadline, time.perf_counter() + 60.0), sampler,
        )
    finally:
        prober.stop()
    window = time.perf_counter() - started
    window_cpu = time.process_time() - window_cpu0 - bookkeeping
    cpu = window_cpu if w.rate is not None else burst_cpu
    layers = None
    if tracer is not None:
        layers = _layer_metrics(
            tracer, system, sampler, before, window, window_cpu, install_ms
        )
    generated = [p.key for p in system.probes] + [op.key for op, _due in ops]
    tally = check_run(system, generated, prober.samples)
    tally.check(0, int(not complete), "incomplete-before-deadline")

    # Latencies cover the open loop (in flood: its quiet phase); the
    # burst ops only set ingest_eps and, below, a comment line.
    front_due = {op.key: t for op, t in front_ops}
    deliver, ws, action = [], [], []
    last_delivery = started
    for _shard, _seq, event, t in system.deliveries:
        key = (event.event_type.value, event.path)
        if key in front_due:
            deliver.append((front_due[key], t - front_due[key]))
            last_delivery = max(last_delivery, t)
    for message, t in system.frames:
        key = (message["event"]["event_type"], message["event"]["path"])
        if key in front_due:
            ws.append((front_due[key], t - front_due[key]))
    for _rule, key, t in system.actions:
        if key in front_due:
            action.append((front_due[key], t - front_due[key]))
    bursts = None
    if rates:
        ingest = statistics.median(rates)
        burst_due = {op.key: t for op, t in main_ops}
        in_burst = [
            t - burst_due[(e.event_type.value, e.path)]
            for _s, _q, e, t in system.deliveries
            if (e.event_type.value, e.path) in burst_due
        ]
        bursts = (
            f"# bursts: ops={len(main_ops)} ingest_eps={[round(r) for r in rates]} "
            f"deliver_p50_ms={percentile(in_burst, 50) * 1000:.6g} "
            f"deliver_p99_ms={percentile(in_burst, 99) * 1000:.6g}"
        )
    else:
        ingest = len(deliver) / (last_delivery - ops[0][1])
    return {
        "bursts": bursts,
        "ops": len(main_ops),
        "cpu": cpu,
        "tally": tally,
        "deliver": deliver,
        "ws": ws,
        "action": action,
        "rest": [(t, s) for _kind, _status, s, t in prober.samples],
        "ingest": ingest,
        "late": late,
        "layers": layers,
        "per_shard": _per_shard(system),
    }


def _per_shard(system) -> dict:
    counts: dict = {}
    for shard, _seq, _event, _t in system.deliveries:
        counts[shard] = counts.get(shard, 0) + 1
    return counts


# -- per-layer metrics ---------------------------------------------------------


def _layer_counters(system) -> dict:
    """Monotone counters read from outside, for window deltas."""
    gw = system.gateway.metrics
    counters = {
        "events_seen": system.agent.events_seen,
        "rules_evaluated": system.agent.rule_index.rules_evaluated,
        "stream_shed": gw.value("stream_shed"),
        "filter_cache_hits": gw.value("filter_cache_hits"),
        "filter_cache_misses": gw.value("filter_cache_misses"),
        "events_scanned": gw.value("events_scanned"),
        "events_returned": gw.value("events_returned"),
        "store_scanned": sum(
            shard.store.events_scanned for shard in system.cluster.shards.values()
        ),
        "cache_hits": 0,
        "cache_misses": 0,
    }
    for collector in system.cluster.collectors:
        cache = collector.processor.cache
        if cache is not None:
            counters["cache_hits"] += cache.hits
            counters["cache_misses"] += cache.misses
    return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(tracer, system, sampler, before, window, cpu, install_ms) -> dict:
    from tracer import CODEC_SPANS

    after = _layer_counters(system)
    delta = {name: after[name] - before[name] for name in after}

    def busy(name, parents=None) -> float:
        return tracer.total(name, parents).self_ns / 1e6

    def useful(name) -> float:
        stat = tracer.total(name)
        return _ratio(stat.useful, stat.calls)

    def per_useful(name) -> float:
        stat = tracer.total(name)
        return _ratio(stat.work, stat.useful)

    reads = tracer.total("EventStore.since").calls + tracer.total("EventStore.query").calls
    handles = system.cluster.shard_handles.values()
    for bridge in system.cluster.bridges.values():
        bridge.request_metrics()
    if system.cluster.bridges:
        time.sleep(0.3)  # let the child snapshots cross the relay
    per_shard = list(_per_shard(system).values())
    skew = _ratio(max(per_shard), statistics.mean(per_shard)) if per_shard else 0.0
    if len(per_shard) < len(system.cluster.shard_ids):
        skew = float(len(system.cluster.shard_ids))
    rules = len(system.agent.rules)
    return {
        "lustre.changelog_backlog_max": sampler.max["changelog_backlog"],
        "lustre.fid2path_busy_ms": busy("FidResolver.resolve_many") + busy("FidResolver.resolve"),
        "lustre.fid2path_cache_hit_ratio": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "collector.poll_busy_ms": busy("Collector.poll_once"),
        "collector.poll_useful_ratio": useful("Collector.poll_once"),
        "collector.events_per_poll": per_useful("Collector.poll_once"),
        "msgq.bridge_pump_busy_ms": busy("ProcessShardBridge.pump_once"),
        "msgq.bridge_useful_ratio": useful("ProcessShardBridge.pump_once"),
        "msgq.codec_busy_ms": sum(busy(name) for name in CODEC_SPANS),
        "msgq.inflight_batches_max": sampler.max["inflight_batches"],
        "aggregator.pump_busy_ms": busy("Aggregator.pump_once"),
        "aggregator.pump_useful_ratio": useful("Aggregator.pump_once"),
        "aggregator.api_busy_ms": busy("Aggregator.serve_api_once"),
        "store.extend_busy_ms": busy("EventStore.extend"),
        "store.read_busy_ms": busy("EventStore.since") + busy("EventStore.query"),
        "store.scanned_per_read": _ratio(delta["store_scanned"], reads),
        "store.backend_records_appended": sum(
            h.metrics.value("store_backend_records_appended") for h in handles
        ),
        "store.backend_fsyncs": sum(
            h.metrics.value("store_backend_fsyncs") for h in handles
        ),
        "consumer.poll_busy_ms": busy("Consumer.poll_once"),
        "consumer.poll_useful_ratio": useful("Consumer.poll_once"),
        "consumer.events_per_poll": per_useful("Consumer.poll_once"),
        "ripple.match_busy_ms": busy("RuleIndex.matching_batch", {"RippleAgent.ingest_batch"})
        + busy("RuleSet.matching", {"ServerlessExecutor.poll_once"}),
        "ripple.evaluated_fraction": _ratio(
            delta["rules_evaluated"], delta["events_seen"] * rules
        ),
        "ripple.execute_busy_ms": busy("RippleAgent.execute_pending"),
        "ripple.rule_install_ms": install_ms,
        "cloudq.executor_busy_ms": busy("ServerlessExecutor.poll_once"),
        "cloudq.executor_useful_ratio": useful("ServerlessExecutor.poll_once"),
        "cloudq.queue_depth_max": sampler.max["cloudq_depth"],
        "gateway.hub_publish_busy_ms": busy("StreamHub.publish_entries"),
        "gateway.hub_queue_depth_max": sampler.max["hub_depth"],
        "gateway.stream_shed": delta["stream_shed"],
        "gateway.filter_cache_hit_ratio": _ratio(
            delta["filter_cache_hits"],
            delta["filter_cache_hits"] + delta["filter_cache_misses"],
        ),
        "gateway.pushdown_kept_ratio": _ratio(
            delta["events_returned"], delta["events_scanned"]
        ),
        "cluster.client_page_busy_ms": busy("ClusterClient.page"),
        "cluster.client_stats_busy_ms": busy("ClusterClient.stats"),
        "cluster.shard_skew": skew,
        "runtime.idle_polls_per_s": tracer.idle_polls / window,
        "trace.unattributed_frac": 1.0 - _ratio(tracer.self_cpu_seconds(), cpu),
    }


LAYER_UNITS_BY_SUFFIX = (
    ("_ms", "ms"),
    ("_ratio", "ratio"),
    ("_frac", "ratio"),
    ("_fraction", "ratio"),
    ("_skew", "ratio"),
    ("_per_s", "1/s"),
)


def layer_unit(name: str) -> str:
    if name in UNBOUNDED_UNITS:
        return UNBOUNDED_UNITS[name]
    for suffix, unit in LAYER_UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


# -- passes and the run --------------------------------------------------------


def _pass(workload, seed, seconds, setups, tracer, scratch, deadline, report):
    """Set up *setups* times, measure the last build, tear each down."""
    setup_times = []
    data = None
    for index in range(setups):
        last = index == setups - 1
        children0 = _children_cpu()
        system = System(workload, scratch)
        try:
            setup_times.append(system.build(index, deadline))
            if last:
                data = _measure(system, seed, seconds, deadline, tracer)
        finally:
            report.problems += system.close()
            report.problems += check_hygiene(scratch)
        if last:
            data["cpu"] += _children_cpu() - children0
    data["setup"] = setup_times
    return data


def _e2e(data, children_rss0: int) -> dict:
    """*children_rss0* is the children's peak RSS before the run: Linux
    keeps it across ``exec``, so it holds whatever the launcher (a shell,
    a version-manager shim) reaped before it became this process, and
    only a larger value is a child of this run."""
    ms = 1000.0
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if usage_children <= children_rss0:
        usage_children = 0
    metrics = {"setup_s": statistics.median(data["setup"])}
    for name in ("deliver", "ws", "action", "rest"):
        metrics[f"{name}_p50_ms"] = sliced_p50(data[name]) * ms
        metrics[f"{name}_p99_ms"] = percentile([v for _t, v in data[name]], 99) * ms
    metrics["ingest_eps"] = data["ingest"]
    metrics["cpu_us_per_event"] = data["cpu"] / data["ops"] * 1e6
    metrics["peak_rss_mb"] = (usage_self + usage_children) / 1024.0
    return metrics


def run_workload(workload, seed, seconds, trace, out_dir, deadline) -> Report:
    report = Report()
    children_rss0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    host = fingerprint()
    report.lines.append(
        f"# perfbench workload={workload.name} seed={seed} seconds={seconds:g} "
        f"trace={int(trace)} cpus={host['cpus']} python={host['python']} "
        f"machine={host['machine']} commit={host['commit']}"
    )
    tally = Tally()
    try:
        base = _pass(workload, seed, seconds, 1 if trace else workload.setups, None,
                     scratch, deadline, report)
        tally.merge(base["tally"])
        e2e = _e2e(base, children_rss0)
        counts = (
            f"# samples: ops={base['ops']} deliver={len(base['deliver'])} "
            f"ws={len(base['ws'])} action={len(base['action'])} "
            f"rest={len(base['rest'])} per_shard={base['per_shard']} "
            f"setups_s={[round(t, 4) for t in base['setup']]}"
        )
        tails = {name: e2e.pop(name) for name in UNBOUNDED_UNITS}
        if base["bursts"]:
            counts += "\n" + base["bursts"]
        if not trace:
            report.lines.append(counts)
            for name, value in e2e.items():
                report.lines.append(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
            for name, value in tails.items():
                report.lines.append(
                    f"{name} {value:.6g} {UNBOUNDED_UNITS[name]}  # unbounded; per-layer"
                )
            metrics = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in e2e.items()
            }
        else:
            from tracer import SpanTracer

            spans = SpanTracer()
            spans.install()
            try:
                traced = _pass(workload, seed, seconds, 1, spans, scratch,
                               deadline, report)
            finally:
                spans.uninstall()
            tally.merge(traced["tally"])
            layers = {**traced["layers"], **tails}
            late = base["late"] or [0.0]
            layers["loadgen.late_p99_ms"] = percentile(late, 99) * 1000.0
            layers["loadgen.late_max_ms"] = max(late) * 1000.0
            untraced_cpu = base["cpu"] / base["ops"]
            traced_cpu = traced["cpu"] / traced["ops"]
            layers["trace.overhead_frac"] = traced_cpu / untraced_cpu - 1.0
            report.lines.append(counts)
            for name, value in sorted(layers.items()):
                report.lines.append(f"{name} {value:.6g} {layer_unit(name)}")
            report.lines.append(
                "# untraced pass: "
                + " ".join(f"{name}={value:.6g}" for name, value in e2e.items())
            )
            metrics = {
                name: {"value": value, "unit": layer_unit(name)}
                for name, value in sorted(layers.items())
            }
            spans.dump(
                os.path.join(out_dir, f"trace-{workload.name}.jsonl"),
                {"workload": workload.name, "seed": seed, **host},
            )
    finally:
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.exists(scratch):
            report.problems.append(f"scratch directory {scratch} not removed")
    if tally.reasons:
        report.lines.append(f"# oracle failures: {dict(tally.reasons)}")
    report.lines.append(
        f"# failed_frac {tally.failed / max(tally.attempted, 1):.6g} "
        f"({tally.failed}/{tally.attempted})"
    )
    report.result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return report
