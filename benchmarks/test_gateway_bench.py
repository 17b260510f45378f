"""Gateway service-tier overhead: REST requests, fan-out, push-down.

Three arms price the new HTTP/WebSocket front door on a live
multi-shard cluster:

* ``rest`` — end-to-end authenticated request rate against
  ``GET /v1/stats`` (TCP connect + HTTP parse + auth + quota bucket +
  JSON render per call, the gateway's per-request floor);
* ``fanout`` — live WebSocket delivery rate: ``GATEWAY_BENCH_CLIENTS``
  subscribers on one subtree while batches flow through the hub's
  serialise-once path (events × clients deliveries per second);
* ``pushdown`` — the server-side filter value: a selective
  ``/v1/events`` sweep reports how many raw events the RuleIndex
  pruned before serialisation (the fraction a client-side filter
  would have shipped and thrown away).

The numbers are *counter-asserted* against the gateway's own metric
scope: the rest arm's request count, the fanout arm's exact
``stream_delivered`` delta (and zero shed), and the pushdown arm's
``events_scanned``/``events_returned`` deltas must all match what the
driver observed.  CI shrinks the shape via ``GATEWAY_BENCH_*``.

Results land in ``benchmarks/results/BENCH_gateway.json``.
"""

import json
import os
import pathlib
import time

from repro.cluster import ClusterConfig, ClusterMonitor
from repro.core.events import EventType, FileEvent
from repro.gateway import GatewayClient, Quota, attach_gateway
from repro.lustre import LustreFilesystem

N_REST = int(os.environ.get("GATEWAY_BENCH_REST", "150"))
N_CLIENTS = int(os.environ.get("GATEWAY_BENCH_CLIENTS", "20"))
N_EVENTS = int(os.environ.get("GATEWAY_BENCH_EVENTS", "1000"))

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def bench_rest(gateway, api, token, iters):
    gateway.metrics.value("requests")  # touch before the baseline read
    baseline = gateway.metrics.value("requests")
    started = time.perf_counter()
    for _ in range(iters):
        status, _payload = api.request("GET", "/v1/stats", token=token)
        assert status == 200
    elapsed = time.perf_counter() - started
    handled = gateway.metrics.value("requests") - baseline
    assert handled == iters, (handled, iters)
    return {
        "scenario": "rest",
        "iterations": iters,
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(iters / elapsed, 1),
    }


def bench_fanout(gateway, api, token, clients, events):
    streams = [
        api.stream(token, prefix="/bench/hot") for _ in range(clients)
    ]
    base = time.time()
    entries = [
        (
            seq,
            FileEvent(
                EventType.CREATED, f"/bench/hot/f{seq}", False, base + seq,
                name=f"f{seq}", source="bench",
            ),
        )
        for seq in range(1, events + 1)
    ]
    delivered_before = gateway.metrics.value("stream_delivered")
    shed_before = gateway.metrics.value("stream_shed")
    try:
        started = time.perf_counter()
        for start in range(0, events, 100):
            gateway.hub.publish_entries(
                entries[start:start + 100], source="bench"
            )

        def drained():
            for stream in streams:
                stream.pump(0.0)
            return all(len(s.received) >= events for s in streams)

        assert wait_until(drained)
        elapsed = time.perf_counter() - started
    finally:
        for stream in streams:
            stream.close()
    deliveries = events * clients
    delivered = gateway.metrics.value("stream_delivered") - delivered_before
    assert delivered == deliveries, (delivered, deliveries)
    assert gateway.metrics.value("stream_shed") == shed_before
    return {
        "scenario": "fanout",
        "clients": clients,
        "events": events,
        "elapsed_s": round(elapsed, 4),
        "deliveries_per_s": round(deliveries / elapsed, 1),
    }


def bench_pushdown(fs, cluster, gateway, api, token, events):
    # 1 matching event per 10: the selective-subscription shape where
    # server-side pruning pays.
    expected = 0
    for index in range(events):
        if index % 10 == 0:
            fs.create(f"/bench/signal/s{index}.h5")
            expected += 1
        else:
            fs.create(f"/bench/noise/n{index}.log")
    assert wait_until(
        lambda: api.events(token, prefix="/bench/signal")["scanned"] > 0
        and len(api.events_all(token, prefix="/bench/signal", limit=512))
        >= expected
    )
    scanned_before = gateway.metrics.value("events_scanned")
    returned_before = gateway.metrics.value("events_returned")
    hits_before = gateway.metrics.value("filter_cache_hits")
    misses_before = gateway.metrics.value("filter_cache_misses")
    # A multi-page cursor sweep is the shape where the filter cache
    # pays (identical params re-sent every page), so the page size is
    # derived from the match count: at most 32, and never more than
    # half the matches, so every bench size sweeps at least 2 pages.
    page_size = max(1, min(32, expected // 2))
    started = time.perf_counter()
    matching, cursor, pages = [], None, 0
    while True:
        page = api.events(
            token, prefix="/bench/signal", types="created",
            limit=page_size, cursor=cursor,
        )
        pages += 1
        matching.extend(page["events"])
        cursor = page["cursor"]
        if page["exhausted"]:
            break
    elapsed = time.perf_counter() - started
    scanned = gateway.metrics.value("events_scanned") - scanned_before
    returned = gateway.metrics.value("events_returned") - returned_before
    cache_hits = gateway.metrics.value("filter_cache_hits") - hits_before
    cache_misses = (
        gateway.metrics.value("filter_cache_misses") - misses_before
    )
    assert returned == len(matching) == expected, (returned, expected)
    assert pages >= 2, (pages, page_size, expected)
    assert scanned >= events  # the sweep walked the whole retained window
    # Every page of the sweep reuses ONE compiled filter index: at most
    # one miss for this query shape, everything else a cache hit.
    assert cache_hits >= 1, (cache_hits, cache_misses)
    assert cache_misses <= 1, (cache_hits, cache_misses)
    pruned_fraction = 1.0 - returned / scanned
    return {
        "scenario": "pushdown",
        "page_size": page_size,
        "pages": pages,
        "events_scanned": scanned,
        "events_returned": returned,
        "pruned_fraction": round(pruned_fraction, 4),
        "filter_cache_hits": cache_hits,
        "filter_cache_misses": cache_misses,
        "elapsed_s": round(elapsed, 4),
        "scan_events_per_s": round(scanned / elapsed, 1),
    }


class TestGatewayOverhead:
    def test_overhead_table(self, report):
        fs = LustreFilesystem(num_mds=2)
        for sub in ("hot", "signal", "noise"):
            fs.makedirs(f"/bench/{sub}")
        cluster = ClusterMonitor(fs, ClusterConfig(num_shards=2))
        gateway = attach_gateway(cluster)
        key = gateway.auth.issue_key(
            "bench",
            quota=Quota(
                requests_per_sec=1e9, request_burst=1e9,
                max_page_size=512, max_streams=max(N_CLIENTS, 64),
            ),
        )
        cluster.start()
        try:
            api = GatewayClient(gateway.host, gateway.port, timeout=30.0)
            token = api.auth(key.key)["token"]
            scenarios = [
                bench_rest(gateway, api, token, N_REST),
                bench_fanout(gateway, api, token, N_CLIENTS, N_EVENTS),
                bench_pushdown(fs, cluster, gateway, api, token, N_EVENTS),
            ]
        finally:
            cluster.shutdown()

        lines = [f"{'scenario':<10} {'shape':>22} {'elapsed s':>10} {'rate':>14}"]
        shapes = {
            "rest": lambda r: f"{r['iterations']} reqs",
            "fanout": lambda r: f"{r['clients']}c x {r['events']}ev",
            "pushdown": lambda r: (
                f"{r['events_returned']}/{r['events_scanned']} kept"
            ),
        }
        rates = {
            "rest": "requests_per_s",
            "fanout": "deliveries_per_s",
            "pushdown": "scan_events_per_s",
        }
        for row in scenarios:
            lines.append(
                f"{row['scenario']:<10} {shapes[row['scenario']](row):>22} "
                f"{row['elapsed_s']:>10.4f} "
                f"{row[rates[row['scenario']]]:>14.1f}"
            )
        pushdown = next(r for r in scenarios if r["scenario"] == "pushdown")
        lines.append(
            f"push-down pruned fraction: {pushdown['pruned_fraction']:.2%}"
        )
        lines.append(
            "filter cache across the paged sweep: "
            f"{pushdown['filter_cache_hits']} hits / "
            f"{pushdown['filter_cache_misses']} misses"
        )
        table = "\n".join(lines)
        report.add("service tier - gateway overhead", table)

        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / "BENCH_gateway.json").write_text(
            json.dumps(
                {
                    "rest_iterations": N_REST,
                    "fanout_clients": N_CLIENTS,
                    "events": N_EVENTS,
                    "scenarios": scenarios,
                },
                indent=2,
            )
            + "\n"
        )
