"""Correctness oracle: every check counts into ``attempted``/``failed``.

* Every generated op (probes included) reaches the subscriber exactly
  once per ``(shard, seq)``, and the set of delivered event keys equals
  the set generated.
* The WebSocket stream gets exactly the delivered events its filter
  selects (the filter's linear ``matches``).
* Actions run exactly once per (event, rule) that
  ``RuleSet.matching_linear`` says matches.
* A final ``/v1/events`` sweep equals a linear filter over every stored
  event, paged straight from the cluster.
* ``ClusterMonitor.stats()`` totals cover every generated op.
* Every REST probe answered 200.
"""

from __future__ import annotations

import time
from collections import Counter


class Tally:
    """Attempts and failures, with a reason per failure kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def check(self, attempts: int, failures: int, reason: str) -> None:
        self.attempted += attempts
        if failures:
            self.failed += failures
            self.reasons[reason] += failures

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)


def _multiset_gap(expected: Counter, got: Counter) -> int:
    return sum((expected - got).values()) + sum((got - expected).values())


def expected_action_count(system) -> int:
    """Actions the compiled index predicts (used to know when to stop
    waiting; the oracle itself uses the linear sweep)."""
    rules = system.service.rules
    return sum(
        len(rules.matching("lustre", event))
        for _shard, _seq, event, _t in system.deliveries
    )


def wait_complete(system, n_keys: int, deadline: float, sampler=None):
    """Wait until the subscriber, stream and actions are all caught up.

    Returns ``(complete, cpu)``: whether everything arrived before
    *deadline*, and the thread CPU spent computing what to wait for (the
    caller keeps it out of the measured CPU).
    """

    def pump_until(done) -> bool:
        while not done():
            if time.perf_counter() > deadline:
                return False
            system.pump_stream(0.002)
            if sampler is not None:
                sampler.maybe()
        return True

    if not pump_until(lambda: len(system.deliveries) >= n_keys):
        return False, 0.0
    cpu0 = time.thread_time()
    frames = sum(
        1 for _s, _q, event, _t in system.deliveries
        if system.ws_filter.matches(event)
    )
    actions = expected_action_count(system)
    cpu = time.thread_time() - cpu0
    complete = pump_until(
        lambda: len(system.frames) >= frames and len(system.actions) >= actions
    )
    return complete, cpu


def check_run(system, generated_keys: list, rest_samples: list) -> Tally:
    """Run every check against one measured system (still running)."""
    tally = Tally()

    # Subscriber: exactly once per (shard, seq), same key set as generated.
    expected = Counter(generated_keys)
    got = Counter(
        (event.event_type.value, event.path)
        for _shard, _seq, event, _t in system.deliveries
    )
    seqs = Counter((shard, seq) for shard, seq, _e, _t in system.deliveries)
    dup_seqs = sum(n - 1 for n in seqs.values() if n > 1)
    tally.check(len(expected), _multiset_gap(expected, got), "subscriber")
    tally.check(0, dup_seqs, "subscriber-duplicate-seq")

    # Stream: exactly the delivered events its filter selects.
    ws_expected = Counter(
        (shard, seq)
        for shard, seq, event, _t in system.deliveries
        if system.ws_filter.matches(event)
    )
    ws_got = Counter((m["shard"], m["seq"]) for m, _t in system.frames)
    tally.check(sum(ws_expected.values()), _multiset_gap(ws_expected, ws_got), "stream")

    # Actions: once per (rule, event) the linear sweep says matches.
    rules = system.service.rules
    act_expected = Counter()
    for _shard, _seq, event, _t in system.deliveries:
        key = (event.event_type.value, event.path)
        for rule in rules.matching_linear("lustre", event):
            act_expected[(rule.rule_id, key)] += 1
    act_got = Counter((rule_id, key) for rule_id, key, _t in system.actions)
    tally.check(
        sum(act_expected.values()), _multiset_gap(act_expected, act_got), "actions"
    )

    # REST probes: every answer 200.
    tally.check(
        len(rest_samples),
        sum(1 for _k, status, _s, _t in rest_samples if status != 200),
        "rest-status",
    )

    # Final /v1/events sweep vs a linear filter over the stored events.
    from repro.cluster.client import ClusterClient

    swept = system.client.events_all(
        system.token, limit=512, **system.workload.rest_filter
    )
    swept_keys = Counter((item["shard"], item["seq"]) for item in swept)
    reference = ClusterClient.for_cluster(system.cluster, live=True, timeout=30.0)
    try:
        stored = Counter()
        cursor = None
        while True:
            page = reference.page(cursor, limit=2048)
            for shard, seq, event in page.entries:
                if system.rest_filter.matches(event):
                    stored[(shard, seq)] += 1
            cursor = page.cursor
            if page.exhausted:
                break
    finally:
        reference.close()
    tally.check(sum(stored.values()), _multiset_gap(stored, swept_keys), "sweep")

    # Cluster totals cover every generated op.
    stats = system.cluster.stats()
    tally.check(1, int(stats.events_stored < len(generated_keys)), "stats-totals")
    return tally
