"""Tests for the compiled rule-matching engine (RuleIndex).

The contract under test: :meth:`RuleIndex.matching` (the trie-indexed
path behind ``RuleSet.matching`` and the agent filter) returns exactly
what the reference linear sweep returns, in the same order, across
overlapping prefixes, glob patterns, disabled rules, MOVED old-path
matching and rule churn — while evaluating only trie-surfaced
candidates (the op counters make that observable).

Also covers the batch delivery path the index feeds: the Consumer's
``batch_callback`` and pre-normalized ``path_prefix`` filter, and the
agent's ``ingest_batch``.
"""

import fnmatch

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster import ClusterClient
from repro.core import Aggregator, AggregatorConfig, Consumer
from repro.core.events import EventType, FileEvent
from repro.msgq import Context
from repro.ripple.index import RuleIndex
from repro.ripple.rules import Action, Rule, RuleSet, Trigger


def make_event(path, event_type=EventType.CREATED, is_dir=False,
               old_path=None, name=None):
    return FileEvent(
        event_type=event_type, path=path, is_dir=is_dir, timestamp=1.0,
        name=(path.rsplit("/", 1)[-1] if path else "") if name is None
        else name,
        source="inotify", old_path=old_path,
    )


def make_rule(agent="a", prefix="/d", pattern="*", event_types=None,
              include_directories=False, enabled=True):
    return Rule(
        Trigger(
            agent_id=agent, path_prefix=prefix, name_pattern=pattern,
            event_types=(
                frozenset({EventType.CREATED})
                if event_types is None else frozenset(event_types)
            ),
            include_directories=include_directories,
        ),
        Action("email", agent),
        enabled=enabled,
    )


# ---------------------------------------------------------------------------
# RuleIndex unit behavior
# ---------------------------------------------------------------------------


class TestRuleIndexBasics:
    def test_matches_exact_prefix_and_descendants(self):
        index = RuleIndex([make_rule(prefix="/proj/ml")])
        assert len(index.matching(make_event("/proj/ml"))) == 1
        assert len(index.matching(make_event("/proj/ml/run1/out.h5"))) == 1
        assert index.matching(make_event("/proj/other/f")) == []

    def test_root_prefix_matches_everything(self):
        index = RuleIndex([make_rule(prefix="/")])
        assert len(index.matching(make_event("/any/where/f"))) == 1

    def test_event_type_bucketing(self):
        index = RuleIndex(
            [make_rule(event_types={EventType.DELETED, EventType.MOVED})]
        )
        assert index.matching(make_event("/d/f", EventType.CREATED)) == []
        assert len(index.matching(make_event("/d/f", EventType.DELETED))) == 1

    def test_name_pattern_compiled(self):
        index = RuleIndex([make_rule(pattern="*.tiff")])
        assert len(index.matching(make_event("/d/scan.tiff"))) == 1
        assert index.matching(make_event("/d/scan.jpg")) == []

    def test_directories_respected(self):
        files_only = make_rule(pattern="*")
        with_dirs = make_rule(include_directories=True)
        index = RuleIndex([files_only, with_dirs])
        matched = index.matching(make_event("/d/sub", is_dir=True))
        assert matched == [with_dirs]

    def test_moved_event_matches_by_old_path(self):
        rule = make_rule(prefix="/watched", event_types={EventType.MOVED})
        index = RuleIndex([rule])
        moved = make_event(
            "/elsewhere/f", EventType.MOVED, old_path="/watched/f"
        )
        assert index.matching(moved) == [rule]

    def test_moved_event_with_both_paths_under_prefix_not_duplicated(self):
        rule = make_rule(prefix="/w", event_types={EventType.MOVED})
        index = RuleIndex([rule])
        moved = make_event("/w/new", EventType.MOVED, old_path="/w/old")
        assert index.matching(moved) == [rule]

    def test_disabled_rule_is_not_indexed(self):
        index = RuleIndex([make_rule(enabled=False)])
        assert len(index) == 0
        assert index.matching(make_event("/d/f")) == []

    def test_results_in_insertion_order(self):
        outer = make_rule(prefix="/d")
        inner = make_rule(prefix="/d/sub")
        catch_all = make_rule(prefix="/")
        index = RuleIndex([outer, inner, catch_all])
        matched = index.matching(make_event("/d/sub/f"))
        assert matched == [outer, inner, catch_all]

    def test_container_protocol(self):
        rule = make_rule()
        index = RuleIndex([rule])
        assert len(index) == 1
        assert rule.rule_id in index
        assert list(index) == [rule]

    def test_remove_then_match(self):
        keep, drop = make_rule(prefix="/d"), make_rule(prefix="/d")
        index = RuleIndex([keep, drop])
        index.remove(drop)
        assert index.matching(make_event("/d/f")) == [keep]

    def test_remove_unknown_is_noop(self):
        index = RuleIndex([make_rule()])
        index.remove(make_rule())  # never added
        assert len(index) == 1

    def test_set_enabled_round_trip(self):
        rule = make_rule()
        index = RuleIndex([rule])
        rule.enabled = False
        index.set_enabled(rule)
        assert index.matching(make_event("/d/f")) == []
        rule.enabled = True
        index.set_enabled(rule)
        assert index.matching(make_event("/d/f")) == [rule]


class TestRuleIndexCounters:
    def test_disjoint_prefixes_prune_evaluations(self):
        # 100 rules on 100 disjoint subtrees: an event under one subtree
        # must evaluate one candidate, not all 100.
        rules = [make_rule(prefix=f"/proj/p{i}") for i in range(100)]
        index = RuleIndex(rules)
        index.reset_op_counters()
        matched = index.matching(make_event("/proj/p7/out.dat"))
        assert matched == [rules[7]]
        assert index.candidates_considered == 1
        assert index.rules_evaluated == 1

    def test_reset_op_counters(self):
        index = RuleIndex([make_rule()])
        index.matching(make_event("/d/f"))
        index.reset_op_counters()
        assert index.candidates_considered == 0
        assert index.rules_evaluated == 0


class TestBatchMatching:
    def test_batch_equals_per_event(self):
        rules = [
            make_rule(prefix="/d", pattern="*.csv"),
            make_rule(prefix="/d/sub"),
            make_rule(prefix="/"),
        ]
        index = RuleIndex(rules)
        events = [
            make_event("/d/a.csv"),
            make_event("/d/sub/b.txt"),
            make_event("/other/c"),
            make_event("/d/d.csv"),
        ]
        batched = index.matching_batch(events)
        assert [(e, index.matching(e)) for e in events] == batched

    def test_same_directory_run_walks_trie_once(self):
        # The per-(directory, type) cache: a burst into one directory
        # surfaces identical candidates without re-walking; counters
        # still account per event.
        rules = [make_rule(prefix=f"/p{i}") for i in range(50)]
        index = RuleIndex(rules)
        events = [make_event(f"/p3/f{i}.dat") for i in range(20)]
        index.reset_op_counters()
        results = index.matching_batch(events)
        assert all(matched == [rules[3]] for _event, matched in results)
        assert index.rules_evaluated == 20  # one candidate per event


# ---------------------------------------------------------------------------
# Equivalence with the linear sweep (hypothesis)
# ---------------------------------------------------------------------------

_COMPONENTS = ["data", "proj", "sub", "deep", "x"]
_NAMES = ["f.csv", "scan.tiff", "f.txt", "noext", "run.log"]
_PATTERNS = ["*", "*.csv", "*.t*", "f*", "?can.tiff", "[rf]*"]
_TYPES = [
    EventType.CREATED, EventType.DELETED, EventType.MODIFIED,
    EventType.MOVED,
]


def _prefix_strategy():
    return st.lists(st.sampled_from(_COMPONENTS), max_size=3).map(
        lambda parts: "/" + "/".join(parts)
    )


def _path_strategy():
    return st.tuples(
        st.lists(st.sampled_from(_COMPONENTS), max_size=3),
        st.sampled_from(_NAMES),
    ).map(lambda t: "/" + "/".join(t[0] + [t[1]]))


_RULE_SPEC = st.tuples(
    _prefix_strategy(),
    st.sampled_from(_PATTERNS),
    st.sets(st.sampled_from(_TYPES), min_size=1, max_size=3),
    st.booleans(),  # include_directories
    st.booleans(),  # enabled
)

_EVENT_SPEC = st.tuples(
    _path_strategy(),
    st.sampled_from(_TYPES),
    st.booleans(),  # is_dir
    st.one_of(st.none(), _path_strategy()),  # old_path (MOVED)
)


def _build(rule_specs):
    rules = RuleSet()
    for prefix, pattern, types, include_dirs, enabled in rule_specs:
        rule = rules.add(
            make_rule(
                prefix=prefix, pattern=pattern, event_types=types,
                include_directories=include_dirs,
            )
        )
        if not enabled:
            rules.set_enabled(rule.rule_id, False)
    return rules


def _build_event(spec):
    path, event_type, is_dir, old_path = spec
    if event_type is not EventType.MOVED:
        old_path = None
    return make_event(path, event_type, is_dir=is_dir, old_path=old_path)


def _hit_events(prefix, pattern, types, include_dirs):
    """Events the rule spec fires on: one per event type, with MOVED
    arriving from under the prefix (``old_path``) to elsewhere."""
    name = next(n for n in _NAMES if fnmatch.fnmatch(n, pattern))
    path = prefix.rstrip("/") + "/" + name
    return [
        make_event(f"/x/{name}", event_type, is_dir=include_dirs,
                   old_path=path)
        if event_type is EventType.MOVED
        else make_event(path, event_type, is_dir=include_dirs)
        for event_type in types
    ]


class TestLinearEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        rule_specs=st.lists(_RULE_SPEC, max_size=12),
        event_specs=st.lists(_EVENT_SPEC, max_size=8),
    )
    def test_indexed_matching_equals_linear_sweep(
        self, rule_specs, event_specs
    ):
        rules = _build(rule_specs)
        for spec in event_specs:
            event = _build_event(spec)
            assert rules.matching("a", event) == rules.matching_linear(
                "a", event
            )

    @settings(max_examples=60, deadline=None)
    @given(
        rule_specs=st.lists(_RULE_SPEC, min_size=1, max_size=10),
        churn=st.lists(
            st.tuples(st.sampled_from(["remove", "disable", "enable"]),
                      st.integers(0, 9)),
            max_size=8,
        ),
        event_specs=st.lists(_EVENT_SPEC, max_size=6),
    )
    def test_equivalence_survives_rule_churn(
        self, rule_specs, churn, event_specs
    ):
        rules = _build(rule_specs)
        ids = [rule.rule_id for rule in rules.for_agent("a")]
        removed = set()
        for op, which in churn:
            rule_id = ids[which % len(ids)]
            if rule_id in removed:
                continue
            if op == "remove":
                rules.remove(rule_id)
                removed.add(rule_id)
            else:
                rules.set_enabled(rule_id, op == "enable")
        for spec in event_specs:
            event = _build_event(spec)
            assert rules.matching("a", event) == rules.matching_linear(
                "a", event
            )
        # The incrementally-maintained index agrees with a fresh build.
        incremental = rules.index_for("a")
        rebuilt = RuleIndex(rules.for_agent("a"))
        for spec in event_specs:
            event = _build_event(spec)
            assert incremental.matching(event) == rebuilt.matching(event)

    @settings(max_examples=100, deadline=None)
    @given(
        initial=st.lists(_RULE_SPEC, max_size=6),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("add"), _RULE_SPEC),
                st.tuples(
                    st.sampled_from(["remove", "disable", "enable"]),
                    st.integers(0, 9),
                ),
            ),
            min_size=1, max_size=10,
        ),
        event_specs=st.lists(_EVENT_SPEC, max_size=6),
    )
    def test_agent_delta_path_equals_linear_sweep(
        self, initial, ops, event_specs
    ):
        # The agent's long-lived index, maintained by rule deltas from
        # the service, must agree with the service's linear oracle after
        # registration (whose slice may hold disabled rules) and after
        # every later add / remove / enable flip.
        from repro.ripple.agent import RippleAgent
        from repro.ripple.service import RippleService

        service = RippleService()
        agent = RippleAgent("a")
        events = [_build_event(spec) for spec in event_specs]

        def add(spec):
            prefix, pattern, types, include_dirs, enabled = spec
            rule = service.add_rule(
                Trigger(
                    agent_id="a", path_prefix=prefix, name_pattern=pattern,
                    event_types=frozenset(types),
                    include_directories=include_dirs,
                ),
                Action("email", "a"),
            )
            if not enabled:
                service.set_rule_enabled(rule.rule_id, False)
            events.extend(_hit_events(prefix, pattern, types, include_dirs))

        def check():
            assert agent.rules == service.rules.for_agent("a")
            for event in events:
                assert agent.rule_index.matching(event) == (
                    service.rules.matching_linear("a", event)
                )

        for spec in initial:
            add(spec)
        service.register_agent(agent)
        check()
        for op, arg in ops:
            if op == "add":
                add(arg)
            elif op == "remove":
                live = service.rules.for_agent("a")
                if live:
                    service.remove_rule(live[arg % len(live)].rule_id)
            else:
                # Flip a rule that is in the other state, so the op is
                # never a no-op while one exists.
                enable = op == "enable"
                flippable = [
                    rule for rule in service.rules.for_agent("a")
                    if rule.enabled != enable
                ]
                if flippable:
                    service.set_rule_enabled(
                        flippable[arg % len(flippable)].rule_id, enable
                    )
            check()

    @settings(max_examples=40, deadline=None)
    @given(
        rule_specs=st.lists(_RULE_SPEC, max_size=10),
        event_specs=st.lists(_EVENT_SPEC, max_size=10),
    )
    def test_batch_matching_equals_per_event(self, rule_specs, event_specs):
        index = RuleIndex(
            _build(rule_specs).for_agent("a")
        )
        events = [_build_event(spec) for spec in event_specs]
        assert index.matching_batch(events) == [
            (event, index.matching(event)) for event in events
        ]


# ---------------------------------------------------------------------------
# Fused bucket programs: dedup, partitions, pruning masks, recompiles
# ---------------------------------------------------------------------------


class TestFusedBucketProgram:
    def test_identical_predicates_deduped(self):
        # 50 rules sharing one predicate (same prefix/pattern/dirs):
        # the fused program evaluates it ONCE and fans out to all
        # owners, in insertion order.
        rules = [make_rule(prefix="/d", pattern="*.dat") for _ in range(50)]
        index = RuleIndex(rules)
        index.reset_op_counters()
        assert index.matching(make_event("/d/a.dat")) == rules
        assert index.candidates_considered == 50
        assert index.rules_evaluated == 1

    def test_literal_names_hash_partition(self):
        # Patterns without glob metacharacters go into a hash lookup:
        # a non-matching literal costs zero evaluations.
        done = make_rule(prefix="/d", pattern="DONE")
        other = make_rule(prefix="/d", pattern="OTHER")
        index = RuleIndex([done, other])
        index.reset_op_counters()
        assert index.matching(make_event("/d/DONE")) == [done]
        assert index.rules_evaluated == 1

    def test_merged_glob_alternation_reports_all_matches(self):
        # One merged regex pass must report EVERY matching glob, not
        # just the first alternative.
        globs = ["*.dat", "data.*", "*a*", "*.h5"]
        rules = [make_rule(prefix="/d", pattern=p) for p in globs]
        index = RuleIndex(rules)
        assert index.matching(make_event("/d/data.dat")) == rules[:3]

    def test_type_mask_stops_descent(self):
        # No descendant watches DELETED: the walk stops at the root
        # without surfacing (or evaluating) anything.
        index = RuleIndex([make_rule(prefix="/a/b/c")])
        index.reset_op_counters()
        assert index.matching(make_event("/a/b/c/f", EventType.DELETED)) == []
        assert index.candidates_considered == 0
        assert index.rules_evaluated == 0

    def test_first_byte_mask_skips_bucket(self):
        # Every pattern in the bucket pins its first name byte; an
        # event whose name can't match skips the bucket entirely.
        index = RuleIndex([make_rule(prefix="/d", pattern="DONE.*")])
        index.reset_op_counters()
        assert index.matching(make_event("/d/result.txt")) == []
        assert index.candidates_considered == 0

    def test_dirs_mask_skips_bucket(self):
        # A files-only bucket is skipped for directory events before
        # any candidate is counted.
        index = RuleIndex([make_rule(prefix="/d")])
        index.reset_op_counters()
        assert index.matching(make_event("/d/sub", is_dir=True)) == []
        assert index.candidates_considered == 0

    def test_directly_disabled_rule_attribute_rejected(self):
        # A rule disabled by attribute mutation (without telling the
        # index) still never matches.
        rule = make_rule()
        index = RuleIndex([rule])
        rule.enabled = False
        assert index.matching(make_event("/d/f")) == []

    def test_recompile_is_per_dirty_bucket(self):
        r1, r2 = make_rule(prefix="/a"), make_rule(prefix="/b")
        index = RuleIndex([r1, r2])
        index.matching(make_event("/a/f"))
        index.matching(make_event("/b/f"))
        assert index.program_recompiles == 2
        # Adding under /a dirties only /a's bucket; /b's compiled
        # program survives.
        index.add(make_rule(prefix="/a"))
        index.matching(make_event("/a/f"))
        index.matching(make_event("/b/f"))
        assert index.program_recompiles == 3

    def test_recompiles_survive_counter_reset(self):
        index = RuleIndex([make_rule()])
        index.matching(make_event("/d/f"))
        assert index.program_recompiles == 1
        index.reset_op_counters()
        assert index.program_recompiles == 1


# ---------------------------------------------------------------------------
# MOVED-event name semantics: the glob applies to the NEW name
# ---------------------------------------------------------------------------


class TestMovedNameSemantics:
    def test_glob_applies_to_new_name_only(self):
        rule = make_rule(
            prefix="/w", pattern="*.dat", event_types={EventType.MOVED}
        )
        index = RuleIndex([rule])
        hit = make_event(
            "/w/out.dat", EventType.MOVED, old_path="/w/out.tmp"
        )
        miss = make_event(
            "/w/out.tmp", EventType.MOVED, old_path="/w/out.dat"
        )
        assert index.matching(hit) == [rule]
        assert index.matching(miss) == []

    def test_old_path_walk_filters_on_new_name(self):
        # The rule watches the OLD subtree; the name filter still
        # applies to the destination basename (the file as it now is).
        rule = make_rule(
            prefix="/src", pattern="*.dat", event_types={EventType.MOVED}
        )
        index = RuleIndex([rule])
        hit = make_event(
            "/dst/f.dat", EventType.MOVED, old_path="/src/f.tmp"
        )
        miss = make_event(
            "/dst/f.tmp", EventType.MOVED, old_path="/src/f.dat"
        )
        assert index.matching(hit) == [rule]
        assert index.matching(miss) == []

    @settings(max_examples=60, deadline=None)
    @given(
        rule_specs=st.lists(_RULE_SPEC, max_size=10),
        path=_path_strategy(),
        old_path=_path_strategy(),
    )
    def test_moved_equivalence_when_basenames_disagree(
        self, rule_specs, path, old_path
    ):
        # The property the unit tests spot-check, in general: when the
        # move changes the basename, indexed and linear matching agree
        # (both apply the glob to the new name only).
        assume(path.rsplit("/", 1)[-1] != old_path.rsplit("/", 1)[-1])
        rules = _build(rule_specs)
        event = make_event(path, EventType.MOVED, old_path=old_path)
        assert rules.matching("a", event) == rules.matching_linear("a", event)


# ---------------------------------------------------------------------------
# Order-stamp stability under disabled adds and enable/disable flips
# ---------------------------------------------------------------------------


class TestOrderStampStability:
    def test_repeated_disabled_add_is_idempotent(self):
        # Re-adding a disabled rule must not advance the order clock:
        # its stamp is pinned on the first add, so enabling it later
        # lands at the original insertion position.
        r1 = make_rule(prefix="/d", enabled=False)
        index = RuleIndex()
        index.add(r1)
        index.add(r1)
        index.add(r1)
        r2 = make_rule(prefix="/d")
        index.add(r2)
        r1.enabled = True
        index.set_enabled(r1)
        assert index.matching(make_event("/d/f")) == [r1, r2]

    def test_enable_via_add_recovers_pinned_stamp(self):
        r1 = make_rule(prefix="/d", enabled=False)
        index = RuleIndex()
        index.add(r1)
        r2 = make_rule(prefix="/d")
        index.add(r2)
        r1.enabled = True
        index.add(r1)  # enabled add after a disabled add, no set_enabled
        assert index.matching(make_event("/d/f")) == [r1, r2]

    def test_disable_enable_round_trip_preserves_position(self):
        r1, r2, r3 = (make_rule(prefix="/d") for _ in range(3))
        index = RuleIndex([r1, r2, r3])
        r2.enabled = False
        index.set_enabled(r2)
        assert index.matching(make_event("/d/f")) == [r1, r3]
        r2.enabled = True
        index.set_enabled(r2)
        assert index.matching(make_event("/d/f")) == [r1, r2, r3]


# ---------------------------------------------------------------------------
# Consumer batch delivery + path filter (the index's feed)
# ---------------------------------------------------------------------------


def _pipeline(tag, **consumer_kwargs):
    context = Context()
    config = AggregatorConfig(
        inbound_endpoint=f"inproc://{tag}-in",
        publish_endpoint=f"inproc://{tag}-pub",
        api_endpoint=f"inproc://{tag}-rep",
    )
    aggregator = Aggregator(context, config)
    consumer = Consumer(context, consumer_kwargs.pop("callback"),
                        config=config, **consumer_kwargs)
    return aggregator, consumer


class TestConsumerBatchDelivery:
    def test_batch_callback_receives_whole_fresh_batches(self):
        batches = []
        aggregator, consumer = _pipeline(
            "rbatch", callback=lambda seq, ev: pytest.fail("per-event path"),
            batch_callback=batches.append,
        )
        aggregator._handle_batch(
            [make_event(p) for p in ["/a/f", "/a/g", "/b/h"]]
        )
        assert consumer.poll_once() == 3
        assert [[seq for seq, _ in batch] for batch in batches] == [[1, 2, 3]]
        assert consumer.events_consumed == 3

    def test_batch_callback_skips_duplicates(self):
        batches = []
        aggregator, consumer = _pipeline(
            "rdup", callback=lambda seq, ev: None,
            batch_callback=batches.append,
        )
        aggregator._handle_batch([make_event("/a/f"), make_event("/a/g")])
        consumer.poll_once()
        consumer.deliver_entries(
            [(1, make_event("/a/f")), (2, make_event("/a/g")),
             (3, make_event("/a/h"))]
        )
        assert [[seq for seq, _ in batch] for batch in batches] == [
            [1, 2], [3]
        ]
        assert consumer.duplicates_skipped == 2

    def test_path_prefix_filter_drops_other_subtrees(self):
        seen = []
        aggregator, consumer = _pipeline(
            "rpfx", callback=lambda seq, ev: seen.append(ev.path),
            path_prefix="/proj/ml",
        )
        aggregator._handle_batch(
            [make_event(p) for p in
             ["/proj/ml/a", "/proj/other/b", "/proj/ml/sub/c", "/scratch/d"]]
        )
        consumer.poll_once()
        assert seen == ["/proj/ml/a", "/proj/ml/sub/c"]
        assert consumer.events_filtered == 2
        # Filtered events still advance the watermark (no bogus catch-up).
        assert consumer.last_seq == 4

    def test_filtered_events_are_not_redelivered(self):
        seen = []
        aggregator, consumer = _pipeline(
            "rpfx2", callback=lambda seq, ev: seen.append(ev.path),
            path_prefix="/keep",
        )
        aggregator._handle_batch([make_event("/drop/a"), make_event("/keep/b")])
        consumer.poll_once()
        client = ClusterClient.for_aggregator(aggregator.context, aggregator)
        assert client.catch_up(consumer) == 0
        assert seen == ["/keep/b"]


class TestAgentBatchIngest:
    def _agent_and_service(self):
        from repro.ripple.service import RippleService
        from repro.ripple.agent import RippleAgent

        service = RippleService()
        agent = RippleAgent("a")
        service.register_agent(agent)
        service.add_rule(
            Trigger(agent_id="a", path_prefix="/d", name_pattern="*.csv"),
            Action("email", "a"),
        )
        return agent, service

    def test_ingest_batch_matches_per_event_ingest(self):
        events = [
            make_event("/d/a.csv"), make_event("/d/b.txt"),
            make_event("/other/c.csv"), make_event("/d/sub/e.csv"),
        ]
        batch_agent, batch_service = self._agent_and_service()
        assert batch_agent.ingest_batch(events) == 2
        single_agent, single_service = self._agent_and_service()
        for event in events:
            single_agent.ingest_event(event)
        assert batch_agent.events_seen == single_agent.events_seen == 4
        assert batch_agent.events_matched == single_agent.events_matched == 2
        assert (
            batch_service.events_accepted == single_service.events_accepted
        )

    def test_op_counter_gauges_exposed(self):
        agent, _service = self._agent_and_service()
        agent.ingest_batch([make_event("/d/a.csv")])
        snapshot = agent.metrics.snapshot()
        assert snapshot["candidates_considered"] == 1
        assert snapshot["rules_evaluated"] == 1


class TestAgentRuleInstallCost:
    """Installing N rules costs N trigger compilations, not N²/2."""

    N = 60

    def test_install_builds_one_trigger_per_rule_and_no_regex(
        self, monkeypatch
    ):
        from repro.ripple.agent import RippleAgent
        from repro.ripple.index import CompiledTrigger
        from repro.ripple.service import RippleService

        built = []
        original_init = CompiledTrigger.__init__

        def counting_init(self, rule, order):
            original_init(self, rule, order)
            built.append(self)

        monkeypatch.setattr(CompiledTrigger, "__init__", counting_init)
        service = RippleService()
        agent = RippleAgent("a")
        service.register_agent(agent)
        for i in range(self.N):
            service.add_rule(
                Trigger(agent_id="a", path_prefix=f"/t{i % 5}",
                        name_pattern=f"*.e{i}"),
                Action("email", "a"),
            )
        # The service builds its own index only on its first match, so
        # every trigger built so far belongs to the agent's index.
        assert len(built) == len(agent.rule_index) == self.N
        assert {t.rule.rule_id for t in built} == {
            rule.rule_id for rule in agent.rules
        }
        # Bucket programs resolve names through merged regexes; the
        # per-trigger regex waits for a direct matches() call.
        assert all(t._regex is None for t in built)
        event = make_event("/t3/x.e3")
        assert agent.rule_index.matching(event) == [agent.rules[3]]
        assert all(t._regex is None for t in built)
        assert built[3].matches(event, "x.e3")
        assert built[3]._regex is not None
        assert sum(t._regex is not None for t in built) == 1

    def test_each_rule_change_is_one_delta(self, monkeypatch):
        """No slice copies and O(1) index probes per rule change.

        Counted, not timed: shipping the agent its whole slice on every
        change made 600 one-by-one installs cost 179,700 probes.
        """
        from repro.ripple.agent import RippleAgent
        from repro.ripple.service import RippleService

        calls = {"for_agent": 0, "contains": 0}
        original_for_agent = RuleSet.for_agent
        original_contains = RuleIndex.__contains__

        def counting_for_agent(self, agent_id):
            calls["for_agent"] += 1
            return original_for_agent(self, agent_id)

        def counting_contains(self, rule_id):
            calls["contains"] += 1
            return original_contains(self, rule_id)

        service = RippleService()
        agent = RippleAgent("a")
        service.register_agent(agent)
        monkeypatch.setattr(RuleSet, "for_agent", counting_for_agent)
        monkeypatch.setattr(RuleIndex, "__contains__", counting_contains)
        n = 600
        rules = [
            service.add_rule(
                Trigger(agent_id="a", path_prefix=f"/t{i % 5}",
                        name_pattern=f"*.e{i}"),
                Action("email", "a"),
            )
            for i in range(n)
        ]
        assert calls["for_agent"] == 0
        assert calls["contains"] <= 2 * n
        for rule in rules[::2]:
            service.set_rule_enabled(rule.rule_id, False)
        for rule in rules[1::2]:
            service.remove_rule(rule.rule_id)
        for rule in rules[::2]:
            service.set_rule_enabled(rule.rule_id, True)
        assert calls["for_agent"] == 0
        assert calls["contains"] <= 2 * (n + n // 2 + n)
        assert agent.rules == service.rules.for_agent("a") == rules[::2]
        assert len(agent.rule_index) == n // 2
