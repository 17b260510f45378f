"""Rule-matching micro-benchmark: spine-fused automaton vs linear sweep.

The win is verified with *operation counters*, not wall-clock: with N
rules on disjoint prefixes the trie surfaces only the candidates whose
prefix can cover the event's path, and with N rules stacked on one
nested spine (the pre-fusion worst case, ``evaluated_fraction`` 1.0)
the fused bucket programs dedupe identical predicates so the automaton
pays one evaluation per *distinct* predicate on the ancestor chain, not
one per rule.  Both acceptance bars (indexed evaluations ≤ 10% of
linear — on the nested spine too) are asserted directly, alongside
result equality against the ``matching_linear`` oracle.

Sizes come from the environment so the CI smoke step can shrink them:
``RULE_BENCH_RULES`` (default 1000), ``RULE_BENCH_EVENTS`` (default
2000), and for the rule-scale scenario ``RULE_BENCH_SCALE_RULES``
(default 100_000) / ``RULE_BENCH_SCALE_EVENTS`` (default 200), and for
the install scenario ``RULE_BENCH_INSTALL_RULES`` (default 2000).  At
scale the full linear sweep would dominate the benchmark run, so the
oracle is equality-checked on a sample of events and the linear
evaluation count is the exact analytic ``rules × events`` product (a
linear sweep evaluates every rule for every event, by construction).
The ablation table and ``BENCH_rule_matching.json`` land in
``benchmarks/results/``.

The install scenario prices rule *distribution*: rules added one at a
time through ``RippleService`` reach the registered agent as deltas,
so N installs must build exactly N compiled triggers on the agent (a
per-change index rebuild builds N²/2), with no ``RuleSet.for_agent``
slice copy and at most 2N agent index probes (shipping the whole slice
per change probes N²/2 times).  Those counts are the asserted bars;
total and per-rule install milliseconds are recorded beside them.
"""

import json
import os
import pathlib
import time

from repro.core.events import EventType, FileEvent
from repro.ripple.agent import RippleAgent
from repro.ripple.index import CompiledTrigger, RuleIndex
from repro.ripple.rules import Action, Rule, RuleSet, Trigger
from repro.ripple.service import RippleService

N_RULES = int(os.environ.get("RULE_BENCH_RULES", "1000"))
N_EVENTS = int(os.environ.get("RULE_BENCH_EVENTS", "2000"))
N_SCALE_RULES = int(os.environ.get("RULE_BENCH_SCALE_RULES", "100000"))
N_SCALE_EVENTS = int(os.environ.get("RULE_BENCH_SCALE_EVENTS", "200"))
N_INSTALL_RULES = int(os.environ.get("RULE_BENCH_INSTALL_RULES", "2000"))
#: Events the scale scenario runs through the (slow) linear oracle.
ORACLE_SAMPLE = 5

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The nested-spine acceptance bar: fused evaluations vs linear sweep.
NESTED_FRACTION_BAR = 0.10

#: Per-tenant shape of the rule-scale scenario.
SCALE_RULES_PER_TENANT = 500
SCALE_DEPTH = 10
#: A small pattern vocabulary — the dedup target: real tenants install
#: many rules but reuse few predicates (same suffix filters, same
#: literal marker files, broad catch-alls).
SCALE_PATTERNS = ["*.dat", "*.h5", "DONE.marker", "*"]


def record_bench(**sections):
    """Merge *sections* into ``BENCH_rule_matching.json``."""
    path = _RESULTS_DIR / "BENCH_rule_matching.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update(sections)
    _RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")


def make_event(path):
    return FileEvent(
        event_type=EventType.CREATED, path=path, is_dir=False,
        timestamp=1.0, name=path.rsplit("/", 1)[-1], source="lustre",
    )


def build_disjoint(n_rules):
    """N rules, each watching its own subtree (the paper's multi-user
    shape: every user's policy watches that user's project directory)."""
    rules = RuleSet()
    for i in range(n_rules):
        rules.add(Rule(
            Trigger(agent_id="a", path_prefix=f"/proj/p{i}",
                    name_pattern="*.dat"),
            Action("email", "a"),
        ))
    return rules


def build_nested(n_rules, depth=8):
    """N rules stacked on a shared path spine (the pruning worst case:
    every ancestor on the event's path holds rules — pre-fusion, the
    trie surfaced all of them and evaluated all of them)."""
    rules = RuleSet()
    for i in range(n_rules):
        components = "/".join(f"d{level}" for level in range(i % depth + 1))
        rules.add(Rule(
            Trigger(agent_id="a", path_prefix=f"/{components}",
                    name_pattern="*.dat"),
            Action("email", "a"),
        ))
    return rules


def build_scale(n_rules):
    """The 100k-rule shape: many tenants, each stacking rules on its
    own spine, drawing patterns from a small shared vocabulary.

    This composes both hard cases — nesting (every tenant's rules share
    that tenant's spine) at a rule count where even candidate surfacing
    must stay sub-linear (disjoint tenants prune each other out).
    """
    tenants = max(1, n_rules // SCALE_RULES_PER_TENANT)
    rules = RuleSet()
    for i in range(n_rules):
        tenant = i % tenants
        nth = i // tenants  # this tenant's nth rule
        components = "/".join(f"d{d}" for d in range(nth % SCALE_DEPTH + 1))
        rules.add(Rule(
            Trigger(agent_id="a",
                    path_prefix=f"/tenants/t{tenant}/{components}",
                    name_pattern=SCALE_PATTERNS[nth % len(SCALE_PATTERNS)]),
            Action("email", "a"),
        ))
    return rules, tenants


def disjoint_events(n_events, n_rules):
    return [
        make_event(f"/proj/p{i % n_rules}/run/f{i}.dat")
        for i in range(n_events)
    ]


def nested_events(n_events, depth=8):
    spine = "/".join(f"d{level}" for level in range(depth))
    return [make_event(f"/{spine}/f{i}.dat") for i in range(n_events)]


def scale_events(n_events, tenants):
    spine = "/".join(f"d{d}" for d in range(SCALE_DEPTH))
    return [
        make_event(f"/tenants/t{i % tenants}/{spine}/f{i}.dat")
        for i in range(n_events)
    ]


def run_linear(rules, events):
    rules.linear_rules_evaluated = 0
    results = [rules.matching_linear("a", event) for event in events]
    return results, rules.linear_rules_evaluated


def run_indexed(rules, events):
    index = rules.index_for("a")
    index.reset_op_counters()
    results = [matched for _event, matched in index.matching_batch(events)]
    return results, index


class TestRuleMatchingBench:
    def test_bench_linear_sweep(self, benchmark):
        rules = build_disjoint(N_RULES)
        events = disjoint_events(N_EVENTS, N_RULES)

        def linear():
            return run_linear(rules, events)

        _results, evaluated = benchmark.pedantic(
            linear, rounds=3, iterations=1
        )
        # The linear sweep pays one full evaluation per rule per event.
        assert evaluated == N_RULES * N_EVENTS

    def test_bench_indexed_matching(self, benchmark):
        rules = build_disjoint(N_RULES)
        events = disjoint_events(N_EVENTS, N_RULES)
        rules.index_for("a")  # compile outside the timed region

        def indexed():
            return run_indexed(rules, events)

        results, index = benchmark.pedantic(indexed, rounds=3, iterations=1)
        linear_results, linear_evaluated = run_linear(rules, events)
        # Identical results, a fraction of the evaluations.  Disjoint
        # prefixes surface exactly one candidate per event; the 10%
        # acceptance bar has plenty of margin at every size.
        assert results == linear_results
        assert all(len(matched) == 1 for matched in results)
        assert index.rules_evaluated == N_EVENTS
        assert index.rules_evaluated <= 0.10 * linear_evaluated

    def test_bench_fused_nested_spine(self, benchmark):
        # Rules stacked on one spine: before fusion this degraded to
        # the linear sweep (every rule on the ancestor chain was a
        # candidate AND a full evaluation; evaluated_fraction 1.0).
        # Predicate dedup collapses each spine bucket to one evaluation
        # fanning out to all owners, so the fused automaton pays
        # O(distinct predicates on the chain) — the same ≤10% bar as
        # the disjoint shape now holds on its worst case.
        rules = build_nested(N_RULES)
        events = nested_events(min(N_EVENTS, 200))
        rules.index_for("a")

        def indexed():
            return run_indexed(rules, events)

        results, index = benchmark.pedantic(indexed, rounds=3, iterations=1)
        linear_results, linear_evaluated = run_linear(rules, events)
        assert results == linear_results
        assert index.rules_evaluated <= NESTED_FRACTION_BAR * linear_evaluated


class TestRuleScaleBench:
    """The 100k-rule scenario: sub-linear candidates AND evaluations."""

    def test_bench_rule_scale(self, benchmark):
        rules, tenants = build_scale(N_SCALE_RULES)
        events = scale_events(N_SCALE_EVENTS, tenants)
        rules.index_for("a")  # compile outside the timed region

        def indexed():
            return run_indexed(rules, events)

        results, index = benchmark.pedantic(indexed, rounds=1, iterations=1)
        # Oracle equality on a sample (the full linear product is the
        # benchmark's own denominator; running it at 100k × events
        # would dwarf the measured work).
        sample = events[:ORACLE_SAMPLE]
        linear_results, _ = run_linear(rules, sample)
        assert results[:len(sample)] == linear_results
        assert all(matched for matched in results)  # every event fires rules
        n_rules, n_events = len(rules), len(events)
        linear_evaluations = n_rules * n_events
        # Counter-asserted sub-linearity: candidates stay bounded by one
        # tenant's rule count (disjoint tenants prune each other), and
        # fused evaluations collapse far below candidates (dedup).
        assert index.candidates_considered <= (
            (SCALE_RULES_PER_TENANT + len(SCALE_PATTERNS)) * n_events
        )
        assert index.rules_evaluated <= NESTED_FRACTION_BAR * linear_evaluations
        assert index.rules_evaluated <= index.candidates_considered


class TestIndexedVsLinearAblation:
    def test_ablation_table(self, report):
        scale_rules, scale_tenants = build_scale(N_SCALE_RULES)
        scenarios = []
        for name, rules, events, oracle_sample in [
            ("disjoint prefixes",
             build_disjoint(N_RULES), disjoint_events(N_EVENTS, N_RULES),
             None),
            ("nested spine (fused)",
             build_nested(N_RULES), nested_events(min(N_EVENTS, 200)),
             None),
            (f"{N_SCALE_RULES // 1000}k rules",
             scale_rules, scale_events(N_SCALE_EVENTS, scale_tenants),
             ORACLE_SAMPLE),
        ]:
            indexed_results, index = run_indexed(rules, events)
            if oracle_sample is None:
                linear_results, linear_evaluated = run_linear(rules, events)
                assert indexed_results == linear_results
                oracle = "full"
            else:
                sample = events[:oracle_sample]
                linear_results, _ = run_linear(rules, sample)
                assert indexed_results[:len(sample)] == linear_results
                # One linear pass evaluates every rule for every event.
                linear_evaluated = len(rules) * len(events)
                oracle = f"sampled({len(sample)})"
            scenarios.append({
                "scenario": name,
                "rules": len(rules),
                "events": len(events),
                "linear_evaluations": linear_evaluated,
                "indexed_candidates": index.candidates_considered,
                "indexed_evaluations": index.rules_evaluated,
                "program_recompiles": index.program_recompiles,
                "oracle": oracle,
                "evaluated_fraction": (
                    index.rules_evaluated / linear_evaluated
                    if linear_evaluated else 0.0
                ),
            })
        lines = [
            f"{'scenario':<22} {'rules':>7} {'events':>7} "
            f"{'linear evals':>13} {'candidates':>11} {'fused evals':>12} "
            f"{'fraction':>9}"
        ]
        for row in scenarios:
            lines.append(
                f"{row['scenario']:<22} {row['rules']:>7} "
                f"{row['events']:>7} {row['linear_evaluations']:>13} "
                f"{row['indexed_candidates']:>11} "
                f"{row['indexed_evaluations']:>12} "
                f"{row['evaluated_fraction']:>9.4f}"
            )
        lines.append(
            "indexed results were asserted identical to the linear sweep "
            "(full oracle at bench size, sampled at scale)"
        )
        report.add(
            "Ablation - spine-fused rule automaton vs linear sweep",
            "\n".join(lines),
        )
        record_bench(scenarios=scenarios)
        # The acceptance bars: the disjoint (paper-shaped) workload and
        # the previously-degenerate nested spine both stay under 10%.
        assert scenarios[0]["evaluated_fraction"] <= 0.10
        assert scenarios[1]["evaluated_fraction"] <= NESTED_FRACTION_BAR
        assert scenarios[2]["evaluated_fraction"] <= NESTED_FRACTION_BAR


class TestRuleInstallBench:
    """N rules added one by one reach the agent as N deltas."""

    def test_bench_rule_install(self, monkeypatch):
        built = []
        original_init = CompiledTrigger.__init__

        def counting_init(self, rule, order):
            original_init(self, rule, order)
            built.append(rule.rule_id)

        monkeypatch.setattr(CompiledTrigger, "__init__", counting_init)
        probes = {"for_agent": 0, "contains": 0}
        original_for_agent = RuleSet.for_agent
        original_contains = RuleIndex.__contains__

        def counting_for_agent(self, agent_id):
            probes["for_agent"] += 1
            return original_for_agent(self, agent_id)

        def counting_contains(self, rule_id):
            probes["contains"] += 1
            return original_contains(self, rule_id)

        service = RippleService()
        agent = RippleAgent("a")
        service.register_agent(agent)
        monkeypatch.setattr(RuleSet, "for_agent", counting_for_agent)
        monkeypatch.setattr(RuleIndex, "__contains__", counting_contains)
        started = time.perf_counter()
        for i in range(N_INSTALL_RULES):
            service.add_rule(
                Trigger(agent_id="a", path_prefix=f"/tenants/t{i % 10}",
                        name_pattern=f"*.e{i}"),
                Action("email", "a"),
            )
        install_ms = (time.perf_counter() - started) * 1000.0
        # One delta per rule: no slice copy, O(1) index probes per add
        # (shipping the whole slice each time probes N²/2 times).
        assert probes["for_agent"] == 0
        assert probes["contains"] <= 2 * N_INSTALL_RULES
        # Linear construction: one compiled trigger per installed rule,
        # all on the agent (the service compiles its own index only on
        # its first match).
        assert len(built) == len(agent.rule_index) == N_INSTALL_RULES
        events = [
            make_event(f"/tenants/t{i % 10}/run/f.e{i}")
            for i in range(0, N_INSTALL_RULES, max(1, N_INSTALL_RULES // 20))
        ]
        for event in events:
            matched = agent.rule_index.matching(event)
            assert matched == service.rules.matching_linear("a", event)
            assert len(matched) == 1
        record_bench(install={
            "rules": N_INSTALL_RULES,
            "agent_triggers_built": len(built),
            "agent_index_probes": probes["contains"],
            "install_ms": round(install_ms, 3),
            "install_ms_per_rule": round(install_ms / N_INSTALL_RULES, 5),
        })
