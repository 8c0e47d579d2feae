"""Tests for the ``repro.obs`` observability layer.

Covers the metric primitives, context-var scoping (nested scopes must be
isolated), span-tree shape, report rendering / JSON round-trips, and the
engine instrumentation contract the benchmarks rely on — in particular
that backtracking memo counters are a deterministic function of the
(query, structure) pair, not of ambient state.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import EvaluationError
from repro.homomorphism.acyclic import count_homomorphisms_acyclic
from repro.homomorphism.engine import count, count_at_least, count_ucq
from repro.obs import (
    Observation,
    Registry,
    active_registry,
    active_trace,
    observe,
    span,
)
from repro.queries import parse_query
from repro.queries.product import QueryProduct
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational import Schema, Structure


@pytest.fixture
def two_cycle() -> Structure:
    return Structure(Schema.from_arities({"E": 2}), {"E": [(1, 2), (2, 1)]})


class TestMetrics:
    def test_counter(self):
        registry = Registry()
        counter = registry.counter("x.n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("x.n") is counter

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Registry().counter("x").inc(-1)

    def test_gauge_tracks_last_and_max(self):
        gauge = Registry().gauge("g")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3
        assert gauge.max == 7
        gauge.set_max(2)
        assert gauge.max == 7
        gauge.set_max(11)
        assert gauge.max == 11

    def test_timer_aggregates(self):
        timer = Registry().timer("t")
        timer.observe(0.5)
        timer.observe(1.5)
        assert timer.count == 2
        assert timer.total == pytest.approx(2.0)
        assert timer.mean == pytest.approx(1.0)
        snapshot = timer.snapshot()
        assert snapshot["min_ms"] == pytest.approx(500.0)
        assert snapshot["max_ms"] == pytest.approx(1500.0)

    def test_timer_context_manager(self):
        timer = Registry().timer("t")
        with timer.time():
            time.sleep(0.005)
        assert timer.count == 1
        assert timer.total >= 0.005

    def test_kind_conflict_rejected(self):
        registry = Registry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")

    def test_thread_safe_increments(self):
        registry = Registry()

        def work():
            for _ in range(1000):
                registry.counter("shared").inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("shared").value == 4000


class TestScoping:
    def test_disabled_by_default(self):
        assert active_registry() is None
        assert active_trace() is None

    def test_observe_installs_and_removes(self):
        with observe() as observation:
            assert active_registry() is observation.registry
            assert active_trace() is observation.trace
        assert active_registry() is None

    def test_nested_scopes_are_isolated(self):
        with observe() as outer:
            active_registry().counter("n").inc()
            with observe() as inner:
                active_registry().counter("n").inc(10)
            # Inner scope did not leak into (or read from) the outer one.
            assert inner.registry.counter("n").value == 10
            assert active_registry() is outer.registry
            active_registry().counter("n").inc()
        assert outer.registry.counter("n").value == 2

    def test_span_noop_when_disabled(self):
        with span("nothing", k=1) as current:
            current.set(more=2)  # absorbed silently
        assert active_trace() is None


class TestSpans:
    def test_tree_shape(self):
        with observe() as observation:
            with span("root", kind="demo"):
                with span("child-a"):
                    with span("grandchild"):
                        pass
                with span("child-b") as b:
                    b.set(verdict="ok")
        roots = observation.trace.roots
        assert [root.name for root in roots] == ["root"]
        root = roots[0]
        assert [child.name for child in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grandchild"
        assert root.children[1].attrs == {"verdict": "ok"}
        assert root.duration is not None and root.duration >= 0

    def test_sibling_roots(self):
        with observe() as observation:
            with span("first"):
                pass
            with span("second"):
                pass
        assert [root.name for root in observation.trace.roots] == [
            "first",
            "second",
        ]

    def test_find(self):
        with observe() as observation:
            with span("a"):
                with span("b"):
                    pass
        assert observation.trace.find("b").name == "b"
        assert observation.trace.find("missing") is None


class TestReports:
    def test_json_round_trip(self):
        with observe() as observation:
            with span("step", size=3):
                active_registry().counter("c").inc(2)
                active_registry().gauge("g").set(1.5)
                active_registry().timer("t").observe(0.25)
        rendered = observation.render_json()
        decoded = json.loads(rendered)
        assert decoded == json.loads(json.dumps(observation.report()))
        assert decoded["metrics"]["c"] == {"type": "counter", "value": 2}
        assert decoded["trace"][0]["name"] == "step"
        assert decoded["trace"][0]["attrs"] == {"size": 3}

    def test_json_is_stable_across_insertion_order(self):
        first, second = Observation(), Observation()
        first.registry.counter("a").inc()
        first.registry.counter("b").inc()
        second.registry.counter("b").inc()
        second.registry.counter("a").inc()
        assert first.render_json() == second.render_json()

    def test_text_report_mentions_everything(self):
        with observe() as observation:
            with span("outer"):
                active_registry().counter("bt.nodes").inc(7)
        text = observation.render_text()
        assert "outer" in text
        assert "bt.nodes" in text
        assert "7" in text

    def test_empty_report(self):
        with observe() as observation:
            pass
        assert "(nothing recorded)" in observation.render_text()


class TestEngineInstrumentation:
    def test_backtracking_counters_nonzero(self, two_cycle):
        query = parse_query("E(x, y) & E(y, x)")
        with observe() as observation:
            assert count(query, two_cycle) == 2
        metrics = observation.report()["metrics"]
        assert metrics["bt.calls"]["value"] == 1
        assert metrics["bt.nodes"]["value"] > 0
        assert metrics["bt.facts_scanned"]["value"] > 0
        assert metrics["engine.dispatch.backtracking"]["value"] == 1

    def test_memo_counters_match_across_runs(self, two_cycle):
        """Regression: memo behaviour is per-problem, so evaluating the
        same query twice yields identical hit/miss/node counters."""
        query = parse_query("E(x, y) & E(y, z) & E(z, w)")
        runs = []
        for _ in range(2):
            with observe() as observation:
                count(query, two_cycle)
            metrics = observation.report()["metrics"]
            runs.append(
                {
                    name: metrics[name]["value"]
                    for name in (
                        "bt.nodes",
                        "bt.memo_hits",
                        "bt.memo_misses",
                        "bt.memo_entries",
                        "bt.facts_scanned",
                    )
                }
            )
        assert runs[0] == runs[1]
        assert runs[0]["bt.memo_misses"] > 0

    def test_treewidth_counters(self, two_cycle):
        query = parse_query("E(x, y) & E(y, x)")
        with observe() as observation:
            count(query, two_cycle, engine="treewidth")
        metrics = observation.report()["metrics"]
        assert metrics["td.calls"]["value"] == 1
        assert metrics["td.bags"]["value"] >= 1
        assert metrics["td.table_entries"]["value"] >= 1
        assert "engine.dispatch.treewidth" in metrics

    def test_acyclic_counters(self, two_cycle):
        query = parse_query("E(x, y) & E(y, z)")
        with observe() as observation:
            count_homomorphisms_acyclic(query, two_cycle)
        metrics = observation.report()["metrics"]
        assert metrics["ac.calls"]["value"] == 1
        assert metrics["ac.join_passes"]["value"] == 1
        assert metrics["ac.facts_matched"]["value"] == 4

    def test_inclusion_exclusion_terms(self, two_cycle):
        query = parse_query("E(x, y) & x != y")
        with observe() as observation:
            count(query, two_cycle, use_inclusion_exclusion=True)
        metrics = observation.report()["metrics"]
        assert metrics["engine.ie_calls"]["value"] == 1
        # One inequality: the empty subset and the singleton.
        assert metrics["engine.ie_terms"]["value"] == 2

    def test_product_factor_counter(self, two_cycle):
        query = QueryProduct.of(parse_query("E(x, y)")) ** 5
        with observe() as observation:
            assert count(query, two_cycle) == 32
        metrics = observation.report()["metrics"]
        assert metrics["engine.product_factors"]["value"] == 1


class TestEngineErrorPaths:
    def test_unknown_engine_plain_query(self, two_cycle):
        with pytest.raises(EvaluationError, match="unknown engine"):
            count(parse_query("E(x, y)"), two_cycle, engine="nope")

    def test_unknown_engine_empty_product(self, two_cycle):
        """Validated before any work, even when no factor is evaluated."""
        with pytest.raises(EvaluationError, match="unknown engine"):
            count(QueryProduct(), two_cycle, engine="nope")

    def test_unknown_engine_trivial_bound(self, two_cycle):
        with pytest.raises(EvaluationError, match="unknown engine"):
            count_at_least(QueryProduct(), two_cycle, 0, engine="nope")

    def test_unknown_engine_empty_ucq(self, two_cycle):
        with pytest.raises(EvaluationError, match="unknown engine"):
            count_ucq(
                UnionOfConjunctiveQueries(()), two_cycle, engine="nope"
            )

    def test_mid_evaluation_error_names_engine(self, two_cycle):
        ternary = parse_query("E(x, y, z)")
        with pytest.raises(EvaluationError, match=r"\[engine: treewidth\]"):
            count(ternary, two_cycle, engine="treewidth")

    def test_engine_tag_not_duplicated(self, two_cycle):
        ternary = parse_query("E(x, y, z)")
        product = QueryProduct.of(ternary)
        with pytest.raises(EvaluationError) as excinfo:
            count(product, two_cycle, engine="treewidth")
        assert str(excinfo.value).count("[engine:") == 1
