"""Tests for the ``repro.planner`` cost-based query planner.

Two properties carry the subsystem:

1. **Parity** — ``engine="auto"`` is bit-identical to every explicit
   engine on the seeded differential corpus, through the serial, cached,
   batched, and multi-worker paths alike (the planner may only ever
   change *where* a component is counted, never the count).
2. **Sanity of the structural analysis** — GYO acyclicity and the greedy
   treewidth bound are exact on the classic shapes (paths, cycles,
   CYCLIQ) that the paper's gadget families are built from.
"""

from __future__ import annotations

import json

import pytest

from repro.core.cycliq import cycliq
from repro.homomorphism.batch import count_many
from repro.homomorphism.cache import CountCache
from repro.homomorphism.engine import ENGINES, count, count_ucq
from repro.obs import observe
from repro.planner import (
    Plan,
    PlanCache,
    analyze_component,
    eligible_engines,
    estimate_cost,
    greedy_treewidth_bound,
    plan,
    select_engine,
    select_for,
)
from repro.planner.cost import (
    COMPILED_BASE,
    COMPILED_PER_ATOM,
    COMPILED_PER_FACT,
)
from repro.qa.generators import case_at
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_query
from repro.queries.product import QueryProduct
from repro.queries.terms import Variable
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.schema import Schema
from repro.relational.structure import Structure
from repro.workloads.random_queries import cycle_query, path_query


@pytest.fixture
def edge_path(edge_schema: Schema) -> Structure:
    """A directed path on 6 elements — big enough to separate the engines."""
    return Structure(edge_schema, {"E": [(i, i + 1) for i in range(5)]})


@pytest.fixture
def dense(edge_schema: Schema) -> Structure:
    """A dense 5-element digraph: joins explode, DP tables stay small."""
    edges = [(i, j) for i in range(5) for j in range(5)]
    return Structure(edge_schema, {"E": edges})


class TestTreewidthBound:
    def test_path_is_width_one(self):
        assert greedy_treewidth_bound(path_query(5)) == 1

    def test_cycle_is_width_two(self):
        assert greedy_treewidth_bound(cycle_query(6)) == 2

    def test_cycliq_primal_clique(self):
        # CYCLIQ's rotations all share one variable set, so the primal
        # graph is K_p and min-degree elimination reports p - 1.
        variables = tuple(Variable(f"x{i}") for i in range(4))
        assert greedy_treewidth_bound(cycliq("R", variables)) == 3

    def test_single_atom(self):
        assert greedy_treewidth_bound(parse_query("E(x, y)")) == 1

    def test_empty_query(self):
        assert greedy_treewidth_bound(ConjunctiveQuery(())) == 0


class TestAnalyzeComponent:
    def test_path_profile(self):
        profile = analyze_component(path_query(3))
        assert profile.atom_count == 3
        assert profile.variable_count == 4
        assert profile.inequality_count == 0
        assert profile.acyclic
        assert profile.treewidth_bound == 1

    def test_cycle_is_gyo_cyclic(self):
        profile = analyze_component(cycle_query(3))
        assert not profile.acyclic
        assert profile.treewidth_bound == 2

    def test_cycliq_is_alpha_acyclic(self):
        # The classic α-acyclicity quirk: all CYCLIQ atoms cover the same
        # variable set, so GYO reduces it even though the primal graph is
        # a clique.  The planner must see it as Yannakakis-able, so the
        # compiled engine's array passes price it.
        variables = tuple(Variable(f"x{i}") for i in range(3))
        profile = analyze_component(cycliq("R", variables))
        assert profile.acyclic
        assert profile.treewidth_bound == 2

    def test_relations_keep_duplicates(self):
        # The profile keeps no per-atom relation list: the cost model
        # reads the component it prices, one fact scan per atom, so a
        # relation repeated across atoms is scanned twice.
        query = parse_query("E(x, y) & E(y, x)")
        structure = Structure(
            Schema.from_arities({"E": 2}), {"E": [(0, 1), (1, 2), (2, 0)]}
        )
        cost = estimate_cost(
            "compiled", query, analyze_component(query), structure
        )
        assert cost == (
            COMPILED_BASE + COMPILED_PER_FACT * 2 * 3 + COMPILED_PER_ATOM * 2
        )


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache()
        query = path_query(3)
        _, was_hit = cache.profile(query)
        assert not was_hit
        _, was_hit = cache.profile(query)
        assert was_hit
        assert cache.hits == 1 and cache.misses == 1

    def test_alpha_equivalent_components_share_one_entry(self):
        cache = PlanCache()
        cache.profile(parse_query("E(x, y) & E(y, z)"))
        _, was_hit = cache.profile(parse_query("E(a, b) & E(b, c)"))
        assert was_hit
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=1)
        cache.profile(path_query(2))
        cache.profile(cycle_query(3))
        assert len(cache) == 1
        # The evicted path profile must be recomputed.
        _, was_hit = cache.profile(parse_query("E(q1, q2) & E(q2, q3)"))
        assert not was_hit

    def test_stats_snapshot(self):
        cache = PlanCache()
        cache.profile(path_query(2))
        cache.profile(path_query(2))
        assert cache.stats() == {
            "entries": 1,
            "probation": 0,
            "max_entries": cache.max_entries,
            "hits": 1,
            "misses": 1,
            "promotions": 0,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            PlanCache(max_entries=0)


class TestEligibility:
    def test_backtracking_and_treewidth_always_eligible(self, edge_path):
        query = parse_query("E(x, y) & x != y")
        profile = analyze_component(query)
        assert set(eligible_engines(query, profile, edge_path)) >= {
            "backtracking",
            "treewidth",
        }

    # The compiled engine is *total* (it falls back to the interpreter
    # outside its envelope), but the planner must still gate it on the
    # specializer's envelope so an auto pick always means actually
    # compiling.  One test per gate:

    def test_compiled_requires_no_inequalities(self, edge_path):
        query = parse_query("E(x, y) & E(y, z) & x != z")
        profile = analyze_component(query)
        assert "compiled" not in eligible_engines(query, profile, edge_path)

    def test_compiled_requires_interpreted_constants(self, edge_path):
        query = parse_query("E(x, #nowhere)")
        profile = analyze_component(query)
        assert "compiled" not in eligible_engines(query, profile, edge_path)

    def test_compiled_requires_matching_arity(self, edge_path):
        query = parse_query("E(x, y, z)")
        profile = analyze_component(query)
        assert "compiled" not in eligible_engines(query, profile, edge_path)

    def test_compiled_does_not_require_gyo_reducibility(self, triangle):
        # Cyclic shapes take the closure chain.
        query = cycle_query(3)
        profile = analyze_component(query)
        assert eligible_engines(query, profile, triangle) == ENGINES

    def test_compiled_eligible_on_plain_acyclic_component(self, edge_path):
        query = path_query(3)
        profile = analyze_component(query)
        assert "compiled" in eligible_engines(query, profile, edge_path)


class TestSelection:
    def test_tiny_component_prefers_backtracking(self, loop_and_edge):
        query = parse_query("E(x, y) & E(y, x)")
        engine, _ = select_engine(
            query, analyze_component(query), loop_and_edge
        )
        assert engine == "backtracking"

    def test_long_path_prefers_compiled(self, dense):
        # Its array-semiring Yannakakis pass is linear in the facts.
        query = path_query(5)
        engine, _ = select_engine(query, analyze_component(query), dense)
        assert engine == "compiled"

    def test_dense_cycle_prefers_treewidth(self, dense):
        query = cycle_query(6)
        engine, _ = select_engine(query, analyze_component(query), dense)
        assert engine == "treewidth"

    def test_estimates_are_finite_and_positive(self, dense):
        query = cycle_query(12)
        profile = analyze_component(query)
        for engine in ENGINES:
            cost = estimate_cost(engine, query, profile, dense)
            assert 0 < cost <= 1e18

    def test_unknown_engine_rejected(self, dense):
        query = path_query(2)
        profile = analyze_component(query)
        for engine in ("quantum", "acyclic"):
            with pytest.raises(ValueError, match="no cost model"):
                estimate_cost(engine, query, profile, dense)


class TestPlan:
    def test_components_get_independent_steps(self, edge_path):
        query = parse_query("E(x, y) & E(a, b) & E(b, a)")
        result = plan(query, edge_path, cache=PlanCache())
        assert isinstance(result, Plan)
        assert len(result.steps) == 2
        assert all(step.exponent == 1 for step in result.steps)
        assert result.total_cost == pytest.approx(
            sum(step.est_cost for step in result.steps)
        )

    def test_query_product_carries_exponents(self, edge_path):
        product = QueryProduct.of(path_query(2), 3)
        result = plan(product, edge_path, cache=PlanCache())
        assert [step.exponent for step in result.steps] == [3]

    def test_explain_mentions_engine_and_cache(self, edge_path):
        cache = PlanCache()
        text = plan(path_query(5), edge_path, cache=cache).explain()
        assert "engine=" in text
        assert "plan cache:" in text
        assert "step 1:" in text

    def test_explain_empty_query(self, edge_path):
        text = plan(ConjunctiveQuery(()), edge_path).explain()
        assert "empty query" in text

    def test_select_for_matches_plan(self, edge_path):
        query = path_query(4)
        step = select_for(query, edge_path, cache=PlanCache())
        full = plan(query, edge_path, cache=PlanCache())
        assert step.engine == full.steps[0].engine
        assert step.est_cost == full.steps[0].est_cost

    def test_plan_rejects_non_queries(self, edge_path):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError, match="cannot plan"):
            plan("E(x, y)", edge_path)


class TestPlanCounters:
    def test_preregistered_at_zero(self, edge_path):
        with observe() as observation:
            plan(parse_query("E(x, y)"), edge_path, cache=PlanCache())
        metrics = observation.report()["metrics"]
        for name in (
            "plan.calls",
            "plan.components",
            "plan.cache_hits",
            "plan.cache_misses",
            *(f"plan.selected.{engine}" for engine in ENGINES),
        ):
            assert name in metrics, f"{name} not pre-registered"
        assert metrics["plan.calls"]["value"] == 1
        assert metrics["plan.components"]["value"] == 1
        assert metrics["plan.selected.treewidth"]["value"] == 0
        assert "plan.selected.acyclic" not in metrics

    def test_auto_count_records_selection(self, edge_path):
        with observe() as observation:
            count(path_query(5), edge_path, engine="auto")
        metrics = observation.report()["metrics"]
        selected = sum(
            metrics[f"plan.selected.{name}"]["value"] for name in ENGINES
        )
        assert selected == 1
        assert metrics["plan.components"]["value"] == 1

    def test_plan_spans_emitted(self, edge_path):
        with observe() as observation:
            plan(path_query(3), edge_path, cache=PlanCache())
        names = [root.name for root in observation.trace.roots]
        assert names == ["plan.analyze", "plan.select"]


class TestAutoParity:
    """auto ≡ every explicit engine, on the seeded differential corpus."""

    CASES = [case_at(index, seed=416) for index in range(40)]
    CQ_CASES = [case for case in CASES if case.kind == "cq"]

    @pytest.mark.parametrize(
        "case", CQ_CASES, ids=lambda case: f"case{case.index}"
    )
    def test_serial_parity(self, case):
        reference = count(case.query, case.structure, engine="backtracking")
        via_auto = count(case.query, case.structure, engine="auto")
        assert via_auto == reference
        assert count(case.query, case.structure, engine="treewidth") == reference

    @pytest.mark.parametrize(
        "case", CQ_CASES[:10], ids=lambda case: f"case{case.index}"
    )
    def test_cached_parity(self, case):
        reference = count(case.query, case.structure)
        cache = CountCache()
        assert (
            count(case.query, case.structure, engine="auto", cache=cache)
            == reference
        )
        # Second run hits the cache, which keys by the *selected* engine.
        assert (
            count(case.query, case.structure, engine="auto", cache=cache)
            == reference
        )
        assert cache.hits > 0

    def test_batched_parity(self):
        pairs = [(case.query, case.structure) for case in self.CQ_CASES]
        reference = [count(query, structure) for query, structure in pairs]
        assert count_many(pairs, engine="auto") == reference
        assert count_many(pairs, engine="auto", cache=False) == reference

    def test_workers_parity(self):
        pairs = [(case.query, case.structure) for case in self.CQ_CASES[:8]]
        reference = [count(query, structure) for query, structure in pairs]
        assert count_many(pairs, engine="auto", workers=2) == reference

    def test_error_parity_uninterpreted_constant(self, edge_path):
        from repro.errors import ConstantError

        query = parse_query("E(x, #nowhere)")
        with pytest.raises(ConstantError):
            count(query, edge_path, engine="backtracking")
        with pytest.raises(ConstantError):
            count(query, edge_path, engine="auto")

    def test_product_parity(self, dense):
        product = QueryProduct.of(path_query(3), 2)
        assert count(product, dense, engine="auto") == count(
            product, dense, engine="backtracking"
        )


class TestUcqSharedCache:
    def test_disjuncts_share_component_counts(self, dense):
        # Two α-equivalent paths in different disjuncts: the serial path
        # must count the component once and reuse it.
        ucq = UnionOfConjunctiveQueries(
            [
                (parse_query("E(x, y) & E(y, z)"), 2),
                (parse_query("E(a, b) & E(b, c)"), 3),
            ]
        )
        single = count(parse_query("E(x, y) & E(y, z)"), dense)
        with observe() as observation:
            total = count_ucq(ucq, dense)
        assert total == 5 * single
        metrics = observation.report()["metrics"]
        assert metrics["cache.hits"]["value"] >= 1

    def test_ucq_auto_parity(self, dense):
        ucq = UnionOfConjunctiveQueries(
            [(path_query(2), 1), (cycle_query(3), 2)]
        )
        assert count_ucq(ucq, dense, engine="auto") == count_ucq(
            ucq, dense, engine="backtracking"
        )


class TestExplainCli:
    def test_explain_canonical_database(self, capsys):
        from repro.cli import main

        exit_code = main(["explain", "--query", "E(x,y) & E(y,z)"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "plan: 1 component(s)" in out
        assert "engine=" in out

    def test_explain_inline_facts(self, capsys):
        from repro.cli import main

        exit_code = main(
            ["explain", "--query", "E(x,y)", "--facts", "E(a,b) E(b,a)"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "inline database (2 facts)" in out

    def test_evaluate_auto_stats_json_selects_one_engine(self, tmp_path):
        from repro.cli import main

        artifact = tmp_path / "plan_obs.json"
        exit_code = main(
            [
                "evaluate",
                "--query",
                "E(x,y) & E(y,z)",
                "--facts",
                "E(a,b) E(b,c) E(c,a)",
                "--engine",
                "auto",
                "--stats-json",
                str(artifact),
            ]
        )
        assert exit_code == 0
        metrics = json.loads(artifact.read_text())["metrics"]
        selected = sum(
            metrics[f"plan.selected.{name}"]["value"] for name in ENGINES
        )
        assert selected == metrics["plan.components"]["value"] == 1, metrics

    def test_evaluate_accepts_auto(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "evaluate",
                "--query",
                "E(x,y) & E(y,x)",
                "--facts",
                "E(a,b) E(b,a)",
                "--engine",
                "auto",
            ]
        )
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "2"
