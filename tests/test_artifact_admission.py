"""Compiled-artifact admission: a probation FIFO in front of the main LRU.

A counterexample search or cold traffic builds one artifact per
(component, database) pair and never looks it up again.  These tests pin
what the probation segment of :class:`~repro.planner.PlanCache` buys and
what it must keep working:

* one-shot artifacts leave in FIFO order and are released, so they
  neither pile up nor flush an artifact that was reused;
* reuse admits: an artifact hit, a delta refresh, or a count-cache hit
  on the component under the compiled engine;
* every segment-wide operation (snapshot, discard, invalidation, clear,
  stats) sees both segments.
"""

from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest

from repro.homomorphism import count
from repro.homomorphism.backtracking import count_homomorphisms
from repro.homomorphism.cache import CountCache
from repro.homomorphism.compiled import compile_component
from repro.homomorphism.delta import DeltaEvaluator
from repro.obs import observe
from repro.planner import PlanCache
from repro.planner.analyze import COMPILED_PROBATION
from repro.planner.plan import default_plan_cache, plan_cache_occupancy
from repro.queries import parse_query
from repro.relational import Schema, Structure
from repro.relational.structure import Delta

TRIANGLE = parse_query("E(x, y) & E(y, z) & E(z, x)")
ONE_SHOT = parse_query("E(a, b) & E(b, c)")

#: Every one-shot structure in this module is distinct, so none of them
#: is ever looked up twice.
_FRESH = itertools.count()


def _fresh_structure() -> Structure:
    """A database no other call sees: its fact set is unique."""
    i = next(_FRESH)
    return Structure(
        Schema.from_arities({"E": 2}),
        {"E": {(0, 1), (1, 2), (2, i + 3)}},
        domain=range(i + 4),
    )


def _random_graph(seed: int, n: int = 7, edges: int = 20) -> Structure:
    rng = random.Random(seed)
    return Structure(
        Schema.from_arities({"E": 2}),
        {"E": {(rng.randrange(n), rng.randrange(n)) for _ in range(edges)}},
        domain=range(n),
    )


class _Held:
    """A weak-referenceable artifact holder (artifacts use ``__slots__``)."""

    __slots__ = ("artifact", "__weakref__")

    def __init__(self, artifact) -> None:
        self.artifact = artifact


@pytest.fixture
def clean_default_plan_cache():
    default_plan_cache().clear()
    yield default_plan_cache()
    default_plan_cache().clear()


class TestScanResistance:
    def test_reused_artifact_survives_300_one_shot_builds(self):
        plan_cache = PlanCache()
        structure = _random_graph(0)
        _, first = plan_cache.compiled_artifact(
            TRIANGLE, structure, compile_component
        )
        _, second = plan_cache.compiled_artifact(
            TRIANGLE, structure, compile_component
        )
        assert (first, second) == (False, True)
        for _ in range(300):
            plan_cache.compiled_artifact(
                ONE_SHOT, _fresh_structure(), compile_component
            )
        artifact, hit = plan_cache.compiled_artifact(
            TRIANGLE, structure, compile_component
        )
        assert hit
        assert artifact.run() == count_homomorphisms(TRIANGLE, structure)
        stats = plan_cache.artifacts.stats()
        assert stats["entries"] == 1 + COMPILED_PROBATION
        assert stats["probation"] == COMPILED_PROBATION
        assert stats["misses"] == 301
        assert stats["hits"] == 2

    def test_one_shot_artifacts_are_released(self):
        plan_cache = PlanCache()
        built = []

        def build(canonical, structure):
            held = _Held(compile_component(canonical, structure))
            built.append(weakref.ref(held))
            return held

        for _ in range(300):
            plan_cache.compiled_artifact(ONE_SHOT, _fresh_structure(), build)
        gc.collect()
        assert plan_cache.artifacts.stats()["entries"] <= COMPILED_PROBATION
        evicted = built[:-COMPILED_PROBATION]
        assert all(ref() is None for ref in evicted)
        assert all(ref() is not None for ref in built[-COMPILED_PROBATION:])

    def test_probation_leaves_in_fifo_order(self):
        plan_cache = PlanCache()
        structures = [_fresh_structure() for _ in range(COMPILED_PROBATION + 1)]
        for structure in structures:
            plan_cache.compiled_artifact(ONE_SHOT, structure, compile_component)
        # The first build left; the second is the oldest still waiting.
        _, oldest_hit = plan_cache.compiled_artifact(
            ONE_SHOT, structures[1], compile_component
        )
        _, first_hit = plan_cache.compiled_artifact(
            ONE_SHOT, structures[0], compile_component
        )
        assert oldest_hit and not first_hit


class TestReuseAdmits:
    def test_probation_hit_promotes_and_counts(self):
        plan_cache = PlanCache()
        structure = _random_graph(1)
        plan_cache.compiled_artifact(TRIANGLE, structure, compile_component)
        assert plan_cache.artifacts.stats()["probation"] == 1
        with observe() as observation:
            _, hit = plan_cache.compiled_artifact(
                TRIANGLE, structure, compile_component
            )
            plan_cache.compiled_artifact(TRIANGLE, structure, compile_component)
        metrics = observation.report()["metrics"]
        assert hit
        assert metrics["plan.compile.cache_hits"]["value"] == 2
        assert metrics["plan.compile.promotions"]["value"] == 1
        stats = plan_cache.artifacts.stats()
        assert (stats["entries"], stats["probation"]) == (1, 0)

    def test_promote_compiled_moves_only_probation_entries(self):
        plan_cache = PlanCache()
        structure = _random_graph(2)
        plan_cache.compiled_artifact(TRIANGLE, structure, compile_component)
        (key, _), = plan_cache.artifacts.items()
        assert plan_cache.artifacts.promote(key)
        assert not plan_cache.artifacts.promote(key)  # already in main
        assert not plan_cache.artifacts.promote(("unknown", None))
        assert plan_cache.artifacts.stats()["probation"] == 0

    def test_store_compiled_skips_probation(self):
        plan_cache = PlanCache()
        structure = _random_graph(3)
        plan_cache.compiled_artifact(TRIANGLE, structure, compile_component)
        (key, artifact), = plan_cache.artifacts.items()
        plan_cache.artifacts.store(key, artifact, admit=True)
        stats = plan_cache.artifacts.stats()
        assert (stats["entries"], stats["probation"]) == (1, 0)

    def test_compiled_count_hit_promotes_the_artifact(
        self, clean_default_plan_cache
    ):
        structure = _random_graph(4)
        cache = CountCache()
        expected = count(TRIANGLE, structure, engine="backtracking")
        assert count(TRIANGLE, structure, engine="compiled", cache=cache) == expected
        assert clean_default_plan_cache.artifacts.stats()["probation"] == 1
        with observe() as observation:
            assert (
                count(TRIANGLE, structure, engine="compiled", cache=cache)
                == expected
            )
        metrics = observation.report()["metrics"]
        assert metrics["cache.hits"]["value"] == 1
        assert metrics["plan.compile.promotions"]["value"] == 1
        stats = clean_default_plan_cache.artifacts.stats()
        assert (stats["entries"], stats["probation"]) == (1, 0)

    def test_other_engines_count_hits_promote_nothing(
        self, clean_default_plan_cache
    ):
        structure = _random_graph(5)
        count(TRIANGLE, structure, engine="compiled")
        cache = CountCache()
        for _ in range(2):
            count(TRIANGLE, structure, engine="backtracking", cache=cache)
        assert clean_default_plan_cache.artifacts.stats()["probation"] == 1


class TestBothSegments:
    def _filled(self) -> PlanCache:
        """One artifact in each segment."""
        plan_cache = PlanCache()
        reused, waiting = _random_graph(6), _random_graph(7)
        for _ in range(2):
            plan_cache.compiled_artifact(TRIANGLE, reused, compile_component)
        plan_cache.compiled_artifact(TRIANGLE, waiting, compile_component)
        stats = plan_cache.artifacts.stats()
        assert (stats["entries"], stats["probation"]) == (2, 1)
        return plan_cache

    def test_items_list_both_segments(self):
        plan_cache = self._filled()
        assert len(plan_cache.artifacts.items()) == 2

    def test_discard_reaches_probation(self):
        plan_cache = self._filled()
        for key, _ in plan_cache.artifacts.items():
            assert plan_cache.artifacts.discard(key)
            assert not plan_cache.artifacts.discard(key)
        assert plan_cache.artifacts.stats()["entries"] == 0

    def test_invalidation_reaches_probation(self):
        plan_cache = self._filled()
        assert plan_cache.invalidate_relations({"F"}) == 0
        assert plan_cache.invalidate_relations({"E"}) == 2
        assert plan_cache.artifacts.stats()["entries"] == 0

    def test_clear_empties_both(self):
        plan_cache = self._filled()
        plan_cache.clear()
        stats = plan_cache.artifacts.stats()
        assert (stats["entries"], stats["probation"]) == (0, 0)

    def test_healthz_occupancy_shows_probation(self):
        plan_cache = self._filled()
        compiled = plan_cache_occupancy(plan_cache)["compiled"]
        assert compiled["probation"] == 1
        assert compiled["entries"] == 2


class TestMixedTraffic:
    def test_resident_artifacts_refresh_through_one_shot_churn(
        self, clean_default_plan_cache
    ):
        """The E21 shape (k = 4) with 40 one-shot builds between updates.

        A resident database's repeat reads are count-cache hits, so its
        artifacts are never looked up again; only the count-hit
        promotion keeps them out of the churned probation FIFO until
        the next delta refreshes them.
        """
        rng = random.Random(11)
        relations = [f"R{i}" for i in range(4)]
        n = 6
        structure = Structure(
            Schema.from_arities({name: 2 for name in relations}),
            {
                name: {(rng.randrange(n), rng.randrange(n)) for _ in range(10)}
                for name in relations
            },
            domain=range(n),
        )
        query = parse_query(
            " & ".join(
                f"{name}(a{i}, b{i}) & {name}(b{i}, c{i}) & "
                f"{name}(c{i}, d{i}) & {name}(d{i}, a{i})"
                for i, name in enumerate(relations)
            )
        )
        evaluator = DeltaEvaluator(structure, engine="compiled")
        evaluator.evaluate(query)
        refreshed = []
        for round_ in range(3):
            for relation in relations:
                evaluator.evaluate(query)  # a repeat read: count hits
                for _ in range(40):
                    count(ONE_SHOT, _fresh_structure(), engine="compiled")
                facts = sorted(evaluator.structure.facts(relation))
                if round_ % 2 == 0:
                    fact = (rng.randrange(n), rng.randrange(n))
                    while fact in evaluator.structure.facts(relation):
                        fact = (rng.randrange(n), rng.randrange(n))
                    delta = Delta(inserts=[(relation, fact)])
                else:
                    delta = Delta(deletes=[(relation, rng.choice(facts))])
                refreshed.append(evaluator.apply(delta).refreshed_artifacts)
                cold = count(
                    query,
                    evaluator.structure,
                    engine="backtracking",
                    cache=CountCache(),
                )
                assert evaluator.evaluate(query) == cold
        assert refreshed == [1] * (3 * len(relations))
