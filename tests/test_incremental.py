"""The incremental layer: deltas, fingerprints, and versioned databases.

Covers the whole delta pipeline bottom-up:

* :class:`Delta` — normalization, touched relations, serialization;
* :meth:`Structure.apply_delta` — insert/delete semantics (deletes win,
  no-ops are lenient, domains only grow), the three ``SchemaError``
  refusals, and structural sharing of untouched relations;
* content fingerprints — order independence, O(|delta|) XOR updates
  agreeing with from-scratch rebuilds, context sensitivity;
* :meth:`CountCache.invalidate_relations` — relation-scoped eviction;
* :class:`DeltaEvaluator` — version bookkeeping, migration of provably
  unaffected entries (the constant-intersection refinement), Lemma-1
  factor reuse, and bit-identical agreement with cold full recounts;
* the service layer — :class:`DatabaseRegistry` semantics and the live
  ``/db`` → ``/evaluate`` → ``/update`` round-trip over real HTTP.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SchemaError
from repro.homomorphism import count
from repro.homomorphism.cache import CountCache
from repro.homomorphism.delta import DeltaEvaluator, delta_affects
from repro.io import SerializationError, delta_from_dict, delta_to_dict
from repro.queries import parse_query
from repro.relational import Schema, Structure
from repro.relational.structure import Delta
from repro.service import (
    EvaluationServer,
    RemoteError,
    ServerConfig,
    ServiceClient,
    ServiceProtocolError,
)
from repro.service.databases import DatabaseRegistry
from repro.service.protocol import BadRequestError


def _graph(edges, n: int = 8, extra: dict | None = None) -> Structure:
    arities = {"E": 2}
    facts = {"E": set(edges)}
    for name, tuples in (extra or {}).items():
        arities[name] = len(next(iter(tuples)))
        facts[name] = set(tuples)
    return Structure(
        Schema.from_arities(arities), facts, domain=range(n)
    )


TRIANGLE = _graph({(0, 1), (1, 2), (2, 0)})


class TestDelta:
    def test_normalizes_to_tuples(self):
        delta = Delta(
            inserts=[("E", [1, 2])],
            deletes=[("E", (2, 1))],
            add_elements=[9],
        )
        assert delta.inserts == (("E", (1, 2)),)
        assert delta.deletes == (("E", (2, 1)),)
        assert delta.add_elements == (9,)
        assert delta.remove_elements == ()

    def test_touched_relations_and_is_empty(self):
        assert Delta().is_empty()
        assert Delta().touched_relations() == set()
        delta = Delta(inserts=[("E", (0, 1))], deletes=[("F", (2,))])
        assert not delta.is_empty()
        assert delta.touched_relations() == {"E", "F"}
        assert not Delta(add_elements=[7]).is_empty()

    def test_io_round_trip(self):
        delta = Delta(
            inserts=[("E", (0, "a"))],
            deletes=[("E", (1, 1))],
            add_elements=[5],
            remove_elements=["b"],
        )
        assert delta_from_dict(delta_to_dict(delta)) == delta

    def test_io_rejects_malformed_payloads(self):
        with pytest.raises(SerializationError):
            delta_from_dict("not a dict")
        with pytest.raises(SerializationError):
            delta_from_dict({"inserts": [["E"]]})  # fact missing values
        with pytest.raises(SerializationError):
            delta_from_dict({"inserts": [[7, [1, 2]]]})  # non-str name


class TestApplyDelta:
    def test_insert_and_delete(self):
        after = TRIANGLE.apply_delta(
            Delta(inserts=[("E", (0, 2))], deletes=[("E", (2, 0))])
        )
        assert after.facts("E") == {(0, 1), (1, 2), (0, 2)}
        # The original is untouched: structures are immutable values.
        assert TRIANGLE.facts("E") == {(0, 1), (1, 2), (2, 0)}

    def test_deletes_win_over_inserts(self):
        after = TRIANGLE.apply_delta(
            Delta(inserts=[("E", (5, 5))], deletes=[("E", (5, 5))])
        )
        assert (5, 5) not in after.facts("E")

    def test_no_ops_are_lenient(self):
        same_facts = TRIANGLE.apply_delta(
            Delta(inserts=[("E", (0, 1))], deletes=[("E", (6, 6))])
        )
        assert same_facts.facts("E") == TRIANGLE.facts("E")

    def test_empty_delta_returns_self(self):
        assert TRIANGLE.apply_delta(Delta()) is TRIANGLE

    def test_inserts_grow_the_domain(self):
        after = _graph({(0, 1)}, n=2).apply_delta(
            Delta(inserts=[("E", (1, 7))], add_elements=[9])
        )
        assert set(after.domain) == {0, 1, 7, 9}

    def test_deletes_never_shrink_the_domain(self):
        after = TRIANGLE.apply_delta(Delta(deletes=[("E", (0, 1))]))
        assert set(after.domain) == set(TRIANGLE.domain)

    def test_remove_elements(self):
        lonely = _graph({(0, 1)}, n=4)
        after = lonely.apply_delta(Delta(remove_elements=[3, 9]))
        assert set(after.domain) == {0, 1, 2}

    def test_rejects_undeclared_relation(self):
        with pytest.raises(SchemaError, match="undeclared relation"):
            TRIANGLE.apply_delta(Delta(inserts=[("G", (0, 1))]))

    def test_rejects_removing_element_used_by_facts(self):
        with pytest.raises(SchemaError, match="still used by facts"):
            TRIANGLE.apply_delta(Delta(remove_elements=[0]))

    def test_rejects_removing_element_interpreting_a_constant(self):
        pinned = _graph({(0, 1)}, n=4).with_constant("c", 3)
        with pytest.raises(SchemaError, match="interprets a constant"):
            pinned.apply_delta(Delta(remove_elements=[3]))

    def test_untouched_relations_share_storage(self):
        both = _graph({(0, 1)}, extra={"F": {(2,), (3,)}})
        after = both.apply_delta(Delta(inserts=[("E", (4, 5))]))
        assert after.facts("F") is both.facts("F")


class TestFingerprints:
    def test_fingerprints_are_pinned(self):
        """Durable snapshot names and router keys are built on these
        digests, so they may never change across releases."""
        import _blake2
        import hashlib

        assert _blake2.blake2b is hashlib.blake2b
        structure = Structure(
            Schema.from_arities({"E": 2, "U": 1}),
            {"E": [(0, 1), (1, 2), (2, 0)], "U": [("a",)]},
            constants={"c": 0},
            domain=[7],
        )
        assert structure.relation_fingerprint("E") == (
            0x2A733696EBD356A1C73D14BFA0C7A053
        )
        assert structure.relation_fingerprint("U") == (
            0xF493B644D617A81C2C9EAA850B269D53
        )
        assert structure.context_fingerprint() == (
            0xB85B5C69BB9BD35F49430D019FA90845
        )
        assert structure.fingerprint() == "c6e1d4fd90a06a7f"

    def test_relation_fingerprint_is_order_independent(self):
        a = _graph({(0, 1), (1, 2), (2, 0)})
        b = _graph({(2, 0), (0, 1), (1, 2)})
        assert a.relation_fingerprint("E") == b.relation_fingerprint("E")
        assert a.fingerprint() == b.fingerprint()

    def test_xor_update_matches_rebuild(self):
        base = _graph({(0, 1), (1, 2)})
        base.fingerprint()  # force the incremental (cached) path
        updated = base.apply_delta(
            Delta(inserts=[("E", (2, 3))], deletes=[("E", (0, 1))])
        )
        rebuilt = _graph({(1, 2), (2, 3)})
        assert updated.relation_fingerprint("E") == rebuilt.relation_fingerprint("E")

    def test_reverting_a_delta_restores_the_fingerprint(self):
        before = TRIANGLE.fingerprint()
        there = TRIANGLE.apply_delta(Delta(inserts=[("E", (0, 2))]))
        back = there.apply_delta(Delta(deletes=[("E", (0, 2))]))
        assert there.fingerprint() != before
        assert back.fingerprint() == before

    def test_context_fingerprint_tracks_domain_and_constants(self):
        base = _graph({(0, 1)}, n=4)
        grown = base.apply_delta(Delta(add_elements=[11]))
        assert grown.context_fingerprint() != base.context_fingerprint()
        assert grown.relation_fingerprint("E") == base.relation_fingerprint("E")
        pinned = base.with_constant("c", 0)
        assert pinned.context_fingerprint() != base.context_fingerprint()

    def test_fingerprint_vector_shape(self):
        vector = dict(TRIANGLE.fingerprint_vector())
        assert "E" in vector and vector["E"] is not None


class TestInvalidateRelations:
    def test_eviction_is_relation_scoped(self):
        structure = _graph({(0, 1), (1, 2)}, extra={"F": {(0,), (3,)}})
        cache = CountCache()
        for text in ("E(x, y)", "F(x)"):
            count(parse_query(text), structure, engine="auto", cache=cache)

        cache.invalidate_relations({"E"})
        assert cache.stats()["entries"] == 1  # only the F entry remains
        misses = cache.misses
        hits = cache.hits
        assert count(parse_query("F(x)"), structure, cache=cache) == 2
        assert cache.hits == hits + 1  # F survived
        assert count(parse_query("E(x, y)"), structure, cache=cache) == 2
        assert cache.misses == misses + 1  # E was evicted
        # Invalidation is not capacity pressure: evictions stay at zero.
        assert cache.evictions == 0


class TestDeltaEvaluator:
    def test_versions_and_reports(self):
        evaluator = DeltaEvaluator(TRIANGLE, engine="auto")
        assert evaluator.version == 0
        report = evaluator.apply(Delta(inserts=[("E", (0, 2))]))
        assert report.version == 1 == evaluator.version
        assert report.touched_relations == ("E",)
        assert not report.domain_changed
        assert report.fingerprint == evaluator.structure.fingerprint()
        assert "version=1" in report.describe()
        stats = evaluator.stats()
        assert stats["version"] == 1

    def test_agrees_with_cold_full_recount(self):
        rng = random.Random(7)
        n = 6
        structure = _graph(
            {(rng.randrange(n), rng.randrange(n)) for _ in range(12)},
            n=n,
            extra={"F": {(0,), (1,)}},
        )
        queries = [
            parse_query("E(x, y) & E(y, z)"),
            parse_query("E(x, y) & F(z)"),
        ]
        evaluator = DeltaEvaluator(structure, engine="auto")
        full = structure
        for step in range(10):
            relation = "E" if step % 2 == 0 else "F"
            arity = 2 if relation == "E" else 1
            fact = tuple(rng.randrange(n) for _ in range(arity))
            if step % 3 == 2:
                delta = Delta(deletes=[(relation, fact)])
            else:
                delta = Delta(inserts=[(relation, fact)])
            evaluator.apply(delta)
            full = full.apply_delta(delta)
            assert evaluator.structure == full
            for query in queries:
                cold = count(
                    query, full, engine="backtracking", cache=CountCache()
                )
                assert evaluator.evaluate(query) == cold

    def test_constant_guard_migrates_unaffected_entries(self):
        pinned = _graph(
            {(9, 9)}, n=10, extra={"F": {(0, 1), (0, 2), (1, 2)}}
        ).with_constant("c", 0)
        query = parse_query("F(#c, x)")
        evaluator = DeltaEvaluator(pinned, engine="auto")
        assert evaluator.evaluate(query) == 2

        # F(5, 6) cannot match F(#c, x): position 0 is pinned to 0 != 5.
        delta = Delta(inserts=[("F", (5, 6))])
        assert not delta_affects(
            query, delta, pinned, pinned.apply_delta(delta)
        )
        report = evaluator.apply(delta)
        assert report.migrated >= 1
        assert report.invalidated == 0
        misses = evaluator.cache.misses
        assert evaluator.evaluate(query) == 2  # served by the migrated entry
        assert evaluator.cache.misses == misses

        # F(0, 7) does match, so the entry must be recounted.
        report = evaluator.apply(Delta(inserts=[("F", (0, 7))]))
        assert report.invalidated >= 1
        assert evaluator.evaluate(query) == 3

    def test_key_pattern_proves_what_the_query_proves(self):
        """Migration reads the entry's ComponentKey, not the query: for
        every delta, the key's verdict equals the query's."""
        from repro.homomorphism.cache import component_fingerprint, component_key

        base = _graph(
            {(0, 0), (0, 1), (2, 2)}, n=4, extra={"F": {(0, 1), (1, 1)}}
        ).with_constant("c", 0)
        queries = [
            parse_query(text)
            for text in (
                "E(x, x)",
                "E(x, y) & E(y, y)",
                "F(#c, x) & E(x, x)",
                "F(x, x) & E(x, y)",
                "E(x, y) & E(y, z)",
            )
        ]
        rng = random.Random(7)
        for _ in range(60):
            relation = rng.choice(["E", "F"])
            fact = (rng.randrange(4), rng.randrange(4))
            delta = (
                Delta(inserts=[(relation, fact)])
                if rng.random() < 0.5
                else Delta(deletes=[(relation, fact)])
            )
            new = base.apply_delta(delta)
            for query in queries:
                fingerprint = component_fingerprint(query, base)
                assert delta_affects(
                    component_key(query),
                    delta,
                    base,
                    new,
                    fingerprint[2] is not None,
                ) == delta_affects(query, delta, base, new), (query, delta)

    def test_noop_delta_keeps_the_entry(self):
        """A delta that changes no fact keeps the fingerprint, so the
        entry it migrates stays where it is and still hits."""
        evaluator = DeltaEvaluator(_graph({(0, 1), (1, 1)}, n=3))
        query = parse_query("E(x, x)")
        assert evaluator.evaluate(query) == 1
        report = evaluator.apply(Delta(inserts=[("E", (1, 1))]))
        assert (report.migrated, report.invalidated) == (1, 0)
        assert len(evaluator.cache) == 1
        hits = evaluator.cache.hits
        assert evaluator.evaluate(query) == 1
        assert evaluator.cache.hits == hits + 1

    def test_lemma1_factors_are_reused_across_versions(self):
        facts = {
            f"R{i}": {(j, (j + 1) % 5) for j in range(5)} for i in range(3)
        }
        structure = Structure(
            Schema.from_arities({name: 2 for name in facts}),
            facts,
            domain=range(5),
        )
        query = parse_query(
            "R0(x0, y0) & R1(x1, y1) & R2(x2, y2)"
        )
        evaluator = DeltaEvaluator(structure, engine="auto")
        assert evaluator.evaluate(query) == 5 * 5 * 5

        evaluator.apply(Delta(inserts=[("R0", (0, 3))]))
        hits, misses = evaluator.cache.hits, evaluator.cache.misses
        assert evaluator.evaluate(query) == 6 * 5 * 5
        # Only the R0 factor is recounted; R1 and R2 come from cache.
        assert evaluator.cache.hits == hits + 2
        assert evaluator.cache.misses == misses + 1


class TestDatabaseRegistry:
    def test_load_get_update(self):
        registry = DatabaseRegistry()
        database = registry.load("g", TRIANGLE)
        assert database.version == 0
        assert registry.get("g") is database
        assert registry.names() == ["g"]
        report = registry.update("g", Delta(inserts=[("E", (0, 2))]))
        assert report.version == 1
        assert registry.get("g").version == 1
        snapshot = registry.snapshot()["g"]
        assert snapshot["version"] == 1
        assert snapshot["fact_count"] == 4

    def test_rebinding_resets_the_version(self):
        registry = DatabaseRegistry()
        registry.load("g", TRIANGLE)
        registry.update("g", Delta(inserts=[("E", (0, 2))]))
        assert registry.load("g", TRIANGLE).version == 0

    def test_unknown_name_and_capacity(self):
        registry = DatabaseRegistry(max_databases=1)
        with pytest.raises(BadRequestError, match="unknown database"):
            registry.get("nope")
        registry.load("a", TRIANGLE)
        with pytest.raises(BadRequestError, match="database limit"):
            registry.load("b", TRIANGLE)
        registry.load("a", TRIANGLE)  # rebinding an existing name is fine

    def test_rejects_bad_names(self):
        registry = DatabaseRegistry()
        with pytest.raises(BadRequestError):
            registry.load("", TRIANGLE)
        with pytest.raises(BadRequestError):
            registry.load("x" * 65, TRIANGLE)
        with pytest.raises(ValueError):
            DatabaseRegistry(max_databases=0)


@pytest.fixture(scope="module")
def server():
    with EvaluationServer(ServerConfig(workers=2, queue_depth=16)) as srv:
        yield srv


class TestServiceRoundTrip:
    def test_db_update_evaluate_round_trip(self, server):
        client = ServiceClient(server.url, seed=0)
        named = Structure(
            Schema.from_arities({"E": 2}),
            {"E": {("a", "b"), ("b", "c"), ("c", "a")}},
            domain=["a", "b", "c"],
        )
        snapshot = client.load_db("roundtrip", named)
        assert snapshot["version"] == 0
        assert snapshot["fact_count"] == 3

        query = "E(x, y) & E(y, z)"
        assert client.evaluate(query, db="roundtrip") == 3

        report = client.update("roundtrip", insert="E(a, c)")
        assert report["version"] == 1
        assert report["touched_relations"] == ["E"]
        assert client.evaluate(query, db="roundtrip") == 5

        report = client.update("roundtrip", delete="E(a, c)")
        assert report["version"] == 2
        assert client.evaluate(query, db="roundtrip") == 3

        health = client.healthz()
        assert health["databases"]["roundtrip"]["version"] == 2

    def test_db_rejects_an_unknown_engine(self, server):
        # Checked at load, as /evaluate checks it: a 422 with the
        # library's class, and no database is bound.
        client = ServiceClient(server.url, seed=0, retries=0)
        for engine in ("nonsense", "acyclic"):
            with pytest.raises(RemoteError) as excinfo:
                client.load_db("checked", TRIANGLE, engine=engine)
            assert excinfo.value.status == 422
            assert excinfo.value.kind == "EvaluationError"
            assert "unknown engine" in str(excinfo.value)
        assert "checked" not in client.healthz()["databases"]

    def test_delta_object_update(self, server):
        client = ServiceClient(server.url, seed=0)
        client.load_db("ints", TRIANGLE)
        report = client.update(
            "ints", delta=Delta(inserts=[("E", (0, 2))])
        )
        assert report["version"] == 1
        assert client.evaluate("E(x, y)", db="ints") == 4

    def test_target_must_be_exactly_one(self, server):
        client = ServiceClient(server.url, seed=0)
        with pytest.raises(ServiceProtocolError):
            client.evaluate("E(x, y)")  # neither structure nor db
        with pytest.raises(ServiceProtocolError):
            client.evaluate("E(x, y)", structure=TRIANGLE, db="ints")

    def test_unknown_database_is_a_clean_error(self, server):
        client = ServiceClient(server.url, seed=0, retries=0)
        with pytest.raises((ServiceProtocolError, RemoteError)):
            client.evaluate("E(x, y)", db="never-loaded")
        with pytest.raises((ServiceProtocolError, RemoteError)):
            client.update("never-loaded", insert="E(a, b)")
