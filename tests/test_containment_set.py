"""The set-semantics containment tier: ``repro.containment_set``.

Chandra–Merlin units on the shapes the paper leans on (paths, cycles,
CYCLIQ rotations, the Definition-3 gadget queries), the Sagiv–Yannakakis
all/any matrix for unions, engine parity — every engine must return the
*bit-identical* verdict, witness, and certificate — the α-equivalence
keyed :class:`ContainmentCache`, error-class parity with direct
evaluation, the ``find_counterexample`` prescreen, and the ``/contain``
service endpoint.
"""

from __future__ import annotations

import pytest

from repro.containment_set import (
    AbsenceCertificate,
    ContainmentCache,
    containment_cache_key,
    cq_contained,
    cq_containment,
    default_containment_cache,
    ucq_contained,
    ucq_containment,
)
from repro.core import alpha_gadget, cycliq, gamma_gadget
from repro.decision.search import find_counterexample
from repro.errors import ConstantError, EvaluationError, QueryError
from repro.homomorphism import (
    CountCache,
    count,
    count_homomorphisms_acyclic,
    is_homomorphism,
)
from repro.obs import observe
from repro.queries import parse_query, variables
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Variable
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.workloads import cycle_query, path_query, random_queries, star_query

PARITY_ENGINES = ["auto", "backtracking", "treewidth", "compiled"]


def _witness_is_hom(verdict, phi_s, phi_b) -> bool:
    """The reported witness really is a hom ``φ_b → canonical(φ_s)``."""
    return is_homomorphism(
        dict(verdict.witness), phi_b, phi_s.canonical_structure()
    )


class TestChandraMerlin:
    """CQ ⊆ CQ on the canonical shapes."""

    def test_reflexive_on_paths(self):
        for length in (1, 2, 4):
            query = path_query(length)
            verdict = cq_containment(query, query)
            assert verdict.contained
            assert _witness_is_hom(verdict, query, query)

    def test_longer_path_contained_in_shorter(self):
        # A 2-path maps into the canonical 4-path, not vice versa.
        assert cq_contained(path_query(4), path_query(2))
        assert not cq_contained(path_query(2), path_query(4))

    def test_cycle_divisibility(self):
        # C6 wraps twice around canonical(C3); the triangle cannot map
        # into the bipartite-free... into the directed 6-cycle.
        assert cq_contained(cycle_query(3), cycle_query(6))
        assert not cq_contained(cycle_query(6), cycle_query(3))

    def test_cycle_contained_in_path(self):
        assert cq_contained(cycle_query(3), path_query(2))
        assert not cq_contained(path_query(2), cycle_query(3))

    def test_negative_certificate_prices_the_separation(self):
        verdict = cq_containment(cycle_query(6), cycle_query(3))
        certificate = verdict.certificate
        assert isinstance(certificate, AbsenceCertificate)
        # canonical(C6) admits the six rotations of C6 and no triangle.
        assert certificate.lhs == 6
        assert certificate.rhs == 0
        assert count(cycle_query(6), certificate.structure) == 6
        assert count(cycle_query(3), certificate.structure) == 0

    def test_positive_verdict_has_no_certificate_and_vice_versa(self):
        positive = cq_containment(cycle_query(3), cycle_query(6))
        assert positive.certificate is None and positive.witness is not None
        negative = cq_containment(cycle_query(6), cycle_query(3))
        assert negative.witness is None and negative.certificate is not None

    def test_want_witness_false_skips_enumeration(self):
        verdict = cq_containment(path_query(3), path_query(2), want_witness=False)
        assert verdict.contained and verdict.witness is None

    def test_cycliq_rotation_equivalence(self):
        # CYCLIQ is rotation-closed by construction, so rotating the
        # tuple yields a set-equivalent query.
        original = cycliq("R", variables("a", "b", "c"))
        rotated = cycliq("R", variables("b", "c", "a"))
        assert cq_contained(original, rotated)
        assert cq_contained(rotated, original)

    def test_definition3_gadget_queries(self):
        # γ_s / γ_b (Lemma 10) are inequality-free: the classical test
        # applies, the verdict must match a direct hom-existence count,
        # and positive witnesses must check out.
        gadget = gamma_gadget(3)
        for phi_s, phi_b in (
            (gadget.query_s, gadget.query_b),
            (gadget.query_b, gadget.query_s),
        ):
            if not phi_b.constants <= phi_s.constants:
                # canonical(φ_s) cannot interpret φ_b's extra constant —
                # the same ConstantError direct evaluation raises.
                with pytest.raises(ConstantError):
                    cq_containment(phi_s, phi_b)
                continue
            verdict = cq_containment(phi_s, phi_b)
            expected = count(phi_b, phi_s.canonical_structure()) > 0
            assert verdict.contained is expected
            if verdict.contained:
                assert _witness_is_hom(verdict, phi_s, phi_b)
            else:
                assert count(phi_b, verdict.certificate.structure) == 0

    def test_definition3_inequality_side_is_rejected(self):
        # α_b carries one inequality (Definition 3's bag gadget); the
        # Chandra-Merlin test refuses it on either side.
        gadget = alpha_gadget(2)
        with pytest.raises(QueryError):
            cq_containment(gadget.query_s, gadget.query_b)
        with pytest.raises(QueryError):
            cq_containment(gadget.query_b, gadget.query_s)
        # Stripped of the inequality it participates normally.
        stripped = gadget.query_b.without_inequalities()
        assert cq_contained(stripped, stripped)

    def test_constants_flow_through(self):
        phi_s = parse_query("E(x,#heart) & E(#heart,x)")
        phi_b = parse_query("E(y,#heart)")
        verdict = cq_containment(phi_s, phi_b)
        assert verdict.contained
        assert _witness_is_hom(verdict, phi_s, phi_b)


class TestUCQ:
    """The all/any reduction over the coverage matrix."""

    def test_union_contained_in_superset_union(self):
        left = [path_query(2), cycle_query(3)]
        right = [path_query(2), cycle_query(3), cycle_query(6)]
        verdict = ucq_containment(left, right)
        assert verdict.contained
        assert len(verdict.coverage) == 2
        assert all(entry.covered for entry in verdict.coverage)
        assert verdict.certificate is None

    def test_uncovered_disjunct_supplies_certificate(self):
        # path4 has no hom target for C3: not covered.
        left = [path_query(4), cycle_query(3)]
        right = [cycle_query(3)]
        verdict = ucq_containment(left, right)
        assert not verdict.contained
        uncovered = [e for e in verdict.coverage if not e.covered]
        assert [e.disjunct for e in uncovered] == [0]
        certificate = verdict.certificate
        # The certificate satisfies the left union but no right disjunct.
        assert count(path_query(4), certificate.structure) >= 1
        assert count(cycle_query(3), certificate.structure) == 0

    def test_coverage_matrix_is_complete_even_on_failure(self):
        # The outer loop never short-circuits: every left disjunct gets
        # a coverage row even after the verdict is already negative.
        left = [path_query(4), cycle_query(3), cycle_query(6)]
        right = [cycle_query(3)]
        verdict = ucq_containment(left, right)
        assert [entry.disjunct for entry in verdict.coverage] == [0, 1, 2]
        assert [entry.covered for entry in verdict.coverage] == [
            False,
            True,
            False,
        ]

    def test_witnesses_map_each_disjunct(self):
        left = [cycle_query(3), path_query(3)]
        right = [path_query(1), cycle_query(6)]
        verdict = ucq_containment(left, right)
        assert verdict.contained
        for entry in verdict.coverage:
            container = right[entry.container]
            containee = left[entry.disjunct]
            assert is_homomorphism(
                dict(entry.witness), container, containee.canonical_structure()
            )

    def test_accepts_cq_and_ucq_inputs(self):
        union = UnionOfConjunctiveQueries(
            [(path_query(2), 2), (cycle_query(3), 0)]
        )
        # Zero-multiplicity disjuncts are dropped: the union is just
        # {path2}, which a bare CQ on the other side matches.
        verdict = ucq_containment(union, path_query(2))
        assert verdict.contained and len(verdict.coverage) == 1
        assert ucq_contained(path_query(3), union)

    def test_empty_right_side_priced_directly(self):
        verdict = ucq_containment([cycle_query(3)], [])
        assert not verdict.contained
        assert verdict.certificate.lhs >= 1
        assert verdict.certificate.rhs == 0

    def test_rejects_non_query_input(self):
        with pytest.raises(QueryError):
            ucq_containment("E(x,y)", [path_query(2)])
        with pytest.raises(QueryError):
            ucq_containment([path_query(2)], [path_query(2), "junk"])

    def test_short_circuit_counters(self):
        with observe() as observation:
            ucq_containment([cycle_query(3)], [path_query(1), cycle_query(6)])
            metrics = observation.report()["metrics"]
        # One covered disjunct out of two containers: at most two pairs
        # tested, and skipped candidates are accounted as short-circuits.
        tested = metrics["contain.ucq.pairs_tested"]["value"]
        skipped = metrics.get("contain.ucq.short_circuits", {}).get("value", 0)
        assert tested + skipped == 2
        assert tested >= 1

    def test_container_with_alien_constant_is_skipped_not_fatal(self):
        # canonical(path2) does not interpret #heart: that pair alone
        # raises ConstantError at the CQ level, but the union-level
        # answer survives via the other container.
        alien = parse_query("E(x,#heart)")
        with pytest.raises(ConstantError):
            cq_containment(path_query(2), alien)
        with observe() as observation:
            assert ucq_contained([path_query(2)], [alien, path_query(2)])
            metrics = observation.report()["metrics"]
        assert metrics["contain.ucq.constant_skips"]["value"] >= 1


PARITY_PAIRS = [
    ("paths", path_query(4), path_query(2)),
    ("paths-neg", path_query(2), path_query(4)),
    ("cycles", cycle_query(3), cycle_query(6)),
    ("cycles-neg", cycle_query(6), cycle_query(3)),
    ("star-vs-path", star_query(3), path_query(1)),
    ("gamma", gamma_gadget(3).query_s, gamma_gadget(3).query_b),
    (
        "cycliq",
        cycliq("R", variables("a", "b", "c")),
        cycliq("R", variables("b", "c", "a")),
    ),
]
_RANDOM = list(
    random_queries(
        path_query(2).schema, count=6, variable_count=3, atom_count=3, seed=77
    )
)
PARITY_PAIRS += [
    (f"random-{index}", _RANDOM[index], _RANDOM[index + 1])
    for index in range(0, len(_RANDOM) - 1, 2)
]


class TestEngineParity:
    """All engines return the same verdict, witness, and certificate."""

    @pytest.mark.parametrize(
        "name,phi_s,phi_b", PARITY_PAIRS, ids=[n for n, _, _ in PARITY_PAIRS]
    )
    def test_cq_verdicts_bit_identical(self, name, phi_s, phi_b):
        reference = cq_containment(phi_s, phi_b, engine="backtracking")
        for engine in PARITY_ENGINES:
            other = cq_containment(phi_s, phi_b, engine=engine)
            assert other.contained is reference.contained
            assert other.witness == reference.witness
            if reference.certificate is None:
                assert other.certificate is None
            else:
                assert (
                    other.certificate.to_dict()
                    == reference.certificate.to_dict()
                )

    @pytest.mark.parametrize("engine", PARITY_ENGINES)
    def test_cached_run_identical_to_cold(self, engine):
        cache = ContainmentCache()
        count_cache = CountCache()
        pairs = [(p, q) for _, p, q in PARITY_PAIRS]
        cold = [
            cq_containment(p, q, engine=engine).to_dict() for p, q in pairs
        ]
        warm_once = [
            cq_containment(
                p, q, engine=engine, cache=cache, count_cache=count_cache
            ).to_dict()
            for p, q in pairs
        ]
        warm_twice = [
            cq_containment(
                p, q, engine=engine, cache=cache, count_cache=count_cache
            ).to_dict()
            for p, q in pairs
        ]
        assert cold == warm_once == warm_twice
        assert cache.hits >= len(pairs)

    def test_acyclic_engine_on_acyclic_instances(self):
        # The Yannakakis counter is a reference, not an engine: naming it
        # raises as any unknown engine does, and the verdict agrees with
        # what it counts on the canonical database.
        reference = cq_containment(path_query(4), path_query(2))
        with pytest.raises(EvaluationError, match="unknown engine"):
            cq_containment(path_query(4), path_query(2), engine="acyclic")
        canonical = path_query(4).canonical_structure()
        via_reference = count_homomorphisms_acyclic(path_query(2), canonical)
        assert reference.contained is (via_reference > 0)

    @pytest.mark.parametrize("engine", PARITY_ENGINES)
    def test_ucq_parity(self, engine):
        left = [path_query(4), cycle_query(6)]
        right = [cycle_query(3), path_query(2)]
        reference = ucq_containment(left, right, engine="backtracking")
        other = ucq_containment(left, right, engine=engine)
        assert other.to_dict() == {
            **reference.to_dict(),
            "engine": engine,
        }


class TestContainmentCache:
    def test_alpha_equivalent_pairs_share_an_entry(self):
        cache = ContainmentCache()
        phi_s = parse_query("E(x,y) & E(y,z)")
        phi_b = parse_query("E(a,b)")
        renamed_s = phi_s.rename(
            {v: Variable(f"r{i}") for i, v in enumerate(sorted(phi_s.variables))}
        )
        renamed_b = phi_b.rename({next(iter(phi_b.variables)): Variable("zz")})
        first = cq_containment(phi_s, phi_b, cache=cache)
        second = cq_containment(renamed_s, renamed_b, cache=cache)
        assert cache.hits == 1 and cache.misses == 1
        assert second.contained is first.contained

    def test_engine_is_part_of_the_key(self):
        key_a = containment_cache_key(path_query(2), path_query(1), "auto")
        key_b = containment_cache_key(path_query(2), path_query(1), "compiled")
        assert key_a != key_b
        cache = ContainmentCache()
        cq_containment(path_query(2), path_query(1), engine="auto", cache=cache)
        cq_containment(
            path_query(2), path_query(1), engine="compiled", cache=cache
        )
        assert cache.hits == 0 and cache.misses == 2

    def test_lru_eviction(self):
        cache = ContainmentCache(max_entries=2)
        queries = [path_query(1), path_query(2), path_query(3)]
        for query in queries:
            cq_containment(query, path_query(1), cache=cache)
        assert len(cache) == 2
        assert cache.evictions == 1
        # The first pair was evicted: asking again misses and re-evicts.
        before = cache.misses
        cq_containment(queries[0], path_query(1), cache=cache)
        assert cache.misses == before + 1

    def test_lookup_refreshes_recency(self):
        cache = ContainmentCache(max_entries=2)
        cache.store("a", (True, None))
        cache.store("b", (False, 3))
        assert cache.lookup("a") == (True, None)
        cache.store("c", (True, None))  # evicts "b", not the refreshed "a"
        assert cache.lookup("b") is None
        assert cache.lookup("a") == (True, None)

    def test_cached_negative_keeps_certificate_price(self):
        cache = ContainmentCache()
        first = cq_containment(cycle_query(6), cycle_query(3), cache=cache)
        second = cq_containment(cycle_query(6), cycle_query(3), cache=cache)
        assert cache.hits == 1
        assert second.certificate.lhs == first.certificate.lhs == 6

    def test_stats_snapshot(self):
        cache = ContainmentCache(max_entries=7)
        cache.store("k", (True, None))
        cache.lookup("k")
        cache.lookup("absent")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 7
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ContainmentCache(max_entries=0)

    def test_default_cache_is_a_singleton(self):
        assert default_containment_cache() is default_containment_cache()

    def test_clear(self):
        cache = ContainmentCache()
        cache.store("k", (True, None))
        cache.clear()
        assert len(cache) == 0


class TestErrorParity:
    """The containment API fails exactly like direct evaluation."""

    def test_inequalities_raise_query_error(self):
        dirty = parse_query("E(x,y) & x != y")
        with pytest.raises(QueryError):
            cq_containment(dirty, path_query(1))
        with pytest.raises(QueryError):
            cq_containment(path_query(1), dirty)
        with pytest.raises(QueryError):
            ucq_containment([dirty], [path_query(1)])

    def test_unknown_engine_fails_fast(self):
        # Before any evaluation: even a pair that would raise QueryError
        # reports the engine problem first, exactly like count().
        with pytest.raises(EvaluationError):
            cq_containment(path_query(2), path_query(1), engine="warpdrive")
        dirty = parse_query("E(x,y) & x != y")
        with pytest.raises(EvaluationError):
            cq_containment(dirty, dirty, engine="warpdrive")

    def test_uninterpreted_constant_raises_constant_error(self):
        # φ_b names #spade; canonical(φ_s) does not interpret it — the
        # same ConstantError count() raises on such a structure.
        phi_s = path_query(2)
        phi_b = parse_query("E(x,#spade)")
        with pytest.raises(ConstantError):
            cq_containment(phi_s, phi_b)

    def test_non_cq_rejected(self):
        with pytest.raises(QueryError):
            cq_containment("E(x,y)", path_query(1))


class TestPrescreen:
    """find_counterexample refutes set-refuted pairs with zero candidates."""

    def test_refuted_pair_needs_no_candidates(self):
        with observe() as observation:
            outcome = find_counterexample(cycle_query(6), cycle_query(3), [])
            metrics = observation.report()["metrics"]
        assert outcome.found
        assert outcome.checked == 0
        assert outcome.lhs > outcome.rhs
        assert count(cycle_query(6), outcome.counterexample) == outcome.lhs
        assert count(cycle_query(3), outcome.counterexample) == 0
        assert metrics["contain.prescreen.hits"]["value"] == 1

    def test_certificate_scales_with_multiplier_and_additive(self):
        outcome = find_counterexample(
            cycle_query(6), cycle_query(3), [], multiplier=3, additive=-2
        )
        assert outcome.found
        assert outcome.lhs == 3 * 6
        assert outcome.rhs == -2

    def test_contained_pair_still_searches(self):
        with observe() as observation:
            outcome = find_counterexample(cycle_query(3), cycle_query(6), [])
            metrics = observation.report()["metrics"]
        assert not outcome.found
        assert metrics["contain.prescreen.misses"]["value"] == 1

    def test_opt_out_restores_stream_semantics(self):
        outcome = find_counterexample(
            cycle_query(6), cycle_query(3), [], set_prescreen=False
        )
        assert not outcome.found and outcome.checked == 0

    def test_predicate_disables_prescreen(self):
        # A predicate constrains which counterexamples are acceptable;
        # the canonical database has not passed it, so it may not be
        # returned.
        outcome = find_counterexample(
            cycle_query(6),
            cycle_query(3),
            [],
            predicate=lambda structure: True,
        )
        assert not outcome.found

    def test_positive_additive_disables_prescreen(self):
        # lhs ≥ 1, rhs = 0 only refutes additive ≤ 0.
        outcome = find_counterexample(
            cycle_query(6), cycle_query(3), [], additive=10
        )
        assert not outcome.found

    def test_inequalities_fall_through_to_the_stream(self):
        dirty = parse_query("E(x,y) & x != y")
        outcome = find_counterexample(dirty, path_query(4), [])
        assert not outcome.found and outcome.checked == 0


class TestContainEndpoint:
    """/contain speaks the envelope and matches local verdicts."""

    @pytest.fixture(scope="class")
    def client(self):
        from repro.service import EvaluationServer, ServerConfig, ServiceClient

        with EvaluationServer(ServerConfig(workers=2, queue_depth=16)) as server:
            yield ServiceClient(server.url, seed=0)

    def test_cq_positive_parity(self, client):
        local = cq_containment(cycle_query(3), cycle_query(6))
        remote = client.contain(cycle_query(3), cycle_query(6))
        assert remote["contained"] is True
        assert remote["kind"] == "cq"
        assert remote["witness"] == local.to_dict()["witness"]
        assert remote["certificate"] is None

    def test_cq_negative_parity(self, client):
        local = cq_containment(cycle_query(6), cycle_query(3))
        remote = client.contain(cycle_query(6), cycle_query(3))
        assert remote["contained"] is False
        assert remote["certificate"] == local.to_dict()["certificate"]

    def test_ucq_parity(self, client):
        left = [path_query(4), cycle_query(6)]
        right = [cycle_query(3), path_query(2)]
        local = ucq_containment(left, right)
        remote = client.contain(left, right)
        assert remote["kind"] == "ucq"
        assert remote["contained"] is local.contained
        assert remote["coverage"] == local.to_dict()["coverage"]

    def test_no_witness_flag(self, client):
        remote = client.contain(
            cycle_query(3), cycle_query(6), witness=False
        )
        assert remote["contained"] is True and remote["witness"] is None

    def test_error_kinds_match_local_classes(self, client):
        from repro.service import RemoteError

        probes = [
            (parse_query("E(x,y) & x != y"), path_query(1), QueryError),
            (path_query(2), parse_query("E(x,#spade)"), ConstantError),
        ]
        for phi_s, phi_b, expected in probes:
            with pytest.raises(RemoteError) as excinfo:
                client.contain(phi_s, phi_b)
            assert excinfo.value.kind == expected.__name__
        with pytest.raises(RemoteError) as excinfo:
            client.contain(path_query(2), path_query(1), engine="warpdrive")
        assert excinfo.value.kind == EvaluationError.__name__

    def test_contain_counters_reach_metrics(self, client):
        client.contain(path_query(3), path_query(2))
        metrics = client.metrics()["metrics"]
        assert metrics["contain.cq_tests"]["value"] >= 1
        # The per-endpoint latency histogram is pre-registered for every
        # endpoint, /contain included.
        assert any(
            name.startswith("service.request_ms.contain") for name in metrics
        )
