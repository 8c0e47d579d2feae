"""What the caches keep: one canonicalization per query, no pinned inputs.

A server's memory should track its working set, not the number of
requests it has served.  These tests check object identity, reference
liveness and entry counts — never RSS:

* a query object is canonicalized (1-WL refined) at most once, however
  many layers key on it;
* the planner cache holds no reference to a caller's query or structure,
  and no store holds a ``ConjunctiveQuery`` at all: every key is built
  on a 16-byte :class:`~repro.homomorphism.cache.ComponentKey`;
* delta evaluation leaves one compiled artifact per live component, not
  one per version;
* compiled artifacts reference the structure's fact tuples instead of
  copying them, share equal chain indexes, and keep neither structure
  they were built or refreshed from alive;
* nothing on the serving path forms a reference cycle, so reference
  counting frees a request's state when the request ends: checked with
  the cyclic collector off, where the other tests collect first.
"""

from __future__ import annotations

import ast
import collections
import gc
import inspect
import json
import pickle
import random
import threading
import urllib.error
import urllib.request
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
import repro.homomorphism.cache as cache_module
from repro.deadline import FLIGHT
from repro.errors import DeadlineExpired
from repro.homomorphism import count, count_homomorphisms_acyclic
from repro.homomorphism.backtracking import count_homomorphisms
from repro.homomorphism.cache import (
    CountCache,
    canonical_component,
    component_cache_key,
)
from repro.homomorphism.compiled import compile_component, refresh_component
from repro.homomorphism.delta import DeltaEvaluator
from repro.homomorphism.engine import ENGINES
from repro.planner import PlanCache, select_for
from repro.obs import activate
from repro.obs.metrics import Registry
from repro.planner.plan import default_plan_cache
from repro.queries import ConjunctiveQuery, parse_query
from repro.relational import Schema, Structure
from repro.relational.isomorphism import find_isomorphism
from repro.relational.structure import Delta
from repro.service import (
    EvaluationServer,
    ServerConfig,
    ServiceClient,
    ServiceUnavailable,
)
from repro.service.protocol import request_key
from tests.conftest import wait_for


class _WeakQuery(ConjunctiveQuery):
    """A query that accepts weak references (the base class's slots do not)."""


class _WeakStructure(Structure):
    """A structure that accepts weak references."""


def _graph(edges, n: int = 6, cls=Structure) -> Structure:
    return cls(Schema.from_arities({"E": 2}), {"E": edges}, domain=range(n))


def _random_graph(seed: int, n: int = 7, edges: int = 20, cls=Structure):
    rng = random.Random(seed)
    return _graph(
        {(rng.randrange(n), rng.randrange(n)) for _ in range(edges)}, n, cls
    )


def _closure(function, name: str):
    """The value a closure captured under ``name``."""
    return inspect.getclosurevars(function).nonlocals[name]


def _chain_specs(artifact):
    return _closure(artifact._refresh, "specs")


#: All six directed edges on three variables: cyclic, so it compiles to
#: a chain; after the first atom binds two variables, the other five
#: atoms bind at most one new variable each, and the four fully-bound
#: ones share one membership index.
BIDIRECTED_TRIANGLE = (
    "E(p, q) & E(q, r) & E(r, p) & E(q, p) & E(r, q) & E(p, r)"
)


@pytest.fixture
def clean_default_plan_cache():
    default_plan_cache().clear()
    yield default_plan_cache()
    default_plan_cache().clear()


class TestCanonicalizeOnce:
    def test_one_refinement_across_every_layer(self, monkeypatch):
        runs = []
        real = cache_module.refine_colors

        def counting(initial, signature):
            runs.append(len(initial))
            return real(initial, signature)

        monkeypatch.setattr(cache_module, "refine_colors", counting)
        query = parse_query("E(u1, u2) & E(u2, u3) & E(u3, u1)")
        structure = _random_graph(0)
        plan_cache = PlanCache()

        request_key("evaluate", query=query, structure=structure)
        select_for(query, structure, cache=plan_cache)
        component_cache_key(query, structure, "compiled")
        plan_cache.compiled_artifact(query, structure, compile_component)
        plan_cache.compiled_artifact(query, structure, compile_component)
        assert len(runs) == 1

        # A renamed copy is a different object: it pays its own
        # refinement once, then hits every cache the first one filled.
        renamed = parse_query("E(w1, w2) & E(w2, w3) & E(w3, w1)")
        _, profile_hit = plan_cache.profile(renamed)
        _, artifact_hit = plan_cache.compiled_artifact(
            renamed, structure, compile_component
        )
        assert profile_hit and artifact_hit
        assert len(runs) == 2

    def test_canonical_form_is_memoized_on_the_query(self):
        query = parse_query("E(x, y) & E(y, z) & x != z")
        first = canonical_component(query)
        assert canonical_component(query) is first
        assert first == canonical_component(
            parse_query("E(a, b) & E(b, c) & a != c")
        )

    def test_ground_query_is_its_own_canonical_form(self):
        query = parse_query("E(#a, #b)")
        assert canonical_component(query) is query

    def test_components_are_memoized_objects_in_fresh_lists(self):
        query = parse_query("E(x, y) & E(y, x) & E(u, v) & F(#c)")
        first = query.connected_components()
        second = query.connected_components()
        assert first is not second
        assert len(first) == 3
        assert all(a is b for a, b in zip(first, second, strict=True))
        first.clear()  # callers own the list, not the memo
        assert len(query.connected_components()) == 3

    def test_connected_query_is_its_own_component(self):
        query = parse_query("E(x, y) & E(y, z) & x != z")
        assert query.connected_components() == [query]
        assert query.connected_components()[0] is query
        ground = parse_query("E(#a, #b) & F(#c)")
        assert ground.connected_components()[0] is ground
        assert ConjunctiveQuery().connected_components() == []

    def test_memos_do_not_travel_in_pickles(self):
        query = parse_query("E(x, y) & E(y, x) & E(u, v)")
        canonical_component(query)
        components = query.connected_components()
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query
        assert clone.connected_components() == components
        assert canonical_component(clone) == canonical_component(query)

    def test_count_reuses_component_canonical_forms(self, monkeypatch):
        runs = []
        real = cache_module.refine_colors

        def counting(initial, signature):
            runs.append(len(initial))
            return real(initial, signature)

        monkeypatch.setattr(cache_module, "refine_colors", counting)
        query = parse_query(
            " & ".join(f"E(a{i}, b{i}) & E(b{i}, c{i})" for i in range(5))
        )
        cache = CountCache()
        for seed in range(4):
            count(query, _random_graph(seed), engine="auto", cache=cache)
        assert len(runs) == 5  # once per component object, not per count


#: ``str(canonical_component(q))`` as computed before the canonical
#: variables were shared.  Durable file names and router ring keys derive
#: from this text, so it must never change.
CANONICAL_TEXTS = {
    "E(x, y) & E(y, z) & E(z, x) & x != y": (
        "E(_c1, _c2) & E(_c2, _c0) & E(_c0, _c1) & _c1 != _c2"
    ),
    "R(u, #a, v) & S(v, w) & S(w, u) & T(w)": (
        "R(_c0, #a, _c1) & S(_c1, _c2) & S(_c2, _c0) & T(_c2)"
    ),
    "E(p, q) & E(q, r) & E(r, s) & E(s, p) & E(p, r) & F(q, #k)": (
        "E(_c0, _c2) & E(_c2, _c1) & E(_c1, _c3) & E(_c3, _c0) & "
        "E(_c0, _c1) & F(_c2, #k)"
    ),
}


class TestSharedCanonicalParts:
    @pytest.mark.parametrize("text", list(CANONICAL_TEXTS))
    def test_canonical_text_is_pinned(self, text):
        assert str(canonical_component(parse_query(text))) == CANONICAL_TEXTS[text]

    def test_canonical_forms_share_their_variables(self):
        first = canonical_component(parse_query("E(x, y) & E(y, z)"))
        second = canonical_component(parse_query("F(u, v, w) & G(w)"))
        c0 = [v for v in first.variables if v.name == "_c0"]
        d0 = [v for v in second.variables if v.name == "_c0"]
        assert len(c0) == len(d0) == 1
        assert c0[0] is d0[0]

    def test_concurrent_canonicalization_numbers_every_variable(
        self, monkeypatch
    ):
        # A fresh table, so eight threads race to create the same numbers.
        table: dict = {}
        monkeypatch.setattr(cache_module, "_CANONICAL_VARIABLES", table)
        threads = 8
        barrier = threading.Barrier(threads)
        seen: list = []
        errors: list = []

        def canonicalize(index):
            try:
                barrier.wait()
                for length in range(2, 40):
                    path = " & ".join(
                        f"P{index}(v{i}, v{i + 1})" for i in range(length)
                    )
                    seen.extend(canonical_component(parse_query(path)).variables)
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append(error)

        workers = [
            threading.Thread(target=canonicalize, args=(index,))
            for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not errors
        assert len(table) == 40
        assert all(variable.name == f"_c{n}" for n, variable in table.items())
        assert all(table[int(v.name[2:])] is v for v in seen)

    def test_constant_free_queries_share_one_empty_set(self):
        first = parse_query("E(x, y)")
        second = parse_query("F(u) & F(v)")
        assert first.constants == frozenset()
        assert first.constants is second.constants
        assert parse_query("E(x, #a)").constants != frozenset()


class TestPlanCachePinsNothing:
    def test_caller_query_and_structure_are_released(self):
        plan_cache = PlanCache()
        query = _WeakQuery(
            parse_query("E(k1, k2) & E(k2, k3) & E(k3, k1)").atoms
        )
        structure = _random_graph(3, cls=_WeakStructure)
        expected = count_homomorphisms(query, structure)
        plan_cache.profile(query)
        artifact, _ = plan_cache.compiled_artifact(
            query, structure, compile_component
        )
        assert artifact.run() == expected
        query_ref, structure_ref = weakref.ref(query), weakref.ref(structure)
        del query, structure, artifact
        gc.collect()
        assert query_ref() is None
        assert structure_ref() is None
        assert len(plan_cache) == 1
        assert plan_cache.artifacts.stats()["entries"] == 1


def _holds_query(value) -> bool:
    """Is a ``ConjunctiveQuery`` anywhere inside a key or value?"""
    from repro.homomorphism.cache import ComponentKey

    if isinstance(value, ConjunctiveQuery):
        return True
    if isinstance(value, ComponentKey):
        return _holds_query(value.relations) or _holds_query(value.pattern)
    if isinstance(value, (tuple, list, frozenset, set)):
        return any(_holds_query(item) for item in value)
    return False


class TestNoStoreHoldsAQuery:
    def test_every_store_keys_on_component_keys(self, clean_default_plan_cache):
        from repro.containment_set import ContainmentCache, cq_containment

        structure = _random_graph(4)
        queries = [
            parse_query("E(a, b) & E(b, c) & E(c, a)"),
            parse_query("E(a, a) & E(a, b) & E(c, c)"),
            parse_query("E(a, #k) & E(#k, b)"),
        ]
        structure = Structure(
            structure.schema,
            {"E": structure.facts("E")},
            domain=structure.domain,
            constants={"k": 0},
        )
        counts = CountCache()
        for query in queries:
            for engine in ("auto", "compiled", "backtracking"):
                count(query, structure, engine=engine, cache=counts)
        verdicts = ContainmentCache()
        cq_containment(
            queries[0], parse_query("E(x, y)"), cache=verdicts, count_cache=counts
        )
        evaluator = DeltaEvaluator(structure, engine="compiled", cache=counts)
        evaluator.evaluate(queries[2])
        evaluator.apply(Delta(inserts=[("E", (1, 1))]))
        stores = {
            "counts": counts,
            "containment": verdicts,
            "profiles": clean_default_plan_cache.profiles,
            "artifacts": clean_default_plan_cache.artifacts,
        }
        for name, store in stores.items():
            items = store.items()
            assert items, name
            for key, value in items:
                assert not _holds_query(key), (name, key)
                assert not _holds_query(value), (name, value)


class TestDeltaKeepsLiveArtifactsOnly:
    def test_one_artifact_per_live_component(self, clean_default_plan_cache):
        # The E21 shape: component i is a 4-cycle in its own relation.
        rng = random.Random(5)
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
        live = len(query.connected_components())
        plan_cache = clean_default_plan_cache
        assert plan_cache.artifacts.stats()["entries"] == live
        for step in range(20):
            relation = relations[step % len(relations)]
            facts = sorted(evaluator.structure.facts(relation))
            if step % 5 == 4:
                # A no-op insert keeps the fingerprint and the artifact.
                delta = Delta(inserts=[(relation, facts[0])])
            elif step % 2 == 0:
                fact = (rng.randrange(n), rng.randrange(n))
                delta = Delta(inserts=[(relation, fact)])
            else:
                delta = Delta(deletes=[(relation, rng.choice(facts))])
            report = evaluator.apply(delta)
            assert report.refreshed_artifacts == 1
            assert plan_cache.artifacts.stats()["entries"] == live
            cold = count(
                query,
                evaluator.structure,
                engine="backtracking",
                cache=CountCache(),
            )
            assert evaluator.evaluate(query) == cold
        assert plan_cache.artifacts.stats()["entries"] == live


class TestArtifactsReferenceFacts:
    def test_acyclic_rows_are_the_structures_facts(self):
        structure = _random_graph(1)
        artifact = compile_component(parse_query("E(x, y) & E(y, z)"), structure)
        assert artifact.mode == "acyclic"
        facts = {id(fact) for fact in structure.facts("E")}
        rows = _closure(artifact._refresh, "state")[1]
        assert len(rows) == 2
        assert all(id(row) in facts for atom_rows in rows for row in atom_rows)

    def test_filtered_acyclic_rows_are_still_exact(self):
        structure = _graph({(0, 0), (0, 1), (1, 1), (2, 0)})
        query = parse_query("E(x, x) & E(x, y)")
        artifact = compile_component(query, structure)
        assert artifact.run() == count_homomorphisms(query, structure)

    def test_chain_shares_same_shape_indexes(self):
        structure = _random_graph(2, n=8, edges=40)
        query = parse_query(BIDIRECTED_TRIANGLE)
        artifact = compile_component(query, structure)
        assert artifact.mode == "chain"
        assert artifact.run() == count_homomorphisms(query, structure)
        specs = _chain_specs(artifact)
        membership = [spec[6] for spec in specs if not spec[5]]
        assert len(membership) == 4
        assert all(index is membership[0] for index in membership)
        facts = {id(fact) for fact in structure.facts("E")}
        assert all(id(key) in facts for key in membership[0])
        # The first atom binds both variables: its extensions are facts.
        first = specs[0][6]
        assert all(
            id(value) in facts for bucket in first.values() for value in bucket
        )
        # ``indexed_facts`` still counts every atom's entries.
        assert artifact.indexed_facts == sum(
            sum(len(bucket) for bucket in spec[6].values()) for spec in specs
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_refreshed_chain_matches_a_fresh_compile(self, seed):
        rng = random.Random(seed)
        query = parse_query(BIDIRECTED_TRIANGLE)
        structure = _random_graph(seed, n=6, edges=22)
        artifact = compile_component(query, structure)
        for _ in range(5):
            fact = (rng.randrange(6), rng.randrange(6))
            if rng.random() < 0.5:
                delta = Delta(inserts=[("E", fact), ("E", fact[::-1])])
            else:
                delta = Delta(deletes=[("E", fact)])
            new = structure.apply_delta(delta)
            artifact = refresh_component(artifact, structure, new, delta)
            fresh = compile_component(query, new)
            assert artifact.run() == fresh.run() == count_homomorphisms(
                query, new
            )
            assert artifact.indexed_facts == fresh.indexed_facts
            membership = [spec[6] for spec in _chain_specs(artifact) if not spec[5]]
            assert all(index is membership[0] for index in membership)
            structure = new

    @pytest.mark.parametrize(
        "text", ["E(x, y) & E(y, z)", BIDIRECTED_TRIANGLE]
    )
    def test_artifacts_keep_no_structure_alive(self, text):
        query = parse_query(text)
        old = _random_graph(4, cls=_WeakStructure)
        artifact = compile_component(query, old)
        delta = Delta(inserts=[("E", (0, 5))])
        new = _WeakStructure(
            old.schema, {"E": old.facts("E") | {(0, 5)}}, domain=old.domain
        )
        refreshed = refresh_component(artifact, old, new, delta)
        expected = count_homomorphisms(query, new)
        old_ref, new_ref = weakref.ref(old), weakref.ref(new)
        del old, new
        gc.collect()
        assert old_ref() is None and new_ref() is None
        assert refreshed.run() == expected


# -- no reference cycles -----------------------------------------------------


class _Expired:
    """A flight whose deadline has passed: the first check stops the count."""

    deadline = float("-inf")

    def expire(self) -> None:
        raise DeadlineExpired("stopped at its first deadline check")


@contextmanager
def _collector_off(save_all: bool = False):
    """Only reference counting frees objects in the block.

    With ``save_all``, a collection keeps what it finds in ``gc.garbage``
    (cleared on exit), so a failing check can name it.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    if save_all:
        gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _complete_graph(n: int) -> _WeakStructure:
    """The complete loop-free digraph: enough work that every engine
    reaches a deadline check."""
    edges = {(a, b) for a in range(n) for b in range(n) if a != b}
    return _graph(edges, n, _WeakStructure)


#: Acyclic, so the Yannakakis reference counts it too; its tree
#: decomposition has three bags.
PATH4 = "E(a, b) & E(b, c) & E(c, d)"
#: A pentagon with an inequality: ``auto`` counts it by the DP.
PENTAGON = "E(a, b) & E(b, c) & E(c, d) & E(d, e) & E(e, a) & a != c"


def _post(url: str, endpoint: str, body: dict) -> int:
    """POST ``body``; the response status.  Raw, so the client's own
    retry and exception objects stay out of the count."""
    request = urllib.request.Request(
        f"{url}/{endpoint}",
        data=json.dumps(body).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            response.read()
            return response.status
    except urllib.error.HTTPError as error:
        with error:
            error.read()
            return error.code


def _facts(edges) -> str:
    return " ".join(f"E(n{a},n{b})" for a, b in sorted(edges))


#: A small graph every shape below counts on.
FACTS = _facts(_random_graph(11, n=8, edges=30).facts("E"))
#: The transitive tournament on 6 vertices, anchored at ``S``'s one
#: vertex, on the complete digraph on 24: seconds of work on every
#: engine, so a 50 ms deadline stops it.
HEAVY_QUERY = "S(x0) & " + " & ".join(
    f"E(x{i}, x{j})" for i in range(6) for j in range(i + 1, 6)
)
HEAVY_FACTS = "S(n0) " + _facts(
    (a, b) for a in range(24) for b in range(24) if a != b
)


def _evaluate(query: str, engine: str = "auto", **fields) -> tuple:
    return "evaluate", {
        "kind": "cq", "query_text": query, "facts": FACTS,
        "engine": engine, "cache": False, **fields,
    }


#: One request of every shape the server serves, with its status: each
#: engine, a union, both containment verdicts, a plan, a search, a
#: database's load, read and update, a 400, a 422 at parse time and at
#: run time, and a count cancelled at its deadline on three engines.
SHAPES = [
    *((*_evaluate(PATH4, engine), 200) for engine in ENGINES),
    (*_evaluate(PENTAGON), 200),
    (
        "evaluate",
        {
            "kind": "ucq", "facts": FACTS, "cache": False,
            "disjuncts": [
                {"query_text": PENTAGON, "multiplicity": 2},
                {"query_text": PATH4},
            ],
        },
        200,
    ),
    ("contain", {"phi_s_text": "E(x, y) & E(y, x)", "phi_b_text": "E(x, y)"}, 200),
    ("contain", {"phi_s_text": "E(x, y)", "phi_b_text": "E(x, y) & E(y, x)"}, 200),
    ("explain", {"query_text": PENTAGON, "facts": FACTS}, 200),
    ("decide", {"phi_s_text": "E(x, y)", "phi_b_text": "E(x, x)", "count": 20}, 200),
    ("db", {"name": "g", "facts": FACTS}, 200),
    ("evaluate", {"kind": "cq", "query_text": PENTAGON, "db": "g"}, 200),
    ("update", {"db": "g", "insert": "E(n0,n7)"}, 200),
    ("evaluate", {"kind": "cq", "query_text": PENTAGON, "db": "g"}, 200),
    ("evaluate", {"kind": "cq", "facts": FACTS}, 400),
    (*_evaluate("E(x, y"), 422),
    (*_evaluate("E(x, y, z)"), 422),
    *(
        (
            "evaluate",
            {
                "kind": "cq", "query_text": HEAVY_QUERY,
                "facts": HEAVY_FACTS, "engine": engine, "deadline_ms": 50,
            },
            504,
        )
        for engine in ("backtracking", "compiled", "treewidth")
    ),
]


class TestNoReferenceCycles:
    """A request's state is freed by reference counting when it ends.

    The cyclic collector is off in these tests: whatever a reference
    cycle holds would stay until a full collection, so a cycle anywhere
    on the path fails them.
    """

    @pytest.mark.parametrize("stopped", [False, True], ids=["done", "stopped"])
    @pytest.mark.parametrize(
        "engine, text",
        [
            ("backtracking", PATH4),
            ("treewidth", PATH4),
            ("acyclic", PATH4),
            ("compiled", PATH4),
            ("auto", PENTAGON),
        ],
    )
    def test_count_frees_query_and_structure(self, engine, text, stopped):
        parsed = parse_query(text)
        query = _WeakQuery(parsed.atoms, parsed.inequalities)
        structure = _complete_graph(12)
        refs = [weakref.ref(query), weakref.ref(structure)]
        registry = Registry()
        with _collector_off(), activate(registry):
            token = FLIGHT.set(_Expired() if stopped else None)
            try:
                if engine == "acyclic":
                    count_homomorphisms_acyclic(query, structure)
                else:
                    count(query, structure, engine=engine)
            except DeadlineExpired:
                assert stopped
            else:
                assert not stopped
            finally:
                FLIGHT.reset(token)
            del parsed, query, structure
            assert [ref() for ref in refs] == [None, None]
        if engine in ("treewidth", "auto"):
            assert registry.counter("td.bags").value >= 2

    def test_find_isomorphism_frees_both_structures(self):
        left = _random_graph(6, cls=_WeakStructure)
        image = list(range(7))
        random.Random(6).shuffle(image)
        right = _graph(
            {(image[a], image[b]) for a, b in left.facts("E")}, 7, _WeakStructure
        )
        refs = [weakref.ref(left), weakref.ref(right)]
        with _collector_off():
            assert find_isomorphism(left, right) is not None
            del left, right
            assert [ref() for ref in refs] == [None, None]

    def test_a_server_life_leaves_no_cycles(self, gate):
        threads = set(threading.enumerate())
        with _collector_off(save_all=True):
            server = EvaluationServer(
                ServerConfig(workers=1, queue_depth=1)
            ).start()
            try:
                self._serve(server, gate("evaluate"))
            finally:
                server.close()
            # Collect once every connection's thread has let go of its
            # request.  ``server`` is still held, so what a server keeps
            # is reachable: only what requests left in cycles is found.
            wait_for(lambda: set(threading.enumerate()) <= threads)
            found = gc.collect()
            kinds = collections.Counter(type(item).__name__ for item in gc.garbage)
            assert found == 0, kinds.most_common(8)

    def test_a_shed_client_request_leaves_no_cycles(self, gate):
        held = gate("evaluate")
        with EvaluationServer(ServerConfig(workers=1, queue_depth=1)) as server:
            leader = threading.Thread(
                target=_post, args=(server.url, *_evaluate(PATH4))
            )
            leader.start()
            try:
                assert held.entered.wait(timeout=30)
                # Its only waiter leaves at the deadline; the job keeps
                # the one queue slot, so the next request is shed.
                assert _post(server.url, *_evaluate(PENTAGON, deadline_ms=50)) == 504
                client = ServiceClient(server.url, retries=0)
                kind = None
                with _collector_off(save_all=True):
                    try:
                        client.evaluate(parse_query("E(x, x)"), _graph({(0, 1)}))
                    except ServiceUnavailable as error:
                        kind = error.kind
                    found = gc.collect()
                    kinds = collections.Counter(
                        type(item).__name__ for item in gc.garbage
                    )
            finally:
                held.opened.set()
                leader.join(timeout=60)
        assert not leader.is_alive()
        assert kind == "overloaded"
        assert found == 0, kinds.most_common(8)

    def test_recursive_closures_unlink_themselves(self):
        """Statically, for paths no other test runs: a nested function
        that reaches itself through closure cells is a reference cycle,
        so its enclosing function must ``del`` one function on it."""
        unbroken = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for outer in ast.walk(ast.parse(path.read_text())):
                if not isinstance(outer, ast.FunctionDef):
                    continue
                nested = {
                    node.name: node
                    for node in ast.walk(outer)
                    if isinstance(node, ast.FunctionDef) and node is not outer
                }
                calls = {
                    name: {
                        ref.id
                        for ref in ast.walk(node)
                        if isinstance(ref, ast.Name) and ref.id in nested
                    }
                    for name, node in nested.items()
                }
                deleted = {
                    target.id
                    for node in ast.walk(outer)
                    if isinstance(node, ast.Delete)
                    for target in node.targets
                    if isinstance(target, ast.Name)
                }
                for name in nested:
                    reached, frontier = set(), [name]
                    while frontier:
                        for callee in calls[frontier.pop()] - reached:
                            reached.add(callee)
                            frontier.append(callee)
                    if name in reached and not reached & deleted:
                        unbroken.append(f"{path.name}::{outer.name}.{name}")
        assert unbroken == []

    def test_metrics_report_what_the_collector_frees(self):
        with EvaluationServer(ServerConfig(workers=1)) as server:
            client = ServiceClient(server.url, retries=0)
            before = client.metrics()["metrics"]
            cycle: list = []
            cycle.append(cycle)
            del cycle
            gc.collect()
            after = client.metrics()["metrics"]
        for name in ("process.gc.collected", "process.gc.collections"):
            assert after[name]["value"] > before[name]["value"], name

    @staticmethod
    def _serve(server: EvaluationServer, held) -> None:
        def counter(name: str) -> int:
            return server.registry.counter(name).value

        # A leader held at the gate, and a duplicate that joins its flight.
        statuses: list[int] = []
        pair = [
            threading.Thread(
                target=lambda: statuses.append(_post(server.url, *_evaluate(PATH4)))
            )
            for _ in range(2)
        ]
        pair[0].start()
        assert held.entered.wait(timeout=30)
        pair[1].start()
        wait_for(lambda: counter("service.coalesced") == 1)
        # Queued behind the leader: its only waiter leaves at its deadline,
        # and the worker skips it.  Then the one-deep queue sheds.
        assert _post(server.url, *_evaluate(PENTAGON, deadline_ms=50)) == 504
        assert _post(server.url, *_evaluate("E(x, x)")) == 429
        held.opened.set()
        for thread in pair:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert statuses == [200, 200]
        wait_for(lambda: counter("service.expired_skipped") == 1)

        calls = counter("td.calls")
        for endpoint, body, status in SHAPES:
            assert _post(server.url, endpoint, body) == status, (endpoint, body)
        wait_for(lambda: counter("service.cancelled") == 3)
        assert counter("td.calls") - calls >= 5  # every DP shape reached it
