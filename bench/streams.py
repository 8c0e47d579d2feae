"""The four benchmark workloads as seeded request streams.

Every request is a pure function of ``(workload, seed, index)``.  Two
kinds of randomness go into it, both from string-seeded ``Random``
instances (hashed with SHA-512, so nothing depends on
``PYTHONHASHSEED``):

* the *content* that sets a request's cost — the hot-repeat pool, the
  cold-distinct query and graph of each index, the database, the heavy
  graph — is fixed per workload;
* the *seed* draws the request sequence, the α-renaming of every query
  and a relabeling of every graph's elements.

So every seed replays an equally expensive stream, and two runs differ
only in what the program must not care about: names, labels and the
order of draws.  A seed that changed the cost mix would bury a 10%
change of the program under workload variance.  Streams are built from
stable library APIs only (``case_at``, ``random_query``,
``repro.relational``, ``repro.io``).

The server receives only the generated HTTP bodies; the reference
answers the bench checks responses against are computed here, with
``engine="backtracking"`` and no cache, or — for the heavy pattern and
the db-read-write factors, where backtracking takes too long to check
a whole window — with direct counts that share no code with any engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.containment_set import cq_containment
from repro.homomorphism import count
from repro.io import delta_to_dict, query_to_dict, structure_to_dict
from repro.qa.generators import case_at
from repro.queries import parse_query
from repro.queries.cq import ConjunctiveQuery
from repro.relational import Schema, Structure
from repro.relational.structure import Delta
from repro.workloads.random_queries import random_query

__all__ = [
    "DB_NAME",
    "UPDATE_EVERY",
    "WORKLOADS",
    "Request",
    "Stream",
    "closed_walks",
    "http_body",
    "send",
    "tournament_count",
]

WORKLOADS = ("hot-repeat", "cold-distinct", "db-read-write", "heavy-tail")

#: The server-resident database of the db-read-write workload.
DB_NAME = "bench"

GRAPH_SCHEMA = Schema.from_arities({"E": 2})

# hot-repeat: 32 evaluate cases and 12 containment pairs, zipf(1.1).
HOT_CASES = 32
HOT_PAIRS = 12
HOT_CONTAIN_SHARE = 0.2
ZIPF_EXPONENT = 1.1

# cold-distinct: random_query(E/2, 6 variables, 7 atoms) on a fresh graph.
COLD_VARIABLES, COLD_ATOMS = 6, 7
COLD_NODES, COLD_EDGES = 14, 70
COLD_WARMUP = 8

# db-read-write: the E21 shape; every 5th request is a one-fact update.
DB_RELATIONS, DB_ELEMENTS, DB_FACTS = 12, 40, 160
UPDATE_EVERY = 5

# heavy-tail: every 50th request counts the transitive tournament on 5
# vertices on a relabeling of one dense graph (~170 ms of CPU with the
# compiled engine on a 2-vCPU VM) under a deadline it cannot meet.
HEAVY_EVERY = 50
HEAVY_VERTICES = 5
HEAVY_NODES, HEAVY_EDGES = 40, 560
HEAVY_DEADLINE_MS = 50


@dataclass(frozen=True)
class Request:
    """One generated request, in wire form (``repro.io`` dicts).

    ``kind`` is ``evaluate`` (inline structure), ``contain``, ``read``
    (``/evaluate`` of the named database), ``update`` or ``heavy``
    (inline ``/evaluate`` with a deadline).  ``ref`` names the reference
    answer the response is checked against.
    """

    index: int
    kind: str
    query: dict | None = None
    structure: dict | None = None
    phi_b: dict | None = None
    delta: dict | None = None
    deadline_ms: int | None = None
    ref: tuple = ()


def _content(workload: str, key) -> random.Random:
    """Randomness of the cost-setting content (no seed: fixed)."""
    return random.Random(f"{workload}:content:{key}")


def _labels(workload: str, seed: int, key) -> random.Random:
    """Randomness the seed controls: draws, names and labels."""
    return random.Random(f"{workload}:{seed}:{key}")


def _zipf_weights(size: int) -> list[float]:
    return [1.0 / rank**ZIPF_EXPONENT for rank in range(1, size + 1)]


def _renamed(query: dict, rng: random.Random) -> dict:
    """A fresh α-renaming of the wire query ``query``, atoms shuffled.

    It works on the ``repro.io`` dict, not on a ``ConjunctiveQuery``:
    renaming through query objects took 2.6 times as long, and a
    hot-repeat run builds 25 000 requests before its window opens.
    """
    names = sorted(
        {
            term["name"]
            for atom in query["atoms"]
            for term in atom["terms"]
            if term["kind"] == "var"
        }
    )
    fresh = {
        name: {"kind": "var", "name": f"v{number}"}
        for name, number in zip(names, rng.sample(range(10**6), len(names)))
    }

    def term(payload: dict) -> dict:
        return fresh[payload["name"]] if payload["kind"] == "var" else payload

    atoms = [
        {"relation": atom["relation"], "terms": [term(t) for t in atom["terms"]]}
        for atom in query["atoms"]
    ]
    rng.shuffle(atoms)
    inequalities = [
        {"left": term(pair["left"]), "right": term(pair["right"])}
        for pair in query["inequalities"]
    ]
    return {"atoms": atoms, "inequalities": inequalities}


def _random_edges(rng: random.Random, nodes: int, edges: int) -> list[tuple]:
    """``edges`` distinct directed edges (self-loops allowed) on ``nodes``."""
    return [divmod(cell, nodes) for cell in rng.sample(range(nodes * nodes), edges)]


def _relabeled_graph(edges, nodes: int, rng: random.Random) -> Structure:
    """The graph with its elements permuted at random: isomorphic, so
    every count and every engine's work is unchanged, but its
    fingerprint — and so every cache key — is new."""
    label = rng.sample(range(nodes), nodes)
    return Structure(
        GRAPH_SCHEMA,
        {"E": [(label[a], label[b]) for a, b in edges]},
        domain=range(nodes),
    )


def _tournament(vertices: int) -> ConjunctiveQuery:
    return parse_query(
        " & ".join(
            f"E(x{i}, x{j})"
            for i in range(vertices)
            for j in range(i + 1, vertices)
        )
    )


def tournament_count(graph: Structure, vertices: int = HEAVY_VERTICES) -> int:
    """Homomorphisms of the transitive tournament on ``vertices`` into
    ``graph``, by nested out-neighbourhood intersection — an independent
    reference for the heavy pattern (backtracking takes seconds on it)."""
    successors: dict = {}
    for source, target in graph.facts("E"):
        successors.setdefault(source, set()).add(target)

    def extend(candidates: set, depth: int) -> int:
        if depth == vertices:
            return 1
        return sum(
            extend(candidates & successors.get(vertex, set()), depth + 1)
            for vertex in candidates
        )

    return extend(set(graph.domain), 0)


def closed_walks(edges) -> int:
    """Homomorphisms of the directed 4-cycle into a digraph: its closed
    4-walks, ``Σ W₂(a,c)·W₂(c,a)`` over 2-walk counts ``W₂`` — an
    independent reference for the db-read-write factors."""
    successors: dict = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    two: dict = {}
    for source, middles in successors.items():
        for middle in middles:
            for target in successors.get(middle, ()):
                two[source, target] = two.get((source, target), 0) + 1
    return sum(n * two.get((target, source), 0) for (source, target), n in two.items())


class _HotPool:
    """The hot-repeat pool: cq cases and containment pairs from the
    ``case_at`` stream of seed 0.

    Pool order is zipf rank order.  ``answers`` holds the reference
    count of every case and the reference verdict of every pair.
    """

    def __init__(self) -> None:
        cases: list[tuple[ConjunctiveQuery, Structure]] = []
        plain: list[ConjunctiveQuery] = []
        index = 0
        while len(cases) < HOT_CASES or len(plain) < HOT_PAIRS + 1:
            case = case_at(index, 0)
            index += 1
            if case.kind != "cq":
                continue
            if len(cases) < HOT_CASES:
                cases.append((case.query, case.structure))
            # Chandra-Merlin decides only constant- and inequality-free
            # CQs, so containment sides come from those.
            if not case.query.constants and not case.query.inequalities:
                plain.append(case.query)
        pairs = []
        for k in range(HOT_PAIRS):
            phi_s = plain[k]
            if k % 2 == 0 and phi_s.atom_count > 1:
                # An atom subset of phi_s: always contained.
                phi_b = ConjunctiveQuery(phi_s.atoms[:-1])
            else:
                phi_b = plain[k + 1]
            pairs.append((phi_s, phi_b))
        self.cases = cases
        self.pairs = pairs
        self.queries = [query_to_dict(query) for query, _ in cases]
        self.structures = [structure_to_dict(s) for _, s in cases]
        self.pair_queries = [
            (query_to_dict(phi_s), query_to_dict(phi_b)) for phi_s, phi_b in pairs
        ]
        self.case_weights = _zipf_weights(len(cases))
        self.pair_weights = _zipf_weights(len(pairs))
        self.answers: dict[tuple, object] = {}
        for k, (query, structure) in enumerate(cases):
            self.answers[("evaluate", k)] = count(
                query, structure, engine="backtracking"
            )
        for k, (phi_s, phi_b) in enumerate(pairs):
            self.answers[("contain", k)] = cq_containment(
                phi_s, phi_b, engine="backtracking"
            ).contained

    def evaluate(self, index: int, k: int, rng: random.Random) -> Request:
        return Request(
            index,
            "evaluate",
            query=_renamed(self.queries[k], rng),
            structure=self.structures[k],
            ref=("evaluate", k),
        )

    def contain(self, index: int, k: int, rng: random.Random) -> Request:
        phi_s, phi_b = self.pair_queries[k]
        return Request(
            index,
            "contain",
            query=_renamed(phi_s, rng),
            phi_b=_renamed(phi_b, rng),
            ref=("contain", k),
        )

    def draw(self, index: int, rng: random.Random, contain_share: float):
        if rng.random() < contain_share:
            k = rng.choices(range(len(self.pairs)), self.pair_weights)[0]
            return self.contain(index, k, rng)
        k = rng.choices(range(len(self.cases)), self.case_weights)[0]
        return self.evaluate(index, k, rng)


class _Database:
    """The db-read-write database, its product query, and its updates.

    Relation ``R<i>`` holds ``DB_FACTS`` distinct random pairs over
    ``DB_ELEMENTS`` elements (fixed content, elements relabeled by the
    seed), and the query is the product of one 4-cycle per relation —
    12 independent Lemma-1 factors.  Update ``u`` touches relation
    ``u mod 12``; in even rounds (``u // 12``) it inserts a fact absent
    from the initial relation, drawn by the seed, and in odd rounds it
    deletes the fact inserted one round earlier — so every delete hits
    a present fact and the content is a pure function of the set of
    updates applied.
    """

    def __init__(self, seed: int) -> None:
        content = _content("db-read-write", "database")
        label = _labels("db-read-write", seed, "database").sample(
            range(DB_ELEMENTS), DB_ELEMENTS
        )
        self.relations = [f"R{i}" for i in range(DB_RELATIONS)]
        facts = {}
        self.absent = {}
        for name in self.relations:
            edges = _random_edges(content, DB_ELEMENTS, DB_FACTS)
            facts[name] = [(label[a], label[b]) for a, b in edges]
            present = set(facts[name])
            self.absent[name] = [
                pair
                for pair in (
                    divmod(cell, DB_ELEMENTS)
                    for cell in range(DB_ELEMENTS * DB_ELEMENTS)
                )
                if pair not in present
            ]
        self.seed = seed
        self.structure = Structure(
            Schema.from_arities({name: 2 for name in self.relations}),
            facts,
            domain=range(DB_ELEMENTS),
        )
        self.query = parse_query(
            " & ".join(
                f"{name}(a{i}, b{i}) & {name}(b{i}, c{i}) & "
                f"{name}(c{i}, d{i}) & {name}(d{i}, a{i})"
                for i, name in enumerate(self.relations)
            )
        )
        self.query_dict = query_to_dict(self.query)

    def _inserted(self, update: int) -> tuple[str, tuple]:
        name = self.relations[update % DB_RELATIONS]
        rng = _labels("db-read-write", self.seed, f"update:{update}")
        return name, rng.choice(self.absent[name])

    def delta(self, update: int) -> Delta:
        if (update // DB_RELATIONS) % 2 == 0:
            return Delta(inserts=(self._inserted(update),))
        return Delta(deletes=(self._inserted(update - DB_RELATIONS),))

    def history(self, updates_by_version: dict[int, int]) -> "_History":
        return _History(self, updates_by_version)


class _History:
    """Reference counts of the product query at each database version.

    ``updates_by_version`` maps a server version to the update index
    whose response reported it; version ``v`` is the initial database
    with updates of versions ``1..v`` applied in version order.  Each
    factor is counted by :func:`closed_walks` and memoized by its
    relation's content fingerprint, since an update changes one factor.
    """

    def __init__(self, database: _Database, updates_by_version: dict[int, int]):
        self._database = database
        self._updates = updates_by_version
        self._structures = [database.structure]
        self._factors: dict[tuple, int] = {}
        self.known = 0
        while self.known + 1 in updates_by_version:
            self.known += 1

    def count_at(self, version: int) -> int:
        while len(self._structures) <= version:
            update = self._updates[len(self._structures)]
            self._structures.append(
                self._structures[-1].apply_delta(self._database.delta(update))
            )
        structure = self._structures[version]
        total = 1
        for name in self._database.relations:
            key = (name, structure.relation_fingerprint(name))
            if key not in self._factors:
                self._factors[key] = closed_walks(structure.facts(name))
            total *= self._factors[key]
        return total


class Stream:
    """The request stream of one workload at one seed."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}"
            )
        self.workload = workload
        self.seed = seed
        self.pool = _HotPool() if workload in ("hot-repeat", "heavy-tail") else None
        self.database = (
            _Database(seed) if workload == "db-read-write" else None
        )
        if workload == "heavy-tail":
            self.heavy_edges = _random_edges(
                _content("heavy-tail", "graph"), HEAVY_NODES, HEAVY_EDGES
            )
            self.heavy_query = query_to_dict(_tournament(HEAVY_VERTICES))
        self._answers: dict[tuple, int] = {}

    def request(self, index: int) -> Request:
        if self.workload == "hot-repeat":
            rng = _labels(self.workload, self.seed, index)
            return self.pool.draw(index, rng, HOT_CONTAIN_SHARE)
        if self.workload == "cold-distinct":
            query, graph = self.cold_instance(index)
            names = _labels(self.workload, self.seed, f"names:{index}")
            return Request(
                index,
                "evaluate",
                query=_renamed(query_to_dict(query), names),
                structure=structure_to_dict(graph),
                ref=("cold", index),
            )
        if self.workload == "db-read-write":
            if index % UPDATE_EVERY == UPDATE_EVERY - 1:
                update = index // UPDATE_EVERY
                return Request(
                    index,
                    "update",
                    delta=delta_to_dict(self.database.delta(update)),
                    ref=("update", update),
                )
            return Request(
                index, "read", query=self.database.query_dict, ref=("read",)
            )
        if index % HEAVY_EVERY == HEAVY_EVERY - 1:
            return Request(
                index,
                "heavy",
                query=self.heavy_query,
                structure=structure_to_dict(self.heavy_graph(index)),
                deadline_ms=HEAVY_DEADLINE_MS,
                ref=("heavy", index),
            )
        return self.pool.draw(index, _labels(self.workload, self.seed, index), 0.0)

    def cold_instance(self, index: int) -> tuple[ConjunctiveQuery, Structure]:
        """The query and the relabeled graph of cold request ``index``
        (the query before the request's α-renaming)."""
        content = _content("cold-distinct", index)
        query = random_query(
            GRAPH_SCHEMA,
            variable_count=COLD_VARIABLES,
            atom_count=COLD_ATOMS,
            seed=content.randrange(2**31),
        )
        edges = _random_edges(content, COLD_NODES, COLD_EDGES)
        labels = _labels("cold-distinct", self.seed, f"labels:{index}")
        return query, _relabeled_graph(edges, COLD_NODES, labels)

    def heavy_graph(self, index: int) -> Structure:
        labels = _labels("heavy-tail", self.seed, f"labels:{index}")
        return _relabeled_graph(self.heavy_edges, HEAVY_NODES, labels)

    def answer(self, ref: tuple):
        """The reference answer of a pool, cold or heavy request."""
        kind = ref[0]
        if kind in ("evaluate", "contain"):
            return self.pool.answers[ref]
        if kind == "heavy":
            ref = ("heavy",)  # every heavy graph is a relabeling of one
        if ref not in self._answers:
            if kind == "cold":
                query, graph = self.cold_instance(ref[1])
                self._answers[ref] = count(query, graph, engine="backtracking")
            elif kind == "heavy":
                self._answers[ref] = tournament_count(self.heavy_graph(-1))
            else:
                raise ValueError(f"no stand-alone reference for {ref!r}")
        return self._answers[ref]

    def warmup(self) -> list[Request]:
        """The fixed warm-up pass: one request per pool entry.

        cold-distinct has no pool; it warms up on requests from negative
        indices, which the measured stream never reaches.
        """
        if self.workload == "cold-distinct":
            return [self.request(-1 - k) for k in range(COLD_WARMUP)]
        if self.workload == "db-read-write":
            return [self.request(0)]
        rng = _labels(self.workload, self.seed, "warmup")
        warm = [
            self.pool.evaluate(-1, k, rng) for k in range(len(self.pool.cases))
        ]
        if self.workload == "hot-repeat":
            warm += [
                self.pool.contain(-1, k, rng) for k in range(len(self.pool.pairs))
            ]
        return warm


def send(client, request: Request):
    """Send one request through a ``ServiceClient``; return its answer.

    The answer is what the check compares: a count, a containment
    verdict, or the new database version of an update.
    """
    if request.kind == "contain":
        return client.contain(request.query, request.phi_b)["contained"]
    if request.kind == "update":
        return client.update(DB_NAME, delta=request.delta)["version"]
    if request.kind == "read":
        return client.evaluate(request.query, db=DB_NAME)
    return client.evaluate(
        request.query, request.structure, deadline_ms=request.deadline_ms
    )


def http_body(request: Request) -> tuple[str, dict]:
    """``(endpoint, body)`` exactly as :func:`send`'s client encodes it."""
    if request.kind == "contain":
        return "contain", {
            "engine": "auto",
            "witness": True,
            "cache": True,
            "kind": "cq",
            "phi_s": request.query,
            "phi_b": request.phi_b,
        }
    if request.kind == "update":
        return "update", {"db": DB_NAME, "delta": request.delta}
    body = {"kind": "cq", "engine": "auto", "cache": True, "query": request.query}
    if request.kind == "read":
        body["db"] = DB_NAME
    else:
        body["structure"] = request.structure
    if request.deadline_ms is not None:
        body["deadline_ms"] = request.deadline_ms
    return "evaluate", body
