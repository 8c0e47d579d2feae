"""Tests for the homomorphism engines: counting, enumeration, existence.

Includes the differential tests that pin the two engines (backtracking and
tree-decomposition DP) against the brute-force reference counter.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.errors import ConstantError, EvaluationError
from repro.homomorphism import (
    count,
    count_homomorphisms,
    count_homomorphisms_td,
    enumerate_homomorphisms,
    exists_homomorphism,
    is_homomorphism,
    query_treewidth,
)
from repro.homomorphism.treewidth_dp import primal_graph, tree_decomposition
from repro.queries import Atom, ConjunctiveQuery, Constant, Inequality, Variable, parse_query
from repro.relational import Schema, Structure

from tests.conftest import brute_force_count


@pytest.fixture
def structure():
    return Structure(
        Schema.from_arities({"E": 2, "U": 1}),
        {"E": [(0, 1), (1, 2), (2, 0), (0, 0)], "U": [(0,), (2,)]},
    )


class TestCounting:
    def test_single_edge(self, structure):
        assert count(parse_query("E(x, y)"), structure) == 4

    def test_loop(self, structure):
        assert count(parse_query("E(x, x)"), structure) == 1

    def test_triangle(self, structure):
        assert count(parse_query("E(x, y) & E(y, z) & E(z, x)"), structure) == 4

    def test_with_unary(self, structure):
        assert count(parse_query("E(x, y) & U(x)"), structure) == 3

    def test_with_constant(self):
        d = Structure(
            Schema.from_arities({"E": 2}),
            {"E": [(0, 1), (0, 2)]},
            constants={"a": 0},
        )
        assert count(parse_query("E(#a, z)"), d) == 2

    def test_missing_constant_raises(self, structure):
        with pytest.raises(ConstantError):
            count(parse_query("E(#nope, x)"), structure)

    def test_acyclic_engine_dispatch(self, structure):
        # The Yannakakis counter is a reference, not an engine.
        query = parse_query("E(x, y) & E(y, z)")
        with pytest.raises(EvaluationError, match="unknown engine 'acyclic'"):
            count(query, structure, engine="acyclic")

    def test_unknown_relation_is_empty(self, structure):
        """A relation the structure does not declare is interpreted as empty."""
        assert count(parse_query("F(x, y)"), structure) == 0
        assert count(parse_query("F(x, y)"), structure, engine="treewidth") == 0

    def test_arity_mismatch_raises(self, structure):
        query = ConjunctiveQuery([Atom("E", (Variable("x"),))])
        with pytest.raises(EvaluationError):
            count(query, structure)

    def test_empty_query_counts_one(self, structure):
        assert count(parse_query("TRUE"), structure) == 1

    def test_inequality_only_query(self, structure):
        # Three elements: ordered pairs with distinct members = 3*2 = 6.
        assert count(parse_query("x != y"), structure) == 6

    def test_unconstrained_variable(self, structure):
        # z ranges over the whole domain.
        assert count(parse_query("E(x, x), z != x"), structure) == 2

    def test_duplicate_variable_in_atom(self, structure):
        query = parse_query("E(x, x) & E(x, y)")
        assert count(query, structure) == 2  # x=0, y in {0,1}


class TestInequalities:
    def test_simple(self, structure):
        with_ineq = count(parse_query("E(x, y) & x != y"), structure)
        without = count(parse_query("E(x, y)"), structure)
        assert with_ineq == without - 1  # only the loop is excluded

    def test_constant_inequality(self):
        d = Structure(
            Schema.from_arities({"E": 2}),
            {"E": [(0, 1), (0, 0)]},
            constants={"a": 0},
        )
        assert count(parse_query("E(#a, y) & y != #a"), d) == 1

    def test_trivially_false(self, structure):
        query = ConjunctiveQuery(
            [Atom("E", (Variable("x"), Variable("y")))],
            [Inequality(Variable("x"), Variable("x"))],
        )
        assert count(query, structure) == 0

    def test_ground_inequality_between_constants(self):
        d = Structure(
            Schema.from_arities({"E": 2}),
            {"E": [(0, 1)]},
            constants={"a": 0, "b": 0},
        )
        assert count(parse_query("E(x, y) & #a != #b"), d) == 0

    def test_many_inequalities_fall_back(self, structure):
        # 13 inequalities exceed the inclusion-exclusion limit; the direct
        # engine must still agree with brute force.
        variables = [Variable(f"v{i}") for i in range(5)]
        atoms = [Atom("E", (variables[i], variables[(i + 1) % 5])) for i in range(5)]
        inequalities = [
            Inequality(variables[i], variables[j])
            for i in range(5)
            for j in range(i + 1, 5)
        ][:13]
        query = ConjunctiveQuery(atoms, inequalities)
        assert count(query, structure) == brute_force_count(query, structure)


class TestEnumeration:
    def test_enumeration_matches_count(self, structure):
        query = parse_query("E(x, y) & U(y) & x != y")
        homs = list(enumerate_homomorphisms(query, structure))
        assert len(homs) == count(query, structure)
        assert all(is_homomorphism(h, query, structure) for h in homs)

    def test_enumeration_distinct(self, structure):
        query = parse_query("E(x, y)")
        homs = [tuple(sorted(h.items())) for h in enumerate_homomorphisms(query, structure)]
        assert len(homs) == len(set(homs))

    def test_exists(self, structure):
        assert exists_homomorphism(parse_query("E(x, x)"), structure)
        assert not exists_homomorphism(parse_query("U(x) & E(x, x) & U(y) & E(y, y) & x != y"), structure)


class TestTreewidthEngine:
    def test_agrees_on_cycles(self, structure):
        for length in (2, 3, 4, 6):
            variables = [Variable(f"c{i}") for i in range(length)]
            query = ConjunctiveQuery(
                Atom("E", (variables[i], variables[(i + 1) % length]))
                for i in range(length)
            )
            assert count_homomorphisms_td(query, structure) == count_homomorphisms(
                query, structure
            )

    def test_treewidth_of_path_is_one(self):
        assert query_treewidth(parse_query("E(x, y) & E(y, z) & E(z, w)")) == 1

    def test_treewidth_of_triangle_is_two(self):
        assert query_treewidth(parse_query("E(x, y) & E(y, z) & E(z, x)")) == 2

    def test_empty_query(self, structure):
        assert count_homomorphisms_td(parse_query("TRUE"), structure) == 1


def _random_graph(rng, connected: bool):
    """``(node order, edge list)``: shuffled labels, density from tree to clique."""
    size = rng.randint(1, 14)
    order = rng.sample(range(100), size)
    edges = set()
    if connected:
        for index in range(1, size):
            edges.add((order[index], order[rng.randrange(index)]))
    density = rng.choice([0.0, 0.05, 0.15, 0.3, 0.5, 0.8, 1.0])
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                edges.add((order[i], order[j]))
    edges = sorted(edges)
    rng.shuffle(edges)
    return order, edges


def _adjacency(order, edges) -> dict:
    graph = {node: set() for node in order}
    for first, second in edges:
        graph[first].add(second)
        graph[second].add(first)
    return graph


def _assert_valid_decomposition(graph: dict, width, bags, edges) -> None:
    assert len(set(bags)) == len(bags), "bags are distinct"
    assert width == max(len(bag) for bag in bags) - 1
    # A tree, listed breadth-first from bags[0]: every other bag is entered
    # exactly once, from a bag that was already reached.
    assert len(edges) == len(bags) - 1
    reached = [bags[0]]
    for up, down in edges:
        assert up in reached and down not in reached
        reached.append(down)
    assert set().union(*bags) == set(graph)
    for node, neighbors in graph.items():
        for neighbor in neighbors:
            assert any({node, neighbor} <= bag for bag in bags), (node, neighbor)
        # Running intersection: the bags holding ``node`` form a subtree.
        holding = sum(1 for bag in bags if node in bag)
        linked = sum(1 for up, down in edges if node in up and node in down)
        assert linked == holding - 1, node


class TestTreeDecomposition:
    def test_matches_networkx_on_connected_graphs(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.approximation import treewidth_min_fill_in

        for seed in range(1000):
            order, edges = _random_graph(random.Random(seed), connected=True)
            reference = nx.Graph()
            reference.add_nodes_from(order)
            reference.add_edges_from(edges)
            width, tree = treewidth_min_fill_in(reference)
            bags = list(tree.nodes)
            expected = (width, bags, list(nx.bfs_tree(tree, bags[0]).edges()))
            graph = _adjacency(order, edges)
            assert tree_decomposition(graph) == expected, seed

    @pytest.mark.parametrize("connected", [True, False])
    def test_random_graphs_decompose_validly(self, connected):
        for seed in range(300):
            order, edges = _random_graph(random.Random(seed), connected)
            graph = _adjacency(order, edges)
            _assert_valid_decomposition(graph, *tree_decomposition(graph))
            assert graph == _adjacency(order, edges), "input left unchanged"

    @pytest.mark.parametrize("length", [3, 4, 8, 16])
    def test_long_cycle_has_width_two(self, length):
        order = list(range(length))
        graph = _adjacency(order, [(i, (i + 1) % length) for i in order])
        width, bags, edges = tree_decomposition(graph)
        assert width == 2
        _assert_valid_decomposition(graph, width, bags, edges)

    def test_complete_graph_is_one_bag(self):
        graph = _adjacency(range(5), [(i, j) for i in range(5) for j in range(i)])
        assert tree_decomposition(graph) == (4, [frozenset(range(5))], [])

    def test_empty_graph(self):
        assert tree_decomposition({}) == (-1, [frozenset()], [])

    def test_primal_graph(self):
        query = parse_query("E(x, y) & U(z) & T(x, x, w) & x != z & y != y")
        x, y, z, w = (Variable(name) for name in "xyzw")
        graph = primal_graph(query)
        assert list(graph) == [w, x, y, z]
        assert graph == {x: {y, z, w}, y: {x}, z: {x}, w: {x}}

    def test_dp_work_is_independent_of_hash_seed(self):
        """The DP's bags, and so its work, do not depend on string
        hashing: ``td.*`` agree under two ``PYTHONHASHSEED`` values."""
        probe = (
            "import json\n"
            "from repro.homomorphism import count\n"
            "from repro.obs import observe\n"
            "from repro.qa.generators import case_at\n"
            "with observe() as observation:\n"
            "    for index in range(400):\n"
            "        case = case_at(index, seed=0)\n"
            "        if case.kind == 'cq':\n"
            "            count(case.query, case.structure, engine='treewidth')\n"
            "metrics = observation.report()['metrics']\n"
            "print(json.dumps({name: metric['value'] for name, metric in "
            "metrics.items() if name.startswith('td.')}))\n"
        )
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        counters = []
        for hash_seed in ("1", "2"):
            environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
            environment["PYTHONPATH"] = os.pathsep.join(
                filter(None, [package_root, environment.get("PYTHONPATH")])
            )
            result = subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True,
                text=True,
                env=environment,
                timeout=120,
                check=True,
            )
            counters.append(json.loads(result.stdout))
        assert counters[0]["td.message_calls"] > 0
        assert counters[0] == counters[1]

    def test_query_primal_graphs_decompose_validly(self):
        for seed in range(200):
            rng = random.Random(seed)
            variables = [Variable(f"v{i}") for i in range(rng.randint(1, 8))]
            atoms = [
                Atom("T", tuple(rng.choice(variables) for _ in range(3)))
                for _ in range(rng.randint(1, 6))
            ]
            inequalities = [
                Inequality(rng.choice(variables), rng.choice(variables))
                for _ in range(rng.randint(0, 2))
            ]
            query = ConjunctiveQuery(atoms, inequalities)
            graph = primal_graph(query)
            width, bags, edges = tree_decomposition(graph)
            _assert_valid_decomposition(graph, width, bags, edges)
            assert query_treewidth(query) == width


class TestDifferential:
    """Randomized cross-validation of all engines against brute force."""

    @pytest.mark.parametrize("seed", range(40))
    def test_engines_agree(self, seed):
        rng = random.Random(seed)
        schema = Schema.from_arities({"E": 2, "U": 1})
        n = rng.randint(1, 4)
        d = Structure(
            schema,
            {
                "E": {(rng.randint(0, n), rng.randint(0, n)) for _ in range(6)},
                "U": {(rng.randint(0, n),) for _ in range(3)},
            },
            domain=range(n + 1),
        )
        variables = [Variable(f"v{i}") for i in range(rng.randint(1, 4))]
        atoms = [
            Atom("E", (rng.choice(variables), rng.choice(variables)))
            for _ in range(rng.randint(0, 4))
        ]
        atoms += [Atom("U", (rng.choice(variables),)) for _ in range(rng.randint(0, 2))]
        inequalities = [
            Inequality(rng.choice(variables), rng.choice(variables))
            for _ in range(rng.randint(0, 2))
        ]
        query = ConjunctiveQuery(atoms, inequalities)
        expected = brute_force_count(query, d)
        assert count(query, d) == expected
        assert count(query, d, engine="treewidth") == expected
        assert count(query, d, use_inclusion_exclusion=True) == expected
        assert sum(1 for _ in enumerate_homomorphisms(query, d)) == expected
        for flags in (
            dict(subtree_memo=False),
            dict(component_split=False),
            dict(private_counting=False),
            dict(subtree_memo=False, component_split=False, private_counting=False),
        ):
            assert count_homomorphisms(query, d, **flags) == expected
