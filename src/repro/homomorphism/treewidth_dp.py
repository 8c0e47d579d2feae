"""Homomorphism counting by dynamic programming over a tree decomposition.

A second, independent counting engine used for differential testing against
the backtracking counter and for queries whose primal graph has small
treewidth (e.g. the long ``E``-cycles ``δ_{b,l}`` of Section 4.6, which a
naive backtracking search handles poorly on dense structures).

Algorithm: build the primal graph of the query (vertices = variables,
edges = co-occurrence in an atom or inequality), compute a tree
decomposition with the min-fill-in elimination heuristic, assign every atom
and inequality to one bag containing all its variables (such a bag exists
because an atom's variables form a clique in the primal graph), then count
by message passing from the leaves to the root:

``msg_child(σ) = Σ_{bag assignments β ⊇ σ satisfying the bag's constraints}
Π msg_grandchild(β|separator)``

The root's total is ``Σ_root-assignments Π child messages``.

:func:`tree_decomposition` is a dependency-free port of networkx's
``treewidth_min_fill_in``: it eliminates by the same rule, creates bags in
the same order and walks the tree in the same breadth-first edge order, so
on a graph given in the same node order it returns networkx's
decomposition bag for bag (the test suite checks this differentially).
"""

from __future__ import annotations

import itertools
import sys
from collections import deque
from typing import Hashable

from repro.deadline import check
from repro.errors import ConstantError, EvaluationError
from repro.obs import metrics as obs_metrics
from repro.queries.atoms import Atom, Inequality
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Term, Variable
from repro.relational.structure import Structure

__all__ = [
    "count_homomorphisms_td",
    "primal_graph",
    "query_treewidth",
    "tree_decomposition",
]

Element = Hashable

#: An undirected graph without self-loops: every node maps to the set of
#: its neighbours.  Dict order is the node order the heuristic breaks
#: ties by.
Graph = dict[Hashable, set]


def primal_graph(query: ConjunctiveQuery) -> dict[Variable, set[Variable]]:
    """The query's primal graph, nodes in sorted variable order.

    Two variables are adjacent when they occur in one atom or are the two
    sides of an inequality.  Every call returns fresh neighbour sets, so
    callers may consume the graph destructively.  The node order is the
    decomposition's tie-break, so sorting keeps the DP's work independent
    of string hashing (``PYTHONHASHSEED``).
    """
    graph: dict[Variable, set[Variable]] = {
        variable: set() for variable in sorted(query.variables)
    }
    for constraint in [*query.atoms, *query.inequalities]:
        scope = set(constraint.variables())  # type: ignore[union-attr]
        for variable in scope:
            graph[variable] |= scope
            graph[variable].discard(variable)
    return graph


def query_treewidth(query: ConjunctiveQuery) -> int:
    """Width of the (heuristic) tree decomposition of the query's primal graph.

    An upper bound on the true treewidth; ``0`` for queries whose variables
    never co-occur.
    """
    graph = primal_graph(query)
    if not graph:
        return 0
    width, _, _ = tree_decomposition(graph)
    return width


def tree_decomposition(
    graph: Graph,
) -> tuple[int, list[frozenset], list[tuple[frozenset, frozenset]]]:
    """``(width, bags, edges)``: a min-fill-in tree decomposition of ``graph``.

    Repeatedly eliminate the node whose neighbourhood needs the fewest
    fill-in edges to become a clique, until the rest is complete.  The
    rest is ``bags[0]``; each eliminated node then adds, latest first, a
    bag of itself and its neighbours at elimination, attached to the
    first earlier bag holding those neighbours.  ``edges`` are the tree's
    ``(parent, child)`` pairs breadth-first from ``bags[0]``, and
    ``width`` is the largest bag's size minus one (``-1`` on the empty
    graph).  ``graph`` is left unchanged.
    """
    remaining = {node: set(neighbors) for node, neighbors in graph.items()}
    eliminated: list[tuple[Hashable, set]] = []
    node = _min_fill_in_node(remaining)
    while node is not None:
        neighbors = remaining.pop(node)
        for neighbor in neighbors:
            adjacent = remaining[neighbor]
            adjacent |= neighbors
            adjacent.discard(neighbor)
            adjacent.discard(node)
        eliminated.append((node, neighbors))
        node = _min_fill_in_node(remaining)

    bags = [frozenset(remaining)]
    children: list[list[int]] = [[]]
    for node, neighbors in reversed(eliminated):
        host = next((i for i, bag in enumerate(bags) if neighbors <= bag), 0)
        children[host].append(len(bags))
        children.append([])
        bags.append(frozenset(neighbors | {node}))

    edges: list[tuple[frozenset, frozenset]] = []
    queue = deque([0])
    while queue:
        up = queue.popleft()
        for down in children[up]:
            edges.append((bags[up], bags[down]))
            queue.append(down)
    return max(len(bag) for bag in bags) - 1, bags, edges


def _min_fill_in_node(graph: Graph) -> Hashable | None:
    """The next node to eliminate, or ``None`` once the graph is complete.

    Scans nodes by ascending degree (ties in graph order) and returns the
    first with the least fill-in, stopping early at a node needing none.
    """
    if not graph:
        return None
    by_degree = sorted(graph, key=lambda node: len(graph[node]))
    if len(graph[by_degree[0]]) == len(graph) - 1:
        return None
    best, best_fill = None, sys.maxsize
    for node in by_degree:
        neighbors = graph[node]
        # Twice the fill-in: each missing edge is seen from both its ends.
        fill = 0
        for neighbor in neighbors:
            fill += len(neighbors - graph[neighbor]) - 1
            if fill >= best_fill:
                break
        if fill < best_fill:
            if fill == 0:
                return node
            best, best_fill = node, fill
    return best


def _connected_components(graph: Graph) -> list[Graph]:
    """The components of ``graph``, each in graph order, by first node."""
    label: dict[Hashable, Hashable] = {}
    for start in graph:
        if start in label:
            continue
        label[start] = start
        frontier = [start]
        while frontier:
            for neighbor in graph[frontier.pop()]:
                if neighbor not in label:
                    label[neighbor] = start
                    frontier.append(neighbor)
    components: dict[Hashable, Graph] = {}
    for node, neighbors in graph.items():
        components.setdefault(label[node], {})[node] = neighbors
    return list(components.values())


def count_homomorphisms_td(query: ConjunctiveQuery, structure: Structure) -> int:
    """``φ(D)`` via tree-decomposition dynamic programming.

    Exact; agrees with
    :func:`repro.homomorphism.backtracking.count_homomorphisms` on every
    input (the test suite enforces this differentially).
    """
    for constant in query.constants:
        if not structure.interprets(constant.name):
            raise ConstantError(
                f"structure does not interpret constant {constant.name!r}"
            )
    for atom in query.atoms:
        if atom.relation not in structure.schema:
            # Undeclared relations are interpreted as empty; an atom over
            # one can never be satisfied (the arity-1+ atom needs a fact).
            return 0
        if structure.schema.arity(atom.relation) != atom.arity:
            raise EvaluationError(
                f"arity mismatch for relation {atom.relation!r}: query "
                f"uses {atom.arity}, structure declares "
                f"{structure.schema.arity(atom.relation)}"
            )

    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter("td.calls").inc()
    if not _ground_holds(query, structure):
        return 0
    variables = sorted(query.variables)
    if not variables:
        return 1

    total = 1
    for component in _connected_components(primal_graph(query)):
        if registry is not None:
            registry.counter("td.components").inc()
        total *= _count_component(query, structure, component, registry)
        if total == 0:
            return 0
    return total


def _ground_holds(query: ConjunctiveQuery, structure: Structure) -> bool:
    for atom in query.atoms:
        if not any(True for _ in atom.variables()):
            values = tuple(
                structure.interpret(term.name)  # type: ignore[union-attr]
                for term in atom.terms
            )
            if not structure.has_fact(atom.relation, values):
                return False
    for inequality in query.inequalities:
        if not any(True for _ in inequality.variables()):
            if structure.interpret(inequality.left.name) == structure.interpret(
                inequality.right.name
            ):
                return False
    return True


def _count_component(
    query: ConjunctiveQuery,
    structure: Structure,
    graph: Graph,
    registry: obs_metrics.Registry | None = None,
) -> int:
    component_variables = set(graph)
    atoms = [
        atom
        for atom in query.atoms
        if set(atom.variables()) and set(atom.variables()) <= component_variables
    ]
    inequalities = [
        ineq
        for ineq in query.inequalities
        if set(ineq.variables()) and set(ineq.variables()) <= component_variables
    ]

    width, bags, order = tree_decomposition(graph)
    if registry is not None:
        registry.counter("td.bags").inc(len(bags))
        registry.gauge("td.width").set_max(width)
    root = bags[0]
    children: dict[frozenset, list[frozenset]] = {bag: [] for bag in bags}
    for up, down in order:
        children[up].append(down)

    # Assign every constraint to one bag containing all its variables,
    # preferring deeper bags so work happens near the leaves.
    depth: dict[frozenset, int] = {root: 0}
    for up, down in order:
        depth[down] = depth[up] + 1
    constraints_at: dict[frozenset, list[Atom | Inequality]] = {
        bag: [] for bag in bags
    }
    for constraint in [*atoms, *inequalities]:
        constraint_variables = set(
            constraint.variables()  # type: ignore[union-attr]
        )
        host = max(
            (bag for bag in bags if constraint_variables <= bag),
            key=lambda bag: depth[bag],
            default=None,
        )
        if host is None:
            raise EvaluationError(
                "tree decomposition does not cover a constraint; "
                "this indicates a bug in the primal graph construction"
            )
        constraints_at[host].append(constraint)

    unary_domain = _unary_domains(query, structure, component_variables)

    def satisfies(
        assignment: dict[Variable, Element],
        constraints: list[Atom | Inequality],
    ) -> bool:
        def image(term: Term) -> Element:
            if isinstance(term, Constant):
                return structure.interpret(term.name)
            return assignment[term]

        for constraint in constraints:
            if isinstance(constraint, Atom):
                values = tuple(image(term) for term in constraint.terms)
                if not structure.has_fact(constraint.relation, values):
                    return False
            else:
                if image(constraint.left) == image(constraint.right):
                    return False
        return True

    def bag_chunks(bag: frozenset, pinned: dict[Variable, Element]):
        """The extensions of ``pinned`` to the bag, one chunk per binding
        of all but its last free variable.

        A bag of k free variables has up to |domain|^k assignments, too
        many to hold at once; a chunk holds at most |domain|.
        """
        free = sorted(v for v in bag if v not in pinned)
        if not free:
            yield [dict(pinned)]
            return
        *outer, last = free
        for values in itertools.product(*(unary_domain[v] for v in outer)):
            partial = {**pinned, **dict(zip(outer, values))}
            yield [{**partial, last: value} for value in unary_domain[last]]

    def message(bag: frozenset, separator_assignment: dict[Variable, Element]) -> int:
        total = 0
        for chunk in bag_chunks(bag, separator_assignment):
            check()
            for assignment in chunk:
                if not satisfies(assignment, constraints_at[bag]):
                    continue
                product = 1
                for child in children[bag]:
                    separator = child & bag
                    restricted = {v: assignment[v] for v in separator}
                    product *= cached_message(child, restricted)
                    if product == 0:
                        break
                total += product
        return total

    cache: dict[tuple[frozenset, tuple], int] = {}
    message_calls = 0

    def cached_message(
        bag: frozenset, separator_assignment: dict[Variable, Element]
    ) -> int:
        if registry is not None:
            nonlocal message_calls
            message_calls += 1
        key = (bag, tuple(sorted(separator_assignment.items(), key=lambda kv: kv[0])))
        if key not in cache:
            cache[key] = message(bag, separator_assignment)
        return cache[key]

    try:
        result = cached_message(root, {})
    finally:
        # ``message`` and ``cached_message`` call each other through
        # their closure cells, a reference cycle that holds the DP table,
        # the constraints and the structure.  Unlink it, so reference
        # counting frees them when the count ends or stops at its deadline.
        del cached_message
    if registry is not None:
        # The cache *is* the DP table: one entry per (bag, separator
        # assignment) message ever computed.
        registry.counter("td.message_calls").inc(message_calls)
        registry.counter("td.table_entries").inc(len(cache))
    return result


def _unary_domains(
    query: ConjunctiveQuery,
    structure: Structure,
    variables: set[Variable],
) -> dict[Variable, list[Element]]:
    """Initial candidate values per variable from single-atom projections."""
    domain = sorted(structure.domain, key=repr)
    result: dict[Variable, list[Element]] = {}
    for variable in variables:
        candidates: set | None = None
        for atom in query.atoms:
            if variable not in set(atom.variables()):
                continue
            positions = [
                index for index, term in enumerate(atom.terms) if term == variable
            ]
            allowed = set()
            for fact in structure.facts(atom.relation):
                value = fact[positions[0]]
                if all(fact[index] == value for index in positions[1:]):
                    constant_ok = all(
                        fact[index] == structure.interpret(term.name)
                        for index, term in enumerate(atom.terms)
                        if isinstance(term, Constant)
                    )
                    if constant_ok:
                        allowed.add(value)
            candidates = allowed if candidates is None else candidates & allowed
        if candidates is None:
            result[variable] = list(domain)
        else:
            result[variable] = sorted(candidates, key=repr)
    return result
