"""Yannakakis-style counting for acyclic conjunctive queries.

An independent counter specialized to α-acyclic queries — the class
whose bag-containment status [13] ties to open problems in information
theory, and the classical tractable island of query evaluation.  It is
a reference, not an engine: the compiled engine runs the same passes
over the same :func:`join_tree`, and the tests and the ``cross_engine``
oracle compare against this plain version.  The pipeline is textbook:

1. **GYO reduction** detects α-acyclicity and produces a *join tree*: the
   query's atoms are nodes, and for every variable the nodes containing it
   form a connected subtree.
2. **Weighted Yannakakis** counts homomorphisms bottom-up: each node
   starts with weight 1 per matching fact; a child's weights are
   aggregated over its private variables, grouped by the separator with
   its parent, and multiplied into the parent's matching facts.  The root
   total, times a domain factor for atom-free variables, is ``φ(D)``.

Complexity is ``O(|D|·|φ|)``-ish (linear-time combined complexity up to
sorting), versus the general engines' exponential worst case.  Queries
with inequalities or cyclic hypergraphs are rejected —
:func:`is_acyclic` lets callers route.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable

from repro.deadline import check
from repro.errors import EvaluationError
from repro.obs import metrics as obs_metrics
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.relational.structure import Structure

__all__ = [
    "count_homomorphisms_acyclic",
    "is_acyclic",
    "join_tree",
    "matching_facts",
]

Element = Hashable


def join_tree(query: ConjunctiveQuery) -> list[tuple[int, int | None]] | None:
    """A join tree of the query's atoms via GYO reduction, or ``None``.

    Returns ``[(atom_index, parent_index_or_None), …]`` in a bottom-up
    (children before parents) order.  ``None`` means the query hypergraph
    is not α-acyclic.

    GYO: repeatedly remove an *ear* — an atom whose variables are either
    private to it or all contained in some other remaining atom (its
    *witness*, which becomes the parent).  Acyclic iff everything reduces.
    """
    atoms = list(query.atoms)
    if not atoms:
        return []
    variable_sets = [frozenset(atom.variables()) for atom in atoms]
    remaining = set(range(len(atoms)))
    order: list[tuple[int, int | None]] = []

    def occurrences() -> dict[Variable, int]:
        counts: Counter = Counter()
        for index in remaining:
            for variable in variable_sets[index]:
                counts[variable] += 1
        return counts

    while len(remaining) > 1:
        counts = occurrences()
        ear_found = False
        for index in sorted(remaining):
            shared = {
                variable
                for variable in variable_sets[index]
                if counts[variable] > 1
            }
            witness = None
            for other in sorted(remaining):
                if other == index:
                    continue
                if shared <= variable_sets[other]:
                    witness = other
                    break
            if witness is not None:
                order.append((index, witness))
                remaining.discard(index)
                ear_found = True
                break
        if not ear_found:
            return None
    root = next(iter(remaining))
    order.append((root, None))
    return order


def is_acyclic(query: ConjunctiveQuery) -> bool:
    """Is the query α-acyclic (GYO-reducible)?  Inequalities don't count."""
    return join_tree(query) is not None


def matching_facts(
    atom: Atom, structure: Structure
) -> list[tuple[dict[Variable, Element], tuple]]:
    """(variable binding, fact) pairs for facts consistent with the atom.

    Constants and repeated-variable positions are discharged here, so
    callers see only genuinely consistent facts.  Shared with the
    compiled engine's index builder (a relation absent from the schema
    is the empty relation, per the standard convention).
    """
    if atom.relation not in structure.schema:
        return []
    results = []
    for fact in structure.facts(atom.relation):
        binding: dict[Variable, Element] = {}
        ok = True
        for position, term in enumerate(atom.terms):
            value = fact[position]
            if isinstance(term, Constant):
                if structure.interpret(term.name) != value:
                    ok = False
                    break
            else:
                if binding.get(term, value) != value:
                    ok = False
                    break
                binding[term] = value
        if ok:
            results.append((binding, fact))
    return results


def count_homomorphisms_acyclic(
    query: ConjunctiveQuery, structure: Structure
) -> int:
    """``φ(D)`` for an α-acyclic, inequality-free CQ (Yannakakis counting).

    Raises :class:`~repro.errors.EvaluationError` when the query has
    inequalities or is not acyclic; agrees exactly with the general
    engines otherwise (enforced differentially by the test suite).
    """
    if query.has_inequalities():
        raise EvaluationError(
            "the acyclic engine handles CQs without inequalities"
        )
    for constant in query.constants:
        if not structure.interprets(constant.name):
            raise EvaluationError(
                f"structure does not interpret constant {constant.name!r}"
            )
    tree = join_tree(query)
    if tree is None:
        raise EvaluationError("query is not α-acyclic; use the general engines")
    atoms = list(query.atoms)
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter("ac.calls").inc()
    if not atoms:
        return 1

    # Per-atom tables: separator-binding → accumulated weight.  Processing
    # follows the GYO order (children first), so by the time a node is
    # processed every child message has been folded into it.
    variable_sets = [frozenset(atom.variables()) for atom in atoms]
    tables: dict[int, list[tuple[dict[Variable, Element], int]]] = {}
    for index, atom in enumerate(atoms):
        tables[index] = [
            (binding, 1) for binding, _ in matching_facts(atom, structure)
        ]
    if registry is not None:
        registry.counter("ac.atoms").inc(len(atoms))
        registry.counter("ac.facts_matched").inc(
            sum(len(rows) for rows in tables.values())
        )
        # One semi-join fold per non-root node of the join tree.
        registry.counter("ac.join_passes").inc(len(tree) - 1)

    total = None
    for index, parent in tree:
        check()
        rows = tables[index]
        if parent is None:
            # Root: aggregate everything.
            total = sum(weight for _, weight in rows)
            break
        separator = variable_sets[index] & variable_sets[parent]
        # Aggregate the child over its private variables.
        message: dict[tuple, int] = {}
        for binding, weight in rows:
            key = tuple(sorted((v.name, binding[v]) for v in separator))
            message[key] = message.get(key, 0) + weight
        # Fold into the parent (a parent row with no matching child rows
        # dies — the child atom is unsatisfiable under that binding).
        folded: list[tuple[dict[Variable, Element], int]] = []
        for binding, weight in tables[parent]:
            key = tuple(sorted((v.name, binding[v]) for v in separator))
            factor = message.get(key, 0)
            if factor:
                folded.append((binding, weight * factor))
        tables[parent] = folded

    assert total is not None
    if total == 0:
        return 0
    # Variables in no atom range freely over the domain.
    atom_variables = frozenset().union(*variable_sets) if variable_sets else frozenset()
    free = query.variables - atom_variables
    return total * len(structure.domain) ** len(free)
