"""Backtracking homomorphism counting and enumeration.

The bag-semantics value of a boolean CQ is ``φ(D) = |Hom(φ, D)|``
(Section 2.1).  This module counts and enumerates such homomorphisms by an
*atom-directed* backtracking join:

* fully-bound atoms are constant-time hash checks and are discharged
  eagerly;
* otherwise the partially-bound atom with the fewest consistent facts is
  selected, and each consistent fact extends the assignment to **all** of
  the atom's variables at once;
* an atom whose unbound variables occur nowhere else contributes the
  *number* of its consistent facts instead of being enumerated (every
  consistent fact induces a distinct assignment of those private
  variables), which keeps the star-shaped queries of Section 4 cheap even
  when the counts are huge;
* subtree counts are memoized on the (open atoms, visible bound values)
  boundary, so sibling branches that cannot influence a subproblem share
  one evaluation — this is what makes the high-arity CYCLIQ gadgets of
  Section 3 tractable;
* variables constrained only by inequalities are counted at the end by
  direct enumeration over the active domain.

Counts are exact Python integers.  The search checks the installed
deadline (:mod:`repro.deadline`) every ``CHECK_EVERY`` units of work:
nodes, scanned facts and enumerated domain values.
"""

from __future__ import annotations

import sys
from typing import Hashable, Iterator, Mapping

from repro.deadline import CHECK_EVERY, check
from repro.errors import ConstantError, EvaluationError
from repro.obs import metrics as obs_metrics
from repro.queries.atoms import Atom, Inequality
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Term, Variable
from repro.relational.structure import Structure

__all__ = [
    "count_homomorphisms",
    "ensure_stack_for",
    "enumerate_homomorphisms",
    "exists_homomorphism",
    "is_homomorphism",
]

Element = Hashable
Assignment = dict[Variable, Element]

_UNBOUND = object()


def ensure_stack_for(query: ConjunctiveQuery) -> None:
    """Raise the interpreter recursion limit to fit this query's search.

    The search recurses once per atom plus once per inequality-only
    variable; long-ray queries (π_b's coefficient chains, Section 4.3) can
    run thousands of atoms deep.  Public: the compiled engine's closure
    chains recurse once per atom too and share this bound.
    """
    needed = 4 * (query.atom_count + query.variable_count) + 1_000
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


class _ObsStats:
    """Local tallies for one counting run, flushed to the registry at exit.

    Hot-loop increments touch plain ints on this object (no locks, no
    context-var reads); :meth:`flush` folds them into the active
    registry's ``bt.*`` metrics once per :func:`count_homomorphisms`.
    """

    __slots__ = ("nodes", "facts_scanned", "memo_hits", "memo_misses", "depth", "max_depth")

    def __init__(self) -> None:
        self.nodes = 0
        self.facts_scanned = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.depth = 0
        self.max_depth = 0

    def flush(self, registry: obs_metrics.Registry, problem: "_Problem") -> None:
        registry.counter("bt.calls").inc()
        registry.counter("bt.nodes").inc(self.nodes)
        registry.counter("bt.facts_scanned").inc(self.facts_scanned)
        registry.counter("bt.memo_hits").inc(self.memo_hits)
        registry.counter("bt.memo_misses").inc(self.memo_misses)
        registry.counter("bt.memo_entries").inc(len(problem._subtree_cache))
        registry.gauge("bt.max_depth").set_max(self.max_depth)


class _Problem:
    """Preprocessed matching problem: query × structure.

    The three optimization flags exist for the ablation benchmarks (E14):
    production callers leave them on.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        structure: Structure,
        subtree_memo: bool = True,
        component_split: bool = True,
        private_counting: bool = True,
    ) -> None:
        self.query = query
        self.structure = structure
        self.subtree_memo = subtree_memo
        self.component_split = component_split
        self.private_counting = private_counting
        # Populated by count_homomorphisms when an obs registry is active;
        # None keeps the disabled fast path to one attribute load + test.
        self.obs: _ObsStats | None = None
        #: Work left before the next deadline check (see repro.deadline).
        self.countdown = CHECK_EVERY
        for constant in query.constants:
            if not structure.interprets(constant.name):
                raise ConstantError(
                    f"structure does not interpret constant {constant.name!r} "
                    f"used by the query"
                )
        for atom in query.atoms:
            if atom.relation not in structure.schema:
                # A relation the structure does not declare is interpreted
                # as empty — the standard convention, and what containment
                # tests across schemas (Chandra-Merlin) rely on.
                continue
            if structure.schema.arity(atom.relation) != atom.arity:
                raise EvaluationError(
                    f"arity mismatch for relation {atom.relation!r}: query "
                    f"uses {atom.arity}, structure declares "
                    f"{structure.schema.arity(atom.relation)}"
                )
        self.domain = tuple(sorted(structure.domain, key=repr))
        self.atoms = list(query.atoms)
        self.atom_index = {id(atom): i for i, atom in enumerate(self.atoms)}
        self.fact_sets: dict[str, frozenset[tuple]] = {
            atom.relation: (
                structure.facts(atom.relation)
                if atom.relation in structure.schema
                else frozenset()
            )
            for atom in self.atoms
        }
        self.fact_lists: dict[str, tuple[tuple, ...]] = {
            relation: tuple(facts) for relation, facts in self.fact_sets.items()
        }
        # Per-atom templates: constants pre-resolved, variable positions listed.
        self.templates: list[list] = []
        self.var_positions: list[tuple[tuple[int, Variable], ...]] = []
        self.variables_of_atom: list[frozenset[Variable]] = []
        for atom in self.atoms:
            template: list = []
            positions: list[tuple[int, Variable]] = []
            for index, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    template.append(structure.interpret(term.name))
                else:
                    template.append(_UNBOUND)
                    positions.append((index, term))
            self.templates.append(template)
            self.var_positions.append(tuple(positions))
            self.variables_of_atom.append(
                frozenset(variable for _, variable in positions)
            )
        self.occurrences: dict[Variable, int] = {v: 0 for v in query.variables}
        for variables in self.variables_of_atom:
            for variable in variables:
                self.occurrences[variable] += 1
        self.inequalities = list(query.inequalities)
        self.inequality_partners: dict[Variable, list[Inequality]] = {
            v: [] for v in query.variables
        }
        for inequality in self.inequalities:
            for variable in set(inequality.variables()):
                self.inequality_partners[variable].append(inequality)
        self.free_variables = tuple(
            sorted(v for v, n in self.occurrences.items() if n == 0)
        )
        self._match_cache: dict[tuple, tuple[tuple, ...]] = {}
        self._subtree_cache: dict[tuple, int] = {}
        self._relevant_cache: dict[tuple[int, ...], tuple[Variable, ...]] = {}
        # Integer variable ids: the component split runs in inner loops and
        # int hashing is far cheaper than term hashing.
        self.variable_id: dict[Variable, int] = {
            variable: index
            for index, variable in enumerate(sorted(query.variables))
        }
        self.atom_var_ids: list[tuple[int, ...]] = [
            tuple(self.variable_id[variable] for variable in variables)
            for variables in self.variables_of_atom
        ]
        self.bound_ids: set[int] = set()

    # -- term resolution -------------------------------------------------------

    def resolve(self, term: Term, assignment: Assignment) -> Element:
        """The term's current image, or the ``_UNBOUND`` sentinel."""
        if isinstance(term, Constant):
            return self.structure.interpret(term.name)
        return assignment.get(term, _UNBOUND)

    # -- atom matching -------------------------------------------------------------

    def partial_tuple(self, atom_id: int, assignment: Assignment) -> list:
        """The atom's value tuple with ``_UNBOUND`` at unbound positions."""
        values = list(self.templates[atom_id])
        for position, variable in self.var_positions[atom_id]:
            values[position] = assignment.get(variable, _UNBOUND)
        return values

    def consistent_facts(
        self, atom: Atom, assignment: Assignment
    ) -> tuple[tuple, ...]:
        """Facts of the atom's relation matching all resolved positions.

        Positions holding the same (unbound) variable must agree within the
        fact.  Results are cached per (atom, resolved-positions) context:
        during a count the same atom is re-examined under few distinct
        bindings but from many sibling branches.
        """
        atom_id = self.atom_index[id(atom)]
        resolved = self.partial_tuple(atom_id, assignment)
        cache_key = (atom_id, tuple(resolved))
        cached = self._match_cache.get(cache_key)
        if cached is not None:
            return cached
        facts = self.fact_lists[atom.relation]
        # A scan is work between deadline checks, like a node.
        self.countdown -= len(facts)
        if self.obs is not None:
            self.obs.facts_scanned += len(facts)
        first_position: dict[Variable, int] = {}
        duplicate_checks: list[tuple[int, int]] = []
        for position, variable in self.var_positions[atom_id]:
            if resolved[position] is _UNBOUND:
                if variable in first_position:
                    duplicate_checks.append((first_position[variable], position))
                else:
                    first_position[variable] = position
        constrained = [
            (index, expected)
            for index, expected in enumerate(resolved)
            if expected is not _UNBOUND
        ]
        matches = []
        for fact in facts:
            if any(fact[index] != expected for index, expected in constrained):
                continue
            if any(fact[i] != fact[j] for i, j in duplicate_checks):
                continue
            matches.append(fact)
        result = tuple(matches)
        self._match_cache[cache_key] = result
        return result

    def extend_with_fact(
        self, atom: Atom, fact: tuple, assignment: Assignment
    ) -> list[Variable] | None:
        """Bind the atom's unbound variables to the fact's values.

        Returns the newly bound variables, or ``None`` when an inequality
        is violated (in which case nothing was bound).
        """
        atom_id = self.atom_index[id(atom)]
        newly_bound: list[Variable] = []
        for position, variable in self.var_positions[atom_id]:
            if variable not in assignment:
                assignment[variable] = fact[position]
                self.bound_ids.add(self.variable_id[variable])
                newly_bound.append(variable)
        for variable in newly_bound:
            for inequality in self.inequality_partners[variable]:
                left = self.resolve(inequality.left, assignment)
                right = self.resolve(inequality.right, assignment)
                if left is not _UNBOUND and right is not _UNBOUND and left == right:
                    self.retract(newly_bound, assignment)
                    return None
        return newly_bound

    def retract(self, newly_bound: list[Variable], assignment: Assignment) -> None:
        for variable in newly_bound:
            del assignment[variable]
            self.bound_ids.discard(self.variable_id[variable])

    # -- boundary signatures for memoization -----------------------------------------

    def relevant_variables(
        self, atom_indices: tuple[int, ...]
    ) -> tuple[Variable, ...]:
        """Variables whose current values a subtree over these atoms can see.

        The union of the atoms' variables, the inequality partners of those
        variables, and the partners of the globally atom-free variables —
        precomputed once per distinct atom set, so subtree cache keys cost
        one dict lookup per variable.
        """
        cached = self._relevant_cache.get(atom_indices)
        if cached is not None:
            return cached
        # Insertion-ordered set; any order consistent within this problem
        # instance works as a cache-key layout.
        seen: dict[Variable, None] = {}
        for index in atom_indices:
            for variable in self.variables_of_atom[index]:
                seen.setdefault(variable, None)
        frontier = list(seen) + list(self.free_variables)
        for variable in frontier:
            for inequality in self.inequality_partners[variable]:
                for term in (inequality.left, inequality.right):
                    if isinstance(term, Variable):
                        seen.setdefault(term, None)
        result = tuple(seen)
        self._relevant_cache[atom_indices] = result
        return result

    # -- ground part ---------------------------------------------------------------------

    def ground_part_holds(self) -> bool:
        """Variable-free atoms and inequalities must hold outright."""
        for atom_id, atom in enumerate(self.atoms):
            if not self.var_positions[atom_id]:
                values = tuple(self.templates[atom_id])
                if values not in self.fact_sets[atom.relation]:
                    return False
        for inequality in self.inequalities:
            if not any(True for _ in inequality.variables()):
                if self.structure.interpret(
                    inequality.left.name
                ) == self.structure.interpret(inequality.right.name):
                    return False
        return True


def _split_atoms(
    problem: _Problem, atoms: list[Atom], assignment: Assignment
) -> list[Atom] | None:
    """The still-open atoms; ``None`` when a fully-bound atom fails."""
    open_atoms: list[Atom] = []
    for atom in atoms:
        atom_id = problem.atom_index[id(atom)]
        values = list(problem.templates[atom_id])
        bound = True
        for position, variable in problem.var_positions[atom_id]:
            value = assignment.get(variable, _UNBOUND)
            if value is _UNBOUND:
                bound = False
                break
            values[position] = value
        if bound:
            if tuple(values) not in problem.fact_sets[atom.relation]:
                return None
        else:
            open_atoms.append(atom)
    return open_atoms


def _select_atom(
    problem: _Problem, open_atoms: list[Atom], assignment: Assignment
) -> tuple[Atom, tuple[tuple, ...]]:
    """The open atom with the fewest consistent facts (fail-first)."""
    best: tuple[Atom, tuple[tuple, ...]] | None = None
    for atom in open_atoms:
        matches = problem.consistent_facts(atom, assignment)
        if best is None or len(matches) < len(best[1]):
            best = (atom, matches)
            if len(matches) <= 1:
                # Nothing beats a forced (or failed) atom; stop scanning.
                break
    assert best is not None
    return best


def _is_private(
    problem: _Problem,
    atom: Atom,
    open_atoms: list[Atom],
    assignment: Assignment,
) -> bool:
    """Do the atom's unbound variables occur in no other open atom and no
    inequality?  Then its consistent facts can be counted, not enumerated."""
    atom_id = problem.atom_index[id(atom)]
    unbound = {
        variable
        for variable in problem.variables_of_atom[atom_id]
        if variable not in assignment
    }
    if not unbound:
        return True
    for variable in unbound:
        if problem.inequality_partners[variable]:
            return False
    for other in open_atoms:
        if other is atom:
            continue
        other_id = problem.atom_index[id(other)]
        if problem.variables_of_atom[other_id] & unbound:
            return False
    return True


def _free_variable_count(
    problem: _Problem, assignment: Assignment, variables: list[Variable]
) -> int:
    """Assignments for variables constrained only by inequalities.

    Counted by plain enumeration over the domain (the inequality graph on
    such variables is tiny in practice).
    """
    if not variables:
        return 1
    problem.countdown -= len(problem.domain)
    if problem.countdown <= 0:
        problem.countdown = CHECK_EVERY
        check()
    total = 0
    variable, rest = variables[0], variables[1:]
    for value in problem.domain:
        assignment[variable] = value
        violated = False
        for inequality in problem.inequality_partners[variable]:
            left = problem.resolve(inequality.left, assignment)
            right = problem.resolve(inequality.right, assignment)
            if left is not _UNBOUND and right is not _UNBOUND and left == right:
                violated = True
                break
        if not violated:
            total += _free_variable_count(problem, assignment, rest)
        del assignment[variable]
    return total


def _subtree_key(
    problem: _Problem, assignment: Assignment, atoms: list[Atom]
) -> tuple:
    """Cache key: the open atoms plus every bound value they can observe.

    A subtree's count depends only on which atoms remain, the bound values
    at their positions, and the bound values of inequality partners of the
    still-unbound variables — not on how the assignment got there.
    """
    indices = tuple(problem.atom_index[id(atom)] for atom in atoms)
    relevant = problem.relevant_variables(indices)
    values = tuple(assignment.get(variable, _UNBOUND) for variable in relevant)
    return (indices, values)


def _count(problem: _Problem, assignment: Assignment, atoms: list[Atom]) -> int:
    if not problem.subtree_memo:
        return _count_uncached(problem, assignment, atoms)
    key = _subtree_key(problem, assignment, atoms)
    cached = problem._subtree_cache.get(key)
    obs = problem.obs
    if cached is not None:
        if obs is not None:
            obs.memo_hits += 1
        return cached
    if obs is not None:
        obs.memo_misses += 1
    result = _count_uncached(problem, assignment, atoms)
    problem._subtree_cache[key] = result
    return result


def _open_components(
    problem: _Problem, open_atoms: list[Atom], assignment: Assignment
) -> list[list[Atom]]:
    """Partition open atoms into components sharing *unbound* variables.

    Bound variables no longer connect anything: once the star centre ``x``
    of π_b is fixed, each coefficient ray becomes its own independent
    subproblem whose counts multiply.  Without this split the search
    interleaves the rays and the memo keys blow up combinatorially.
    """
    parent: dict[int, int] = {}
    bound_ids = problem.bound_ids

    def find(vid: int) -> int:
        root = parent.get(vid, vid)
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(vid, vid) != vid:
            parent[vid], vid = root, parent[vid]
        return root

    anchor: list[int] = []
    isolated: list[list[Atom]] = []
    for atom in open_atoms:
        atom_id = problem.atom_index[id(atom)]
        unbound = [
            vid for vid in problem.atom_var_ids[atom_id] if vid not in bound_ids
        ]
        if not unbound:
            isolated.append([atom])
            anchor.append(-1)
            continue
        first = find(unbound[0])
        anchor.append(unbound[0])
        for vid in unbound[1:]:
            parent[find(vid)] = first
            first = find(first)
    groups: dict[int, list[Atom]] = {}
    for atom, vid in zip(open_atoms, anchor):
        if vid >= 0:
            groups.setdefault(find(vid), []).append(atom)
    return isolated + list(groups.values())


def _count_uncached(
    problem: _Problem, assignment: Assignment, atoms: list[Atom]
) -> int:
    problem.countdown -= 1
    if problem.countdown <= 0:
        problem.countdown = CHECK_EVERY
        check()
    obs = problem.obs
    if obs is None:
        return _count_node(problem, assignment, atoms)
    obs.nodes += 1
    obs.depth += 1
    if obs.depth > obs.max_depth:
        obs.max_depth = obs.depth
    try:
        return _count_node(problem, assignment, atoms)
    finally:
        obs.depth -= 1


def _count_node(
    problem: _Problem, assignment: Assignment, atoms: list[Atom]
) -> int:
    open_atoms = _split_atoms(problem, atoms, assignment)
    if open_atoms is None:
        return 0
    if not open_atoms:
        if not problem.inequalities:
            return 1
        free = [
            variable
            for variable in problem.free_variables
            if variable not in assignment
        ]
        return _free_variable_count(problem, assignment, free)
    if (
        problem.component_split
        and not problem.inequalities
        and len(open_atoms) > 1
    ):
        components = _open_components(problem, open_atoms, assignment)
        if len(components) > 1:
            total = 1
            for component in components:
                total *= _count(problem, assignment, component)
                if total == 0:
                    return 0
            return total
    atom, matches = _select_atom(problem, open_atoms, assignment)
    if not matches:
        return 0
    rest = [other for other in open_atoms if other is not atom]
    if problem.private_counting and _is_private(problem, atom, open_atoms, assignment):
        # Each consistent fact induces a distinct assignment of the atom's
        # private variables and constrains nothing else: count and multiply.
        tail = _count(problem, assignment, rest)
        if tail == 0:
            return 0
        return len(matches) * tail
    total = 0
    for fact in matches:
        newly_bound = problem.extend_with_fact(atom, fact, assignment)
        if newly_bound is None:
            continue
        total += _count(problem, assignment, rest)
        problem.retract(newly_bound, assignment)
    return total


def count_homomorphisms(
    query: ConjunctiveQuery,
    structure: Structure,
    subtree_memo: bool = True,
    component_split: bool = True,
    private_counting: bool = True,
) -> int:
    """``φ(D) = |Hom(φ, D)|`` by atom-directed backtracking.

    Exact for any boolean CQ with inequalities; returns a Python ``int``
    (arbitrary precision).  The keyword flags disable individual
    optimizations for ablation studies; results are identical either way.
    """
    ensure_stack_for(query)
    problem = _Problem(
        query,
        structure,
        subtree_memo=subtree_memo,
        component_split=component_split,
        private_counting=private_counting,
    )
    registry = obs_metrics.active_registry()
    if registry is not None:
        problem.obs = _ObsStats()
    try:
        if not problem.ground_part_holds():
            return 0
        open_atoms = [
            atom
            for atom_id, atom in enumerate(problem.atoms)
            if problem.var_positions[atom_id]
        ]
        result = _count(problem, {}, open_atoms)
        if not problem.inequalities and problem.free_variables:
            # Atom-free variables are unconstrained: each ranges over V_D.
            result *= len(problem.domain) ** len(problem.free_variables)
        return result
    finally:
        if problem.obs is not None:
            problem.obs.flush(registry, problem)


def _enumerate(
    problem: _Problem, assignment: Assignment, atoms: list[Atom]
) -> Iterator[Assignment]:
    open_atoms = _split_atoms(problem, atoms, assignment)
    if open_atoms is None:
        return
    if not open_atoms:
        free = sorted(
            variable
            for variable in problem.query.variables
            if variable not in assignment
        )
        yield from _enumerate_free(problem, assignment, free)
        return
    atom, matches = _select_atom(problem, open_atoms, assignment)
    rest = [other for other in open_atoms if other is not atom]
    for fact in matches:
        newly_bound = problem.extend_with_fact(atom, fact, assignment)
        if newly_bound is None:
            continue
        yield from _enumerate(problem, assignment, rest)
        problem.retract(newly_bound, assignment)


def _enumerate_free(
    problem: _Problem, assignment: Assignment, variables: list[Variable]
) -> Iterator[Assignment]:
    if not variables:
        yield dict(assignment)
        return
    variable, rest = variables[0], variables[1:]
    for value in problem.domain:
        assignment[variable] = value
        violated = False
        for inequality in problem.inequality_partners[variable]:
            left = problem.resolve(inequality.left, assignment)
            right = problem.resolve(inequality.right, assignment)
            if left is not _UNBOUND and right is not _UNBOUND and left == right:
                violated = True
                break
        if not violated:
            yield from _enumerate_free(problem, assignment, rest)
        del assignment[variable]
    return


def enumerate_homomorphisms(
    query: ConjunctiveQuery, structure: Structure
) -> Iterator[Assignment]:
    """Yield every homomorphism as a ``{Variable: element}`` dict.

    The constants' (fixed) images are not included in the dict.  The order
    of enumeration is deterministic for a given structure but otherwise
    unspecified.
    """
    ensure_stack_for(query)
    problem = _Problem(query, structure)
    if not problem.ground_part_holds():
        return
    open_atoms = [
        atom
        for atom_id, atom in enumerate(problem.atoms)
        if problem.var_positions[atom_id]
    ]
    yield from _enumerate(problem, {}, open_atoms)


def exists_homomorphism(query: ConjunctiveQuery, structure: Structure) -> bool:
    """``D ⊨ φ``: is ``Hom(φ, D)`` non-empty?  (Early-exit search.)"""
    for _ in enumerate_homomorphisms(query, structure):
        return True
    return False


def is_homomorphism(
    mapping: Mapping[Variable, Element],
    query: ConjunctiveQuery,
    structure: Structure,
) -> bool:
    """Validate a candidate assignment against every atom and inequality."""
    for variable in query.variables:
        if variable not in mapping:
            return False
        if mapping[variable] not in structure.domain:
            return False

    def image(term: Term) -> Element:
        if isinstance(term, Constant):
            return structure.interpret(term.name)
        return mapping[term]

    for atom in query.atoms:
        if atom.relation not in structure.schema:
            return False
        values = tuple(image(term) for term in atom.terms)
        if not structure.has_fact(atom.relation, values):
            return False
    for inequality in query.inequalities:
        if image(inequality.left) == image(inequality.right):
            return False
    return True
