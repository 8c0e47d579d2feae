"""Boolean conjunctive queries under bag semantics.

A :class:`ConjunctiveQuery` is a finite conjunction of relational atoms
and inequalities, with every variable existentially quantified
(Section 2.1 of the paper).  Under bag semantics its value on a structure
``D`` is the *number of homomorphisms* ``φ(D) = |Hom(φ, D)|``, a natural
number.

The module implements the paper's query algebra:

* ``φ ∧ ψ`` (:meth:`ConjunctiveQuery.conj`, operator ``&``) — conjunction
  with shared variable scope;
* ``φ ∧̄ ψ`` (:meth:`ConjunctiveQuery.disjoint_conj`, operator ``*``) —
  disjoint conjunction, Section 2.2: variables are treated as local, so
  ``(φ ∧̄ ψ)(D) = φ(D)·ψ(D)`` (Lemma 1);
* ``φ ↑ k`` (:meth:`ConjunctiveQuery.power`, operator ``**``) — Definition
  2, with ``(φ↑k)(D) = φ(D)^k``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.naming import NameSupply
from repro.queries.atoms import Atom, Inequality
from repro.queries.terms import Constant, Term, Variable
from repro.relational.schema import RelationSymbol, Schema
from repro.relational.structure import Structure

__all__ = ["ConjunctiveQuery", "TRUE"]

_NO_CONSTANTS: frozenset[Constant] = frozenset()


class ConjunctiveQuery:
    """An immutable boolean conjunctive query, possibly with inequalities.

    Atoms form a *set*: repeating an atom does not change the semantics,
    so duplicates are dropped (first occurrence kept for display order).

    >>> from repro.queries.terms import variables
    >>> x, y = variables("x", "y")
    >>> phi = ConjunctiveQuery([Atom("E", (x, y)), Atom("E", (y, x))])
    >>> sorted(v.name for v in phi.variables)
    ['x', 'y']
    >>> str(phi)
    'E(x, y) & E(y, x)'
    """

    __slots__ = (
        "_atoms",
        "_inequalities",
        "_schema",
        "_variables",
        "_constants",
        "_canonical",
        "_key",
        "_components",
    )

    def __init__(
        self,
        atoms: Iterable[Atom] = (),
        inequalities: Iterable[Inequality] = (),
    ) -> None:
        seen_atoms: dict[Atom, None] = {}
        for atom in atoms:
            if not isinstance(atom, Atom):
                raise QueryError(f"not an Atom: {atom!r}")
            seen_atoms.setdefault(atom, None)
        seen_ineqs: dict[Inequality, None] = {}
        for ineq in inequalities:
            if not isinstance(ineq, Inequality):
                raise QueryError(f"not an Inequality: {ineq!r}")
            seen_ineqs.setdefault(ineq, None)
        self._atoms: tuple[Atom, ...] = tuple(seen_atoms)
        self._inequalities: tuple[Inequality, ...] = tuple(seen_ineqs)

        arities: dict[str, int] = {}
        for atom in self._atoms:
            existing = arities.get(atom.relation)
            if existing is not None and existing != atom.arity:
                raise QueryError(
                    f"relation {atom.relation!r} used with arities "
                    f"{existing} and {atom.arity}"
                )
            arities[atom.relation] = atom.arity
        self._schema = Schema(
            RelationSymbol(name, arity) for name, arity in arities.items()
        )

        variables: set[Variable] = set()
        constants: set[Constant] = set()
        for atom in self._atoms:
            variables.update(atom.variables())
            constants.update(atom.constants())
        for ineq in self._inequalities:
            variables.update(ineq.variables())
            constants.update(ineq.constants())
        self._variables = frozenset(variables)
        # Most queries mention no constant: share one empty set.
        self._constants = frozenset(constants) if constants else _NO_CONSTANTS
        # Per-object memos: the canonical form and its key are filled in
        # by :func:`repro.homomorphism.cache.canonical_component` and
        # :func:`~repro.homomorphism.cache.component_key`, the component
        # split by :meth:`connected_components`.
        self._canonical: ConjunctiveQuery | None = None
        self._key = None
        self._components: tuple | object | None = None

    # -- accessors -------------------------------------------------------

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    @property
    def inequalities(self) -> tuple[Inequality, ...]:
        return self._inequalities

    @property
    def schema(self) -> Schema:
        """The relational schema induced by the query's atoms."""
        return self._schema

    @property
    def variables(self) -> frozenset[Variable]:
        """``Var(ψ)`` from Section 2.1."""
        return self._variables

    @property
    def constants(self) -> frozenset[Constant]:
        return self._constants

    @property
    def terms(self) -> frozenset[Term]:
        """``V_ψ`` from Section 2.1: all variables and constants."""
        return self._variables | self._constants

    @property
    def atom_count(self) -> int:
        return len(self._atoms)

    @property
    def inequality_count(self) -> int:
        """How many inequalities the query carries.

        The headline of Theorem 3 is that one inequality suffices for
        undecidability (versus 59¹⁰ in Jayram–Kolaitis–Vee).
        """
        return len(self._inequalities)

    @property
    def variable_count(self) -> int:
        return len(self._variables)

    @property
    def size(self) -> int:
        """Total number of term occurrences across atoms and inequalities."""
        return sum(atom.arity for atom in self._atoms) + 2 * len(self._inequalities)

    def is_ground(self) -> bool:
        """True when the query mentions no variables (only constants)."""
        return not self._variables

    def is_empty(self) -> bool:
        return not self._atoms and not self._inequalities

    def has_inequalities(self) -> bool:
        return bool(self._inequalities)

    # -- algebra -----------------------------------------------------------

    def conj(self, other: "ConjunctiveQuery") -> "ConjunctiveQuery":
        """``φ ∧ ψ``: conjunction with shared variable scope (Section 2.2)."""
        return ConjunctiveQuery(
            self._atoms + other._atoms,
            self._inequalities + other._inequalities,
        )

    def __and__(self, other: "ConjunctiveQuery") -> "ConjunctiveQuery":
        return self.conj(other)

    def disjoint_conj(self, other: "ConjunctiveQuery") -> "ConjunctiveQuery":
        """``φ ∧̄ ψ``: the variables of ``ψ`` are treated as local.

        Implemented by renaming the right operand's variables away from the
        left operand's, so that Lemma 1, ``(φ ∧̄ ψ)(D) = φ(D)·ψ(D)``, holds
        by construction.  Constants are *not* renamed (they are global).
        """
        supply = NameSupply({v.name for v in self._variables})
        renamed = other.rename_apart(supply)
        return self.conj(renamed)

    def __mul__(self, other: "ConjunctiveQuery") -> "ConjunctiveQuery":
        return self.disjoint_conj(other)

    def power(self, k: int) -> "ConjunctiveQuery":
        """``φ ↑ k`` (Definition 2): ``k`` disjoint copies; ``φ↑0`` is TRUE.

        Materializes ``k`` copies of the syntax; for the astronomically
        large exponents of Section 4 use
        :class:`repro.queries.product.QueryProduct` instead.
        """
        if k < 0:
            raise QueryError(f"power requires k >= 0, got {k}")
        result = ConjunctiveQuery()
        for _ in range(k):
            result = result.disjoint_conj(self)
        return result

    def __pow__(self, k: int) -> "ConjunctiveQuery":
        return self.power(k)

    # -- renaming ------------------------------------------------------------

    def rename(self, mapping: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        """Substitute variables; merging variables is allowed."""
        mapping = dict(mapping)
        return ConjunctiveQuery(
            (atom.rename(mapping) for atom in self._atoms),
            (ineq.rename(mapping) for ineq in self._inequalities),
        )

    def rename_apart(self, supply: NameSupply) -> "ConjunctiveQuery":
        """Rename every variable to a fresh name drawn from ``supply``."""
        mapping: dict[Variable, Term] = {
            variable: Variable(supply.fresh(variable.name))
            for variable in sorted(self._variables)
        }
        return self.rename(mapping)

    def without_inequalities(self) -> "ConjunctiveQuery":
        """Drop all inequalities (the ``ψ'_s`` of Lemma 23)."""
        return ConjunctiveQuery(self._atoms)

    # -- canonical structure ---------------------------------------------------

    def canonical_structure(self) -> Structure:
        """The canonical structure of the query (Section 2.1).

        Elements are the query's terms; constants interpret themselves.
        Inequalities are *not* represented (they are not atoms of the
        canonical structure; Chandra–Merlin style arguments only use the
        relational part).
        """
        facts: dict[str, set[tuple]] = {}
        for atom in self._atoms:
            facts.setdefault(atom.relation, set()).add(atom.terms)
        constants = {constant.name: constant for constant in self._constants}
        return Structure(self._schema, facts, constants, self.terms)

    @classmethod
    def of_structure(cls, structure: Structure) -> "ConjunctiveQuery":
        """The canonical (boolean) query of a structure.

        Elements interpreting a constant become that constant; all other
        elements become variables named after their ``repr``.
        """
        constant_of: dict[object, Constant] = {}
        for name, element in structure.constants.items():
            constant_of.setdefault(element, Constant(name))

        supply = NameSupply()
        variable_of: dict[object, Variable] = {}

        def term_of(element: object) -> Term:
            if element in constant_of:
                return constant_of[element]
            if element not in variable_of:
                variable_of[element] = Variable(supply.fresh(f"v_{element!r}"))
            return variable_of[element]

        atoms = [
            Atom(name, tuple(term_of(value) for value in values))
            for name, values in structure.all_facts()
        ]
        return cls(atoms)

    # -- component structure ------------------------------------------------

    def connected_components(self) -> list["ConjunctiveQuery"]:
        """Split into variable-connected components.

        Two atoms are connected when they share a *variable* (constants do
        not connect: homomorphisms fix them, so counts factor across parts
        that share only constants).  All ground atoms and ground
        inequalities are gathered into one 0/1-valued component, listed
        first when present.  The product of the component counts equals the
        count of the whole query — the factorization the evaluation engine
        relies on.

        The split is memoized per query object: every call returns a fresh
        list of the *same* component objects, and a query with a single
        component is that component itself.  Per-object memos on the
        components, such as the canonical form of
        :func:`repro.homomorphism.cache.canonical_component`, therefore
        carry over from one call to the next.
        """
        components = self._components
        if components is None:
            components = self._split_components()
            # Not ``(self,)``: that would make every connected query a
            # reference cycle, freed only by the cyclic collector.
            self._components = components = (
                _CONNECTED if len(components) == 1 else tuple(components)
            )
        return [self] if components is _CONNECTED else list(components)

    def _split_components(self) -> list["ConjunctiveQuery"]:
        parent: dict[Variable, Variable] = {v: v for v in self._variables}

        def find(v: Variable) -> Variable:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        def union(a: Variable, b: Variable) -> None:
            parent[find(a)] = find(b)

        def link_all(vs: Sequence[Variable]) -> None:
            for first, second in zip(vs, vs[1:]):
                union(first, second)

        for atom in self._atoms:
            link_all(list(atom.variables()))
        for ineq in self._inequalities:
            link_all(list(ineq.variables()))

        ground_atoms: list[Atom] = []
        ground_ineqs: list[Inequality] = []
        atom_groups: dict[Variable, list[Atom]] = {}
        ineq_groups: dict[Variable, list[Inequality]] = {}
        for atom in self._atoms:
            atom_vars = list(atom.variables())
            if atom_vars:
                atom_groups.setdefault(find(atom_vars[0]), []).append(atom)
            else:
                ground_atoms.append(atom)
        for ineq in self._inequalities:
            ineq_vars = list(ineq.variables())
            if ineq_vars:
                ineq_groups.setdefault(find(ineq_vars[0]), []).append(ineq)
            else:
                ground_ineqs.append(ineq)

        components: list[ConjunctiveQuery] = []
        if ground_atoms or ground_ineqs:
            components.append(ConjunctiveQuery(ground_atoms, ground_ineqs))
        roots = sorted(
            set(atom_groups) | set(ineq_groups), key=lambda v: v.name
        )
        for root in roots:
            components.append(
                ConjunctiveQuery(
                    atom_groups.get(root, ()), ineq_groups.get(root, ())
                )
            )
        return components

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    # -- value semantics ---------------------------------------------------

    def __reduce__(self):
        # Pickle the atoms and inequalities only: the memos are derived
        # and rebuilt on demand in the receiving process.
        return (type(self), (self._atoms, self._inequalities))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            frozenset(self._atoms) == frozenset(other._atoms)
            and frozenset(self._inequalities) == frozenset(other._inequalities)
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._atoms), frozenset(self._inequalities)))

    def __str__(self) -> str:
        if self.is_empty():
            return "TRUE"
        parts = [str(atom) for atom in self._atoms]
        parts.extend(str(ineq) for ineq in self._inequalities)
        return " & ".join(parts)

    def __repr__(self) -> str:
        return (
            f"ConjunctiveQuery(atoms={len(self._atoms)}, "
            f"inequalities={len(self._inequalities)}, "
            f"variables={len(self._variables)})"
        )


#: ``_components`` memo of a query that is its own single component.
_CONNECTED = object()

#: The empty conjunction — satisfied exactly once in every structure.
TRUE = ConjunctiveQuery()
