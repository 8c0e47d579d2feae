"""Atoms of conjunctive queries: relational atoms and inequalities.

An :class:`Atom` is an application ``R(t₁, …, t_k)`` of a relation symbol
to terms.  An :class:`Inequality` is the paper's ``x ≠ x'`` (Section 2.1):
formally a binary relation interpreted in every structure ``D`` as
``(V_D × V_D) \\ {(s, s)}``.  Inequalities are kept apart from relational
atoms because the theorems count them ("with at most one inequality").
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import QueryError
from repro.queries.terms import Constant, Term, Variable

__all__ = ["Atom", "Inequality"]


class Atom:
    """A relational atom ``relation(terms…)``."""

    __slots__ = ("relation", "terms")

    relation: str
    terms: tuple[Term, ...]

    def __init__(self, relation: str, terms: tuple[Term, ...]) -> None:
        if not relation:
            raise QueryError("atom needs a relation name")
        if not terms:
            raise QueryError(f"atom of {relation!r} needs at least one term")
        for term in terms:
            if not isinstance(term, (Variable, Constant)):
                raise QueryError(
                    f"atom term {term!r} is not a Variable or Constant"
                )
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, key: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # The guard above breaks pickle's default slot-state restore; the
        # process pool in :mod:`repro.homomorphism.batch` ships queries.
        return (type(self), (self.relation, self.terms))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.relation, self.terms) == (other.relation, other.terms)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.relation, self.terms))

    def __repr__(self) -> str:
        return f"Atom(relation={self.relation!r}, terms={self.terms!r})"

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> Iterator[Variable]:
        for term in self.terms:
            if isinstance(term, Variable):
                yield term

    def constants(self) -> Iterator[Constant]:
        for term in self.terms:
            if isinstance(term, Constant):
                yield term

    def rename(self, mapping: dict[Variable, Term]) -> "Atom":
        """Substitute variables according to ``mapping`` (constants fixed)."""
        return Atom(
            self.relation,
            tuple(
                mapping.get(term, term) if isinstance(term, Variable) else term
                for term in self.terms
            ),
        )

    def __str__(self) -> str:
        inner = ", ".join(str(term) for term in self.terms)
        return f"{self.relation}({inner})"

    def __lt__(self, other: "Atom") -> bool:
        return (self.relation, self.terms) < (other.relation, other.terms)


class Inequality:
    """The atomic formula ``left ≠ right``.

    The pair is stored in sorted order so that ``x ≠ y`` and ``y ≠ x``
    compare equal, matching the symmetric semantics.
    """

    __slots__ = ("left", "right")

    left: Term
    right: Term

    def __init__(self, left: Term, right: Term) -> None:
        for term in (left, right):
            if not isinstance(term, (Variable, Constant)):
                raise QueryError(f"inequality term {term!r} is not a term")
        first, second = sorted(
            (left, right), key=lambda t: (t.is_constant(), t.name)
        )
        object.__setattr__(self, "left", first)
        object.__setattr__(self, "right", second)

    def __setattr__(self, key: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.left, self.right))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __repr__(self) -> str:
        return f"Inequality(left={self.left!r}, right={self.right!r})"

    def is_trivially_false(self) -> bool:
        """``t ≠ t`` can never be satisfied."""
        return self.left == self.right

    def variables(self) -> Iterator[Variable]:
        for term in (self.left, self.right):
            if isinstance(term, Variable):
                yield term

    def constants(self) -> Iterator[Constant]:
        for term in (self.left, self.right):
            if isinstance(term, Constant):
                yield term

    def rename(self, mapping: dict[Variable, Term]) -> "Inequality":
        def image(term: Term) -> Term:
            if isinstance(term, Variable):
                return mapping.get(term, term)
            return term

        return Inequality(image(self.left), image(self.right))

    def __str__(self) -> str:
        return f"{self.left} != {self.right}"

    def __lt__(self, other: "Inequality") -> bool:
        return (str(self.left), str(self.right)) < (str(other.left), str(other.right))
