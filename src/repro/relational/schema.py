"""Relational schemas: relation symbols with fixed arities.

The paper (Section 2.1) works with finite relational structures over a
relational signature that may also contain constants.  We keep the two
concerns separate: a :class:`Schema` declares relation symbols and their
arities, while constant interpretations live on each
:class:`~repro.relational.structure.Structure`.

Schemas are immutable value objects.  Reductions in the paper repeatedly
take *disjoint unions* of schemas (e.g. Section 3 combines the gadget
schema with the schema of the encoded polynomial), so :meth:`Schema.union`
and :meth:`Schema.is_disjoint_from` are first-class operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import ArityError, SchemaError

__all__ = ["RelationSymbol", "Schema"]


class RelationSymbol:
    """A relation name together with its arity.

    >>> RelationSymbol("E", 2)
    RelationSymbol(name='E', arity=2)
    """

    __slots__ = ("name", "arity")

    name: str
    arity: int

    def __init__(self, name: str, arity: int) -> None:
        if not name:
            raise SchemaError("relation symbol needs a non-empty name")
        if arity < 1:
            raise SchemaError(
                f"relation {name!r} needs arity >= 1, got {arity}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, key: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # The guard above breaks pickle's default slot-state restore.
        return (type(self), (self.name, self.arity))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self.arity) == (other.name, other.arity)  # type: ignore[attr-defined]

    def __lt__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self.arity) < (other.name, other.arity)  # type: ignore[attr-defined]

    def __le__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self.arity) <= (other.name, other.arity)  # type: ignore[attr-defined]

    def __gt__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self.arity) > (other.name, other.arity)  # type: ignore[attr-defined]

    def __ge__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self.arity) >= (other.name, other.arity)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.name, self.arity))

    def __repr__(self) -> str:
        return f"RelationSymbol(name={self.name!r}, arity={self.arity!r})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Schema:
    """An immutable set of relation symbols keyed by name.

    >>> sigma = Schema([RelationSymbol("E", 2), RelationSymbol("U", 1)])
    >>> sigma.arity("E")
    2
    >>> "U" in sigma
    True
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: Iterable[RelationSymbol] = ()) -> None:
        by_name: dict[str, RelationSymbol] = {}
        for symbol in relations:
            existing = by_name.get(symbol.name)
            if existing is not None and existing != symbol:
                raise SchemaError(
                    f"relation {symbol.name!r} declared with conflicting "
                    f"arities {existing.arity} and {symbol.arity}"
                )
            by_name[symbol.name] = symbol
        self._relations: dict[str, RelationSymbol] = dict(
            sorted(by_name.items())
        )

    @classmethod
    def from_arities(cls, arities: Mapping[str, int]) -> "Schema":
        """Build a schema from a ``{name: arity}`` mapping."""
        return cls(RelationSymbol(name, arity) for name, arity in arities.items())

    # -- lookup --------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def symbol(self, name: str) -> RelationSymbol:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def arity(self, name: str) -> int:
        return self.symbol(name).arity

    def check_tuple(self, name: str, values: tuple) -> None:
        """Raise :class:`ArityError` unless ``values`` fits relation ``name``."""
        expected = self.arity(name)
        if len(values) != expected:
            raise ArityError(
                f"relation {name!r} has arity {expected}, "
                f"got a tuple of length {len(values)}"
            )

    # -- algebra -------------------------------------------------------

    def union(self, other: "Schema") -> "Schema":
        """The union schema; arities of shared names must agree."""
        return Schema(list(self) + list(other))

    def is_disjoint_from(self, other: "Schema") -> bool:
        """True when no relation name is shared.

        Disjointness is the precondition of Lemma 4 (composing
        multiplication gadgets) and of the Section 3 product construction
        ``psi_s = alpha_s /\\bar phi_s``.
        """
        return not set(self._relations) & set(other._relations)

    def restrict(self, names: Iterable[str]) -> "Schema":
        """The sub-schema containing only ``names`` (all must exist)."""
        return Schema(self.symbol(name) for name in names)

    # -- value semantics -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._relations == other._relations

    def __hash__(self) -> int:
        return hash(tuple(self._relations.values()))

    def __repr__(self) -> str:
        inner = ", ".join(str(symbol) for symbol in self)
        return f"Schema({{{inner}}})"
