"""Finite relational structures (databases) with constants.

A :class:`Structure` is the paper's ``D`` (Section 2.1): a finite set of
elements (the active domain ``V_D``), a finite set of facts per relation
symbol, and an interpretation for each constant of the language
(homomorphisms must fix constants: ``h(a) = a``).

Structures are immutable value objects; bulk construction goes through
:class:`StructureBuilder`, and small functional updates go through the
``with_*`` methods.  Domain elements may be any hashable Python values.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro._value import Value
from repro.errors import ConstantError, SchemaError
from repro.naming import HEART, SPADE
from repro.relational.schema import RelationSymbol, Schema

try:
    # CPython's hashlib.blake2b is this builtin; importing it from here
    # skips _hashlib and the OpenSSL library that module maps.
    from _blake2 import blake2b
except ImportError:  # pragma: no cover — interpreters without _blake2
    from hashlib import blake2b

__all__ = ["Delta", "Structure", "StructureBuilder"]

Element = Hashable
Fact = tuple[str, tuple]

#: Sentinel name carrying the non-relational part (constants + domain) of a
#: fingerprint vector.  ``§`` cannot appear in a relation name produced by
#: the query parser, so it never collides with a real relation.
CONTEXT_FINGERPRINT_KEY = "§context"


def _digest(payload: object) -> int:
    """A 128-bit content digest, stable across processes and runs.

    ``repr`` keyed: domain elements are hashable Python values whose reprs
    are stable for every type the test-suite and service accept (ints,
    strings, tuples, terms).  ``hash()`` would be salted per process.
    """
    text = repr(payload).encode("utf-8", "backslashreplace")
    return int.from_bytes(blake2b(text, digest_size=16).digest(), "big")


def _fact_digest(relation: str, values: tuple) -> int:
    return _digest(("fact", relation, values))


def _relation_base(symbol: RelationSymbol) -> int:
    return _digest(("relation", symbol.name, symbol.arity))


class Delta(Value):
    """A batch of mutations against a :class:`Structure`.

    Semantics (in application order):

    1. every fact in ``inserts`` is added (inserting an existing fact is a
       no-op);
    2. every fact in ``deletes`` is removed (deleting an absent fact is a
       no-op; a fact both inserted and deleted ends up deleted);
    3. ``add_elements`` join the domain;
    4. ``remove_elements`` leave the domain — removing an element still
       used by a fact or a constant raises :class:`SchemaError`, removing
       an absent element is a no-op.

    Deleting facts never shrinks the domain: elements stay in the active
    domain until explicitly removed.

    >>> delta = Delta(inserts=[("E", (1, 2))], deletes=[("E", (2, 1))])
    >>> sorted(delta.touched_relations())
    ['E']
    >>> delta.is_empty()
    False
    """

    _defaults = {
        "inserts": (),
        "deletes": (),
        "add_elements": (),
        "remove_elements": (),
    }
    __slots__ = tuple(_defaults)

    inserts: tuple[Fact, ...]
    deletes: tuple[Fact, ...]
    add_elements: tuple[Element, ...]
    remove_elements: tuple[Element, ...]

    def _check(self) -> None:
        object.__setattr__(
            self,
            "inserts",
            tuple((name, tuple(values)) for name, values in self.inserts),
        )
        object.__setattr__(
            self,
            "deletes",
            tuple((name, tuple(values)) for name, values in self.deletes),
        )
        object.__setattr__(self, "add_elements", tuple(self.add_elements))
        object.__setattr__(self, "remove_elements", tuple(self.remove_elements))

    def touched_relations(self) -> frozenset[str]:
        """Relation names whose fact sets this delta may change."""
        return frozenset(name for name, _ in self.inserts) | frozenset(
            name for name, _ in self.deletes
        )

    def touches_domain(self) -> bool:
        """True when the delta may change the active domain."""
        return bool(self.add_elements or self.remove_elements or self.inserts)

    def is_empty(self) -> bool:
        return not (
            self.inserts
            or self.deletes
            or self.add_elements
            or self.remove_elements
        )

    def touched_elements(self) -> frozenset[Element]:
        """Every element mentioned by any mutation in this delta."""
        elements: set[Element] = set(self.add_elements)
        elements.update(self.remove_elements)
        for _, values in self.inserts:
            elements.update(values)
        for _, values in self.deletes:
            elements.update(values)
        return frozenset(elements)

    def describe(self) -> str:
        parts = []
        if self.inserts:
            parts.append(
                "+" + " +".join(f"{n}{v!r}" for n, v in self.inserts)
            )
        if self.deletes:
            parts.append(
                "-" + " -".join(f"{n}{v!r}" for n, v in self.deletes)
            )
        if self.add_elements:
            parts.append(f"+dom{list(self.add_elements)!r}")
        if self.remove_elements:
            parts.append(f"-dom{list(self.remove_elements)!r}")
        return " ".join(parts) if parts else "(empty delta)"


class Structure:
    """An immutable finite relational structure.

    >>> sigma = Schema.from_arities({"E": 2})
    >>> d = Structure(sigma, facts={"E": [(1, 2), (2, 1)]})
    >>> sorted(d.domain)
    [1, 2]
    >>> d.fact_count("E")
    2
    """

    __slots__ = ("_schema", "_facts", "_constants", "_domain", "_fingerprints", "_context_fp")

    def __init__(
        self,
        schema: Schema,
        facts: Mapping[str, Iterable[tuple]] | None = None,
        constants: Mapping[str, Element] | None = None,
        domain: Iterable[Element] = (),
    ) -> None:
        self._schema = schema
        normalized: dict[str, frozenset[tuple]] = {}
        elements: set[Element] = set(domain)
        for name, tuples in (facts or {}).items():
            if name not in schema:
                raise SchemaError(f"fact uses undeclared relation {name!r}")
            bucket = set()
            for values in tuples:
                values = tuple(values)
                schema.check_tuple(name, values)
                bucket.add(values)
                elements.update(values)
            if bucket:
                normalized[name] = frozenset(bucket)
        self._constants: dict[str, Element] = dict(constants or {})
        elements.update(self._constants.values())
        self._facts = normalized
        self._domain = frozenset(elements)
        # Lazily-filled content-fingerprint memos (see relation_fingerprint).
        self._fingerprints: dict[str, int] = {}
        self._context_fp: int | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def domain(self) -> frozenset:
        """The active domain ``V_D``."""
        return self._domain

    @property
    def constants(self) -> Mapping[str, Element]:
        return dict(self._constants)

    def interpret(self, constant_name: str) -> Element:
        """The element interpreting ``constant_name`` (``a_D`` in the paper)."""
        try:
            return self._constants[constant_name]
        except KeyError:
            raise ConstantError(
                f"structure does not interpret constant {constant_name!r}"
            ) from None

    def interprets(self, constant_name: str) -> bool:
        return constant_name in self._constants

    def facts(self, relation: str) -> frozenset[tuple]:
        """All tuples of ``relation`` (empty if the relation has no facts)."""
        self._schema.symbol(relation)
        return self._facts.get(relation, frozenset())

    def all_facts(self) -> Iterator[Fact]:
        for name in sorted(self._facts):
            for values in sorted(self._facts[name], key=repr):
                yield name, values

    def fact_count(self, relation: str | None = None) -> int:
        """Number of facts of ``relation``, or total facts when ``None``."""
        if relation is None:
            return sum(len(bucket) for bucket in self._facts.values())
        return len(self.facts(relation))

    def has_fact(self, relation: str, values: tuple) -> bool:
        return tuple(values) in self.facts(relation)

    def is_nontrivial(self) -> bool:
        """Non-triviality per Section 1.2: ``♠`` and ``♥`` differ.

        A structure that does not interpret both constants is *not*
        non-trivial: the definition requires the database to "contain two
        different constants".
        """
        if SPADE not in self._constants or HEART not in self._constants:
            return False
        return self._constants[SPADE] != self._constants[HEART]

    # -- content fingerprints ---------------------------------------------

    def relation_fingerprint(self, relation: str) -> int:
        """A 128-bit content fingerprint of one relation's fact set.

        Defined as the XOR of a per-symbol base (covering name and arity)
        with the digest of every fact — order-independent, and updated in
        O(|delta|) by :meth:`apply_delta` (XOR is its own inverse).  Stable
        across processes: built on ``blake2b``, not the salted ``hash``.
        """
        fingerprint = self._fingerprints.get(relation)
        if fingerprint is None:
            fingerprint = _relation_base(self._schema.symbol(relation))
            for values in self._facts.get(relation, ()):
                fingerprint ^= _fact_digest(relation, values)
            self._fingerprints[relation] = fingerprint
        return fingerprint

    def context_fingerprint(self) -> int:
        """Fingerprint of the non-relational content: constants + domain."""
        if self._context_fp is None:
            self._context_fp = _digest(
                (
                    "context",
                    sorted(self._constants.items()),
                    sorted(self._domain, key=repr),
                )
            )
        return self._context_fp

    def fingerprint_vector(
        self, relations: Iterable[str] | None = None
    ) -> tuple[tuple[str, int | None], ...]:
        """The ``(relation, fingerprint)`` vector cache entries depend on.

        ``relations`` restricts the vector to the relations a consumer
        actually reads (``None`` for the whole schema); names absent from
        the schema map to ``None`` rather than raising, so a dependency on
        a *missing* relation is itself recorded.  The final entry, under
        :data:`CONTEXT_FINGERPRINT_KEY`, covers constants and domain.
        """
        if relations is None:
            names: Iterable[str] = self._schema.relation_names
        else:
            names = sorted(set(relations))
        entries: list[tuple[str, int | None]] = []
        for name in names:
            if name in self._schema:
                entries.append((name, self.relation_fingerprint(name)))
            else:
                entries.append((name, None))
        entries.append((CONTEXT_FINGERPRINT_KEY, self.context_fingerprint()))
        return tuple(entries)

    def fingerprint(self) -> str:
        """A short stable hex digest of the full fingerprint vector."""
        return blake2b(
            repr(self.fingerprint_vector()).encode("utf-8", "backslashreplace"),
            digest_size=8,
        ).hexdigest()

    # -- functional updates ----------------------------------------------

    def apply_delta(self, delta: "Delta") -> "Structure":
        """Apply a :class:`Delta`, touching only what the delta touches.

        Returns a new structure sharing every untouched fact set (and its
        cached fingerprint) with ``self``; work is proportional to the
        delta, not to the database.  See :class:`Delta` for the mutation
        semantics.

        >>> sigma = Schema.from_arities({"E": 2})
        >>> d = Structure(sigma, facts={"E": [(1, 2)]})
        >>> d2 = d.apply_delta(Delta(inserts=[("E", (2, 3))]))
        >>> sorted(d2.facts("E"))
        [(1, 2), (2, 3)]
        >>> d.fact_count("E")  # the original is untouched
        1
        """
        if delta.is_empty():
            return self
        touched = delta.touched_relations()
        for name in touched:
            if name not in self._schema:
                raise SchemaError(f"delta uses undeclared relation {name!r}")
        new_facts = dict(self._facts)
        new_fps = dict(self._fingerprints)
        elements: set[Element] = set(self._domain)
        for name in touched:
            old_bucket = self._facts.get(name, frozenset())
            inserted = set()
            deleted = set()
            for relation, values in delta.inserts:
                if relation == name:
                    self._schema.check_tuple(name, values)
                    inserted.add(values)
            for relation, values in delta.deletes:
                if relation == name:
                    self._schema.check_tuple(name, values)
                    deleted.add(values)
            new_bucket = (old_bucket | inserted) - deleted
            for values in inserted - deleted:
                elements.update(values)
            if new_bucket:
                new_facts[name] = frozenset(new_bucket)
            else:
                new_facts.pop(name, None)
            cached = self._fingerprints.get(name)
            if cached is not None:
                fingerprint = cached
                for values in new_bucket - old_bucket:
                    fingerprint ^= _fact_digest(name, values)
                for values in old_bucket - new_bucket:
                    fingerprint ^= _fact_digest(name, values)
                new_fps[name] = fingerprint
            else:
                new_fps.pop(name, None)
        elements.update(delta.add_elements)
        removed_elements = set(delta.remove_elements) & elements
        if removed_elements:
            for element in removed_elements:
                if element in self._constants.values():
                    raise SchemaError(
                        f"cannot remove element {element!r}: it interprets "
                        f"a constant"
                    )
            used: set[Element] = set()
            for bucket in new_facts.values():
                for values in bucket:
                    used.update(values)
            still_used = removed_elements & used
            if still_used:
                raise SchemaError(
                    "cannot remove elements still used by facts: "
                    f"{sorted(still_used, key=repr)!r}"
                )
            elements -= removed_elements
        new_domain = frozenset(elements)
        result = Structure.__new__(Structure)
        result._schema = self._schema
        result._facts = new_facts
        result._constants = dict(self._constants)
        result._domain = new_domain
        result._fingerprints = new_fps
        result._context_fp = (
            self._context_fp if new_domain == self._domain else None
        )
        return result

    def with_fact(self, relation: str, values: tuple) -> "Structure":
        facts = {name: set(bucket) for name, bucket in self._facts.items()}
        facts.setdefault(relation, set()).add(tuple(values))
        return Structure(self._schema, facts, self._constants, self._domain)

    def without_fact(self, relation: str, values: tuple) -> "Structure":
        facts = {name: set(bucket) for name, bucket in self._facts.items()}
        facts.get(relation, set()).discard(tuple(values))
        return Structure(self._schema, facts, self._constants, self._domain)

    def with_constant(self, name: str, element: Element) -> "Structure":
        constants = dict(self._constants)
        constants[name] = element
        return Structure(self._schema, self._facts, constants, self._domain)

    def with_element(self, element: Element) -> "Structure":
        return Structure(
            self._schema, self._facts, self._constants, self._domain | {element}
        )

    def with_schema(self, schema: Schema) -> "Structure":
        """Reinterpret over a larger schema (all existing facts must fit)."""
        return Structure(schema, self._facts, self._constants, self._domain)

    # -- restriction and quotients ----------------------------------------

    def restrict(self, relation_names: Iterable[str]) -> "Structure":
        """``D ↾ Σ₀``: drop all facts of relations outside ``relation_names``.

        Keeps the domain and the constants intact, exactly as Definition 13
        needs ("by ``D ↾ Σ₀`` we mean the database resulting from D by
        removing from it all atoms of the relation X").
        """
        keep = set(relation_names)
        schema = self._schema.restrict(keep)
        facts = {name: bucket for name, bucket in self._facts.items() if name in keep}
        return Structure(schema, facts, self._constants, self._domain)

    def relabel(self, mapping: Mapping[Element, Element]) -> "Structure":
        """Apply an element mapping (the quotient when non-injective).

        Elements absent from ``mapping`` are kept as-is.  A non-injective
        mapping yields the homomorphic image — this is how the test-suite
        manufactures the paper's *seriously incorrect* databases
        (Definition 13: a homomorphic image of ``D_Arena`` that identifies
        some of its elements).
        """

        def image(element: Element) -> Element:
            return mapping.get(element, element)

        facts = {
            name: {tuple(image(value) for value in values) for values in bucket}
            for name, bucket in self._facts.items()
        }
        constants = {name: image(e) for name, e in self._constants.items()}
        domain = {image(e) for e in self._domain}
        return Structure(self._schema, facts, constants, domain)

    # -- comparisons -------------------------------------------------------

    def extends(self, other: "Structure") -> bool:
        """True when every fact of ``other`` is a fact of ``self``.

        Constants of ``other`` must be interpreted identically by ``self``.
        This is the ``⊇`` of Definition 13 (inclusion of relational
        structures).
        """
        for name, element in other._constants.items():
            if self._constants.get(name) != element:
                return False
        for name, bucket in other._facts.items():
            if name not in self._schema:
                return False
            if not bucket <= self.facts(name):
                return False
        return True

    def same_facts(self, other: "Structure") -> bool:
        """True when both structures have exactly the same fact sets."""
        return self._facts == other._facts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._schema == other._schema
            and self._facts == other._facts
            and self._constants == other._constants
            and self._domain == other._domain
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._schema,
                frozenset(self._facts.items()),
                frozenset(self._constants.items()),
                self._domain,
            )
        )

    def __repr__(self) -> str:
        parts = [f"|dom|={len(self._domain)}", f"|facts|={self.fact_count()}"]
        if self._constants:
            parts.append(f"constants={sorted(self._constants)}")
        return f"Structure({', '.join(parts)})"

    def describe(self) -> str:
        """A multi-line human-readable listing of the structure."""
        lines = [f"domain ({len(self._domain)}): {sorted(self._domain, key=repr)}"]
        for name, element in sorted(self._constants.items()):
            lines.append(f"constant {name} -> {element!r}")
        for name, values in self.all_facts():
            lines.append(f"{name}{values!r}")
        return "\n".join(lines)


class StructureBuilder:
    """Mutable accumulator producing a :class:`Structure`.

    >>> builder = StructureBuilder(Schema.from_arities({"E": 2}))
    >>> builder.add_fact("E", (0, 1)).add_constant("spade", 0)  # doctest: +ELLIPSIS
    <repro.relational.structure.StructureBuilder object at ...>
    >>> builder.build().fact_count("E")
    1
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._facts: dict[str, set[tuple]] = {}
        self._constants: dict[str, Element] = {}
        self._domain: set[Element] = set()

    @property
    def schema(self) -> Schema:
        return self._schema

    def add_relation(self, name: str, arity: int) -> "StructureBuilder":
        self._schema = self._schema.union(Schema([RelationSymbol(name, arity)]))
        return self

    def add_fact(self, relation: str, values: tuple) -> "StructureBuilder":
        values = tuple(values)
        self._schema.check_tuple(relation, values)
        self._facts.setdefault(relation, set()).add(values)
        return self

    def add_facts(self, relation: str, tuples: Iterable[tuple]) -> "StructureBuilder":
        for values in tuples:
            self.add_fact(relation, values)
        return self

    def add_constant(self, name: str, element: Element) -> "StructureBuilder":
        existing = self._constants.get(name)
        if existing is not None and existing != element:
            raise ConstantError(
                f"constant {name!r} already interpreted as {existing!r}"
            )
        self._constants[name] = element
        return self

    def add_element(self, element: Element) -> "StructureBuilder":
        self._domain.add(element)
        return self

    def build(self) -> Structure:
        return Structure(self._schema, self._facts, self._constants, self._domain)
