"""JSON serialization for queries and structures.

Reduction outputs are artifacts worth persisting: a counterexample
database produced by the Theorem 1 pipeline, or the query pair of a
Theorem 3 instance, should be storable and reloadable bit-for-bit.  This
module provides a stable JSON encoding for :class:`Schema`,
:class:`Structure`, :class:`ConjunctiveQuery`, :class:`OpenQuery` and
:class:`QueryProduct`.

Domain elements are restricted to the JSON-friendly closure of strings,
integers, booleans and (nested) tuples — which covers everything the
library itself generates (fresh elements are strings or tagged tuples).
Tuples are encoded as ``{"§": [...]}`` so they survive the round trip
distinctly from lists.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import BagCQError
from repro.queries.atoms import Atom, Inequality
from repro.queries.cq import ConjunctiveQuery
from repro.queries.open_query import OpenQuery
from repro.queries.product import QueryProduct
from repro.queries.terms import Constant, Term, Variable
from repro.relational.schema import RelationSymbol, Schema
from repro.relational.structure import Delta, Structure

__all__ = [
    "SerializationError",
    "schema_to_dict",
    "schema_from_dict",
    "structure_to_dict",
    "structure_from_dict",
    "structure_from_facts",
    "interpret_query_constants",
    "delta_to_dict",
    "delta_from_dict",
    "ground_facts_from_text",
    "query_to_dict",
    "query_from_dict",
    "open_query_to_dict",
    "open_query_from_dict",
    "product_to_dict",
    "product_from_dict",
    "dumps",
    "loads",
]

_TUPLE_TAG = "§"


class SerializationError(BagCQError):
    """An object cannot be (de)serialized."""


# -- elements -------------------------------------------------------------


_CONST_TAG = "§const"
_VAR_TAG = "§var"


def _encode_element(element: Any) -> Any:
    if isinstance(element, bool) or isinstance(element, (int, str)):
        return element
    if isinstance(element, tuple):
        return {_TUPLE_TAG: [_encode_element(part) for part in element]}
    # Canonical structures use terms themselves as elements.
    if isinstance(element, Constant):
        return {_CONST_TAG: element.name}
    if isinstance(element, Variable):
        return {_VAR_TAG: element.name}
    raise SerializationError(
        f"cannot serialize domain element of type {type(element).__name__}: "
        f"{element!r}"
    )


def _decode_element(payload: Any) -> Any:
    if isinstance(payload, dict):
        if set(payload) == {_TUPLE_TAG}:
            return tuple(_decode_element(part) for part in payload[_TUPLE_TAG])
        if set(payload) == {_CONST_TAG}:
            return Constant(payload[_CONST_TAG])
        if set(payload) == {_VAR_TAG}:
            return Variable(payload[_VAR_TAG])
        raise SerializationError(f"malformed element payload: {payload!r}")
    if isinstance(payload, (int, str, bool)):
        return payload
    raise SerializationError(f"malformed element payload: {payload!r}")


# -- terms ------------------------------------------------------------------


def _encode_term(term: Term) -> dict:
    kind = "const" if isinstance(term, Constant) else "var"
    return {"kind": kind, "name": term.name}


def _decode_term(payload: dict) -> Term:
    try:
        kind, name = payload["kind"], payload["name"]
    except (KeyError, TypeError):
        raise SerializationError(f"malformed term payload: {payload!r}") from None
    if kind == "var":
        return Variable(name)
    if kind == "const":
        return Constant(name)
    raise SerializationError(f"unknown term kind {kind!r}")


# -- schema --------------------------------------------------------------------


def schema_to_dict(schema: Schema) -> dict:
    return {
        "relations": {symbol.name: symbol.arity for symbol in schema},
    }


def schema_from_dict(payload: dict) -> Schema:
    try:
        relations = payload["relations"]
    except (KeyError, TypeError):
        raise SerializationError(f"malformed schema payload: {payload!r}") from None
    return Schema(
        RelationSymbol(name, arity) for name, arity in relations.items()
    )


# -- structures -------------------------------------------------------------------


def structure_to_dict(structure: Structure) -> dict:
    return {
        "schema": schema_to_dict(structure.schema),
        "facts": {
            name: sorted(
                (
                    [_encode_element(value) for value in values]
                    for values in structure.facts(name)
                ),
                key=repr,
            )
            for name in structure.schema.relation_names
            if structure.facts(name)
        },
        "constants": {
            name: _encode_element(element)
            for name, element in sorted(structure.constants.items())
        },
        "domain": sorted(
            (_encode_element(element) for element in structure.domain), key=repr
        ),
    }


def structure_from_dict(payload: dict) -> Structure:
    try:
        schema = schema_from_dict(payload["schema"])
        facts = {
            name: [
                tuple(_decode_element(value) for value in values)
                for values in tuples
            ]
            for name, tuples in payload.get("facts", {}).items()
        }
        constants = {
            name: _decode_element(element)
            for name, element in payload.get("constants", {}).items()
        }
        domain = [_decode_element(e) for e in payload.get("domain", [])]
    except (KeyError, TypeError) as error:
        raise SerializationError(
            f"malformed structure payload: {error}"
        ) from error
    return Structure(schema, facts, constants, domain)


def structure_from_facts(text: str) -> Structure:
    """Parse an inline database: whitespace-separated ground atoms.

    The shorthand behind ``bagcq evaluate --facts`` and the service's
    ``"facts"`` request field: terms use the query syntax (``#name`` for
    constants; other identifiers become domain elements named after
    themselves), atoms may be separated by whitespace or ``;``.
    """
    from repro.queries.parser import parse_query

    facts: dict[str, set[tuple]] = {}
    arities: dict[str, int] = {}
    constants: dict[str, Any] = {}
    for chunk in text.replace(";", " ").split():
        if not chunk:
            continue
        query = parse_query(chunk)
        for atom in query.atoms:
            values = []
            for term in atom.terms:
                if isinstance(term, Constant):
                    constants[term.name] = term.name
                values.append(term.name)
            arities[atom.relation] = len(values)
            facts.setdefault(atom.relation, set()).add(tuple(values))
    schema = Schema(RelationSymbol(n, a) for n, a in arities.items())
    return Structure(schema, facts, constants)


def interpret_query_constants(
    structure: Structure, query: ConjunctiveQuery
) -> Structure:
    """``structure`` with each constant of ``query`` it leaves uninterpreted
    bound to itself, the element of the same name.

    The convenience that goes with :func:`structure_from_facts`:
    ``bagcq evaluate --query "E(#a, y)" --facts "E(a, b)"`` counts 1, as
    does the service's ``"facts"`` field.
    """
    for constant in query.constants:
        if not structure.interprets(constant.name):
            structure = structure.with_constant(constant.name, constant.name)
    return structure


def ground_facts_from_text(text: str) -> list[tuple[str, tuple]]:
    """Parse ground atoms (``E(a, b); T(a, b, c)``) into ``(name, values)``.

    The same term syntax as :func:`structure_from_facts`: ``#name`` denotes
    a constant (its *name* is used as the element, matching the inline-facts
    shorthand), bare identifiers become elements named after themselves.
    Atoms may be separated by whitespace or ``;`` and may contain spaces
    after commas.  Used by ``bagcq update --insert/--delete``, the
    service's ``/update`` text shorthand, and delta JSON files.
    """
    import re

    from repro.queries.parser import parse_query

    facts: list[tuple[str, tuple]] = []
    stripped = text.replace(";", " ").strip()
    if not stripped:
        return facts
    # Each atom is name(args); the args never nest, so a non-greedy
    # paren match delimits atoms regardless of internal whitespace.
    chunks = re.findall(r"[^\s(),]+\s*\([^()]*\)", stripped)
    remainder = re.sub(r"[^\s(),]+\s*\([^()]*\)", " ", stripped).strip()
    if remainder:
        # Leftover text means something was not a well-formed atom; let
        # the query parser produce its usual diagnostic on the raw text.
        parse_query(stripped)
    for chunk in chunks:
        query = parse_query(chunk)
        for atom in query.atoms:
            facts.append(
                (atom.relation, tuple(term.name for term in atom.terms))
            )
    return facts


# -- deltas ---------------------------------------------------------------------------


def delta_to_dict(delta: Delta) -> dict:
    return {
        "inserts": [
            [name, [_encode_element(value) for value in values]]
            for name, values in delta.inserts
        ],
        "deletes": [
            [name, [_encode_element(value) for value in values]]
            for name, values in delta.deletes
        ],
        "add_elements": [_encode_element(e) for e in delta.add_elements],
        "remove_elements": [_encode_element(e) for e in delta.remove_elements],
    }


def _decode_fact(entry: Any) -> tuple[str, tuple]:
    try:
        name, values = entry
    except (TypeError, ValueError):
        raise SerializationError(f"malformed fact payload: {entry!r}") from None
    if not isinstance(name, str):
        raise SerializationError(f"malformed fact payload: {entry!r}")
    return name, tuple(_decode_element(value) for value in values)


def delta_from_dict(payload: dict) -> Delta:
    if not isinstance(payload, dict):
        raise SerializationError(f"malformed delta payload: {payload!r}")
    try:
        return Delta(
            inserts=tuple(
                _decode_fact(entry) for entry in payload.get("inserts", [])
            ),
            deletes=tuple(
                _decode_fact(entry) for entry in payload.get("deletes", [])
            ),
            add_elements=tuple(
                _decode_element(e) for e in payload.get("add_elements", [])
            ),
            remove_elements=tuple(
                _decode_element(e) for e in payload.get("remove_elements", [])
            ),
        )
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed delta payload: {error}") from error


# -- queries -------------------------------------------------------------------------


def query_to_dict(query: ConjunctiveQuery) -> dict:
    return {
        "atoms": [
            {
                "relation": atom.relation,
                "terms": [_encode_term(term) for term in atom.terms],
            }
            for atom in query.atoms
        ],
        "inequalities": [
            {"left": _encode_term(ineq.left), "right": _encode_term(ineq.right)}
            for ineq in query.inequalities
        ],
    }


def query_from_dict(payload: dict) -> ConjunctiveQuery:
    try:
        atoms = [
            Atom(
                entry["relation"],
                tuple(_decode_term(term) for term in entry["terms"]),
            )
            for entry in payload.get("atoms", [])
        ]
        inequalities = [
            Inequality(_decode_term(entry["left"]), _decode_term(entry["right"]))
            for entry in payload.get("inequalities", [])
        ]
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed query payload: {error}") from error
    return ConjunctiveQuery(atoms, inequalities)


def open_query_to_dict(query: OpenQuery) -> dict:
    return {
        "body": query_to_dict(query.body),
        "head": [variable.name for variable in query.head],
    }


def open_query_from_dict(payload: dict) -> OpenQuery:
    try:
        body = query_from_dict(payload["body"])
        head = payload.get("head", [])
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed open query payload: {error}") from error
    return OpenQuery(body, tuple(head))


def product_to_dict(product: QueryProduct) -> dict:
    return {
        "factors": [
            {"query": query_to_dict(query), "exponent": exponent}
            for query, exponent in product
        ]
    }


def product_from_dict(payload: dict) -> QueryProduct:
    try:
        factors = [
            (query_from_dict(entry["query"]), entry["exponent"])
            for entry in payload.get("factors", [])
        ]
    except (KeyError, TypeError) as error:
        raise SerializationError(
            f"malformed query product payload: {error}"
        ) from error
    return QueryProduct(factors)


# -- top level -----------------------------------------------------------------------

_ENCODERS = {
    Schema: ("schema", schema_to_dict),
    Structure: ("structure", structure_to_dict),
    Delta: ("delta", delta_to_dict),
    ConjunctiveQuery: ("query", query_to_dict),
    OpenQuery: ("open_query", open_query_to_dict),
    QueryProduct: ("query_product", product_to_dict),
}

_DECODERS = {
    "schema": schema_from_dict,
    "structure": structure_from_dict,
    "delta": delta_from_dict,
    "query": query_from_dict,
    "open_query": open_query_from_dict,
    "query_product": product_from_dict,
}


def dumps(obj, indent: int | None = None) -> str:
    """Serialize any supported object to a self-describing JSON string."""
    for cls, (tag, encoder) in _ENCODERS.items():
        if isinstance(obj, cls):
            return json.dumps(
                {"type": tag, "payload": encoder(obj)}, indent=indent
            )
    raise SerializationError(
        f"cannot serialize objects of type {type(obj).__name__}"
    )


def loads(text: str):
    """Inverse of :func:`dumps`."""
    try:
        envelope = json.loads(text)
        tag = envelope["type"]
        payload = envelope["payload"]
    except (json.JSONDecodeError, KeyError, TypeError) as error:
        raise SerializationError(f"malformed envelope: {error}") from error
    try:
        decoder = _DECODERS[tag]
    except KeyError:
        raise SerializationError(f"unknown payload type {tag!r}") from None
    return decoder(payload)
