"""Relational substrate: schemas, finite structures, structure operations."""

from repro import _lazy

#: Where each re-exported name lives.  Resolved on first attribute access
#: (PEP 562), as in the package root, so importing one submodule runs
#: this file without loading its siblings.
_EXPORTS = {
    "Delta": "repro.relational.structure",
    "MultisetStructure": "repro.relational.multiset_structure",
    "RelationSymbol": "repro.relational.schema",
    "Schema": "repro.relational.schema",
    "Structure": "repro.relational.structure",
    "StructureBuilder": "repro.relational.structure",
    "apply_delta": "repro.relational.operations",
    "are_isomorphic": "repro.relational.isomorphism",
    "blowup": "repro.relational.operations",
    "count_weighted": "repro.relational.multiset_structure",
    "distinct_up_to_isomorphism": "repro.relational.isomorphism",
    "find_isomorphism": "repro.relational.isomorphism",
    "disjoint_union": "repro.relational.operations",
    "power": "repro.relational.operations",
    "product": "repro.relational.operations",
    "structure_delta": "repro.relational.operations",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
