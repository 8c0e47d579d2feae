"""Conjunctive queries: terms, atoms, CQs, factorized products, UCQs."""

from repro import _lazy

#: Where each re-exported name lives.  Resolved on first attribute access
#: (PEP 562), as in the package root, so importing one submodule runs
#: this file without loading its siblings.
_EXPORTS = {
    "Atom": "repro.queries.atoms",
    "ConjunctiveQuery": "repro.queries.cq",
    "Constant": "repro.queries.terms",
    "HEART_C": "repro.queries.terms",
    "Inequality": "repro.queries.atoms",
    "OpenQuery": "repro.queries.open_query",
    "QueryProduct": "repro.queries.product",
    "SPADE_C": "repro.queries.terms",
    "TRUE": "repro.queries.cq",
    "Term": "repro.queries.terms",
    "UnionOfConjunctiveQueries": "repro.queries.ucq",
    "Variable": "repro.queries.terms",
    "answer_multiset": "repro.queries.open_query",
    "bag_answer_contained": "repro.queries.open_query",
    "bag_answer_counterexample": "repro.queries.open_query",
    "constants": "repro.queries.terms",
    "parse_query": "repro.queries.parser",
    "parse_term": "repro.queries.parser",
    "variables": "repro.queries.terms",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
