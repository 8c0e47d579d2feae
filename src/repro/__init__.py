"""bagcq — Bag-semantics conjunctive query containment.

A faithful, executable reproduction of *"Bag Semantics Conjunctive Query
Containment. Four Small Steps Towards Undecidability"* (Marcinkowski &
Orda, PODS 2024): conjunctive queries under multiset semantics, the
homomorphism-counting machinery, the multiplication gadgets of Section 3,
the Hilbert-10th-problem reductions of Section 4 and Appendix B, and the
structure operations and equivalences of Section 5.
"""

from repro import _lazy

#: Where each re-exported name lives.  Resolved on first attribute access
#: (PEP 562), so importing one subpackage — ``repro.cli`` for a server —
#: does not load the reductions, polynomials and decision procedures it
#: never serves.
_EXPORTS = {
    "alpha_gadget": "repro.core",
    "beta_gadget": "repro.core",
    "gamma_gadget": "repro.core",
    "reduce_polynomial": "repro.core",
    "theorem1_reduction": "repro.core",
    "theorem3_reduction": "repro.core",
    "transfer_witness": "repro.core",
    "ContainmentCache": "repro.containment_set",
    "cq_containment": "repro.containment_set",
    "cq_contained": "repro.containment_set",
    "ucq_containment": "repro.containment_set",
    "ucq_contained": "repro.containment_set",
    "decide_bag_containment": "repro.decision",
    "verify_bounded": "repro.decision",
    "count": "repro.homomorphism",
    "count_ucq": "repro.homomorphism",
    "evaluate": "repro.homomorphism",
    "set_contained": "repro.homomorphism",
    "Lemma11Instance": "repro.polynomials",
    "Monomial": "repro.polynomials",
    "Polynomial": "repro.polynomials",
    "hilbert_to_lemma11": "repro.polynomials",
    "standard_suite": "repro.polynomials",
    "Atom": "repro.queries",
    "OpenQuery": "repro.queries",
    "ConjunctiveQuery": "repro.queries",
    "Constant": "repro.queries",
    "Inequality": "repro.queries",
    "QueryProduct": "repro.queries",
    "UnionOfConjunctiveQueries": "repro.queries",
    "Variable": "repro.queries",
    "parse_query": "repro.queries",
    "Schema": "repro.relational",
    "Structure": "repro.relational",
    "StructureBuilder": "repro.relational",
    "blowup": "repro.relational",
    "disjoint_union": "repro.relational",
    "power": "repro.relational",
    "product": "repro.relational",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
