"""Semi-decision procedures: search, bounded verification, certificates."""

from repro import _lazy

#: Where each re-exported name lives.  Resolved on first attribute access
#: (PEP 562), as in the package root, so a server's ``/decide`` handler
#: loads the search without the other procedures.
_EXPORTS = {
    "BoundedVerdict": "repro.decision.bounded",
    "Certificate": "repro.decision.certificates",
    "HdeEstimate": "repro.decision.hde",
    "SearchOutcome": "repro.decision.search",
    "Verdict": "repro.decision.certificates",
    "amplified": "repro.decision.search",
    "are_isomorphic": "repro.decision.equivalence",
    "bag_equivalent": "repro.decision.equivalence",
    "core": "repro.decision.equivalence",
    "decide_bag_containment": "repro.decision.certificates",
    "enumerate_structures": "repro.decision.search",
    "find_isomorphism": "repro.decision.equivalence",
    "hde_upper_bound": "repro.decision.hde",
    "projection_free_contained": "repro.decision.projection_free",
    "find_counterexample": "repro.decision.search",
    "random_structures": "repro.decision.search",
    "set_equivalent": "repro.decision.equivalence",
    "variable_ratio_bound": "repro.decision.hde",
    "verify_bounded": "repro.decision.bounded",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
