"""Homomorphism counting, enumeration, and containment tests."""

from repro import _lazy

#: The counting engines' names in the planner's preference order: of two
#: engines with equal estimated cost, the earlier one is picked.  Every
#: list of engines derives from this one.  :mod:`repro.homomorphism.engine`
#: maps each name to its counter; the names live here so that listing
#: them (the CLI's ``--engine`` choices) loads no engine.
ENGINES = ("backtracking", "treewidth", "compiled")

#: Where each re-exported name lives.  Resolved on first attribute access
#: (PEP 562), as in the package root, so importing one submodule runs
#: this file without loading its siblings: a server loads the cache and
#: the engines it counts with, not ``count_many``'s process pool.
_EXPORTS = {
    "CountCache": "repro.homomorphism.cache",
    "DeltaEvaluator": "repro.homomorphism.delta",
    "DeltaReport": "repro.homomorphism.delta",
    "bag_contained_on": "repro.homomorphism.containment",
    "bag_counterexample_on": "repro.homomorphism.containment",
    "canonical_component": "repro.homomorphism.cache",
    "compile_component": "repro.homomorphism.compiled",
    "compiled_supported": "repro.homomorphism.compiled",
    "count": "repro.homomorphism.engine",
    "count_at_least": "repro.homomorphism.engine",
    "count_homomorphisms": "repro.homomorphism.backtracking",
    "count_many": "repro.homomorphism.batch",
    "count_homomorphisms_acyclic": "repro.homomorphism.acyclic",
    "count_homomorphisms_compiled": "repro.homomorphism.compiled",
    "count_homomorphisms_td": "repro.homomorphism.treewidth_dp",
    "count_ucq": "repro.homomorphism.engine",
    "delta_affects": "repro.homomorphism.delta",
    "enumerate_homomorphisms": "repro.homomorphism.backtracking",
    "evaluate": "repro.homomorphism.engine",
    "exists_homomorphism": "repro.homomorphism.backtracking",
    "find_surjective_homomorphism": "repro.homomorphism.surjective",
    "has_surjective_homomorphism": "repro.homomorphism.surjective",
    "is_acyclic": "repro.homomorphism.acyclic",
    "is_homomorphism": "repro.homomorphism.backtracking",
    "join_tree": "repro.homomorphism.acyclic",
    "query_homomorphisms": "repro.homomorphism.surjective",
    "query_treewidth": "repro.homomorphism.treewidth_dp",
    "refresh_component": "repro.homomorphism.compiled",
    "set_contained": "repro.homomorphism.containment",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)

__all__ = ["ENGINES", *_EXPORTS]
