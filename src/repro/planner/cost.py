"""The cost model: score each engine on one component.

Costs are abstract "fact visits" — coarse, but set so the ordering
between engines is right on the workloads this repository actually runs
(the E13/E15/E16 benchmark families):

* **treewidth** (tree-decomposition DP) pays ``|bags| · d^(width+1)`` for
  its message tables, with a heavier per-entry constant;
* **backtracking** is bounded by the naive join size (the product of the
  per-atom fact counts) and by ``d^vars``, whichever is smaller — its
  subtree memoization and private-variable counting usually beat both,
  which the small additive bias accounts for;
* **compiled** (specialized per-plan evaluators,
  :mod:`repro.homomorphism.compiled`) pays a one-time indexing pass that
  is linear in the matching facts, then runs either the array-semiring
  Yannakakis loop (acyclic shapes) or a closure chain whose residual
  search is a fraction of the interpreted join — modelled as
  index-build cost plus a discounted join bound.

The model never has to be *right*, only *monotone enough*: every engine
returns the same exact count (the qa oracles enforce it), so a bad
estimate costs time, never correctness.  Engines that could *raise* where
the default engine would not are excluded up front by
:func:`eligible_engines` — ``auto`` must be a drop-in for the default on
every input, including the error-raising ones.
"""

from __future__ import annotations

from repro.homomorphism.engine import ENGINES
from repro.planner.analyze import ComponentProfile
from repro.queries.cq import ConjunctiveQuery
from repro.relational.structure import Structure

__all__ = ["eligible_engines", "estimate_cost", "select_engine"]

#: Estimates saturate here — beyond this every plan is "hopeless" alike.
COST_CEILING = 1e18

#: The fixed terms of each engine's estimate, in fact visits.
TREEWIDTH_BASE = 60.0
TREEWIDTH_PER_ENTRY = 6.0
BACKTRACKING_BASE = 10.0
COMPILED_BASE = 30.0
COMPILED_PER_FACT = 1.0
COMPILED_PER_ATOM = 2.0
COMPILED_PER_NODE = 0.5


def _saturating_power(base: float, exponent: int) -> float:
    """``base ** exponent`` clamped into ``[1, COST_CEILING]``."""
    if base <= 1.0:
        return 1.0
    total = 1.0
    for _ in range(exponent):
        total *= base
        if total >= COST_CEILING:
            return COST_CEILING
    return total


def _relevant_facts(component: ConjunctiveQuery, structure: Structure) -> int:
    """Facts in the relations the component's atoms read, one term per
    atom (missing relations: 0)."""
    schema = structure.schema
    return sum(
        structure.fact_count(atom.relation)
        for atom in component.atoms
        if atom.relation in schema
    )


def _join_bound(component: ConjunctiveQuery, structure: Structure) -> float:
    """The naive join size: the product of the per-atom fact counts."""
    schema = structure.schema
    join = 1.0
    for atom in component.atoms:
        cardinality = (
            structure.fact_count(atom.relation)
            if atom.relation in schema
            else 0
        )
        join *= float(max(cardinality, 1))
        if join >= COST_CEILING:
            return COST_CEILING
    return join


def eligible_engines(
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
) -> tuple[str, ...]:
    """Engines that are *safe* for this component on this structure.

    Safe means: same exact count, and no error the backtracking engine
    would not also raise.  ``backtracking`` and ``treewidth`` are total
    (and agree on every error class: uninterpreted constants raise
    :class:`~repro.errors.ConstantError`, arity mismatches raise
    :class:`~repro.errors.EvaluationError`).

    ``compiled`` is *total* (it falls back to the interpreter outside
    its envelope), but the planner still gates it on the specializer's
    own envelope — no inequalities, interpreted constants, matching
    arities (GYO-reducibility is **not** required: cyclic shapes take
    the closure chain) — so that selecting it always means actually
    compiling, never a silent round-trip through the fallback.
    """
    specializable = (
        profile.inequality_count == 0
        and all(
            structure.interprets(constant.name)
            for constant in component.constants
        )
        and all(
            atom.relation not in structure.schema
            or structure.schema.arity(atom.relation) == atom.arity
            for atom in component.atoms
        )
    )
    if specializable:
        return ENGINES
    return tuple(engine for engine in ENGINES if engine != "compiled")


def estimate_cost(
    engine: str,
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
) -> float:
    """Predicted cost of ``engine`` on the component, in fact visits."""
    domain_size = max(len(structure.domain), 1)
    if engine == "treewidth":
        table = _saturating_power(
            float(domain_size), profile.treewidth_bound + 1
        )
        bags = max(profile.variable_count, 1)
        cost = TREEWIDTH_BASE + TREEWIDTH_PER_ENTRY * bags * table
    elif engine == "backtracking":
        assignments = _saturating_power(
            float(domain_size), profile.variable_count
        )
        cost = BACKTRACKING_BASE + min(
            assignments, _join_bound(component, structure)
        )
    elif engine == "compiled":
        # Index build: linear in the facts, plus a per-atom closure /
        # grouping setup.  Residual search: free for acyclic shapes (the
        # array passes are folded into the per-fact term); a discounted
        # node bound for cyclic ones (the chain still explores the join,
        # but each step is a hash lookup instead of a fact scan).
        cost = (
            COMPILED_BASE
            + COMPILED_PER_FACT * _relevant_facts(component, structure)
            + COMPILED_PER_ATOM * profile.atom_count
        )
        if not profile.acyclic:
            assignments = _saturating_power(
                float(domain_size), profile.variable_count
            )
            join = _join_bound(component, structure)
            cost += COMPILED_PER_NODE * min(assignments, join)
    else:
        raise ValueError(f"no cost model for engine {engine!r}")
    return min(cost, COST_CEILING)


def select_engine(
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
) -> tuple[str, float]:
    """The cheapest safe engine for the component: ``(engine, est_cost)``.

    Equal costs go to the engine earlier in :data:`ENGINES`.
    """
    cost, _, engine = min(
        (
            estimate_cost(engine, component, profile, structure),
            ENGINES.index(engine),
            engine,
        )
        for engine in eligible_engines(component, profile, structure)
    )
    return engine, cost
