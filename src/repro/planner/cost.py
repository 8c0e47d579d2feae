"""The calibrated cost model: score each engine on one component.

Costs are abstract "fact visits" — coarse, but calibrated so the ordering
between engines is right on the workloads this repository actually runs
(the E13/E15/E16 benchmark families):

* **acyclic** (Yannakakis counting) is linear in the matching facts, with
  a small per-atom sorting overhead;
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

**Calibration.**  The constants live in a :class:`CostConstants` value
(the defaults are the hand-calibrated ones).  ``bagcq calibrate`` fits
the per-engine *scale* factors from measured wall time per structural
visit on a seeded workload (:func:`fit_constants`), and
:func:`set_constants` / :func:`use_constants` install a fitted set —
selection picks the engine minimizing ``scale × visits``, so scales put
the three structural estimates in one common currency (seconds, up to a
shared normalization).  Profiles cached by the planner stay valid across
a swap: constants enter only at selection time, never at analysis time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterator

from repro.planner.analyze import ComponentProfile
from repro.queries.cq import ConjunctiveQuery
from repro.relational.structure import Structure

__all__ = [
    "CostConstants",
    "eligible_engines",
    "estimate_cost",
    "estimate_visits",
    "fit_constants",
    "get_constants",
    "select_engine",
    "set_constants",
    "use_constants",
]

#: Estimates saturate here — beyond this every plan is "hopeless" alike.
COST_CEILING = 1e18

#: Deterministic tie-break: the reference engine wins equal scores.
_PREFERENCE = {"backtracking": 0, "acyclic": 1, "treewidth": 2, "compiled": 3}

ENGINES = ("backtracking", "acyclic", "treewidth", "compiled")


@dataclass(frozen=True)
class CostConstants:
    """Every tunable of the cost model, as one immutable value.

    The ``*_base`` / ``*_per_*`` fields shape each engine's *structural*
    visit estimate; the ``*_scale`` fields convert visits to a common
    currency (fitted by ``bagcq calibrate``, 1.0 when uncalibrated).
    """

    acyclic_base: float = 24.0
    acyclic_per_fact: float = 2.0
    acyclic_per_atom: float = 4.0
    treewidth_base: float = 60.0
    treewidth_per_entry: float = 6.0
    backtracking_base: float = 10.0
    compiled_base: float = 30.0
    compiled_per_fact: float = 1.0
    compiled_per_atom: float = 2.0
    compiled_per_node: float = 0.5
    acyclic_scale: float = 1.0
    treewidth_scale: float = 1.0
    backtracking_scale: float = 1.0
    compiled_scale: float = 1.0

    def scale(self, engine: str) -> float:
        if engine not in ENGINES:
            raise ValueError(f"no cost model for engine {engine!r}")
        return getattr(self, f"{engine}_scale")

    def to_dict(self) -> dict:
        """A plain JSON-serializable mapping (field name → value)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CostConstants":
        """Rebuild from :meth:`to_dict` output; unknown keys rejected,
        missing keys default — so artifacts from older calibrations load
        as long as they only *lack* fields."""
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown cost constant(s): {', '.join(sorted(unknown))}"
            )
        values = {key: float(value) for key, value in data.items()}
        constants = cls(**values)
        for field in fields(cls):
            if getattr(constants, field.name) <= 0:
                raise ValueError(
                    f"cost constant {field.name} must be positive"
                )
        return constants


_DEFAULT_CONSTANTS = CostConstants()
_current_constants = _DEFAULT_CONSTANTS


def get_constants() -> CostConstants:
    """The constants the planner is currently selecting with."""
    return _current_constants


def set_constants(constants: CostConstants | None) -> None:
    """Install ``constants`` process-wide (``None`` restores defaults)."""
    global _current_constants
    _current_constants = constants or _DEFAULT_CONSTANTS


@contextmanager
def use_constants(constants: CostConstants) -> Iterator[CostConstants]:
    """Temporarily install ``constants`` (tests, what-if EXPLAINs)."""
    previous = _current_constants
    set_constants(constants)
    try:
        yield constants
    finally:
        set_constants(previous)


def fit_constants(
    samples: list[tuple[str, float, float]],
    base: CostConstants | None = None,
) -> CostConstants:
    """Fit per-engine scales from ``(engine, visits, seconds)`` samples.

    Each engine's seconds-per-visit rate is the ratio of totals (robust
    to a few noisy samples), normalized so ``backtracking_scale`` stays
    1.0 — only *relative* rates matter to selection.  Engines with no
    samples (or degenerate ones) keep their ``base`` scale.
    """
    base = base or _DEFAULT_CONSTANTS
    visit_totals: dict[str, float] = {}
    second_totals: dict[str, float] = {}
    for engine, visits, seconds in samples:
        if engine not in ENGINES:
            raise ValueError(f"no cost model for engine {engine!r}")
        if visits <= 0 or seconds <= 0:
            continue
        visit_totals[engine] = visit_totals.get(engine, 0.0) + visits
        second_totals[engine] = second_totals.get(engine, 0.0) + seconds
    rates = {
        engine: second_totals[engine] / visit_totals[engine]
        for engine in visit_totals
    }
    reference = rates.get("backtracking")
    if reference is None or reference <= 0:
        # Without the reference engine there is nothing to normalize
        # against; keep whatever the base carried.
        return base
    updates = {
        f"{engine}_scale": rate / reference for engine, rate in rates.items()
    }
    return replace(base, **updates)


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
    :class:`~repro.errors.EvaluationError`).  ``acyclic`` additionally
    requires an inequality-free, GYO-reducible component whose constants
    the structure interprets and whose atom arities match the structure's
    schema — outside that envelope it raises where the others would not.

    ``compiled`` is *total* (it falls back to the interpreter outside
    its envelope), but the planner still gates it on the specializer's
    own envelope — no inequalities, interpreted constants, matching
    arities (GYO-reducibility is **not** required: cyclic shapes take
    the closure chain) — so that selecting it always means actually
    compiling, never a silent round-trip through the fallback.
    """
    engines = ["backtracking", "treewidth"]
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
    if specializable and profile.acyclic:
        engines.append("acyclic")
    if specializable:
        engines.append("compiled")
    return tuple(engines)


def estimate_visits(
    engine: str,
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
    constants: CostConstants | None = None,
) -> float:
    """The *structural* visit estimate of ``engine``, before scaling.

    This is the quantity ``bagcq calibrate`` pairs with measured wall
    time: seconds ≈ scale × visits.
    """
    constants = constants or _current_constants
    domain_size = max(len(structure.domain), 1)
    facts = _relevant_facts(component, structure)
    if engine == "acyclic":
        return (
            constants.acyclic_base
            + constants.acyclic_per_fact * facts
            + constants.acyclic_per_atom * profile.atom_count
        )
    if engine == "treewidth":
        table = _saturating_power(
            float(domain_size), profile.treewidth_bound + 1
        )
        bags = max(profile.variable_count, 1)
        return min(
            constants.treewidth_base
            + constants.treewidth_per_entry * bags * table,
            COST_CEILING,
        )
    if engine == "backtracking":
        assignments = _saturating_power(
            float(domain_size), profile.variable_count
        )
        return constants.backtracking_base + min(
            assignments, _join_bound(component, structure)
        )
    if engine == "compiled":
        # Index build: linear in the facts, plus a per-atom closure /
        # grouping setup.  Residual search: free for acyclic shapes (the
        # array passes are folded into the per-fact term); a discounted
        # node bound for cyclic ones (the chain still explores the join,
        # but each step is a hash lookup instead of a fact scan).
        build = (
            constants.compiled_base
            + constants.compiled_per_fact * facts
            + constants.compiled_per_atom * profile.atom_count
        )
        if profile.acyclic:
            return build
        assignments = _saturating_power(
            float(domain_size), profile.variable_count
        )
        join = _join_bound(component, structure)
        return min(
            build + constants.compiled_per_node * min(assignments, join),
            COST_CEILING,
        )
    raise ValueError(f"no cost model for engine {engine!r}")


def estimate_cost(
    engine: str,
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
    constants: CostConstants | None = None,
) -> float:
    """Predicted cost of ``engine`` on the component: scale × visits."""
    constants = constants or _current_constants
    return min(
        constants.scale(engine)
        * estimate_visits(engine, component, profile, structure, constants),
        COST_CEILING,
    )


def select_engine(
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
    constants: CostConstants | None = None,
) -> tuple[str, float]:
    """The cheapest safe engine for the component: ``(engine, est_cost)``."""
    constants = constants or _current_constants
    best: tuple[float, int, str] | None = None
    for engine in eligible_engines(component, profile, structure):
        cost = estimate_cost(engine, component, profile, structure, constants)
        candidate = (cost, _PREFERENCE[engine], engine)
        if best is None or candidate < best:
            best = candidate
    assert best is not None  # backtracking is always eligible
    return best[2], best[0]
