"""The plan IR: ``plan(query, structure)`` → :class:`Plan`, plus EXPLAIN.

A :class:`Plan` is the unit the evaluation layers execute: one
:class:`PlanStep` per connected component, each carrying the component,
the engine the cost model picked for it, the predicted cost, and the
structural profile that justified the pick.  ``engine="auto"`` anywhere
in :mod:`repro.homomorphism.engine` / ``batch`` is exactly "build the
plan, run its steps"; ``bagcq explain`` pretty-prints the same object.

Observability: every planning call pre-registers the full ``plan.*``
counter family at zero (the convention ``repro.qa`` established for
``qa.*``), so clean ``--stats`` runs report them deterministically:

* ``plan.calls`` — :func:`plan` invocations;
* ``plan.components`` — component selections performed (cached or not);
* ``plan.cache_hits`` / ``plan.cache_misses`` — :class:`PlanCache`
  profile lookups;
* ``plan.selected.<engine>`` — which engine won, one counter per name
  in :data:`repro.homomorphism.engine.ENGINES`;
* ``plan.compile.builds`` / ``plan.compile.cache_hits`` /
  ``plan.compile.cache_misses`` — compiled-artifact traffic in the
  :class:`PlanCache` (see :mod:`repro.homomorphism.compiled`);
* ``plan.compile.promotions`` — artifacts moved from the probation FIFO
  into the main LRU on reuse.

:func:`plan` additionally opens ``plan.analyze`` / ``plan.select`` spans
(attributed with component counts and the winning engines) — coarse,
one per planning call, so traces stay small.
"""

from __future__ import annotations

from typing import Union

from repro._value import Value
from repro.errors import EvaluationError
from repro.homomorphism.engine import ENGINES
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.planner.analyze import ComponentProfile, PlanCache
from repro.planner.cost import select_engine
from repro.queries.cq import ConjunctiveQuery
from repro.queries.product import QueryProduct
from repro.relational.structure import Structure

__all__ = [
    "Plan",
    "PlanStep",
    "default_plan_cache",
    "plan",
    "plan_cache_occupancy",
    "select_for",
]

Plannable = Union[ConjunctiveQuery, QueryProduct]

#: Every counter the planner ever increments, for zero pre-registration.
_PLAN_COUNTERS = (
    "plan.calls",
    "plan.components",
    "plan.cache_hits",
    "plan.cache_misses",
    *(f"plan.selected.{engine}" for engine in ENGINES),
    "plan.compile.builds",
    "plan.compile.cache_hits",
    "plan.compile.cache_misses",
    "plan.compile.promotions",
)

#: Process-wide profile cache: planning is pure query analysis, so sharing
#: across calls (and across `auto` entry points) is always sound.
_DEFAULT_PLAN_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` the ``auto`` engine uses."""
    return _DEFAULT_PLAN_CACHE


def plan_cache_occupancy(cache: PlanCache | None = None) -> dict:
    """Both levels of a plan cache in one health-report dict.

    The ``/healthz`` surface: profile occupancy (durable, snapshot-able)
    and compiled-artifact occupancy (process-local closures) side by
    side, defaulting to the process-wide cache the service uses.
    """
    plan_cache = cache if cache is not None else _DEFAULT_PLAN_CACHE
    return {
        "profiles": plan_cache.stats(),
        "compiled": plan_cache.artifacts.stats(),
    }


def _preregister_counters() -> None:
    registry = obs_metrics.active_registry()
    if registry is not None:
        for name in _PLAN_COUNTERS:
            registry.counter(name)


class PlanStep(Value):
    """One component's slice of a plan: what runs where, and why."""

    __slots__ = ("component", "engine", "est_cost", "profile", "exponent")
    _defaults = {"exponent": 1}

    component: ConjunctiveQuery
    engine: str
    est_cost: float
    profile: ComponentProfile
    #: Exponent the component's count is raised to (lazy ``↑ k`` factors).
    exponent: int

    def describe(self) -> str:
        power = f" ^{self.exponent}" if self.exponent != 1 else ""
        return (
            f"engine={self.engine:<12} est_cost={self.est_cost:>12.0f}  "
            f"[{self.profile.describe()}]{power}  {self.component}"
        )

    def to_dict(self) -> dict:
        """A JSON-ready rendering of this step (machine-readable EXPLAIN)."""
        from repro.io import query_to_dict

        return {
            "component": query_to_dict(self.component),
            "component_text": str(self.component),
            "engine": self.engine,
            "est_cost": self.est_cost,
            "exponent": self.exponent,
            "profile": {
                "atom_count": self.profile.atom_count,
                "variable_count": self.profile.variable_count,
                "inequality_count": self.profile.inequality_count,
                "acyclic": self.profile.acyclic,
                "treewidth_bound": self.profile.treewidth_bound,
            },
        }


class Plan(Value):
    """An executable evaluation plan: one engine-assigned step per component."""

    __slots__ = ("steps", "cache_hits", "cache_misses")

    steps: tuple[PlanStep, ...]
    cache_hits: int
    cache_misses: int

    @property
    def total_cost(self) -> float:
        return sum(step.est_cost for step in self.steps)

    @property
    def engines(self) -> tuple[str, ...]:
        """Engines used, deduplicated, in first-use order."""
        seen: dict[str, None] = {}
        for step in self.steps:
            seen.setdefault(step.engine, None)
        return tuple(seen)

    def explain(self) -> str:
        """A human-readable rendering (the payload of ``bagcq explain``)."""
        if not self.steps:
            return "plan: empty query — constant 1, no engine dispatched"
        lines = [f"plan: {len(self.steps)} component(s)"]
        for index, step in enumerate(self.steps, start=1):
            lines.append(f"  step {index}: {step.describe()}")
        lines.append(
            f"total est cost: {self.total_cost:.0f}   "
            f"plan cache: {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The machine-readable plan: ``bagcq explain --json`` and the
        service's ``/explain`` endpoint both emit exactly this shape
        (serialized with :func:`repro.obs.report.stable_json_dumps`)."""
        return {
            "schema_version": 1,
            "steps": [step.to_dict() for step in self.steps],
            "engines": list(self.engines),
            "total_est_cost": self.total_cost,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


def select_for(
    component: ConjunctiveQuery,
    structure: Structure,
    cache: PlanCache | None = None,
) -> PlanStep:
    """Plan a single connected component (the engine dispatch hot path).

    Returns the winning engine with its predicted cost.  Counters are
    recorded; no spans are opened — this runs once per component per
    ``count()`` call, which is far too hot for tracing.
    """
    _preregister_counters()
    plan_cache = cache if cache is not None else _DEFAULT_PLAN_CACHE
    profile, was_hit = plan_cache.profile(component)
    engine, est_cost = select_engine(component, profile, structure)
    obs_metrics.add("plan.components")
    obs_metrics.add(f"plan.selected.{engine}")
    return PlanStep(
        component=component,
        engine=engine,
        est_cost=est_cost,
        profile=profile,
        exponent=1,
    )


def _component_terms(query: Plannable):
    if isinstance(query, QueryProduct):
        for factor, exponent in query:
            for component in factor.connected_components():
                yield component, exponent
    elif isinstance(query, ConjunctiveQuery):
        for component in query.connected_components():
            yield component, 1
    else:
        raise EvaluationError(
            f"cannot plan object of type {type(query).__name__}"
        )


def plan(
    query: Plannable,
    structure: Structure,
    cache: PlanCache | None = None,
) -> Plan:
    """Decompose ``query`` and pick the cheapest safe engine per component.

    Accepts a plain :class:`ConjunctiveQuery` or a factorized
    :class:`QueryProduct` (whose lazy exponents are carried onto the
    steps).  ``cache`` overrides the process-wide profile cache —
    pass a fresh :class:`PlanCache` for isolated measurements.
    """
    _preregister_counters()
    obs_metrics.add("plan.calls")
    plan_cache = cache if cache is not None else _DEFAULT_PLAN_CACHE
    hits_before, misses_before = plan_cache.hits, plan_cache.misses

    with span("plan.analyze") as analyze_span:
        analyzed: list[tuple[ConjunctiveQuery, int, ComponentProfile]] = []
        for component, exponent in _component_terms(query):
            profile, _ = plan_cache.profile(component)
            analyzed.append((component, exponent, profile))
        analyze_span.set(components=len(analyzed))

    with span("plan.select") as select_span:
        steps = []
        for component, exponent, profile in analyzed:
            engine, est_cost = select_engine(component, profile, structure)
            obs_metrics.add("plan.components")
            obs_metrics.add(f"plan.selected.{engine}")
            steps.append(
                PlanStep(
                    component=component,
                    engine=engine,
                    est_cost=est_cost,
                    profile=profile,
                    exponent=exponent,
                )
            )
        select_span.set(
            engines=",".join(sorted({step.engine for step in steps}))
        )

    return Plan(
        steps=tuple(steps),
        cache_hits=plan_cache.hits - hits_before,
        cache_misses=plan_cache.misses - misses_before,
    )
