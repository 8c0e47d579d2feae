"""Parallel batch evaluation: many independent ``count(φ, D)`` calls.

Every certification and counterexample-search loop in this reproduction
reduces to a pile of independent ``(query, structure)`` counting tasks.
:func:`count_many` evaluates such a pile as one unit:

1. **Decompose** every query into its connected components (for a
   :class:`~repro.queries.product.QueryProduct`, the components of each
   factor with the factor's exponent) — the unit of both caching and
   parallelism.
2. **Deduplicate** components through a canonicalization-keyed
   :class:`~repro.homomorphism.cache.CountCache` (α-equivalent components
   on the same structure share one evaluation), shared within the batch
   and — when a cache is passed in — across batches.
3. **Evaluate** the surviving unique components, serially for
   ``workers=1`` or fanned across a ``concurrent.futures`` process pool.
   With ``workers > 1`` the unique tasks are submitted *largest first*
   (descending :mod:`repro.planner` cost estimate — classic LPT bin
   packing), so one expensive component no longer serializes the tail of
   an arrival-ordered schedule.  Results are recombined in input order,
   so the output is deterministic and bit-identical to serial evaluation
   regardless of ``workers`` or submission order.

With ``engine="auto"`` every component is routed through the planner's
cost model individually, and the cache keys carry the *selected* engine —
an auto batch and an explicit batch that happen to pick the same engine
share cache entries, while differential runs across engines stay apart.

Under an active :func:`repro.obs.observe` scope the batch records
``batch.tasks`` / ``batch.evaluated`` / ``batch.calls`` counters, the
``batch.workers`` gauge, and (via the cache) ``cache.hits`` /
``cache.misses``.  Note that with ``workers > 1`` the per-engine counters
(``bt.*``, ``td.*``, ``ac.*``) are tallied inside the worker processes
and are *not* folded back into the parent's registry.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import EvaluationError
from repro.homomorphism.cache import CountCache, component_cache_key
from repro.homomorphism.engine import Engine, _resolve_engine, count
from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery
from repro.queries.product import QueryProduct

__all__ = ["count_many"]

#: One decomposed unit of work: ``(component, structure, engine, use_ie)``.
_Task = tuple


def _count_component(task: _Task) -> int:
    """Evaluate one connected component (top-level, hence picklable)."""
    component, structure, engine, use_inclusion_exclusion = task
    return count(
        component,
        structure,
        engine=engine,
        use_inclusion_exclusion=use_inclusion_exclusion,
    )


def _component_terms(query):
    """Yield ``(component, exponent)`` pairs whose counts multiply to φ(D)."""
    if isinstance(query, QueryProduct):
        for factor, exponent in query:
            for component in factor.connected_components():
                yield component, exponent
    elif isinstance(query, ConjunctiveQuery):
        for component in query.connected_components():
            yield component, 1
    else:
        raise EvaluationError(
            f"cannot evaluate object of type {type(query).__name__}"
        )


def _evaluate_schedule(
    schedule: Sequence[_Task],
    workers: int,
    registry,
    costs: Sequence[float] | None = None,
) -> list[int]:
    """Evaluate unique tasks; pool for ``workers > 1``, largest first.

    ``costs`` (planner estimates, parallel to ``schedule``) reorder pool
    submission to descending cost — longest-processing-time-first bin
    packing — while results are always returned in schedule order.
    """
    if workers == 1 or len(schedule) <= 1:
        return [_count_component(task) for task in schedule]
    order = list(range(len(schedule)))
    if costs is not None:
        order.sort(key=lambda index: (-costs[index], index))
        if registry is not None:
            registry.counter("batch.cost_ordered").inc()
    max_workers = min(workers, len(schedule))
    try:
        # Imported here: the process pool pulls in multiprocessing,
        # pickle and subprocess, which a serial caller never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            chunksize = max(1, len(schedule) // (4 * max_workers))
            mapped = list(
                pool.map(
                    _count_component,
                    [schedule[index] for index in order],
                    chunksize=chunksize,
                )
            )
    except (OSError, ImportError):
        # Pool-less environments (no fork, no semaphores) degrade to the
        # serial path rather than failing the whole batch.
        if registry is not None:
            registry.counter("batch.pool_fallbacks").inc()
        return [_count_component(task) for task in schedule]
    results: list[int] = [0] * len(schedule)
    for position, index in enumerate(order):
        results[index] = mapped[position]
    return results


def count_many(
    pairs: Iterable[tuple],
    engine: Engine = "backtracking",
    workers: int = 1,
    cache: CountCache | bool | None = None,
    use_inclusion_exclusion: bool = False,
) -> list[int]:
    """``[φ(D) for φ, D in pairs]`` as one deduplicated, parallel batch.

    ``pairs`` is a sequence of ``(query, structure)`` tasks; each query is
    a :class:`~repro.queries.cq.ConjunctiveQuery` or factorized
    :class:`~repro.queries.product.QueryProduct`.  Results come back in
    input order and are bit-identical to calling
    :func:`repro.homomorphism.engine.count` on each pair serially.

    ``engine`` may be ``"auto"``: each component is assigned the cheapest
    safe engine by the :mod:`repro.planner` cost model, and with
    ``workers > 1`` the same cost estimates schedule the pool largest
    task first (explicit engines are estimated for scheduling too).

    ``cache`` controls component-count reuse:

    * ``None`` (default) — a fresh :class:`CountCache` shared within this
      batch only;
    * a :class:`CountCache` — shared with the caller (and thus across
      batches);
    * ``False`` — no reuse at all: every component task is evaluated
      independently (the honest baseline for differential tests).

    ``workers=1`` evaluates serially in-process; ``workers > 1`` fans the
    unique component tasks across a process pool (queries and structures
    must pickle, which all repro value objects do).
    """
    counts_fn = _resolve_engine(engine)  # fail fast on unknown engines
    del counts_fn
    if workers < 1:
        raise ValueError(f"count_many needs workers >= 1, got {workers}")
    pairs = list(pairs)
    registry = obs_metrics.active_registry()

    active_cache: CountCache | None
    if cache is None:
        active_cache = CountCache()
    elif cache is False:
        active_cache = None
    elif isinstance(cache, CountCache):
        active_cache = cache
    else:
        raise TypeError(
            f"cache must be a CountCache, None, or False; got {cache!r}"
        )

    # Planner hooks: with engine="auto" every component needs a selection;
    # with an explicit engine, cost estimates are only worth computing
    # when a pool is going to be packed with them.
    estimate_for_packing = workers > 1
    if engine == "auto" or estimate_for_packing:
        from repro.planner import default_plan_cache, estimate_cost, select_for

        plan_cache = default_plan_cache()

    #: ``("value", v)`` for resolved counts, ``("slot", i)`` for scheduled.
    per_pair: list[list[tuple[tuple, int]]] = []
    schedule: list[_Task] = []
    costs: list[float] = []  # planner estimates, parallel to ``schedule``
    pending: dict[tuple, int] = {}  # cache key -> schedule slot
    tasks = 0
    for query, structure in pairs:
        entries: list[tuple[tuple, int]] = []
        for component, exponent in _component_terms(query):
            tasks += 1
            if engine == "auto":
                step = select_for(component, structure)
                concrete, est_cost = step.engine, step.est_cost
            else:
                concrete = engine
                est_cost = 0.0
                if estimate_for_packing:
                    profile, _ = plan_cache.profile(component)
                    est_cost = estimate_cost(
                        concrete, component, profile, structure
                    )
            task: _Task = (
                component,
                structure,
                concrete,
                use_inclusion_exclusion,
            )
            if active_cache is None:
                entries.append((("slot", len(schedule)), exponent))
                schedule.append(task)
                costs.append(est_cost)
                continue
            key = component_cache_key(component, structure, concrete)
            if key in pending:
                active_cache.note_reuse()
                entries.append((("slot", pending[key]), exponent))
                continue
            hit = active_cache.lookup(key)
            if hit is not None:
                entries.append((("value", hit), exponent))
                continue
            pending[key] = len(schedule)
            entries.append((("slot", len(schedule)), exponent))
            schedule.append(task)
            costs.append(est_cost)
        per_pair.append(entries)

    results = _evaluate_schedule(
        schedule,
        workers,
        registry,
        costs=costs if estimate_for_packing else None,
    )

    if active_cache is not None:
        for key, slot in pending.items():
            active_cache.store(key, results[slot])

    if registry is not None:
        registry.counter("batch.calls").inc()
        registry.counter("batch.tasks").inc(tasks)
        registry.counter("batch.evaluated").inc(len(schedule))
        registry.gauge("batch.workers").set(workers)

    counts: list[int] = []
    for entries in per_pair:
        total = 1
        for reference, exponent in entries:
            kind, payload = reference
            value = payload if kind == "value" else results[payload]
            if value == 0:
                total = 0
                break
            total *= value**exponent
        counts.append(total)
    return counts
