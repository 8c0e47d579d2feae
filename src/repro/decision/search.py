"""Candidate database streams and counterexample search.

``QCP^bag_CQ``'s decidability is open, but it is co-recursively-enumerable:
enumerate databases, evaluate both queries, stop on a violation.  This
module provides the enumeration side — exhaustive streams over small
domains, randomized streams, and streams derived from structured families
(blow-ups and product powers, which Lemma 22 makes natural amplifiers) —
plus the generic search driver.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Iterator, Sequence

from repro._value import Value
from repro.deadline import check
from repro.errors import BagCQError, DeadlineExpired, SearchBudgetExceeded
from repro.homomorphism.batch import count_many
from repro.homomorphism.cache import CountCache
from repro.homomorphism.engine import count
from repro.queries.cq import ConjunctiveQuery
from repro.naming import HEART, SPADE
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.relational.operations import blowup, power
from repro.relational.schema import Schema
from repro.relational.structure import Structure

__all__ = [
    "enumerate_structures",
    "random_structures",
    "amplified",
    "SearchOutcome",
    "find_counterexample",
]


def enumerate_structures(
    schema: Schema,
    domain_size: int,
    constants: dict[str, int] | None = None,
    nontrivial_constants: bool = False,
    max_facts_per_relation: int | None = None,
) -> Iterator[Structure]:
    """Every structure over ``{0..domain_size−1}`` (up to the caps given).

    ``constants`` pins interpretations (e.g. ``{"spade": 0, "heart": 1}``);
    with ``nontrivial_constants`` the two non-triviality constants are
    added automatically (requires ``domain_size ≥ 2``).  The stream grows
    as ``2^{Σ n^arity}`` — keep domains tiny or cap facts per relation.
    """
    domain = tuple(range(domain_size))
    interpretations = dict(constants or {})
    if nontrivial_constants:
        if domain_size < 2:
            raise ValueError("non-trivial structures need at least 2 elements")
        interpretations.setdefault(SPADE, 0)
        interpretations.setdefault(HEART, 1)

    relation_tuples: list[tuple[str, list[tuple]]] = []
    for symbol in schema:
        tuples = list(itertools.product(domain, repeat=symbol.arity))
        relation_tuples.append((symbol.name, tuples))

    def subsets(tuples: list[tuple]) -> Iterator[frozenset]:
        sizes: Iterable[int] = range(len(tuples) + 1)
        if max_facts_per_relation is not None:
            sizes = range(min(len(tuples), max_facts_per_relation) + 1)
        for size in sizes:
            for combo in itertools.combinations(tuples, size):
                yield frozenset(combo)

    streams = [subsets(tuples) for _, tuples in relation_tuples]
    names = [name for name, _ in relation_tuples]
    for choice in itertools.product(*streams):
        facts = dict(zip(names, choice))
        yield Structure(schema, facts, interpretations, domain)


def random_structures(
    schema: Schema,
    domain_size: int,
    density: float = 0.3,
    count: int = 100,
    seed: int = 0,
    constants: dict[str, int] | None = None,
    nontrivial_constants: bool = False,
) -> Iterator[Structure]:
    """A reproducible stream of random structures.

    Every possible tuple of every relation is included independently with
    probability ``density``.
    """
    rng = random.Random(seed)
    domain = tuple(range(domain_size))
    interpretations = dict(constants or {})
    if nontrivial_constants:
        if domain_size < 2:
            raise ValueError("non-trivial structures need at least 2 elements")
        interpretations.setdefault(SPADE, 0)
        interpretations.setdefault(HEART, 1)
    for _ in range(count):
        facts: dict[str, set[tuple]] = {}
        for symbol in schema:
            bucket = {
                values
                for values in itertools.product(domain, repeat=symbol.arity)
                if rng.random() < density
            }
            if bucket:
                facts[symbol.name] = bucket
        yield Structure(schema, facts, interpretations, domain)


def amplified(
    bases: Iterable[Structure],
    powers: Sequence[int] = (1, 2),
    blowups: Sequence[int] = (1, 2),
) -> Iterator[Structure]:
    """Each base structure, amplified through ``D^{×k}`` and ``blowup``.

    Lemma 22 makes these families the natural "stress tests" for candidate
    containments: violations that are invisible at unit scale often
    separate after amplification (this is exactly how Lemma 23's proof
    manufactures its witness).
    """
    for base in bases:
        for k in powers:
            boosted = power(base, k) if k > 1 else base
            for factor in blowups:
                if k > 1 or factor > 1:
                    obs_metrics.add("search.amplifier_expansions")
                yield blowup(boosted, factor) if factor > 1 else boosted


class SearchOutcome(Value):
    """Result of a bounded counterexample search."""

    __slots__ = ("counterexample", "checked", "lhs", "rhs")
    _defaults = {"lhs": None, "rhs": None}

    counterexample: Structure | None
    checked: int
    lhs: int | None
    rhs: int | None

    @property
    def found(self) -> bool:
        return self.counterexample is not None


def _set_semantics_prescreen(
    phi_s,
    phi_b,
    multiplier: int,
    additive: int,
    engine: str,
    current,
) -> SearchOutcome | None:
    """A finished refutation from set-semantics containment, if one applies.

    Set containment is *necessary* for bag containment: ``φ_s`` counts
    ``≥ 1`` on its own canonical database, so if no homomorphism maps
    ``φ_b`` into it, that database already violates
    ``multiplier·φ_s(D) ≤ φ_b(D) + additive`` whenever ``multiplier ≥ 1``
    and ``additive ≤ 0``.  Only that sound regime is screened — plain
    inequality-free CQs whose ``φ_b`` constants ``canonical(φ_s)``
    interprets — and a positive set-containment verdict proves nothing,
    so the stream search proceeds as before.
    """
    if not isinstance(phi_s, ConjunctiveQuery) or not isinstance(
        phi_b, ConjunctiveQuery
    ):
        return None
    if phi_s.has_inequalities() or phi_b.has_inequalities():
        return None
    if multiplier < 1 or additive > 0:
        return None
    if not phi_b.constants <= phi_s.constants:
        return None
    from repro.containment_set import cq_containment, default_containment_cache

    try:
        verdict = cq_containment(
            phi_s,
            phi_b,
            engine=engine,
            cache=default_containment_cache(),
            want_witness=False,
        )
    except DeadlineExpired:
        raise
    except BagCQError:
        # Whatever the library objects to (an unknown engine name, say),
        # the stream search will object to identically — or not at all,
        # when the stream is empty.  Either way the prescreen must not
        # change which error the caller sees.
        return None
    if verdict.contained:
        obs_metrics.add("contain.prescreen.misses")
        return None
    obs_metrics.add("contain.prescreen.hits")
    certificate = verdict.certificate
    current.set(outcome="prescreen_counterexample")
    return SearchOutcome(
        counterexample=certificate.structure,
        checked=0,
        lhs=multiplier * certificate.lhs,
        rhs=certificate.rhs + additive,
    )


def find_counterexample(
    phi_s,
    phi_b,
    candidates: Iterable[Structure],
    multiplier: int = 1,
    additive: int = 0,
    predicate: Callable[[Structure], bool] | None = None,
    max_candidates: int | None = None,
    engine: str = "auto",
    workers: int = 1,
    batch_size: int | None = None,
    cache: CountCache | bool | None = None,
    set_prescreen: bool = True,
) -> SearchOutcome:
    """Search ``candidates`` for ``multiplier·φ_s(D) > φ_b(D) + additive``.

    ``predicate`` pre-filters candidates (e.g. ``Structure.is_nontrivial``
    for the Theorem 1/3 shape).  Stops at the first hit; raises
    :class:`~repro.errors.SearchBudgetExceeded` if ``max_candidates`` is
    exhausted while candidates remain.

    ``engine`` defaults to ``"auto"``: every component of both queries is
    routed through the :mod:`repro.planner` cost model, so acyclic and
    low-treewidth query shapes (the paper's gadget families) run on their
    specialized engines instead of exponential backtracking.  The verdict
    is engine-independent — all engines count exactly — so this is purely
    a throughput knob; pass an explicit engine name to force one.

    Setting ``workers > 1``, an explicit ``batch_size``, or a ``cache``
    switches to *batched* checking: each generation of candidates is
    evaluated as one :func:`repro.homomorphism.batch.count_many` call
    (both queries on every candidate), with a canonicalization-keyed
    :class:`~repro.homomorphism.cache.CountCache` shared across the whole
    search (``cache=None`` creates one; ``False`` disables reuse; a
    :class:`CountCache` is used as-is).  The verdict — which candidate is
    reported, the lhs/rhs counts, and the budget semantics — is identical
    to the serial path; a batch may merely evaluate a few candidates past
    the first hit before it is noticed.

    With ``set_prescreen`` (the default) the search is fronted by the
    sound set-semantics screen of :mod:`repro.containment_set`: when both
    queries are plain inequality-free CQs, ``multiplier ≥ 1``,
    ``additive ≤ 0``, and no predicate restricts the candidate class, a
    failed Chandra–Merlin test finishes the search immediately —
    ``canonical(φ_s)`` is returned as the counterexample with
    ``checked == 0``, before any candidate is evaluated.  The screen only
    ever *adds* refutations the stream might have missed; it never flips
    a verdict the stream could reach (a found violation stays a
    violation).  Callers whose contract is "this exact sample was swept"
    — :func:`repro.decision.bounded.verify_bounded` — pass
    ``set_prescreen=False``.

    Under an active :func:`repro.obs.observe` scope the search records a
    ``search.find_counterexample`` span plus ``search.*`` counters:
    structures enumerated / skipped-by-predicate / evaluated, query
    evaluations, batch flushes, and — on budget exhaustion — the budget
    consumed at failure.  Prescreen outcomes surface as
    ``contain.prescreen.hits`` / ``contain.prescreen.misses``.
    """
    registry = obs_metrics.active_registry()
    batched = workers > 1 or batch_size is not None or cache is not None
    counters = {"enumerated": 0, "skipped": 0, "checked": 0}

    def _flush_counters() -> None:
        if registry is not None:
            registry.counter("search.structures_enumerated").inc(
                counters["enumerated"]
            )
            registry.counter("search.structures_skipped").inc(counters["skipped"])
            registry.counter("search.structures_evaluated").inc(counters["checked"])
            registry.counter("search.evaluations").inc(2 * counters["checked"])

    with span(
        "search.find_counterexample", multiplier=multiplier, additive=additive
    ) as current:
        if set_prescreen and predicate is None:
            prescreened = _set_semantics_prescreen(
                phi_s, phi_b, multiplier, additive, engine, current
            )
            if prescreened is not None:
                return prescreened
        try:
            if batched:
                return _find_counterexample_batched(
                    phi_s,
                    phi_b,
                    candidates,
                    multiplier,
                    additive,
                    predicate,
                    max_candidates,
                    engine,
                    workers,
                    batch_size,
                    cache,
                    current,
                    registry,
                    counters,
                )
            for structure in candidates:
                check()
                counters["enumerated"] += 1
                checked = counters["checked"]
                if max_candidates is not None and checked >= max_candidates:
                    if registry is not None:
                        registry.gauge("search.budget_at_failure").set(checked)
                    current.set(outcome="budget_exceeded", budget_consumed=checked)
                    raise SearchBudgetExceeded(
                        f"stopped after {checked} candidates without a verdict"
                    )
                if predicate is not None and not predicate(structure):
                    counters["skipped"] += 1
                    continue
                counters["checked"] = checked = checked + 1
                lhs = multiplier * count(phi_s, structure, engine=engine)
                rhs = count(phi_b, structure, engine=engine) + additive
                if lhs > rhs:
                    current.set(outcome="counterexample", checked=checked)
                    return SearchOutcome(
                        counterexample=structure, checked=checked, lhs=lhs, rhs=rhs
                    )
            current.set(outcome="exhausted", checked=counters["checked"])
            return SearchOutcome(counterexample=None, checked=counters["checked"])
        finally:
            _flush_counters()


def _find_counterexample_batched(
    phi_s,
    phi_b,
    candidates: Iterable[Structure],
    multiplier: int,
    additive: int,
    predicate: Callable[[Structure], bool] | None,
    max_candidates: int | None,
    engine: str,
    workers: int,
    batch_size: int | None,
    cache: CountCache | bool | None,
    current,
    registry,
    counters: dict,
) -> SearchOutcome:
    """Batched candidate checking behind :func:`find_counterexample`.

    Candidates accumulate into generations of ``batch_size`` (default
    ``max(16, 4·workers)``), each checked as one ``count_many`` batch.
    Violations are reported in enumeration order, so the outcome matches
    the serial path bit for bit.
    """
    effective_batch = batch_size if batch_size is not None else max(16, 4 * workers)
    if effective_batch < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    search_cache = CountCache() if cache is None else cache
    pending: list[Structure] = []

    def flush() -> SearchOutcome | None:
        if not pending:
            return None
        if registry is not None:
            registry.counter("search.batches").inc()
        pairs = []
        for structure in pending:
            pairs.append((phi_s, structure))
            pairs.append((phi_b, structure))
        values = count_many(
            pairs, engine=engine, workers=workers, cache=search_cache
        )
        for index, structure in enumerate(pending):
            counters["checked"] += 1
            lhs = multiplier * values[2 * index]
            rhs = values[2 * index + 1] + additive
            if lhs > rhs:
                current.set(outcome="counterexample", checked=counters["checked"])
                return SearchOutcome(
                    counterexample=structure,
                    checked=counters["checked"],
                    lhs=lhs,
                    rhs=rhs,
                )
        pending.clear()
        return None

    for structure in candidates:
        check()
        counters["enumerated"] += 1
        if (
            max_candidates is not None
            and counters["checked"] + len(pending) >= max_candidates
        ):
            hit = flush()
            if hit is not None:
                return hit
            if counters["checked"] >= max_candidates:
                if registry is not None:
                    registry.gauge("search.budget_at_failure").set(
                        counters["checked"]
                    )
                current.set(
                    outcome="budget_exceeded",
                    budget_consumed=counters["checked"],
                )
                raise SearchBudgetExceeded(
                    f"stopped after {counters['checked']} candidates "
                    "without a verdict"
                )
        if predicate is not None and not predicate(structure):
            counters["skipped"] += 1
            continue
        pending.append(structure)
        if len(pending) >= effective_batch:
            hit = flush()
            if hit is not None:
                return hit
    hit = flush()
    if hit is not None:
        return hit
    current.set(outcome="exhausted", checked=counters["checked"])
    return SearchOutcome(counterexample=None, checked=counters["checked"])
