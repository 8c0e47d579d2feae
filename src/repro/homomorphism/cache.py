"""A canonicalization-keyed LRU cache for component counts.

The reductions of Section 4 emit factorized queries whose connected
components repeat massively — ``φ ↑ k`` alone produces ``k`` copies of the
same component differing only in variable names — and every
lemma-certification or counterexample-search loop re-counts them on the
same structures.  Since ``φ(D)`` is invariant under bijective renaming of
``φ``'s variables, all those copies can share one evaluation.

:func:`canonical_component` renames a (connected-component) query into a
canonical form: α-equivalent components — equal up to a variable
renaming — map to the *same* canonical query, which then keys the cache.
The form is computed once per query object and memoized on it.
The renaming is computed with the 1-WL color refinement of
:func:`repro.relational.isomorphism.refine_colors` extended to query
components (variables are colored by their atom/inequality incidence;
constants stay fixed, as homomorphisms fix them).

Soundness does not depend on the canonicalization being *complete*: a key
is the full canonically-renamed query, so two components share a key only
when their renamed forms are literally equal — and a bijective renaming
never changes a count.  An imperfect tie-break merely costs cache hits,
never correctness.

:class:`CountCache` is the bounded LRU that stores the results, shared
within a :func:`repro.homomorphism.batch.count_many` batch and reusable
across calls when passed explicitly.  Hits/misses/evictions are mirrored
into the active :mod:`repro.obs` registry as ``cache.*`` counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Mapping

from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Term, Variable
from repro.relational.isomorphism import refine_colors
from repro.relational.structure import Structure

__all__ = [
    "CountCache",
    "canonical_component",
    "component_cache_key",
    "component_fingerprint",
    "key_depends_on_domain",
    "key_relations",
]

#: Default bound on cached component counts (entries, not bytes).
DEFAULT_CACHE_SIZE = 4096

#: Tag marking the structure part of a cache key as a dependency
#: fingerprint (lets invalidation recognize its own key shape).
_FP_TAG = "§fp"

#: Marker for a constant the structure does not interpret (evaluating such
#: a component raises, and errors are never cached, but the key must still
#: be well-defined and distinct from every real interpretation).
_MISSING = ("§missing",)


#: The canonical variables ``_c0, _c1, …`` by number, shared by every
#: canonical form.  Filled with ``dict.setdefault``, which is atomic, so
#: concurrent canonicalizations agree on one object per number.
_CANONICAL_VARIABLES: dict[int, Variable] = {}


def _canonical_variable(number: int) -> Variable:
    variable = _CANONICAL_VARIABLES.get(number)
    if variable is None:
        variable = _CANONICAL_VARIABLES.setdefault(
            number, Variable(f"_c{number}")
        )
    return variable


def _term_code(term: Term, colors: Mapping[Variable, Hashable]):
    """A rename-invariant rendering of one term under the current colors."""
    if isinstance(term, Variable):
        return colors[term]
    return ("const", term.name)


def canonical_component(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The query with variables renamed to a canonical ``_c0, _c1, …``.

    α-equivalent queries (equal up to bijective variable renaming, with
    atoms in corresponding order) produce identical results; constants are
    never renamed.  The output is a plain :class:`ConjunctiveQuery`, so it
    is hashable and compares by its atom/inequality sets — exactly what a
    cache key needs.

    Memoized on the query object: the request key, the planner's profile
    and artifact lookups and the count-cache key all canonicalize the
    same object, and only the first of them pays the 1-WL refinement.
    """
    canonical = query._canonical
    if canonical is None:
        canonical = _canonicalize(query)
        if canonical is not query:  # a ground query is its own form
            query._canonical = canonical
    return canonical


def _canonicalize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    variables = query.variables
    if not variables:
        return query

    occurrences: dict[Variable, list] = {v: [] for v in variables}
    for atom in query.atoms:
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                occurrences[term].append((atom, position))
    neighbors: dict[Variable, list[Term]] = {v: [] for v in variables}
    for inequality in query.inequalities:
        left, right = inequality.left, inequality.right
        if isinstance(left, Variable):
            neighbors[left].append(right)
        if isinstance(right, Variable):
            neighbors[right].append(left)

    def signature(variable: Variable, colors: Mapping[Variable, Hashable]):
        atom_part = tuple(
            sorted(
                (
                    (
                        atom.relation,
                        position,
                        tuple(_term_code(t, colors) for t in atom.terms),
                    )
                    for atom, position in occurrences[variable]
                ),
                key=repr,
            )
        )
        ineq_part = tuple(
            sorted(
                (_term_code(other, colors) for other in neighbors[variable]),
                key=repr,
            )
        )
        return (atom_part, ineq_part)

    initial = {
        variable: tuple(
            sorted(
                (atom.relation, position, atom.arity)
                for atom, position in occurrences[variable]
            )
        )
        for variable in variables
    }
    colors = refine_colors(initial, signature)

    # Canonical numbering: scan atoms (then inequalities) in the order of
    # their rename-invariant renderings and number variables on first
    # sight.  Ties between identically-rendered atoms fall back to the
    # query's stored order, which corresponds across renamed copies.
    sorted_atoms = sorted(
        query.atoms,
        key=lambda atom: repr(
            (atom.relation, tuple(_term_code(t, colors) for t in atom.terms))
        ),
    )
    sorted_inequalities = sorted(
        query.inequalities,
        key=lambda ineq: repr(
            (_term_code(ineq.left, colors), _term_code(ineq.right, colors))
        ),
    )
    mapping: dict[Variable, Variable] = {}
    for atom in sorted_atoms:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in mapping:
                mapping[term] = _canonical_variable(len(mapping))
    for inequality in sorted_inequalities:
        for term in (inequality.left, inequality.right):
            if isinstance(term, Variable) and term not in mapping:
                mapping[term] = _canonical_variable(len(mapping))
    return query.rename(mapping)


def component_fingerprint(
    component: ConjunctiveQuery, structure: Structure
) -> tuple:
    """The part of ``structure`` a component's count can depend on.

    ``count(component, structure)`` is fully determined by

    * the fact sets of the relations named by the component's atoms
      (captured as their content fingerprints; a relation missing from the
      schema is recorded as ``None`` — evaluation raises, and errors are
      never cached, so the marker only has to be distinct);
    * the interpretations of the constants the component mentions;
    * ``len(structure.domain)``, but *only* when some variable occurs in
      no atom (such variables range over the whole domain; inequalities
      compare them against values that are themselves domain members, so
      only the domain's size matters, never its identity).

    Keying cache entries by this instead of the whole structure makes
    entries survive every mutation that provably cannot change the count —
    relation-scoped invalidation falls out of the key itself.
    """
    relations = sorted({atom.relation for atom in component.atoms})
    rel_part = tuple(
        (
            name,
            structure.relation_fingerprint(name)
            if name in structure.schema
            else None,
        )
        for name in relations
    )
    const_part = tuple(
        (
            name,
            structure.constants[name]
            if structure.interprets(name)
            else _MISSING,
        )
        for name in sorted(c.name for c in component.constants)
    )
    atom_variables = {
        term
        for atom in component.atoms
        for term in atom.terms
        if isinstance(term, Variable)
    }
    dom_part = (
        len(structure.domain)
        if component.variables - atom_variables
        else None
    )
    return (_FP_TAG, rel_part, const_part, dom_part)


def component_cache_key(
    component: ConjunctiveQuery, structure: Structure, engine: str
) -> tuple:
    """The cache key of one ``(component, structure, engine)`` evaluation.

    The structure enters through :func:`component_fingerprint`: only the
    relations, constants and (when relevant) domain size the component can
    actually see.  The engine is part of the key on purpose: all engines
    agree on the value, but keeping them apart means a differential run
    never reads a number another engine computed.
    """
    return (
        canonical_component(component),
        component_fingerprint(component, structure),
        engine,
    )


def key_relations(key) -> frozenset[str] | None:
    """The relation names a :func:`component_cache_key` depends on.

    Returns ``None`` for keys of an unrecognized shape (foreign keys must
    be treated as depending on *everything* by relation-scoped
    invalidation).
    """
    if (
        isinstance(key, tuple)
        and len(key) == 3
        and isinstance(key[1], tuple)
        and len(key[1]) == 4
        and key[1][0] == _FP_TAG
    ):
        return frozenset(name for name, _ in key[1][1])
    return None


def key_depends_on_domain(key) -> bool:
    """True when a recognized key's count depends on the domain size."""
    if (
        isinstance(key, tuple)
        and len(key) == 3
        and isinstance(key[1], tuple)
        and len(key[1]) == 4
        and key[1][0] == _FP_TAG
    ):
        return key[1][3] is not None
    return True


class CountCache:
    """A bounded, thread-safe LRU map from cache keys to exact counts.

    >>> cache = CountCache(max_entries=2)
    >>> cache.store("a", 1); cache.store("b", 2); cache.store("c", 3)
    >>> cache.lookup("a") is None  # evicted, capacity 2
    True
    >>> cache.lookup("c")
    3
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise ValueError(f"cache needs max_entries >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._durable = None

    def attach_durable(self, durable) -> None:
        """Mirror this cache into a durable tier.

        ``durable`` (a :class:`repro.shard.persist.DurableCacheStore`)
        receives ``record_count(key, value)`` after every store and
        ``invalidate_relations(...)`` alongside every relation-scoped
        eviction, both *outside* this cache's lock — the hot path never
        blocks on disk I/O held under the lock.  Attaching replaces any
        previous tier; ``None`` detaches.
        """
        self._durable = durable

    def lookup(self, key) -> int | None:
        """The cached count, or ``None`` (counts are ints, never ``None``)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                obs_metrics.add("cache.hits")
                return self._entries[key]
            self._misses += 1
            obs_metrics.add("cache.misses")
            return None

    def note_reuse(self) -> None:
        """Record a hit that bypassed :meth:`lookup`.

        The batch evaluator deduplicates identical keys *within* one batch
        before their shared evaluation has finished; those reuses are hits
        in every sense that matters for the hit-rate report.
        """
        with self._lock:
            self._hits += 1
        obs_metrics.add("cache.hits")

    def store(self, key, value: int) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            else:
                # Evict before inserting, so the cache never holds more
                # than max_entries, not even for a moment.
                while len(self._entries) >= self._max_entries:
                    self._entries.popitem(last=False)
                    self._evictions += 1
                    obs_metrics.add("cache.evictions")
            self._entries[key] = value
        if self._durable is not None:
            # Capacity evictions above do NOT touch the durable tier:
            # disk is the bigger cache, and a re-evicted entry restoring
            # from it is the point.  Only invalidation deletes files.
            self._durable.record_count(key, value)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def items(self) -> list[tuple]:
        """A point-in-time ``(key, value)`` snapshot (LRU order, coldest
        first).  Used by delta evaluation to migrate entries across
        database versions."""
        with self._lock:
            return list(self._entries.items())

    def discard(self, key) -> bool:
        """Drop one entry; True when it was present.  Not counted as an
        eviction (evictions measure capacity pressure, not invalidation)."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def invalidate_relations(
        self, relations, *, domain_changed: bool = False
    ) -> int:
        """Evict every entry whose key depends on one of ``relations``.

        Relation-scoped invalidation: an entry is dropped iff the relation
        names in its fingerprint intersect ``relations``, or (with
        ``domain_changed``) its count depends on the domain size.  Keys of
        an unrecognized shape are dropped conservatively.  Returns the
        number of entries evicted and mirrors it into the
        ``cache.invalidations`` counter.
        """
        touched = frozenset(relations)
        dropped = 0
        with self._lock:
            for key in list(self._entries):
                depends = key_relations(key)
                if depends is None:
                    affected = True
                else:
                    affected = bool(depends & touched) or (
                        domain_changed and key_depends_on_domain(key)
                    )
                if affected:
                    del self._entries[key]
                    dropped += 1
        if dropped:
            obs_metrics.add("cache.invalidations", dropped)
        if self._durable is not None:
            # Unconditional (not gated on ``dropped``): the durable tier
            # can hold entries this process never loaded, and they are
            # just as stale after the mutation.
            self._durable.invalidate_relations(
                relations, domain_changed=domain_changed
            )
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def hit_rate(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def stats(self) -> dict:
        """A plain-data snapshot for reports and tests."""
        return {
            "entries": len(self._entries),
            "max_entries": self._max_entries,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"CountCache(entries={len(self._entries)}/{self._max_entries}, "
            f"hits={self._hits}, misses={self._misses})"
        )
