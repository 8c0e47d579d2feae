"""Canonical component keys, and the one cache core every α-keyed store uses.

The reductions of Section 4 emit factorized queries whose connected
components repeat massively — ``φ ↑ k`` alone produces ``k`` copies of the
same component differing only in variable names — and every
lemma-certification or counterexample-search loop re-counts them on the
same structures.  Since ``φ(D)`` is invariant under bijective renaming of
``φ``'s variables, all those copies can share one evaluation.

:func:`canonical_component` renames a (connected-component) query into a
canonical form: α-equivalent components — equal up to a variable
renaming — map to the *same* canonical query.  The renaming is computed
with the 1-WL color refinement of
:func:`repro.relational.isomorphism.refine_colors` extended to query
components (variables are colored by their atom/inequality incidence;
constants stay fixed, as homomorphisms fix them).  :func:`component_key`
condenses the canonical form into a :class:`ComponentKey`: a 16-byte
digest plus the little that invalidation and delta migration read.  Both
are computed once per query object and memoized on it.

Soundness does not depend on the canonicalization being *complete*: two
components share a key only when their canonical forms render to the
same text — and a bijective renaming never changes a count.  An
imperfect tie-break merely costs cache hits, never correctness.

:class:`SegmentedLRU` is the bounded store behind the count cache, the
containment cache and the planner's profile and artifact stores: a
probation FIFO in front of a main LRU, one write-through hook and
relation-scoped invalidation.  :class:`CountCache` is its count-keyed
instance, shared within a :func:`repro.homomorphism.batch.count_many`
batch and reusable across calls when passed explicitly.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable, Hashable, Mapping

from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Term, Variable
from repro.relational.isomorphism import refine_colors
from repro.relational.structure import Structure, blake2b

__all__ = [
    "ComponentKey",
    "CountCache",
    "SegmentedLRU",
    "canonical_component",
    "component_cache_key",
    "component_fingerprint",
    "component_key",
    "key_scope",
]

#: Default bound on cached component counts (entries, not bytes).
DEFAULT_CACHE_SIZE = 4096

#: Length of the count cache's probation FIFO.  Every one of hot-repeat's
#: 76 distinct count keys, and each factor of a 12-factor read, reaches
#: its first reuse within 128 newer stores.
COUNT_PROBATION = 128

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
    never renamed.  The output is a plain :class:`ConjunctiveQuery`.

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


class ComponentKey:
    """The identity of a component's α-equivalence class, without the query.

    * ``digest`` — 16 bytes of blake2b over an unambiguous rendering of
      the canonical form that does not depend on atom order.  Equality
      and hashing read the digest only.
    * ``relations`` — the sorted relation names of the atoms, what
      relation-scoped invalidation reads.
    * ``pattern`` — ``(relation, terms)`` of the canonical atoms whose
      relation has *only* atoms that pin something (a constant or a
      variable repeated inside the atom), or ``None`` when no relation
      does.  Only such atoms let
      :func:`repro.homomorphism.delta.delta_affects` prove a changed fact
      unmatchable: an atom that pins nothing matches every fact of its
      relation.  So delta migration reads the pattern, and keys of every
      other component stay small.
    """

    __slots__ = ("digest", "relations", "pattern")

    def __init__(self, digest: bytes, relations: tuple, pattern=None) -> None:
        self.digest = digest
        self.relations = relations
        self.pattern = pattern

    def __eq__(self, other) -> bool:
        return isinstance(other, ComponentKey) and other.digest == self.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        return f"ComponentKey({self.digest.hex()}, {self.relations})"


def _tag(term: Term) -> tuple:
    return ("c" if isinstance(term, Constant) else "v", term.name)


def _pinned(terms: tuple) -> bool:
    """Does an atom with these terms reject some facts of its arity (it
    has a constant or repeats a variable)?"""
    return len({term for term in terms if isinstance(term, Variable)}) < len(
        terms
    )


def component_key(query: ConjunctiveQuery) -> ComponentKey:
    """The :class:`ComponentKey` of ``query``, memoized on the object."""
    key = query._key
    if key is None:
        canonical = canonical_component(query)
        rendered = sorted(
            (
                ((atom.relation, tuple(map(_tag, atom.terms))), atom)
                for atom in canonical.atoms
            ),
            key=lambda pair: pair[0],
        )
        inequalities = sorted(
            (_tag(ineq.left), _tag(ineq.right))
            for ineq in canonical.inequalities
        )
        text = repr(([rendering for rendering, _ in rendered], inequalities))
        open_relations = {
            atom.relation
            for atom in canonical.atoms
            if not _pinned(atom.terms)
        }
        pattern = tuple(
            (atom.relation, atom.terms)
            for _, atom in rendered
            if atom.relation not in open_relations
        )
        query._key = key = ComponentKey(
            blake2b(
                text.encode("utf-8", "backslashreplace"), digest_size=16
            ).digest(),
            tuple(
                sys.intern(name)
                for name in sorted({atom.relation for atom in canonical.atoms})
            ),
            pattern or None,
        )
    return key


def _fingerprint(
    relations, constants, free: bool, structure: Structure
) -> tuple:
    """``(relation fingerprints, constant interpretations, domain size)``."""
    schema = structure.schema
    return (
        tuple(
            structure.relation_fingerprint(name) if name in schema else None
            for name in relations
        ),
        tuple(
            (
                name,
                structure.constants[name]
                if structure.interprets(name)
                else _MISSING,
            )
            for name in constants
        ),
        len(structure.domain) if free else None,
    )


def component_fingerprint(
    component: ConjunctiveQuery, structure: Structure
) -> tuple:
    """The part of ``structure`` a component's count can depend on.

    ``count(component, structure)`` is fully determined by

    * the fact sets of the relations named by the component's atoms, in
      the order of its key's ``relations`` (captured as their content
      fingerprints; a relation missing from the schema is recorded as
      ``None`` — evaluation raises, and errors are never cached, so the
      marker only has to be distinct);
    * the interpretations of the constants the component mentions;
    * ``len(structure.domain)``, but *only* when some variable occurs in
      no atom (such variables range over the whole domain; inequalities
      compare them against values that are themselves domain members, so
      only the domain's size matters, never its identity).

    Keying cache entries by this instead of the whole structure makes
    entries survive every mutation that provably cannot change the count.
    """
    atom_variables = {
        term
        for atom in component.atoms
        for term in atom.terms
        if isinstance(term, Variable)
    }
    return _fingerprint(
        component_key(component).relations,
        sorted(constant.name for constant in component.constants),
        bool(component.variables - atom_variables),
        structure,
    )


def refingerprint(key: ComponentKey, fingerprint: tuple, structure) -> tuple:
    """``fingerprint`` of the same component, re-read on ``structure``."""
    return _fingerprint(
        key.relations,
        [name for name, _ in fingerprint[1]],
        fingerprint[2] is not None,
        structure,
    )


def component_cache_key(
    component: ConjunctiveQuery, structure: Structure, engine: str
) -> tuple:
    """The count-cache key of one ``(component, structure, engine)``.

    The structure enters through :func:`component_fingerprint`: only the
    relations, constants and (when relevant) domain size the component can
    actually see.  The engine is part of the key on purpose: all engines
    agree on the value, but keeping them apart means a differential run
    never reads a number another engine computed.
    """
    return (
        component_key(component),
        component_fingerprint(component, structure),
        engine,
    )


def key_scope(key) -> tuple[frozenset, bool] | None:
    """``(relations, depends on the domain size)`` of any store's key.

    Reads the four key shapes: a :class:`ComponentKey` (profiles), a pair
    of them plus an engine (containment verdicts), and one plus a
    fingerprint (artifacts), plus an engine (counts).  ``None`` for any
    other shape, which invalidation must treat as depending on
    everything.
    """
    if isinstance(key, ComponentKey):
        return frozenset(key.relations), False
    if not (isinstance(key, tuple) and key and isinstance(key[0], ComponentKey)):
        return None
    second = key[1] if len(key) > 1 else None
    if isinstance(second, ComponentKey):
        return frozenset(key[0].relations + second.relations), False
    if isinstance(second, tuple) and len(second) == 3:
        return frozenset(key[0].relations), second[2] is not None
    return None


def affected_by(
    relations, domain_changed: bool = False
) -> Callable[[tuple | None], bool]:
    """The invalidation predicate of a change to ``relations``, over
    :func:`key_scope` results: a scope is affected when it names a touched
    relation, or (with ``domain_changed``) depends on the domain size.
    Unknown scopes (``None``) are always affected."""
    touched = frozenset(relations)

    def affected(scope) -> bool:
        return (
            scope is None
            or not touched.isdisjoint(scope[0])
            or (domain_changed and scope[1])
        )

    return affected


def counter_names(prefix: str, promotions: str | None = None) -> tuple:
    """``(hits, misses, promotions, evictions, probation evictions,
    invalidations)`` counter names of one store."""
    return (
        prefix + "hits",
        prefix + "misses",
        promotions or prefix + "promotions",
        prefix + "evictions",
        prefix + "probation_evictions",
        prefix + "invalidations",
    )


class SegmentedLRU:
    """A bounded, thread-safe map: a probation FIFO in front of a main LRU.

    A new entry waits in the probation FIFO.  Reuse promotes it to the
    main LRU: a :meth:`lookup` hit (counted as a hit), :meth:`promote`,
    or a store with ``admit=True`` (a delta refresh, a restore).  The FIFO
    holds at most ``probation`` entries — a newcomer pushes out the
    oldest, which leaves unreused — so one-shot entries cannot pile up.
    Both segments together hold at most ``max_entries``.  When a newcomer
    overflows them, the oldest probation entry leaves while the probation
    holds more than ``min(probation, max_entries // 2)`` entries (and
    more than the newcomer); otherwise the main LRU gives up its least
    recently used entry.  ``probation=0`` makes a plain LRU.

    ``counters`` (see :func:`counter_names`) are mirrored into the active
    :mod:`repro.obs` registry; ``evictions`` counts every capacity drop,
    from either segment, ``probation_evictions`` the part that left
    probation unreused.  With a ``tier``, every store writes through to
    an attached durable store (``record(tier, key, value)``) and every
    invalidation reaches it (``invalidate(tier, affected)``), both
    outside the lock.  Capacity drops never touch the durable tier: disk
    is the bigger cache.

    >>> cache = SegmentedLRU(2, probation=2, counters=counter_names("demo."))
    >>> cache.store("a", 1); cache.store("b", 2); cache.store("c", 3)
    >>> cache.lookup("a") is None  # evicted, capacity 2
    True
    >>> cache.lookup("c")
    3
    """

    def __init__(
        self,
        max_entries: int,
        probation: int,
        counters: tuple,
        tier: str | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"cache needs max_entries >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._probation_cap = probation
        self._probation_floor = max(1, min(probation, max_entries // 2))
        self._main: OrderedDict = OrderedDict()
        self._probation: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._names = counters
        self._tier = tier
        self._durable = None
        self._hits = 0
        self._misses = 0
        self._promotions = 0
        self._evictions = 0

    def attach_durable(self, durable) -> None:
        """Mirror this store into a durable tier; ``None`` detaches."""
        self._durable = durable

    def lookup(self, key):
        """The cached value, or ``None`` (values are never ``None``)."""
        with self._lock:
            value = self._main.get(key)
            if value is not None:
                self._main.move_to_end(key)
            else:
                value = self._probation.pop(key, None)
                if value is not None:
                    self._main[key] = value
                    self._promotions += 1
                    obs_metrics.add(self._names[2])
            if value is None:
                self._misses += 1
                obs_metrics.add(self._names[1])
            else:
                self._hits += 1
                obs_metrics.add(self._names[0])
            return value

    def note_reuse(self) -> None:
        """Record a hit that bypassed :meth:`lookup`.

        The batch evaluator deduplicates identical keys *within* one batch
        before their shared evaluation has finished; those reuses are hits
        in every sense that matters for the hit-rate report.
        """
        with self._lock:
            self._hits += 1
        obs_metrics.add(self._names[0])

    def store(self, key, value, *, admit: bool = False) -> None:
        """Insert or replace ``key``; ``admit`` skips probation."""
        with self._lock:
            main, probation = self._main, self._probation
            if key in main:
                main[key] = value
                main.move_to_end(key)
            elif key in probation and not admit:
                probation[key] = value
            else:
                if admit or not self._probation_cap:
                    probation.pop(key, None)
                    main[key] = value
                else:
                    probation[key] = value
                self._evict()
        if self._durable is not None and self._tier is not None:
            self._durable.record(self._tier, key, value)

    def _evict(self) -> None:
        """Restore both bounds after an insert (lock held)."""
        main, probation = self._main, self._probation
        left_probation = 0
        while len(probation) > self._probation_cap:
            probation.popitem(last=False)
            left_probation += 1
        evicted = left_probation
        while len(main) + len(probation) > self._max_entries:
            if len(probation) > self._probation_floor:
                probation.popitem(last=False)
                left_probation += 1
            else:
                main.popitem(last=False)
            evicted += 1
        if evicted:
            self._evictions += evicted
            obs_metrics.add(self._names[3], evicted)
            if left_probation:
                obs_metrics.add(self._names[4], left_probation)

    def promote(self, key) -> bool:
        """Move a probation entry to the main LRU; True when it moved."""
        with self._lock:
            value = self._probation.pop(key, None)
            if value is None:
                return False
            self._main[key] = value
            self._promotions += 1
        obs_metrics.add(self._names[2])
        return True

    def discard(self, key) -> bool:
        """Drop one entry; True when it was present.  Not an eviction."""
        with self._lock:
            dropped = self._main.pop(key, None) is not None
            return self._probation.pop(key, None) is not None or dropped

    def discard_probation(self, value) -> bool:
        """Drop the probation entry whose value *is* ``value``; True when
        dropped.  A reused entry has moved to the main LRU and stays."""
        with self._lock:
            for key, entry in self._probation.items():
                if entry is value:
                    del self._probation[key]
                    return True
        return False

    def items(self) -> list[tuple]:
        """A point-in-time ``(key, value)`` snapshot of both segments,
        main LRU (coldest first), then probation (oldest first)."""
        with self._lock:
            return [*self._main.items(), *self._probation.items()]

    def invalidate(self, affected: Callable[[tuple | None], bool]) -> int:
        """Drop every entry whose :func:`key_scope` is ``affected``.

        Returns the number dropped and mirrors it into the invalidations
        counter.  The durable tier is told unconditionally: it can hold
        entries this process never loaded.
        """
        dropped = 0
        with self._lock:
            for segment in (self._main, self._probation):
                for key in [k for k in segment if affected(key_scope(k))]:
                    del segment[key]
                    dropped += 1
        if dropped:
            obs_metrics.add(self._names[5], dropped)
        if self._durable is not None and self._tier is not None:
            self._durable.invalidate(self._tier, affected)
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._main.clear()
            self._probation.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._main) + len(self._probation)

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
        """A plain-data snapshot for ``/healthz``, reports and tests.

        ``entries`` counts both segments; ``probation`` the entries still
        waiting for their first reuse.
        """
        with self._lock:
            return {
                "entries": len(self._main) + len(self._probation),
                "probation": len(self._probation),
                "max_entries": self._max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "promotions": self._promotions,
                "evictions": self._evictions,
                "hit_rate": self.hit_rate,
            }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self)}/{self._max_entries}, "
            f"hits={self._hits}, misses={self._misses})"
        )


class CountCache(SegmentedLRU):
    """The count store: :func:`component_cache_key` keys → exact counts.

    A :class:`SegmentedLRU` with a :data:`COUNT_PROBATION`-entry
    probation, ``cache.*`` counters and the durable ``counts`` tier.

    >>> cache = CountCache(max_entries=2)
    >>> cache.store("a", 1); cache.store("b", 2); cache.store("c", 3)
    >>> cache.lookup("a") is None  # evicted, capacity 2
    True
    >>> cache.lookup("c")
    3
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(
            max_entries, COUNT_PROBATION, counter_names("cache."), "counts"
        )

    def invalidate_relations(
        self, relations, *, domain_changed: bool = False
    ) -> int:
        """Evict every entry whose count depends on one of ``relations``
        (or, with ``domain_changed``, on the domain size); keys of an
        unrecognized shape are dropped conservatively.  Counted as
        ``cache.invalidations``."""
        return self.invalidate(affected_by(relations, domain_changed))
