"""A canonicalization-keyed LRU cache for set-containment verdicts.

Containment questions repeat just as component counts do: the search
prescreen asks about the same ``(φ_s, φ_b)`` shape for every candidate
stream, the UCQ all/any reduction re-tests identical CQ pairs across
unions, and the service coalesces α-equivalent requests.  Since the
Chandra–Merlin verdict is invariant under bijective variable renaming of
*either* side, a pair is keyed by the
:func:`~repro.homomorphism.cache.canonical_component` forms of both
queries — the same discipline that keys the
:class:`~repro.homomorphism.cache.CountCache` and the planner's
:class:`~repro.planner.analyze.PlanCache`.

Only the α-invariant part of a verdict is cached: the boolean and the
count ``φ_s(canonical(φ_s))`` that prices the absence certificate.
Witness homomorphisms name the original variables, so they are
recomputed per call (a deterministic first-homomorphism enumeration —
cheap once the verdict is known positive).

Hits/misses/evictions are mirrored into the active :mod:`repro.obs`
registry as ``contain.cache.*`` counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.homomorphism.cache import canonical_component
from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery

__all__ = [
    "ContainmentCache",
    "containment_cache_key",
    "default_containment_cache",
]

#: Default bound on cached verdicts (entries, not bytes).
DEFAULT_CONTAINMENT_CACHE_SIZE = 2048


def containment_cache_key(
    phi_s: ConjunctiveQuery, phi_b: ConjunctiveQuery, engine: str
) -> tuple:
    """The cache key of one ``φ_s ⊆ φ_b`` question under ``engine``.

    Both sides travel canonically renamed, so α-equivalent pairs share
    an entry.  The engine is part of the key on purpose — all engines
    agree on the verdict, but keeping them apart means a differential
    run never reads a verdict another engine computed.
    """
    return (canonical_component(phi_s), canonical_component(phi_b), engine)


class ContainmentCache:
    """A bounded, thread-safe LRU map from pair keys to verdicts.

    Entries are ``(contained, phi_s_count)`` tuples; ``phi_s_count`` is
    ``None`` for positive verdicts (the certificate price is only
    computed on refutation).

    >>> cache = ContainmentCache(max_entries=2)
    >>> cache.store("a", (True, None)); cache.store("b", (False, 1))
    >>> cache.store("c", (True, None))
    >>> cache.lookup("a") is None  # evicted, capacity 2
    True
    >>> cache.lookup("b")
    (False, 1)
    """

    def __init__(self, max_entries: int = DEFAULT_CONTAINMENT_CACHE_SIZE):
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
        """Mirror verdicts into a durable tier (see ``repro.shard``).

        ``durable`` receives ``record_containment(key, value)`` after
        every store and ``invalidate_containment_relations(...)`` on
        schema-level invalidation, both outside this cache's lock.
        Attaching replaces any previous tier; ``None`` detaches.
        """
        self._durable = durable

    def lookup(self, key) -> tuple[bool, int | None] | None:
        """The cached verdict tuple, or ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                obs_metrics.add("contain.cache.hits")
                return self._entries[key]
            self._misses += 1
            obs_metrics.add("contain.cache.misses")
            return None

    def store(self, key, value: tuple[bool, int | None]) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            else:
                # Evict before inserting (see CountCache.store).
                while len(self._entries) >= self._max_entries:
                    self._entries.popitem(last=False)
                    self._evictions += 1
                    obs_metrics.add("contain.cache.evictions")
            self._entries[key] = value
        if self._durable is not None:
            self._durable.record_containment(key, value)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def items(self) -> list[tuple]:
        """A point-in-time ``(key, value)`` snapshot (LRU order, coldest
        first) — what ``snapshot`` persists."""
        with self._lock:
            return list(self._entries.items())

    def invalidate_relations(self, relations) -> int:
        """Evict verdicts whose query pair mentions any of ``relations``.

        Containment verdicts depend only on the two queries — the
        Chandra–Merlin check evaluates ``φ_b`` on the canonical database
        *of ``φ_s``*, never on user data — so database deltas can never
        make an entry stale.  This hook exists for *schema-level* changes
        (redeclaring a relation's meaning or arity across a corpus), where
        relation-scoped eviction beats :meth:`clear`'s flush-the-world.
        Keys of an unrecognized shape are dropped conservatively.
        """
        touched = frozenset(relations)
        dropped = 0
        with self._lock:
            for key in list(self._entries):
                if (
                    isinstance(key, tuple)
                    and len(key) == 3
                    and isinstance(key[0], ConjunctiveQuery)
                    and isinstance(key[1], ConjunctiveQuery)
                ):
                    mentioned = {atom.relation for atom in key[0].atoms}
                    mentioned.update(atom.relation for atom in key[1].atoms)
                    affected = bool(mentioned & touched)
                else:
                    affected = True
                if affected:
                    del self._entries[key]
                    dropped += 1
        if dropped:
            obs_metrics.add("contain.cache.invalidations", dropped)
        if self._durable is not None:
            self._durable.invalidate_containment_relations(relations)
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
            f"ContainmentCache(entries={len(self._entries)}/{self._max_entries}, "
            f"hits={self._hits}, misses={self._misses})"
        )


_DEFAULT_CACHE = ContainmentCache()


def default_containment_cache() -> ContainmentCache:
    """The process-wide verdict cache (shared by the search prescreen)."""
    return _DEFAULT_CACHE
