"""A canonicalization-keyed store for set-containment verdicts.

Containment questions repeat just as component counts do: the search
prescreen asks about the same ``(φ_s, φ_b)`` shape for every candidate
stream, the UCQ all/any reduction re-tests identical CQ pairs across
unions, and the service coalesces α-equivalent requests.  Since the
Chandra–Merlin verdict is invariant under bijective variable renaming of
*either* side, a pair is keyed by the
:func:`~repro.homomorphism.cache.component_key` of both queries — the
same discipline that keys the
:class:`~repro.homomorphism.cache.CountCache` and the planner's
:class:`~repro.planner.analyze.PlanCache`.

Only the α-invariant part of a verdict is cached: the boolean and the
count ``φ_s(canonical(φ_s))`` that prices the absence certificate.
Witness homomorphisms name the original variables, so they are
recomputed per call (a deterministic first-homomorphism enumeration —
cheap once the verdict is known positive).
"""

from __future__ import annotations

from repro.homomorphism.cache import (
    SegmentedLRU,
    affected_by,
    component_key,
    counter_names,
)
from repro.queries.cq import ConjunctiveQuery

__all__ = [
    "ContainmentCache",
    "containment_cache_key",
    "default_containment_cache",
]

#: Default bound on cached verdicts (entries, not bytes).
DEFAULT_CONTAINMENT_CACHE_SIZE = 2048

#: Length of the verdict store's probation FIFO (see
#: :class:`~repro.homomorphism.cache.SegmentedLRU`).
CONTAINMENT_PROBATION = 128


def containment_cache_key(
    phi_s: ConjunctiveQuery, phi_b: ConjunctiveQuery, engine: str
) -> tuple:
    """The cache key of one ``φ_s ⊆ φ_b`` question under ``engine``.

    Both sides travel as their component keys, so α-equivalent pairs
    share an entry.  The engine is part of the key on purpose — all
    engines agree on the verdict, but keeping them apart means a
    differential run never reads a verdict another engine computed.
    """
    return (component_key(phi_s), component_key(phi_b), engine)


class ContainmentCache(SegmentedLRU):
    """The verdict store: pair keys → ``(contained, phi_s_count)``.

    ``phi_s_count`` is ``None`` for positive verdicts (the certificate
    price is only computed on refutation).  A
    :class:`~repro.homomorphism.cache.SegmentedLRU` with a
    :data:`CONTAINMENT_PROBATION`-entry probation, ``contain.cache.*``
    counters and the durable ``containment`` tier.

    >>> cache = ContainmentCache(max_entries=2)
    >>> cache.store("a", (True, None)); cache.store("b", (False, 1))
    >>> cache.store("c", (True, None))
    >>> cache.lookup("a") is None  # evicted, capacity 2
    True
    >>> cache.lookup("b")
    (False, 1)
    """

    def __init__(self, max_entries: int = DEFAULT_CONTAINMENT_CACHE_SIZE):
        super().__init__(
            max_entries,
            CONTAINMENT_PROBATION,
            counter_names("contain.cache."),
            "containment",
        )

    def invalidate_relations(self, relations) -> int:
        """Evict verdicts whose query pair mentions any of ``relations``.

        Containment verdicts depend only on the two queries — the
        Chandra–Merlin check evaluates ``φ_b`` on the canonical database
        *of ``φ_s``*, never on user data — so database deltas can never
        make an entry stale.  This hook exists for *schema-level* changes
        (redeclaring a relation's meaning or arity across a corpus), where
        relation-scoped eviction beats :meth:`clear`'s flush-the-world.
        """
        return self.invalidate(affected_by(relations))


_DEFAULT_CACHE = ContainmentCache()


def default_containment_cache() -> ContainmentCache:
    """The process-wide verdict cache (shared by the search prescreen)."""
    return _DEFAULT_CACHE
