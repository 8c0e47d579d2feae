"""Structural analysis of connected query components.

The planner's decisions rest on a handful of structural facts about each
connected component: is it α-acyclic (GYO-reducible, so the Yannakakis
engine applies), how wide is it (a greedy elimination bound on the
treewidth of its primal graph, which predicts the tree-decomposition
engine's table sizes), and how big is it (variables, atoms,
inequalities).  :func:`analyze_component` computes all of it once and
packages the result as an immutable :class:`ComponentProfile`.

Analysis depends only on the *query*, never on the database, so profiles
are memoized in a canonicalization-keyed :class:`PlanCache`: α-equivalent
components — the ``φ ↑ k`` copies the Section 4 reductions mass-produce —
share one analysis, exactly as their counts share one evaluation in
:class:`repro.homomorphism.cache.CountCache`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.homomorphism.acyclic import join_tree
from repro.homomorphism.treewidth_dp import primal_graph
from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery

__all__ = [
    "ComponentProfile",
    "PlanCache",
    "analyze_component",
    "greedy_treewidth_bound",
]

#: Default bound on cached component profiles (entries, not bytes).
DEFAULT_PLAN_CACHE_SIZE = 2048

#: Default bound on cached compiled artifacts — far smaller than the
#: profile bound, since each artifact holds per-relation fact indexes.
DEFAULT_COMPILED_CACHE_SIZE = 256

#: Length of the probation FIFO a freshly built artifact waits in until
#: it is reused (see :meth:`PlanCache.compiled_artifact`).  16 holds the
#: artifacts of a 12-factor read of a resident database.
COMPILED_PROBATION = 16


@dataclass(frozen=True)
class ComponentProfile:
    """What the cost model needs to know about one connected component."""

    atom_count: int
    variable_count: int
    inequality_count: int
    acyclic: bool
    #: Greedy (min-degree elimination) upper bound on primal treewidth.
    treewidth_bound: int
    #: One ``(relation, arity)`` entry *per atom* (duplicates kept: the
    #: cost model sums fact scans and multiplies join sizes atom-wise).
    relations: tuple[tuple[str, int], ...]

    def describe(self) -> str:
        shape = "acyclic" if self.acyclic else f"tw<={self.treewidth_bound}"
        return (
            f"{self.atom_count} atoms, {self.variable_count} vars, "
            f"{self.inequality_count} ineqs, {shape}"
        )


def greedy_treewidth_bound(query: ConjunctiveQuery) -> int:
    """An upper bound on the primal-graph treewidth via min-degree elimination.

    Repeatedly eliminate a minimum-degree vertex, turning its neighborhood
    into a clique; the largest neighborhood eliminated bounds the width.
    Deterministic (ties break on the variable's sort order), dependency-free
    and fast — the planner runs it on every cache-missed component, so it
    must stay cheap even for the thousand-atom reduction queries.
    """
    adjacency = primal_graph(query)
    width = 0
    while adjacency:
        vertex = min(adjacency, key=lambda v: (len(adjacency[v]), v))
        neighbors = adjacency.pop(vertex)
        width = max(width, len(neighbors))
        for first in neighbors:
            adjacency[first].discard(vertex)
            adjacency[first].update(neighbors - {first})
            adjacency[first].discard(first)
    return width


def analyze_component(component: ConjunctiveQuery) -> ComponentProfile:
    """The structural profile of one connected component (uncached)."""
    return ComponentProfile(
        atom_count=component.atom_count,
        variable_count=component.variable_count,
        inequality_count=component.inequality_count,
        acyclic=join_tree(component) is not None,
        treewidth_bound=greedy_treewidth_bound(component),
        relations=tuple(
            sorted((atom.relation, atom.arity) for atom in component.atoms)
        ),
    )


class PlanCache:
    """A bounded, thread-safe LRU map from canonical components to profiles.

    The key is the component's canonical (α-equivalence) form, computed by
    :func:`repro.homomorphism.cache.canonical_component` — the same keying
    discipline as :class:`~repro.homomorphism.cache.CountCache`, so the
    two caches hit on exactly the same repeated-component traffic.  The
    canonical form is memoized on the query object, so re-planning the
    very same object — as search loops do thousands of times — skips the
    1-WL refinement, and the cache never holds a caller's query or
    structure.  Hits and misses are mirrored into the active
    :mod:`repro.obs` registry as ``plan.cache_hits`` /
    ``plan.cache_misses``.

    The cache also stores the *compiled artifacts* of
    :mod:`repro.homomorphism.compiled` alongside the profile IR (see
    :meth:`compiled_artifact`): those are keyed by ``(canonical
    component, component_fingerprint)`` — unlike profiles they depend on
    the database, but only on the fact sets of the relations the component
    reads (plus its constants and, for components with atom-free
    variables, the domain size).  The fingerprint keying makes the store
    version-aware: a database delta leaves every artifact of untouched
    relations addressable, and :meth:`invalidate_relations` /
    :meth:`compiled_items` / :meth:`compiled_discard` give delta
    evaluation relation-scoped eviction and migration.  Artifacts have
    their own, smaller LRU bound and mirror their traffic as
    ``plan.compile.cache_hits`` / ``plan.compile.cache_misses``.

    Artifact admission is a segmented LRU in the style of 2Q.  An
    artifact built on a miss waits in a :data:`COMPILED_PROBATION`-entry
    FIFO and enters the main LRU only once it is reused: an artifact hit
    (:meth:`compiled_artifact`), a delta refresh (:meth:`store_compiled`)
    or a count-cache hit on its component (:meth:`promote_compiled`).
    A counterexample search or cold traffic builds one artifact per
    (component, database) pair and never looks it up again; those leave
    in FIFO order instead of flushing the artifacts a resident database
    reuses.  Promotions by a hit are counted as
    ``plan.compile.promotions``; a refresh is not.  A count stopped at
    its deadline takes its artifact out of probation again
    (:meth:`discard_probation`).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_PLAN_CACHE_SIZE,
        compiled_entries: int = DEFAULT_COMPILED_CACHE_SIZE,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"cache needs max_entries >= 1, got {max_entries}")
        if compiled_entries < 1:
            raise ValueError(
                f"cache needs compiled_entries >= 1, got {compiled_entries}"
            )
        self._max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._compiled_max = compiled_entries
        self._compiled: OrderedDict = OrderedDict()
        self._probation: OrderedDict = OrderedDict()
        self._compiled_hits = 0
        self._compiled_misses = 0
        self._durable = None

    def attach_durable(self, durable) -> None:
        """Mirror the *profile* level into a durable tier.

        ``durable`` (a :class:`repro.shard.persist.DurableCacheStore`)
        receives ``record_plan(canonical, profile)`` after every
        analysis miss, outside this cache's lock.  Compiled artifacts
        are closures and never cross the hook — they rebuild on demand
        from restored profiles.  Attaching replaces any previous tier;
        ``None`` detaches.
        """
        self._durable = durable

    def profile(self, component: ConjunctiveQuery) -> tuple[ComponentProfile, bool]:
        """``(profile, was_hit)`` for the component, analyzing on a miss."""
        from repro.homomorphism.cache import canonical_component

        key = canonical_component(component)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                obs_metrics.add("plan.cache_hits")
                return cached, True
            self._misses += 1
        obs_metrics.add("plan.cache_misses")
        computed = analyze_component(component)
        self.store_profile(key, computed)
        if self._durable is not None:
            self._durable.record_plan(key, computed)
        return computed, False

    def profile_items(self) -> list[tuple]:
        """Snapshot of the profile store (coldest first) — what
        ``snapshot`` persists."""
        with self._lock:
            return list(self._entries.items())

    def store_profile(
        self, component: ConjunctiveQuery, profile: ComponentProfile
    ) -> None:
        """Insert a profile under an already-canonical key.

        Restore uses this to warm the store without paying re-analysis.
        """
        with self._lock:
            if component in self._entries:
                self._entries.move_to_end(component)
            else:
                # Evict before inserting (see CountCache.store).
                while len(self._entries) >= self._max_entries:
                    self._entries.popitem(last=False)
            self._entries[component] = profile

    def compiled_artifact(self, component: ConjunctiveQuery, structure, build):
        """``(artifact, was_hit)``; calls ``build(canonical, structure)`` on a miss.

        The artifact is built from (and keyed by) the component's
        *canonical* form, so α-equivalent components on the same
        structure — the ``φ ↑ k`` copies — share one compilation.
        Homomorphism counts are invariant under variable renaming, which
        is exactly what makes the shared artifact sound.
        """
        from repro.homomorphism.cache import (
            canonical_component,
            component_fingerprint,
        )

        key = (
            canonical_component(component),
            component_fingerprint(component, structure),
        )
        with self._lock:
            cached = self._compiled.get(key)
            if cached is not None:
                self._compiled.move_to_end(key)
            else:
                cached = self._probation.pop(key, None)
                if cached is not None:
                    self._admit(key, cached)
            if cached is not None:
                self._compiled_hits += 1
                obs_metrics.add("plan.compile.cache_hits")
                return cached, True
            self._compiled_misses += 1
        obs_metrics.add("plan.compile.cache_misses")
        artifact = build(key[0], structure)
        with self._lock:
            # Another thread may have built and stored the key meanwhile.
            if key not in self._compiled and key not in self._probation:
                # Evict before inserting (see CountCache.store).
                while len(self._probation) >= COMPILED_PROBATION:
                    self._probation.popitem(last=False)
                self._probation[key] = artifact
        return artifact, False

    def promote_compiled(self, key) -> bool:
        """Admit a probation artifact to the main LRU; True when it moved.

        The count cache answers every repeat read of a component, so its
        artifact is never looked up again; :func:`repro.homomorphism.
        engine.count` calls this on a compiled-engine count hit, which
        keeps the artifact until the next delta refreshes it.
        """
        with self._lock:
            artifact = self._probation.pop(key, None)
            if artifact is None:
                return False
            self._admit(key, artifact)
            return True

    def _admit(self, key, artifact) -> None:
        """Move a probation entry into the main LRU (lock held)."""
        while len(self._compiled) >= self._compiled_max:
            self._compiled.popitem(last=False)
        self._compiled[key] = artifact
        obs_metrics.add("plan.compile.promotions")

    def compiled_items(self) -> list[tuple]:
        """Snapshot of both artifact segments (for delta migration)."""
        with self._lock:
            return [*self._compiled.items(), *self._probation.items()]

    def discard_probation(self, artifact) -> bool:
        """Drop ``artifact`` if it still waits in probation.

        True when it was dropped.  An artifact that a lookup has reused
        meanwhile has moved to the main LRU and stays, as does another
        build stored under the same key.
        """
        with self._lock:
            for key, entry in self._probation.items():
                if entry is artifact:
                    del self._probation[key]
                    return True
        return False

    def compiled_discard(self, key) -> bool:
        """Drop one artifact entry; True when it was present."""
        with self._lock:
            dropped = self._compiled.pop(key, None) is not None
            return self._probation.pop(key, None) is not None or dropped

    def store_compiled(self, key, artifact) -> None:
        """Insert an artifact into the main LRU under an external key.

        Delta evaluation uses this to re-home a refreshed artifact under
        the mutated database's fingerprint without paying a rebuild, then
        drops the superseded entry with :meth:`compiled_discard`.  A
        refresh is reuse, so the artifact skips probation.
        """
        with self._lock:
            self._probation.pop(key, None)
            if key in self._compiled:
                self._compiled.move_to_end(key)
            else:
                while len(self._compiled) >= self._compiled_max:
                    self._compiled.popitem(last=False)
            self._compiled[key] = artifact

    def invalidate_relations(
        self, relations, *, domain_changed: bool = False
    ) -> int:
        """Evict compiled artifacts depending on any of ``relations``.

        Profiles are structure-independent and survive untouched.
        Returns the number of artifacts evicted.
        """
        touched = frozenset(relations)
        dropped = 0
        with self._lock:
            for segment in (self._compiled, self._probation):
                for key in list(segment):
                    fingerprint = (
                        key[1] if isinstance(key, tuple) and len(key) == 2 else None
                    )
                    if (
                        isinstance(fingerprint, tuple)
                        and len(fingerprint) == 4
                        and fingerprint[0] == "§fp"
                    ):
                        depends = frozenset(name for name, _ in fingerprint[1])
                        affected = bool(depends & touched) or (
                            domain_changed and fingerprint[3] is not None
                        )
                    else:
                        affected = True
                    if affected:
                        del segment[key]
                        dropped += 1
        return dropped

    def compiled_stats(self) -> dict:
        """A plain-data snapshot of the artifact store (reports, tests).

        ``entries`` counts both segments; ``probation`` the artifacts
        still waiting for their first reuse.
        """
        with self._lock:
            return {
                "entries": len(self._compiled) + len(self._probation),
                "probation": len(self._probation),
                "max_entries": self._compiled_max,
                "hits": self._compiled_hits,
                "misses": self._compiled_misses,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._compiled.clear()
            self._probation.clear()

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

    def stats(self) -> dict:
        """A plain-data snapshot for reports and tests."""
        return {
            "entries": len(self._entries),
            "max_entries": self._max_entries,
            "hits": self._hits,
            "misses": self._misses,
        }

    def __repr__(self) -> str:
        return (
            f"PlanCache(entries={len(self._entries)}/{self._max_entries}, "
            f"hits={self._hits}, misses={self._misses})"
        )
