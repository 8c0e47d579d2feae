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

from repro._value import Value
from repro.homomorphism.acyclic import join_tree
from repro.homomorphism.cache import (
    SegmentedLRU,
    affected_by,
    canonical_component,
    component_fingerprint,
    component_key,
    counter_names,
)
from repro.homomorphism.treewidth_dp import primal_graph
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


class ComponentProfile(Value):
    """What the cost model needs to know about one connected component,
    beyond its atoms (the cost model reads those off the component)."""

    __slots__ = (
        "atom_count",
        "variable_count",
        "inequality_count",
        "acyclic",
        "treewidth_bound",
    )

    atom_count: int
    variable_count: int
    inequality_count: int
    acyclic: bool
    #: Greedy (min-degree elimination) upper bound on primal treewidth.
    treewidth_bound: int

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
    )


class PlanCache:
    """The planner's two α-keyed stores: profiles and compiled artifacts.

    Both are :class:`~repro.homomorphism.cache.SegmentedLRU` instances
    keyed by :func:`~repro.homomorphism.cache.component_key` — the same
    keying discipline as :class:`~repro.homomorphism.cache.CountCache`,
    so the stores hit on exactly the same repeated-component traffic.
    The key is memoized on the query object, so re-planning the very
    same object — as search loops do thousands of times — skips the 1-WL
    refinement, and no store holds a caller's query or structure.

    * :attr:`profiles` — a plain LRU (no probation) of
      :class:`ComponentProfile` per component, counted as
      ``plan.cache_*`` and mirrored into the durable ``plans`` tier.
    * :attr:`artifacts` — the compiled artifacts of
      :mod:`repro.homomorphism.compiled`, keyed ``(component key,
      component_fingerprint)``: they depend on the database, but only on
      the fact sets of the relations the component reads (plus its
      constants and, for components with atom-free variables, the domain
      size).  A database delta leaves every artifact of untouched
      relations addressable, and delta evaluation refreshes the rest,
      storing each refresh with ``admit=True``.  An artifact built on a
      miss waits in a :data:`COMPILED_PROBATION`-entry FIFO and enters
      the main LRU only once it is reused: an artifact hit
      (:meth:`compiled_artifact`), a delta refresh, or a count-cache hit
      on its component under the compiled engine, which
      :func:`repro.homomorphism.engine.count` turns into
      ``artifacts.promote(key)``: the count cache answers every repeat
      read, so the artifact is never looked up again before the next
      delta wants to refresh it.  A count stopped at its deadline takes
      its artifact out of probation again (``artifacts.
      discard_probation``).  Counted as ``plan.compile.cache_*``;
      promotions by a hit as ``plan.compile.promotions``.  Artifacts are
      closures and never reach the durable tier.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_PLAN_CACHE_SIZE,
        compiled_entries: int = DEFAULT_COMPILED_CACHE_SIZE,
    ) -> None:
        self.profiles = SegmentedLRU(
            max_entries, 0, counter_names("plan.cache_"), "plans"
        )
        self.artifacts = SegmentedLRU(
            compiled_entries,
            COMPILED_PROBATION,
            counter_names("plan.compile.cache_", "plan.compile.promotions"),
        )

    def attach_durable(self, durable) -> None:
        """Mirror the profile store into a durable tier; ``None`` detaches."""
        self.profiles.attach_durable(durable)

    def profile(self, component: ConjunctiveQuery) -> tuple[ComponentProfile, bool]:
        """``(profile, was_hit)`` for the component, analyzing on a miss."""
        key = component_key(component)
        cached = self.profiles.lookup(key)
        if cached is not None:
            return cached, True
        computed = analyze_component(component)
        self.profiles.store(key, computed)
        return computed, False

    def compiled_artifact(self, component: ConjunctiveQuery, structure, build):
        """``(artifact, was_hit)``; calls ``build(canonical, structure)`` on a miss.

        The artifact is built from the component's memoized *canonical*
        form, so α-equivalent components on the same structure — the
        ``φ ↑ k`` copies — share one compilation.  Homomorphism counts
        are invariant under variable renaming, which is exactly what
        makes the shared artifact sound.
        """
        key = (
            component_key(component),
            component_fingerprint(component, structure),
        )
        cached = self.artifacts.lookup(key)
        if cached is not None:
            return cached, True
        artifact = build(canonical_component(component), structure)
        self.artifacts.store(key, artifact)
        return artifact, False

    def invalidate_relations(
        self, relations, *, domain_changed: bool = False
    ) -> int:
        """Evict compiled artifacts depending on any of ``relations``.

        Profiles are structure-independent and survive untouched.
        Returns the number of artifacts evicted.
        """
        return self.artifacts.invalidate(affected_by(relations, domain_changed))

    def clear(self) -> None:
        self.profiles.clear()
        self.artifacts.clear()

    def __len__(self) -> int:
        return len(self.profiles)

    @property
    def max_entries(self) -> int:
        return self.profiles.max_entries

    @property
    def hits(self) -> int:
        return self.profiles.hits

    @property
    def misses(self) -> int:
        return self.profiles.misses

    def stats(self) -> dict:
        """A plain-data snapshot of the profile store."""
        return self.profiles.stats()

    def __repr__(self) -> str:
        return f"PlanCache({self.profiles!r}, {self.artifacts!r})"
