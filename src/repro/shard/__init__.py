"""The multi-process worker tier and the durable cache tier.

Two subsystems that together take the warm single-process service of
:mod:`repro.service` horizontal and restart-proof:

* :mod:`repro.shard.persist` — a disk-backed, content-addressed JSON
  store (the :mod:`repro.qa.corpus` addressing scheme) that the
  :class:`~repro.homomorphism.cache.CountCache`, the
  :class:`~repro.planner.analyze.PlanCache` profile level, and the
  :class:`~repro.containment_set.cache.ContainmentCache` write through
  to and warm-start from.  Cache keys are built on canonical components
  and content fingerprints, both stable across processes, so a snapshot
  taken by one worker restores bit-for-bit into another.

* :mod:`repro.shard.worker` / :mod:`repro.shard.router` — worker
  subprocesses (each one a full ``repro.service`` server) behind a
  consistent-hash router that keeps α-equivalent traffic on one shard
  (so per-shard single-flight coalescing and cache locality survive
  sharding) and aggregates ``/metrics``, ``/healthz``, and ``/traces``
  across the fleet.
"""

from repro import _lazy

#: Where each re-exported name lives.  Resolved on first attribute access
#: (PEP 562), as in the package root, so a router loads the routing tier
#: without the durable store, and a worker's server loads the store
#: without the router.
_EXPORTS = {
    "DurableCacheStore": "repro.shard.persist",
    "RestoreReport": "repro.shard.persist",
    "RouterConfig": "repro.shard.router",
    "ShardRouter": "repro.shard.router",
    "SnapshotError": "repro.shard.persist",
    "WorkerProcess": "repro.shard.worker",
    "serve_sharded": "repro.shard.router",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
