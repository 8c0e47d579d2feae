"""Disk-backed, content-addressed persistence for the warm caches.

The whole point of the cache stack — Lemma 1 multiplicativity makes
α-equivalent components recur, so their counts, plans, and containment
verdicts are highly reusable — is defeated every time a process dies
with its caches.  This module gives the three durable stores a tier on
disk: each entry is one small JSON file named by the SHA-256 digest of
its canonical content, exactly the addressing scheme
:mod:`repro.qa.corpus` uses for fuzzing findings.  Content addressing
makes writes idempotent (re-storing an entry rewrites the same file),
dedupes across snapshots for free, and turns corruption detection into
a digest check.

Keys survive the process boundary because every ingredient is already
canonical: components travel as their
:class:`~repro.homomorphism.cache.ComponentKey` (a digest of the
canonical form, its relation names and, when it pins anything, its
atom pattern), structure dependencies as content fingerprints
(:meth:`~repro.relational.structure.Structure.relation_fingerprint`,
``blake2b``-based, never the salted ``hash``).  All three tiers share
one encoding and one restore path; compiled artifacts are closures and
are *never* persisted — they rebuild on demand.

Restore mirrors ``qa/corpus.py``'s stance on malformed entries but
inverts the failure mode: a corpus replay *raises* on a bad file (a
finding must not silently vanish), while a cache restore *skips* it —
a truncated, garbage, wrong-version (format 1 included), or
digest-mismatched snapshot file costs one ``shard.snapshot.rejected``
tick, never a crash and never a wrong count (values only enter a cache
after full decode + digest verification).
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

from repro._value import Value
from repro.errors import BagCQError
from repro.homomorphism.cache import ComponentKey, key_scope
from repro.obs import metrics as obs_metrics
from repro.planner.analyze import ComponentProfile
from repro.queries.terms import Constant, Variable

__all__ = [
    "DurableCacheStore",
    "RestoreReport",
    "SNAPSHOT_COUNTERS",
    "SnapshotError",
]

#: Format stamp carried by every entry; bump on incompatible layout
#: changes so old snapshots are rejected (skipped), not misread.
#: Format 2 keys entries by :class:`ComponentKey` instead of whole
#: canonical queries.
FORMAT_VERSION = 2

#: The three persisted tiers, each its own subdirectory of the root.
TIERS = ("counts", "plans", "containment")

#: The ``shard.snapshot.*`` counter family, pre-registered at zero by
#: every server that owns a durable store (deterministic scrapes).
SNAPSHOT_COUNTERS = (
    "shard.snapshot.saved",
    "shard.snapshot.loaded",
    "shard.snapshot.rejected",
    "shard.snapshot.invalidated",
)

_TUPLE_TAG = "§"
_CONST_TAG = "§const"
_VAR_TAG = "§var"
_KEY_TAG = "§key"
_PROFILE_TAG = "§profile"
_PROFILE_FIELDS = (
    "atom_count",
    "variable_count",
    "inequality_count",
    "acyclic",
    "treewidth_bound",
)


class SnapshotError(BagCQError):
    """A value that cannot be encoded for (or decoded from) a snapshot."""


def _encode(value):
    """JSON-encode one key or value, reversibly.

    Tuples are tagged (JSON arrays decode back to tuples only through
    the tag), terms carry their kind, component keys and profiles their
    fields; ``None``/bool/int/str pass through.  Anything else is a
    shape this format does not know — the caller skips that entry rather
    than persisting a lossy form.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode(item) for item in value]}
    if isinstance(value, Constant):
        return {_CONST_TAG: value.name}
    if isinstance(value, Variable):
        return {_VAR_TAG: value.name}
    if isinstance(value, ComponentKey):
        return {
            _KEY_TAG: [
                value.digest.hex(),
                list(value.relations),
                _encode(value.pattern),
            ]
        }
    if isinstance(value, ComponentProfile):
        return {_PROFILE_TAG: [getattr(value, f) for f in _PROFILE_FIELDS]}
    raise SnapshotError(
        f"cannot persist value of type {type(value).__name__}: {value!r}"
    )


def _decode(payload):
    if payload is None or isinstance(payload, (bool, int, str)):
        return payload
    if isinstance(payload, dict) and len(payload) == 1:
        (tag, body), = payload.items()
        if tag == _TUPLE_TAG and isinstance(body, list):
            return tuple(_decode(item) for item in body)
        if tag == _CONST_TAG and isinstance(body, str):
            return Constant(body)
        if tag == _VAR_TAG and isinstance(body, str):
            return Variable(body)
        if tag == _KEY_TAG:
            digest, relations, pattern = body
            _require(
                all(isinstance(name, str) for name in relations),
                "relation names must be strings",
            )
            key = ComponentKey(
                bytes.fromhex(digest), tuple(relations), _decode(pattern)
            )
            _require(len(key.digest) == 16, "a key digest has 16 bytes")
            return key
        if tag == _PROFILE_TAG:
            profile = ComponentProfile(*body)
            _require(
                all(isinstance(getattr(profile, f), int) for f in _PROFILE_FIELDS),
                "profile fields must be integers",
            )
            return profile
    raise SnapshotError(f"unrecognized snapshot payload: {payload!r}")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Per tier: does a decoded ``(key, value)`` have the tier's shape?  Keys
#: of any other shape are never persisted, and files holding one are
#: rejected on restore.
_SHAPES = {
    "counts": lambda key, value: (
        isinstance(key, tuple)
        and len(key) == 3
        and isinstance(key[0], ComponentKey)
        and isinstance(key[1], tuple)
        and len(key[1]) == 3
        and isinstance(key[2], str)
        and _is_count(value)
    ),
    "plans": lambda key, value: (
        isinstance(key, ComponentKey) and isinstance(value, ComponentProfile)
    ),
    "containment": lambda key, value: (
        isinstance(key, tuple)
        and len(key) == 3
        and isinstance(key[0], ComponentKey)
        and isinstance(key[1], ComponentKey)
        and isinstance(key[2], str)
        and isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[0], bool)
        and (value[1] is None or _is_count(value[1]))
    ),
}


def _entry_digest(entry: dict) -> str:
    """The content address of one entry — ``qa/corpus.py``'s scheme."""
    canonical = json.dumps(entry, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SnapshotError(message)


class RestoreReport(Value):
    """What one tier's restore pass did."""

    _defaults = {"loaded": 0, "rejected": 0}
    __slots__ = tuple(_defaults)

    def to_dict(self) -> dict:
        return {"loaded": self.loaded, "rejected": self.rejected}


class DurableCacheStore:
    """One directory of content-addressed cache entries, three tiers deep.

    Attach to the stores via their ``attach_durable`` hooks: every store
    writes through (:meth:`record`, one file per entry, idempotent),
    every relation-scoped invalidation deletes the affected files
    (:meth:`invalidate`), and :meth:`save`/:meth:`restore` bulk-sync a
    store with the disk.  All disk I/O happens outside the stores' locks
    (the hooks are called post-store), so the hot path never blocks on
    the filesystem.

    Every entry carries its key's relation names and domain dependence,
    so invalidation reads an in-memory index instead of re-decoding
    files.

    Counter discipline: increments land in the registry handed to the
    constructor (the owning server's), falling back to the ambient
    :mod:`repro.obs` registry so CLI-driven restores still count.
    """

    def __init__(self, root, registry=None) -> None:
        self.root = Path(root)
        self._registry = registry
        self._suspended = False
        self._index_lock = threading.Lock()
        #: tier → digest → :func:`key_scope` of the entry (``None`` for
        #: undecodable files, dropped on any invalidation).
        self._index: dict[str, dict[str, tuple | None]] = {}
        for tier in TIERS:
            (self.root / tier).mkdir(parents=True, exist_ok=True)
            self._index[tier] = self._scan(tier)

    # -- counters ----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if amount <= 0:
            return
        if self._registry is not None:
            self._registry.counter(name).inc(amount)
        else:
            obs_metrics.add(name, amount)

    # -- file layer --------------------------------------------------------

    def _scan(self, tier: str) -> dict:
        """The index of whatever is on disk already.

        Runs at construction (without counters: scanning is not a
        restore) so invalidation covers entries written by an earlier
        process even before any restore happened.
        """
        index = {}
        for path in (self.root / tier).glob("*.json"):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                index[path.stem] = (
                    frozenset(entry["relations"]),
                    bool(entry["domain_dependent"]),
                )
            except (OSError, ValueError, KeyError, TypeError):
                # Undecodable files are conservatively indexed as
                # depending on everything, so invalidation removes them.
                index[path.stem] = None
        return index

    def _write(self, tier: str, key, value) -> bool:
        """Persist one entry; False when its shape is not the tier's."""
        scope = key_scope(key)
        if scope is None or not _SHAPES[tier](key, value):
            return False
        try:
            entry = {
                "format": FORMAT_VERSION,
                "tier": tier,
                "key": _encode(key),
                "value": _encode(value),
                "relations": sorted(scope[0]),
                "domain_dependent": scope[1],
            }
        except BagCQError:
            return False
        digest = _entry_digest(entry)
        path = self.root / tier / f"{digest}.json"
        if not path.exists():
            try:
                path.write_text(
                    json.dumps(entry, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
            except OSError:
                # A full or vanished disk degrades the durable tier to a
                # no-op; it must never take the serving path down with it.
                return True
            self._count("shard.snapshot.saved")
        with self._index_lock:
            self._index[tier][digest] = scope
        return True

    def record(self, tier: str, key, value) -> None:
        """Write-through hook: persist one freshly stored entry."""
        if not self._suspended:
            self._write(tier, key, value)

    def save(self, tier: str, store) -> int:
        """Persist every entry of ``store`` that has the tier's shape."""
        return sum(self._write(tier, key, value) for key, value in store.items())

    def restore(self, tier: str, store) -> RestoreReport:
        """Warm ``store`` from disk, skipping anything suspect.

        The gate every entry passes before a store sees it: valid JSON,
        a JSON-object payload, the current format stamp, the right tier,
        a filename that matches the content digest (a truncated or
        hand-edited file fails here), and a key and value that decode to
        the tier's shape.  Each failure ticks ``shard.snapshot.rejected``.
        Restored entries skip probation: they were worth keeping once.
        """
        loaded = 0
        rejected = 0
        self._suspended = True
        try:
            for path in sorted((self.root / tier).glob("*.json")):
                try:
                    with path.open("r", encoding="utf-8") as handle:
                        entry = json.load(handle)
                    _require(
                        isinstance(entry, dict)
                        and entry.get("format") == FORMAT_VERSION
                        and entry.get("tier") == tier
                        and _entry_digest(entry) == path.stem,
                        "entry fails the format/tier/digest gate",
                    )
                    key, value = _decode(entry["key"]), _decode(entry["value"])
                    _require(_SHAPES[tier](key, value), "not the tier's shape")
                except (OSError, BagCQError, KeyError, TypeError, ValueError):
                    rejected += 1
                    continue
                store.store(key, value, admit=True)
                loaded += 1
        finally:
            self._suspended = False
        self._count("shard.snapshot.loaded", loaded)
        self._count("shard.snapshot.rejected", rejected)
        return RestoreReport(loaded, rejected)

    def invalidate(self, tier: str, affected) -> int:
        """Delete the tier's files whose scope is ``affected`` — the disk
        mirror of :meth:`~repro.homomorphism.cache.SegmentedLRU.invalidate`,
        which calls it, so an invalidation that evicts in-memory entries
        evicts their files in the same breath."""
        with self._index_lock:
            index = self._index[tier]
            victims = [digest for digest, scope in index.items() if affected(scope)]
            for digest in victims:
                del index[digest]
        dropped = 0
        for digest in victims:
            try:
                (self.root / tier / f"{digest}.json").unlink()
                dropped += 1
            except OSError:
                continue
        self._count("shard.snapshot.invalidated", dropped)
        return dropped

    # -- whole-store operations --------------------------------------------

    @staticmethod
    def _stores(count_cache, plan_cache, containment_cache) -> dict:
        return {
            "counts": count_cache,
            "plans": plan_cache.profiles,
            "containment": containment_cache,
        }

    def save_all(self, count_cache, plan_cache, containment_cache) -> dict:
        """Persist all three stores; the ``/snapshot`` response body."""
        stores = self._stores(count_cache, plan_cache, containment_cache)
        return {tier: self.save(tier, store) for tier, store in stores.items()}

    def restore_all(self, count_cache, plan_cache, containment_cache) -> dict:
        """Warm all three stores; the startup warm-restore report."""
        stores = self._stores(count_cache, plan_cache, containment_cache)
        return {
            tier: self.restore(tier, store).to_dict()
            for tier, store in stores.items()
        }

    def stats(self) -> dict:
        """Files per tier (the ``/healthz`` surface of the store)."""
        return {
            tier: sum(1 for _ in (self.root / tier).glob("*.json"))
            for tier in TIERS
        }

    def __repr__(self) -> str:
        return f"DurableCacheStore({str(self.root)!r})"
