"""The shard router: consistent-hash front for N worker subprocesses.

**Routing discipline.**  The single-process service already keys its
count cache and single-flight table on α-equivalence
(:func:`~repro.homomorphism.cache.canonical_component`) — so the router
routes on the *same* canonical forms: every request that would coalesce
or cache-hit inside one process lands on the same shard, and per-shard
single-flight keeps collapsing stampedes after sharding.  Database-bound
traffic (``"db"``-carrying requests, ``/db`` loads, ``/update`` deltas)
routes by database name, pinning each named database — and its
version history — to one worker.  The hash is ``blake2b`` over the
canonical rendering, never the salt-randomized ``hash()``, so the
key → shard map is identical across router restarts (which is what
makes per-shard snapshot directories warm the *right* worker).

**Consistent hashing.**  Each shard owns ``virtual_nodes`` points on a
64-bit ring.  A key routes to the first healthy shard at or after its
point; an unhealthy shard's traffic spills to its ring successors
(``shard.rerouted``) and returns home on recovery — no reshuffling of
the healthy shards' key space either way.

**Aggregation.**  ``GET /metrics`` merges every worker's registry with
the router's own: counters and timers sum, gauges sum point-in-time
values, histograms merge bucket-wise (the fixed shared boundaries make
the merge exact — see :class:`repro.obs.metrics.Histogram`) with
quantiles recomputed from the merged buckets.  ``GET /healthz`` nests
each worker's full health row (queue depth, cache occupancy) under an
overall status; ``GET /traces`` concatenates flight recorders with a
``shard`` stamp on every trace.  ``POST /snapshot`` fans out to every
live worker.
"""

from __future__ import annotations

import hashlib
import json
import signal
import threading
import time
import urllib.error
import urllib.request
from bisect import bisect_left
from pathlib import Path

from repro._value import Value
from repro.errors import BagCQError
from repro.homomorphism.cache import canonical_component
from repro.io import query_from_dict
from repro.obs.metrics import Registry, quantile_from_bucket_counts
from repro.obs.report import SCHEMA_VERSION, stable_json_dumps
from repro.queries.parser import parse_query
from repro.service import protocol, wire
from repro.shard.worker import WorkerProcess, http_get_json, http_post_json

__all__ = [
    "ConsistentHashRing",
    "RouterConfig",
    "ShardRouter",
    "merge_metric_snapshots",
    "routing_key",
    "serve_sharded",
]

#: Router-side counters, pre-registered at zero (deterministic scrapes).
_ROUTER_COUNTERS = (
    "shard.routed",
    "shard.rerouted",
    "shard.proxy_failures",
    "shard.worker_restarts",
    "shard.worker_spawn_failures",
    "shard.snapshot_fanouts",
)

#: Response headers the proxy forwards back verbatim.
_FORWARDED_HEADERS = (
    "Retry-After",
    protocol.TRACE_ID_HEADER,
    protocol.REQUEST_ID_HEADER,
)


class RouterConfig(Value):
    """Tuning knobs of one :class:`ShardRouter` (see docs/SERVICE.md)."""

    _defaults = {
        "host": "127.0.0.1",
        "port": 0,  # 0 → ephemeral; read the bound port off `.address`
        #: Worker subprocesses behind the router.
        "shards": 2,
        #: Worker *threads* inside each subprocess (the existing pool knob).
        "workers_per_shard": 4,
        "queue_depth": 64,
        "default_deadline_ms": 30_000,
        "coalesce": True,
        #: Root of the durable tier; each shard gets ``shard-NN/`` under it
        #: (the ring is index-stable, so a restarted fleet warm-starts each
        #: shard from exactly its own slice of the α-class space).
        "snapshot_dir": None,
        #: Ring points per shard; more points → smoother key spread.
        "virtual_nodes": 64,
        "ready_timeout_s": 30.0,
        #: Per-attempt proxy timeout; above the service's max deadline so
        #: the worker's own deadline machinery answers first.
        "proxy_timeout_s": 310.0,
    }
    __slots__ = tuple(_defaults)


# -- routing keys ----------------------------------------------------------


def _canonical_text(payload, text) -> str | None:
    """The canonical rendering of one query field, if it parses."""
    try:
        if isinstance(payload, dict):
            return str(canonical_component(query_from_dict(payload)))
        if isinstance(text, str):
            return str(canonical_component(parse_query(text)))
    except (BagCQError, KeyError, TypeError, ValueError):
        return None
    return None


def _query_part(body: dict, field: str) -> str | None:
    return _canonical_text(body.get(field), body.get(f"{field}_text"))


def _disjuncts_part(body: dict, field: str) -> str | None:
    raw = body.get(field)
    if not isinstance(raw, list) or not raw:
        return None
    parts = []
    for entry in raw:
        if not isinstance(entry, dict):
            return None
        part = _canonical_text(entry.get("query"), entry.get("query_text"))
        if part is None:
            return None
        parts.append(part)
    return " | ".join(sorted(parts))


def _structure_part(body: dict) -> str:
    """A content digest of the inline database, if any.

    Distinct databases spread across shards even under one query shape;
    identical requests (same structure rendering) stay together so
    coalescing works.  No decoding: the digest is over the raw JSON
    rendering, which is deterministic for clients serializing the same
    structure through :mod:`repro.io`.
    """
    for field in ("structure", "facts"):
        if field in body:
            rendering = json.dumps(body[field], sort_keys=True, default=repr)
            return hashlib.blake2b(
                rendering.encode("utf-8"), digest_size=8
            ).hexdigest()
    return ""


def routing_key(endpoint: str, body) -> str:
    """The shard-routing key of one request — α-stable and process-stable.

    Database-bound requests key on the database name (all versions of a
    named database live on one shard); query-bearing requests key on the
    canonical component(s) plus an inline-structure digest.  Bodies the
    router cannot interpret key on their raw rendering — the chosen
    worker then produces the proper 400, and identical malformed bodies
    at least route consistently.
    """
    if not isinstance(body, dict):
        return f"{endpoint}:opaque:{json.dumps(body, default=repr)}"
    name = body.get("db") if isinstance(body.get("db"), str) else None
    if name is None and endpoint == "db" and isinstance(body.get("name"), str):
        name = body["name"]
    if name is not None:
        return f"db:{name}"
    parts: list[str] = []
    if endpoint == "contain":
        if body.get("kind", "cq") == "ucq":
            for field in ("disjuncts_s", "disjuncts_b"):
                part = _disjuncts_part(body, field)
                parts.append(part if part is not None else "?")
        else:
            for field in ("phi_s", "phi_b"):
                part = _query_part(body, field)
                parts.append(part if part is not None else "?")
    elif body.get("kind", "cq") == "ucq" and "disjuncts" in body:
        part = _disjuncts_part(body, "disjuncts")
        parts.append(part if part is not None else "?")
    else:
        part = _query_part(body, "query")
        parts.append(part if part is not None else "?")
    if all(part == "?" for part in parts):
        # Nothing canonical to route on: fall back to the raw body so
        # the key is at least deterministic.
        rendering = json.dumps(body, sort_keys=True, default=repr)
        return f"{endpoint}:opaque:{rendering}"
    return "|".join(["q", *parts, _structure_part(body)])


class ConsistentHashRing:
    """``virtual_nodes`` blake2b points per shard on a 64-bit ring."""

    def __init__(self, shards: int, virtual_nodes: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"ring needs shards >= 1, got {shards}")
        if virtual_nodes < 1:
            raise ValueError(
                f"ring needs virtual_nodes >= 1, got {virtual_nodes}"
            )
        self.shards = shards
        points = []
        for shard in range(shards):
            for replica in range(virtual_nodes):
                token = f"shard-{shard}-replica-{replica}".encode("utf-8")
                digest = hashlib.blake2b(token, digest_size=8).digest()
                points.append((int.from_bytes(digest, "big"), shard))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def candidates(self, key: str) -> list[int]:
        """Every shard, in ring order from the key's point, deduplicated.

        The first entry is the home shard; the rest are the spill order
        when it is unhealthy.
        """
        start = bisect_left(self._hashes, self._hash(key))
        seen: list[int] = []
        for offset in range(len(self._points)):
            _, shard = self._points[(start + offset) % len(self._points)]
            if shard not in seen:
                seen.append(shard)
                if len(seen) == self.shards:
                    break
        return seen

    def route(self, key: str) -> int:
        """The home shard of ``key``."""
        return self.candidates(key)[0]


# -- metrics aggregation ---------------------------------------------------


def _merge_histograms(snapshots: list[dict]) -> dict:
    buckets: dict[str, int] = {}
    count = 0
    total_ms = 0.0
    min_ms: float | None = None
    max_ms: float | None = None
    for snapshot in snapshots:
        count += int(snapshot.get("count", 0))
        total_ms += float(snapshot.get("total_ms", 0.0))
        for key, value in (snapshot.get("buckets") or {}).items():
            buckets[str(key)] = buckets.get(str(key), 0) + int(value)
        for bound, pick in (("min_ms", min), ("max_ms", max)):
            value = snapshot.get(bound)
            if value is not None:
                current = min_ms if bound == "min_ms" else max_ms
                merged = value if current is None else pick(current, value)
                if bound == "min_ms":
                    min_ms = merged
                else:
                    max_ms = merged

    def _quantile(q: float) -> float | None:
        return quantile_from_bucket_counts(buckets, q, max_ms)

    return {
        "type": "histogram",
        "count": count,
        "total_ms": total_ms,
        "mean_ms": total_ms / count if count else 0.0,
        "min_ms": min_ms,
        "max_ms": max_ms,
        "p50_ms": _quantile(0.50),
        "p95_ms": _quantile(0.95),
        "p99_ms": _quantile(0.99),
        "buckets": buckets,
    }


def _merge_timers(snapshots: list[dict]) -> dict:
    count = sum(int(s.get("count", 0)) for s in snapshots)
    total_ms = sum(float(s.get("total_ms", 0.0)) for s in snapshots)
    mins = [s["min_ms"] for s in snapshots if s.get("min_ms") is not None]
    maxes = [s["max_ms"] for s in snapshots if s.get("max_ms") is not None]
    return {
        "type": "timer",
        "count": count,
        "total_ms": total_ms,
        "mean_ms": total_ms / count if count else 0.0,
        "min_ms": min(mins) if mins else None,
        "max_ms": max(maxes) if maxes else None,
    }


def _merge_gauges(snapshots: list[dict]) -> dict:
    values = [s["value"] for s in snapshots if s.get("value") is not None]
    maxes = [s["max"] for s in snapshots if s.get("max") is not None]
    return {
        "type": "gauge",
        # Point-in-time sum across the fleet (inflight, queued, resident
        # databases all sum meaningfully); max is the fleet-wide peak of
        # any single worker, which is what capacity planning reads.
        "value": sum(values) if values else None,
        "max": max(maxes) if maxes else None,
    }


def merge_metric_snapshots(snapshots: list[dict]) -> dict:
    """Merge per-worker ``Registry.snapshot()`` dicts into one fleet view.

    Metrics are matched by name; a name's entries are merged by type
    (counters/timers sum, gauges sum point-in-time values, histograms
    merge bucket-wise and re-derive quantiles — deterministic in any
    merge order).  Entries whose types disagree across workers are
    dropped rather than punned.
    """
    by_name: dict[str, list[dict]] = {}
    for snapshot in snapshots:
        for name, metric in snapshot.items():
            if isinstance(metric, dict):
                by_name.setdefault(name, []).append(metric)
    merged: dict[str, dict] = {}
    for name in sorted(by_name):
        entries = by_name[name]
        kinds = {entry.get("type") for entry in entries}
        if len(kinds) != 1:
            continue
        kind = kinds.pop()
        if kind == "counter":
            merged[name] = {
                "type": "counter",
                "value": sum(int(entry.get("value", 0)) for entry in entries),
            }
        elif kind == "gauge":
            merged[name] = _merge_gauges(entries)
        elif kind == "histogram":
            merged[name] = _merge_histograms(entries)
        elif kind == "timer":
            merged[name] = _merge_timers(entries)
    return merged


# -- the router ------------------------------------------------------------


class _RouterFailure(Exception):
    """A structured router-level failure with its wire envelope."""

    def __init__(
        self, kind: str, message: str, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.envelope = protocol.error_envelope(kind, message, retry_after)
        self.status = protocol.status_for_kind(kind)
        self.retry_after = retry_after


class ShardRouter:
    """N supervised workers behind one consistent-hash HTTP front."""

    def __init__(self, config: RouterConfig | None = None) -> None:
        self.config = config or RouterConfig()
        if self.config.shards < 1:
            raise ValueError(
                f"router needs shards >= 1, got {self.config.shards}"
            )
        self.registry = Registry()
        for name in _ROUTER_COUNTERS:
            self.registry.counter(name)
        self.registry.gauge("shard.workers_alive").set(0)
        self.ring = ConsistentHashRing(
            self.config.shards, self.config.virtual_nodes
        )
        self.workers: list[WorkerProcess] = []
        self._httpd: wire.HTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def _shard_snapshot_dir(self, shard: int) -> str | None:
        if self.config.snapshot_dir is None:
            return None
        directory = Path(self.config.snapshot_dir) / f"shard-{shard:02d}"
        directory.mkdir(parents=True, exist_ok=True)
        return str(directory)

    def start(self) -> "ShardRouter":
        if self._started:
            raise RuntimeError("router already started")
        self._started = True
        self.workers = [
            WorkerProcess(
                shard,
                host=self.config.host,
                workers=self.config.workers_per_shard,
                queue_depth=self.config.queue_depth,
                default_deadline_ms=self.config.default_deadline_ms,
                coalesce=self.config.coalesce,
                snapshot_dir=self._shard_snapshot_dir(shard),
                registry=self.registry,
                ready_timeout_s=self.config.ready_timeout_s,
            )
            for shard in range(self.config.shards)
        ]
        # Spawn concurrently: worker startup cost is interpreter import
        # plus warm-restore, and the fleet should pay it once, not N times.
        errors: list[BaseException] = []

        def _start(worker: WorkerProcess) -> None:
            try:
                worker.start()
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append(error)

        threads = [
            threading.Thread(target=_start, args=(worker,), daemon=True)
            for worker in self.workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            self.close()
            raise RuntimeError(
                f"{len(errors)} of {self.config.shards} workers failed to "
                f"start: {errors[0]}"
            )
        router = self

        class _Handler(_RouterHandler):
            shard_router = router

        self._httpd = wire.HTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="bagcq-router-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("router not started")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10)
        threads = [
            threading.Thread(target=worker.stop, daemon=True)
            for worker in self.workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- aggregation -------------------------------------------------------

    def _live_workers(self) -> list[tuple[WorkerProcess, str]]:
        return [
            (worker, worker.url)
            for worker in self.workers
            if worker.url is not None
        ]

    def health(self) -> dict:
        rows = []
        alive = 0
        for worker in self.workers:
            row = worker.describe()
            url = row["url"]
            if url is not None:
                try:
                    row["health"] = http_get_json(
                        f"{url}/healthz", timeout_s=5.0
                    )
                    alive += 1
                except (urllib.error.URLError, OSError, ValueError) as error:
                    row["alive"] = False
                    row["error"] = str(error)
            rows.append(row)
        self.registry.gauge("shard.workers_alive").set(alive)
        aggregate = {
            "inflight": sum(
                row.get("health", {}).get("inflight", 0) for row in rows
            ),
            "queued": sum(
                row.get("health", {}).get("queued", 0) for row in rows
            ),
        }
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "role": "router",
            "status": "ok" if alive == len(self.workers) else "degraded",
            "shards": self.config.shards,
            "workers_alive": alive,
            "aggregate": aggregate,
            "workers": rows,
        }

    def metrics_json(self) -> str:
        snapshots = [self.registry.snapshot()]
        for _worker, url in self._live_workers():
            try:
                body = http_get_json(f"{url}/metrics", timeout_s=5.0)
                snapshots.append(body.get("metrics", {}))
            except (urllib.error.URLError, OSError, ValueError):
                continue
        return stable_json_dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "shards": self.config.shards,
                "metrics": merge_metric_snapshots(snapshots),
            }
        )

    def traces_json(self) -> str:
        capacity = recorded = dropped = 0
        traces: list[dict] = []
        for worker, url in self._live_workers():
            try:
                body = http_get_json(f"{url}/traces", timeout_s=5.0)
            except (urllib.error.URLError, OSError, ValueError):
                continue
            capacity += int(body.get("capacity", 0))
            recorded += int(body.get("recorded", 0))
            dropped += int(body.get("dropped", 0))
            for trace in body.get("traces", ()):
                if isinstance(trace, dict):
                    trace = dict(trace)
                    trace["shard"] = worker.shard_index
                traces.append(trace)
        return stable_json_dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "shards": self.config.shards,
                "capacity": capacity,
                "recorded": recorded,
                "dropped": dropped,
                "traces": traces,
            }
        )

    def snapshot_all(self) -> dict:
        """Fan ``POST /snapshot`` out to every live worker."""
        self.registry.counter("shard.snapshot_fanouts").inc()
        rows = []
        totals = {"counts": 0, "plans": 0, "containment": 0}
        for worker, url in self._live_workers():
            row: dict = {"shard": worker.shard_index}
            try:
                result = http_post_json(f"{url}/snapshot", {}, timeout_s=60.0)
                row["saved"] = result.get("saved", {})
                for tier in totals:
                    totals[tier] += int(row["saved"].get(tier, 0))
            except urllib.error.HTTPError as error:
                row["error"] = f"http {error.code}"
            except (urllib.error.URLError, OSError, ValueError) as error:
                row["error"] = str(error)
            rows.append(row)
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "shards": self.config.shards,
            "saved": totals,
            "workers": rows,
        }

    # -- proxying ----------------------------------------------------------

    def forward(
        self, endpoint: str, raw_body: bytes, headers
    ) -> tuple[int, dict[str, str], bytes]:
        """Route one POST to its shard; returns (status, headers, body).

        Spill discipline: connection-level failures (worker down or
        dying) advance along the ring — except for ``/update``, which is
        not idempotent from the router's vantage point (the delta may
        have applied before the connection died), so it surfaces a
        retryable 503 and lets the *client* decide.  HTTP-level errors
        (4xx/5xx envelopes) are worker answers, forwarded verbatim.
        """
        try:
            body = json.loads(raw_body.decode("utf-8")) if raw_body else {}
        except (ValueError, UnicodeDecodeError, RecursionError):
            body = None  # routed opaquely; the worker sends the 400
        key = routing_key(endpoint, body if body is not None else raw_body.hex())
        candidates = self.ring.candidates(key)
        self.registry.counter("shard.routed").inc()
        attempts = 0
        for position, shard in enumerate(candidates):
            worker = self.workers[shard]
            url = worker.url
            if url is None:
                continue
            if position > 0 or attempts > 0:
                self.registry.counter("shard.rerouted").inc()
            attempts += 1
            request = urllib.request.Request(
                f"{url}/{endpoint}",
                data=raw_body,
                headers=self._forward_headers(headers),
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.config.proxy_timeout_s
                ) as response:
                    return (
                        response.status,
                        self._response_headers(response.headers),
                        response.read(),
                    )
            except urllib.error.HTTPError as error:
                return (
                    error.code,
                    self._response_headers(error.headers),
                    error.read(),
                )
            except (urllib.error.URLError, OSError) as error:
                self.registry.counter("shard.proxy_failures").inc()
                if endpoint == "update":
                    raise _RouterFailure(
                        protocol.KIND_SHUTTING_DOWN,
                        f"shard {shard} failed mid-update ({error}); "
                        "retry after verifying the database version",
                        retry_after=0.1,
                    ) from error
                continue
        raise _RouterFailure(
            protocol.KIND_SHUTTING_DOWN,
            "no shard is currently accepting work; retry shortly",
            retry_after=0.2,
        )

    @staticmethod
    def _forward_headers(headers) -> dict[str, str]:
        forwarded = {"Content-Type": "application/json"}
        if headers is not None:
            for name in (
                protocol.TRACE_ID_HEADER,
                protocol.REQUEST_ID_HEADER,
                protocol.ATTEMPT_HEADER,
            ):
                value = headers.get(name)
                if value is not None:
                    forwarded[name] = value
        return forwarded

    @staticmethod
    def _response_headers(headers) -> dict[str, str]:
        result = {}
        if headers is not None:
            for name in _FORWARDED_HEADERS:
                value = headers.get(name)
                if value is not None:
                    result[name] = value
        return result


class _RouterHandler(wire.Handler):
    """Routes HTTP onto the :class:`ShardRouter` it belongs to."""

    shard_router: ShardRouter  # set by the start() subclass
    server_version = "bagcq-router/1"

    def responded(self) -> None:
        self.shard_router.registry.counter("shard.http_lines").inc()

    def _send_json(self, status: int, payload: dict) -> None:
        self.send(status, json.dumps(payload).encode("utf-8"))

    def _send_failure(self, failure: _RouterFailure) -> None:
        headers = {}
        if failure.retry_after is not None:
            headers["Retry-After"] = f"{failure.retry_after:.3f}"
        self.send(
            failure.status,
            json.dumps(failure.envelope).encode("utf-8"),
            headers,
        )

    def do_GET(self) -> None:  # noqa: N802 — wire.Handler API
        router = self.shard_router
        if self.path == "/healthz":
            self._send_json(200, router.health())
        elif self.path == "/metrics":
            self.send(200, router.metrics_json().encode("utf-8"))
        elif self.path == "/traces":
            self.send(200, router.traces_json().encode("utf-8"))
        elif (
            self.path.lstrip("/") in protocol.ENDPOINT_NAMES
            or self.path == "/snapshot"
        ):
            self._send_failure(
                _RouterFailure(
                    protocol.KIND_METHOD, f"{self.path} requires POST"
                )
            )
        else:
            self._send_failure(
                _RouterFailure(
                    protocol.KIND_NOT_FOUND, f"no such endpoint {self.path}"
                )
            )

    def do_POST(self) -> None:  # noqa: N802 — wire.Handler API
        router = self.shard_router
        endpoint = self.path.lstrip("/")
        if endpoint in ("healthz", "metrics", "traces"):
            self._send_failure(
                _RouterFailure(
                    protocol.KIND_METHOD, f"{self.path} requires GET"
                )
            )
            return
        if endpoint == "snapshot":
            self._send_json(200, router.snapshot_all())
            return
        if endpoint not in protocol.ENDPOINT_NAMES:
            self._send_failure(
                _RouterFailure(
                    protocol.KIND_NOT_FOUND, f"unknown endpoint /{endpoint}"
                )
            )
            return
        try:
            status, headers, body = router.forward(
                endpoint, self.body, self.headers
            )
        except _RouterFailure as failure:
            self._send_failure(failure)
            return
        self.send(status, body, headers)


def serve_sharded(config: RouterConfig | None = None) -> None:
    """Blocking entry point (``bagcq serve --shards N``)."""
    router = ShardRouter(config)
    router.start()
    host, port = router.address
    print(
        f"bagcq router listening on http://{host}:{port} "
        f"({router.config.shards} shards)",
        flush=True,
    )
    # A bare SIGTERM (``kill``, process managers, CI traps) would kill
    # the router outright and orphan every worker subprocess; route it
    # through the same drain path as Ctrl-C.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("draining shards…", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        router.close()
