"""The traced pass: a per-layer ledger measured from outside the program.

A fixed prefix of a workload's stream is replayed single-threaded in the
bench process, with fresh caches, through the public functions the
server's worker calls — in the worker's order as of this writing:

1. ``json.loads``, then the ``repro.io`` decoders;
2. ``protocol.request_key``;
3. per component: ``select_for``, ``component_cache_key``,
   ``CountCache.lookup``, then either ``compiled_supported`` →
   ``PlanCache.compiled_artifact`` → ``artifact.run()`` or the engine
   function, then ``CountCache.store`` (``/contain`` goes through
   ``cq_containment``, ``/update`` through ``DatabaseRegistry.update``);
4. building and ``json.dumps``-ing the response.

Each call is one span ``[name, start, end, parent, request]``, kept in
memory and written out at the end.  A layer's self time is its spans'
durations minus their children's.  The pass cannot see HTTP parsing,
admission, queueing, thread hand-off or GIL contention between the
server's threads — the untraced run's ``/metrics`` numbers cover those —
and it mirrors ``engine._dispatch`` as written today: when the program
changes its call order, this mirror must change with it.
"""

from __future__ import annotations

import json
import time

from repro.containment_set import cq_containment, default_containment_cache
from repro.homomorphism import (
    CountCache,
    compile_component,
    compiled_supported,
    count_homomorphisms,
    count_homomorphisms_acyclic,
    count_homomorphisms_td,
)
from repro.homomorphism.backtracking import ensure_stack_for
from repro.homomorphism.cache import canonical_component, component_cache_key
from repro.io import delta_from_dict, query_from_dict, structure_from_dict
from repro.obs import activate
from repro.obs.metrics import Registry
from repro.planner import select_for
from repro.planner.plan import default_plan_cache
from repro.service import PROTOCOL_VERSION, DatabaseRegistry
from repro.service.protocol import request_key

from streams import DB_NAME, UPDATE_EVERY, Stream, http_body

__all__ = ["LAYERS", "Tracer", "ledger"]

#: Every span name below the per-request root, i.e. every layer.
LAYERS = (
    "io.decode",
    "canonicalize",
    "engine.decompose",
    "planner.select",
    "cache.lookup",
    "compiled.lookup",
    "compiled.build",
    "engine.run",
    "cache.store",
    "contain.cq",
    "delta.apply",
    "io.encode",
)

_INTERPRETERS = {
    "backtracking": count_homomorphisms,
    "treewidth": count_homomorphisms_td,
    "acyclic": count_homomorphisms_acyclic,
}


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> list:
        tracer = self._tracer
        stack = tracer.stack
        record = [self._name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request]
        self._index = len(tracer.spans)
        stack.append(self._index)
        tracer.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self._tracer.spans[self._index][2] = end
        self._tracer.stack.pop()


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, request]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, children):
            totals[name] = totals.get(name, 0.0) + (end - start - covered)
        return totals


class _Untraced:
    """The tracer's interface at (almost) no cost, for the overhead baseline."""

    request = -1

    def span(self, name: str) -> "_Untraced":
        return self

    def __enter__(self) -> list:
        return [None]

    def __exit__(self, *exc_info) -> None:
        return None


class _Worker:
    """A fresh copy of the server worker's state, called as it calls it."""

    def __init__(self, stream: Stream, tracer) -> None:
        default_plan_cache().clear()
        default_containment_cache().clear()
        self.cache = CountCache()
        self.databases = DatabaseRegistry(self.cache)
        if stream.database is not None:
            self.databases.load(DB_NAME, stream.database.structure)
        self.span = tracer.span

    def handle(self, endpoint: str, raw: bytes):
        """One request body in, its answer out (the response is encoded
        and discarded, as the server would send it)."""
        span = self.span
        with span("io.decode"):
            body = json.loads(raw)
            if endpoint == "update":
                delta = delta_from_dict(body["delta"])
            elif endpoint == "contain":
                phi_s = query_from_dict(body["phi_s"])
                phi_b = query_from_dict(body["phi_b"])
            else:
                query = query_from_dict(body["query"])
                structure = (
                    structure_from_dict(body["structure"])
                    if "structure" in body
                    else None
                )
        if endpoint == "update":
            with span("canonicalize"):
                request_key("update", extra=(DB_NAME, object()))
            with span("delta.apply"):
                report = self.databases.update(DB_NAME, delta)
            with span("io.encode"):
                json.dumps(
                    {
                        "protocol_version": PROTOCOL_VERSION,
                        "db": DB_NAME,
                        "version": report.version,
                        "fingerprint": report.fingerprint,
                        "touched_relations": list(report.touched_relations),
                        "domain_changed": report.domain_changed,
                        "invalidated": report.invalidated,
                        "migrated": report.migrated,
                        "refreshed_artifacts": report.refreshed_artifacts,
                    }
                )
            return report.version
        if endpoint == "contain":
            with span("canonicalize"):
                request_key(
                    "contain",
                    engine="auto",
                    query=phi_s,
                    extra=(canonical_component(phi_b), True, True),
                )
            with span("contain.cq"):
                verdict = cq_containment(
                    phi_s,
                    phi_b,
                    engine="auto",
                    cache=default_containment_cache(),
                    count_cache=self.cache,
                    want_witness=True,
                )
            with span("io.encode"):
                json.dumps(
                    {
                        "protocol_version": PROTOCOL_VERSION,
                        "kind": "cq",
                        **verdict.to_dict(),
                    }
                )
            return verdict.contained
        database = None
        extra: tuple = (True,)
        if structure is None:
            database = self.databases.get(DB_NAME)
            structure = database.structure
            extra = (True, DB_NAME, database.version)
        with span("canonicalize"):
            request_key(
                "evaluate",
                engine="auto",
                query=query,
                structure=structure,
                extra=extra,
            )
        value = self._count(query, structure)
        with span("io.encode"):
            response = {
                "protocol_version": PROTOCOL_VERSION,
                "kind": "cq",
                "engine": "auto",
                "count": value,
            }
            if database is not None:
                response.update(
                    db=DB_NAME,
                    version=database.version,
                    fingerprint=structure.fingerprint(),
                )
            json.dumps(response)
        return value

    def _count(self, query, structure) -> int:
        """``engine.count`` → ``_count_components`` with ``engine="auto"``."""
        with self.span("engine.decompose"):
            components = query.connected_components()
        if len(components) <= 1:
            components = [query]
        total = 1
        for component in components:
            total *= self._dispatch(component, structure)
            if total == 0:
                return 0
        return total

    def _dispatch(self, component, structure) -> int:
        """``engine._dispatch`` under ``auto``, one span per call."""
        span = self.span
        with span("planner.select"):
            engine = select_for(component, structure).engine
        with span("canonicalize"):
            key = component_cache_key(component, structure, engine)
        with span("cache.lookup"):
            hit = self.cache.lookup(key)
        if hit is not None:
            return hit
        if engine == "compiled" and compiled_supported(component, structure):
            ensure_stack_for(component)
            with span("compiled.lookup") as record:
                artifact, was_hit = default_plan_cache().compiled_artifact(
                    component, structure, compile_component
                )
                if not was_hit:
                    record[0] = "compiled.build"
            with span("engine.run"):
                value = artifact.run()
        else:
            interpreter = _INTERPRETERS.get(engine, count_homomorphisms)
            with span("engine.run"):
                value = interpreter(component, structure)
        with span("cache.store"):
            self.cache.store(key, value)
        return value


def _replay(stream: Stream, requests: int, tracer) -> tuple[float, int]:
    """Warm up, then replay the prefix; ``(seconds inside requests, wrong)``.

    Only the traced replay checks answers: every count against the
    reference, every read against the version the replica is at.
    """
    worker = _Worker(stream, tracer)
    checking = isinstance(tracer, Tracer)
    history = (
        stream.database.history(
            {update + 1: update for update in range(requests // UPDATE_EVERY + 1)}
        )
        if stream.database is not None and checking
        else None
    )
    wire = []
    for index in range(requests):
        request = stream.request(index)
        endpoint, body = http_body(request)
        wire.append((request, endpoint, json.dumps(body).encode("utf-8")))
    inside = 0.0
    wrong = 0
    with activate(Registry()):
        for request in stream.warmup():
            endpoint, body = http_body(request)
            worker.handle(endpoint, json.dumps(body).encode("utf-8"))
        if checking:
            tracer.spans.clear()  # the ledger covers the prefix only
        for request, endpoint, raw in wire:
            tracer.request = request.index
            started = time.perf_counter()
            with tracer.span("request"):
                answer = worker.handle(endpoint, raw)
            inside += time.perf_counter() - started
            if not checking:
                continue
            if request.kind == "read":
                version = worker.databases.get(DB_NAME).version
                expected = history.count_at(version)
            elif request.kind == "update":
                expected = request.ref[1] + 1
            else:
                expected = stream.answer(request.ref)
            wrong += answer != expected
    return inside, wrong


def ledger(stream: Stream, requests: int) -> tuple[dict[str, float], Tracer, int]:
    """Trace ``requests`` requests of ``stream``: ``(metrics, tracer, wrong)``.

    Metrics are each layer's self time in ms per request, plus
    ``trace.coverage`` (layer self time ÷ traced time inside requests)
    and ``trace.overhead_pct`` (traced against untraced replay of the
    same prefix, both from fresh caches).
    """
    untraced, _ = _replay(stream, requests, _Untraced())
    tracer = Tracer()
    traced, wrong = _replay(stream, requests, tracer)
    totals = tracer.self_times()
    metrics = {
        f"{layer}_ms": totals.get(layer, 0.0) * 1000.0 / requests
        for layer in LAYERS
    }
    metrics["trace.coverage"] = sum(totals.get(layer, 0.0) for layer in LAYERS) / traced
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    return metrics, tracer, wrong
