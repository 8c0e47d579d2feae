"""Metric arithmetic: exact quantiles, client-side end-to-end metrics,
and per-layer metrics derived from two ``GET /metrics`` scrapes.

Everything here is a pure function of its inputs, so the self-tests can
check it on canned data.
"""

from __future__ import annotations

import math

__all__ = [
    "ENGINES",
    "client_metrics",
    "metrics_delta",
    "quantile",
    "server_layers",
]

#: Engines whose dispatch shares ``engine.share.<engine>`` reports.
ENGINES = ("backtracking", "treewidth", "acyclic", "compiled")

#: Server endpoints the workloads send to.
ENDPOINTS = ("evaluate", "contain", "update")


def quantile(values, q: float) -> float:
    """The exact ``q``-quantile of ``values``: linear interpolation
    between the two closest ranks (the "type 7" estimator)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ms_quantile(seconds: list[float], q: float) -> float:
    return quantile(seconds, q) * 1000.0 if seconds else 0.0


def client_metrics(samples, elapsed: float) -> dict[str, float]:
    """End-to-end metrics from the raw client samples of one window.

    Latency percentiles cover successful requests only, excluding
    updates and heavy requests (they have their own metrics); failures
    count only in ``error_rate``.
    """
    ok = [sample for sample in samples if sample.outcome == "ok"]
    latencies = [s.latency for s in ok if s.kind not in ("update", "heavy")]
    updates = [s.latency for s in ok if s.kind == "update"]
    return {
        "throughput_rps": len(ok) / elapsed,
        "latency_p50_ms": _ms_quantile(latencies, 0.50),
        "latency_p99_ms": _ms_quantile(latencies, 0.99),
        "update_p50_ms": _ms_quantile(updates, 0.50),
        "update_p95_ms": _ms_quantile(updates, 0.95),
        "error_rate": (len(samples) - len(ok)) / len(samples),
        "lag_p99_ms": _ms_quantile([s.lag for s in samples], 0.99),
    }


def metrics_delta(before: dict, after: dict) -> dict[str, dict]:
    """Counter and histogram deltas between two ``/metrics`` payloads.

    Counters become ``{"value": Δ}``; histograms become
    ``{"count": Δ, "total_ms": Δ}``.  Gauges are not deltas and are
    dropped.  A metric first registered between the scrapes counts from
    zero.
    """
    old = before["metrics"]
    delta = {}
    for name, entry in after["metrics"].items():
        previous = old.get(name, {})
        if entry["type"] == "counter":
            delta[name] = {"value": entry["value"] - previous.get("value", 0)}
        elif entry["type"] == "histogram":
            delta[name] = {
                "count": entry["count"] - previous.get("count", 0),
                "total_ms": entry["total_ms"] - previous.get("total_ms", 0.0),
            }
    return delta


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def server_layers(delta: dict[str, dict], client_mean_ms: float) -> dict[str, float]:
    """The per-layer metrics measured from outside: one window's
    ``/metrics`` delta plus the client's mean latency over the same
    requests (all outcomes, as the server's histograms see them)."""

    def counter(name: str) -> float:
        return delta.get(name, {}).get("value", 0)

    def histograms(prefix: str) -> tuple[int, float]:
        count = sum(delta.get(f"{prefix}.{e}", {}).get("count", 0) for e in ENDPOINTS)
        total = sum(
            delta.get(f"{prefix}.{e}", {}).get("total_ms", 0.0) for e in ENDPOINTS
        )
        return count, total

    def mean(name: str) -> float:
        entry = delta.get(name, {})
        return _ratio(entry.get("total_ms", 0.0), entry.get("count", 0))

    request_count, request_total = histograms("service.request_ms")
    busy_count, busy_total = histograms("service.time")
    request_mean = _ratio(request_total, request_count)
    requests = counter("service.requests")
    dispatches = {e: counter(f"engine.dispatch.{e}") for e in ENGINES}
    engine_total = sum(
        delta.get(f"engine.time.{e}", {}).get("total_ms", 0.0) for e in ENGINES
    )
    migrated = counter("delta.migrated")
    reused = counter("delta.reused_factors")
    layers = {
        "service.transport_ms": client_mean_ms - request_mean,
        "service.handoff_ms": request_mean - _ratio(busy_total, busy_count),
        "service.evaluate_ms": _ratio(busy_total, busy_count),
        "service.coalesced_ratio": _ratio(counter("service.coalesced"), requests),
        "cache.hit_ratio": _ratio(
            counter("cache.hits"), counter("cache.hits") + counter("cache.misses")
        ),
        "plan.profile_hit_ratio": _ratio(
            counter("plan.cache_hits"),
            counter("plan.cache_hits") + counter("plan.cache_misses"),
        ),
        "compiled.artifact_hit_ratio": _ratio(
            counter("plan.compile.cache_hits"),
            counter("plan.compile.cache_hits") + counter("plan.compile.cache_misses"),
        ),
        "engine.count_ms": _ratio(engine_total, requests),
        "delta.update_ms": mean("service.time.update"),
        "delta.migrated_ratio": _ratio(
            migrated, migrated + counter("delta.invalidations")
        ),
        "delta.reused_factor_ratio": _ratio(
            reused, reused + counter("delta.affected_components")
        ),
        "contain.decide_ms": mean("service.time.contain"),
        "contain.cache.hit_ratio": _ratio(
            counter("contain.cache.hits"),
            counter("contain.cache.hits") + counter("contain.cache.misses"),
        ),
    }
    for engine, dispatched in dispatches.items():
        layers[f"engine.share.{engine}"] = _ratio(
            dispatched, sum(dispatches.values())
        )
    return layers
