"""``repro.service`` — a long-running, shared-cache evaluation daemon.

The library evaluates one query per process invocation; the ROADMAP's
serving goal needs the opposite shape: a warm process that amortizes the
:class:`~repro.homomorphism.cache.CountCache` and the planner's
:class:`~repro.planner.analyze.PlanCache` across millions of requests.
This package provides exactly that, on the standard library alone:

* :class:`EvaluationServer` (``server.py``) — an HTTP/1.1 front
  (``wire.py``, on ``socketserver``; the shard router shares it) over a
  bounded worker pool, with admission control (bounded queue,
  structured 429 shedding), **single-flight coalescing** of
  identical in-flight requests keyed by the canonicalization discipline
  the caches already use, per-request deadlines, request-scoped tracing
  (``X-Trace-Id``/``X-Request-Id`` in and out, a bounded flight recorder
  behind ``GET /traces``), per-endpoint latency histograms, ``/healthz``
  and ``/metrics``, and graceful drain on shutdown.
* :class:`ServiceClient` (``client.py``) — a small blocking client with
  retry + exponential backoff + jitter, honoring ``Retry-After``; it
  mints the trace/request ids and reuses the request id across retries.
* ``protocol.py`` — the versioned JSON error envelope, the request
  identity headers, and the single-flight request keys both sides agree
  on.
* ``handlers.py`` — the transport-free request handlers mapping JSON
  bodies onto :func:`repro.homomorphism.engine.count` /
  :func:`~repro.homomorphism.engine.count_ucq`, :func:`repro.planner.plan`
  and :func:`repro.decision.search.find_counterexample`.

Wire commands: ``bagcq serve`` starts a daemon, ``bagcq call`` drives
one from the shell.  See ``docs/SERVICE.md`` for the endpoint and
tuning reference.
"""

from repro import _lazy

#: Where each re-exported name lives.  Resolved on first attribute access
#: (PEP 562), as in the package root, so importing one submodule runs
#: this file without loading its siblings: ``bagcq serve`` loads the
#: server, not the client's ``urllib`` stack.
_EXPORTS = {
    "DatabaseRegistry": "repro.service.databases",
    "DeadlineExceeded": "repro.service.client",
    "EvaluationServer": "repro.service.server",
    "NamedDatabase": "repro.service.databases",
    "PROTOCOL_VERSION": "repro.service.protocol",
    "REQUEST_ID_HEADER": "repro.service.protocol",
    "RemoteError": "repro.service.client",
    "RequestContext": "repro.service.server",
    "ServerConfig": "repro.service.server",
    "ServiceClient": "repro.service.client",
    "ServiceProtocolError": "repro.service.client",
    "ServiceUnavailable": "repro.service.client",
    "TRACE_ID_HEADER": "repro.service.protocol",
    "error_envelope": "repro.service.protocol",
    "error_from_exception": "repro.service.protocol",
    "serve": "repro.service.server",
    "status_for_kind": "repro.service.protocol",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
