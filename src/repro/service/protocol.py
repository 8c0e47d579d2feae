"""The wire protocol: versioned error envelope and single-flight keys.

Client and server share this module, so there is exactly one definition
of what an error looks like on the wire and of when two requests are
"the same work".

**Error envelope.**  Every non-2xx response body is::

    {
      "protocol_version": 1,
      "error": {
        "kind": "overloaded" | "deadline_exceeded" | "bad_request"
              | "not_found" | "method_not_allowed" | "shutting_down"
              | "internal" | "<BagCQError subclass name>",
        "message": "human-readable detail",
        "retry_after": 0.05 | null          # seconds, when retrying helps
      }
    }

Library errors travel with ``kind`` set to the *exception class name*
(``"EvaluationError"``, ``"ParseError"``, …), so a remote failure is
classifiable exactly like a local one — the remote-vs-local parity tests
assert ``kind == type(local_error).__name__`` bit for bit.

**Single-flight keys.**  :func:`request_key` maps a parsed request to a
hashable identity built on :func:`repro.homomorphism.cache.canonical_component`
— the same α-equivalence discipline that keys the
:class:`~repro.homomorphism.cache.CountCache` — so two concurrent
requests coalesce precisely when their evaluations would have shared a
cache entry anyway (same canonical query, same structure, same engine).
"""

from __future__ import annotations

import os
import random
from typing import Any

from repro.errors import BagCQError
from repro.homomorphism.cache import canonical_component
from repro.queries.cq import ConjunctiveQuery
from repro.relational.structure import Structure

__all__ = [
    "ATTEMPT_HEADER",
    "BadRequestError",
    "ENDPOINT_NAMES",
    "PROTOCOL_VERSION",
    "REQUEST_ID_HEADER",
    "RETRYABLE_KINDS",
    "TRACE_ID_HEADER",
    "clean_id",
    "error_envelope",
    "error_from_exception",
    "is_error_envelope",
    "mint_id",
    "parse_error_envelope",
    "request_key",
    "stamp_ids",
    "status_for_kind",
]

PROTOCOL_VERSION = 1

#: The POST endpoints that evaluate, one per parser in
#: :data:`repro.service.handlers.ENDPOINTS`.  The names live here so that
#: routing them (the shard router) loads no handler.
ENDPOINT_NAMES = ("evaluate", "explain", "decide", "contain", "db", "update")

# -- request identity headers ----------------------------------------------

#: One *trace* groups every request of a logical operation (a client
#: session, a load-generator scenario); one *request id* names a single
#: logical request — **reused across retries**, so server-side counters
#: and traces see a retried request as one caller, not several.
TRACE_ID_HEADER = "X-Trace-Id"
REQUEST_ID_HEADER = "X-Request-Id"
#: 0-based retry attempt of this send (debugging aid; the server relies
#: on request-id reuse, not on this header, to recognize retries).
ATTEMPT_HEADER = "X-Request-Attempt"

_ID_ALPHABET = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)
_MAX_ID_LENGTH = 64


def mint_id(rng: random.Random | None = None) -> str:
    """A fresh 16-hex-char identifier; seedable for reproducible clients."""
    if rng is not None:
        return f"{rng.getrandbits(64):016x}"
    return os.urandom(8).hex()


def clean_id(value: Any) -> str | None:
    """``value`` as a usable id, or ``None`` when absent or malformed.

    Tolerant by design — a proxy-mangled header degrades to a
    server-minted id rather than a rejected request — but bounded, so a
    hostile header cannot smuggle unbounded or unprintable bytes into
    traces and envelopes.
    """
    if not isinstance(value, str):
        return None
    value = value.strip()
    if not value or len(value) > _MAX_ID_LENGTH:
        return None
    if not set(value) <= _ID_ALPHABET:
        return None
    return value


def stamp_ids(payload: dict, trace_id: str, request_id: str) -> dict:
    """A copy of ``payload`` carrying the request's identity.

    Copy, never mutate: coalesced waiters share one result (and one
    pre-built error envelope), so stamping in place would leak one
    waiter's ids into another's response.  Error envelopes are stamped
    inside ``"error"``; everything else at top level.
    """
    stamped = dict(payload)
    if is_error_envelope(stamped):
        entry = dict(stamped["error"])
        entry["trace_id"] = trace_id
        entry["request_id"] = request_id
        stamped["error"] = entry
    else:
        stamped["trace_id"] = trace_id
        stamped["request_id"] = request_id
    return stamped

#: Service-level error kinds (library errors use their class names).
KIND_OVERLOADED = "overloaded"
KIND_DEADLINE = "deadline_exceeded"
KIND_BAD_REQUEST = "bad_request"
KIND_NOT_FOUND = "not_found"
KIND_METHOD = "method_not_allowed"
KIND_SHUTTING_DOWN = "shutting_down"
KIND_INTERNAL = "internal"

#: Kinds a client may transparently retry (the condition is transient).
RETRYABLE_KINDS = frozenset({KIND_OVERLOADED, KIND_SHUTTING_DOWN})

_STATUS_BY_KIND = {
    KIND_OVERLOADED: 429,
    KIND_DEADLINE: 504,
    KIND_BAD_REQUEST: 400,
    KIND_NOT_FOUND: 404,
    KIND_METHOD: 405,
    KIND_SHUTTING_DOWN: 503,
    KIND_INTERNAL: 500,
}

#: Library (BagCQError) failures are the *request's* fault, not the
#: server's: the envelope travels with 422 Unprocessable Content.
LIBRARY_ERROR_STATUS = 422


class BadRequestError(BagCQError):
    """A request body is structurally malformed (missing/mistyped fields).

    Travels as ``kind="bad_request"`` / HTTP 400 — distinct from library
    errors (a well-formed body whose *content* the library rejects keeps
    the exception class name and goes out as 422, preserving
    remote-vs-local error-class parity).
    """


def status_for_kind(kind: str) -> int:
    """The HTTP status code the server sends for an error ``kind``."""
    return _STATUS_BY_KIND.get(kind, LIBRARY_ERROR_STATUS)


def error_envelope(
    kind: str, message: str, retry_after: float | None = None
) -> dict:
    """The canonical JSON body of a failed request."""
    return {
        "protocol_version": PROTOCOL_VERSION,
        "error": {
            "kind": kind,
            "message": message,
            "retry_after": retry_after,
        },
    }


def error_from_exception(
    error: BaseException, retry_after: float | None = None
) -> dict:
    """Envelope for a library exception: ``kind`` is the class name."""
    if isinstance(error, BadRequestError):
        kind = KIND_BAD_REQUEST
    elif isinstance(error, BagCQError):
        kind = type(error).__name__
    else:
        kind = KIND_INTERNAL
    return error_envelope(kind, str(error), retry_after)


def is_error_envelope(body: Any) -> bool:
    """Does ``body`` look like a protocol error envelope?"""
    return (
        isinstance(body, dict)
        and isinstance(body.get("error"), dict)
        and "kind" in body["error"]
    )


def parse_error_envelope(body: Any) -> tuple[str, str, float | None]:
    """``(kind, message, retry_after)`` from an envelope, tolerantly.

    A malformed envelope (e.g. a proxy's HTML error page) degrades to
    ``kind="internal"`` instead of raising — the client still needs a
    classification to decide whether to retry.
    """
    if is_error_envelope(body):
        entry = body["error"]
        retry_after = entry.get("retry_after")
        if retry_after is not None:
            try:
                retry_after = float(retry_after)
            except (TypeError, ValueError):
                retry_after = None
        return str(entry["kind"]), str(entry.get("message", "")), retry_after
    return KIND_INTERNAL, f"malformed error body: {body!r}", None


# -- single-flight request identity ----------------------------------------


def _query_key(query: ConjunctiveQuery) -> ConjunctiveQuery:
    return canonical_component(query)


def request_key(
    endpoint: str,
    *,
    engine: str = "auto",
    query: ConjunctiveQuery | None = None,
    disjuncts: tuple[tuple[ConjunctiveQuery, int], ...] | None = None,
    structure: Structure | None = None,
    extra: tuple = (),
) -> tuple:
    """A hashable identity for one unit of server work.

    Two requests with equal keys are guaranteed to produce the same
    response body (a bijective variable renaming never changes a count,
    a plan's engine choices, or a search verdict), so the server may
    evaluate one and fan the result out to all of them.

    The structure enters through its *fingerprint vector*, not by deep
    equality: cheaper to hash, and version-correct for server-resident
    databases — the same named database at two versions produces two
    different keys, so requests racing an ``/update`` never coalesce
    across versions.
    """
    parts: list = [endpoint, engine]
    if query is not None:
        parts.append(_query_key(query))
    if disjuncts is not None:
        parts.append(
            tuple(
                (_query_key(disjunct), multiplicity)
                for disjunct, multiplicity in disjuncts
            )
        )
    parts.append(
        None if structure is None else structure.fingerprint_vector()
    )
    parts.extend(extra)
    return tuple(parts)
