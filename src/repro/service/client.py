"""``ServiceClient`` — a small, retrying HTTP client for the daemon.

Retry policy: connection-level failures (refused, reset, dropped) and
retryable protocol kinds (``overloaded``, ``shutting_down``) are retried
up to ``retries`` times with exponential backoff and full jitter; a
server ``Retry-After`` hint (header or envelope field) overrides the
computed backoff for that attempt.  Everything else — library errors,
bad requests, deadline exhaustion — is surfaced immediately as a typed
exception carrying the envelope's ``kind``, because retrying a
deterministic failure only wastes the server's admission budget.

Request identity: the client mints one ``trace_id`` per instance (its
session) and one ``request_id`` per logical request, and **reuses the
request id across retries** — so the server's ``logical_requests``
counter sees a retried request as one caller, and its traces link the
attempts.  Seeded clients (``seed=``) mint reproducible ids.

The client is deliberately blocking and dependency-free (``urllib``):
one instance per thread is the intended usage, and the jitter RNG is
injectable (``seed=``) so tests and benchmarks stay reproducible.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from http.client import HTTPException
from typing import Any

from repro.errors import BagCQError
from repro.io import delta_to_dict, query_to_dict, structure_to_dict
from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery
from repro.relational.structure import Delta, Structure
from repro.service import protocol

__all__ = [
    "DeadlineExceeded",
    "RemoteError",
    "ServiceClient",
    "ServiceError",
    "ServiceProtocolError",
    "ServiceUnavailable",
]


class ServiceError(BagCQError):
    """Base class of everything the client raises about the service."""

    def __init__(
        self,
        message: str,
        kind: str = protocol.KIND_INTERNAL,
        status: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.status = status
        self.retry_after = retry_after


class ServiceUnavailable(ServiceError):
    """Shed (429), draining (503), or unreachable after all retries."""


class DeadlineExceeded(ServiceError):
    """The server gave up on the request at its deadline (504)."""


class RemoteError(ServiceError):
    """A library error on the server; ``kind`` is the exception class name.

    Parity contract: for the same input, ``kind`` equals
    ``type(error).__name__`` of the exception a local call would raise.
    """


class ServiceProtocolError(ServiceError):
    """The response was not something this protocol version understands."""


def _encode_query(query: Any, field: str, body: dict) -> None:
    if isinstance(query, ConjunctiveQuery):
        body[field] = query_to_dict(query)
    elif isinstance(query, dict):
        body[field] = query
    elif isinstance(query, str):
        body[f"{field}_text"] = query
    else:
        raise ServiceProtocolError(
            f"{field} must be a ConjunctiveQuery, io dict, or query text; "
            f"got {type(query).__name__}"
        )


def _encode_structure(structure: Any, body: dict) -> None:
    if isinstance(structure, Structure):
        body["structure"] = structure_to_dict(structure)
    elif isinstance(structure, dict):
        body["structure"] = structure
    elif isinstance(structure, str):
        body["facts"] = structure
    else:
        raise ServiceProtocolError(
            f"structure must be a Structure, io dict, or facts text; "
            f"got {type(structure).__name__}"
        )


class ServiceClient:
    """A blocking client for one ``bagcq serve`` base URL.

    >>> client = ServiceClient("http://127.0.0.1:8642")   # doctest: +SKIP
    >>> client.evaluate("E(x,y) & E(y,x)", "E(a,b) E(b,a)")  # doctest: +SKIP
    2
    """

    def __init__(
        self,
        base_url: str,
        retries: int = 4,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        timeout_s: float = 120.0,
        seed: int | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.timeout_s = timeout_s
        self._rng = random.Random(seed)
        self._id_rng = random.Random(seed) if seed is not None else None
        #: One trace groups everything this client instance sends.
        self.trace_id = protocol.mint_id(self._id_rng)
        #: Identity of the most recent logical request (for correlating
        #: a client-side failure with the server's /traces view).
        self.last_request_id: str | None = None

    # -- endpoints ---------------------------------------------------------

    def evaluate(
        self,
        query,
        structure=None,
        engine: str = "auto",
        deadline_ms: int | None = None,
        cache: bool = True,
        db: str | None = None,
    ) -> int:
        """Remote ``count(query, structure)``; returns the exact integer.

        Pass ``db="name"`` instead of a structure to evaluate a
        server-resident database loaded with :meth:`load_db`.
        """
        body: dict = {"kind": "cq", "engine": engine, "cache": cache}
        _encode_query(query, "query", body)
        self._encode_target(structure, db, body)
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return int(self._post("evaluate", body)["count"])

    def evaluate_ucq(
        self,
        disjuncts,
        structure=None,
        engine: str = "auto",
        deadline_ms: int | None = None,
        cache: bool = True,
        db: str | None = None,
    ) -> int:
        """Remote ``count_ucq``: ``disjuncts`` is ``[(query, multiplicity)]``."""
        encoded = []
        for disjunct, multiplicity in disjuncts:
            entry: dict = {"multiplicity": multiplicity}
            _encode_query(disjunct, "query", entry)
            encoded.append(entry)
        body: dict = {
            "kind": "ucq",
            "engine": engine,
            "cache": cache,
            "disjuncts": encoded,
        }
        self._encode_target(structure, db, body)
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return int(self._post("evaluate", body)["count"])

    @staticmethod
    def _encode_target(structure, db: str | None, body: dict) -> None:
        """Exactly one evaluation target: inline structure or named db."""
        if (structure is None) == (db is None):
            raise ServiceProtocolError(
                "give exactly one of structure= or db="
            )
        if db is not None:
            body["db"] = db
        else:
            _encode_structure(structure, body)

    def load_db(
        self,
        name: str,
        structure,
        engine: str = "auto",
        deadline_ms: int | None = None,
    ) -> dict:
        """``POST /db``: (re)bind a named server-resident database.

        Returns the server's snapshot: ``version`` (0 on a fresh bind),
        ``fingerprint``, ``fact_count``, ``domain_size``, ``engine``.
        """
        body: dict = {"name": name, "engine": engine}
        _encode_structure(structure, body)
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return self._post("db", body)

    def update(
        self,
        db: str,
        delta=None,
        insert: str | None = None,
        delete: str | None = None,
        deadline_ms: int | None = None,
    ) -> dict:
        """``POST /update``: apply a delta to a named database.

        ``delta`` may be a :class:`~repro.relational.structure.Delta` or
        an io delta dict; ``insert``/``delete`` take ground-atom text
        (``"E(a,b); E(b,c)"``) instead.  Returns the delta report: new
        ``version`` and ``fingerprint``, plus ``migrated`` /
        ``invalidated`` / ``refreshed_artifacts`` cache effects.

        Updates are not idempotent and the server never coalesces them;
        the retry policy only re-sends on *pre-admission* failures
        (shed/draining), but a connection lost after admission may leave
        the update applied without a response — check ``version`` via
        :meth:`healthz` when in doubt.
        """
        body: dict = {"db": db}
        if delta is not None:
            if isinstance(delta, Delta):
                body["delta"] = delta_to_dict(delta)
            elif isinstance(delta, dict):
                body["delta"] = delta
            else:
                raise ServiceProtocolError(
                    f"delta must be a Delta or io dict, "
                    f"got {type(delta).__name__}"
                )
        if insert is not None:
            body["insert"] = insert
        if delete is not None:
            body["delete"] = delete
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return self._post("update", body)

    def explain(self, query, structure=None, deadline_ms: int | None = None) -> dict:
        """The machine-readable plan dict (see ``Plan.to_dict``)."""
        body: dict = {}
        _encode_query(query, "query", body)
        if structure is not None:
            _encode_structure(structure, body)
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return self._post("explain", body)

    def decide(
        self,
        phi_s,
        phi_b,
        multiplier: int = 1,
        additive: int = 0,
        domain_size: int = 3,
        density: float = 0.3,
        count: int = 100,
        seed: int = 0,
        max_candidates: int | None = None,
        engine: str = "auto",
        deadline_ms: int | None = None,
    ) -> dict:
        """Remote counterexample search over a seeded random stream."""
        body: dict = {
            "multiplier": multiplier,
            "additive": additive,
            "domain_size": domain_size,
            "density": density,
            "count": count,
            "seed": seed,
            "engine": engine,
        }
        _encode_query(phi_s, "phi_s", body)
        _encode_query(phi_b, "phi_b", body)
        if max_candidates is not None:
            body["max_candidates"] = max_candidates
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return self._post("decide", body)

    def contain(
        self,
        phi_s,
        phi_b,
        engine: str = "auto",
        witness: bool = True,
        cache: bool = True,
        deadline_ms: int | None = None,
    ) -> dict:
        """Remote set-semantics containment (``/contain``).

        Each side may be a query (``ConjunctiveQuery`` / io dict / text)
        for CQ ⊆ CQ, or a list of queries (a union's disjuncts) for
        UCQ ⊆ UCQ.  Returns the full verdict dict: ``contained``, the
        ``witness`` homomorphism on positive verdicts, the absence
        ``certificate`` on negative ones (and per-disjunct ``coverage``
        for unions).
        """
        body: dict = {"engine": engine, "witness": witness, "cache": cache}
        if isinstance(phi_s, (list, tuple)) or isinstance(phi_b, (list, tuple)):
            body["kind"] = "ucq"
            for side, field in ((phi_s, "disjuncts_s"), (phi_b, "disjuncts_b")):
                disjuncts = side if isinstance(side, (list, tuple)) else [side]
                encoded = []
                for disjunct in disjuncts:
                    entry: dict = {}
                    _encode_query(disjunct, "query", entry)
                    encoded.append(entry)
                body[field] = encoded
        else:
            body["kind"] = "cq"
            _encode_query(phi_s, "phi_s", body)
            _encode_query(phi_b, "phi_b", body)
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return self._post("contain", body)

    def healthz(self) -> dict:
        return self._request("GET", "healthz", None)

    def metrics(self) -> dict:
        return self._request("GET", "metrics", None)

    def traces(self) -> dict:
        """The server's flight recorder (``GET /traces``)."""
        return self._request("GET", "traces", None)

    def snapshot(self) -> dict:
        """``POST /snapshot``: sync the caches to the durable tier.

        A shard router fans it out to every shard; a server started
        without ``--snapshot-dir`` answers with a ``bad_request``.
        """
        return self._post("snapshot", {})

    # -- transport ---------------------------------------------------------

    def _post(self, endpoint: str, body: dict) -> dict:
        return self._request("POST", endpoint, body)

    def _backoff(self, attempt: int, hint: float | None) -> float:
        if hint is not None and hint >= 0:
            return hint
        ceiling = min(self.backoff_cap_s, self.backoff_s * (2**attempt))
        return self._rng.uniform(0, ceiling)  # full jitter

    def _request(self, method: str, endpoint: str, body: dict | None) -> dict:
        url = f"{self.base_url}/{endpoint}"
        payload = None if body is None else json.dumps(body).encode("utf-8")
        # One request id per *logical* request: every retry below resends
        # the same id, so server-side counters and traces see one caller.
        request_id = protocol.mint_id(self._id_rng)
        if method == "POST":
            # GET introspection (healthz/metrics/traces) must not clobber
            # the handle callers use to find their last POST in /traces.
            self.last_request_id = request_id
        for attempt in range(self.retries + 1):
            try:
                return self._once(method, url, payload, request_id, attempt)
            except ServiceUnavailable as error:
                # A bare ``raise``: an error kept past its ``except`` would
                # hold this frame through its traceback, a reference cycle.
                if attempt >= self.retries:
                    raise
                obs_metrics.add("service.client.retries")
                time.sleep(self._backoff(attempt, error.retry_after))
        raise AssertionError("unreachable")  # pragma: no cover

    def _once(
        self,
        method: str,
        url: str,
        payload: bytes | None,
        request_id: str,
        attempt: int,
    ) -> dict:
        request = urllib.request.Request(
            url,
            data=payload if method == "POST" else None,
            method=method,
            headers={
                "Content-Type": "application/json",
                protocol.TRACE_ID_HEADER: self.trace_id,
                protocol.REQUEST_ID_HEADER: request_id,
                protocol.ATTEMPT_HEADER: str(attempt),
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                raw = response.read()
        except urllib.error.HTTPError as error:
            self._raise_for_response(error)
            raise AssertionError("unreachable")  # pragma: no cover
        except (urllib.error.URLError, HTTPException, ConnectionError, OSError) as error:
            raise ServiceUnavailable(
                f"cannot reach {url}: {error}", kind="unreachable"
            ) from error
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ServiceProtocolError(
                f"non-JSON 200 response from {url}: {error}"
            ) from error

    def _raise_for_response(self, error: urllib.error.HTTPError) -> None:
        try:
            body = json.loads(error.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            body = None
        kind, message, retry_after = protocol.parse_error_envelope(body)
        header_hint = error.headers.get("Retry-After")
        if retry_after is None and header_hint is not None:
            try:
                retry_after = float(header_hint)
            except ValueError:
                retry_after = None
        if kind in protocol.RETRYABLE_KINDS:
            raise ServiceUnavailable(
                message, kind=kind, status=error.code, retry_after=retry_after
            ) from None
        if kind == protocol.KIND_DEADLINE:
            raise DeadlineExceeded(
                message, kind=kind, status=error.code, retry_after=retry_after
            ) from None
        if kind in (
            protocol.KIND_BAD_REQUEST,
            protocol.KIND_NOT_FOUND,
            protocol.KIND_METHOD,
            protocol.KIND_INTERNAL,
        ):
            raise ServiceProtocolError(
                message, kind=kind, status=error.code, retry_after=retry_after
            ) from None
        # Everything else is a library error travelling by class name.
        raise RemoteError(
            message, kind=kind, status=error.code, retry_after=retry_after
        ) from None
