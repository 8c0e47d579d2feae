"""Deadlines stop the count: engines, search and the service.

The engines check the installed flight's deadline where they already
loop (:mod:`repro.deadline`), so a count nobody waits for stops, frees
its worker and keeps nothing.  Covered here:

* every engine and the counterexample search stop at an installed
  deadline, and count exactly under one that does not expire;
* a compiled chain whose first step binds a single value still stops:
  the chain charges its work, not its first step's bindings;
* a stopped count stores nothing: no count-cache entry, no artifact in
  either segment, no durable file;
* the server cancels a flight only once every waiter's deadline has
  passed, answers every waiter of a cancelled flight with a 504, never
  cuts an ``/update``, and bounds ``/decide``.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from contextlib import contextmanager

import pytest

from repro.deadline import FLIGHT, check
from repro.decision.search import find_counterexample
from repro.errors import DeadlineExpired
from repro.homomorphism import count, count_homomorphisms_acyclic
from repro.homomorphism.cache import CountCache
from repro.homomorphism.compiled import compile_component
from repro.planner.plan import default_plan_cache
from repro.queries import parse_query
from repro.relational import Schema, Structure
from repro.service import (
    DeadlineExceeded,
    EvaluationServer,
    ServerConfig,
    ServiceClient,
    ServiceProtocolError,
)
from repro.service.handlers import ParsedRequest

#: The transitive tournament on 6 vertices, anchored at the single
#: vertex of ``S``: a compiled chain starts with ``S(x0)``, whose only
#: binding leads to millions of candidate bindings further down.
ANCHORED = parse_query(
    "S(x0) & "
    + " & ".join(
        f"E(x{i}, x{j})" for i in range(6) for j in range(i + 1, 6)
    )
)

#: The complete loop-free digraph on 24 vertices: ANCHORED counts
#: 23·22·21·20·19 homomorphisms on it, seconds of work for every engine.
DENSE = Structure(
    Schema.from_arities({"E": 2, "S": 1}),
    {
        "E": {(a, b) for a in range(24) for b in range(24) if a != b},
        "S": {(0,)},
    },
    domain=range(24),
)

PATH = parse_query("E(x, y) & E(y, z) & E(z, w)")
SMALL = Structure(
    Schema.from_arities({"E": 2}), {"E": [(0, 1), (1, 2), (2, 3), (3, 0)]}
)

DEADLINE_S = 0.05


class _Fixed:
    """A flight with a fixed deadline: it expires once it has passed."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.monotonic() + seconds

    def expire(self) -> None:
        raise DeadlineExpired("stopped at the test's deadline")


@contextmanager
def Deadline(seconds: float):
    """Install a fixed deadline ``seconds`` from now for the block."""
    token = FLIGHT.set(_Fixed(seconds))
    try:
        yield
    finally:
        FLIGHT.reset(token)


def _artifact_keys() -> set:
    return {key for key, _ in default_plan_cache().artifacts.items()}


def _stopped_within(seconds: float, thunk) -> float:
    """Run ``thunk`` under a ``seconds`` deadline; the time it took."""
    started = time.monotonic()
    with pytest.raises(DeadlineExpired):
        with Deadline(seconds):
            thunk()
    return time.monotonic() - started


def _count(query, structure, engine: str) -> int:
    """``count`` by ``engine``; ``"acyclic"`` names the Yannakakis
    reference counter."""
    if engine == "acyclic":
        return count_homomorphisms_acyclic(query, structure)
    return count(query, structure, engine=engine)


class TestEngines:
    @pytest.mark.parametrize(
        "engine", ["backtracking", "compiled", "treewidth", "auto"]
    )
    def test_heavy_count_stops_within_twice_its_deadline(self, engine):
        elapsed = _stopped_within(
            DEADLINE_S, lambda: count(ANCHORED, DENSE, engine=engine)
        )
        assert elapsed < 2 * DEADLINE_S + 0.05

    def test_chain_with_one_first_binding_is_cancelled(self):
        default_plan_cache().clear()
        cache = CountCache()
        elapsed = _stopped_within(
            DEADLINE_S,
            lambda: count(ANCHORED, DENSE, engine="compiled", cache=cache),
        )
        assert elapsed < 2 * DEADLINE_S + 0.05
        # Nothing of the stopped count is kept: no count, no artifact.
        assert len(cache) == 0
        assert default_plan_cache().artifacts.stats()["entries"] == 0

    @pytest.mark.parametrize("engine", ["acyclic", "compiled"])
    def test_yannakakis_checks_every_pass(self, engine):
        with pytest.raises(DeadlineExpired):
            with Deadline(-1.0):
                _count(PATH, SMALL, engine)

    @pytest.mark.parametrize(
        "engine", ["backtracking", "compiled", "treewidth", "acyclic"]
    )
    def test_live_deadline_counts_exactly(self, engine):
        with Deadline(60.0):
            assert _count(PATH, SMALL, engine) == count(PATH, SMALL)

    def test_reused_artifact_stays_when_its_count_is_stopped(self):
        cache = default_plan_cache()
        cache.clear()
        artifact, hit = cache.compiled_artifact(PATH, SMALL, compile_component)
        assert not hit
        again, hit = cache.compiled_artifact(PATH, SMALL, compile_component)
        assert hit and again is artifact  # reused: now in the main LRU
        assert not cache.artifacts.discard_probation(artifact)
        assert cache.artifacts.stats()["entries"] == 1
        # A first build waits in probation, and leaves it when stopped.
        fresh, hit = cache.compiled_artifact(PATH, DENSE, compile_component)
        assert not hit
        assert cache.artifacts.stats()["probation"] == 1
        assert cache.artifacts.discard_probation(fresh)
        stats = cache.artifacts.stats()
        assert (stats["entries"], stats["probation"]) == (1, 0)


class TestSearch:
    @pytest.mark.parametrize("batched", [False, True])
    def test_search_checks_every_candidate(self, batched):
        phi = parse_query("E(x, y)")
        endless = itertools.repeat(SMALL)
        elapsed = _stopped_within(
            DEADLINE_S,
            lambda: find_counterexample(
                phi, phi, endless, engine="backtracking",
                cache=CountCache() if batched else None,
            ),
        )
        assert elapsed < 2 * DEADLINE_S + 0.05


# -- the service -----------------------------------------------------------


def _tournament_graph() -> Structure:
    """A relabeling-free copy of the heavy benchmark request's graph."""
    rng = random.Random(1)
    edges: set = set()
    while len(edges) < 560:
        a, b = rng.randrange(40), rng.randrange(40)
        if a != b:
            edges.add((a, b))
    return Structure(Schema.from_arities({"E": 2}), {"E": edges}, domain=range(40))


def _wait_for(condition, timeout_s: float = 10.0) -> float:
    """Poll ``condition`` until it holds; the time that took."""
    started = time.monotonic()
    while not condition():
        assert time.monotonic() - started < timeout_s, "condition never held"
        time.sleep(0.001)
    return time.monotonic() - started


def _metric(server: EvaluationServer, name: str) -> int:
    return server.registry.counter(name).value


class TestService:
    def test_cancelled_flight_frees_its_worker_and_keeps_nothing(self, tmp_path):
        config = ServerConfig(workers=1, snapshot_dir=str(tmp_path))
        before = _artifact_keys()
        with EvaluationServer(config) as server:
            client = ServiceClient(server.url, retries=0)
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded) as excinfo:
                client.evaluate(
                    ANCHORED, DENSE, engine="compiled", deadline_ms=50
                )
            assert excinfo.value.status == 504
            _wait_for(lambda: server.health()["inflight"] == 0)
            # Uncancelled, this count runs for seconds.
            assert time.monotonic() - started < 0.5
            assert _metric(server, "service.cancelled") == 1
            assert len(server.count_cache) == 0
            assert sum(server.durable.stats().values()) == 0
            assert _artifact_keys() <= before

    def test_worker_ends_a_cancelled_evaluation_span(self):
        def run() -> dict:
            while True:
                check()

        server = EvaluationServer(ServerConfig(workers=1)).start()
        try:
            request = ParsedRequest("evaluate", ("spin",), run)
            flight, _ = server._join_or_create_flight(
                request, time.monotonic() - 1.0
            )
            # One waiter is still counted, so the job is not skipped.
            server._queue.put((request, flight))
            assert flight.event.wait(timeout=10)
            assert isinstance(flight.error, DeadlineExpired)
            assert [span.name for span in flight.spans] == [
                "queue_wait",
                "evaluate",
            ]
            assert flight.spans[1].attrs["outcome"] == "cancelled"
            assert _metric(server, "service.cancelled") == 1
            assert _metric(server, "service.completed") == 0
            assert request.key not in server._flights
        finally:
            server.close()

    def test_heavy_benchmark_count_frees_its_worker(self):
        with EvaluationServer(ServerConfig(workers=1)) as server:
            client = ServiceClient(server.url, retries=0)
            tournament = parse_query(
                " & ".join(
                    f"E(x{i}, x{j})" for i in range(5) for j in range(i + 1, 5)
                )
            )
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                client.evaluate(
                    tournament, _tournament_graph(), engine="backtracking",
                    deadline_ms=50,
                )
            _wait_for(lambda: server.health()["inflight"] == 0)
            assert time.monotonic() - started < 0.5

    def test_every_waiter_of_a_cancelled_flight_gets_504(self, gate):
        held = gate("evaluate")
        with EvaluationServer(ServerConfig(workers=1)) as server:
            outcomes: list = []

            def fire(deadline_ms):
                try:
                    ServiceClient(server.url, retries=0).evaluate(
                        PATH, SMALL, deadline_ms=deadline_ms
                    )
                    outcomes.append("ok")
                except DeadlineExceeded as error:
                    outcomes.append(error.status)

            threads = [
                threading.Thread(target=fire, args=(ms,)) for ms in (200, 300)
            ]
            threads[0].start()
            assert held.entered.wait(timeout=10)
            threads[1].start()
            for thread in threads:
                thread.join(timeout=10)
            assert outcomes == [504, 504]
            _wait_for(lambda: server.health()["inflight"] == 0)
            assert _metric(server, "service.cancelled") == 1
            assert _metric(server, "service.deadline_exceeded") == 2
            assert _metric(server, "service.errors") == 0

    def test_live_waiter_keeps_the_flight_running(self, gate):
        held = gate("evaluate")
        with EvaluationServer(ServerConfig(workers=1)) as server:
            results: dict = {}

            def fire(name, deadline_ms):
                try:
                    results[name] = ServiceClient(
                        server.url, retries=0
                    ).evaluate(PATH, SMALL, deadline_ms=deadline_ms)
                except DeadlineExceeded as error:
                    results[name] = error.status

            leader = threading.Thread(target=fire, args=("leader", 300))
            leader.start()
            assert held.entered.wait(timeout=10)
            follower = threading.Thread(target=fire, args=("follower", 10_000))
            follower.start()
            leader.join(timeout=10)
            assert results == {"leader": 504}
            held.opened.set()
            follower.join(timeout=10)
            assert results == {"leader": 504, "follower": count(PATH, SMALL)}
            assert _metric(server, "service.coalesced") == 1
            assert _metric(server, "service.cancelled") == 0

    def test_waiter_joining_as_the_flight_expires_extends_it(self):
        server = EvaluationServer(ServerConfig())
        request = ParsedRequest("evaluate", ("key",), lambda: {})
        flight, created = server._join_or_create_flight(
            request, time.monotonic() - 1.0
        )
        assert created
        # A check found the deadline passed; a waiter joins before the
        # expiry is confirmed under the flights lock.
        joined, created = server._join_or_create_flight(
            request, time.monotonic() + 5.0
        )
        assert joined is flight and not created
        flight.expire()  # returns: the joined waiter is live
        flight.deadline = time.monotonic() - 1.0
        with pytest.raises(DeadlineExpired):
            flight.expire()
        # Detached before raising: a new request starts a fresh flight.
        fresh, created = server._join_or_create_flight(
            request, time.monotonic() + 5.0
        )
        assert created and fresh is not flight

    def test_waiters_joining_around_the_expiry_get_the_count(self, gate):
        held = gate("evaluate")
        with EvaluationServer(ServerConfig(workers=2)) as server:
            expected = count(PATH, SMALL)
            for offset_ms in (30, 35, 38, 40, 42, 45, 50):
                held.opened.clear()
                held.entered.clear()
                results: dict = {}

                def fire(name, deadline_ms, results=results):
                    try:
                        results[name] = ServiceClient(
                            server.url, retries=0
                        ).evaluate(PATH, SMALL, deadline_ms=deadline_ms)
                    except DeadlineExceeded as error:
                        results[name] = error.status

                leader = threading.Thread(target=fire, args=("leader", 40))
                leader.start()
                assert held.entered.wait(timeout=10)
                time.sleep(offset_ms / 1000)
                follower = threading.Thread(
                    target=fire, args=("follower", 5_000)
                )
                follower.start()
                time.sleep(0.1)
                held.opened.set()
                leader.join(timeout=10)
                follower.join(timeout=10)
                assert results["follower"] == expected, offset_ms
                _wait_for(lambda: server.health()["inflight"] == 0)

    def test_update_whose_waiter_timed_out_applies_whole(self, monkeypatch):
        with EvaluationServer(ServerConfig(workers=1)) as server:
            client = ServiceClient(server.url, retries=0)
            client.load_db(
                "g",
                Structure(
                    Schema.from_arities({"E": 2}),
                    {"E": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]},
                ),
            )
            released = threading.Event()
            update = server.databases.update

            def held_update(name, delta):
                released.wait(timeout=10)
                return update(name, delta)

            monkeypatch.setattr(server.databases, "update", held_update)
            with pytest.raises(DeadlineExceeded):
                client.update(
                    "g", insert="E(a, c); E(b, d); E(c, a)", deadline_ms=50
                )
            released.set()
            _wait_for(lambda: server.databases.get("g").version == 1)
            edges = parse_query("E(x, y)")
            assert client.evaluate(edges, db="g") == 7
            assert _metric(server, "service.cancelled") == 0

    def test_decide_with_unbounded_count_is_cancelled(self):
        with EvaluationServer(ServerConfig(workers=1)) as server:
            client = ServiceClient(server.url, retries=0)
            with pytest.raises(DeadlineExceeded):
                # Set-contained, so no prescreen ends the search early.
                client.decide("E(x, y)", "E(x, y)", count=10**9, deadline_ms=200)
            idle_after = _wait_for(lambda: client.healthz()["inflight"] == 0)
            assert idle_after < 0.4
            assert _metric(server, "service.cancelled") == 1

    @pytest.mark.parametrize("finished", [True, False])
    def test_decide_leaves_the_shared_count_cache_alone(self, finished):
        """A search counts through a request-local cache, finished or
        cancelled at its deadline: the shared store neither gains its
        one-shot entries nor sees its lookups."""
        with EvaluationServer(ServerConfig(workers=1)) as server:
            client = ServiceClient(server.url, retries=0)
            client.evaluate(PATH, SMALL)
            before = server.count_cache.stats()
            triangle = "E(x, y) & E(y, z) & E(z, x)"
            three_path = "E(x, y) & E(y, z) & E(z, w)"
            if finished:
                # Every triangle is a closed 3-path: bag-contained, so
                # the search checks all 100 candidates.
                outcome = client.decide(triangle, three_path, count=100)
                assert outcome["verdict"] == "exhausted"
                assert outcome["checked"] == 100
            else:
                with pytest.raises(DeadlineExceeded):
                    client.decide(
                        triangle, three_path, count=10**9, deadline_ms=200
                    )
                _wait_for(lambda: client.healthz()["inflight"] == 0)
                assert _metric(server, "service.cancelled") == 1
            after = server.count_cache.stats()
            for field in ("entries", "probation", "hits", "misses"):
                assert after[field] == before[field], field

    def test_504_leader_trace_gets_the_worker_spans(self, gate):
        """The leader is answered 504 while a later waiter keeps the
        flight running; once the worker ends it, the leader's recorded
        trace shows ``queue_wait`` and the cancelled ``evaluate``."""
        held = gate("evaluate")
        with EvaluationServer(ServerConfig(workers=1)) as server:
            leader = ServiceClient(server.url, retries=0)
            follower = ServiceClient(server.url, retries=0)
            outcomes: dict = {}

            def fire(name, client, deadline_ms):
                try:
                    client.evaluate(PATH, SMALL, deadline_ms=deadline_ms)
                    outcomes[name] = "ok"
                except DeadlineExceeded as error:
                    outcomes[name] = error.status

            first = threading.Thread(
                target=fire, args=("leader", leader, 300)
            )
            first.start()
            assert held.entered.wait(timeout=10)
            second = threading.Thread(
                target=fire, args=("follower", follower, 900)
            )
            second.start()
            first.join(timeout=10)
            assert outcomes == {"leader": 504}
            assert server.health()["inflight"] == 1  # still counting

            def leader_spans() -> list:
                (entry,) = [
                    trace
                    for trace in leader.traces()["traces"]
                    if trace["trace_id"] == leader.trace_id
                ]
                assert entry["status"] == "deadline_exceeded"
                return entry["spans"]["children"]

            assert [span["name"] for span in leader_spans()] == [
                "admission",
                "wait",
            ]
            second.join(timeout=10)
            assert outcomes == {"leader": 504, "follower": 504}
            _wait_for(lambda: server.health()["inflight"] == 0)
            spans = leader_spans()
            assert [span["name"] for span in spans] == [
                "admission",
                "wait",
                "queue_wait",
                "evaluate",
            ]
            assert spans[-1]["attrs"]["outcome"] == "cancelled"

    def test_decide_domain_size_is_capped(self):
        with EvaluationServer(ServerConfig(workers=1)) as server:
            client = ServiceClient(server.url, retries=0)
            with pytest.raises(ServiceProtocolError) as excinfo:
                client.decide("E(x, y)", "E(x, y)", domain_size=10**6)
            assert excinfo.value.status == 400
            assert excinfo.value.kind == "bad_request"
            assert _metric(server, "service.admitted") == 0
