"""The sharded worker tier: durable caches, routing, aggregation.

Three layers under test:

* ``repro.shard.persist`` — the content-addressed durable tier: write
  through / warm restore for all three caches, ``/update``-mirroring
  invalidation, and the corruption discipline (truncated, garbage,
  wrong-version, or digest-mismatched snapshot files are *skipped* with
  a ``shard.snapshot.rejected`` tick, never a crash, never a wrong
  count).
* ``repro.shard.router`` routing-table pieces — the α-stable routing
  key, the consistent-hash ring, and the cross-worker metric merge —
  all pure, tested without processes.
* The live tiers — a single server with a snapshot directory
  (``/snapshot`` endpoint, warm restart) and a real two-shard router
  with subprocess workers (proxying, aggregation, crash restart).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.containment_set.cache import ContainmentCache, containment_cache_key
from repro.homomorphism.cache import (
    CountCache,
    affected_by,
    component_cache_key,
)
from repro.io import structure_from_facts
from repro.obs.metrics import Registry
from repro.planner.analyze import PlanCache
from repro.queries.parser import parse_query
from repro.shard.persist import FORMAT_VERSION, DurableCacheStore
from repro.shard.router import (
    ConsistentHashRing,
    RouterConfig,
    ShardRouter,
    merge_metric_snapshots,
    routing_key,
)
from repro.shard.worker import http_get_json, http_post_json
from tests.conftest import wait_for


def _structure():
    return structure_from_facts("E(a,b) E(b,c) E(c,a) U(a)")


def _count_key(query_text: str, engine: str = "backtracking"):
    return component_cache_key(
        parse_query(query_text), _structure(), engine
    )


# -- persistence: round trips ----------------------------------------------


class TestDurableCounts:
    def test_write_through_and_restore(self, tmp_path):
        registry = Registry()
        store = DurableCacheStore(tmp_path, registry=registry)
        cache = CountCache()
        cache.attach_durable(store)
        key = _count_key("E(x, y) & E(y, z)")
        cache.store(key, 3)
        assert store.stats()["counts"] == 1

        fresh = CountCache()
        report = DurableCacheStore(tmp_path).restore("counts", fresh)
        assert (report.loaded, report.rejected) == (1, 0)
        assert fresh.lookup(key) == 3

    def test_alpha_variant_hits_restored_entry(self, tmp_path):
        store = DurableCacheStore(tmp_path)
        cache = CountCache()
        cache.attach_durable(store)
        cache.store(_count_key("E(x, y) & E(y, z)"), 3)

        fresh = CountCache()
        DurableCacheStore(tmp_path).restore("counts", fresh)
        # The key canonicalizes the component, so a renamed variant of
        # the query reads the persisted count.
        assert fresh.lookup(_count_key("E(u, v) & E(v, w)")) == 3

    def test_save_counts_bulk(self, tmp_path):
        store = DurableCacheStore(tmp_path)
        cache = CountCache()
        cache.store(_count_key("E(x, y)"), 3)
        cache.store(_count_key("U(x)"), 1)
        assert store.save("counts", cache) == 2
        assert store.stats()["counts"] == 2

    def test_restore_is_idempotent_and_rewrites_nothing(self, tmp_path):
        store = DurableCacheStore(tmp_path)
        cache = CountCache()
        cache.attach_durable(store)
        cache.store(_count_key("E(x, y)"), 3)
        (path,) = (tmp_path / "counts").glob("*.json")
        written = path.stat().st_mtime_ns

        warmed = CountCache()
        warmed.attach_durable(store)
        store.restore("counts", warmed)
        assert path.stat().st_mtime_ns == written
        assert store.stats()["counts"] == 1

    def test_invalidation_deletes_dependent_files(self, tmp_path):
        store = DurableCacheStore(tmp_path)
        cache = CountCache()
        cache.attach_durable(store)
        cache.store(_count_key("E(x, y) & E(y, z)"), 3)
        cache.store(_count_key("U(x)"), 1)

        cache.invalidate_relations({"E"})
        assert store.stats()["counts"] == 1
        fresh = CountCache()
        DurableCacheStore(tmp_path).restore("counts", fresh)
        assert fresh.lookup(_count_key("U(x)")) == 1
        assert fresh.lookup(_count_key("E(x, y) & E(y, z)")) is None

    def test_invalidation_covers_preexisting_files(self, tmp_path):
        """A new process's /update must evict entries an *older* process
        persisted, even before any restore ran."""
        seeder = CountCache()
        seeder.attach_durable(DurableCacheStore(tmp_path))
        seeder.store(_count_key("E(x, y)"), 3)

        store = DurableCacheStore(tmp_path)  # fresh process, index scan
        assert store.invalidate("counts", affected_by({"E"})) == 1
        assert store.stats()["counts"] == 0


class TestDurablePlans:
    def test_profile_round_trip(self, tmp_path):
        store = DurableCacheStore(tmp_path)
        cache = PlanCache()
        cache.attach_durable(store)
        query = parse_query("E(x, y) & E(y, z) & U(z)")
        profile, was_hit = cache.profile(query)
        assert not was_hit
        assert store.stats()["plans"] == 1

        fresh = PlanCache()
        report = DurableCacheStore(tmp_path).restore("plans", fresh.profiles)
        assert (report.loaded, report.rejected) == (1, 0)
        restored, was_hit = fresh.profile(parse_query("E(a, b) & E(b, c) & U(c)"))
        assert was_hit
        assert restored == profile


class TestDurableContainment:
    def test_verdict_round_trip(self, tmp_path):
        store = DurableCacheStore(tmp_path)
        cache = ContainmentCache()
        cache.attach_durable(store)
        key = containment_cache_key(
            parse_query("E(x, y) & E(y, z)"),
            parse_query("E(u, v)"),
            "chandra-merlin",
        )
        cache.store(key, (True, None))
        cache.store(
            containment_cache_key(
                parse_query("U(x)"), parse_query("E(x, y)"), "chandra-merlin"
            ),
            (False, 2),
        )
        assert store.stats()["containment"] == 2

        fresh = ContainmentCache()
        report = DurableCacheStore(tmp_path).restore("containment", fresh)
        assert (report.loaded, report.rejected) == (2, 0)
        assert fresh.lookup(key) == (True, None)

    def test_schema_invalidation_drops_mentioning_verdicts(self, tmp_path):
        store = DurableCacheStore(tmp_path)
        cache = ContainmentCache()
        cache.attach_durable(store)
        cache.store(
            containment_cache_key(
                parse_query("E(x, y)"), parse_query("E(u, v)"), "cm"
            ),
            (True, None),
        )
        cache.store(
            containment_cache_key(
                parse_query("U(x)"), parse_query("U(y)"), "cm"
            ),
            (True, None),
        )
        cache.invalidate_relations({"E"})
        assert store.stats()["containment"] == 1


# -- persistence: corruption (the snapshot-rejection discipline) -----------


class TestSnapshotCorruption:
    def _seed(self, tmp_path, registry=None) -> DurableCacheStore:
        store = DurableCacheStore(tmp_path, registry=registry)
        cache = CountCache()
        cache.attach_durable(store)
        cache.store(_count_key("E(x, y) & E(y, z)"), 3)
        cache.store(_count_key("U(x)"), 1)
        return store

    def test_truncated_garbage_and_wrong_version_are_skipped(self, tmp_path):
        registry = Registry()
        self._seed(tmp_path, registry=registry)
        counts_dir = tmp_path / "counts"
        valid = sorted(counts_dir.glob("*.json"))
        assert len(valid) == 2

        # Truncation: chop a valid file mid-JSON.
        truncated = counts_dir / "1111111111111111.json"
        truncated.write_text(valid[0].read_text()[: 40], encoding="utf-8")
        # Garbage: not JSON at all.
        (counts_dir / "2222222222222222.json").write_bytes(b"\x00\x01spam")
        # Wrong version: internally consistent (filename matches content
        # digest) but stamped with a future format.
        entry = json.loads(valid[0].read_text(encoding="utf-8"))
        entry["format"] = FORMAT_VERSION + 1
        from repro.shard.persist import _entry_digest

        (counts_dir / f"{_entry_digest(entry)}.json").write_text(
            json.dumps(entry, sort_keys=True), encoding="utf-8"
        )
        # Digest mismatch: valid content under the wrong filename (a
        # hand-edited or cross-copied file).
        (counts_dir / "3333333333333333.json").write_text(
            valid[1].read_text(), encoding="utf-8"
        )

        fresh = CountCache()
        report = DurableCacheStore(tmp_path, registry=registry).restore(
            "counts", fresh
        )
        assert report.loaded == 2
        assert report.rejected == 4
        snapshot = registry.snapshot()
        assert snapshot["shard.snapshot.rejected"]["value"] == 4
        # The surviving entries are exactly the uncorrupted ones, with
        # their original values — corruption never poisons a count.
        assert fresh.lookup(_count_key("E(x, y) & E(y, z)")) == 3
        assert fresh.lookup(_count_key("U(x)")) == 1
        assert len(fresh) == 2

    def test_semantically_broken_entry_is_rejected_not_stored(self, tmp_path):
        """A well-formed file whose *payload* does not decode (count is a
        string) passes the digest gate but fails decode — skipped too."""
        registry = Registry()
        store = DurableCacheStore(tmp_path, registry=registry)
        from repro.shard.persist import _entry_digest

        entry = {
            "format": FORMAT_VERSION,
            "tier": "counts",
            "key": {"§": [{"nonsense": True}, {"§": []}, "backtracking"]},
            "value": "three",
            "relations": ["E"],
            "domain_dependent": False,
        }
        path = tmp_path / "counts" / f"{_entry_digest(entry)}.json"
        path.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")

        fresh = CountCache()
        report = store.restore("counts", fresh)
        assert (report.loaded, report.rejected) == (0, 1)
        assert len(fresh) == 0

    def test_format_1_entry_is_rejected_counted_and_never_served(
        self, tmp_path
    ):
        """A count file in the layout before component keys — internally
        consistent, digest-named — is skipped, never decoded as a count."""
        registry = Registry()
        from repro.shard.persist import _entry_digest

        entry = {
            "format": 1,
            "tier": "counts",
            "component": {"atoms": [["E", [["var", "_c0"], ["var", "_c1"]]]]},
            "fingerprint": {"§": ["§fp", {"§": []}, {"§": []}, None]},
            "engine": "backtracking",
            "value": 3,
            "relations": ["E"],
            "domain_dependent": False,
        }
        path = tmp_path / "counts" / f"{_entry_digest(entry)}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")

        fresh = CountCache()
        store = DurableCacheStore(tmp_path, registry=registry)
        report = store.restore("counts", fresh)
        assert (report.loaded, report.rejected) == (0, 1)
        assert registry.snapshot()["shard.snapshot.rejected"]["value"] == 1
        assert len(fresh) == 0
        assert fresh.lookup(_count_key("E(x, y)")) is None

    def test_corrupt_files_never_crash_restart_loop(self, tmp_path):
        """Restore → corrupt → restore again: the store keeps serving."""
        store = self._seed(tmp_path)
        for path in (tmp_path / "counts").glob("*.json"):
            path.write_text("{", encoding="utf-8")
        fresh = CountCache()
        report = DurableCacheStore(tmp_path).restore("counts", fresh)
        assert report.loaded == 0
        assert report.rejected == 2
        # And invalidation still works (the undecodable files are
        # conservatively treated as depending on everything).
        assert (
            DurableCacheStore(tmp_path).invalidate("counts", affected_by({"Z"}))
            == 2
        )
        assert store.stats()["counts"] == 0


# -- routing keys and the ring ---------------------------------------------


class TestRoutingKey:
    def test_alpha_equivalent_queries_share_a_key(self):
        left = routing_key(
            "evaluate", {"query_text": "E(x, y) & E(y, z)", "facts": "E(a,b)"}
        )
        right = routing_key(
            "evaluate", {"query_text": "E(u, v) & E(v, w)", "facts": "E(a,b)"}
        )
        assert left == right

    def test_distinct_structures_split_keys(self):
        body = {"query_text": "E(x, y)"}
        left = routing_key("evaluate", {**body, "facts": "E(a,b)"})
        right = routing_key("evaluate", {**body, "facts": "E(c,d)"})
        assert left != right

    def test_db_traffic_pins_to_name(self):
        key = routing_key("update", {"db": "orders", "insert": "E(a,b)"})
        assert key == "db:orders"
        assert routing_key("evaluate", {"db": "orders", "query_text": "E(x, y)"}) == key
        assert routing_key("db", {"name": "orders", "facts": "E(a,b)"}) == key

    def test_contain_pairs_key_on_both_sides(self):
        base = {"phi_s_text": "E(x, y)", "phi_b_text": "E(u, v) & E(v, w)"}
        assert routing_key("contain", base) == routing_key(
            "contain",
            {"phi_s_text": "E(a, b)", "phi_b_text": "E(p, q) & E(q, r)"},
        )
        flipped = {"phi_s_text": base["phi_b_text"], "phi_b_text": base["phi_s_text"]}
        assert routing_key("contain", base) != routing_key("contain", flipped)

    def test_ucq_disjunct_order_is_canonicalized(self):
        one = routing_key(
            "evaluate",
            {
                "kind": "ucq",
                "disjuncts": [
                    {"query_text": "E(x, y)"},
                    {"query_text": "U(x)"},
                ],
            },
        )
        two = routing_key(
            "evaluate",
            {
                "kind": "ucq",
                "disjuncts": [
                    {"query_text": "U(z)"},
                    {"query_text": "E(a, b)"},
                ],
            },
        )
        assert one == two

    def test_unparseable_bodies_route_deterministically(self):
        body = {"query_text": "((("}
        assert routing_key("evaluate", body) == routing_key("evaluate", body)


class TestConsistentHashRing:
    def test_assignment_is_stable_across_instances(self):
        one, two = ConsistentHashRing(4), ConsistentHashRing(4)
        keys = [f"key-{i}" for i in range(200)]
        assert [one.route(k) for k in keys] == [two.route(k) for k in keys]

    def test_candidates_cover_all_shards(self):
        ring = ConsistentHashRing(3)
        assert sorted(ring.candidates("anything")) == [0, 1, 2]

    def test_spread_is_roughly_balanced(self):
        ring = ConsistentHashRing(4, virtual_nodes=64)
        counts = [0, 0, 0, 0]
        for i in range(8000):
            counts[ring.route(f"key-{i}")] += 1
        assert min(counts) > 8000 / 4 * 0.5

    def test_single_shard_ring(self):
        ring = ConsistentHashRing(1)
        assert ring.route("anything") == 0


class TestMetricMerge:
    def test_counters_sum_and_gauges_sum(self):
        merged = merge_metric_snapshots(
            [
                {
                    "c": {"type": "counter", "value": 2},
                    "g": {"type": "gauge", "value": 1, "max": 5},
                },
                {
                    "c": {"type": "counter", "value": 3},
                    "g": {"type": "gauge", "value": 2, "max": 3},
                },
            ]
        )
        assert merged["c"] == {"type": "counter", "value": 5}
        assert merged["g"] == {"type": "gauge", "value": 3, "max": 5}

    def test_histograms_merge_bucketwise(self):
        histogram = {
            "type": "histogram",
            "count": 2,
            "total_ms": 30.0,
            "mean_ms": 15.0,
            "min_ms": 10.0,
            "max_ms": 20.0,
            "p50_ms": 10.0,
            "p95_ms": 20.0,
            "p99_ms": 20.0,
            "buckets": {"13.3352": 1, "23.7137": 1},
        }
        merged = merge_metric_snapshots([{"h": histogram}, {"h": histogram}])
        assert merged["h"]["count"] == 4
        assert merged["h"]["total_ms"] == 60.0
        assert merged["h"]["mean_ms"] == 15.0
        assert merged["h"]["buckets"] == {"13.3352": 2, "23.7137": 2}
        assert merged["h"]["p50_ms"] is not None

    def test_mismatched_types_are_dropped(self):
        merged = merge_metric_snapshots(
            [
                {"x": {"type": "counter", "value": 1}},
                {"x": {"type": "gauge", "value": 1, "max": 1}},
            ]
        )
        assert "x" not in merged


# -- live single server: /snapshot and warm restart ------------------------


@pytest.fixture()
def service_module():
    from repro.service import EvaluationServer, ServerConfig, ServiceClient

    return EvaluationServer, ServerConfig, ServiceClient


class TestSnapshotEndpoint:
    def test_snapshot_then_warm_restart(self, tmp_path, service_module):
        EvaluationServer, ServerConfig, ServiceClient = service_module
        config = ServerConfig(workers=2, snapshot_dir=str(tmp_path))
        with EvaluationServer(config) as server:
            client = ServiceClient(server.url, seed=0)
            count = client.evaluate("E(x, y) & E(y, z)", "E(a,b) E(b,c)")
            assert count == 1
            body = http_post_json(f"{server.url}/snapshot", {})
            assert body["saved"]["counts"] >= 1
            health = http_get_json(f"{server.url}/healthz")
            assert health["snapshot"]["directory"] == str(tmp_path)
            assert health["snapshot"]["files"]["counts"] >= 1

        with EvaluationServer(config) as reborn:
            # Warm restore happened before the socket opened.
            assert len(reborn.count_cache) >= 1
            client = ServiceClient(reborn.url, seed=1)
            assert client.evaluate("E(x, y) & E(y, z)", "E(a,b) E(b,c)") == 1
            metrics = client.metrics()["metrics"]
            assert metrics["shard.snapshot.loaded"]["value"] >= 1

    def test_snapshot_without_directory_is_a_400(self, service_module):
        EvaluationServer, ServerConfig, _ = service_module
        with EvaluationServer(ServerConfig(workers=1)) as server:
            request = urllib.request.Request(
                f"{server.url}/snapshot", data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400

    def test_healthz_reports_queues_and_caches(self, service_module):
        EvaluationServer, ServerConfig, _ = service_module
        with EvaluationServer(ServerConfig(workers=2)) as server:
            health = http_get_json(f"{server.url}/healthz")
            assert health["queue"]["capacity"] == 64
            assert health["queue"]["depth"] >= 0
            assert len(health["workers_detail"]) == 2
            assert all(row["alive"] for row in health["workers_detail"])
            assert set(health["caches"]) == {"count", "plan", "containment"}
            assert "entries" in health["caches"]["count"]
            assert "profiles" in health["caches"]["plan"]


# -- live router: two shards, real subprocesses ----------------------------


@pytest.mark.slow
class TestShardRouterLive:
    def test_two_shard_router_end_to_end(self, tmp_path):
        config = RouterConfig(
            shards=2, workers_per_shard=2, snapshot_dir=str(tmp_path)
        )
        with ShardRouter(config) as router:
            url = router.url
            health = http_get_json(f"{url}/healthz")
            assert health["status"] == "ok"
            assert health["shards"] == 2
            assert len(health["workers"]) == 2
            assert all(row["alive"] for row in health["workers"])
            assert all("health" in row for row in health["workers"])

            # Distinct α-classes spread; α-equivalent repeats stick.
            bodies = [
                {"query_text": "E(x, y) & E(y, z)", "facts": "E(a,b) E(b,c)"},
                {"query_text": "E(u, v) & E(v, w)", "facts": "E(a,b) E(b,c)"},
                {"query_text": "U(x)", "facts": "U(a) U(b)"},
            ]
            counts = [
                http_post_json(f"{url}/evaluate", body)["count"]
                for body in bodies
            ]
            assert counts == [1, 1, 2]

            metrics = http_get_json(f"{url}/metrics")["metrics"]
            assert metrics["shard.routed"]["value"] == 3
            # The fleet served all three; the α-equivalent repeat was a
            # cache hit on whichever shard owns that class.
            assert metrics["service.requests"]["value"] == 3
            assert metrics["cache.hits"]["value"] >= 1

            traces = http_get_json(f"{url}/traces")
            assert traces["recorded"] >= 3
            assert all("shard" in t for t in traces["traces"])

            # Snapshot fans out; per-shard directories fill.
            snap = http_post_json(f"{url}/snapshot", {})
            assert snap["saved"]["counts"] >= 1
            assert (tmp_path / "shard-00").is_dir()
            assert (tmp_path / "shard-01").is_dir()

            # Kill one worker ungracefully: the router reports degraded
            # until the supervisor respawns it, then recovers.
            victim = router.workers[0]
            victim_pid = victim.pid
            import os
            import signal

            os.kill(victim_pid, signal.SIGKILL)
            wait_for(
                lambda: victim.healthy() and victim.pid != victim_pid,
                timeout_s=30,
            )
            assert victim.healthy(), "worker was not respawned"
            assert victim.restarts >= 1
            # And the fleet still answers.
            body = {"query_text": "U(x)", "facts": "U(a)"}
            assert http_post_json(f"{url}/evaluate", body)["count"] == 1

    def test_snapshot_warm_restart(self, tmp_path):
        """A fleet restarted on its snapshot directory warm-restores
        before serving, so replaying its workload is all cache hits; a
        file in the layout before component keys is rejected, counted
        and never served."""
        import random

        from repro.homomorphism import count
        from repro.io import query_to_dict
        from repro.relational import Schema, Structure
        from repro.service import ServiceClient
        from repro.shard.persist import _entry_digest
        from repro.workloads import cycle_query

        def graph(seed, n=13):
            rng = random.Random(seed)
            edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
            return Structure(
                Schema.from_arities({"E": 2}), {"E": edges}, domain=range(n)
            )

        query = cycle_query(6)
        graphs = [graph(seed) for seed in range(8)]
        expected = [count(query, g, engine="backtracking") for g in graphs]
        config = RouterConfig(
            shards=2, workers_per_shard=2, snapshot_dir=str(tmp_path)
        )

        def replay(url, seed) -> dict:
            client = ServiceClient(url, seed=seed)
            for g, value in zip(graphs, expected):
                assert client.evaluate(query, g, engine="backtracking") == value
            return http_get_json(f"{url}/metrics")["metrics"]

        with ShardRouter(config) as router:
            replay(router.url, 7)
            assert http_post_json(f"{router.url}/snapshot", {})["saved"][
                "counts"
            ] >= 1

        # The restarted fleet warm-restored from the snapshot dir...
        with ShardRouter(config) as router:
            merged = http_get_json(f"{router.url}/metrics")["metrics"]
            assert merged["shard.snapshot.loaded"]["value"] >= len(graphs)
            assert merged["shard.snapshot.rejected"]["value"] == 0
            # ...so replaying the pre-restart workload hits the restored
            # caches instead of re-evaluating: bit-identical counts.
            merged = replay(router.url, 11)
            assert merged["cache.hits"]["value"] >= len(graphs)

        # A format-1 count file claiming a wrong count, in the directory
        # of the shard that owns its request.
        body = {"query_text": "E(x, y)", "facts": "E(a,b) E(b,c)"}
        shard = ConsistentHashRing(2).route(routing_key("evaluate", body))
        fingerprint = structure_from_facts(body["facts"]).relation_fingerprint(
            "E"
        )
        entry = {
            "format": 1,
            "tier": "counts",
            "component": query_to_dict(parse_query("E(_c0, _c1)")),
            "fingerprint": {
                "§": ["§fp", {"§": [{"§": ["E", fingerprint]}]}, {"§": []}, None]
            },
            "engine": "backtracking",
            "value": 999,
            "relations": ["E"],
            "domain_dependent": False,
        }
        counts = tmp_path / f"shard-{shard:02d}" / "counts"
        (counts / f"{_entry_digest(entry)}.json").write_text(
            json.dumps(entry, sort_keys=True), encoding="utf-8"
        )
        with ShardRouter(config) as router:
            merged = http_get_json(f"{router.url}/metrics")["metrics"]
            assert merged["shard.snapshot.loaded"]["value"] >= len(graphs)
            assert merged["shard.snapshot.rejected"]["value"] == 1
            assert http_post_json(f"{router.url}/evaluate", body)["count"] == 2

    def test_router_sheds_cleanly_when_worker_down_mid_request(self, tmp_path):
        """With a 1-shard ring and the worker held down, requests get a
        retryable 503 envelope, never a hang."""
        config = RouterConfig(shards=1, workers_per_shard=1)
        with ShardRouter(config) as router:
            worker = router.workers[0]
            worker._stopping = True  # pin it down: monitor must not respawn
            import os
            import signal

            os.kill(worker.pid, signal.SIGKILL)
            worker._process.wait(timeout=10)
            with worker._lock:
                worker._url = None
            request = urllib.request.Request(
                f"{router.url}/evaluate",
                data=json.dumps(
                    {"query_text": "U(x)", "facts": "U(a)"}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 503
            envelope = json.loads(excinfo.value.read().decode("utf-8"))
            assert envelope["error"]["kind"] == "shutting_down"
