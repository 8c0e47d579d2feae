"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.containment_set import cq_containment
from repro.homomorphism import count
from repro.io import query_from_dict, structure_from_dict
from repro.queries import parse_query
from repro.relational import Schema, Structure

import compare
from load import Server
from streams import WORKLOADS, Stream, closed_walks, tournament_count
from summary import client_metrics, metrics_delta, quantile, server_layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_streams_are_pure_functions_of_workload_seed_and_index(workload):
    indices = [*range(60), 1234, 98765]
    first = [Stream(workload, 7).request(i) for i in indices]
    # A fresh stream, asked in reverse order, replays the same requests.
    again = Stream(workload, 7)
    assert [again.request(i) for i in reversed(indices)] == first[::-1]
    other = Stream(workload, 8)
    assert any(other.request(i) != request for i, request in zip(indices, first))


def test_cold_distinct_repeats_no_structure_in_5000_requests():
    stream = Stream("cold-distinct", 0)
    fingerprints = {stream.cold_instance(i)[1].fingerprint() for i in range(5000)}
    assert len(fingerprints) == 5000


def test_renamed_hot_repeat_requests_keep_their_pool_answers():
    stream = Stream("hot-repeat", 0)
    pool_names = {
        variable.name for query, _ in stream.pool.cases for variable in query.variables
    }
    kinds = set()
    for index in range(200):
        request = stream.request(index)
        kinds.add(request.kind)
        query = query_from_dict(request.query)
        assert not {variable.name for variable in query.variables} & pool_names
        if request.kind == "evaluate":
            value = count(
                query, structure_from_dict(request.structure), engine="backtracking"
            )
        else:
            value = cq_containment(
                query, query_from_dict(request.phi_b), engine="backtracking"
            ).contained
        assert value == stream.pool.answers[request.ref]
    assert kinds == {"evaluate", "contain"}


def test_independent_references_agree_with_backtracking():
    rng = random.Random(3)
    schema = Schema.from_arities({"E": 2})
    cycle = parse_query("E(a, b) & E(b, c) & E(c, d) & E(d, a)")
    tournament = parse_query(
        " & ".join(f"E(x{i}, x{j})" for i in range(5) for j in range(i + 1, 5))
    )
    for _ in range(5):
        edges = {(rng.randrange(9), rng.randrange(9)) for _ in range(40)}
        graph = Structure(schema, {"E": edges}, domain=range(9))
        assert closed_walks(edges) == count(cycle, graph, engine="backtracking")
        assert tournament_count(graph) == count(tournament, graph, engine="backtracking")


def test_exact_quantile_interpolates_between_ranks():
    assert quantile([3.0], 0.99) == 3.0
    assert quantile([4, 1, 3, 2], 0.5) == 2.5
    assert quantile(range(101), 0.99) == 99.0
    assert quantile([0, 10], 0.25) == 2.5
    with pytest.raises(ValueError):
        quantile([], 0.5)


def _sample(kind, latency, outcome="ok", lag=0.0):
    return SimpleNamespace(kind=kind, latency=latency, outcome=outcome, lag=lag)


def test_client_metrics_split_requests_by_kind_and_outcome():
    samples = [_sample("read", 0.001 * (i + 1)) for i in range(9)]
    samples += [_sample("update", 0.050), _sample("heavy", 0.05, "deadline", 0.002)]
    metrics = client_metrics(samples, elapsed=2.0)
    assert metrics["throughput_rps"] == 10 / 2.0
    assert metrics["latency_p50_ms"] == pytest.approx(5.0)
    assert metrics["update_p50_ms"] == pytest.approx(50.0)
    assert metrics["error_rate"] == 1 / 11
    assert metrics["lag_p99_ms"] == pytest.approx(quantile([0] * 10 + [2.0], 0.99))


def _scrape(counters: dict, histograms: dict) -> dict:
    metrics = {name: {"type": "counter", "value": v} for name, v in counters.items()}
    for name, (count_, total) in histograms.items():
        metrics[name] = {"type": "histogram", "count": count_, "total_ms": total}
    metrics["service.inflight"] = {"type": "gauge", "value": 0, "max": 2}
    return {"schema_version": 1, "metrics": metrics}


def test_metrics_delta_derives_the_outside_in_layers():
    before = _scrape(
        {"service.requests": 10, "cache.hits": 5, "cache.misses": 5},
        {"service.request_ms.evaluate": (10, 100.0), "service.time.evaluate": (10, 40.0)},
    )
    after = _scrape(
        {
            "service.requests": 110,
            "service.coalesced": 4,
            "cache.hits": 95,
            "cache.misses": 15,
            "engine.dispatch.compiled": 3,
            "engine.dispatch.backtracking": 1,
            "delta.migrated": 1,
            "delta.invalidations": 3,
        },
        {
            "service.request_ms.evaluate": (90, 400.0),
            "service.request_ms.update": (20, 100.0),
            "service.time.evaluate": (90, 190.0),
            "service.time.update": (20, 60.0),
            "engine.time.compiled": (3, 30.0),
        },
    )
    delta = metrics_delta(before, after)
    assert "service.inflight" not in delta
    assert delta["service.request_ms.evaluate"] == {"count": 80, "total_ms": 300.0}
    layers = server_layers(delta, client_mean_ms=5.0)
    assert layers["service.transport_ms"] == pytest.approx(5.0 - 400.0 / 100)
    assert layers["service.handoff_ms"] == pytest.approx(400.0 / 100 - 210.0 / 100)
    assert layers["service.evaluate_ms"] == pytest.approx(2.1)
    assert layers["service.coalesced_ratio"] == pytest.approx(0.04)
    assert layers["cache.hit_ratio"] == pytest.approx(90 / 100)
    assert layers["engine.count_ms"] == pytest.approx(30.0 / 100)
    assert layers["engine.share.compiled"] == pytest.approx(0.75)
    assert layers["delta.update_ms"] == pytest.approx(3.0)
    assert layers["delta.migrated_ratio"] == pytest.approx(0.25)
    assert layers["contain.decide_ms"] == 0.0


def _runs(workload, values, seconds=25):
    return [
        {
            "workload": workload,
            "seconds": seconds,
            "metrics": {"server_rss_mb": {"value": v, "unit": "MiB"}},
        }
        for v in values
    ]


def test_compare_verdicts_follow_the_bounds():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]

    def verdict(b_values):
        rows = [
            row
            for row in compare.compare(_runs("w", steady), _runs("w", b_values))
            if row["metric"] == "server_rss_mb"
        ]
        return rows[0]["verdict"]

    bound = compare.bounds()["server_rss_mb"][1]
    worse, better = 10.0 * (1 + 1.5 * bound), 10.0 * (1 - 1.5 * bound)
    assert verdict([10.2, 10.1, 10.3, 10.2, 10.25]) == "unchanged"
    assert verdict([worse + d for d in (0.0, 0.1, -0.1, 0.0, 0.05)]) == "regressed"
    assert verdict([better + d for d in (0.0, 0.1, -0.1, 0.0, 0.05)]) == "improved"
    assert verdict([7.0, 13.0, 10.0, 6.0, 14.0]) == "unresolved"
    # Outliers beyond the quartiles do not widen the spread: with type-7
    # quartiles it is 10.1 - 9.9; Python's default "exclusive" method
    # would take in half of each extreme run and call this unresolved.
    tails = [10.0 - 2 * bound * 10, 9.9, 10.0, 10.1, 10.0 + 2 * bound * 10]
    assert verdict(tails) == "unchanged"


def test_compare_refuses_sets_with_different_windows():
    with pytest.raises(ValueError, match="different windows"):
        compare.compare(_runs("w", [10.0] * 5, 25), _runs("w", [10.0] * 5, 20))


def test_metrics_catalog_maps_every_layer_metric():
    catalog = compare.catalog()
    assert list(catalog) == [metric["name"] for metric in SPEC["per_layer"]]
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]} | {
        name for name, entry in catalog.items() if entry["layer"] == "end-to-end"
    }
    for entry in catalog.values():
        assert entry["source"] in ("client", "metrics", "trace")
        for target in entry["moves"]:
            workload, metric = target.split("/")
            assert workload in WORKLOADS and metric in end_to_end


@pytest.mark.slow
def test_quick_run_reports_every_metric_with_its_unit(tmp_path):
    output = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--output", str(output)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0
    printed = {}
    for line in lines[:-1]:
        workload, metric, _, unit = line.split()
        printed[workload, metric] = unit
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert printed[workload, metric["name"]] == metric["unit"]
        assert (workload, "wrong_answers") in printed
    runs = json.loads(output.read_text())["runs"]
    assert [run["workload"] for run in runs] == list(WORKLOADS)


def test_server_stops_promptly_when_started_with_sigint_ignored():
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        server = Server(ROOT)
    finally:
        signal.signal(signal.SIGINT, previous)
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hot-repeat", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
