"""E16 — the cost-based planner: ``engine="auto"`` vs fixed backtracking.

Regenerates the planner's headline table: on the acyclic / low-treewidth
slice of the workload (paths, trees, thin cycles — the shapes the
paper's gadget families are made of), ``auto`` routes components to the
compiled engine (whose array passes are Yannakakis over the join tree)
or the tree-decomposition engine and pulls away from a fixed
backtracking choice as instances grow, while remaining bit-identical.

The run emits ``benchmarks/BENCH_planner.json`` (path overridable via the
``BENCH_PLANNER`` environment variable): one record per (shape, size)
cell with both latencies, the speedup, and the engine the planner chose —
the artifact CI uploads and the repository checks in.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.homomorphism import count
from repro.planner import PlanCache, plan
from repro.queries import parse_query
from repro.relational import Schema, Structure
from repro.workloads import path_query

from benchmarks.conftest import print_table

TREE_QUERY = parse_query("E(x, y) & E(y, z) & E(y, w) & E(w, u) & E(w, v)")

WORKLOAD = {
    "path-6": path_query(6),
    "tree-5": TREE_QUERY,
}


def _graph(n: int, seed: int = 0) -> Structure:
    rng = random.Random(seed)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
    return Structure(
        Schema.from_arities({"E": 2}), {"E": edges}, domain=range(n)
    )


def _time_count(query, graph, engine: str, repeats: int = 3) -> tuple[int, float]:
    """Best-of-``repeats`` latency (ms) and the count, for one engine."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = count(query, graph, engine=engine)
        best = min(best, (time.perf_counter() - t0) * 1000)
    return value, best


def _rows() -> tuple[list[list], list[dict]]:
    rows: list[list] = []
    records: list[dict] = []
    for shape, query in WORKLOAD.items():
        for n in (16, 32, 64):
            graph = _graph(n)
            chosen = plan(query, graph, cache=PlanCache()).engines
            auto_value, auto_ms = _time_count(query, graph, "auto")
            bt_value, bt_ms = _time_count(query, graph, "backtracking")
            speedup = bt_ms / auto_ms if auto_ms > 0 else float("inf")
            rows.append(
                [
                    shape,
                    n,
                    ",".join(chosen),
                    f"{auto_ms:.1f}",
                    f"{bt_ms:.1f}",
                    f"{speedup:.1f}x",
                    auto_value == bt_value,
                ]
            )
            records.append(
                {
                    "shape": shape,
                    "domain_size": n,
                    "planned_engines": list(chosen),
                    "count": auto_value,
                    "auto_ms": round(auto_ms, 3),
                    "backtracking_ms": round(bt_ms, 3),
                    "speedup": round(speedup, 2),
                    "agree": auto_value == bt_value,
                }
            )
    return rows, records


def test_e16_planner_auto_vs_backtracking(benchmark):
    rows, records = _rows()
    print_table(
        "E16 — engine=auto vs fixed backtracking, acyclic/low-tw slice",
        ["shape", "|V(D)|", "planned", "auto ms", "backtracking ms", "speedup", "agree"],
        rows,
    )
    assert all(row[-1] for row in rows)
    # The acceptance bar: on the largest instances of the acyclic slice
    # the planner's pick beats fixed backtracking by at least 2x.
    largest = [record for record in records if record["domain_size"] == 64]
    assert largest and all(record["speedup"] >= 2.0 for record in largest), (
        largest
    )

    artifact = os.environ.get("BENCH_PLANNER", "benchmarks/BENCH_planner.json")
    with open(artifact, "w", encoding="utf-8") as handle:
        json.dump({"experiment": "E16", "rows": records}, handle, indent=2)
        handle.write("\n")

    graph = _graph(64)
    query = WORKLOAD["path-6"]
    result = benchmark(count, query, graph, engine="auto")
    assert result == count(query, graph, engine="backtracking")
