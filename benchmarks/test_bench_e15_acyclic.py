"""E15 — the Yannakakis counter for acyclic queries vs the general engines.

Regenerates the agreement/latency table for acyclic query shapes on
growing random graphs — the figure-analog showing the linear-time
counter pulling away from the general engines as the instance grows —
and benchmarks it on the largest instance.  It is a reference counter,
not an engine: ``compiled`` runs the same passes (E19, E30).
"""

import random
import time

from repro.homomorphism import (
    count,
    count_homomorphisms_acyclic,
    count_homomorphisms_td,
    is_acyclic,
)
from repro.queries import parse_query
from repro.relational import Schema, Structure

from benchmarks.conftest import print_table

QUERY = parse_query("E(x, y) & E(y, z) & E(y, w) & E(w, u)")


def _graph(n: int, seed: int = 0) -> Structure:
    rng = random.Random(seed)
    edges = {
        (rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)
    }
    return Structure(Schema.from_arities({"E": 2}), {"E": edges}, domain=range(n))


def _rows() -> list[list]:
    assert is_acyclic(QUERY)
    rows = []
    for n in (8, 16, 32, 64):
        graph = _graph(n)
        t0 = time.perf_counter()
        yannakakis = count_homomorphisms_acyclic(QUERY, graph)
        acyclic_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        backtracking = count(QUERY, graph)
        bt_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        treewidth = count_homomorphisms_td(QUERY, graph)
        td_ms = (time.perf_counter() - t0) * 1000
        rows.append(
            [
                n,
                yannakakis,
                f"{acyclic_ms:.1f}",
                f"{bt_ms:.1f}",
                f"{td_ms:.1f}",
                yannakakis == backtracking == treewidth,
            ]
        )
    return rows


def test_e15_acyclic_engine(benchmark):
    rows = _rows()
    print_table(
        "E15 — Yannakakis counting on a tree query, growing random graphs",
        ["|V(D)|", "count", "acyclic ms", "backtracking ms", "treewidth ms", "agree"],
        rows,
    )
    assert all(row[-1] for row in rows)

    graph = _graph(64)
    result = benchmark(count_homomorphisms_acyclic, QUERY, graph)
    assert result == count(QUERY, graph)
