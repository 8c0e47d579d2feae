"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py bench/results/seed.json:a bench/results/seed.json:b

A set is a file written by ``run.py --output`` (``{"runs": [...]}``), or
one named set of a file holding ``{"sets": {name: {"runs": [...]}}}``
(``FILE:NAME``).  For each workload and bounded metric this prints both
sets' median and quartiles and a verdict about B against A:

* ``unresolved`` — a set's quartile spread exceeds the metric's bound,
  unless every run of B is better (``improved``) or worse
  (``regressed``) than every run of A;
* ``regressed`` / ``improved`` — B's median is worse / better than A's
  by more than the bound;
* ``unchanged`` — otherwise.

Quartiles are the exact type-7 quantiles of ``summary.quantile``.
Bounds come from BENCHMARK.json's ``end_to_end`` list and from the
entries of ``metrics.json`` that carry a ``bound`` (``error_rate``,
whose bound is absolute and which is 0 by design on three workloads,
so BENCHMARK.json cannot hold it).  Other bounds are shares of A's
median.  Metrics without a bound are not judged.  Both sets must have
been measured with the same window length.  Exits 1 when anything
regressed, 2 on unusable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from summary import quantile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def catalog() -> dict[str, dict]:
    """``metrics.json``: layer, ``moves`` and optional bound of every
    per-layer metric."""
    return json.loads((BENCH / "metrics.json").read_text())


def bounds() -> dict[str, tuple[str, float, bool]]:
    """name → (better, bound, absolute) for every bounded metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {
        metric["name"]: (metric["better"], metric["bound"], False)
        for metric in spec["end_to_end"]
    }
    better = {metric["name"]: metric["better"] for metric in spec["per_layer"]}
    for name, entry in catalog().items():
        if "bound" in entry:
            table[name] = (better[name], entry["bound"], entry.get("absolute", False))
    return table


def load_set(argument: str) -> list[dict]:
    path, _, name = argument.partition(":")
    payload = json.loads(Path(path).read_text())
    if name:
        payload = payload["sets"][name]
    return payload["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


def verdict(
    a: list[float], b: list[float], better: str, bound: float, absolute: bool
) -> tuple[str, float]:
    """``(verdict, change)``: change is B's median against A's, as a
    share of A's median (absolute for absolute bounds), positive when B
    is worse."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)

    def relative(delta: float, base: float) -> float:
        return delta if absolute else delta / base

    change = sign * relative(qb[1] - qa[1], qa[1])
    spread = max(relative(qa[2] - qa[0], qa[1]), relative(qb[2] - qb[0], qb[1]))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved", change
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "regressed", change
        return "unresolved", change
    if change > bound:
        return "regressed", change
    if change < -bound:
        return "improved", change
    return "unchanged", change


def compare(runs_a: list[dict], runs_b: list[dict]) -> list[dict]:
    """One row per (workload, metric) both sets exercised.

    Raises ``ValueError`` when the runs do not share one window length:
    a longer window averages more of the host's noise, so such sets are
    not comparable.
    """
    lengths = {run["seconds"] for run in runs_a + runs_b}
    if len(lengths) > 1:
        raise ValueError(f"runs measured with different windows: {sorted(lengths)} s")
    table = bounds()
    rows = []
    workloads = sorted({r["workload"] for r in runs_a} & {r["workload"] for r in runs_b})
    for workload in workloads:
        for name, (better, bound, absolute) in table.items():
            a, b = (
                [
                    run["metrics"][name]
                    for run in runs
                    if run["workload"] == workload and name in run["metrics"]
                ]
                for runs in (runs_a, runs_b)
            )
            if not a or not b or (not absolute and not any(m["value"] for m in a)):
                continue  # not measured, or not exercised by this workload
            a = [m["value"] for m in a]
            b_unit, b = b[0]["unit"], [m["value"] for m in b]
            result, change = verdict(a, b, better, bound, absolute)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": b_unit,
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "runs": (len(a), len(b)),
                    "change": change,
                    "bound": bound,
                    "absolute": absolute,
                    "verdict": result,
                }
            )
    return rows


def _fmt(quartet: tuple[float, float, float]) -> str:
    q1, median, q3 = quartet
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json[:SET] B.json[:SET]", file=sys.stderr)
        return 2
    try:
        rows = compare(load_set(argv[0]), load_set(argv[1]))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print("workload        metric            unit      A median [q1, q3]         "
          "B median [q1, q3]         change  bound  verdict")
    for row in rows:
        change = f"{row['change']:+.4f}" if row["absolute"] else f"{row['change']:+.1%}"
        print(
            f"{row['workload']:15s} {row['metric']:17s} {row['unit']:9s} "
            f"{_fmt(row['a']):25s} {_fmt(row['b']):25s} "
            f"{change:>7s} {row['bound']:5.3g}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
