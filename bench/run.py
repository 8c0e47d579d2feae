"""Run the bagcq benchmark: seeded workloads against a live server.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--output FILE]

For each workload this spawns ``python -m repro.cli serve --port 0
--workers 2`` (``PYTHONHASHSEED=0``), sets it up three times (the median
is ``setup_s``), drives the last one for ``--seconds`` (by default
BENCHMARK.json's ``run_seconds``) from one client process with two
threads, checks the answers, and prints every metric as ``workload
metric value unit``.  With two or more CPUs the server runs on the
first and this process on the second.

``--trace 1`` adds the server's ``/metrics`` layer numbers and the
in-process traced pass (per-layer spans, written to
``bench/out/trace-<workload>.json``); ``--trace 0`` measures end-to-end
metrics only; without ``--trace`` both run.  Without ``--workload`` all
four workloads run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``, both otherwise.  ``--output FILE`` appends each run's
full record to the ``runs`` list of FILE, the input of ``compare.py``.
The exit code is 0 only when every answer checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: How each workload is driven.  ``rate`` is the open-loop request rate;
#: closed loops build ``capacity`` requests per second of window before
#: it opens (well above the fastest one-second rate seen on a 2-vCPU VM).
#: ``rss_at`` is the completed-request count at which the server's peak
#: RSS is read (see load._RssProbe); ``traced`` is the length of the
#: stream prefix the traced pass replays.
SETTINGS = {
    "hot-repeat": {"rate": None, "capacity": 1000, "rss_at": 3000, "traced": 500},
    "cold-distinct": {"rate": None, "capacity": 120, "rss_at": 500, "traced": 200},
    "db-read-write": {"rate": None, "capacity": 500, "rss_at": 1500, "traced": 500},
    "heavy-tail": {"rate": 60.0, "capacity": None, "rss_at": 600, "traced": 500},
}
CLIENTS = 2
SETUPS = 3
COLD_CHECK_EVERY = 8
READ_CHECK_EVERY = 10
RTT_PROBES = 100
QUICK_SECONDS = 1.0
QUICK_TRACED = 20


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="bagcq benchmark: seeded workloads against a live server"
    )
    parser.add_argument("--workload", choices=tuple(SETTINGS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        help="window length; defaults to BENCHMARK.json's run_seconds, "
        "and compare.py refuses sets measured with different lengths",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"{QUICK_SECONDS:g} s windows and a {QUICK_TRACED}-request traced "
        "prefix (a smoke run, not a measurement)",
    )
    parser.add_argument("--output", type=Path)
    return parser.parse_args(argv)


def _check(stream, samples) -> tuple[int, int]:
    """``(failed, wrong)`` for one window's samples.

    A request fails when its outcome is not the expected one: heavy
    requests are expected to miss their deadline (504), everything else
    to succeed.  Answers are checked against references: every pool
    answer, every 8th cold-distinct request, every 10th read (against
    the versions it may have seen), and the update versions themselves.
    """
    from load import DEADLINE, OK
    from streams import UPDATE_EVERY

    failed = wrong = 0
    updates = {
        sample.answer: sample.ref[1]
        for sample in samples
        if sample.kind == "update" and sample.outcome == OK
    }
    if sorted(updates) != list(range(1, len(updates) + 1)):
        wrong += 1
    history = stream.database.history(updates) if stream.database else None
    for sample in samples:
        if sample.outcome != OK:
            failed += not (sample.kind == "heavy" and sample.outcome == DEADLINE)
        elif sample.kind == "read":
            reads_before = sample.index - sample.index // UPDATE_EVERY
            if reads_before % READ_CHECK_EVERY == 0:
                low, high = sample.versions
                candidates = {
                    history.count_at(version)
                    for version in range(low, min(high, history.known) + 1)
                }
                wrong += sample.answer not in candidates
        elif sample.kind != "update" and (
            sample.ref[0] != "cold" or sample.index % COLD_CHECK_EVERY == 0
        ):
            wrong += sample.answer != stream.answer(sample.ref)
    return failed, wrong


def _write_trace(workload: str, seed: int, layers: dict, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "request"],
        "layers": layers,
        "spans": [
            [name, start - origin, end - origin, parent, request]
            for name, start, end, parent, request in tracer.spans
        ],
    }
    (OUT / f"trace-{workload}.json").write_text(json.dumps(payload))


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, quick: bool, cpus=None
) -> dict:
    """One measured window of ``workload`` (plus, when ``traced``, its
    layer metrics and traced pass), with the server on ``cpus``."""
    from ledger import ledger
    from load import Server, closed_loop, open_loop, set_up
    from repro.service import ServiceClient
    from streams import Stream
    from summary import client_metrics, metrics_delta, quantile, server_layers

    settings = SETTINGS[workload]
    stream = Stream(workload, seed)
    setups = []
    server: Server | None = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server, elapsed = set_up(ROOT, stream, cpus)
            setups.append(elapsed)
        client = ServiceClient(server.url, retries=0)
        before = client.metrics()
        if settings["rate"] is None:
            window = closed_loop(
                server,
                stream,
                seconds,
                CLIENTS,
                settings["rss_at"],
                settings["capacity"],
            )
        else:
            window = open_loop(
                server, stream, seconds, settings["rate"], CLIENTS, settings["rss_at"]
            )
        server.wait_idle()
        after = client.metrics()
        rtts = []
        if traced:
            for _ in range(RTT_PROBES):
                started = time.perf_counter()
                client.healthz()
                rtts.append(time.perf_counter() - started)
    finally:
        if server is not None:
            server.stop()

    samples = window.samples
    metrics = client_metrics(samples, window.elapsed)
    metrics["setup_s"] = statistics.median(setups)
    metrics["server_rss_mb"] = window.peak_rss_mib
    failed, wrong = _check(stream, samples)
    if traced:
        own_ms = statistics.fmean(s.latency - s.lag for s in samples) * 1000.0
        metrics.update(server_layers(metrics_delta(before, after), own_ms))
        metrics["service.rtt_floor_ms"] = quantile(rtts, 0.5) * 1000.0
        prefix = QUICK_TRACED if quick else settings["traced"]
        layers, tracer, traced_wrong = ledger(stream, prefix)
        metrics.update(layers)
        wrong += traced_wrong
        _write_trace(workload, seed, layers, tracer)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "attempted": len(samples),
        "failed": failed,
        "wrong_answers": wrong,
        "metrics": metrics,
    }


def _append(path: Path, records: list[dict]) -> None:
    existing = json.loads(path.read_text()) if path.exists() else {"runs": []}
    existing["runs"].extend(records)
    path.write_text(json.dumps(existing, indent=1) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    from load import placement
    from streams import WORKLOADS

    server_cpus, client_cpus = placement()
    if client_cpus is not None:
        os.sched_setaffinity(0, client_cpus)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
        None: list(units),
    }[args.trace]
    if args.quick:
        seconds = QUICK_SECONDS
    elif args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = spec["run_seconds"]

    records = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        record = run_workload(
            workload, args.seed, seconds, args.trace != 0, args.quick, server_cpus
        )
        record["metrics"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        }
        for name, entry in record["metrics"].items():
            print(f"{workload} {name} {entry['value']!r} {entry['unit']}", flush=True)
        print(
            f"{workload} wrong_answers {record['wrong_answers']} count", flush=True
        )
        records.append(record)
    if args.output is not None:
        _append(args.output, records)

    def key(record, name):
        return name if len(records) == 1 else f"{record['workload']}/{name}"

    correct = all(r["failed"] == 0 and r["wrong_answers"] == 0 for r in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {
                    key(record, name): record["metrics"][name]
                    for record in records
                    for name in reported
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
