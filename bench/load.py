"""Drive a live ``bagcq serve`` subprocess and time every request.

One client process, at most two sender threads, each with its own
``ServiceClient(retries=0)`` (urllib: one connection per request, so at
most two are open at once).  Every request is timed on the client with
``perf_counter``; nothing is rounded or bucketed.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service import DeadlineExceeded, ServiceClient, ServiceUnavailable

from streams import DB_NAME, Stream, send

__all__ = ["Sample", "Server", "closed_loop", "open_loop", "placement", "set_up"]

#: Request outcomes; everything but OK counts against ``error_rate``.
OK, DEADLINE, UNAVAILABLE, ERROR = "ok", "deadline", "unavailable", "error"

SERVER_WORKERS = 2
READY_TIMEOUT_S = 30.0


def placement() -> tuple[set[int] | None, set[int] | None]:
    """``(server CPUs, client CPUs)``: one CPU each when there are two.

    Left to the scheduler, the server's and the client's threads land on
    the same or on different CPUs from run to run, and that alone moves
    open-loop latency by ~20%.  With one CPU it stays unpinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


class Server:
    """One ``python -m repro.cli serve --port 0 --workers 2`` subprocess,
    started on ``cpus`` when given (it inherits the caller's affinity)."""

    def __init__(self, root: Path, cpus: set[int] | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        own = os.sched_getaffinity(0)
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "serve",
                    "--port",
                    "0",
                    "--workers",
                    str(SERVER_WORKERS),
                ],
                cwd=root,
                env=env,
                stdout=subprocess.PIPE,
                text=True,
                # A bench started in the background by a non-interactive
                # shell inherits SIGINT ignored, and CPython installs its
                # KeyboardInterrupt handler only when SIGINT is not
                # ignored at startup: without this reset, stop()'s SIGINT
                # is dropped and every stop waits out its timeout.
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
        finally:
            os.sched_setaffinity(0, own)
        try:
            line = self.process.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.rsplit("listening on ", 1)[1].strip()
            client = ServiceClient(self.url, retries=0, timeout_s=5)
            deadline = time.monotonic() + READY_TIMEOUT_S
            while True:
                try:
                    if client.healthz().get("status") == "ok":
                        break
                except ServiceUnavailable:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mib(self) -> float:
        """The server's ``VmHWM`` (peak resident set), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def wait_idle(self, timeout_s: float = 60.0) -> None:
        """Block until no request is queued or running (a 504'd heavy
        evaluation keeps its worker busy after its client gave up)."""
        client = ServiceClient(self.url, retries=0)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            health = client.healthz()
            if health["inflight"] == 0 and health["queued"] == 0:
                return
            time.sleep(0.02)
        raise RuntimeError("server did not go idle")

    def stop(self) -> None:
        """SIGINT (graceful drain), then SIGKILL if it hangs; always reaped."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def set_up(
    root: Path, stream: Stream, cpus: set[int] | None = None
) -> tuple[Server, float]:
    """Start a server and bring it to the measured state; ``(server, s)``.

    The set-up time runs from spawn until ``/healthz`` answers, plus the
    ``/db`` load and the workload's fixed one-pass warm-up.
    """
    started = time.perf_counter()
    server = Server(root, cpus)
    try:
        client = ServiceClient(server.url, retries=0)
        if stream.database is not None:
            client.load_db(DB_NAME, stream.database.structure)
        for request in stream.warmup():
            send(client, request)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


@dataclass
class Sample:
    """One timed request.  ``latency`` is seconds from send (closed loop)
    or from due time (open loop); ``lag`` is how late it was sent."""

    index: int
    kind: str
    ref: tuple
    outcome: str
    latency: float
    answer: object = None
    lag: float = 0.0
    #: Reads only: the database versions the answer may legally reflect.
    versions: tuple[int, int] = (0, 0)


@dataclass
class _Versions:
    """Which database versions a concurrent read may have seen."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    updates_sent: int = 0
    highest_seen: int = 0


def _timed(client, request, versions: _Versions, origin: float | None) -> Sample:
    """Send one request; time it from ``origin`` (its due time) or, in a
    closed loop (``origin=None``), from when it was sent."""
    if request.kind == "update":
        with versions.lock:
            versions.updates_sent += 1
    low = versions.highest_seen
    sent = time.perf_counter()
    try:
        answer = send(client, request)
        outcome = OK
    except DeadlineExceeded:
        answer, outcome = None, DEADLINE
    except ServiceUnavailable:
        answer, outcome = None, UNAVAILABLE
    except Exception as error:  # a failed request must not end its sender
        answer, outcome = repr(error), ERROR
    done = time.perf_counter()
    origin = sent if origin is None else origin
    sample = Sample(
        request.index,
        request.kind,
        request.ref,
        outcome,
        done - origin,
        answer,
        sent - origin,
    )
    if request.kind == "update" and outcome == OK:
        with versions.lock:
            versions.highest_seen = max(versions.highest_seen, answer)
    elif request.kind == "read":
        sample.versions = (low, versions.updates_sent)
    return sample


@dataclass
class Window:
    """Everything one measured window produced."""

    samples: list[Sample]
    elapsed: float
    peak_rss_mib: float


def _run(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class _RssProbe:
    """Reads the server's peak RSS once ``at`` requests have completed.

    Sampling at a fixed request count, not at the end of the window,
    keeps memory independent of throughput: a faster server completes
    more requests and caches more entries in the same time.
    """

    def __init__(self, server: Server, at: int) -> None:
        self._server = server
        self._at = at
        self._done = 0
        self._lock = threading.Lock()
        self.value: float | None = None

    def completed(self) -> None:
        with self._lock:
            self._done += 1
            if self._done == self._at:
                self.value = self._server.peak_rss_mib()

    def result(self) -> float:
        return self._server.peak_rss_mib() if self.value is None else self.value


def closed_loop(
    server: Server,
    stream: Stream,
    seconds: float,
    clients: int,
    rss_at: int,
    capacity: float,
) -> Window:
    """``clients`` senders, each sending its next request when the last
    one answers, until ``seconds`` have passed.

    The first ``seconds × capacity`` requests are built before the window
    opens, so building them (library code running in the client) does
    not delay the senders; a window that outruns them builds the rest
    as it goes.
    """
    prebuilt = [stream.request(i) for i in range(math.ceil(seconds * capacity))]
    indices = itertools.count()
    samples: list[Sample] = []
    versions = _Versions()
    probe = _RssProbe(server, rss_at)
    start = time.perf_counter()
    stop = start + seconds

    def sender() -> None:
        client = ServiceClient(server.url, retries=0)
        while True:
            index = next(indices)
            request = prebuilt[index] if index < len(prebuilt) else stream.request(index)
            if time.perf_counter() >= stop:
                return
            samples.append(_timed(client, request, versions, None))
            probe.completed()

    _run([threading.Thread(target=sender) for _ in range(clients)])
    elapsed = time.perf_counter() - start
    return Window(samples, elapsed, probe.result())


def open_loop(
    server: Server, stream: Stream, seconds: float, rate: float, senders: int, rss_at: int
) -> Window:
    """Request ``i`` is due at ``start + i / rate``; ``senders`` threads
    send them in order.  Latency counts from the due time, so a stalled
    sender's backlog shows up in the latencies of the requests it delays.
    Every request is built before the window opens."""
    requests = [stream.request(i) for i in range(int(rate * seconds))]
    indices = itertools.count()
    samples: list[Sample] = []
    versions = _Versions()
    probe = _RssProbe(server, rss_at)
    start = time.perf_counter() + 0.01

    def sender() -> None:
        client = ServiceClient(server.url, retries=0)
        while True:
            index = next(indices)
            if index >= len(requests):
                return
            request = requests[index]
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            samples.append(_timed(client, request, versions, due))
            probe.completed()

    _run([threading.Thread(target=sender) for _ in range(senders)])
    elapsed = time.perf_counter() - start
    return Window(samples, elapsed, probe.result())
