"""Served workload: an open loop of HTTP requests against a real server.

The server is ``python -m repro.service serve --worker-mode process
--workers 2`` in its own process, with a fresh, empty cache directory
inside the checkout.  The load comes from one process over at most two
connections: request *i* is due at ``start + i / rate`` whatever happened
to earlier ones, and its latency runs from that due time, so a stall
shows in every request it delays.  A failed, refused or degraded
request counts as infinitely slow.

``served_replay`` computes a fixed body set during set-up and then
replays it, so every timed request is an exact-key cache read and the
front end (codec, key, cache read, JSON, HTTP) is all the work.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.alloc.checker import check_binding
from repro.io.json_io import binding_from_json, canonical_dumps, \
    cdfg_to_dict
from repro.service.client import ServiceClient, ServiceError
from repro.service.codec import request_from_dict
from repro.service.loadgen import mutant_requests, zoo_requests
from repro.timing.rtlcheck import roundtrip_binding
from repro.timing.sta import analyze_binding

from batch import PAPER_POINTS

#: client connections (the box has two cores)
CONNECTIONS = 2

#: offered requests per second of the replay; a hit takes ~5 ms, so two
#: connections are busy about a fifth of the time
RATE = 40.0

#: requests per chunk whose percentiles the run's median is taken over
#: (20 samples above p90 in each)
CHUNK = 200

#: back-to-back requests after the open loop: the two connections send
#: as fast as the replies come, so their rate is what the hit path
#: sustains, where the open loop's rate is only the offered one
BURST = 3 * CHUNK

#: zoo families of the bodies (the light searches, so pre-warming is
#: short)
FAMILIES = ("branchy", "fanout", "loopy")
#: the replay set: EWF/DCT mutants plus light zoo bodies
REPLAY_MUTANTS = 10
REPLAY_ZOO = 20
#: new bodies a traced run sends after the replay, so the write path
#: (search in the pool, cache put, job queue) is traced too
MISS_MUTANTS = 2
MISS_ZOO = 6
MISS_RATE = 2.0

HERE = os.path.dirname(os.path.abspath(__file__))


def _mutants(count: int, first: int = 0) -> List[Dict[str, Any]]:
    """EWF/DCT mutants ``first .. first+count`` over the paper's points.

    They are ``mutant_requests`` bodies (same budget) with the design
    point and search seed set here, and the same in every run, so runs
    on different seeds replay the same paper-sized results.
    """
    template = mutant_requests(1)[0]
    points = itertools.islice(itertools.cycle(PAPER_POINTS), first,
                              first + count)
    return [dict(template, cdfg={"bench": bench}, length=length,
                 seed=(first + n) // len(PAPER_POINTS))
            for n, (bench, length) in enumerate(points)]


def _zoo(seed: int, count: int, first: int = 0) -> List[Dict[str, Any]]:
    """Light zoo bodies ``first .. first+count`` drawn from *seed*."""
    base = seed * 100_000
    return [zoo_requests(1, families=[FAMILIES[n % len(FAMILIES)]],
                         seed_base=base + n)[0]
            for n in range(first, first + count)]


def replay_bodies(seed: int) -> List[Dict[str, Any]]:
    return _mutants(REPLAY_MUTANTS) + _zoo(seed, REPLAY_ZOO)


def miss_bodies(seed: int) -> List[Dict[str, Any]]:
    """Bodies none of which is in :func:`replay_bodies`."""
    return (_mutants(MISS_MUTANTS, first=REPLAY_MUTANTS)
            + _zoo(seed, MISS_ZOO, first=REPLAY_ZOO))


# ------------------------------------------------------------------ server

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _tree(pid: int) -> List[int]:
    """*pid* and every descendant still running."""
    pids, queue = [], [pid]
    while queue:
        current = queue.pop()
        pids.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    queue.extend(int(child) for child in fh.read().split())
        except OSError:
            continue
    return pids


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One server process (and its worker pool) serving from *cache_dir*."""

    def __init__(self, root: str, cache_dir: str,
                 trace_out: Optional[str] = None) -> None:
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        serve = ["serve", "--port", str(self.port), "--workers", "2",
                 "--worker-mode", "process", "--cache-dir", cache_dir]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.service"] + serve
        else:
            command = [sys.executable,
                       os.path.join(HERE, "serve_traced.py"), trace_out,
                       "--"] + serve
        tmp = os.path.join(cache_dir + ".tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   TMPDIR=tmp)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL,
            start_new_session=True)
        try:
            ServiceClient(self.url).wait_until_healthy(timeout=60.0,
                                                       poll_s=0.02)
        except BaseException:
            self.stop()
            raise
        #: spawn until ``/healthz`` answers
        self.ready_seconds = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return sum(_peak_rss_kb(pid) for pid in _tree(self.process.pid)) \
            / 1024.0

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        """SIGINT (clean shutdown), then make sure the group is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=20)
        # pool workers are the server's children, not ours: wait until
        # the kill has reaped them too
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and _group_alive(self.process.pid):
            time.sleep(0.05)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


# ------------------------------------------------------------- open loop

@dataclass
class Sample:
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: str = "error"
    cached: bool = False
    degraded: bool = False
    result: Optional[Dict[str, Any]] = None
    queue_s: float = 0.0
    run_s: float = 0.0
    error: str = ""

    @property
    def ok_response(self) -> bool:
        return self.status == "done" and not self.degraded

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Window:
    samples: List[Sample]
    seconds: float


def open_loop(url: str, bodies: List[Dict[str, Any]], rate: float,
              count: int, first: int = 0) -> Window:
    """Send ``bodies[first:first+count]`` (cycled) at *rate* per second."""
    samples = [Sample(index=first + k, due=0.0) for k in range(count)]
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender() -> None:
        client = ServiceClient(url, timeout=120.0)
        while True:
            with lock:
                position = cursor[0]
                cursor[0] += 1
            if position >= count:
                return
            sample = samples[position]
            sample.due = start + position / rate
            delay = sample.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample.sent = time.perf_counter()
            body = bodies[sample.index % len(bodies)]
            try:
                response = client.allocate(body)
                sample.status = response.get("status", "?")
                sample.cached = bool(response.get("cached"))
                sample.degraded = bool(response.get("degraded"))
                sample.result = response.get("result")
                sample.queue_s = response.get("queue_seconds") or 0.0
                sample.run_s = response.get("run_seconds") or 0.0
            except (ServiceError, OSError) as exc:
                sample.error = f"{type(exc).__name__}: {exc}"
            sample.done = time.perf_counter()

    threads = [threading.Thread(target=sender, name=f"bench-sender-{n}")
               for n in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Window(samples=samples,
                  seconds=max(s.done for s in samples) - start)


# ----------------------------------------------------------- verification

@dataclass
class Checked:
    cost: float
    mux: int
    clock_ns: float


def check_result(body: Dict[str, Any],
                 result: Dict[str, Any]) -> tuple:
    """Decode a served binding through ``repro.io`` and verify it.

    Returns ``(problems, Checked)``; the binding must be legal, agree
    with the interpreter cycle by cycle, belong to the requested graph
    and carry the cost the server reported.
    """
    problems = []
    binding = binding_from_json(json.dumps(result["binding"]))
    violations = check_binding(binding)
    if violations:
        problems.append(f"{len(violations)} checker violations")
    report = roundtrip_binding(binding)
    if not report.ok:
        problems.append(f"RTL round trip: {report}")
    want_graph = canonical_dumps(cdfg_to_dict(request_from_dict(body).graph))
    if canonical_dumps(cdfg_to_dict(binding.graph)) != want_graph:
        problems.append("binding is for another graph")
    cost = binding.cost()
    if cost.total != result["cost"]["total"]:
        problems.append("decoded cost differs from the reported cost")
    return problems, Checked(cost=cost.total, mux=cost.mux_count,
                             clock_ns=analyze_binding(binding)
                             .clock_period_ns)


def metricsz_histogram(url: str, name: str) -> tuple:
    snapshot = ServiceClient(url).metricsz().get(name, {})
    return snapshot.get("sum", 0.0), snapshot.get("count", 0)
