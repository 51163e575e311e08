"""The repository benchmark: one workload per run, checked and measured.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload zoo_batch --seed 1 --seconds 30 --trace 0

Workloads: ``zoo_batch`` and ``paper_search`` run allocations in this
process; ``served_replay`` drives an HTTP server process.  See ``perfbench/README.md`` for what each one stresses.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the public calls of each layer, records spans and
reports the per-layer metrics instead.  Every delivered binding is
checked either way.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result, with
the machine fingerprint, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

BATCH = ("zoo_batch", "paper_search")
SERVED = ("served_replay",)

UNITS = {
    "setup_s": "s", "alloc_per_s": "1/s", "latency_p50_s": "s",
    "latency_p90_s": "s", "cost_total": "cost", "mux_total": "count",
    "clock_ns_total": "ns", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}

#: how a latency percentile reads when it lands on a failed request
FAILED_LATENCY_S = 1e9

#: set-up is repeated this many times per run and the median reported
SETUP_REPEATS = 3


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; failed requests sort last as +inf."""
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
    return FAILED_LATENCY_S if math.isinf(value) else value


def chunks(values: List[Any], size: int) -> List[List[Any]]:
    return [values[first:first + size]
            for first in range(0, len(values), size)]


def median_percentile(values: List[float], q: float, size: int) -> float:
    """Median over consecutive chunks of *size* of each chunk's *q*
    percentile, so a burst of host load that slows one chunk does not
    set the run's figure."""
    return statistics.median(percentile(chunk, q)
                             for chunk in chunks(values, size))


def above(values: List[float], q: float) -> int:
    """How many samples lie strictly above the *q* percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if min(value, FAILED_LATENCY_S) > cut)


def fingerprint() -> Dict[str, Any]:
    """Python version, CPU count and a fixed calibration loop's time."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for index in range(1_000_000):
            total += index * index
        times.append(time.perf_counter() - started)
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "calibration_s": statistics.median(times)}


# ------------------------------------------------------------------ batch

_SETUP_PROBE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/perfbench']\n"
    "import batch\n"
    "batch.WORKLOADS[sys.argv[2]](int(sys.argv[3]))\n"
    "print(time.perf_counter() - started)\n")


def run_batch(name: str, seed: int, seconds: float,
              trace: bool) -> Dict[str, Any]:
    import batch
    import layers
    from spans import Tracer

    items = batch.WORKLOADS[name](seed)
    setups = [time.perf_counter() - _START]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, ROOT, name, str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        setups.append(float(probe.stdout.strip().splitlines()[-1]))

    tracer = Tracer()
    metrics: Dict[str, float] = {}
    if trace:
        layers.install_search(tracer)
        tracer.enabled = True
    started = time.perf_counter()
    sweeps = [batch.run_items(items, tracer, "run0")]
    while not trace and (len(sweeps) < batch.MIN_SWEEPS
                         or time.perf_counter() - started < seconds):
        sweeps.append(batch.run_items(items, tracer, f"run{len(sweeps)}"))
    wall = time.perf_counter() - started
    delivered = sweeps[0]
    if trace:
        tracer.enabled = False
        tracer.uninstall()
        # the same allocations again with the wrappers gone, once the
        # process is as warm as it was for the traced run
        untraced = batch.run_items(items, tracer, "untraced")
        metrics = layers.layer_metrics(tracer)
        metrics["bench.trace_overhead_ratio"] = \
            sum(d.scaled_seconds for d in delivered) \
            / sum(d.scaled_seconds for d in untraced)
        metrics["bench.layer_coverage_ratio"] = \
            layers.covered_seconds(tracer) / wall
        tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl"))

    golden = batch.golden_problems(items, delivered) \
        if name == "zoo_batch" and seed == 0 else {}
    problems: List[str] = []
    passed: List[bool] = []
    for index, (item, got) in enumerate(zip(items, delivered)):
        found = batch.verify(got) + golden.pop(item.name, [])
        if any(sweep[index].encoded != got.encoded for sweep in sweeps):
            found.append("a repeat delivered another binding")
        problems += [f"{item.name}: {text}" for text in found]
        passed.append(not found)
    failed = passed.count(False)
    for row, found in sorted(golden.items()):  # rows the run never met
        problems += [f"{row}: {text}" for text in found]
        failed += 1

    scaled = [statistics.median(sweep[index].scaled_seconds
                                for sweep in sweeps)
              for index in range(len(items))]
    wall_s = [statistics.median(sweep[index].seconds for sweep in sweeps)
              for index in range(len(items))]
    # a batch user waits for the whole pass over the workload, so a
    # latency sample is one sweep's scaled time; a pass with a failed
    # allocation never delivers
    latencies = [sum(got.scaled_seconds for got in sweep)
                 if all(passed) else math.inf for sweep in sweeps]
    ok = [got for got, good in zip(delivered, passed) if good]
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "alloc_per_s": len(delivered) / sum(scaled),
            "latency_p50_s": percentile(latencies, 50),
            "latency_p90_s": percentile(latencies, 90),
            "cost_total": sum(got.cost for got in ok),
            "mux_total": sum(got.mux for got in ok),
            "clock_ns_total": sum(got.clock_ns for got in ok),
            "ok_ratio": 1.0 - failed / len(delivered),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {"attempted": len(delivered), "failed": failed,
            "problems": problems, "metrics": metrics,
            "details": {"allocations": len(delivered),
                        "sweeps": len(sweeps), "timed_s": wall,
                        "wall_alloc_per_s": len(delivered) / sum(wall_s),
                        "sweep_scaled_s": latencies,
                        "scaled_s": {item.name: seconds for item, seconds
                                     in zip(items, scaled)},
                        "host_s": statistics.median(
                            got.host_s for sweep in sweeps for got in sweep),
                        "setup_samples_s": setups}}


# ----------------------------------------------------------------- served

def _response_problems(sample: Any, cached: bool) -> List[str]:
    if not sample.ok_response:
        return [sample.error or f"status {sample.status}"
                + (" (degraded)" if sample.degraded else "")]
    if sample.cached != cached:
        return ["unexpected cache " + ("hit" if sample.cached else "miss")]
    return []


def _chunk_rate(samples: List[Any], latencies: Dict[int, float]) -> float:
    """Answered requests per second of a back-to-back chunk."""
    answered = sum(1 for s in samples if not math.isinf(latencies[s.index]))
    return answered / (max(s.done for s in samples)
                       - min(s.sent for s in samples))


def run_served(name: str, seed: int, seconds: float,
               trace: bool) -> Dict[str, Any]:
    import served

    bodies = served.replay_bodies(seed)
    news = served.miss_bodies(seed) if trace else []
    count = int(served.RATE * seconds)
    base = os.path.join(OUT, f"cache-{name}-seed{seed}-{os.getpid()}")
    trace_out = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    histograms = ("queue_seconds", "job_seconds")
    ready = []
    server = None
    misses: List[Any] = []
    try:
        for attempt in range(SETUP_REPEATS - 1):
            probe = served.Server(ROOT, f"{base}-probe{attempt}")
            probe.stop()
            ready.append(probe.ready_seconds)
        server = served.Server(ROOT, base,
                               trace_out=trace_out if trace else None)
        ready.append(server.ready_seconds)
        started = time.perf_counter()
        warm = served.open_loop(server.url, bodies, math.inf, len(bodies))
        setup = statistics.median(ready) + time.perf_counter() - started

        if trace:
            untraced = served.open_loop(server.url, bodies, served.RATE,
                                        count // 2)
            server.signal(signal.SIGUSR1)
            time.sleep(0.1)
            window = served.open_loop(server.url, bodies, served.RATE,
                                      count - count // 2, first=count // 2)
            before = {h: served.metricsz_histogram(server.url, h)
                      for h in histograms}
            misses = served.open_loop(server.url, news, served.MISS_RATE,
                                      len(news)).samples
            after = {h: served.metricsz_histogram(server.url, h)
                     for h in histograms}
            timed = untraced.samples + window.samples
        else:
            window = served.open_loop(server.url, bodies, served.RATE, count)
            burst = served.open_loop(server.url, bodies, math.inf,
                                     served.BURST, first=count)
            timed = window.samples + burst.samples
            peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        for path in [base] + [f"{base}-probe{n}"
                              for n in range(SETUP_REPEATS - 1)]:
            shutil.rmtree(path, ignore_errors=True)
            shutil.rmtree(path + ".tmp", ignore_errors=True)

    problems: List[str] = []
    failed = 0
    # every distinct result is decoded and checked once, at its miss
    checked: Dict[int, Any] = {}
    for sample in warm.samples:
        found = _response_problems(sample, cached=False)
        if not found:
            body = bodies[sample.index]
            found, checked[sample.index] = served.check_result(
                body, sample.result)
        problems += [f"warm-up {sample.index}: {text}" for text in found]
        failed += bool(found)
    for sample in misses:
        found = _response_problems(sample, cached=False)
        if not found:
            found = served.check_result(news[sample.index],
                                        sample.result)[0]
        problems += [f"new body {sample.index}: {text}" for text in found]
        failed += bool(found)
    latencies: Dict[int, float] = {}
    for sample in timed:
        slot = sample.index % len(bodies)
        found = _response_problems(sample, cached=True)
        if not found and slot not in checked:
            found = ["its warm-up failed"]
        # the client hands back parsed JSON, so identity is checked on
        # the canonical re-encoding (the server writes sorted keys)
        if not found and served.canonical_dumps(sample.result) != \
                served.canonical_dumps(warm.samples[slot].result):
            found = ["replayed result differs from its miss"]
        problems += [f"request {sample.index}: {text}" for text in found]
        failed += bool(found)
        latencies[sample.index] = math.inf if found else sample.latency
    attempted = len(warm.samples) + len(misses) + len(timed)
    # the open loop's answered requests, for latency and quality sums
    window_latencies = [latencies[s.index] for s in window.samples]
    good = [checked[s.index % len(bodies)] for s in window.samples
            if not math.isinf(latencies[s.index])]

    if trace:
        with open(trace_out, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
        hits = [s.done - s.sent for s in window.samples if s.cached]
        overheads = [s.done - s.sent - s.queue_s - s.run_s for s in misses]
        for histogram, metric in zip(histograms,
                                     ("service.jobs.queue_wait_s",
                                      "service.jobs.run_s")):
            total = after[histogram][0] - before[histogram][0]
            jobs = after[histogram][1] - before[histogram][1]
            metrics[metric] = total / jobs if jobs else 0.0
        metrics["service.http.hit_latency_s"] = \
            statistics.median(hits) if hits else 0.0
        metrics["service.http.overhead_s"] = \
            statistics.fmean(overheads) if overheads else 0.0
        metrics["bench.generator_late_s"] = statistics.fmean(
            max(0.0, s.sent - s.due) for s in window.samples)
        metrics["bench.trace_overhead_ratio"] = (
            statistics.fmean(s.latency for s in window.samples)
            / statistics.fmean(s.latency for s in untraced.samples))
        waited = sum(s.done - s.sent for s in window.samples + misses)
        metrics["bench.layer_coverage_ratio"] = \
            metrics.pop("bench.covered_s") / waited
    else:
        metrics = {
            "setup_s": setup,
            "alloc_per_s": statistics.median(
                _chunk_rate(chunk, latencies)
                for chunk in chunks(burst.samples, served.CHUNK)),
            "latency_p50_s": median_percentile(window_latencies, 50,
                                               served.CHUNK),
            "latency_p90_s": median_percentile(window_latencies, 90,
                                               served.CHUNK),
            "cost_total": sum(q.cost for q in good),
            "mux_total": sum(q.mux for q in good),
            "clock_ns_total": sum(q.clock_ns for q in good),
            "ok_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss,
        }
    return {"attempted": attempted, "failed": failed,
            "problems": problems, "metrics": metrics,
            "details": {"rate_per_s": served.RATE, "requests": count,
                        "burst_requests": 0 if trace else served.BURST,
                        "connections": served.CONNECTIONS,
                        "window_s": window.seconds,
                        "setup_samples_s": ready,
                        "above_p90": above(window_latencies, 90),
                        "generator_late_mean_s": statistics.fmean(
                            max(0.0, s.sent - s.due)
                            for s in window.samples)}}


# ------------------------------------------------------------------- main

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=BATCH + SERVED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.makedirs(OUT, exist_ok=True)

    runner = run_batch if args.workload in BATCH else run_served
    outcome = runner(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    metrics = outcome["metrics"]
    correct = not outcome["problems"]
    document = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(), "correct": correct,
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "fail_ratio": outcome["failed"] / outcome["attempted"],
        "problems": outcome["problems"], "details": outcome["details"],
        "metrics": metrics,
    }
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)

    for problem in outcome["problems"][:20]:
        print(f"FAIL {problem}")
    print(f"fingerprint {json.dumps(document['fingerprint'])}")
    print(f"details {json.dumps(outcome['details'])}")
    print(f"fail_ratio {document['fail_ratio']:.6f}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct, "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
