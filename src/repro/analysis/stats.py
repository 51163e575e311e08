"""Run-to-run statistics of the randomized allocator.

The paper notes that "due to the random nature of the iterative
improvement scheme, multiple trials are sometimes necessary to find the
best result, increasing the actual CPU time required" (Sec. 5).  This
module quantifies that: it runs the allocator across many seeds and
reports the distribution of final mux counts, the expected best-of-k, and
how many restarts are needed to be within one multiplexer of the observed
optimum with given confidence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.cdfg.graph import CDFG
from repro.sched.schedule import Schedule
from repro.core import (ImproveConfig, ImproveStats, MoveCounters,
                        SalsaAllocator, TraditionalAllocator, run_restarts)


@dataclass
class SeedStudy:
    """Mux-count distribution of an allocator across seeds."""

    label: str
    mux_counts: List[int] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def best(self) -> int:
        return min(self.mux_counts)

    @property
    def worst(self) -> int:
        return max(self.mux_counts)

    @property
    def mean(self) -> float:
        return sum(self.mux_counts) / len(self.mux_counts)

    @property
    def spread(self) -> int:
        return self.worst - self.best

    def expected_best_of(self, k: int) -> float:
        """Expected best mux count when keeping the best of *k* runs.

        Computed exactly from the empirical distribution: for a sample of
        size n, E[min of k draws] = sum over sorted values of the
        probability that the minimum equals that value.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        values = sorted(self.mux_counts)
        n = len(values)
        expectation = 0.0
        for index, value in enumerate(values):
            # P(min >= values[index]) = ((n - index) / n)^k
            p_ge = ((n - index) / n) ** k
            p_ge_next = ((n - index - 1) / n) ** k if index + 1 < n else 0.0
            expectation += value * (p_ge - p_ge_next)
        return expectation

    def restarts_for_near_best(self, tolerance: int = 1,
                               confidence: float = 0.9) -> int:
        """Smallest k with P(best-of-k <= best + tolerance) >= confidence."""
        good = sum(1 for m in self.mux_counts
                   if m <= self.best + tolerance)
        p = good / len(self.mux_counts)
        if p >= 1.0:
            return 1
        k = 1
        while 1.0 - (1.0 - p) ** k < confidence:
            k += 1
            if k > 1000:
                break
        return k

    def summary(self) -> str:
        return (f"{self.label}: best {self.best}, mean {self.mean:.1f}, "
                f"worst {self.worst} over {len(self.mux_counts)} seeds; "
                f"E[best-of-3] = {self.expected_best_of(3):.1f}; "
                f"{self.restarts_for_near_best()} restart(s) for 90% "
                f"chance of best+1 ({self.seconds:.1f}s)")


def seed_study(graph: CDFG, schedule: Schedule,
               registers: Optional[int] = None,
               seeds: Sequence[int] = tuple(range(10)),
               traditional: bool = False,
               config: Optional[ImproveConfig] = None,
               workers: int = 1) -> SeedStudy:
    """Allocate once per seed (single restart each) and collect stats.

    Routes through the parallel restart engine: each seed becomes one
    independent :class:`~repro.core.parallel.RestartJob`, so *workers* > 1
    fans the whole study out over processes with bit-identical results.
    """
    cfg = config if config is not None else \
        ImproveConfig(max_trials=6, moves_per_trial=400)
    cls = TraditionalAllocator if traditional else SalsaAllocator
    label = f"{'trad' if traditional else 'salsa'}:{schedule.label}"
    study = SeedStudy(label=label)
    started = time.monotonic()
    jobs = []
    for index, seed in enumerate(seeds):
        allocator = cls(seed=seed, restarts=1, config=cfg)
        _schedule, seed_jobs = allocator.prepare_jobs(
            graph, schedule=schedule, registers=registers)
        jobs.append(replace(seed_jobs[0], index=index))
    for outcome in run_restarts(jobs, workers=workers):
        study.mux_counts.append(outcome.cost.mux_count)
    study.seconds = time.monotonic() - started
    return study


# ------------------------------------------------------- search telemetry

def merge_move_counters(
        all_stats: Sequence[ImproveStats]) -> Dict[str, MoveCounters]:
    """Sum the per-move-type counters of several improvement runs."""
    merged: Dict[str, MoveCounters] = {}
    for stats in all_stats:
        for name, counters in stats.per_move.items():
            into = merged.setdefault(name, MoveCounters())
            into.attempts += counters.attempts
            into.applies += counters.applies
            into.accepts += counters.accepts
            into.rollbacks += counters.rollbacks
            into.uphill += counters.uphill
    return merged


def telemetry_report(all_stats: Sequence[ImproveStats]) -> Dict[str, Any]:
    """Aggregate search telemetry across improvement runs (JSON-able).

    The per-move accept/rollback split always satisfies
    ``accepts + rollbacks == applies`` — every applied move is either kept
    or reverted — so acceptance rates here are exact, not sampled.
    """
    merged = merge_move_counters(all_stats)
    finals = [s.final_cost.total for s in all_stats
              if s.final_cost is not None]
    phase_ns: Dict[str, int] = {}
    phase_samples: Dict[str, int] = {}
    for stats in all_stats:
        for phase, total in stats.phase_ns.items():
            phase_ns[phase] = phase_ns.get(phase, 0) + total
        for phase, count in stats.phase_samples.items():
            phase_samples[phase] = phase_samples.get(phase, 0) + count
    return {
        "runs": len(all_stats),
        "trials_run": sum(s.trials_run for s in all_stats),
        "moves_attempted": sum(s.moves_attempted for s in all_stats),
        "moves_applied": sum(s.moves_applied for s in all_stats),
        "moves_accepted": sum(s.moves_accepted for s in all_stats),
        "uphill_accepted": sum(s.uphill_accepted for s in all_stats),
        "uphill_budget_used": sum(sum(s.uphill_used) for s in all_stats),
        "seconds": sum(s.seconds for s in all_stats),
        "best_final_cost": min(finals) if finals else None,
        "stopped_early_runs": sum(1 for s in all_stats if s.stopped_early),
        "per_move": {name: counters.to_dict()
                     for name, counters in sorted(merged.items())},
        "phase_ns": dict(sorted(phase_ns.items())),
        "phase_samples": dict(sorted(phase_samples.items())),
    }


def service_report(metrics_snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Operator-facing summary of a ``/metricsz`` registry snapshot.

    Condenses the raw counter/gauge/histogram dump into the handful of
    serving numbers one actually watches: traffic, cache hit-rate, queue
    pressure, failure/degradation/retry counts, and latency percentiles
    (overall job latency plus the sampled per-search-phase µs costs).
    """
    def value(name: str) -> float:
        metric = metrics_snapshot.get(name)
        return float(metric["value"]) if metric else 0.0

    hits, misses = value("cache_hits"), value("cache_misses")
    lookups = hits + misses
    job_seconds = metrics_snapshot.get("job_seconds", {})
    phases = {}
    for name, metric in metrics_snapshot.items():
        if name.startswith("phase_us_") and metric.get("kind") == "histogram":
            phases[name[len("phase_us_"):]] = {
                "mean_us": metric.get("mean"),
                "p50_us": metric.get("p50"),
                "p99_us": metric.get("p99"),
                "samples": metric.get("count", 0),
            }
    return {
        "requests": {name: value(f"requests_{name}")
                     for name in ("allocate", "jobs", "healthz", "metricsz")},
        "jobs": {
            "submitted": value("jobs_submitted"),
            "coalesced": value("jobs_coalesced"),
            "completed": value("jobs_completed"),
            "failed": value("jobs_failed"),
            "cancelled": value("jobs_cancelled"),
            "rejected": value("jobs_rejected"),
            "retried": value("jobs_retried"),
            "degraded": value("jobs_degraded"),
            "warm_started": value("jobs_warm_started"),
            "in_flight": value("jobs_in_flight"),
            "queue_depth": value("queue_depth"),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else None,
            # hits answered from the body digest, without decoding it
            "undecoded_hits": value("requests_allocate_undecoded"),
            "memory_bytes": value("cache_memory_bytes"),
        },
        "latency": {
            "jobs_completed": job_seconds.get("count", 0),
            "mean_s": job_seconds.get("mean"),
            "p50_s": job_seconds.get("p50"),
            "p90_s": job_seconds.get("p90"),
            "p99_s": job_seconds.get("p99"),
            "phases": phases,
        },
    }
