"""Which public calls are wrapped, and the per-layer metrics they give.

The span names are the repository's module names, so a per-layer metric
reads as ``<module>.<what>``.  ``install_search`` covers the search
(``core.*``, run in-process by the batch workloads and in the pool
workers of a served run); ``install_server`` covers the layers the HTTP
server process itself runs.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, Optional

from spans import Tracer

#: polish sweep functions of ``repro.core.polish`` and their metric names
SWEEPS = {
    "sweep_fu_moves": "fu_moves",
    "sweep_operand_swaps": "operand_swaps",
    "sweep_read_sources": "read_sources",
    "sweep_value_moves": "value_moves",
    "sweep_value_exchanges": "value_exchanges",
    "sweep_segment_hops": "segment_hops",
    "sweep_passthroughs": "passthroughs",
}

#: every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    ["core.polish.self_s", "core.polish.calls", "core.polish.rounds"]
    + [f"core.polish.{kind}_s" for kind in SWEEPS.values()]
    + ["core.polish.candidates", "core.polish.commit_ratio",
       "core.improve.self_s", "core.improve.moves",
       "core.improve.moves_per_s", "core.improve.apply_ratio",
       "core.improve.accept_ratio", "core.improve.trials",
       "core.binding.restore_s", "core.binding.restore_calls",
       "core.binding.clone_s", "core.binding.clone_calls",
       "core.parallel.restart_s", "core.initial_s", "core.allocator_s",
       "sched.schedule_s", "alloc.check_s", "datapath.netlist_s",
       "datapath.muxmerge_s", "datapath.rtl_s", "timing.sta_s",
       "io.encode_s",
       "service.codec.decode_s", "service.codec.key_s",
       "service.cache.get_s", "service.cache.put_s",
       "service.cache.hit_ratio", "service.http.hit_latency_s",
       "service.jobs.queue_wait_s", "service.jobs.run_s",
       "service.http.overhead_s", "service.http.read_s",
       "service.http.send_s",
       "bench.generator_late_s", "bench.trace_overhead_ratio",
       "bench.layer_coverage_ratio"])

#: span names whose self time is reported as a total ``<name>_s``
_TOTAL_TIMES = {
    "core.polish": "core.polish.self_s",
    "core.improve": "core.improve.self_s",
    "core.binding.restore": "core.binding.restore_s",
    "core.binding.clone": "core.binding.clone_s",
    "core.parallel.restart": "core.parallel.restart_s",
    "core.initial": "core.initial_s",
    "core.allocator": "core.allocator_s",
    "sched.schedule": "sched.schedule_s",
    "alloc.check": "alloc.check_s",
    "datapath.netlist": "datapath.netlist_s",
    "datapath.muxmerge": "datapath.muxmerge_s",
    "datapath.rtl": "datapath.rtl_s",
    "timing.sta": "timing.sta_s",
    "io.encode": "io.encode_s",
}
_TOTAL_TIMES.update({f"core.polish.{kind}": f"core.polish.{kind}_s"
                     for kind in SWEEPS.values()})

#: span names whose self time is reported per call (a request's share)
_MEAN_TIMES = {
    "service.codec.decode": "service.codec.decode_s",
    "service.codec.key": "service.codec.key_s",
    "service.cache.get": "service.cache.get_s",
    "service.cache.put": "service.cache.put_s",
    "service.http.request": "service.http.read_s",
    "service.http.send": "service.http.send_s",
}


def _count_improve(tracer: Tracer):
    def on_result(stats: Any, span: Any) -> None:
        counts = tracer.counts
        counts["improve.moves"] += stats.moves_attempted
        counts["improve.applied"] += stats.moves_applied
        counts["improve.accepted"] += stats.moves_accepted
        counts["improve.trials"] += stats.trials_run
    return on_result


def install_search(tracer: Tracer) -> None:
    """Wrap the search layers: restart, initial, improve, polish, state."""
    # repro.core re-exports the functions improve() and polish() under
    # their modules' names, so the modules are looked up by path
    allocator = import_module("repro.core.allocator")
    improve = import_module("repro.core.improve")
    parallel = import_module("repro.core.parallel")
    polish = import_module("repro.core.polish")
    from repro.core.binding import Binding

    tracer.wrap(allocator._RestartAllocator, "allocate", "core.allocator")
    tracer.wrap(allocator, "schedule_graph", "sched.schedule")
    tracer.wrap(parallel, "run_restart", "core.parallel.restart")
    tracer.wrap(parallel, "initial_allocation", "core.initial")
    tracer.wrap(parallel, "improve", "core.improve",
                on_result=_count_improve(tracer))
    tracer.wrap(improve, "polish", "core.polish")
    for function, kind in SWEEPS.items():
        tracer.wrap(polish, function, f"core.polish.{kind}")
    tracer.wrap(Binding, "restore_state", "core.binding.restore")
    tracer.wrap(Binding, "clone_state", "core.binding.clone")
    tracer.count_calls(Binding, "begin_move", "polish.candidates",
                       within="core.polish")
    tracer.count_calls(Binding, "commit_move", "polish.commits",
                       within="core.polish")
    install_check(tracer)


def install_check(tracer: Tracer) -> None:
    """Wrap the legality checker (``assert_legal`` calls through it)."""
    import repro.alloc.checker as checker
    tracer.wrap(checker, "check_binding", "alloc.check")


def install_server(tracer: Tracer) -> None:
    """Wrap the layers the HTTP server process runs itself."""
    allocator = import_module("repro.core.allocator")
    import repro.service.jobs as jobs
    import repro.service.server as server
    from repro.service.cache import TieredCache

    tracer.wrap(server._Handler, "do_POST", "service.http.request")
    tracer.wrap(server._Handler, "_send", "service.http.send")
    tracer.wrap(server.AllocationService, "allocate",
                "service.http.allocate")
    tracer.wrap(jobs.Job, "wait", "service.jobs.wait")
    tracer.wrap(jobs.JobManager, "_execute", "service.jobs.execute",
                id_of=lambda manager, job: job.key)
    tracer.wrap(jobs.JobManager, "_dispatch_restarts",
                "service.jobs.dispatch", on_result=_adopt(tracer))
    tracer.wrap(server, "request_from_dict", "service.codec.decode")
    tracer.wrap(jobs, "request_key", "service.codec.key",
                on_result=_name_root)
    tracer.wrap(jobs, "warm_key", "service.codec.key")
    tracer.wrap(TieredCache, "get", "service.cache.get",
                on_result=_count_get(tracer))
    tracer.wrap(TieredCache, "put", "service.cache.put")
    tracer.wrap(allocator, "schedule_graph", "sched.schedule")
    tracer.wrap(jobs, "binding_to_dict", "io.encode")
    install_check(tracer)


def _adopt(tracer: Tracer):
    """Graft the spans pool workers shipped back on their outcomes."""
    def on_result(outcomes: Any, span: Any) -> None:
        for outcome in outcomes:
            records = outcome.__dict__.pop("bench_spans", None)
            counts = outcome.__dict__.pop("bench_counts", None)
            if records is not None:
                tracer.adopt(records, span)
            if counts is not None:
                with tracer.lock:
                    tracer.counts.update(counts)
    return on_result


def _name_root(key: str, span: Any) -> None:
    """Give the request's root span the request key as its id."""
    if span.root.id is None:
        span.root.id = key


def _count_get(tracer: Tracer):
    def on_result(payload: Optional[bytes], span: Any) -> None:
        # only exact-key reads count toward the hit ratio; warm-store
        # reads happen inside the job, under the execute span
        if tracer.inside("service.http.allocate"):
            with tracer.lock:
                tracer.counts["cache.gets"] += 1
                tracer.counts["cache.hits"] += payload is not None
    return on_result


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers derived from the tracer's spans and counts.

    Metrics a workload never reaches read 0: the layer was bypassed.
    """
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    counts = tracer.counts
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in _TOTAL_TIMES.items():
        metrics[metric] = self_s.get(span_name, 0.0)
    for span_name, metric in _MEAN_TIMES.items():
        metrics[metric] = _ratio(self_s.get(span_name, 0.0),
                                 calls.get(span_name, 0))
    metrics["core.polish.calls"] = calls.get("core.polish", 0)
    # polish() opens every round with the FU sweep
    metrics["core.polish.rounds"] = calls.get("core.polish.fu_moves", 0)
    metrics["core.polish.candidates"] = counts["polish.candidates"]
    metrics["core.polish.commit_ratio"] = _ratio(
        counts["polish.commits"], counts["polish.candidates"])
    metrics["core.improve.moves"] = counts["improve.moves"]
    metrics["core.improve.moves_per_s"] = _ratio(
        counts["improve.moves"], self_s.get("core.improve", 0.0))
    metrics["core.improve.apply_ratio"] = _ratio(
        counts["improve.applied"], counts["improve.moves"])
    metrics["core.improve.accept_ratio"] = _ratio(
        counts["improve.accepted"], counts["improve.applied"])
    metrics["core.improve.trials"] = counts["improve.trials"]
    metrics["core.binding.restore_calls"] = calls.get(
        "core.binding.restore", 0)
    metrics["core.binding.clone_calls"] = calls.get("core.binding.clone", 0)
    metrics["service.cache.hit_ratio"] = _ratio(counts["cache.hits"],
                                                counts["cache.gets"])
    return metrics


def covered_seconds(tracer: Tracer) -> float:
    """Self time of every layer span.

    The benchmark's own spans are left out, and so is a request thread's
    wait for its job, whose work is recorded on the job's thread.
    """
    return sum(seconds for name, seconds in tracer.self_seconds().items()
               if not name.startswith("bench.")
               and name != "service.jobs.wait")
