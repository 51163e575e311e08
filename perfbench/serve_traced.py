"""Run ``repro.service serve`` with span wrappers around its layers.

Usage::

    python perfbench/serve_traced.py OUT.json -- serve --port ... [serve args]

The wrappers are installed before the service is built and stay off
until the process receives SIGUSR1, so the benchmark can time the same
server with tracing off and then on.  Once on, pool workers run their
restarts through :func:`traced_run_restart`, which traces the search in
the worker and ships the spans back on the restart outcome.  On exit
(SIGINT) the per-layer metrics go to ``OUT.json`` and every span to
``OUT.spans.jsonl``.
"""

from __future__ import annotations

import json
import signal
import sys
from typing import Any, Dict

from spans import Tracer
import layers

import repro.core.parallel as parallel
import repro.service.jobs as jobs
from repro.service.__main__ import main as service_main

_run_restart = parallel.run_restart
#: the pool worker's own tracer, made on its first traced restart
_worker: Dict[str, Tracer] = {}


def traced_run_restart(job: Any) -> Any:
    """Pool-worker entry point: one restart with the search traced."""
    tracer = _worker.get("tracer")
    if tracer is None:
        tracer = _worker["tracer"] = Tracer()
        layers.install_search(tracer)
        tracer.enabled = True
    tracer.spans = []
    tracer.counts.clear()
    outcome = parallel.run_restart(job)
    outcome.bench_spans = tracer.export()
    outcome.bench_counts = dict(tracer.counts)
    return outcome


def main(argv: list) -> int:
    out_path, separator, serve_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: serve_traced.py OUT.json -- serve ...")
    tracer = Tracer()
    layers.install_server(tracer)

    def enable(signum: int, frame: Any) -> None:
        tracer.enabled = True
        jobs.run_restart = traced_run_restart

    signal.signal(signal.SIGUSR1, enable)
    try:
        return service_main(serve_args)
    finally:
        tracer.enabled = False
        jobs.run_restart = _run_restart
        tracer.write(out_path[:-len(".json")] + ".spans.jsonl")
        metrics = layers.layer_metrics(tracer)
        metrics["bench.covered_s"] = layers.covered_seconds(tracer)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
