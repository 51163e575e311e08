"""Stdlib-only JSON API over the job manager.

Endpoints (all JSON):

* ``POST /allocate`` — submit an allocation request.  Synchronous by
  default: the connection is held until the job finishes (or the server's
  sync-wait cap fires, after which the client polls).  ``"async": true``
  in the body returns ``202 Accepted`` with the job ID immediately.
* ``GET /jobs/<id>`` — job status, plus the result once done.
* ``POST /jobs/<id>/cancel`` (or ``DELETE /jobs/<id>``) — cancellation.
* ``GET /healthz`` — liveness: uptime, queue depth, jobs in flight.
* ``GET /metricsz`` — full metrics-registry snapshot;
  ``GET /metricsz?report=1`` returns the condensed
  :func:`repro.analysis.stats.service_report` instead.

Status codes: ``200`` done (including deadline-degraded results, which
carry ``degraded: true``), ``202`` accepted/still running, ``400`` bad
request, ``404`` unknown job or path, ``422`` failed job, ``503`` queue
full.  The server is a :class:`http.server.ThreadingHTTPServer`, so slow
searches never block health checks or metrics scrapes.
"""

from __future__ import annotations

import hashlib
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.service.cache import (DEFAULT_MEMORY_BUDGET, MemoryLRUCache,
                                 TieredCache)
from repro.service.codec import RequestError, request_from_dict
from repro.service.jobs import (DONE, FAILED, CANCELLED, JobManager,
                                JobNotFoundError, QueueFullError)
from repro.service.metrics import MetricsRegistry
from repro.analysis.stats import service_report

#: maximum accepted request body (a large CDFG document is ~1 MB)
MAX_BODY_BYTES = 16 * 1024 * 1024

#: how long a synchronous POST /allocate holds the connection before
#: telling the client to poll GET /jobs/<id> instead
DEFAULT_SYNC_WAIT_S = 600.0

#: raw-body digests the exact-key hit path remembers (sha256 of the body
#: -> request key; about 330 bytes an entry, 0.7 MB when full)
BODY_MEMO_SIZE = 2048

#: a request key is a sha256 hex digest: 64 bytes of memo payload each
_KEY_BYTES = 64

#: a reply: a JSON-able payload, or bytes already encoded as JSON
Reply = Union[Dict[str, Any], bytes]


def _parse_body(raw: bytes) -> Any:
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise RequestError(f"body is not valid JSON: {exc}") from None


def _splice(envelope: Dict[str, Any], result: bytes) -> bytes:
    """``json.dumps({**envelope, "result": ...}, sort_keys=True)`` with the
    stored canonical *result* bytes placed verbatim, not re-encoded."""
    fields = [(name, json.dumps(value, sort_keys=True).encode("utf-8"))
              for name, value in envelope.items()]
    fields.append(("result", result))
    return b"{" + b", ".join(json.dumps(name).encode("utf-8") + b": " + value
                             for name, value in sorted(fields)) + b"}"


def _hit_reply(job_id: str, result: bytes) -> bytes:
    return _splice({"job_id": job_id, "status": DONE, "cached": True,
                    "degraded": False}, result)


class AllocationService:
    """The service core the HTTP layer (and tests) drive directly."""

    def __init__(self, workers: int = 2, queue_limit: int = 64,
                 cache_dir: Optional[str] = None,
                 memory_budget: int = DEFAULT_MEMORY_BUDGET,
                 persistent_cache: bool = True,
                 max_attempts: int = 3,
                 sync_wait_s: float = DEFAULT_SYNC_WAIT_S,
                 worker_mode: str = "thread",
                 batch_limit: Optional[int] = None) -> None:
        self.metrics = MetricsRegistry()
        self.cache = TieredCache.standard(cache_dir=cache_dir,
                                          memory_budget=memory_budget,
                                          metrics=self.metrics,
                                          persistent=persistent_cache)
        job_kwargs = {} if batch_limit is None \
            else {"batch_limit": batch_limit}
        self.jobs = JobManager(cache=self.cache, metrics=self.metrics,
                               workers=workers, queue_limit=queue_limit,
                               max_attempts=max_attempts,
                               worker_mode=worker_mode, **job_kwargs)
        self.sync_wait_s = sync_wait_s
        # an LRU of body digest -> request key whose byte budget holds
        # exactly BODY_MEMO_SIZE keys
        self._body_keys = MemoryLRUCache(BODY_MEMO_SIZE * _KEY_BYTES)
        self._undecoded_hits = self.metrics.counter(
            "requests_allocate_undecoded",
            "POST /allocate cache hits answered from the body digest, "
            "without decoding the body")
        self.started_at = time.time()  # display-only wall stamp
        self._started_mono = time.monotonic()

    def close(self) -> None:
        self.jobs.shutdown()

    # ---------------------------------------------------------- operations

    def allocate(self, raw: bytes) -> Tuple[int, Reply]:
        """Handle one raw ``POST /allocate`` body; returns (status, reply).

        A body seen before maps through its sha256 digest to its request
        key, so an exact-key hit costs one hash and one cache read: the
        body is not decoded and the stored result bytes go out verbatim.
        Everything else is decoded and submitted.
        """
        self.metrics.counter("requests_allocate",
                             "POST /allocate requests").inc()
        digest = hashlib.sha256(raw).hexdigest()
        key = self._body_keys.get(digest)
        if key is not None:
            hit = self.jobs.serve_cached(key.decode("ascii"))
            if hit is not None:
                self._undecoded_hits.inc()
                served, stored = hit
                return 200, _hit_reply(served.id, stored)
            # the entry has gone (evicted or removed): decode and submit

        body = _parse_body(raw)
        request = request_from_dict(body)
        try:
            job, cached = self.jobs.submit(request)
        except QueueFullError as exc:
            return 503, {"error": str(exc), "status": "rejected"}
        # "cache": false bodies must never be answered from the cache, so
        # only bodies allowed to read it are remembered
        if request.cache_ok:
            self._body_keys.put(digest, job.key.encode("ascii"))

        if cached is not None:
            return 200, _hit_reply(job.id, cached)
        if body.get("async", False):
            return 202, {"job_id": job.id, "status": job.status,
                         "cached": False}
        job.wait(self.sync_wait_s)
        return self.job_status(job.id)

    def job_status(self, job_id: str) -> Tuple[int, Reply]:
        self.metrics.counter("requests_jobs", "GET /jobs requests").inc()
        job = self.jobs.get(job_id)  # raises JobNotFoundError -> 404
        payload: Dict[str, Any] = dict(job.describe())
        payload["cached"] = False
        if job.status == DONE:
            if job.result is not None:
                payload["result"] = job.result
                payload["degraded"] = job.result["degraded"]
            else:
                # synthetic record for a cache-served submission: re-read
                # the payload so polling the job ID still yields the result
                cached = self.cache.get(job.key)
                if cached is not None:
                    payload["cached"] = True
                    payload["degraded"] = False
                    return 200, _splice(payload, cached)
            return 200, payload
        if job.status == FAILED:
            return 422, payload
        if job.status == CANCELLED:
            return 200, payload
        return 202, payload

    def cancel_job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        self.metrics.counter("requests_jobs", "GET /jobs requests").inc()
        job = self.jobs.cancel(job_id)
        return 202, job.describe()

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        self.metrics.counter("requests_healthz", "GET /healthz").inc()
        return 200, {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_mono,
            "worker_mode": self.jobs.worker_mode,
            "workers": self.jobs.workers,
            "queue_depth": self.metrics.gauge("queue_depth").value,
            "jobs_in_flight": self.metrics.gauge("jobs_in_flight").value,
            "cache": self.cache.stats(),
        }

    def metricsz(self, condensed: bool = False) \
            -> Tuple[int, Dict[str, Any]]:
        self.metrics.counter("requests_metricsz", "GET /metricsz").inc()
        snapshot = self.metrics.snapshot()
        if condensed:
            return 200, service_report(snapshot)
        return 200, snapshot


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the :class:`AllocationService`."""

    service: AllocationService  # injected by make_server()
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args: Any) -> None:
        pass  # quiet by default; metrics carry the traffic numbers

    def _send(self, status: int, payload: Reply) -> None:
        body = payload if isinstance(payload, bytes) \
            else json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", "0"))
        if length <= 0:
            raise RequestError("empty request body")
        if length > MAX_BODY_BYTES:
            raise RequestError(f"request body over {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    def _dispatch(self, handler) -> None:
        try:
            status, payload = handler()
        except RequestError as exc:
            status, payload = 400, {"error": str(exc)}
        except JobNotFoundError as exc:
            status, payload = 404, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - last-resort guard
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._send(status, payload)

    # --------------------------------------------------------------- routes

    def do_POST(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if path == "/allocate":
            self._dispatch(lambda: self.service.allocate(self._read_body()))
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path[len("/jobs/"):-len("/cancel")]
            self._dispatch(lambda: self.service.cancel_job(job_id))
        else:
            self._send(404, {"error": f"no POST route {path!r}"})

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/")
        if path == "/healthz":
            self._dispatch(self.service.healthz)
        elif path == "/metricsz":
            condensed = "report" in parse_qs(parsed.query)
            self._dispatch(lambda: self.service.metricsz(condensed))
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            self._dispatch(lambda: self.service.job_status(job_id))
        else:
            self._send(404, {"error": f"no GET route {path!r}"})

    def do_DELETE(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            self._dispatch(lambda: self.service.cancel_job(job_id))
        else:
            self._send(404, {"error": f"no DELETE route {path!r}"})


def make_server(host: str = "127.0.0.1", port: int = 8977,
                service: Optional[AllocationService] = None,
                **service_kwargs: Any) \
        -> Tuple[ThreadingHTTPServer, AllocationService]:
    """Build (but do not start) the HTTP server and its service core."""
    svc = service if service is not None \
        else AllocationService(**service_kwargs)

    class BoundHandler(_Handler):
        pass

    BoundHandler.service = svc
    server = ThreadingHTTPServer((host, port), BoundHandler)
    return server, svc


def _interrupt_on_sigterm(signum: int, frame: Any) -> None:
    # later SIGTERMs must not cut the shutdown below short
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise KeyboardInterrupt


def serve_forever(host: str = "127.0.0.1", port: int = 8977,
                  **service_kwargs: Any) -> None:
    """Run the service until interrupted (the ``serve`` CLI command).

    SIGTERM shuts down like Ctrl-C: the worker pool is closed, so a
    process-mode server leaves no forked worker behind.
    """
    server, svc = make_server(host, port, **service_kwargs)
    bound_port = server.server_address[1]
    print(f"repro.service listening on http://{host}:{bound_port} "
          f"(POST /allocate, GET /jobs/<id>, /healthz, /metricsz)")
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, _interrupt_on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        svc.close()
        if on_main:
            signal.signal(signal.SIGTERM, previous)


class ServerThread:
    """A server on an ephemeral port running in a daemon thread.

    The in-process harness used by tests, the throughput benchmark and the
    CI smoke check::

        with ServerThread() as url:
            ...  # drive url with urllib / ServiceClient
    """

    def __init__(self, **service_kwargs: Any) -> None:
        self.server, self.service = make_server(port=0, **service_kwargs)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="repro-service-http",
                                       daemon=True)

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> str:
        self.thread.start()
        return self.url

    def __exit__(self, *exc_info: Any) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
