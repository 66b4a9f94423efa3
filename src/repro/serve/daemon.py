"""The ``repro.serve`` daemon: simulation-as-a-service over HTTP+JSON.

Stdlib only (``http.server``); every response is JSON.  Endpoints:

========  ======================  =========================================
method    path                    purpose
========  ======================  =========================================
POST      ``/v1/jobs``            submit a sweep (body: see
                                  :mod:`repro.serve.validate`); 202 with
                                  the job record, 200 when coalesced onto
                                  an identical in-flight job, 400 on
                                  validation errors, 429 when throttled
GET       ``/v1/jobs/<id>``       job state + progress (points done /
                                  total) + per-job cache counters
GET       ``/v1/jobs/<id>/result``  the finished sweep as the
                                  ``repro.metrics.export`` payload; 409
                                  until the job is done
GET       ``/v1/stats``           queue depth, aggregate cache counters,
                                  per-client request counts
POST      ``/v1/shutdown``        graceful shutdown: drain the running
                                  job, persist the queue, exit
========  ======================  =========================================

Architecture: a :class:`~http.server.ThreadingHTTPServer` answers
requests while one dispatcher thread drains the
:class:`~repro.serve.jobs.JobQueue` in submission order; each job fans its
cluster-size points to a bounded process pool through the sweep engine,
and all jobs share one content-addressed run cache, so identical work —
across requests, clients, daemon restarts, even the CLI — is simulated
exactly once.  Submissions are rate-limited per ``X-Client-Id`` with a
token bucket (429 + ``Retry-After`` when empty).
"""

from __future__ import annotations

import argparse
import json
import threading
import time
import traceback

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.metrics.export import SCHEMA_VERSION, sweep_to_dict
from repro.runtime import RunOptions
from repro.runtime.options import DEFAULT_CACHE_DIR
from repro.serve.jobs import DONE, FAILED, JobQueue, execute_job
from repro.serve.ratelimit import ClientTable
from repro.serve.validate import RequestError, validate_request

__all__ = ["ServeDaemon", "main"]

#: cap on request body size (a sweep submission is a few hundred bytes)
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    server: "ServeDaemon"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    @property
    def client_id(self) -> str:
        return (
            self.headers.get("X-Client-Id") or self.client_address[0]
        ).strip()

    def send_json(self, code: int, payload: dict,
                  headers: dict | None = None) -> None:
        body = (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_error_json(self, code: int, message: str,
                        headers: dict | None = None) -> None:
        self.send_json(
            code,
            {"schema_version": SCHEMA_VERSION, "error": message},
            headers,
        )

    def read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        length = int(header) if header.isdecimal() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread: the connection cannot carry another request.
            self.close_connection = True
            raise RequestError(
                f"request body over {MAX_BODY_BYTES} bytes" if length > 0
                else f"Content-Length must be a byte count, got {header!r}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise RequestError(f"request body is not valid JSON: {exc}")

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self.server.clients.note(self.client_id)
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["v1", "stats"]:
            return self.send_json(200, self.server.stats_payload())
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job = self.server.queue.get(parts[2])
            if job is None:
                return self.send_error_json(404, f"no such job {parts[2]!r}")
            if len(parts) == 3:
                return self.send_json(200, self.server.job_payload(job))
            if len(parts) == 4 and parts[3] == "result":
                return self.result_route(job)
        self.send_error_json(404, f"no such resource {self.path!r}")

    def result_route(self, job) -> None:
        if job.state == FAILED:
            return self.send_error_json(
                500, f"job {job.id} failed: {job.error}"
            )
        if job.state != DONE:
            return self.send_error_json(
                409,
                f"job {job.id} is {job.state}; result not available yet",
            )
        self.send_json(
            200,
            {
                "schema_version": SCHEMA_VERSION,
                "id": job.id,
                "request": job.request.body,
                "sweep": sweep_to_dict(job.sweep),
                "cache": job.cache.summary(),
            },
        )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        client = self.client_id
        self.server.clients.note(client)
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["v1", "shutdown"]:
            self.send_json(
                200,
                {"schema_version": SCHEMA_VERSION, "shutting_down": True},
            )
            self.server.request_shutdown()
            return
        if parts != ["v1", "jobs"]:
            return self.send_error_json(404, f"no such resource {self.path!r}")
        if self.server.draining:
            return self.send_error_json(
                503, "daemon is shutting down", {"Retry-After": "1"}
            )
        retry_after = self.server.clients.admit(client)
        if retry_after > 0.0:
            return self.send_error_json(
                429,
                f"rate limit exceeded for client {client!r}; retry in "
                f"{retry_after:.2f}s",
                {"Retry-After": f"{max(1, round(retry_after))}"},
            )
        try:
            request = validate_request(self.read_body())
        except RequestError as exc:
            return self.send_error_json(400, str(exc))
        job, coalesced = self.server.queue.submit(request, client)
        payload = self.server.job_payload(job)
        payload["coalesced"] = coalesced
        self.send_json(200 if coalesced else 202, payload)


class ServeDaemon(ThreadingHTTPServer):
    """The HTTP server + dispatcher.  ``port=0`` binds an ephemeral port
    (read it back from ``.server_address``)."""

    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: str | None = None,
        jobs: int = 1,
        rate: float = 2.0,
        burst: float = 5.0,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        #: how every job executes, resolved once at startup
        self.options = RunOptions.from_env()
        self.queue = JobQueue(
            cache_dir or self.options.run_cache or DEFAULT_CACHE_DIR
        )
        self.clients = ClientTable(rate=rate, burst=burst)
        self.jobs = jobs
        self.verbose = verbose
        self.started = time.time()
        self.draining = False
        self._serving = False
        self._stop = threading.Event()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        restored = self.queue.restore()
        if restored and verbose:
            print(f"restored {restored} queued job(s) from a previous run")

    # -- lifecycle -----------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve(self) -> None:
        """Run until :meth:`close` (or ``POST /v1/shutdown``)."""
        self._dispatcher.start()
        self._serving = True
        try:
            self.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def start_background(self, dispatch: bool = True) -> None:
        """Run the accept loop in a thread (tests, embedding).

        ``dispatch=False`` accepts submissions without executing them —
        call :meth:`start_dispatcher` to begin; tests use the window to
        stage coalescing/persistence scenarios deterministically.
        """
        if dispatch:
            self.start_dispatcher()
        self._serving = True
        threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http",
            daemon=True,
        ).start()

    def start_dispatcher(self) -> None:
        if not self._dispatcher.is_alive():
            self._dispatcher.start()

    def request_shutdown(self) -> None:
        """Asynchronous graceful shutdown (the ``/v1/shutdown`` route)."""
        threading.Thread(target=self.close, daemon=True).start()

    def close(self) -> None:
        """Graceful shutdown: drain the running job, persist the queue.

        Idempotent.  New submissions get 503 the moment draining starts;
        the dispatcher finishes its current job (results stay readable
        until the process exits), then still-queued requests are written
        to ``serve_queue.json`` for the next daemon start.
        """
        if self.draining:
            return
        self.draining = True
        self._stop.set()
        self.queue.wake()
        if self._dispatcher.is_alive():
            self._dispatcher.join()
        persisted = self.queue.persist()
        if self.verbose and persisted:
            print(f"persisted {persisted} queued job(s)")
        if self._serving:
            self.shutdown()
        self.server_close()

    # -- dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.take_next(timeout=0.2)
            if job is None:
                continue
            try:
                sweep = execute_job(job, jobs=self.jobs, options=self.options)
            except Exception as exc:  # noqa: BLE001 - job isolation
                if self.verbose:
                    traceback.print_exc()
                self.queue.finish(job, None, error=f"{type(exc).__name__}: {exc}")
            else:
                self.queue.finish(job, sweep)

    # -- payloads ------------------------------------------------------

    def job_payload(self, job) -> dict:
        payload = self.queue.job_status(job)
        payload["schema_version"] = SCHEMA_VERSION
        return payload

    def stats_payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "uptime_seconds": round(time.time() - self.started, 3),
            "draining": self.draining,
            **self.queue.counters(),
            "clients": self.clients.snapshot(),
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="simulation-as-a-service daemon over the shared run cache",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 binds an ephemeral port; default 8642)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared run-cache directory (default: REPRO_CACHE_DIR or "
        ".repro_cache/)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per job (default 1; 0 means all cores)",
    )
    parser.add_argument(
        "--rate", type=float, default=2.0, metavar="R",
        help="submissions per second refilled per client (default 2)",
    )
    parser.add_argument(
        "--burst", type=float, default=5.0, metavar="B",
        help="submission burst capacity per client (default 5)",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log every request")
    args = parser.parse_args(argv)

    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        rate=args.rate,
        burst=args.burst,
        verbose=args.verbose,
    )
    print(f"repro.serve listening on {daemon.url} "
          f"(cache: {daemon.queue.cache_root})", flush=True)
    try:
        daemon.serve()
    except KeyboardInterrupt:
        daemon.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
