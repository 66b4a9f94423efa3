"""Job queue for the serve daemon: single-flight, cost-aware, durable.

A job is one validated sweep request (:class:`~repro.serve.validate
.JobRequest`) plus its execution state.  The queue provides:

* **Single-flight deduplication** — submissions are keyed by the
  request's canonical SHA-256; an identical request arriving while the
  first is queued or running coalesces onto that job instead of
  simulating twice.  (A resubmission *after* completion gets a fresh
  job: it runs through the shared content-addressed run cache, so it
  still simulates nothing — and its per-job hit counters prove it.)
* **Longest-job-first dispatch** — the same
  :func:`repro.bench.parallel.submission_order` scheduler the parallel
  sweep runner uses, fed with wall-time estimates from the run cache's
  index, so the slowest queued sweep starts first.
* **Per-job cache counters** — every job executes against its own
  :class:`~repro.bench.cache.RunCache` instance over the daemon's shared
  store, so ``GET /v1/jobs/<id>`` reports exactly how much of that job
  was simulated versus served from cache.
* **Queue persistence** — a graceful shutdown drains the running job
  and writes the still-queued requests to ``serve_queue.json`` in the
  cache directory; the next daemon start re-enqueues them.

Execution chunks the request's cluster sizes into groups of the
daemon's worker count and runs each group through
:func:`repro.bench.sweep.run_sweep` — the bounded process pool, the
cache hit path, and the byte-identical collection order are all the
sweep engine's own; progress ticks per completed group.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

from repro.apps import ALL_APPS
from repro.bench.cache import RunCache
from repro.bench.parallel import submission_order
from repro.bench.sweep import run_sweep
from repro.metrics import ClusterSweep
from repro.runtime import RunOptions
from repro.runtime.replay import replay_store_totals
from repro.runtime.store import StoreStats, publish
from repro.serve.validate import JobRequest, validate_request

__all__ = ["Job", "JobQueue", "execute_job"]

QUEUE_STATE_SCHEMA = 1
QUEUE_STATE_FILE = "serve_queue.json"

#: job lifecycle: queued -> running -> done | failed
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


class Job:
    """One submission's execution state (mutated only by the queue and
    the dispatcher; read via :meth:`JobQueue.job_status`)."""

    def __init__(self, job_id: str, request: JobRequest, cache: RunCache,
                 client: str) -> None:
        self.id = job_id
        self.request = request
        self.key = request.key
        self.cache = cache
        self.state = QUEUED
        self.clients = [client]
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.points_total = len(request.sizes)
        self.points_done = 0
        self.sweep: ClusterSweep | None = None
        self.error: str | None = None


class JobQueue:
    """Thread-safe job registry + FIFO-with-priorities dispatch queue."""

    def __init__(self, cache_root: str | Path) -> None:
        self.cache_root = Path(cache_root)
        #: estimates only; jobs get their own counter-bearing instances
        self._estimator = RunCache(self.cache_root)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._queued: list[Job] = []
        self._inflight: dict[str, Job] = {}  # request key -> queued/running
        self._seq = itertools.count(1)
        self.submitted = 0
        self.deduplicated = 0
        self.done = 0
        self.failed = 0

    # -- submission ----------------------------------------------------

    def submit(self, request: JobRequest, client: str) -> tuple[Job, bool]:
        """Enqueue ``request``; returns ``(job, coalesced)``.

        ``coalesced`` is True when an identical request was already in
        flight and this submission attached to it (single-flight).
        """
        with self._wakeup:
            existing = self._inflight.get(request.key)
            if existing is not None:
                self.deduplicated += 1
                if client not in existing.clients:
                    existing.clients.append(client)
                return existing, True
            job = Job(
                f"j{next(self._seq):04d}-{request.key[:8]}",
                request,
                RunCache(self.cache_root),
                client,
            )
            self._jobs[job.id] = job
            self._queued.append(job)
            self._inflight[job.key] = job
            self.submitted += 1
            self._wakeup.notify()
            return job, False

    # -- dispatch ------------------------------------------------------

    def estimate_remaining(self, job: Job) -> float | None:
        """Wall-seconds estimate for the job's unfinished points, from
        the run cache's index; None when nothing is known yet."""
        remaining = job.request.sizes[job.points_done:]
        estimates = [
            self._estimator.estimate_seconds(
                job.request.workload, c, job.request.protocol
            )
            for c in remaining
        ]
        known = [e for e in estimates if e is not None]
        if not known:
            return None
        return sum(known)

    def take_next(self, timeout: float | None = None) -> Job | None:
        """Pop the next job (longest-first) and mark it running.

        Blocks up to ``timeout`` seconds for work; None on timeout.
        """
        with self._wakeup:
            if not self._queued:
                self._wakeup.wait(timeout)
            if not self._queued:
                return None
            order = submission_order(
                len(self._queued),
                [self.estimate_remaining(j) for j in self._queued],
            )
            job = self._queued.pop(order[0])
            job.state = RUNNING
            job.started = time.time()
            return job

    def finish(self, job: Job, sweep: ClusterSweep | None,
               error: str | None = None) -> None:
        """Record a job's outcome and release its single-flight slot."""
        with self._wakeup:
            job.finished = time.time()
            if error is None:
                job.sweep = sweep
                job.state = DONE
                self.done += 1
            else:
                job.error = error
                job.state = FAILED
                self.failed += 1
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]

    def wake(self) -> None:
        """Nudge a dispatcher blocked in :meth:`take_next`."""
        with self._wakeup:
            self._wakeup.notify_all()

    # -- introspection -------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def job_status(self, job: Job) -> dict:
        """JSON-ready status for ``GET /v1/jobs/<id>``."""
        with self._lock:
            status = {
                "id": job.id,
                "state": job.state,
                "workload": job.request.workload,
                "request_key": job.key,
                "clients": list(job.clients),
                "created": job.created,
                "started": job.started,
                "finished": job.finished,
                "progress": {
                    "points_done": job.points_done,
                    "points_total": job.points_total,
                    "estimate_seconds_remaining": (
                        0.0
                        if job.state in (DONE, FAILED)
                        else self.estimate_remaining(job)
                    ),
                },
                "cache": job.cache.stats.as_dict(),
                "error": job.error,
            }
        return status

    def counters(self) -> dict:
        """Queue-level counters for ``GET /v1/stats``."""
        with self._lock:
            jobs = self._jobs.values()
            running = sum(1 for j in jobs if j.state == RUNNING)
            cache_totals = StoreStats.total(j.cache.stats for j in jobs)
            return {
                "queue": {
                    "depth": len(self._queued),
                    "running": running,
                    "submitted": self.submitted,
                    "deduplicated": self.deduplicated,
                    "done": self.done,
                    "failed": self.failed,
                },
                "cache": {"dir": str(self.cache_root), **cache_totals.as_dict()},
                # The daemon process's own replay stores only: jobs farmed
                # to --jobs pool workers count in those processes.
                "replay_cache": replay_store_totals(),
            }

    # -- persistence ---------------------------------------------------

    @property
    def state_path(self) -> Path:
        return self.cache_root / QUEUE_STATE_FILE

    def persist(self) -> int:
        """Write still-queued requests to disk; returns how many."""
        with self._lock:
            pending = [j.request.canonical() for j in self._queued]
        state = {"queue_state_schema": QUEUE_STATE_SCHEMA, "queue": pending}
        publish(
            self.state_path,
            (json.dumps(state, indent=1, sort_keys=True) + "\n").encode(),
        )
        return len(pending)

    def restore(self) -> int:
        """Re-enqueue requests persisted by a previous daemon's graceful
        shutdown; the state file is consumed.  Returns how many."""
        try:
            state = json.loads(self.state_path.read_text())
        except (OSError, ValueError):
            return 0
        if (
            not isinstance(state, dict)
            or state.get("queue_state_schema") != QUEUE_STATE_SCHEMA
        ):
            return 0
        restored = 0
        for body in state.get("queue", []):
            try:
                request = validate_request(body)
            except ValueError:
                continue  # stale schema or workload; drop it
            self.submit(request, client="queue-restore")
            restored += 1
        try:
            self.state_path.unlink()
        except OSError:
            pass
        return restored


def execute_job(
    job: Job, jobs: int = 1, options: RunOptions | None = None
) -> ClusterSweep:
    """Run one job, ticking progress per size group; returns the sweep.

    ``jobs`` bounds the worker-process pool each group is farmed to
    (``run_sweep``'s own ``parallel_map`` machinery); the group size
    matches it so progress advances as fast as results can arrive.
    ``options`` are the daemon's, resolved at startup.  The caller
    records the outcome via :meth:`JobQueue.finish`.
    """
    request = job.request
    module = ALL_APPS[request.workload]
    chunk = max(1, jobs)
    points = []
    app_name = None
    sizes = list(request.sizes)
    for start in range(0, len(sizes), chunk):
        group = sizes[start:start + chunk]
        sweep = run_sweep(
            module,
            request.params,
            total_processors=request.total_processors,
            sizes=group,
            costs=request.costs,
            inter_ssmp_delay=request.inter_ssmp_delay,
            network=request.network,
            jobs=jobs,
            cache=job.cache,
            overrides=request.overrides or None,
            protocol=request.protocol,
            options=options,
        )
        points.extend(sweep.points)
        app_name = sweep.app
        job.points_done += len(group)
    return ClusterSweep(
        app=app_name or request.workload,
        total_processors=request.total_processors,
        points=points,
        protocol=request.protocol,
    )
