"""The repro.serve daemon: validation, queueing, rate limits, HTTP e2e.

The headline contracts (ISSUE 6 acceptance criteria):

* a sweep submitted twice over HTTP simulates **once** — warm
  resubmission is served entirely from the shared run cache (per-job
  counters prove zero simulation) and the results are bit-identical;
* identical submissions arriving while the first is still in flight
  coalesce onto one job (single-flight), across clients;
* invalid configurations are 400s with the unknown fields named;
  exhausted token buckets are 429s with a Retry-After hint;
* a graceful shutdown drains the running job and persists the queue,
  and the next daemon start resumes it.
"""

import json
import threading
import time

import pytest

from repro.bench.cache import RunCache, fingerprint_run
from repro.metrics.export import SCHEMA_VERSION
from repro.params import CostModel, MachineConfig
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon
from repro.serve.jobs import JobQueue, execute_job
from repro.serve.ratelimit import ClientTable, TokenBucket
from repro.serve.validate import RequestError, validate_request

JACOBI = {
    "workload": "jacobi",
    "params": {"n": 16, "iterations": 2},
    "total_processors": 4,
    "sizes": [1, 2],
}


# ---------------------------------------------------------------------------
# request validation
# ---------------------------------------------------------------------------


def test_minimal_request_gets_paper_defaults():
    req = validate_request({"workload": "jacobi"})
    assert req.total_processors == 32
    assert req.sizes == (1, 2, 4, 8, 16, 32)
    assert req.inter_ssmp_delay == 1000
    assert req.params.n == 64  # the app's own default


def test_request_key_ignores_field_order_and_explicit_defaults():
    implicit = validate_request({"workload": "jacobi"})
    explicit = validate_request(
        {
            "total_processors": 32,
            "workload": "jacobi",
            "inter_ssmp_delay": 1000,
            "sizes": [1, 2, 4, 8, 16, 32],
            "params": {"n": 64},
        }
    )
    assert implicit.key == explicit.key
    changed = validate_request({"workload": "jacobi", "sizes": [1, 2]})
    assert changed.key != implicit.key


@pytest.mark.parametrize(
    "body, fragment",
    [
        ({"workload": "nope"}, "workload must be one of"),
        ({"workload": "jacobi", "bogus": 1}, "unknown request field"),
        ({"workload": "jacobi", "params": {"m": 3}}, "unknown JacobiParams"),
        ({"workload": "jacobi", "params": {"m": 3}}, "compute_per_point"),
        ({"workload": "jacobi", "sizes": []}, "non-empty"),
        ({"workload": "jacobi", "sizes": [3]}, "cluster size 3"),
        ({"workload": "jacobi", "total_processors": "many"}, "integer"),
        ({"workload": "jacobi", "overrides": {"cluster_size": 4}},
         "may not set"),
        ({"workload": "jacobi", "overrides": {"warp_drive": 1}},
         "may not set"),
        ({"workload": "jacobi", "overrides": {"protocol": "swdsm"}},
         "may not set"),
        ({"workload": "jacobi", "protocol": "token_ring"},
         "protocol must be one of"),
        ({"workload": "jacobi", "costs": {"nope": 1}}, "unknown CostModel"),
        ({"workload": "jacobi", "network": {"nope": 1}},
         "unknown NetworkConfig"),
        ([], "JSON object"),
    ],
)
def test_invalid_requests_are_named_rejections(body, fragment):
    with pytest.raises(RequestError, match=fragment):
        validate_request(body)


def test_overrides_participate_in_config_and_key():
    plain = validate_request(dict(JACOBI))
    paged = validate_request({**JACOBI, "overrides": {"page_size": 2048}})
    assert plain.key != paged.key
    assert paged.point_config(2).page_size == 2048


def test_protocol_field_participates_in_config_and_key():
    """The engine name is part of the job identity: an unknown engine is
    a 400 listing the registry, a known one selects the point engine."""
    from repro.core.engine import engine_names

    plain = validate_request(dict(JACOBI))
    assert plain.protocol == "mgs"
    swdsm = validate_request({**JACOBI, "protocol": "swdsm"})
    assert swdsm.key != plain.key
    assert swdsm.point_config(2).protocol == "swdsm"
    with pytest.raises(RequestError) as exc:
        validate_request({**JACOBI, "protocol": "token_ring"})
    for name in engine_names():
        assert name in str(exc.value)


# ---------------------------------------------------------------------------
# rate limiting
# ---------------------------------------------------------------------------


def test_token_bucket_exhausts_and_refills():
    bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
    assert bucket.take(0.0) == 0.0
    assert bucket.take(0.0) == 0.0
    retry = bucket.take(0.0)
    assert retry == pytest.approx(1.0)
    # one second later a token has landed
    assert bucket.take(1.0) == 0.0


def test_client_table_is_per_client():
    table = ClientTable(rate=0.001, burst=1.0)
    assert table.admit("alice") == 0.0
    assert table.admit("alice") > 0.0  # throttled
    assert table.admit("bob") == 0.0  # unaffected
    table.note("alice")
    snap = table.snapshot()
    assert snap["alice"] == {"requests": 1, "throttled": 1}


# ---------------------------------------------------------------------------
# the job queue: single-flight + longest-job-first + persistence
# ---------------------------------------------------------------------------


def test_single_flight_coalesces_in_flight_submissions(tmp_path):
    queue = JobQueue(tmp_path / "c")
    req = validate_request(dict(JACOBI))
    job, coalesced = queue.submit(req, "alice")
    assert not coalesced
    again, coalesced2 = queue.submit(validate_request(dict(JACOBI)), "bob")
    assert coalesced2 and again is job
    assert job.clients == ["alice", "bob"]
    assert queue.submitted == 1 and queue.deduplicated == 1

    other = validate_request({**JACOBI, "sizes": [1]})
    job2, coalesced3 = queue.submit(other, "alice")
    assert not coalesced3 and job2 is not job

    # once finished, the key is released: resubmission is a fresh job
    # (it will be served from the run cache, not coalesced)
    queue.take_next(0)
    queue.take_next(0)
    queue.finish(job, None, error=None)
    fresh, coalesced4 = queue.submit(validate_request(dict(JACOBI)), "carol")
    assert not coalesced4 and fresh is not job


def test_dispatch_is_longest_job_first(tmp_path):
    root = tmp_path / "c"
    seed = RunCache(root, source="fixed")
    for workload, wall in (("jacobi", 0.1), ("matmul", 5.0)):
        key, preimage = fingerprint_run(
            MachineConfig(total_processors=4, cluster_size=2),
            CostModel(), 1500, workload, None, source="fixed",
        )
        seed.put(key, preimage, {"payload": 1}, wall)

    queue = JobQueue(root)
    quick, _ = queue.submit(validate_request(dict(JACOBI)), "a")
    slow, _ = queue.submit(
        validate_request({**JACOBI, "workload": "matmul", "params": {}}), "a"
    )
    assert queue.take_next(0) is slow  # 5.0s estimate beats 0.1s
    assert queue.take_next(0) is quick


def test_queue_persist_and_restore_round_trip(tmp_path):
    queue = JobQueue(tmp_path / "c")
    queue.submit(validate_request(dict(JACOBI)), "alice")
    queue.submit(validate_request({**JACOBI, "sizes": [1]}), "alice")
    assert queue.persist() == 2

    resumed = JobQueue(tmp_path / "c")
    assert resumed.restore() == 2
    assert resumed.submitted == 2
    keys = {resumed.take_next(0).key, resumed.take_next(0).key}
    assert keys == {
        validate_request(dict(JACOBI)).key,
        validate_request({**JACOBI, "sizes": [1]}).key,
    }
    assert not resumed.state_path.exists()  # consumed
    assert resumed.restore() == 0


def test_execute_job_ticks_progress_and_counts_misses(tmp_path):
    queue = JobQueue(tmp_path / "c")
    job, _ = queue.submit(validate_request(dict(JACOBI)), "alice")
    queue.take_next(0)
    sweep = execute_job(job)
    assert job.points_done == job.points_total == 2
    assert [p.cluster_size for p in sweep.points] == [1, 2]
    assert job.cache.stats.misses == 2 and job.cache.stats.hits == 0


# ---------------------------------------------------------------------------
# HTTP end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on an ephemeral port with a permissive bucket."""
    d = ServeDaemon(port=0, cache_dir=tmp_path / "cache", rate=1000,
                    burst=1000)
    d.start_background()
    yield d
    d.close()


def _client(d, who="tester"):
    return ServeClient(d.url, client_id=who, timeout=30)


def test_e2e_submit_progress_result(daemon):
    client = _client(daemon)
    job = client.submit(**_kwargs(JACOBI))
    assert job["state"] in ("queued", "running")
    assert job["schema_version"] == SCHEMA_VERSION
    result = client.wait(job["id"], timeout=120, poll=0.05)
    assert result["schema_version"] == SCHEMA_VERSION
    assert [p["cluster_size"] for p in result["sweep"]["points"]] == [1, 2]
    assert all(p["total_time"] > 0 for p in result["sweep"]["points"])

    status = client.status(job["id"])
    assert status["state"] == "done"
    assert status["progress"]["points_done"] == 2
    assert status["progress"]["points_total"] == 2
    assert status["progress"]["estimate_seconds_remaining"] == 0.0


def _kwargs(body):
    kwargs = dict(body)
    kwargs["workload"] = kwargs.pop("workload")
    return kwargs


def test_warm_http_resubmission_is_zero_simulation_and_identical(daemon):
    cold_client = _client(daemon, "cold")
    cold_job = cold_client.submit(**_kwargs(JACOBI))
    cold = cold_client.wait(cold_job["id"], timeout=120, poll=0.05)
    assert cold["cache"]["misses"] == 2 and cold["cache"]["hits"] == 0

    warm_client = _client(daemon, "warm")
    warm_job = warm_client.submit(**_kwargs(JACOBI))
    assert warm_job["id"] != cold_job["id"]  # finished -> fresh job
    warm = warm_client.wait(warm_job["id"], timeout=60, poll=0.05)
    # entirely from cache: zero simulation, bit-identical payload
    assert warm["cache"]["hits"] == 2 and warm["cache"]["misses"] == 0
    assert json.dumps(warm["sweep"], sort_keys=True) == json.dumps(
        cold["sweep"], sort_keys=True
    )

    # ... and byte-identical to what the sweep engine hands the CLI
    from repro.apps import jacobi
    from repro.bench.sweep import run_sweep
    from repro.metrics.export import sweep_to_dict

    direct_cache = RunCache(daemon.queue.cache_root)
    direct = run_sweep(
        jacobi,
        params=jacobi.JacobiParams(n=16, iterations=2),
        total_processors=4,
        sizes=[1, 2],
        cache=direct_cache,
    )
    assert direct_cache.stats.misses == 0  # the daemon's store serves it
    assert json.dumps(sweep_to_dict(direct), sort_keys=True) == json.dumps(
        cold["sweep"], sort_keys=True
    )


def test_concurrent_identical_submissions_coalesce(tmp_path):
    d = ServeDaemon(port=0, cache_dir=tmp_path / "cache", rate=1000,
                    burst=1000)
    d.start_background(dispatch=False)  # stage before execution begins
    try:
        first = _client(d, "alice").submit(**_kwargs(JACOBI))
        second = _client(d, "bob").submit(**_kwargs(JACOBI))
        assert first["coalesced"] is False
        assert second["coalesced"] is True
        assert second["id"] == first["id"]
        assert second["clients"] == ["alice", "bob"]

        d.start_dispatcher()
        result = _client(d, "alice").wait(first["id"], timeout=120, poll=0.05)
        stats = _client(d, "carol").stats()
        # exactly one simulation: one job, both points simulated once
        assert stats["queue"]["submitted"] == 1
        assert stats["queue"]["deduplicated"] == 1
        assert stats["cache"]["misses"] == 2
        assert stats["cache"]["stores"] == 2
        assert len(result["sweep"]["points"]) == 2
    finally:
        d.close()


def test_rate_limited_submission_is_429(tmp_path):
    d = ServeDaemon(port=0, cache_dir=tmp_path / "cache", rate=0.001,
                    burst=2)
    d.start_background(dispatch=False)
    try:
        alice = _client(d, "alice")
        alice.submit(**_kwargs(JACOBI))
        alice.submit(**{**_kwargs(JACOBI), "sizes": [1]})
        with pytest.raises(ServeError) as exc:
            alice.submit(**{**_kwargs(JACOBI), "sizes": [2]})
        assert exc.value.status == 429
        assert "rate limit" in str(exc.value)
        # throttling is per client: bob is unaffected, and reads are free
        _client(d, "bob").submit(**{**_kwargs(JACOBI), "sizes": [2]})
        stats = alice.stats()
        assert stats["clients"]["alice"]["throttled"] == 1
        assert stats["clients"]["bob"]["throttled"] == 0
    finally:
        d.close()


def test_http_error_paths(daemon):
    client = _client(daemon)
    with pytest.raises(ServeError) as exc:
        client.submit("jacobi", params={"m": 1})
    assert exc.value.status == 400
    with pytest.raises(ServeError) as exc:
        client.status("j9999-deadbeef")
    assert exc.value.status == 404
    with pytest.raises(ServeError) as exc:
        client.request("GET", "/v2/anything")
    assert exc.value.status == 404


def test_result_before_completion_is_409(tmp_path):
    d = ServeDaemon(port=0, cache_dir=tmp_path / "cache", rate=1000,
                    burst=1000)
    d.start_background(dispatch=False)
    try:
        client = _client(d)
        job = client.submit(**_kwargs(JACOBI))
        with pytest.raises(ServeError) as exc:
            client.result(job["id"])
        assert exc.value.status == 409
    finally:
        d.close()


def test_failed_job_reports_error(daemon):
    client = _client(daemon)
    # Dataclasses don't type-check: n="big" passes validation but blows
    # up at execution — which must fail the job, not the daemon.
    job = client.submit("jacobi", params={"n": "big", "iterations": 1},
                        total_processors=4, sizes=[1])
    deadline = time.monotonic() + 60
    while client.status(job["id"])["state"] not in ("done", "failed"):
        assert time.monotonic() < deadline
        time.sleep(0.05)
    status = client.status(job["id"])
    assert status["state"] == "failed"
    assert status["error"]
    with pytest.raises(ServeError) as exc:
        client.result(job["id"])
    assert exc.value.status == 500
    # the daemon survives and serves the next job
    ok = client.submit(**_kwargs(JACOBI))
    assert client.wait(ok["id"], timeout=120, poll=0.05)["sweep"]["points"]


def test_graceful_shutdown_persists_queue_for_next_start(tmp_path):
    cache_dir = tmp_path / "cache"
    d1 = ServeDaemon(port=0, cache_dir=cache_dir, rate=1000, burst=1000)
    d1.start_background(dispatch=False)
    client = _client(d1)
    client.submit(**_kwargs(JACOBI))
    client.submit(**{**_kwargs(JACOBI), "sizes": [1]})
    client.shutdown()
    deadline = time.monotonic() + 10
    while (
        not (cache_dir / "serve_queue.json").exists()
        and time.monotonic() < deadline
    ):
        time.sleep(0.02)
    assert (cache_dir / "serve_queue.json").exists()

    d2 = ServeDaemon(port=0, cache_dir=cache_dir, rate=1000, burst=1000)
    try:
        assert d2.queue.submitted == 2  # restored on boot
        assert not (cache_dir / "serve_queue.json").exists()
    finally:
        d2.close()


@pytest.mark.parametrize(
    "content", ["[]", "null", "{not json", '{"queue_state_schema": -1}']
)
def test_malformed_queue_file_restores_nothing(tmp_path, content):
    """A daemon starts cleanly over an unusable queue file."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "serve_queue.json").write_text(content)
    d = ServeDaemon(port=0, cache_dir=cache_dir, rate=1000, burst=1000)
    try:
        assert d.queue.submitted == 0
    finally:
        d.close()


def test_queue_persist_publishes_atomically(tmp_path):
    queue = JobQueue(tmp_path / "c")
    queue.submit(validate_request(dict(JACOBI)), "alice")
    assert queue.persist() == 1
    assert queue.persist() == 1  # overwrites in place
    assert [p.name for p in (tmp_path / "c").iterdir()] == ["serve_queue.json"]


def test_draining_daemon_rejects_new_submissions(tmp_path):
    d = ServeDaemon(port=0, cache_dir=tmp_path / "cache", rate=1000,
                    burst=1000)
    d.start_background(dispatch=False)
    client = _client(d)
    d.draining = True  # simulate mid-drain without racing close()
    try:
        with pytest.raises(ServeError) as exc:
            client.submit(**_kwargs(JACOBI))
        assert exc.value.status == 503
    finally:
        d.draining = False
        d.close()


def test_cli_serve_subcommand_forwards(monkeypatch):
    import repro.cli
    import repro.serve

    seen = {}

    def fake_main(argv):
        seen["argv"] = argv
        return 0

    monkeypatch.setattr(repro.serve, "main", fake_main)
    assert repro.cli.main(["serve", "--port", "0"]) == 0
    assert seen["argv"] == ["--port", "0"]
