"""The one full-state view the equivalence suites compare.

Fast path vs slow path and replay on vs off must agree on every
observable of a finished run: the ``RunResult``
figures (total time, per-thread buckets, cache/protocol/lock
statistics, message counts and flows), the simulator's event count, and
the end-of-run :meth:`~repro.runtime.runner.Runtime.snapshot` of the
machine itself.
"""


def run_state(rt, result) -> dict:
    """Every observable of the finished run ``result`` of ``rt``."""
    return {
        "total_time": result.total_time,
        "threads": [
            (t.time, t.user, t.lock, t.barrier, t.mgs, t.finish_time)
            for t in result.threads
        ],
        "cache": dict(result.cache_stats),
        "protocol": dict(result.protocol_stats),
        "locks": (
            result.lock_stats.acquires,
            result.lock_stats.hits,
            result.lock_stats.token_transfers,
        ),
        "messages": (result.messages_inter_ssmp, result.messages_intra_ssmp),
        "flows": result.message_flows,
        "events": rt.sim.events_processed,
        "snapshot": rt.snapshot(),
    }
