"""The invariant sanitizer: attachment, tap composition, zero cost.

The sanitizer is a pure observer — these tests pin that enabling it (or
stacking it with the protocol tracer) leaves simulations bit-for-bit
identical, that every ``Runtime(analysis=...)`` spelling attaches the
right checkers, and that detach really detaches.
"""

import pytest

from repro.analysis import InvariantSanitizer, InvariantViolation, RaceDetector
from repro.apps import jacobi
from repro.params import MachineConfig
from repro.runtime import Runtime

PARAMS = jacobi.JacobiParams(n=16, iterations=2)


def make_config(**kw):
    kw.setdefault("total_processors", 4)
    kw.setdefault("cluster_size", 2)
    return MachineConfig(**kw)


def run_jacobi(analysis=None):
    rt = Runtime(make_config(), analysis=analysis)
    jacobi.build(rt, PARAMS)
    return rt, rt.run()


class TestAttachment:
    def test_default_off(self):
        rt = Runtime(make_config())
        assert rt.sanitizer is None
        assert rt.race_detector is None

    def test_invariants_spec(self):
        rt = Runtime(make_config(), analysis="invariants")
        assert isinstance(rt.sanitizer, InvariantSanitizer)
        assert rt.race_detector is None

    def test_races_spec(self):
        rt = Runtime(make_config(), analysis="races")
        assert rt.sanitizer is None
        assert isinstance(rt.race_detector, RaceDetector)

    @pytest.mark.parametrize("spec", [True, "all"])
    def test_all_spec(self, spec):
        rt = Runtime(make_config(), analysis=spec)
        assert isinstance(rt.sanitizer, InvariantSanitizer)
        assert isinstance(rt.race_detector, RaceDetector)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="analysis must be"):
            Runtime(make_config(), analysis="everything")

    def test_explicit_constructor_publishes(self):
        rt = Runtime(make_config())
        sanitizer = InvariantSanitizer(rt)
        assert rt.sanitizer is sanitizer


class TestObservation:
    def test_clean_run_checks_every_message(self):
        rt, result = run_jacobi(analysis="invariants")
        delivered = sum(f.count for f in rt.protocol.bus.flows.values())
        assert rt.sanitizer.checked == delivered > 0
        # Runtime.run already swept quiescence; doing it again is fine.
        rt.sanitizer.check_quiescent()

    def test_detach_stops_observing(self):
        rt = Runtime(make_config(), analysis="invariants")
        sanitizer = rt.sanitizer
        sanitizer.detach()
        assert rt.sanitizer is None
        jacobi.build(rt, PARAMS)
        rt.run()
        assert sanitizer.checked == 0

    def test_detach_after_close_is_a_no_op(self):
        rt, _result = run_jacobi(analysis="invariants")
        sanitizer = rt.sanitizer
        checked = sanitizer.checked
        rt.close()
        sanitizer.detach()
        assert sanitizer.checked == checked > 0

    def test_violation_carries_rule_and_trace(self):
        exc = InvariantViolation(
            "dir-exclusion", "cluster 1 in both", vpn=7, txn=3,
            trace=("@10 RDAT vpn=7",),
        )
        text = str(exc)
        assert "[dir-exclusion]" in text
        assert "(vpn 7)" in text
        assert "@10 RDAT vpn=7" in text

    def test_corrupted_state_fails_quiescence(self):
        rt, _result = run_jacobi(analysis="invariants")
        vpn = next(iter(sorted(rt.protocol.homes)))
        home = rt.protocol.homes[vpn]
        home.read_dir.add(0)
        home.write_dir.add(0)
        with pytest.raises(InvariantViolation) as exc:
            rt.sanitizer.check_quiescent()
        assert exc.value.rule == "dir-exclusion"


class TestZeroCost:
    def test_sanitizer_is_cycle_identical(self):
        _, bare = run_jacobi(analysis=None)
        _, sanitized = run_jacobi(analysis="invariants")
        assert sanitized.total_time == bare.total_time
        assert sanitized.protocol_stats == bare.protocol_stats
        assert sanitized.message_flows == bare.message_flows

    def test_full_analysis_is_cycle_identical(self):
        _, bare = run_jacobi(analysis=None)
        rt, analyzed = run_jacobi(analysis="all")
        assert analyzed.total_time == bare.total_time
        assert analyzed.protocol_stats == bare.protocol_stats
        rt.race_detector.certify()  # and jacobi is race-free


class TestTapComposition:
    def test_tracer_and_sanitizer_coexist(self):
        """Multiple bus taps stack: trace + sanitize the same run."""
        from repro.trace import ProtocolTracer

        rt = Runtime(make_config(), analysis="invariants")
        tracer = ProtocolTracer(rt)  # all pages
        jacobi.build(rt, PARAMS)
        result = rt.run()
        assert rt.sanitizer.checked > 0
        # The tracer also logs txn begin/end events, so it sees at least
        # as much as the sanitizer does.
        assert len(tracer) >= rt.sanitizer.checked
        assert tracer.render_transactions(limit=3)

        _, bare = run_jacobi(analysis=None)
        assert result.total_time == bare.total_time

    def test_taps_detach_independently(self):
        from repro.trace import ProtocolTracer

        rt = Runtime(make_config(), analysis="invariants")
        tracer = ProtocolTracer(rt)
        rt.sanitizer.detach()
        jacobi.build(rt, PARAMS)
        rt.run()
        assert len(tracer) > 0


def test_gcs_refresh_in_its_completion_window_is_not_stuck():
    # A refresh stays open from G_ADATA's delivery until _refresh_done,
    # a timed local event: no G_AREQ or G_ADATA is in flight then, yet
    # the refresh is not stuck.  A race-free run that steps through that
    # window must pass the queue-aware check after every event.
    from repro.analysis.explore import inflight_messages

    rt = Runtime(
        MachineConfig(total_processors=4, cluster_size=2, protocol="gcs"),
        analysis="invariants",
    )
    x = rt.array("x", 64)
    lk = rt.create_lock()

    def worker(env):
        if env.pid == 0:
            yield from env.write(x.addr(10), 1.0)
            yield from env.compute(50_000)
            yield from env.lock(lk)
            yield from env.unlock(lk)
        elif env.pid == 2:
            yield from env.lock(lk)
            yield from env.write(x.addr(20), 2.0)
            yield from env.unlock(lk)

    rt.spawn_all(worker)
    for t in rt.threads:
        rt.sim.schedule_at(0, rt._resume, t, None)
    steps = 0
    while rt.sim.step():
        steps += 1
        rt.sanitizer.check_state(inflight_messages(rt))
    assert rt.protocol.stats["acquire_refreshes"] > 0
    assert steps > 37
