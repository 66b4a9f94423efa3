"""Seeded protocol corruptions: the checkers must catch every one.

Each MGS test applies one mutation from :mod:`repro.analysis.mutations`
— a deliberately introduced protocol bug — then drives the protocol
directly (the way ``test_protocol_races.py`` does) and asserts an
:class:`InvariantViolation` fires, either at message delivery or in the
quiescence sweep.  The cross-engine tests hand the same job to the
bounded model checker (:func:`repro.analysis.explore.explore`), which
must catch *every* registered mutation — including the data-staleness
ones only its release-consistency read oracle can see — with exactly
the report pinned in ``results/mutation_catch.txt`` (the output of
``repro analyze benchmark``), so each bug's detection cost is checked
across commits.  A final test pins that the registry and this file stay
in sync: a new mutation without a detection entry fails here.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    MUTATIONS,
    InvariantViolation,
    MutationSpec,
    apply_mutation,
)
from repro.analysis.explore import explore_mutation
from repro.params import MachineConfig
from repro.runtime import Runtime

CATCH_TABLE = (
    Path(__file__).resolve().parent.parent / "results" / "mutation_catch.txt"
)

# How each mutation is caught: "drive" entries have a direct-drive test
# below; "explore" entries are caught by the bounded model checker in
# test_explorer_catches_every_mutation (all mutations are, but for the
# non-MGS engines and the data-staleness bugs it is the *only* catcher).
DETECTED_BY = {
    "skip_pinv_ack": "drive",
    "forget_directory_refill": "drive",
    "drop_twin": "drive",
    "leak_duq": "drive",
    "double_rack": "drive",
    "dir_exclusion": "drive",
    "swdsm_stale_diff": "explore",
    "swdsm_lost_iack": "explore",
    "sc_shared_writer": "explore",
    "sc_lost_wb": "explore",
    "gcs_dropped_write_notice": "explore",
    "gcs_stale_version": "explore",
}


def catch_rows() -> dict[str, str]:
    """The rows of the pinned catch table, by mutation name; the table
    has exactly one row per registered mutation, in sorted order."""
    lines = CATCH_TABLE.read_text().splitlines()
    names = [line.split(":", 1)[0].split("+", 1)[1] for line in lines]
    assert names == sorted(MUTATIONS), "one row per registered mutation"
    return dict(zip(names, lines))


def make_rt(nclusters=2, cluster_size=1, protocol="mgs"):
    config = MachineConfig(
        total_processors=nclusters * cluster_size,
        cluster_size=cluster_size,
        inter_ssmp_delay=1000,
        protocol=protocol,
    )
    rt = Runtime(config, analysis="invariants")
    arr = rt.array("page", config.words_per_page, home=0)
    vpn = arr.base // config.page_size
    return rt, vpn


def fault(rt, pid, vpn, write=False):
    rt.protocol.fault(pid, vpn, write, lambda: None)
    rt.sim.run(max_events=300_000)


def release(rt, pid):
    rt.protocol.release(pid, lambda: None)
    rt.sim.run(max_events=300_000)


def test_skip_pinv_ack_detected():
    """A swallowed PINV_ACK leaves the release round hanging forever."""
    rt, vpn = make_rt(nclusters=2, cluster_size=2)
    fault(rt, 2, vpn)  # cluster 1: two read mappings -> PINVs on inval
    fault(rt, 3, vpn)
    fault(rt, 0, vpn, write=True)
    apply_mutation(rt, "skip_pinv_ack")
    with pytest.raises(InvariantViolation) as exc:
        release(rt, 0)  # the round never completes...
        rt.sanitizer.check_quiescent()  # ...so quiescence finds the leak
    assert exc.value.rule.startswith("quiesce")


def test_forget_directory_refill_detected():
    """A write copy missing from write_dir is a forgotten refill."""
    rt, vpn = make_rt()
    apply_mutation(rt, "forget_directory_refill")
    with pytest.raises(InvariantViolation) as exc:
        fault(rt, 1, vpn, write=True)
        rt.sanitizer.check_quiescent()
    assert exc.value.rule == "quiesce-refill"


def test_drop_twin_detected():
    """A write copy with no twin could never produce a diff."""
    rt, vpn = make_rt()
    apply_mutation(rt, "drop_twin")
    with pytest.raises(InvariantViolation) as exc:
        fault(rt, 1, vpn, write=True)
        rt.sanitizer.check_quiescent()
    assert exc.value.rule == "quiesce-twin"


def test_leak_duq_detected():
    """A DUQ entry surviving its TLB shootdown is a leak."""
    rt, vpn = make_rt(nclusters=2, cluster_size=2)
    fault(rt, 0, vpn, write=True)  # both cluster-0 procs write-map it
    fault(rt, 1, vpn, write=True)
    fault(rt, 2, vpn, write=True)  # concurrent writer in cluster 1
    apply_mutation(rt, "leak_duq")
    with pytest.raises(InvariantViolation) as exc:
        release(rt, 2)  # the round shoots down cluster 0's mappings
        rt.sanitizer.check_quiescent()
    assert exc.value.rule in ("quiesce-duq", "quiesce-stolen")


def test_double_rack_detected():
    """The duplicate RACK answers no outstanding REL."""
    rt, vpn = make_rt()
    apply_mutation(rt, "double_rack")
    with pytest.raises(InvariantViolation) as exc:
        fault(rt, 1, vpn, write=True)
        release(rt, 1)
        rt.sanitizer.check_quiescent()
    assert exc.value.rule == "rack-unmatched"


def test_dir_exclusion_detected():
    """A cluster in both directories breaks read/write exclusion."""
    rt, vpn = make_rt()
    apply_mutation(rt, "dir_exclusion")
    with pytest.raises(InvariantViolation) as exc:
        fault(rt, 1, vpn)
        rt.sanitizer.check_quiescent()
    assert exc.value.rule == "dir-exclusion"


# ---------------------------------------------------------------------------
# cross-engine: the bounded model checker catches everything
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_explorer_catches_every_mutation(name):
    """The bounded checker finds a violating interleaving for each bug."""
    report = explore_mutation(name)
    assert report.caught, report.summary()
    assert not report.truncated
    assert report.schedule, "a counterexample needs a schedule to replay"
    assert report.summary() == catch_rows()[name]


def test_mutation_targets_wrong_engine_refused():
    rt, _vpn = make_rt(protocol="mgs")
    with pytest.raises(ValueError, match="targets engine 'swdsm'"):
        apply_mutation(rt, "swdsm_lost_iack")


def test_every_registered_mutation_has_a_test():
    assert set(MUTATIONS) == set(DETECTED_BY)


def test_mutation_registry_is_well_formed():
    for name, spec in MUTATIONS.items():
        assert isinstance(spec, MutationSpec), name
        assert spec.description, name
        assert spec.engine in ("mgs", "swdsm", "sc_pages", "gcs"), name
    applied = apply_mutation(make_rt()[0], "drop_twin")
    assert applied == MUTATIONS["drop_twin"].description


def test_unmutated_baseline_is_clean():
    """The same drives pass the sanitizer when nothing is corrupted."""
    rt, vpn = make_rt(nclusters=2, cluster_size=2)
    fault(rt, 2, vpn)
    fault(rt, 3, vpn)
    fault(rt, 0, vpn, write=True)
    release(rt, 0)
    fault(rt, 1, vpn, write=True)
    release(rt, 1)
    rt.sanitizer.check_quiescent()
