"""The bounded model checker and the stateful walk harness.

Two layers, mirroring docs/ANALYSIS.md:

* **Exhaustive runs are clean** — on every engine the checker visits the
  full 2-thread × 1-page interleaving space of the default program and
  finds no violation (and no truncation: the space really is exhausted).
* **Mutations are caught, deterministically** — seeded corruptions are
  found with a minimal schedule, the same schedule every run (BFS over a
  deterministic simulator), and the rendered counterexample matches the
  golden traces pinned under ``results/``.  Every registered mutation's
  report is pinned row by row in ``results/mutation_catch.txt`` by
  ``tests/test_analysis_mutations.py``.

The full cross-engine walk matrix runs when ``REPRO_EXPLORE_FULL=1`` —
CI's ``explore`` job sets it; the default run keeps a representative
slice so the suite stays fast.
"""

import os
from pathlib import Path

import pytest

import repro.analysis.explore as explore_mod
from repro.analysis.explore import (
    ExploreConfig,
    counterexample_trace,
    default_programs,
    explore,
    explore_mutation,
    mutation_benchmark,
    mutation_config,
    run_walk,
)
from repro.analysis.mutations import MUTATIONS
from repro.core.engine import engine_names

FULL = bool(os.environ.get("REPRO_EXPLORE_FULL"))
full_only = pytest.mark.skipif(
    not FULL, reason="full explore matrix (set REPRO_EXPLORE_FULL=1)"
)

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: traces pinned under results/ — regenerated and compared exactly
GOLDEN = ("double_rack", "sc_shared_writer")


# ---------------------------------------------------------------------------
# exhaustive clean runs
# ---------------------------------------------------------------------------


#: (states, transitions) of each engine's default 2-thread x 1-page space
DEFAULT_SPACE = {
    "gcs": (584, 815),
    "mgs": (1052, 1423),
    "sc_pages": (626, 879),
    "swdsm": (433, 604),
}


@pytest.mark.parametrize("engine", sorted(engine_names()))
def test_exhaustive_state_space_is_clean(engine):
    """2 threads x 1 page fully exhausted, zero violations, any engine,
    and exactly the pinned space: a change to it is a change to an
    engine or to the explorer, and says so here."""
    cfg = ExploreConfig(engine=engine)
    report = explore(cfg)
    assert not report.caught, report.summary()
    assert not report.truncated, "state cap hit: not actually exhaustive"
    assert (report.states, report.edges) == DEFAULT_SPACE[engine]


def test_each_transition_costs_one_replay(monkeypatch):
    """The search builds one harness for the root and one per
    transition: expanding a state replays nothing to learn its choices."""
    built = []

    class Counted(explore_mod._Harness):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(explore_mod, "_Harness", Counted)
    report = explore(ExploreConfig(engine="swdsm"))
    assert not report.caught
    assert len(built) == report.edges + 1


# ---------------------------------------------------------------------------
# determinism: same mutation -> same minimal counterexample
# ---------------------------------------------------------------------------


def test_counterexample_shrinking_is_deterministic():
    cfg = mutation_config("dir_exclusion")
    programs = MUTATIONS["dir_exclusion"].programs
    first = explore_mutation("dir_exclusion")
    second = explore_mutation("dir_exclusion")
    assert first.caught and second.caught
    assert first.schedule == second.schedule
    assert first.events == second.events
    assert counterexample_trace(cfg, first, programs) == counterexample_trace(
        cfg, second, programs
    )


def test_walk_shrinking_is_deterministic():
    """Derandomized hypothesis shrinks to the same trace every run."""
    runs = [
        run_walk("mgs", mutation="dir_exclusion", max_examples=40)
        for _ in range(2)
    ]
    assert all(failed for failed, _trace in runs)
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_counterexample_traces(name):
    """The pinned minimized traces under results/ regenerate exactly."""
    report = explore_mutation(name)
    assert report.caught, report.summary()
    rendered = counterexample_trace(
        mutation_config(name), report, MUTATIONS[name].programs
    )
    golden = (RESULTS / f"explore_trace_{name}.txt").read_text()
    assert rendered.strip() == golden.strip()


#: gcs's refresh bug, unmutated: t0's acquire starts a refresh of the
#: page while t1's write-fault grant in the same SSMP is still
#: installing, the grant clears the in-flight flag the two share, and
#: the refresh's G_ADATA finds none outstanding.  mgs, swdsm and
#: sc_pages explore this program clean.
GCS_REFRESH_PROGRAMS = (
    (("lock",), ("write", 0, 0), ("unlock",)),
    (("write", 0, 1), ("lock",), ("unlock",), ("read", 0, 1)),
    (("lock",), ("write", 0, 2), ("unlock",)),
)


def test_gcs_refresh_counterexample_trace():
    """gcs's unfixed refresh bug is found by BFS at two threads per SSMP,
    and its minimized trace under results/ regenerates exactly."""
    cfg = ExploreConfig(engine="gcs", threads=3, nclusters=2, cluster_size=2)
    report = explore(cfg, GCS_REFRESH_PROGRAMS)
    assert report.caught and report.rule == "gcs-refresh", report.summary()
    assert report.states == 1093
    rendered = counterexample_trace(cfg, report, GCS_REFRESH_PROGRAMS)
    golden = (RESULTS / "explore_trace_gcs_refresh.txt").read_text()
    assert rendered.strip() == golden.strip()


# ---------------------------------------------------------------------------
# the stateful walk harness
# ---------------------------------------------------------------------------


def test_unmutated_walk_is_clean():
    failed, trace = run_walk("mgs", max_examples=10)
    assert not failed, trace


def test_faulty_net_walk_is_clean():
    """Transport drop/dup/delay faults never corrupt protocol state."""
    failed, trace = run_walk("gcs", faulty_net=True, max_examples=8)
    assert not failed, trace


@full_only
@pytest.mark.parametrize("engine", sorted(engine_names()))
def test_unmutated_walk_is_clean_all_engines(engine):
    failed, trace = run_walk(engine, max_examples=20)
    assert not failed, trace


# ---------------------------------------------------------------------------
# program / config plumbing
# ---------------------------------------------------------------------------


def test_default_programs_cover_the_op_vocabulary():
    cfg = ExploreConfig(engine="mgs", threads=3)
    programs = default_programs(cfg)
    assert len(programs) == 3
    ops = {op[0] for program in programs for op in program}
    assert ops == {"read", "write", "lock", "unlock", "barrier"}


def test_explore_rejects_unknown_mutation_engine():
    with pytest.raises(ValueError):
        explore(ExploreConfig(engine="mgs"), mutation="swdsm_lost_iack")


def test_mutation_benchmark_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown mutations"):
        mutation_benchmark(["nonesuch"])
