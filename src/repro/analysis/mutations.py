"""Seeded protocol corruptions for validating the protocol checkers.

Each mutation deliberately breaks one protocol rule the way a real bug
would — a handler forgetting a bookkeeping step, a message dropped, an
acknowledgement duplicated, a diff silently emptied — by wrapping the
live bus handlers or engine methods of a runtime.
``tests/test_analysis_mutations.py`` asserts the
:class:`~repro.analysis.invariants.InvariantSanitizer` catches every MGS
corruption on a direct drive, and that the bounded model checker of
:mod:`repro.analysis.explore` catches every one — including the
data-staleness corruptions only its release-consistency oracle can see
— with the cost pinned in ``results/mutation_catch.txt``.

Usage::

    rt = Runtime(config, analysis="invariants")
    apply_mutation(rt, "skip_pinv_ack")
    ... drive the protocol ...
    rt.sanitizer.check_quiescent()   # raises InvariantViolation

The registry maps mutation name -> :class:`MutationSpec`.  Each spec
names the engine it corrupts (:func:`apply_mutation` refuses any other)
and the small machine and per-thread programs the explorer runs to
reach it, so one entry states everything about a mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runner import Runtime

__all__ = ["MutationSpec", "MUTATIONS", "apply_mutation"]


#: one program step: ("read", page, word) / ("write", page, word) /
#: ("lock",) / ("unlock",) / ("barrier",)
Op = tuple


@dataclass(frozen=True)
class MutationSpec:
    """One seeded corruption: which engine it targets, what it breaks,
    and the exploration shape that reaches it — one program per thread
    over one page, on ``nclusters`` SSMPs of ``cluster_size``
    processors (thread i runs on processor i)."""

    engine: str
    description: str
    applier: Callable[["Runtime"], None]
    programs: tuple[tuple[Op, ...], ...]
    nclusters: int = 2
    cluster_size: int = 1


def _wrap_handler(rt: "Runtime", label: str, wrapper: Callable) -> None:
    """Replace one bus handler with ``wrapper(original, msg)``."""
    handlers = rt.protocol.bus._handlers
    original = handlers[label]
    handlers[label] = lambda msg: wrapper(original, msg)


# ---------------------------------------------------------------------------
# mgs
# ---------------------------------------------------------------------------


def _skip_pinv_ack(rt: "Runtime") -> None:
    """Swallow the first PINV_ACK: the shootdown never completes, the
    release round hangs, and its transaction stays open forever."""
    state = {"dropped": False}

    def wrapper(original, msg):
        if not state["dropped"]:
            state["dropped"] = True
            return
        original(msg)

    _wrap_handler(rt, "PINV_ACK", wrapper)


def _forget_directory_refill(rt: "Runtime") -> None:
    """Grant a write copy but forget to record it in ``write_dir``: the
    next release round would skip invalidating that cluster."""

    def wrapper(original, msg):
        original(msg)
        rt.protocol.home(msg.vpn).write_dir.discard(msg.dst_cluster)

    _wrap_handler(rt, "WDAT", wrapper)


def _drop_twin(rt: "Runtime") -> None:
    """Lose the twin of a freshly granted write copy: the eventual
    diff would be impossible (or would ship the whole page as changes)."""

    def wrapper(original, msg):
        original(msg)
        frame = rt.protocol.frames[msg.dst_cluster].get(msg.vpn)
        if frame is not None and not frame.aliases_home:
            frame.twin = None

    _wrap_handler(rt, "WDAT", wrapper)


def _leak_duq(rt: "Runtime") -> None:
    """Shoot down a TLB entry but leave its DUQ entry behind: the next
    release would push a page the processor no longer has mapped."""

    def wrapper(original, msg):
        original(msg)
        rt.protocol.duqs[msg.dst_pid].add(msg.vpn)
        rt.protocol.stolen[msg.dst_pid].discard(msg.vpn)

    _wrap_handler(rt, "PINV", wrapper)


def _double_rack(rt: "Runtime") -> None:
    """Acknowledge every release twice: the duplicate RACK matches no
    outstanding REL."""
    server = rt.protocol.server
    original = server._send_rack

    def wrapper(rel, at):
        original(rel, at)
        original(rel, at)

    server._send_rack = wrapper


def _dir_exclusion(rt: "Runtime") -> None:
    """Record a read grant in *both* directories: the exclusion between
    read_dir and write_dir is broken."""

    def wrapper(original, msg):
        original(msg)
        home = rt.protocol.home(msg.vpn)
        home.write_dir.add(msg.dst_cluster)

    _wrap_handler(rt, "RDAT", wrapper)


# ---------------------------------------------------------------------------
# swdsm
# ---------------------------------------------------------------------------


def _swdsm_stale_diff(rt: "Runtime") -> None:
    """Count an invalidation acknowledgement but drop the diff it
    carried: the stolen writes silently vanish from the home copy."""

    def wrapper(original, msg):
        if msg.indices is not None and len(msg.indices):
            import dataclasses

            msg = dataclasses.replace(
                msg, indices=msg.indices[:0], values=msg.values[:0]
            )
        original(msg)

    _wrap_handler(rt, "S_IACK", wrapper)


def _swdsm_lost_iack(rt: "Runtime") -> None:
    """Swallow the first S_IACK: the invalidation round never closes
    and the release behind it hangs forever."""
    state = {"dropped": False}

    def wrapper(original, msg):
        if not state["dropped"]:
            state["dropped"] = True
            return
        original(msg)

    _wrap_handler(rt, "S_IACK", wrapper)


# ---------------------------------------------------------------------------
# sc_pages
# ---------------------------------------------------------------------------


def _sc_shared_writer(rt: "Runtime") -> None:
    """Leave the exclusive-grant target registered as a *reader* too:
    the single-writer exclusion between the directories is broken."""

    def wrapper(original, msg):
        original(msg)
        home = rt.protocol.homes.get(msg.vpn)
        if home is not None:
            home.read_dir.add(msg.dst_cluster)

    _wrap_handler(rt, "SC_WGRANT", wrapper)


def _sc_lost_wb(rt: "Runtime") -> None:
    """Swallow the first SC_WB: the coherence round waiting on the
    downgraded writer's writeback never completes."""
    state = {"dropped": False}

    def wrapper(original, msg):
        if not state["dropped"]:
            state["dropped"] = True
            return
        original(msg)

    _wrap_handler(rt, "SC_WB", wrapper)


# ---------------------------------------------------------------------------
# gcs
# ---------------------------------------------------------------------------


def _gcs_dropped_write_notice(rt: "Runtime") -> None:
    """Skip the acquire-time staleness scan: write notices are lost, so
    stale replicas survive the acquire and reads see old data."""
    protocol = rt.protocol

    def acquire(pid, on_done):
        txn = protocol.bus.begin("acquire", pid)

        def finish():
            protocol.bus.end(txn)
            on_done()

        protocol.sim.schedule(1, finish)

    protocol.acquire = acquire


def _gcs_stale_version(rt: "Runtime") -> None:
    """Forget to persist the version bump a diff produced: the releaser
    ends up believing it is *ahead* of the home."""

    def wrapper(original, msg):
        original(msg)
        rt.protocol.versions[msg.vpn] -= 1

    _wrap_handler(rt, "G_DIFF", wrapper)


# ---------------------------------------------------------------------------
# exploration shapes: the smallest programs that reach each corruption
# ---------------------------------------------------------------------------

#: write then publish under the lock; the second thread reads under the
#: lock — the smallest program that exercises grant, invalidation-round,
#: and release arcs on one page
_WR_PAIR = (
    (("write", 0, 0), ("lock",), ("write", 0, 1), ("unlock",)),
    (("lock",), ("read", 0, 1), ("unlock",), ("read", 0, 0)),
)
#: the writer lives on the *non-home* cluster (thread 1 → pid 1 →
#: cluster 1), so the grant crosses the machine and twin/directory
#: bookkeeping on the requester side actually matters
_WR_REMOTE = (
    (("lock",), ("read", 0, 1), ("unlock",), ("read", 0, 0)),
    (("write", 0, 0), ("lock",), ("write", 0, 1), ("unlock",)),
)
#: same-cluster sharer plus a remote writer: forces TLB shootdowns
#: (PINV) inside the writer's cluster during the release round; run it
#: with ``cluster_size=2``
_SHOOTDOWN = (
    (("write", 0, 0), ("lock",), ("unlock",)),
    (("read", 0, 0),),
    (("read", 0, 0),),
)
#: thread 1 dirties its replica, thread 0's release opens an
#: invalidation round that steals thread 1's writes, then thread 1
#: re-reads its own word — the diff-steal shape for eager DSM engines
_STEAL = (
    (("lock",), ("write", 0, 1), ("unlock",)),
    (("write", 0, 0), ("lock",), ("read", 0, 0), ("unlock",)),
)
#: a reader caches the page first, then the writer publishes under the
#: lock and the reader re-reads under the lock — the stale-copy shape
#: for lazy engines
_STALE_READ = (
    (("read", 0, 0), ("lock",), ("read", 0, 0), ("unlock",)),
    (("lock",), ("write", 0, 0), ("unlock",)),
)


MUTATIONS: dict[str, MutationSpec] = {
    # -- mgs ----------------------------------------------------------
    "skip_pinv_ack": MutationSpec(
        "mgs",
        "swallow a PINV_ACK so a release round never completes",
        _skip_pinv_ack,
        _SHOOTDOWN,
        cluster_size=2,
    ),
    "forget_directory_refill": MutationSpec(
        "mgs",
        "grant a write copy without recording it in write_dir",
        _forget_directory_refill,
        _WR_REMOTE,
    ),
    "drop_twin": MutationSpec(
        "mgs",
        "lose the twin of a write copy",
        _drop_twin,
        _WR_REMOTE,
    ),
    "leak_duq": MutationSpec(
        "mgs",
        "leave a DUQ entry behind after its TLB shootdown",
        _leak_duq,
        _SHOOTDOWN,
        cluster_size=2,
    ),
    "double_rack": MutationSpec(
        "mgs",
        "acknowledge every REL twice",
        _double_rack,
        _WR_PAIR,
    ),
    "dir_exclusion": MutationSpec(
        "mgs",
        "record a read grant in both directories",
        _dir_exclusion,
        _WR_PAIR,
    ),
    # -- swdsm --------------------------------------------------------
    "swdsm_stale_diff": MutationSpec(
        "swdsm",
        "drop the diff an invalidation acknowledgement carried",
        _swdsm_stale_diff,
        _STEAL,
    ),
    "swdsm_lost_iack": MutationSpec(
        "swdsm",
        "swallow an S_IACK so the invalidation round never closes",
        _swdsm_lost_iack,
        _STEAL,
    ),
    # -- sc_pages -----------------------------------------------------
    "sc_shared_writer": MutationSpec(
        "sc_pages",
        "register the exclusive writer as a reader too",
        _sc_shared_writer,
        _WR_REMOTE,
    ),
    "sc_lost_wb": MutationSpec(
        "sc_pages",
        "swallow an SC_WB so the coherence round never completes",
        _sc_lost_wb,
        _WR_REMOTE,
    ),
    # -- gcs ----------------------------------------------------------
    "gcs_dropped_write_notice": MutationSpec(
        "gcs",
        "skip the acquire staleness scan (write notices lost)",
        _gcs_dropped_write_notice,
        _STALE_READ,
    ),
    "gcs_stale_version": MutationSpec(
        "gcs",
        "forget the version bump a diff produced",
        _gcs_stale_version,
        _WR_REMOTE,
    ),
}


def apply_mutation(rt: "Runtime", name: str) -> str:
    """Apply one named corruption to a live runtime; returns its
    description.  Refuses engines the mutation does not target."""
    spec = MUTATIONS[name]
    engine = rt.config.protocol
    if engine != spec.engine:
        raise ValueError(
            f"mutation {name!r} targets engine {spec.engine!r}, "
            f"not {engine!r}"
        )
    spec.applier(rt)
    return spec.description
