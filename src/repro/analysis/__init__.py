"""repro.analysis: protocol checkers for the MGS reproduction.

Cooperating, default-off tools (see docs/ANALYSIS.md):

* :class:`InvariantSanitizer` — validates every bus message and the
  protocol state it acts on against the legal arcs of docs/PROTOCOL.md;
  raises :class:`InvariantViolation` with the transaction trace.
* :class:`RaceDetector` — vector-clock happens-before race detection
  over the release-consistency synchronization (locks, barriers), plus
  the value oracle it implies: a race-free read must return the last
  write ordered before it.  :meth:`RaceDetector.certify` raises
  :class:`RaceError` on races or stale reads (:class:`StaleRead`).
  Its clocks (:class:`~repro.analysis.races.HappensBefore`) are also
  the explorer's read oracle.
* :mod:`repro.analysis.lint` — a static determinism pass, runnable as
  ``python -m repro.analysis.lint``.
* :mod:`repro.analysis.explore` — a bounded model checker enumerating
  *every* interleaving of a small threaded program over each engine,
  plus a hypothesis stateful walk; runnable as ``repro analyze``.
  (Imported lazily — it pulls in the tracer and hypothesis.)

Enable dynamically via ``Runtime(config, analysis=...)`` (accepts
``"invariants"``, ``"races"`` or ``"all"``/``True``), the ``--analyze``
CLI flag, or the ``protocol_sanitizer`` pytest fixture.  All checkers
are pure observers: they charge no simulated cycles, so even *enabled*
runs are cycle-identical, and disabled runs take exactly the
pre-analysis code paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.invariants import InvariantSanitizer, InvariantViolation
from repro.analysis.mutations import MUTATIONS, MutationSpec, apply_mutation
from repro.analysis.races import Race, RaceDetector, RaceError, StaleRead

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runner import Runtime

__all__ = [
    "InvariantSanitizer",
    "InvariantViolation",
    "MUTATIONS",
    "MutationSpec",
    "Race",
    "RaceDetector",
    "RaceError",
    "StaleRead",
    "apply_mutation",
    "setup_analysis",
]


def setup_analysis(rt: "Runtime", spec) -> None:
    """Attach the checkers requested by ``spec`` to a runtime.

    ``spec`` may be ``True``/``"all"`` (sanitizer + race detector),
    ``"invariants"`` or ``"races"``.
    """
    if spec is True or spec == "all":
        invariants = races = True
    elif spec in ("invariants", "races"):
        invariants = spec == "invariants"
        races = not invariants
    else:
        raise ValueError(
            f"analysis must be 'invariants', 'races', 'all' or True: {spec!r}"
        )
    if invariants:
        InvariantSanitizer(rt)
    if races:
        RaceDetector(rt)
