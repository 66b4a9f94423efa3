"""The protocol invariant sanitizer.

An opt-in observer that validates every message the protocol bus
delivers — and the page-frame / home-page state it is about to act on —
against the active engine's legal arcs.  It is a pure bus tap: it
charges no cycles, schedules no events, and mutates no protocol state,
so enabling it leaves simulations bit-for-bit identical
(``tests/test_analysis_invariants.py`` pins this).

The sanitizer itself is engine-agnostic.  It owns the observation
plumbing — bus taps, per-transaction message traces, the global message
ring, violation raising — and delegates every semantic judgement to the
:class:`~repro.core.engine.ArcRules` object the engine's
``arc_rules()`` hook returns.  For MGS that is
:class:`repro.protocols.mgs.arcs.MGSArcRules`, the arc catalogue of
docs/PROTOCOL.md (see docs/ANALYSIS.md for the invariant list with
arc-by-arc cross-references); rival engines ship their own rules.

Attach one per runtime::

    rt = Runtime(config, analysis="invariants")
    # or explicitly:
    sanitizer = InvariantSanitizer(rt)

Violations raise :class:`InvariantViolation` carrying the rule name and
the transaction trace (the messages delivered on the offending
transaction's behalf, plus the tail of the global message log).  At the
end of a run, :meth:`InvariantSanitizer.check_quiescent` sweeps the full
protocol state for leaks: open transactions, unanswered ``REL``s, held
mapping locks, leaked twins, and orphaned DUQ entries.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.messages import ProtocolMessage
    from repro.runtime.runner import Runtime

__all__ = ["InvariantSanitizer", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """A protocol invariant did not hold.

    Subclasses ``AssertionError`` so existing harnesses that treat
    protocol state corruption as assertion failures keep working.
    """

    def __init__(
        self,
        rule: str,
        detail: str,
        vpn: int = -1,
        txn: int = -1,
        trace: tuple[str, ...] = (),
    ) -> None:
        self.rule = rule
        self.detail = detail
        self.vpn = vpn
        self.txn = txn
        self.trace = trace
        lines = [f"[{rule}] {detail}"]
        if vpn >= 0:
            lines[0] += f" (vpn {vpn})"
        if trace:
            lines.append("transaction trace:")
            lines.extend(f"  {entry}" for entry in trace)
        super().__init__("\n".join(lines))


class InvariantSanitizer:
    """Validates protocol transitions as the bus delivers them.

    Construction attaches the sanitizer to ``rt.protocol.bus`` (as a
    message tap plus a transaction tap), asks the engine for its
    :class:`~repro.core.engine.ArcRules`, and publishes itself as
    ``rt.sanitizer``; :meth:`detach` removes both taps.
    """

    #: global message-log tail kept for violation reports
    RING = 32

    def __init__(self, rt: "Runtime") -> None:
        self.rt = rt
        self.protocol = rt.protocol
        self.bus = rt.protocol.bus
        self.config = rt.config
        #: messages validated so far
        self.checked = 0
        #: per-open-transaction message traces
        self._txn_traces: dict[int, list[str]] = {}
        self._ring: deque[str] = deque(maxlen=self.RING)
        #: engine-specific legal-arc catalogue
        self.rules = rt.protocol.arc_rules(self)
        self.bus.add_tap(self._on_message)
        self.bus.add_txn_tap(self._on_txn)
        rt.sanitizer = self

    def close(self) -> None:
        """Cut the references back into a closed runtime (see
        :meth:`repro.runtime.runner.Runtime.close`, which calls this and
        has already dropped the bus taps): the runtime itself and the
        arc rules, which point back at this sanitizer.  ``checked``
        stays readable."""
        self.rt = self.rules = None

    def detach(self) -> None:
        """Remove the bus taps; the sanitizer stops observing."""
        self.bus.remove_tap(self._on_message)
        self.bus.remove_txn_tap(self._on_txn)
        if getattr(self.rt, "sanitizer", None) is self:
            self.rt.sanitizer = None

    # ------------------------------------------------------------------
    # taps
    # ------------------------------------------------------------------

    def _on_txn(self, event: str, rec) -> None:
        if event == "begin":
            self._txn_traces[rec.txn] = [
                f"@{rec.start} BEGIN {rec.kind} pid={rec.pid} vpn={rec.vpn} "
                f"txn={rec.txn} {rec.note}"
            ]
        else:
            self._txn_traces.pop(rec.txn, None)

    def _on_message(self, msg: "ProtocolMessage", sent_at: int, now: int) -> None:
        """Runs before the handler: validates the delivery pre-state."""
        self.checked += 1
        line = (
            f"@{now} {msg.label} vpn={msg.vpn} "
            f"p{msg.src_pid}/c{msg.src_cluster} -> "
            f"p{msg.dst_pid}/c{msg.dst_cluster} txn={msg.txn}"
        )
        self._ring.append(line)
        trace = self._txn_traces.get(msg.txn)
        if trace is not None:
            trace.append(line)
        self.rules.on_message(msg)
        self.rules.check_page(msg.vpn)

    # ------------------------------------------------------------------
    # violation plumbing (used by the engine's ArcRules)
    # ------------------------------------------------------------------

    def _trace_for(self, txn: int) -> tuple[str, ...]:
        trace = self._txn_traces.get(txn)
        if trace:
            return tuple(trace)
        return tuple(self._ring)

    def fail(self, rule: str, detail: str, vpn: int = -1, txn: int = -1):
        """Raise :class:`InvariantViolation` with the transaction trace."""
        raise InvariantViolation(
            rule, detail, vpn=vpn, txn=txn, trace=self._trace_for(txn)
        )

    # ------------------------------------------------------------------
    # quiescence sweep
    # ------------------------------------------------------------------

    def check_quiescent(self) -> None:
        """Full-state leak check once the simulation has drained: the
        engine's structural invariants, then its quiescence arc rules.

        Valid at clean run completion (``Runtime.run`` calls it when a
        sanitizer is attached, before an app's ``run()`` closes the
        Runtime) or after a manually driven protocol storm has quiesced.
        """
        if self.protocol.hw_bypass:
            # Software coherence is nulled; there is no protocol state.
            return
        self.protocol.check_invariants()
        if self.bus.open_txns:
            stuck = sorted(self.bus.open_txns)
            self.fail(
                "quiesce-txns",
                f"transactions {stuck} never completed",
                txn=stuck[0],
            )
        self.rules.check_quiescent()

    # ------------------------------------------------------------------
    # whole-state sweep (explorer only)
    # ------------------------------------------------------------------

    def check_state(self, inflight) -> None:
        """Validate one snapshot of protocol state + in-flight messages.

        Called by the bounded model checker
        (:mod:`repro.analysis.explore`) after every simulator event, with
        the ordered tuple of undelivered protocol messages it extracted
        from the event queue.  Engines express queue-aware invariants in
        :meth:`~repro.core.engine.ArcRules.check_state` — relations the
        live sanitizer cannot observe because it never sees undelivered
        messages.
        """
        if self.protocol.hw_bypass:
            return
        self.rules.check_state(inflight)
