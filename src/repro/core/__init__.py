"""Protocol-engine substrate: the plumbing every coherence engine shares.

The concrete coherence engines live in :mod:`repro.protocols`, and each
package there holds only its policy: the fault body, the release body,
its ``@handles`` message handlers and its arc checks.  What stays in
``core`` is everything they share:

* :mod:`repro.core.engine` — the :class:`Protocol` base, which owns the
  fault and release entries (transaction, stats, fault overhead), the
  intra/inter-SSMP message cost and the home page-shipping cost; the
  :class:`ArcRules` base, which dispatches each delivered message to an
  engine's ``_CHECKS`` table; and the string-keyed engine registry.
* :mod:`repro.core.bus` — the typed protocol message bus: it builds each
  message from its endpoints (``send``/``reply``), dispatches through
  ``@handles`` registration, and keeps taps and transaction tracking.
* :mod:`repro.core.messages` — the Table-2 message vocabulary.
* :mod:`repro.core.page` — page frames, home pages, twin/diff helpers.
"""

from repro.core.bus import MessageBus, MessageFlow, Transaction, handles
from repro.core.engine import (
    ArcRules,
    Protocol,
    ProtocolStats,
    UnknownEngineError,
    create_engine,
    engine_class,
    engine_names,
    register_engine,
)
from repro.core.messages import MsgType, ProtocolMessage
from repro.core.page import FrameState, HomePage, PageFrame, ServerState

__all__ = [
    "ArcRules",
    "FrameState",
    "HomePage",
    "MessageBus",
    "MessageFlow",
    "MsgType",
    "PageFrame",
    "Protocol",
    "ProtocolMessage",
    "ServerState",
    "ProtocolStats",
    "Transaction",
    "UnknownEngineError",
    "create_engine",
    "engine_class",
    "engine_names",
    "handles",
    "register_engine",
]
