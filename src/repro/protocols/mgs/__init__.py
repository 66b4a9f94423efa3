"""The MGS multigrain shared-memory protocol (the paper's contribution).

Three cooperating engines implement the protocol, exactly as in Figure 4
of the paper:

* :class:`~repro.protocols.mgs.local_client.LocalClient` — runs on the
  faulting processor; maintains mapping (TLB) state and requests page
  data.
* :class:`~repro.protocols.mgs.remote_client.RemoteClient` — runs on the
  processor owning an SSMP's copy of a page; performs page invalidation,
  diffing, and upgrades.
* :class:`~repro.protocols.mgs.server.Server` — runs on the page's home
  processor; grants replication requests and orchestrates release
  operations.

:class:`~repro.protocols.mgs.protocol.MGSProtocol` wires the three
engines to the machine, hardware-coherence, and SVM substrates.
"""

from repro.protocols.mgs.duq import DUQ
from repro.protocols.mgs.protocol import MGSProtocol

__all__ = ["DUQ", "MGSProtocol"]
