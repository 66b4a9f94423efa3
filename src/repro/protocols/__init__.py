"""The concrete coherence engines behind ``MachineConfig.protocol``.

Importing this package registers every built-in engine with the
string-keyed registry in :mod:`repro.core.engine`:

* ``mgs`` — the paper's multigrain shared-memory protocol (default).
* ``swdsm`` — single-grain software page DSM, the all-software baseline
  of Figure 6: one DSM node per processor, no hardware line sharing.
* ``sc_pages`` — sequentially-consistent single-writer pages with
  invalidate-on-write and home migration on repeated remote writes.
* ``gcs`` — synchronization-aware coherence in the spirit of Soul
  (GCS): write notices piggyback on lock/barrier transfer and stale
  copies are invalidated lazily at acquire points.

Adding an engine: subclass :class:`repro.core.engine.Protocol` in a new
package here, decorate it with ``@register_engine``, mark its handlers
with ``@handles`` for the package's message classes, give its
``ArcRules._CHECKS`` table the same labels, and import the module below.
The conformance test (``tests/test_protocol_conformance.py``) enforces
that the labels match.  See docs/PROTOCOL.md, "Engines".
"""

from repro.protocols import gcs, mgs, sc_pages, swdsm  # noqa: F401

__all__ = ["gcs", "mgs", "sc_pages", "swdsm"]
