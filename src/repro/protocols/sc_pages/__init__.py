"""Sequentially-consistent single-writer pages (``protocol = "sc_pages"``)."""

from repro.protocols.sc_pages.protocol import SCPagesProtocol

__all__ = ["SCPagesProtocol"]
