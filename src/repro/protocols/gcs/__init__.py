"""Synchronization-piggybacked lazy release consistency (``gcs``)."""

from repro.protocols.gcs.protocol import GCSProtocol

__all__ = ["GCSProtocol"]
