"""Single-grain software page DSM engine (``protocol = "swdsm"``)."""

from repro.protocols.swdsm.protocol import SWDSMProtocol

__all__ = ["SWDSMProtocol"]
