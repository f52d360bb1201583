"""PCIe Transaction Layer Packets and their wire-size accounting.

FLD's whole performance story (paper §8.1, Fig. 7a) is about the PCIe
protocol bytes that accompany every network packet: descriptor reads,
completion writes, doorbells, and the TLP framing around each of them.
This module models TLP kinds and sizes at the fidelity the paper's
performance model uses.

Sizing model (PCIe Gen 3):
  * every TLP carries physical/data-link framing: STP token (4 B) +
    LCRC (4 B) = 8 B;
  * memory request headers are 3 DW (12 B) below 4 GiB or 4 DW (16 B)
    with 64-bit addresses — we use 4 DW for requests, as device BARs in
    modern hosts sit in high memory;
  * completion headers are 3 DW (12 B);
  * a memory write's payload is capped by the link's max payload size
    (MPS); larger writes split into multiple TLPs;
  * a memory read is header-only; its data returns in completion TLPs
    split at the read completion boundary (RCB).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

DLLP_FRAMING = 8        # STP token + LCRC per TLP
MEM_REQUEST_HEADER = 16  # 4 DW header (64-bit addressing)
COMPLETION_HEADER = 12   # 3 DW header

_sequence = itertools.count()


class TlpType(enum.Enum):
    MEM_READ = "MRd"
    MEM_WRITE = "MWr"
    COMPLETION_DATA = "CplD"
    COMPLETION = "Cpl"


class Tlp:
    """One transaction-layer packet.

    ``data`` is optional — timing-only simulations may carry just
    ``length``.  ``tag`` matches completions to their read request.

    The fields the fabric hangs on a TLP in flight (``trace_ctx``,
    ``bar``, ``on_delivered``) are dedicated slots rather than a
    side-band dict — a dict per TLP was measurable on the datapath.
    """

    __slots__ = ("kind", "address", "length", "data", "tag", "requester",
                 "completer", "trace_ctx", "bar", "on_delivered", "_wire")

    def __init__(self, kind: TlpType, address: int = 0, length: int = 0,
                 data: Optional[bytes] = None, tag: Optional[int] = None,
                 requester: str = "", completer: str = ""):
        if data is not None:
            length = len(data)
        self.kind = kind
        self.address = address
        self.length = length
        self.data = data
        self.tag = tag if tag is not None else next(_sequence)
        self.requester = requester
        self.completer = completer
        self.trace_ctx = None    # span trace context riding this TLP
        self.bar = None          # decoded target BAR (set by the switch)
        self.on_delivered = None  # fabric write-completion callback
        self._wire = None

    def wire_bytes(self) -> int:
        """Bytes this single TLP occupies on the link (cached)."""
        wire = self._wire
        if wire is None:
            kind = self.kind
            if kind is TlpType.MEM_READ:
                wire = MEM_REQUEST_HEADER + DLLP_FRAMING
            elif kind is TlpType.MEM_WRITE:
                wire = MEM_REQUEST_HEADER + DLLP_FRAMING + self.length
            elif kind is TlpType.COMPLETION_DATA:
                wire = COMPLETION_HEADER + DLLP_FRAMING + self.length
            else:
                wire = COMPLETION_HEADER + DLLP_FRAMING
            self._wire = wire
        return wire

    def payload_wire_bytes(self) -> int:
        """The useful-payload share of :meth:`wire_bytes`."""
        if self.kind in (TlpType.MEM_WRITE, TlpType.COMPLETION_DATA):
            return self.length
        return 0

    def header_wire_bytes(self) -> int:
        """The protocol-overhead share (header + framing) of the TLP."""
        return self.wire_bytes() - self.payload_wire_bytes()

    def __repr__(self) -> str:
        return (
            f"Tlp({self.kind.value}, addr={self.address:#x}, "
            f"len={self.length}, tag={self.tag})"
        )


def split_write_bytes(length: int, mps: int) -> list:
    """TLP payload lengths for a write of ``length`` under MPS."""
    if length <= 0:
        return []
    sizes = []
    remaining = length
    while remaining > 0:
        chunk = min(remaining, mps)
        sizes.append(chunk)
        remaining -= chunk
    return sizes


def completion_chunks(length: int, rcb: int) -> list:
    """Completion payload lengths for a read of ``length`` under RCB."""
    return split_write_bytes(length, rcb)


def write_wire_bytes(length: int, mps: int) -> int:
    """Total link bytes to write ``length`` payload bytes."""
    chunks = split_write_bytes(length, mps)
    return sum(MEM_REQUEST_HEADER + DLLP_FRAMING + c for c in chunks)


def read_wire_bytes(length: int, rcb: int,
                    max_read_request: int = 512) -> tuple:
    """(request_bytes, completion_bytes) for reading ``length`` bytes.

    Long reads first split into max-read-request-sized requests, each
    answered by RCB-sized completions.
    """
    request_bytes = 0
    completion_bytes = 0
    for request in split_write_bytes(length, max_read_request):
        request_bytes += MEM_REQUEST_HEADER + DLLP_FRAMING
        for chunk in completion_chunks(request, rcb):
            completion_bytes += COMPLETION_HEADER + DLLP_FRAMING + chunk
    return request_bytes, completion_bytes
