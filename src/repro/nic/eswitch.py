"""Embedded switch (eSwitch), vPorts and the physical Ethernet port (§2.3).

The eSwitch connects the NIC's uplink (wire) to its virtual ports.  A
hypervisor-managed FDB pipeline steers ingress traffic to vPorts (and can
decap tunnels / tag tenants on the way); each vPort then runs its own
guest-managed receive pipeline that picks the receive queue, RSS group or
accelerator.  Egress traffic from a vPort goes through the FDB too, which
may loop it back to another vPort — the configuration the paper's local
experiments use.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from ..net import ETHERNET_WIRE_OVERHEAD, Packet
from ..sim import Link, Simulator
from .steering import Disposition, ForwardToUplink, SteeringPipeline


class EthernetPort:
    """A MAC serializing frames onto a wire at the port's line rate."""

    def __init__(self, sim: Simulator, name: str, rate_bps: float = 25e9,
                 latency: float = 500e-9):
        self.sim = sim
        self.name = name
        self.link = Link(sim, rate_bps, latency, name=f"{name}.wire")
        # In-flight frames dispatch through the receiving port's
        # ``_receive``; the profiler attributes them to the wire stage.
        self.profile_tag = f"{name}.wire"
        self.peer: Optional["EthernetPort"] = None
        self.on_receive: Optional[Callable[[Packet], None]] = None
        self.stats_tx_packets = 0
        self.stats_rx_packets = 0
        self._spans = sim.telemetry.spans

    def connect(self, peer: "EthernetPort") -> None:
        """Connect both directions of a back-to-back cable.

        A port takes exactly one cable: re-connecting an already-wired
        port (either end) raises instead of silently re-pointing the
        link's receive callback at the new peer.
        """
        for port in (self, peer):
            if port.peer is not None:
                raise ValueError(
                    f"port {port.name} is already connected to "
                    f"{port.peer.name}; disconnect is not supported")
        self.link.connect(peer._receive)
        peer.link.connect(self._receive)
        self.peer = peer
        peer.peer = self

    def send(self, packet: Packet) -> None:
        self.stats_tx_packets += 1
        if self._spans.enabled and "trace_ctx" in packet.meta:
            # Stamp serialization start; the receiving port closes the
            # span.  Retransmitted copies carry their own stamp (meta is
            # copied per frame), so every wire crossing is recorded.
            packet.meta["trace_wire_t0"] = self.sim.now
        self.link.send(packet, packet.wire_size() * 8)

    def send_at(self, packet: Packet, arrival: float) -> None:
        """Like :meth:`send`, arbitrating for the wire as if the frame
        were handed over at the future instant ``arrival``.

        Used by fused egress stages that resolve a transmit before its
        pipeline occupancy has elapsed; a traced frame's wire span starts
        at ``arrival``, the instant :meth:`send` would have stamped.
        """
        self.stats_tx_packets += 1
        if self._spans.enabled and "trace_ctx" in packet.meta:
            packet.meta["trace_wire_t0"] = arrival
        self.link.send_at(packet, packet.wire_size() * 8, arrival)

    def _receive(self, packet: Packet) -> None:
        self.stats_rx_packets += 1
        if self._spans.enabled:
            ctx = packet.meta.get("trace_ctx")
            if ctx is not None:
                t0 = packet.meta.pop("trace_wire_t0", None)
                if t0 is not None:
                    self._spans.record(ctx, "wire", t0, self.sim.now)
        if self.on_receive is not None:
            self.on_receive(packet)

    @property
    def rate_bps(self) -> float:
        return self.link.rate_bps


class VPort:
    """A virtual port: the eSwitch-facing side of a vNIC."""

    def __init__(self, number: int):
        self.number = number
        self.rx_root = f"vport{number}.rx"
        self.tx_root: Optional[str] = None  # optional guest egress table
        self.stats_rx = 0
        self.stats_tx = 0


class ESwitch:
    """FDB steering between the uplink and vPorts.

    ``deliver`` is the device callback that takes (vport, Disposition)
    for packets terminating at a receive queue; the eSwitch handles
    vPort-to-vPort loopback and uplink forwarding itself.
    """

    FDB_ROOT = "fdb"

    def __init__(self, sim: Simulator, port: EthernetPort,
                 deliver: Callable[[VPort, Disposition], None]):
        self.sim = sim
        self.port = port
        self.port.on_receive = self.ingress_from_wire
        self._deliver = deliver
        # Optional transport interception run before a vPort's guest
        # pipeline (the device uses it to catch RoCE frames); returns
        # True when the packet was consumed.
        self.pre_rx_hook = None
        self.pipeline = SteeringPipeline()
        # Default FDB behaviour: send everything out the wire.
        self.pipeline.table(self.FDB_ROOT, default_actions=[ForwardToUplink()])
        self.vports: Dict[int, VPort] = {}
        self.stats_loopback = 0
        self.stats_to_uplink = 0
        self.stats_fdb_drops = 0

    def add_vport(self, number: int) -> VPort:
        if number in self.vports:
            raise ValueError(f"vport {number} exists")
        vport = VPort(number)
        self.vports[number] = vport
        # Each vPort gets an rx pipeline table; default drop until the
        # guest installs rules.
        self.pipeline.table(vport.rx_root)
        return vport

    def remove_vport(self, number: int) -> None:
        """Detach a vPort and drop its (empty) rx pipeline table."""
        vport = self.vports.get(number)
        if vport is None:
            raise ValueError(f"vport {number} does not exist")
        self.pipeline.remove_table(vport.rx_root)
        del self.vports[number]

    # -- ingress (wire -> eSwitch -> vPort) ------------------------------

    def ingress_from_wire(self, packet: Packet) -> None:
        disposition = self.pipeline.process(packet, self.FDB_ROOT)
        if disposition.kind == Disposition.UPLINK:
            # Split horizon: never hairpin a frame back out the port it
            # arrived on; an FDB miss from the wire is a drop.
            self.stats_fdb_drops += 1
            return
        self._apply_fdb(disposition, from_vport=None)

    # -- egress (vPort -> eSwitch -> wire or loopback) --------------------

    def egress_from_vport(self, vport_number: int, packet: Packet) -> None:
        disposition, vport = self.egress_resolve(vport_number, packet)
        self._apply_fdb(disposition, from_vport=vport)

    def egress_resolve(self, vport_number: int,
                       packet: Packet) -> Tuple[Disposition, VPort]:
        """First half of :meth:`egress_from_vport`: run the egress
        pipeline and return the resolved disposition without applying
        it, so a fused caller can defer the effect to a future instant.
        """
        vport = self.vports[vport_number]
        vport.stats_tx += 1
        if vport.tx_root is not None:
            disposition = self.pipeline.process(packet, vport.tx_root)
        else:
            disposition = self.pipeline.process(packet, self.FDB_ROOT)
        return disposition, vport

    def apply_at(self, disposition: Disposition,
                 from_vport: Optional[VPort], when: float) -> None:
        """Apply a resolved egress at the future instant ``when``.

        Wire-bound frames reserve the uplink under the future key right
        away — exact arbitration against concurrent senders, no event of
        their own.  Local dispositions (loopback, queue delivery, drops)
        can gate on receive-side state, so they run in a single deferred
        event at exactly ``when`` — the same cost as the pipeline
        timeout they replace.
        """
        if disposition.kind == Disposition.UPLINK:
            self.stats_to_uplink += 1
            self.port.send_at(disposition.packet, when)
            return
        self.sim.schedule_at(
            when, partial(self._apply_fdb, disposition, from_vport))

    # -- shared -----------------------------------------------------------

    def _apply_fdb(self, disposition: Disposition,
                   from_vport: Optional[VPort]) -> None:
        packet = disposition.packet
        if disposition.kind == Disposition.UPLINK:
            self.stats_to_uplink += 1
            self.port.send(packet)
            return
        if disposition.kind == Disposition.VPORT:
            if from_vport is not None:
                self.stats_loopback += 1
            self.ingress_to_vport(disposition.target, packet)
            return
        if disposition.kind == Disposition.DROP:
            self.stats_fdb_drops += 1
            return
        # FDB resolved straight to a queue/RSS/accelerator (hypervisor
        # rules may do that for FLD-E); hand to the device.
        self._deliver(from_vport, disposition)

    def ingress_to_vport(self, vport_number: int, packet: Packet) -> None:
        """Run a packet through a vPort's guest receive pipeline."""
        vport = self.vports[vport_number]
        vport.stats_rx += 1
        if self.pre_rx_hook is not None and self.pre_rx_hook(vport, packet):
            return
        disposition = self.pipeline.process(packet, vport.rx_root)
        if disposition.kind == Disposition.DROP:
            self.stats_fdb_drops += 1
            return
        if disposition.kind == Disposition.UPLINK:
            self.port.send(disposition.packet)
            return
        if disposition.kind == Disposition.VPORT:
            self.ingress_to_vport(disposition.target, disposition.packet)
            return
        self._deliver(vport, disposition)
