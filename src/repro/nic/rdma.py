"""RoCE RC transport engine: segmentation, acks, retransmission (§2.1-2.2).

The NIC implements the reliable transport in hardware — the key offload a
BITW design cannot reach and FLD can (§3).  The engine:

* segments messages into MTU-sized RoCE v2 frames (Eth/IP/UDP/BTH),
* tracks PSNs per QP and acknowledges received data cumulatively,
* retransmits outstanding segments on timeout (go-back-N),
* delivers received payload segments into the QP's receive queue with
  per-packet completions (ConnectX's shared MPRQ behaviour the paper
  exploits for incremental message processing, §6 Limitations).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..net import (
    Aeth,
    Bth,
    Ethernet,
    IpAddress,
    Ipv4,
    MacAddress,
    PROTO_UDP,
    Packet,
    ROCE_V2_PORT,
    Reth,
    Udp,
    send_opcode,
    write_opcode,
)
from ..net.roce import ICRC_SIZE, OP_ACK
from ..sim import Simulator
from .wqe import (
    CQE_FLAG_MSG_LAST,
    CQE_RECV_COMPLETION,
    CQE_SEND_COMPLETION,
    Cqe,
    OP_RDMA_WRITE,
    TxWqe,
)


class MemoryRegion:
    """A registered memory region: the target of RDMA WRITEs.

    Registration hands out an ``rkey`` the remote peer must present in
    the RETH; incoming writes are bounds-checked against the region.
    """

    __slots__ = ("rkey", "base", "length")

    def __init__(self, rkey: int, base: int, length: int):
        self.rkey = rkey
        self.base = base
        self.length = length

    def contains(self, address: int, nbytes: int) -> bool:
        return (self.base <= address
                and address + nbytes <= self.base + self.length)


class RdmaError(RuntimeError):
    """Raised on QP misuse (unconnected sends, bad state)."""


class QpStateError(RdmaError):
    """Raised on an illegal QP state transition (verbs semantics)."""


class _Segment:
    """One outstanding (unacked) transmit segment."""

    __slots__ = ("frame", "wqe", "is_last", "sent_at", "span_id")

    def __init__(self, frame: Packet, wqe: TxWqe, is_last: bool,
                 sent_at: float):
        self.frame = frame
        self.wqe = wqe
        self.is_last = is_last
        self.sent_at = sent_at
        # Open "rdma" span handle, closed when the last segment is acked.
        self.span_id = None


class _MessageSend:
    """An RC message in the middle of segmentation."""

    __slots__ = ("qp", "wqe", "chunks", "index", "remote_addr", "rkey",
                 "total_length", "span_id", "caller_tag", "on_done")

    def __init__(self, qp, wqe, chunks, remote_addr, rkey, total_length,
                 span_id, caller_tag, on_done):
        self.qp = qp
        self.wqe = wqe
        self.chunks = chunks
        self.index = 0
        self.remote_addr = remote_addr
        self.rkey = rkey
        self.total_length = total_length
        self.span_id = span_id
        self.caller_tag = caller_tag
        self.on_done = on_done


class RcQp:
    """A reliable-connected queue pair's transport state.

    The QP walks the verbs state machine: RESET → INIT → RTR → RTS for
    bring-up, dropping to ERR on transport failure, and ERR → RESET to
    recover (Table 4's reset-and-reconnect flow).  ``modify`` enforces
    the legal edges; ``connect`` is the bring-up sugar the software
    control planes use.
    """

    RESET, INIT, RTR, RTS, ERR = "reset", "init", "rtr", "rts", "err"
    #: Data-path alias: sends are legal only in RTS.
    READY = RTS

    #: Legal forward edges; any state may additionally drop to ERR, and
    #: any state may be torn back to RESET (verbs semantics).
    _FORWARD = {RESET: INIT, INIT: RTR, RTR: RTS}

    def __init__(self, qpn: int, sq, rq, local_mac: MacAddress,
                 local_ip: IpAddress):
        self.qpn = qpn
        self.sq = sq          # SendQueue with transport 'rc'
        self.rq = rq          # ReceiveQueue / MPRQ segments land in
        self.local_mac = local_mac
        self.local_ip = local_ip
        self.state = self.RESET
        #: Error syndrome of the failure that moved the QP to ERR.
        self.error_syndrome = 0
        # Remote endpoint (set by connect).
        self.remote_mac: Optional[MacAddress] = None
        self.remote_ip: Optional[IpAddress] = None
        self.remote_qpn: Optional[int] = None
        # Sender state.
        self.next_psn = 0
        self.consecutive_retries = 0
        self.outstanding: "OrderedDict[int, _Segment]" = OrderedDict()
        # Receiver state.
        self.expected_psn = 0
        self.received_msn = 0
        # In-progress inbound RDMA WRITE: the VA cursor set by the
        # first segment's RETH.
        self.write_cursor: Optional[int] = None
        self.write_region: Optional["MemoryRegion"] = None
        self.stats_sent_segments = 0
        self.stats_retransmits = 0
        self.stats_received_segments = 0
        self.stats_duplicate_segments = 0
        self.stats_writes_received = 0
        self.stats_write_protection_errors = 0

    def can_transition(self, new_state: str) -> bool:
        if new_state in (self.RESET, self.ERR):
            return True
        return self._FORWARD.get(self.state) == new_state

    def modify(self, new_state: str, remote_mac=None, remote_ip=None,
               remote_qpn: Optional[int] = None,
               rq_psn: Optional[int] = None,
               sq_psn: Optional[int] = None) -> None:
        """One verbs-style state transition, validating the edge.

        Like ``ibv_modify_qp``, attributes ride the transition that
        consumes them: the remote endpoint and receive PSN are applied
        at RTR, the send PSN at RTS.
        """
        if not self.can_transition(new_state):
            raise QpStateError(
                f"QP {self.qpn}: illegal transition "
                f"{self.state} -> {new_state}")
        if new_state == self.RTR:
            if remote_mac is not None:
                self.remote_mac = MacAddress(remote_mac)
            if remote_ip is not None:
                self.remote_ip = IpAddress(remote_ip)
            if remote_qpn is not None:
                self.remote_qpn = remote_qpn
            if self.remote_qpn is None:
                raise QpStateError(
                    f"QP {self.qpn}: RTR requires a remote endpoint")
            if rq_psn is not None:
                self.expected_psn = rq_psn
        elif new_state == self.RTS:
            if sq_psn is not None:
                self.next_psn = sq_psn
        elif new_state == self.RESET:
            self._clear_transport_state()
            self.remote_mac = None
            self.remote_ip = None
            self.remote_qpn = None
            self.error_syndrome = 0
        self.state = new_state

    def _clear_transport_state(self) -> None:
        self.next_psn = 0
        self.expected_psn = 0
        self.received_msn = 0
        self.consecutive_retries = 0
        self.outstanding.clear()
        self.write_cursor = None
        self.write_region = None

    def connect(self, remote_mac, remote_ip, remote_qpn: int,
                initial_psn: int = 0) -> None:
        """Bring-up sugar: walk RESET→INIT→RTR→RTS in one call."""
        if self.state != self.RESET:
            self.modify(self.RESET)
        self.modify(self.INIT)
        self.modify(self.RTR, remote_mac=remote_mac, remote_ip=remote_ip,
                    remote_qpn=remote_qpn, rq_psn=initial_psn)
        self.modify(self.RTS, sq_psn=initial_psn)


class RdmaEngine:
    """The device-resident transport processor.

    ``egress`` sends a finished RoCE frame out of the owning NIC;
    ``deliver_segment`` hands received payload to the device's receive
    path (buffer placement + CQE); ``complete_send`` writes send CQEs.
    """

    #: Syndrome reported when the retry budget is exhausted (mirrors
    #: IB's "transport retry counter exceeded" completion status).
    SYNDROME_RETRY_EXCEEDED = 0x15

    def __init__(self, sim: Simulator, mtu: int = 1024,
                 retransmit_timeout: float = 2e-3,
                 egress: Callable[[RcQp, Packet], None] = None,
                 deliver_segment=None, complete_send=None,
                 name: str = "rdma", max_retries: Optional[int] = None):
        self.sim = sim
        self.mtu = mtu
        self.retransmit_timeout = retransmit_timeout
        self.egress = egress
        self.deliver_segment = deliver_segment
        self.complete_send = complete_send
        self.name = name
        #: Consecutive go-back-N rounds without ack progress before the
        #: QP is failed to ERR; ``None`` retries forever (the historical
        #: behaviour, kept as the default).
        self.max_retries = max_retries
        #: Called as ``on_qp_error(qp, syndrome)`` when a QP drops to
        #: ERR; the owning NIC surfaces this as an error CQE (§5.3).
        self.on_qp_error: Optional[Callable[[RcQp, int], None]] = None
        self.qps: Dict[int, RcQp] = {}
        # Registered memory regions (one protection domain per engine).
        self._regions: Dict[int, MemoryRegion] = {}
        self._next_rkey = 1
        # Target for validated inbound RDMA WRITE data: callable
        # (virtual_address, data); typically the device's DMA engine.
        self.dma_write = None
        # Fault injection: callable (qp, frame) -> bool; True drops the
        # outgoing frame on the floor (models wire loss — exercises the
        # retransmission machinery deterministically in tests).
        self.drop_filter: Optional[Callable[[RcQp, Packet], bool]] = None
        self.stats_acks_sent = 0
        self.stats_acks_received = 0
        self.stats_injected_drops = 0
        # When telemetry is disabled these are shared no-op singletons.
        tele = sim.telemetry
        #: Profiler owner tag: retransmit timers and per-segment
        #: pipeline passes account to the rdma stage, not the SQ worker
        #: that drove them.
        self.profile_tag = name
        prof = sim.profiler
        self._prof = prof if prof.enabled else None
        self._ctr_segments_sent = tele.counter(f"{name}.segments_sent")
        self._ctr_segments_received = tele.counter(
            f"{name}.segments_received")
        self._ctr_retransmits = tele.counter(f"{name}.retransmits")
        self._ctr_duplicates = tele.counter(f"{name}.duplicate_segments")
        self._ctr_acks_sent = tele.counter(f"{name}.acks_sent")
        self._ctr_acks_received = tele.counter(f"{name}.acks_received")
        self._ctr_injected_drops = tele.counter(f"{name}.injected_drops")
        self._spans = tele.spans
        # Trace context of the inbound segment currently being delivered.
        # ``deliver_segment`` and ``dma_write`` have frozen signatures
        # (tests install plain lambdas), so the context travels out-of-band:
        # the owning device reads this attribute inside those callbacks.
        self.inbound_trace_ctx = None

    # -- memory registration ------------------------------------------------

    def register_mr(self, base: int, length: int) -> MemoryRegion:
        """Register [base, base+length) as an RDMA WRITE target."""
        region = MemoryRegion(self._next_rkey, base, length)
        self._regions[region.rkey] = region
        self._next_rkey += 1
        return region

    # -- aggregate transport stats (the invariant auditor reads these) ------

    @property
    def segments_sent(self) -> int:
        return sum(qp.stats_sent_segments for qp in self.qps.values())

    @property
    def retransmits(self) -> int:
        return sum(qp.stats_retransmits for qp in self.qps.values())

    def deregister_mr(self, rkey: int) -> None:
        self._regions.pop(rkey, None)

    def register_qp(self, qp: RcQp) -> None:
        if qp.qpn in self.qps:
            raise RdmaError(f"QP {qp.qpn} already registered")
        self.qps[qp.qpn] = qp

    def unregister_qp(self, qpn: int) -> None:
        qp = self.qps.pop(qpn, None)
        if qp is not None:
            qp.outstanding.clear()  # orphan the retransmit timer

    # -- transmit ---------------------------------------------------------

    def _egress_frame(self, qp: RcQp, frame: Packet) -> None:
        """Single egress chokepoint: applies the fault-injection filter."""
        if self.drop_filter is not None and self.drop_filter(qp, frame):
            self.stats_injected_drops += 1
            self._ctr_injected_drops.inc()
            return
        self.egress(qp, frame)

    def per_packet_overhead(self) -> int:
        """Wire header bytes around each segment's payload."""
        return 14 + 20 + 8 + Bth.HEADER_LEN + ICRC_SIZE

    def start_message(self, qp: RcQp, wqe: Optional[TxWqe], data: bytes,
                      remote_addr: int = 0, rkey: int = 0,
                      on_done: Optional[Callable[[], None]] = None) -> None:
        """Segment and transmit one message, one segment per pass.

        ``wqe.opcode`` selects SEND or RDMA WRITE; a WRITE carries the
        (remote VA, rkey) in the first segment's RETH.  The first
        segment leaves now; each pipeline pass is a zero-delay
        continuation, and ``on_done()`` runs in the pass after the last
        segment.
        """
        if qp.state != RcQp.READY:
            raise RdmaError(f"QP {qp.qpn} not connected")
        chunks = [data[i:i + self.mtu] for i in range(0, len(data), self.mtu)]
        ctx = wqe.trace_ctx if wqe is not None else None
        prof = self._prof
        send = _MessageSend(
            qp, wqe, chunks or [b""], remote_addr, rkey, len(data),
            self._spans.enter(ctx, "rdma", self.sim.now),
            prof.current_tag if prof is not None else None, on_done)
        self._next_segment(send)

    def _next_segment(self, send: "_MessageSend") -> None:
        prof = self._prof
        chunks = send.chunks
        index = send.index
        if index == len(chunks):
            if prof is not None:
                # Hand the tag back to the caller's stage.
                prof.current_tag = send.caller_tag
            if send.on_done is not None:
                send.on_done()
            return
        if prof is not None:
            # The segment's pipeline pass belongs to the rdma engine.
            prof.current_tag = self.profile_tag
        qp = send.qp
        wqe = send.wqe
        last = index == len(chunks) - 1
        frame = self._build_frame(
            qp, chunks[index], index == 0, last, wqe,
            is_write=wqe is not None and wqe.opcode == OP_RDMA_WRITE,
            remote_addr=send.remote_addr, rkey=send.rkey,
            total_length=send.total_length,
        )
        segment = _Segment(frame, wqe, last, self.sim.now)
        if last:
            segment.span_id = send.span_id
        qp.outstanding[qp.next_psn] = segment
        qp.next_psn = (qp.next_psn + 1) & 0xFFFFFF
        qp.stats_sent_segments += 1
        self._ctr_segments_sent.inc()
        self._egress_frame(qp, frame)
        if len(qp.outstanding) == 1:
            self._arm_retransmit_timer(qp)
        send.index = index + 1
        self.sim.call_later(0.0, self._next_segment, send)

    def _build_frame(self, qp: RcQp, payload: bytes, first: bool, last: bool,
                     wqe: Optional[TxWqe], is_write: bool = False,
                     remote_addr: int = 0, rkey: int = 0,
                     total_length: int = 0) -> Packet:
        opcode = (write_opcode(first, last) if is_write
                  else send_opcode(first, last))
        bth = Bth(
            opcode, dest_qp=qp.remote_qpn, psn=qp.next_psn,
            ack_request=last,
        )
        packet = Packet(payload=payload + bytes(ICRC_SIZE))
        packet.append(bth)
        if is_write and first:
            packet.append(Reth(remote_addr, rkey, total_length))
        udp = Udp(49152 + (qp.qpn & 0x3FFF), ROCE_V2_PORT)
        udp.finalize(bth.size() + len(payload) + ICRC_SIZE)
        packet.push(udp)
        ip = Ipv4(qp.local_ip, qp.remote_ip, proto=PROTO_UDP)
        ip.finalize(udp.length)
        packet.push(ip)
        packet.push(Ethernet(qp.local_mac, qp.remote_mac))
        if wqe is not None:
            packet.meta["context_id"] = wqe.context_id
            if wqe.trace_ctx is not None:
                # Ride the frame's metadata so retransmitted copies
                # (Packet.copy preserves meta) stay on the original trace.
                packet.meta["trace_ctx"] = wqe.trace_ctx
        return packet

    def _arm_retransmit_timer(self, qp: RcQp) -> None:
        def check():
            if not qp.outstanding:
                return
            oldest_psn = next(iter(qp.outstanding))
            oldest = qp.outstanding[oldest_psn]
            age = self.sim.now - oldest.sent_at
            if age + 1e-12 >= self.retransmit_timeout:
                self._retransmit(qp)
                self.sim.schedule(self.retransmit_timeout, check)
            else:
                self.sim.schedule(self.retransmit_timeout - age, check)

        self.sim.schedule(self.retransmit_timeout, check)

    def _retransmit(self, qp: RcQp) -> None:
        """Go-back-N: resend every outstanding segment."""
        qp.consecutive_retries += 1
        if (self.max_retries is not None
                and qp.consecutive_retries > self.max_retries):
            self.fail_qp(qp, self.SYNDROME_RETRY_EXCEEDED)
            return
        spans = self._spans
        for psn, segment in qp.outstanding.items():
            segment.sent_at = self.sim.now
            qp.stats_retransmits += 1
            self._ctr_retransmits.inc()
            ctx = segment.frame.meta.get("trace_ctx")
            if ctx is not None:
                spans.event(ctx, f"rdma.retransmit:psn={psn}", self.sim.now)
            self._egress_frame(qp, segment.frame.copy())

    # -- receive ----------------------------------------------------------

    def on_ingress(self, packet: Packet) -> bool:
        """Process a RoCE frame; returns False when it is not for us."""
        prof = self._prof
        if prof is None:
            return self._on_ingress(packet)
        # Runs synchronously inside the wire-delivery dispatch; scope
        # anything it schedules (acks, DMA) to the rdma stage.
        prev = prof.current_tag
        prof.current_tag = self.profile_tag
        try:
            return self._on_ingress(packet)
        finally:
            prof.current_tag = prev

    def _on_ingress(self, packet: Packet) -> bool:
        bth = packet.find(Bth)
        if bth is None:
            return False
        qp = self.qps.get(bth.dest_qp)
        if qp is None:
            return False
        if bth.is_ack:
            self._handle_ack(qp, packet, bth)
            return True
        if bth.is_write:
            self._handle_write(qp, packet, bth)
            return True
        self._handle_data(qp, packet, bth)
        return True

    def _handle_write(self, qp: RcQp, packet: Packet, bth: Bth) -> None:
        """Inbound RDMA WRITE: place payload directly at the target VA.

        No receive descriptor is consumed and no receive completion is
        generated — the one-sided semantics that make WRITE cheap.
        """
        if bth.psn != qp.expected_psn:
            qp.stats_duplicate_segments += 1
            self._ctr_duplicates.inc()
            self._send_ack(qp)
            return
        payload = (packet.payload[:-ICRC_SIZE]
                   if len(packet.payload) >= ICRC_SIZE else b"")
        if bth.is_first:
            reth = packet.find(Reth)
            region = self._regions.get(reth.rkey) if reth else None
            if region is None or not region.contains(reth.virtual_address,
                                                     reth.length):
                # Protection error: NAK by not advancing; real NICs move
                # the QP to an error state, which software must recover.
                qp.stats_write_protection_errors += 1
                self._send_ack(qp)
                return
            qp.write_region = region
            qp.write_cursor = reth.virtual_address
        if qp.write_cursor is None or qp.write_region is None:
            qp.stats_write_protection_errors += 1
            self._send_ack(qp)
            return
        if not qp.write_region.contains(qp.write_cursor, len(payload)):
            qp.stats_write_protection_errors += 1
            self._send_ack(qp)
            return
        qp.expected_psn = (qp.expected_psn + 1) & 0xFFFFFF
        qp.stats_received_segments += 1
        self._ctr_segments_received.inc()
        qp.stats_writes_received += 1
        if self.dma_write is not None and payload:
            self.inbound_trace_ctx = packet.meta.get("trace_ctx")
            try:
                self.dma_write(qp.write_cursor, payload)
            finally:
                self.inbound_trace_ctx = None
        qp.write_cursor += len(payload)
        if bth.is_last:
            qp.received_msn = (qp.received_msn + 1) & 0xFFFFFF
            qp.write_cursor = None
            qp.write_region = None
        if bth.ack_request or bth.is_last:
            self._send_ack(qp)

    def _handle_data(self, qp: RcQp, packet: Packet, bth: Bth) -> None:
        if bth.psn != qp.expected_psn:
            # Duplicate (retransmission already seen) or out-of-order
            # (a gap after loss).  Either way: re-ack the last good PSN
            # so the sender resynchronizes; do not deliver.
            qp.stats_duplicate_segments += 1
            self._ctr_duplicates.inc()
            self._send_ack(qp)
            return
        qp.expected_psn = (qp.expected_psn + 1) & 0xFFFFFF
        qp.stats_received_segments += 1
        self._ctr_segments_received.inc()
        if bth.is_last:
            qp.received_msn = (qp.received_msn + 1) & 0xFFFFFF
        payload = packet.payload[:-ICRC_SIZE] if len(packet.payload) >= ICRC_SIZE else b""
        flags = CQE_FLAG_MSG_LAST if bth.is_last else 0
        context = packet.meta.get("context_id", 0)
        self.inbound_trace_ctx = packet.meta.get("trace_ctx")
        try:
            self.deliver_segment(qp, payload, flags, context,
                                 first=bth.is_first, last=bth.is_last)
        finally:
            self.inbound_trace_ctx = None
        if bth.ack_request or bth.is_last:
            self._send_ack(qp)

    def _send_ack(self, qp: RcQp) -> None:
        last_good = (qp.expected_psn - 1) & 0xFFFFFF
        ack = Bth(OP_ACK, dest_qp=qp.remote_qpn, psn=last_good)
        packet = Packet(payload=bytes(ICRC_SIZE))
        packet.append(ack)
        packet.append(Aeth(msn=qp.received_msn))
        udp = Udp(49152 + (qp.qpn & 0x3FFF), ROCE_V2_PORT)
        udp.finalize(ack.size() + Aeth.HEADER_LEN + ICRC_SIZE)
        packet.push(udp)
        ip = Ipv4(qp.local_ip, qp.remote_ip, proto=PROTO_UDP)
        ip.finalize(udp.length)
        packet.push(ip)
        packet.push(Ethernet(qp.local_mac, qp.remote_mac))
        self.stats_acks_sent += 1
        self._ctr_acks_sent.inc()
        self._egress_frame(qp, packet)

    def _handle_ack(self, qp: RcQp, packet: Packet, bth: Bth) -> None:
        self.stats_acks_received += 1
        self._ctr_acks_received.inc()
        acked_psn = bth.psn
        while qp.outstanding:
            psn = next(iter(qp.outstanding))
            # Handle 24-bit wraparound with a signed window comparison.
            delta = (acked_psn - psn) & 0xFFFFFF
            if delta >= (1 << 23):
                break  # psn is after acked_psn
            segment = qp.outstanding.pop(psn)
            qp.consecutive_retries = 0  # the wire is moving again
            if segment.span_id is not None:
                self._spans.exit(segment.span_id, self.sim.now)
            if segment.is_last and segment.wqe is not None:
                self.complete_send(qp, segment.wqe)

    # -- failure ----------------------------------------------------------

    def fail_qp(self, qp: RcQp, syndrome: int) -> None:
        """Drop ``qp`` to ERR: flush outstanding work, notify software.

        Flushing empties ``qp.outstanding``, so the armed retransmit
        timer sees nothing left and dies on its next check.  Lost
        in-flight messages stay lost — recovery is a software-driven
        reset-and-reconnect through the command channel (Table 4).
        """
        if qp.state == RcQp.ERR:
            return
        spans = self._spans
        for segment in qp.outstanding.values():
            if segment.span_id is not None:
                spans.exit(segment.span_id, self.sim.now)
        qp.outstanding.clear()
        qp.error_syndrome = syndrome
        qp.modify(RcQp.ERR)
        if self.on_qp_error is not None:
            self.on_qp_error(qp, syndrome)
