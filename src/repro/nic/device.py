"""The NIC device model (ConnectX-5-like).

One :class:`Nic` owns an Ethernet port + eSwitch, steering pipelines,
stateless offloads, a traffic shaper, the RoCE RC transport engine, and
the queue machinery.  Its PCIe BAR exposes doorbell records and a
WQE-by-MMIO window; its DMA engine reads rings/buffers and writes packet
data/CQEs at *fabric addresses* — host memory and the FLD BAR look
identical to it, which is precisely the property FlexDriver exploits.

Control-plane operations (queue creation, steering rule installation,
QP connection) run through the firmware command interface in
:mod:`repro.nic.cmd`: the software control planes in :mod:`repro.sw`
and :mod:`repro.host` submit typed commands over the command channel,
and the NIC's :class:`~repro.nic.cmd.CommandUnit` maps them onto the
``create_*``/``destroy_*`` machinery here.  Only the command unit (and
this module) may call those methods directly — a conformance test
enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from ..net import Bth, Packet
from ..net.parse import parse_frame
from ..pcie import PcieEndpoint, PcieError, PcieFabric, PcieLinkConfig
from ..sim import Simulator, Store
# The NIC BAR's internal layout lives with the other physical address
# constants in the overlap-checked address map.
from ..topology.addrmap import (
    BAR_SIZE,
    DOORBELL_STRIDE,
    RQ_DOORBELL_BASE,
    WQE_MMIO_BASE,
    WQE_MMIO_STRIDE,
)
from .cmd import CommandUnit
from .eswitch import ESwitch, EthernetPort, VPort
from .offloads import ChecksumOffload, SegmentationOffload
from .queues import (
    CompletionQueue,
    MultiPacketReceiveQueue,
    QueueError,
    ReceiveQueue,
    RssGroup,
    SendQueue,
)
from .rdma import RcQp, RdmaEngine
from .shaper import Shaper
from .steering import Disposition, Drop, SteeringPipeline
from .wqe import (
    CQE_ERROR,
    CQE_RECV_COMPLETION,
    CQE_SEND_COMPLETION,
    Cqe,
    RX_DESC_SIZE,
    RxDesc,
    TxWqe,
    WQE_FLAG_CSUM_L3,
    WQE_FLAG_CSUM_L4,
    WQE_FLAG_LSO,
    WQE_SIZE,
)

#: Sentinel pushed through a destroyed queue's stores so its worker
#: processes unwind instead of waiting forever.
_POISON = object()


@dataclass
class NicConfig:
    """Tunable device parameters (defaults match the Innova-2 testbed)."""

    port_rate_bps: float = 25e9
    port_latency: float = 500e-9     # wire propagation + MAC/PHY latency
    rdma_mtu: int = 1024             # the paper uses 1024 B for RoCE
    processing_delay: float = 60e-9  # per-packet ASIC pipeline occupancy
    rx_inbox_depth: int = 1024       # internal rx buffering per queue
    # RoCE retransmission timers are milliseconds-scale; anything
    # shorter fires spuriously once the pipe holds >100 us of data.
    retransmit_timeout: float = 2e-3
    dma_window: int = 32             # outstanding DMA contexts per queue
    wqe_fetch_batch: int = 16        # WQEs fetched per descriptor DMA read
    rx_desc_batch: int = 16          # rx descriptors prefetched per read


class _RxItem:
    """One unit of work for a receive-queue worker."""

    __slots__ = ("data", "flags", "context_id", "qpn", "rss_hash",
                 "trace_ctx", "enqueued", "started")

    def __init__(self, data: bytes, flags: int, context_id: int, qpn: int,
                 rss_hash: int = 0, trace_ctx=None, enqueued: float = 0.0):
        self.data = data
        self.flags = flags
        self.context_id = context_id
        self.qpn = qpn
        self.rss_hash = rss_hash
        self.trace_ctx = trace_ctx
        self.enqueued = enqueued
        self.started = enqueued   # when the queue's worker took it up


class Nic(PcieEndpoint):
    """A NIC ASIC on the PCIe fabric."""

    def __init__(self, sim: Simulator, fabric: PcieFabric, name: str,
                 config: Optional[NicConfig] = None,
                 link_config: Optional[PcieLinkConfig] = None):
        super().__init__(name)
        self.sim = sim
        self.config = config or NicConfig()
        # The NIC fronts the Innova-2's embedded PCIe switch (Fig. 6):
        # its own attachment is wider than any single peer's x8 link, so
        # the per-peer links are the bottlenecks, as on the real board.
        if link_config is None:
            link_config = PcieLinkConfig(lanes=16)
        self.port = EthernetPort(sim, f"{name}.port",
                                 self.config.port_rate_bps,
                                 self.config.port_latency)
        self.eswitch = ESwitch(sim, self.port, self._deliver_disposition)
        self.eswitch.pre_rx_hook = self._pre_rx_hook
        self.checksum = ChecksumOffload()
        self.lso = SegmentationOffload()
        self.shaper = Shaper(sim)
        self.rdma = RdmaEngine(
            sim, mtu=self.config.rdma_mtu,
            retransmit_timeout=self.config.retransmit_timeout,
            egress=self._rdma_egress, deliver_segment=self._rdma_deliver,
            complete_send=self._rdma_complete_send,
            name=f"{name}.rdma",
        )
        self.sqs: Dict[int, SendQueue] = {}
        self.rqs: Dict[int, ReceiveQueue] = {}
        self.cqs: Dict[int, CompletionQueue] = {}
        self._qp_by_sqn: Dict[int, RcQp] = {}
        self._rx_inbox: Dict[int, Store] = {}
        # Per-queue continuation workers, keyed like _rx_inbox / sqs so
        # teardown can find them.
        self._rx_flat: Dict[int, "_RqFlatWorker"] = {}
        self._tx_flat: Dict[int, "_SqFlatPipeline"] = {}
        self._cached_rx_desc: Dict[Tuple[int, int], RxDesc] = {}
        self._next_qpn = 1
        self._next_cqn = 1
        self._next_rqn = 1
        # FLD-E resume tables: id -> steering table name (§5.3).
        self._resume_tables: Dict[int, str] = {}
        self._next_resume_id = 1
        self.stats_rx_dropped_inbox = 0
        self.stats_rx_dropped_no_desc = 0
        self.stats_meter_drops = 0
        # No-op singletons when telemetry is disabled; the tracer is
        # guarded by its ``enabled`` flag at every use site.
        tele = sim.telemetry
        self._tracer = tele.tracer
        self._spans = tele.spans
        prof = sim.profiler
        self._prof = prof if prof.enabled else None
        self._ctr_tx_wqes = tele.counter(f"nic.{name}.tx.wqes")
        self._ctr_tx_bytes = tele.counter(f"nic.{name}.tx.bytes")
        self._ctr_rx_packets = tele.counter(f"nic.{name}.rx.packets")
        self._ctr_rx_bytes = tele.counter(f"nic.{name}.rx.bytes")
        self._ctr_cqes = tele.counter(f"nic.{name}.cqes")
        self._ctr_drop_inbox = tele.counter(
            f"nic.{name}.rx.dropped_inbox")
        self._ctr_drop_no_desc = tele.counter(
            f"nic.{name}.rx.dropped_no_desc")
        self._ctr_drop_meter = tele.counter(f"nic.{name}.meter_drops")
        if tele.enabled:
            tele.register_probe(f"nic.{name}.rdma", self._rdma_probe)
        fabric.attach(self, link_config)
        # Inbound RDMA WRITEs DMA straight to the target fabric address.
        self.rdma.dma_write = (
            lambda va, data: self.fabric.post_write(
                self, va, data,
                trace_ctx=self.rdma.inbound_trace_ctx,
                trace_stage="pcie.dma_write"))
        # QP transport failures surface as error CQEs on the QP's send
        # CQ — the §5.3 path the kernel driver's recovery hook watches.
        self.rdma.on_qp_error = self._rdma_qp_error
        # The firmware command unit: object table + command executors.
        self.cmd = CommandUnit(self)

    # ------------------------------------------------------------------
    # Control interface (firmware commands)
    # ------------------------------------------------------------------

    def create_cq(self, ring_addr: int, entries: int) -> CompletionQueue:
        cq = CompletionQueue(self.sim, self._next_cqn, ring_addr, entries)
        self.cqs[cq.cqn] = cq
        self._next_cqn += 1
        return cq

    def create_sq(self, ring_addr: int, entries: int, cq: CompletionQueue,
                  vport: int = 0, transport: str = SendQueue.TRANSPORT_ETH,
                  meter: Optional[str] = None) -> SendQueue:
        sq = SendQueue(self.sim, self._next_qpn, ring_addr, entries, cq,
                       transport, vport)
        sq.meter = meter
        self.sqs[sq.qpn] = sq
        self._next_qpn += 1
        self._tx_flat[sq.qpn] = _SqFlatPipeline(self, sq)
        return sq

    def create_rq(self, ring_addr: int, entries: int, cq: CompletionQueue,
                  shared: bool = False) -> ReceiveQueue:
        rq = ReceiveQueue(self.sim, self._next_rqn, ring_addr, entries, cq,
                          shared)
        self._register_rq(rq)
        return rq

    def create_mprq(self, ring_addr: int, entries: int, cq: CompletionQueue,
                    strides_per_buffer: int = 64,
                    stride_size: int = 2048) -> MultiPacketReceiveQueue:
        rq = MultiPacketReceiveQueue(
            self.sim, self._next_rqn, ring_addr, entries, cq,
            strides_per_buffer, stride_size,
        )
        self._register_rq(rq)
        return rq

    def _register_rq(self, rq: ReceiveQueue) -> None:
        self.rqs[rq.rqn] = rq
        self._next_rqn += 1
        inbox = Store(self.sim, capacity=self.config.rx_inbox_depth,
                      name=f"{self.name}.rq{rq.rqn}.inbox")
        self._rx_inbox[rq.rqn] = inbox
        self._rx_flat[rq.rqn] = _RqFlatWorker(self, rq, inbox)

    def create_rc_qp(self, ring_addr: int, entries: int,
                     cq: CompletionQueue, rq: ReceiveQueue, vport: int,
                     local_mac, local_ip) -> RcQp:
        """Create an RC QP: an RDMA send queue bound to a receive queue."""
        sq = self.create_sq(ring_addr, entries, cq, vport,
                            transport=SendQueue.TRANSPORT_RC)
        qp = RcQp(sq.qpn, sq, rq, local_mac=local_mac, local_ip=local_ip)
        self.rdma.register_qp(qp)
        self._qp_by_sqn[sq.qpn] = qp
        return qp

    def set_vport_default_queue(self, vport: int, rq: ReceiveQueue) -> None:
        """Deliver a vPort's otherwise-unmatched traffic to ``rq``."""
        from .steering import ForwardToQueue
        if vport not in self.eswitch.vports:
            self.eswitch.add_vport(vport)
        table = self.steering.table(self.eswitch.vports[vport].rx_root)
        table.default_actions = [ForwardToQueue(rq)]

    def register_resume_table(self, table_name: str) -> int:
        """Register a steering table as an FLD-E resume target (§5.3).

        Returns the resume ID the accelerator must echo in the upper 16
        bits of its transmit context_id to continue pipeline processing
        at ``table_name``.
        """
        resume_id = self._next_resume_id
        self._next_resume_id += 1
        self._resume_tables[resume_id] = table_name
        return resume_id

    # -- teardown (driven by DESTROY commands) --------------------------

    def _poison(self, store: Store) -> None:
        """Push the poison sentinel, spilling to a process when full."""
        if not store.try_put(_POISON):
            def put():
                yield store.put(_POISON)
            self.sim.spawn(put(), name=f"{self.name}.poison")

    def destroy_cq(self, cq: CompletionQueue) -> None:
        self.cqs.pop(cq.cqn, None)
        # Unwind any dispatcher blocked on the notify channel.
        self._poison(cq.notify)

    def destroy_sq(self, sq: SendQueue) -> None:
        sq.destroyed = True
        self.sqs.pop(sq.qpn, None)
        self._tx_flat.pop(sq.qpn, None)
        sq.mmio_wqes.clear()
        self._poison(sq.doorbell)

    def destroy_rq(self, rq: ReceiveQueue) -> None:
        rq.destroyed = True
        self.rqs.pop(rq.rqn, None)
        self._rx_flat.pop(rq.rqn, None)
        inbox = self._rx_inbox.pop(rq.rqn, None)
        if inbox is not None:
            self._poison(inbox)
        for key in [k for k in self._cached_rx_desc if k[0] == rq.rqn]:
            del self._cached_rx_desc[key]

    def destroy_rc_qp(self, qp: RcQp) -> None:
        self.rdma.unregister_qp(qp.qpn)
        self._qp_by_sqn.pop(qp.sq.qpn, None)
        self.destroy_sq(qp.sq)

    def clear_vport_default_queue(self, vport: int) -> None:
        """Back to the vPort table's initial miss behaviour: drop."""
        if vport not in self.eswitch.vports:
            return
        table = self.steering.table(self.eswitch.vports[vport].rx_root)
        table.default_actions = [Drop()]

    def unregister_resume_table(self, resume_id: int) -> None:
        self._resume_tables.pop(resume_id, None)

    def remove_vport(self, number: int) -> None:
        self.eswitch.remove_vport(number)

    @property
    def steering(self) -> SteeringPipeline:
        return self.eswitch.pipeline

    # ------------------------------------------------------------------
    # PCIe BAR (doorbells + WQE-by-MMIO)
    # ------------------------------------------------------------------

    def handle_write(self, offset: int, data: bytes) -> None:
        if offset >= WQE_MMIO_BASE:
            qpn = (offset - WQE_MMIO_BASE) // WQE_MMIO_STRIDE
            sq = self.sqs.get(qpn)
            if sq is None:
                raise PcieError(f"{self.name}: MMIO WQE for unknown SQ {qpn}")
            wqe = TxWqe.unpack(data)
            # Re-attach the packet's trace context across the pack()
            # boundary: the MMIO write TLP carried it side-band.
            wqe.trace_ctx = self.fabric.inbound_trace_ctx()
            sq.push_mmio_wqe(wqe)
            sq.ring_doorbell(wqe.wqe_index + 1)
            return
        if offset >= RQ_DOORBELL_BASE:
            rqn = (offset - RQ_DOORBELL_BASE) // DOORBELL_STRIDE
            rq = self.rqs.get(rqn)
            if rq is None:
                raise PcieError(f"{self.name}: doorbell for unknown RQ {rqn}")
            new_pi = int.from_bytes(data[:4], "big")
            if new_pi > rq.pi:
                rq.post(new_pi - rq.pi)
            return
        if offset < DOORBELL_STRIDE:
            # The firmware command doorbell (qpn 0 is never allocated,
            # so the first stride belongs to the command interface).
            self.cmd.handle_doorbell(data)
            return
        qpn = offset // DOORBELL_STRIDE
        sq = self.sqs.get(qpn)
        if sq is None:
            raise PcieError(f"{self.name}: doorbell for unknown SQ {qpn}")
        sq.ring_doorbell(int.from_bytes(data[:4], "big"))

    def handle_read(self, offset: int, length: int) -> bytes:
        raise PcieError(f"{self.name}: BAR reads not supported")

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------

    def _resolve_eth(self, sq: SendQueue, wqe: TxWqe, data: bytes):
        """Steer one Ethernet WQE: parse, offload, segment and classify,
        returning ``[(disposition, vport), ...]`` without applying
        anything (the WQE's trace context rides each packet's meta).

        Rule lookups take no virtual time and only bump counters, so a
        fused caller can resolve at data-ready time and defer the effect
        to the pipeline's completion instant.
        """
        packet = parse_frame(data)
        if wqe.flags & (WQE_FLAG_CSUM_L3 | WQE_FLAG_CSUM_L4):
            self.checksum.fill(packet, l3=bool(wqe.flags & WQE_FLAG_CSUM_L3),
                               l4=bool(wqe.flags & WQE_FLAG_CSUM_L4))
        if wqe.flags & WQE_FLAG_LSO and wqe.mss:
            packets = self.lso.segment(packet, wqe.mss)
        else:
            packets = [packet]
        resume_id = wqe.context_id >> 16
        ctx = wqe.trace_ctx
        resolved = []
        for packet in packets:
            packet.meta["context_id"] = wqe.context_id & 0xFFFF
            if ctx is not None:
                packet.meta["trace_ctx"] = ctx
            if resume_id and resume_id in self._resume_tables:
                # FLD-E return path: resume steering mid-pipeline (§5.3).
                table = self._resume_tables[resume_id]
                resolved.append(
                    (self.steering.process(packet, table), None))
            else:
                resolved.append(
                    self.eswitch.egress_resolve(sq.vport, packet))
        return resolved

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def _pre_rx_hook(self, vport: VPort, packet: Packet) -> bool:
        """Transport interception: RoCE frames bypass guest steering."""
        if packet.find(Bth) is not None:
            return self.rdma.on_ingress(packet)
        return False

    def _deliver_disposition(self, vport: Optional[VPort],
                             disposition: Disposition) -> None:
        packet = disposition.packet
        for meter in disposition.meters:
            if not self.shaper.police(meter, packet.size() * 8):
                self.stats_meter_drops += 1
                self._ctr_drop_meter.inc()
                return
        if disposition.kind == Disposition.RSS:
            rq = disposition.target.select(packet)
        else:  # DELIVER or ACCELERATOR
            rq = disposition.target
        flags = self.checksum.validate(packet)
        context = disposition.context_id & 0xFFFF
        if disposition.kind == Disposition.ACCELERATOR and disposition.next_table:
            resume_id = self._resume_id_for(disposition.next_table)
            context |= resume_id << 16
        item = _RxItem(packet.to_bytes(), flags, context, rq.rqn,
                       packet.meta.get("rss_hash", 0),
                       trace_ctx=packet.meta.get("trace_ctx"),
                       enqueued=self.sim._now)
        inbox = self._rx_inbox.get(rq.rqn)
        if inbox is None or not inbox.try_put(item):
            self.stats_rx_dropped_inbox += 1
            self._ctr_drop_inbox.inc()

    def _resume_id_for(self, table_name: str) -> int:
        for resume_id, name in self._resume_tables.items():
            if name == table_name:
                return resume_id
        return self.register_resume_table(table_name)

    # ------------------------------------------------------------------
    # RDMA engine callbacks
    # ------------------------------------------------------------------

    def _rdma_egress(self, qp: RcQp, frame: Packet) -> None:
        self.eswitch.egress_from_vport(qp.sq.vport, frame)

    def _rdma_deliver(self, qp: RcQp, payload: bytes, flags: int,
                      context: int, first: bool, last: bool) -> None:
        # The deliver callback's signature is frozen (tests construct
        # plain 6-arg callables), so the engine exposes the delivered
        # segment's trace context as a transient attribute instead.
        item = _RxItem(payload, flags, context, qp.qpn,
                       trace_ctx=self.rdma.inbound_trace_ctx,
                       enqueued=self.sim._now)
        inbox = self._rx_inbox.get(qp.rq.rqn)
        if inbox is None or not inbox.try_put(item):
            self.stats_rx_dropped_inbox += 1
            self._ctr_drop_inbox.inc()

    def _rdma_qp_error(self, qp: RcQp, syndrome: int) -> None:
        """A QP dropped to ERR: post the error CQE software recovers from."""
        cqe = Cqe(CQE_ERROR, qp.qpn, 0, 0, syndrome=syndrome)
        self._post_cqe(qp.sq.cq, cqe)

    def _rdma_complete_send(self, qp: RcQp, wqe: TxWqe) -> None:
        if wqe.signaled:
            completion = Cqe(
                CQE_SEND_COMPLETION, qp.qpn, wqe.wqe_index, wqe.byte_count,
            )
            completion.trace_ctx = wqe.trace_ctx
            self._post_cqe(qp.sq.cq, completion)

    # ------------------------------------------------------------------
    # Completion writes
    # ------------------------------------------------------------------

    def _post_cqe(self, cq: CompletionQueue, cqe: Cqe) -> None:
        """Write ``cqe`` to its ring; the consumer sees it on arrival.

        A CQ with a fused consumer (``cq.fused_rx``) takes the write
        as a deferred handle and folds delivery into its own
        continuation; every other CQ is notified when the write lands.
        """
        self._ctr_cqes.inc()
        tracer = self._tracer
        if tracer.enabled:
            tracer.instant(f"nic.{self.name}", f"cq{cq.cqn}",
                           f"cqe:{cqe.opcode}", self.sim._now)
        fused = cq.fused_rx
        if fused is not None:
            fused(self.fabric.post_write_deferred(
                self, cq.next_slot(), cqe.pack(), trace_ctx=cqe.trace_ctx,
                trace_stage="pcie.cqe_write"), cqe)
            return
        self.fabric.post_write(self, cq.next_slot(), cqe.pack(),
                               trace_ctx=cqe.trace_ctx,
                               trace_stage="pcie.cqe_write",
                               on_done=partial(cq.notify.try_put, cqe))

    def _post_cqe_at(self, cq: CompletionQueue, cqe: Cqe,
                     when: float) -> None:
        """Post a CQE resolved ahead of time (fused tx stage).

        The write TLP arbitrates for the PCIe lane as if issued at
        ``when`` — same delivery instant, same notify callback as
        :meth:`_post_cqe` issued at ``when``, without the
        pipeline-occupancy event that posting would ride on.  Send
        completions never target a fused-rx CQ.
        """
        self._ctr_cqes.inc()
        tracer = self._tracer
        if tracer.enabled:
            tracer.instant(f"nic.{self.name}", f"cq{cq.cqn}",
                           f"cqe:{cqe.opcode}", when)
        self.fabric.post_write_at(self, cq.next_slot(), cqe.pack(), when,
                                  partial(cq.notify.try_put, cqe),
                                  trace_ctx=cqe.trace_ctx,
                                  trace_stage="pcie.cqe_write")

    # ------------------------------------------------------------------
    # Telemetry probes
    # ------------------------------------------------------------------

    def _rdma_probe(self) -> Dict[str, int]:
        """Sampled at export time only — zero cost on the datapath."""
        qps = list(self.rdma.qps.values())
        return {
            "qps": len(qps),
            "outstanding_segments": sum(len(q.outstanding) for q in qps),
            "write_protection_errors": sum(
                q.stats_write_protection_errors for q in qps),
        }


class _DataSlot:
    """Event-shaped holder for a DMA read's data on the flat tx path.

    Quacks like the completion Event the pipeline used to carry through
    the window (``_fired`` / ``value`` / ``add_callback``) but is filled
    by the fabric's ``on_done`` callback, so no Event is allocated and
    no scheduler state is touched — completion still lands at the exact
    instant the Event would have fired.
    """

    __slots__ = ("_fired", "value", "_callback")

    def __init__(self):
        self._fired = False
        self.value = None
        self._callback = None

    def _complete(self, data) -> None:
        self._fired = True
        self.value = data
        callback = self._callback
        if callback is not None:
            self._callback = None
            callback(self)

    def add_callback(self, callback) -> None:
        self._callback = callback


class _RqFlatWorker:
    """A receive queue's worker, written as flat continuations.

    Per packet:

    * one processing-delay event, owner-tagged with the queue's stage
      name (``<nic>.rq<n>``);
    * descriptor DMA reads resumed by their completion callbacks;
    * the data write's CQE chained through the fabric's ``on_done``
      callback.

    A traced packet records its ``nic.rx`` queue wait and service spans
    and rides its context on the data write and the CQE; the Chrome
    tracer gets one ``rx_packet`` record.  Neither changes a push.
    """

    __slots__ = ("nic", "rq", "inbox", "profile_tag", "_mprq", "_pend")

    def __init__(self, nic: Nic, rq: ReceiveQueue, inbox: Store):
        self.nic = nic
        self.rq = rq
        self.inbox = inbox
        self.profile_tag = f"{nic.name}.rq{rq.rqn}"
        self._mprq = isinstance(rq, MultiPacketReceiveQueue)
        self._pend = None
        # Arm via a zero-delay step: the worker must not observe
        # traffic (or unit tests poking handle_write) before the
        # simulation runs.
        nic.sim.schedule(0.0, self._next)

    def _next(self) -> None:
        """Pull the next inbox item, blocking (via a getter callback)
        when the inbox is empty — the loop head."""
        item = self.inbox.try_get()
        if item is None:
            self.inbox.get().add_callback(self._on_item)
            return
        self._begin(item)

    def _on_item(self, event) -> None:
        self._begin(event.value)

    def _begin(self, item) -> None:
        if item is _POISON or self.rq.destroyed:
            return
        nic = self.nic
        now = nic.sim._now
        item.started = now
        if item.trace_ctx is not None:
            nic._spans.record(item.trace_ctx, "nic.rx", item.enqueued, now,
                              kind="queue")
        nic.sim.call_later(nic.config.processing_delay, self._service, item)

    def _service(self, item: _RxItem) -> None:
        """The post-delay body: place the packet, fetch its descriptor
        (from cache or DMA), DMA the data and chain the CQE."""
        nic = self.nic
        rq = self.rq
        if self._mprq:
            placement = rq.place(len(item.data))
            if placement is None:
                nic.stats_rx_dropped_no_desc += 1
                nic._ctr_drop_no_desc.inc()
                self._next()
                return
            key = (rq.rqn, placement["desc_index"] % rq.entries)
            if (placement["stride_index"] == 0
                    or key not in nic._cached_rx_desc):
                self._pend = (item, key, placement)
                nic.fabric.read(
                    nic, rq.slot_addr(placement["desc_index"]),
                    RX_DESC_SIZE, on_done=self._mprq_desc_ready,
                )
                return
            self._mprq_finish(item, nic._cached_rx_desc[key], placement)
            return
        if rq.available == 0:
            rq.stats_drops_no_desc += 1
            nic.stats_rx_dropped_no_desc += 1
            nic._ctr_drop_no_desc.inc()
            self._next()
            return
        index = rq.ci
        rq.ci = index + 1
        rq.stats_packets += 1
        desc = nic._cached_rx_desc.pop((rq.rqn, index), None)
        if desc is None:
            # Prefetch a batch of descriptors: real NICs amortize the
            # descriptor DMA over a cacheline's worth.
            slot = index % rq.entries
            burst = max(1, min(nic.config.rx_desc_batch, rq.pi - index,
                               rq.entries - slot))
            self._pend = (item, index, burst)
            nic.fabric.read(
                nic, rq.slot_addr(index), burst * RX_DESC_SIZE,
                on_done=self._plain_desc_ready,
            )
            return
        self._plain_finish(item, index, desc)

    def _mprq_desc_ready(self, raw) -> None:
        item, key, placement = self._pend
        self._pend = None
        desc = RxDesc.unpack(raw)
        self.nic._cached_rx_desc[key] = desc
        self._mprq_finish(item, desc, placement)

    def _mprq_finish(self, item, desc, placement) -> None:
        address = (desc.buffer_addr
                   + placement["stride_index"] * self.rq.stride_size)
        self._complete(item, address, placement["desc_index"],
                       placement["stride_index"])

    def _plain_desc_ready(self, raw) -> None:
        item, index, burst = self._pend
        self._pend = None
        nic = self.nic
        rqn = self.rq.rqn
        for i, desc in enumerate(RxDesc.unpack_many(raw, burst)):
            nic._cached_rx_desc[(rqn, index + i)] = desc
        self._plain_finish(item, index,
                           nic._cached_rx_desc.pop((rqn, index)))

    def _plain_finish(self, item, index, desc) -> None:
        nic = self.nic
        if len(item.data) > desc.byte_count:
            nic.stats_rx_dropped_no_desc += 1
            nic._ctr_drop_no_desc.inc()
            self._next()
            return
        self._complete(item, desc.buffer_addr, index, 0)

    def _complete(self, item, address, wqe_counter, stride_index) -> None:
        nic = self.nic
        nic._ctr_rx_packets.inc()
        nic._ctr_rx_bytes.inc(len(item.data))
        cqe = Cqe(
            CQE_RECV_COMPLETION, item.qpn, wqe_counter, len(item.data),
            flags=item.flags, rss_hash=item.rss_hash,
            flow_tag=item.context_id, stride_index=stride_index,
        )
        ctx = item.trace_ctx
        if ctx is not None:
            cqe.trace_ctx = ctx
            nic._spans.record(ctx, "nic.rx", item.started, nic.sim._now)
        # The CQE is ordered after the data write (PCIe posted-write
        # ordering); on_done fires at the write's delivery instant.
        nic.fabric.post_write(nic, address, item.data, trace_ctx=ctx,
                              trace_stage="pcie.dma_write",
                              on_done=partial(nic._post_cqe, self.rq.cq, cqe))
        tracer = nic._tracer
        if tracer.enabled:
            tracer.complete(f"nic.{nic.name}", f"rq{self.rq.rqn}",
                            "rx_packet", item.started, nic.sim._now,
                            {"bytes": len(item.data)})
        self._next()


class _SqFlatPipeline:
    """A send queue's two-stage pipeline (fetch + transmit), written as
    flat continuations.

    * The fetch stage drains doorbells iteratively, pulling WQEs
      (batched DMA reads for ring-mode queues) and launching each data
      DMA read back-to-back, so PCIe round trips overlap.  It pauses
      only on a WQE fetch or a full window, resumed by the read's /
      put's completion callback.
    * The transmit stage pulls the window in order and waits for the
      data DMA via its callback.  Then each WQE takes one of two arms,
      chosen from the queue's state:

      - *fused* (Ethernet transport, no active limiter on the queue's
        meter): steering resolves when the data lands; wire
        reservations and the signaled CQE are keyed at the stage's
        virtual completion instant ``stage_free`` (the reference
        schedule), so a WQE costs no pacing event.  Popping the next
        WQE early must not release a backpressured fetch stage ahead of
        schedule, so the window slot stays held until ``stage_free``.
      - *reference* (RC transport, or a live limiter): the stage
        realigns to ``stage_free``, occupies the processing delay,
        paces through the shaper and then transmits (segment by segment
        on RC) — each wait one ``call_later`` continuation.

    Both arms record the same spans (``nic.tx`` queue wait and service,
    ``nic.shaper``) and Chrome-tracer ``wqe`` records, at the instants
    the reference schedule defines; recording never adds a push.

    The window Store carries the fetch stage's profiler tag so
    hold-expiry wakes it schedules attribute to the fetch stage; the
    pipeline object itself carries the tx stage's tag for its own
    deferred continuations.
    """

    __slots__ = ("nic", "sq", "window", "profile_tag", "stage_free",
                 "_rc", "_wqe_batch", "_fetch_pend", "_tx_pend")

    def __init__(self, nic: Nic, sq: SendQueue):
        self.nic = nic
        self.sq = sq
        window = Store(nic.sim, capacity=nic.config.dma_window,
                       name=f"{nic.name}.sq{sq.qpn}.pipe")
        window.profile_tag = f"{nic.name}.sq{sq.qpn}"
        self.window = window
        self.profile_tag = f"{nic.name}.sq{sq.qpn}.tx"
        self.stage_free = 0.0
        self._rc = sq.transport == SendQueue.TRANSPORT_RC
        self._wqe_batch: Dict[int, TxWqe] = {}
        self._fetch_pend = None
        self._tx_pend = None
        # Start via a zero-delay step, which arms the transmit stage
        # with a second one before the fetch stage blocks on the
        # doorbell.
        nic.sim.schedule(0.0, self._start)

    # -- fetch stage ---------------------------------------------------

    def _start(self) -> None:
        self.nic.sim.schedule(0.0, self._pull)
        self._fetch_idle()

    def _fetch_idle(self) -> None:
        """Consume doorbells until one pauses the drain or none remain."""
        doorbell = self.sq.doorbell
        while True:
            rung = doorbell.try_get()
            if rung is None:
                doorbell.get().add_callback(self._on_doorbell)
                return
            if rung is _POISON or self.sq.destroyed:
                # Propagate teardown to the tx stage; no re-arm.
                self.window.put(_POISON)
                return
            if not self._drain():
                return

    def _on_doorbell(self, event) -> None:
        rung = event.value
        if rung is _POISON or self.sq.destroyed:
            self.window.put(_POISON)
            return
        if self._drain():
            self._fetch_idle()

    def _drain(self) -> bool:
        """Push WQEs up to the rung PI; False when paused on a wait."""
        nic = self.nic
        sq = self.sq
        batch = self._wqe_batch
        while sq.ci < sq.pi:
            index = sq.ci
            sq.ci = index + 1
            wqe = sq.mmio_wqes.pop(index & 0xFFFF, None)
            if wqe is None:
                wqe = batch.pop(index, None)
            if wqe is None:
                # Fetch a contiguous batch (bounded by the ring edge).
                slot = index % sq.entries
                burst = min(nic.config.wqe_fetch_batch, sq.pi - index,
                            sq.entries - slot)
                self._fetch_pend = (index, burst, nic.sim._now)
                nic.fabric.read(
                    nic, sq.slot_addr(index), burst * WQE_SIZE,
                    on_done=self._wqes_ready,
                )
                return False
            if not self._push(index, wqe):
                return False
        return True

    def _wqes_ready(self, raw) -> None:
        index, burst, fetch_started = self._fetch_pend
        self._fetch_pend = None
        nic = self.nic
        sq = self.sq
        sq.stats_wqe_fetches += burst
        batch = self._wqe_batch
        spans = nic._spans
        for i, fetched in enumerate(TxWqe.unpack_many(raw, burst)):
            if spans.enabled:
                # Ring-mode WQEs lose their context at pack time; the
                # producer stashed it under the (nic, qpn, index) it
                # rang for.
                fetched.trace_ctx = spans.claim(
                    ("wqe", nic.name, sq.qpn, index + i))
                spans.record(fetched.trace_ctx, "pcie.wqe_fetch",
                             fetch_started, nic.sim._now)
            batch[index + i] = fetched
        if self._push(index, batch.pop(index)) and self._drain():
            self._fetch_idle()

    def _push(self, index: int, wqe: TxWqe) -> bool:
        """Launch the data DMA and queue the WQE on the window; False
        when the window is full (the put's event resumes the drain)."""
        nic = self.nic
        if wqe.byte_count > 0:
            data_event = _DataSlot()
            nic.fabric.read(nic, wqe.buffer_addr, wqe.byte_count,
                            trace_ctx=wqe.trace_ctx,
                            trace_stage="pcie.dma_read",
                            on_done=data_event._complete)
        else:
            data_event = None
        event = self.window.put((index, wqe, data_event, nic.sim._now))
        if event._fired:
            return True
        event.add_callback(self._put_admitted)
        return False

    def _put_admitted(self, _event) -> None:
        if self._drain():
            self._fetch_idle()

    # -- transmit stage ------------------------------------------------

    def _pull(self) -> None:
        """Consume window items in order — the stage's loop head, with
        the slot-hold discipline of the fused arm."""
        window = self.window
        sim = self.nic.sim
        while True:
            held = bool(window._items) and self.stage_free > sim._now
            if held:
                window.hold_slot(self.stage_free)
            item = window.try_get()
            if item is None:
                window.get().add_callback(self._handover)
                return
            if item is _POISON:
                return
            if not self._tx_begin(item):
                return

    def _handover(self, event) -> None:
        # Handed over while get-blocked, before the reference would
        # even be polling: the item would have sat in the window
        # (occupying its slot) until then.
        if self.nic.sim._now < self.stage_free:
            self.window.hold_slot(self.stage_free)
        item = event.value
        if item is _POISON:
            return
        if self._tx_begin(item):
            self._pull()

    def _tx_begin(self, item) -> bool:
        index, wqe, data_event, enqueued = item
        # The instant the reference stage would take the WQE up: never
        # before the previous WQE's completion.
        now = self.nic.sim._now
        started = now if now > self.stage_free else self.stage_free
        if wqe.trace_ctx is not None:
            self.nic._spans.record(wqe.trace_ctx, "nic.tx", enqueued,
                                   started, kind="queue")
        if data_event is None:
            return self._tx_send(index, wqe, b"", started)
        if data_event._fired:
            return self._tx_send(index, wqe, data_event.value, started)
        self._tx_pend = (index, wqe, started)
        data_event.add_callback(self._data_ready)
        return False

    def _data_ready(self, event) -> None:
        index, wqe, started = self._tx_pend
        self._tx_pend = None
        if self._tx_send(index, wqe, event.value, started):
            self._pull()

    def _tx_send(self, index: int, wqe: TxWqe, data: bytes,
                 started: float) -> bool:
        """The fused transmit arm; False when the WQE continues in a
        later event (reference arm, or a local disposition)."""
        nic = self.nic
        sq = self.sq
        meter = sq.meter
        if self._rc or (meter is not None
                        and nic.shaper.has_limiter(meter)):
            self._ref_begin([index, wqe, data, started, 0.0])
            return False
        sim = nic.sim
        sq.stats_wqes += 1
        nic._ctr_tx_wqes.inc()
        nic._ctr_tx_bytes.inc(len(data))
        now = sim._now
        stage_free = self.stage_free
        service = now if now > stage_free else stage_free
        done = service + nic.config.processing_delay
        self.stage_free = done
        resolved = nic._resolve_eth(sq, wqe, data)
        eswitch = nic.eswitch
        if all(d.kind == Disposition.UPLINK for d, _v in resolved):
            for d, vport in resolved:
                eswitch.apply_at(d, vport, done)
            if wqe.signaled:
                completion = Cqe(CQE_SEND_COMPLETION, sq.qpn, index,
                                 wqe.byte_count)
                completion.trace_ctx = wqe.trace_ctx
                nic._post_cqe_at(sq.cq, completion, done)
            if wqe.trace_ctx is not None or nic._tracer.enabled:
                self._tx_record(index, wqe, started, service, done)
            return True
        # Local dispositions (loopback, queue delivery, drops) can race
        # receive-side state at the completion instant: realign and
        # apply synchronously, like the reference.
        entry = (resolved, wqe, index, started, service)
        if done > now:
            sim.call_later(done - now, self._apply_local_cont, entry)
            return False
        self._apply_local(entry)
        return True

    def _apply_local_cont(self, entry) -> None:
        self._apply_local(entry)
        self._pull()

    def _apply_local(self, entry) -> None:
        resolved, wqe, index, started, service = entry
        nic = self.nic
        eswitch = nic.eswitch
        for d, vport in resolved:
            eswitch._apply_fdb(d, from_vport=vport)
        if wqe.signaled:
            completion = Cqe(CQE_SEND_COMPLETION, self.sq.qpn, index,
                             wqe.byte_count)
            completion.trace_ctx = wqe.trace_ctx
            nic._post_cqe(self.sq.cq, completion)
        if wqe.trace_ctx is not None or nic._tracer.enabled:
            self._tx_record(index, wqe, started, service, nic.sim._now)

    def _tx_record(self, index: int, wqe: TxWqe, started: float,
                   service: float, done: float) -> None:
        """A WQE's ``nic.tx`` service span and Chrome ``wqe`` record."""
        nic = self.nic
        nic._spans.record(wqe.trace_ctx, "nic.tx", service, done)
        tracer = nic._tracer
        if tracer.enabled:
            tracer.complete(f"nic.{nic.name}", f"sq{self.sq.qpn}", "wqe",
                            started, done,
                            {"index": index, "bytes": wqe.byte_count})

    # -- reference arm (RC transport, shaped queues) -------------------
    #
    # ``entry`` is ``[index, wqe, data, started, service_started]``.

    def _ref_begin(self, entry) -> None:
        """Realign to the previous WQE's completion, if it lies ahead."""
        sim = self.nic.sim
        pause = self.stage_free - sim._now
        if pause > 0:
            sim.call_later(pause, self._ref_service, entry)
            return
        self._ref_service(entry)

    def _ref_service(self, entry) -> None:
        nic = self.nic
        entry[4] = nic.sim._now
        nic.sim.call_later(nic.config.processing_delay, self._ref_serviced,
                           entry)

    def _ref_serviced(self, entry) -> None:
        """Pipeline occupancy elapsed: count the WQE, then pace it
        through the queue's limiter if one is live."""
        nic = self.nic
        sq = self.sq
        sim = nic.sim
        bits = len(entry[2]) * 8
        sq.stats_wqes += 1
        nic._ctr_tx_wqes.inc()
        nic._ctr_tx_bytes.inc(len(entry[2]))
        meter = sq.meter
        if meter is not None and nic.shaper.has_limiter(meter):
            delay = nic.shaper.delay_for(meter, bits)
            if delay > 0:
                now = sim._now
                ctx = entry[1].trace_ctx
                if ctx is not None:
                    nic._spans.record(ctx, "nic.shaper", now, now + delay,
                                      kind="queue")
                prof = nic._prof
                if prof is None:
                    sim.call_later(delay, self._ref_shaped, entry)
                else:
                    # The pacing wait is shaper work, not queue work: a
                    # partial carries no owner tag, so the entry takes
                    # the tag current at the push.
                    prev = prof.current_tag
                    prof.current_tag = f"{nic.name}.shaper"
                    sim.call_later(delay, partial(self._ref_shaped), entry)
                    prof.current_tag = prev
                return
            nic.shaper.consume(meter, bits)
        self._ref_transmit(entry)

    def _ref_shaped(self, entry) -> None:
        self.nic.shaper.consume(self.sq.meter, len(entry[2]) * 8)
        self._ref_transmit(entry)

    def _ref_transmit(self, entry) -> None:
        index, wqe, data = entry[0], entry[1], entry[2]
        nic = self.nic
        sq = self.sq
        if self._rc:
            qp = nic._qp_by_sqn.get(sq.qpn)
            if qp is None or qp.state != RcQp.READY:
                # The QP dropped to ERR (or is being torn down): queued
                # WQEs are flushed, not sent (verbs flush semantics) —
                # software recovers via the command channel.
                sq.stats_flushed += 1
            else:
                # The send CQE arrives later, on the remote ack.
                nic.rdma.start_message(
                    qp, wqe, data, remote_addr=wqe.remote_addr,
                    rkey=wqe.rkey, on_done=partial(self._ref_done, entry))
                return
        else:
            eswitch = nic.eswitch
            for d, vport in nic._resolve_eth(sq, wqe, data):
                eswitch._apply_fdb(d, from_vport=vport)
            if wqe.signaled:
                completion = Cqe(CQE_SEND_COMPLETION, sq.qpn, index,
                                 wqe.byte_count)
                completion.trace_ctx = wqe.trace_ctx
                nic._post_cqe(sq.cq, completion)
        self._ref_done(entry)

    def _ref_done(self, entry) -> None:
        now = self.nic.sim._now
        wqe = entry[1]
        if wqe.trace_ctx is not None or self.nic._tracer.enabled:
            self._tx_record(entry[0], wqe, entry[3], entry[4], now)
        self.stage_free = now
        self._pull()
