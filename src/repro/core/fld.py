"""FlexDriver top level: the on-accelerator NIC data-plane driver (§5).

One :class:`FlexDriver` is a PCIe endpoint exposing the BAR of
:mod:`repro.core.bar`; it composes the Tx and Rx ring managers, the
accelerator-facing streams, the credit interface and the error channel.

Data flow:

* **transmit** — the accelerator calls :meth:`send` (credits permitting);
  the Tx manager buffers the payload on-die and rings the NIC; the NIC's
  PCIe reads of descriptors and data arrive at :meth:`handle_read` and are
  answered from compressed state on the fly.
* **receive** — the NIC DMA-writes packet data and CQEs into the BAR
  (:meth:`handle_write`); FLD decodes the CQE, streams the packet with
  metadata to the accelerator after its pipeline latency, and recycles
  buffers/descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from ..nic.wqe import (
    CQE_ERROR,
    CQE_RECV_COMPLETION,
    CQE_SEND_COMPLETION,
    CQE_SIZE,
    Cqe,
    OP_ETH_SEND,
)
from ..pcie import PcieEndpoint, PcieError
from ..sim import Simulator
from . import bar
from .axis import AxisMetadata, AxisStream
from .buffers import BufferPool
from .descriptors import COMPRESSED_CQE_SIZE, CompressedCqe
from .errors import ErrorReporter, FldError
from .rx import RxRingManager
from .tx import TxRingManager


@dataclass
class FldConfig:
    """FLD sizing, defaulting to the prototype of §6: two transmit
    queues, 256 KiB transmit and receive buffers, a 4096-entry shared
    descriptor pool, logic at 250 MHz."""

    tx_buffer_bytes: int = 256 * 1024
    rx_buffer_bytes: int = 256 * 1024
    chunk_size: int = 256
    descriptor_pool_size: int = 4096
    clock_hz: float = 250e6
    # End-to-end latency through FLD's internal pipeline, each direction
    # (~50 FPGA cycles of decode/steering/SRAM access).
    pipeline_latency: float = 200e-9
    rx_stream_depth: int = 256
    cq_entries: int = 1024          # per completion ring, for accounting

    def cycles(self, count: float) -> float:
        return count / self.clock_hz


class FlexDriver(PcieEndpoint):
    """The FLD hardware module."""

    # CQ index space: transmit CQs at 0..15, receive CQs at 16+.
    RX_CQ_BASE = 16

    def __init__(self, sim: Simulator, fabric, name: str = "fld",
                 config: Optional[FldConfig] = None, bar_base: int = 0,
                 link_config=None):
        super().__init__(name)
        self.sim = sim
        self.config = config or FldConfig()
        self.bar_base = bar_base
        fabric.attach(self, link_config)
        tx_pool = BufferPool(self.config.tx_buffer_bytes,
                             self.config.chunk_size, name=f"{name}.txpool")
        self.tx = TxRingManager(
            sim, tx_pool, self.config.descriptor_pool_size,
            mmio_writer=self._mmio_write, bar_base=bar_base,
        )
        self.rx = RxRingManager(
            sim, self.config.rx_buffer_bytes,
            mmio_writer=self._mmio_write, emit=self._emit_rx,
        )
        self.rx_stream = AxisStream(sim, f"{name}.rx_stream",
                                    depth=self.config.rx_stream_depth)
        self.errors = ErrorReporter(sim)
        # cq index -> ("tx", _) or ("rx", binding_id)
        self._cq_route: Dict[int, Tuple[str, int]] = {}
        # Match-action layer (repro.prog): the engine is created lazily
        # at first program attach — an FLD that never loads a program
        # never pays for one.  vport_tx_routes maps an eswitch vPort to
        # the tx queue bound for it, resolving redirect verdicts.
        self.prog = None
        self.vport_tx_routes: Dict[int, int] = {}
        # Chunks promised to sends that passed the resource check but
        # whose pipeline-latency submission has not landed yet.
        self._pending_chunks = 0
        self.stats_cqe_writes = 0
        self.stats_tx_packets = 0
        self.stats_tx_bytes = 0
        # Counters are no-op singletons when telemetry is disabled;
        # probes are sampled only at export time (§5.2's translation
        # tables and pools cost nothing to watch).
        tele = sim.telemetry
        self._tracer = tele.tracer
        self._spans = tele.spans
        # Profiler stage tags: the tx and rx engines account separately.
        # Inbound fabric deliveries (rx-buffer DMA, CQEs) default to the
        # rx engine; handle_read and the tx-CQE route refine to tx.
        prof = sim.profiler
        self._prof = prof if prof.enabled else None
        self._ptag_tx = f"{name}.tx"
        self._ptag_rx = f"{name}.rx"
        self.profile_tag = self._ptag_rx
        prof.declare(self._ptag_tx, "fld.tx")
        prof.declare(self._ptag_rx, "fld.rx")
        self._ctr_tx_packets = tele.counter(f"fld.{name}.tx.packets")
        self._ctr_tx_bytes = tele.counter(f"fld.{name}.tx.bytes")
        self._ctr_cqe_writes = tele.counter(f"fld.{name}.cqe_writes")
        self._ctr_rx_stream = tele.counter(f"fld.{name}.rx.stream_pushes")
        if tele.enabled:
            tele.register_probe(f"fld.{name}.xlt.descriptors",
                                self.tx.descriptors.cuckoo_stats)
            tele.register_probe(f"fld.{name}.xlt.data",
                                self.tx.data_xlt.cuckoo_stats)
            tele.register_probe(f"fld.{name}.tx", lambda: {
                "wqe_reads": self.tx.stats_wqe_reads,
                "data_read_bytes": self.tx.stats_data_read_bytes,
                "free_chunks": self.tx.buffers.free_chunks,
                "free_descriptor_slots": self.tx.descriptors.free_slots,
            })
            tele.register_probe(f"fld.{name}.rx", lambda: {
                "cqes": self.rx.stats_cqes,
                "sram_writes": self.rx.stats_sram_writes,
            })

    # ------------------------------------------------------------------
    # Configuration (called by the FLD runtime library, §5.3)
    # ------------------------------------------------------------------

    def bind_tx_queue(self, queue_id: int, qpn: int, entries: int,
                      doorbell_addr: int, mmio_addr: int, cq_index: int,
                      use_mmio: bool = True, opcode: int = OP_ETH_SEND,
                      credits: Optional[int] = None,
                      vport: Optional[int] = None) -> None:
        self.tx.add_queue(queue_id, qpn, entries, doorbell_addr, mmio_addr,
                          use_mmio=use_mmio, credits=credits, opcode=opcode)
        self._cq_route[cq_index] = ("tx", queue_id)
        if vport is not None:
            self.vport_tx_routes[vport] = queue_id

    def bind_rx_queue(self, binding_id: int, cq_index: int,
                      ring_entries: int, strides_per_buffer: int,
                      stride_size: int, rq_doorbell_addr: int) -> int:
        """Returns the BAR offset of the binding's buffer slice."""
        offset = self.rx.add_binding(
            binding_id, ring_entries, strides_per_buffer, stride_size,
            rq_doorbell_addr,
        )
        self._cq_route[cq_index] = ("rx", binding_id)
        return bar.RX_BUFFER_REGION + offset

    def unbind_tx_queue(self, queue_id: int) -> None:
        """Tear down a tx queue binding and its CQE route."""
        self.tx.remove_queue(queue_id)
        for cq_index, route in list(self._cq_route.items()):
            if route == ("tx", queue_id):
                del self._cq_route[cq_index]
        for vport, routed in list(self.vport_tx_routes.items()):
            if routed == queue_id:
                del self.vport_tx_routes[vport]

    def prog_engine(self):
        """The match-action engine, created on first use (firmware-only)."""
        if self.prog is None:
            from ..prog.engine import ProgEngine
            self.prog = ProgEngine(self)
        return self.prog

    def unbind_rx_queue(self, binding_id: int) -> None:
        """Tear down an rx binding, releasing its SRAM slice."""
        self.rx.remove_binding(binding_id)
        for cq_index, route in list(self._cq_route.items()):
            if route == ("rx", binding_id):
                del self._cq_route[cq_index]

    # ------------------------------------------------------------------
    # Accelerator-facing interface (§5.5)
    # ------------------------------------------------------------------

    def try_send(self, data: bytes, meta: AxisMetadata) -> bool:
        """Non-blocking transmit; False when the queue has no credit.

        Drop-capable accelerators use this directly (§5.5 lets them shed
        load); others use :meth:`send` to wait for credit.
        """
        needed = self.tx.buffers.chunks_for(len(data))
        if not self.tx.can_submit(meta.queue_id, len(data)):
            return False
        if (self.tx.buffers.free_chunks - self._pending_chunks < needed
                or self.tx.descriptors.free_slots <= self._pending_chunks):
            return False
        self._submit(data, meta)
        return True

    def send(self, data: bytes, meta: AxisMetadata):
        """Generator: wait for a credit, then transmit.

        The caller is held only for the pipeline's *occupancy* (the
        datapath is 512 bits wide at the FLD clock, §9's 100 Gbps
        figure); the pipeline *latency* to the doorbell is modelled
        without blocking, so back-to-back sends stream at line rate.
        """
        wait_started = self.sim._now
        yield self.tx.credits.acquire(meta.queue_id)
        needed = self.tx.buffers.chunks_for(len(data))
        while not (
            self.tx.buffers.free_chunks - self._pending_chunks >= needed
            and self.tx.descriptors.free_slots > self._pending_chunks
        ):
            yield self.sim.timeout(self.config.cycles(16))
        if meta.trace_ctx is not None and self.sim._now > wait_started:
            self._spans.record(meta.trace_ctx, "fld.tx", wait_started,
                               self.sim._now, kind="queue")
        service_started = self.sim._now
        self._pending_chunks += needed
        yield self.sim.timeout(self.config.cycles(max(1, len(data) // 64)))
        prof = self._prof
        if prof is None:
            self.sim.schedule(
                self.config.pipeline_latency,
                lambda: self._submit_now(data, meta, needed, service_started),
            )
        else:
            # The pipeline-latency hop is tx-engine work even though the
            # accelerator's process is the one scheduling it.
            prev = prof.current_tag
            prof.current_tag = self._ptag_tx
            self.sim.schedule(
                self.config.pipeline_latency,
                lambda: self._submit_now(data, meta, needed, service_started),
            )
            prof.current_tag = prev

    def _submit(self, data: bytes, meta: AxisMetadata) -> None:
        self.tx.credits.try_consume(meta.queue_id, 1)
        self._pending_chunks += self.tx.buffers.chunks_for(len(data))
        started = self.sim._now
        prof = self._prof
        prev = None
        if prof is not None:
            prev = prof.current_tag
            prof.current_tag = self._ptag_tx
        self.sim.schedule(
            self.config.pipeline_latency,
            lambda: self._submit_now(
                data, meta, self.tx.buffers.chunks_for(len(data)), started),
        )
        if prof is not None:
            prof.current_tag = prev

    def _submit_now(self, data: bytes, meta: AxisMetadata,
                    reserved_chunks: int = 0,
                    trace_started: Optional[float] = None) -> None:
        self._pending_chunks -= reserved_chunks
        if trace_started is not None and meta.trace_ctx is not None:
            self._spans.record(meta.trace_ctx, "fld.tx", trace_started,
                               self.sim._now)
        if self.tx.submit(meta.queue_id, data, meta) is None:
            return  # an egress program dropped it; credit already refunded
        self.stats_tx_packets += 1
        self.stats_tx_bytes += len(data)
        self._ctr_tx_packets.inc()
        self._ctr_tx_bytes.inc(len(data))
        tracer = self._tracer
        if tracer.enabled:
            tracer.instant(f"fld.{self.name}", f"txq{meta.queue_id}",
                           "submit", self.sim._now, {"bytes": len(data)})

    def credits_available(self, queue_id: int) -> int:
        return self.tx.credits.available(queue_id)

    # ------------------------------------------------------------------
    # PCIe BAR handlers
    # ------------------------------------------------------------------

    def handle_read(self, offset: int, length: int) -> bytes:
        prof = self._prof
        if prof is not None:
            # Ring/data reads are the NIC DMAing from the tx engine.
            prof.current_tag = self._ptag_tx
        region = bar.decode(offset)
        if region.region == "tx_ring":
            return self.tx.handle_ring_read(region.queue, region.offset,
                                            length)
        if region.region == "tx_data":
            return self.tx.handle_data_read(region.queue, region.offset,
                                            length)
        raise PcieError(f"{self.name}: unreadable region {region!r}")

    def handle_write(self, offset: int, data: bytes) -> None:
        region = bar.decode(offset)
        if region.region == "rx_buffer":
            self.rx.handle_buffer_write(region.offset, data)
            return
        if region.region == "cq":
            self._on_cqe_write(region.queue, data)
            return
        if region.region == "pi":
            return  # producer-index mirror writes: accepted, uninterpreted
        raise PcieError(f"{self.name}: unwritable region {region!r}")

    def install_rx_fastpath(self, cq, cq_index: int) -> None:
        """Fuse the NIC's rx-CQE delivery with the rx pipeline hop.

        The CQE's PCIe arrival event and the rx engine's
        pipeline-latency push collapse into one: the CQE is decoded at
        issue time (the packet data's write has already delivered — the
        NIC posts the CQE from that write's completion callback, so the
        receive SRAM holds the bytes), a single event at arrival +
        pipeline latency pushes the packet onto the stream, and — when
        a buffer closes — recycle doorbells issue from one continuation
        at the CQE's arrival instant, exactly as the reference delivery
        would issue them.  The CQE's trace context rides the handle.
        """
        cq.fused_rx = partial(self._rx_cqe_fused, cq_index)

    def _rx_cqe_fused(self, cq_index: int, handle, cqe) -> None:
        route = self._cq_route.get(cq_index)
        if (route is None or route[0] != "rx"
                or cqe.opcode != CQE_RECV_COMPLETION
                or self.rx.prog_hook is not None):
            # Rare/slow cases (unbound ring, error CQEs, match-action
            # programs, whose hook reads the arrival time): replay the
            # reference delivery in its own event at the write's
            # arrival.
            self.sim.call_later(handle.delivery - self.sim._now,
                                self._rx_cqe_arrive, handle)
            return
        self.stats_cqe_writes += 1
        self._ctr_cqe_writes.inc()
        recycles: list = []
        self.rx.deliver(
            route[1], CompressedCqe.compress(cqe), cqe.trace_ctx,
            partial(self._emit_rx_fused, handle),
            lambda addr, payload: recycles.append((addr, payload)))
        if recycles:
            # Recycle doorbells must be *issued* at the CQE's arrival
            # instant, not merely keyed there: an early reservation
            # carries an early sequence number, which reorders
            # same-instant ties on the NIC side (observable when the
            # receive inbox is dropping).  Buffers close on a fraction
            # of CQEs under MPRQ, so this event is the exception, not
            # the per-packet cost.
            self.sim.call_later(handle.delivery - self.sim._now,
                                partial(self._recycle_at_arrival, handle,
                                        recycles), None)

    def _recycle_at_arrival(self, handle, recycles, _arg) -> None:
        sim = self.sim
        if handle.delivery > sim._now:
            # Shared-lane arbitration repaired the CQE's arrival after
            # this continuation was scheduled; fire again on time.
            sim.call_later(handle.delivery - sim._now,
                           partial(self._recycle_at_arrival, handle,
                                   recycles), None)
            return
        for addr, payload in recycles:
            self.fabric.post_write(self, addr, payload,
                                   trace_ctx=self.tx.outbound_trace_ctx,
                                   trace_stage="pcie.doorbell")

    def _rx_cqe_arrive(self, handle) -> None:
        """Fallback continuation: deliver a deferred CQE write exactly
        as the fabric's own event would have."""
        sim = self.sim
        if handle.delivery > sim._now:
            sim.call_later(handle.delivery - sim._now, self._rx_cqe_arrive,
                           handle)
            return
        handle.commit()

    def _emit_rx_fused(self, handle, data: bytes, meta: AxisMetadata) -> None:
        self._ctr_rx_stream.inc()
        sim = self.sim
        done = handle.delivery + self.config.pipeline_latency
        sim.call_later(done - sim._now, self._rx_push_fused,
                       (handle, data, meta))

    def _rx_push_fused(self, entry) -> None:
        handle, data, meta = entry
        sim = self.sim
        done = handle.delivery + self.config.pipeline_latency
        if done > sim._now:
            # Shared-lane arbitration repaired the CQE's arrival after
            # this continuation was scheduled; fire again on time.
            sim.call_later(done - sim._now, self._rx_push_fused, entry)
            return
        handle.retire()
        ctx = meta.trace_ctx
        if ctx is not None:
            self._spans.record(ctx, "fld.rx", handle.delivery, sim._now)
            meta.trace_enqueued = sim._now
        self.rx_stream.push(data, meta)

    def _on_cqe_write(self, cq_index: int, data: bytes) -> None:
        if len(data) < CQE_SIZE:
            raise PcieError(f"{self.name}: short CQE write ({len(data)} B)")
        self.stats_cqe_writes += 1
        self._ctr_cqe_writes.inc()
        # Claim the trace context riding the CQE's write TLP — the 64 B
        # on the wire carry no room for it (object identity dies at the
        # byte boundary).
        trace_ctx = self.fabric.inbound_trace_ctx()
        cqe = Cqe.unpack(data)
        compressed = CompressedCqe.compress(cqe)
        route = self._cq_route.get(cq_index)
        if route is None:
            self.errors.report(FldError.CQE_ERROR, cq_index,
                               detail="CQE on unbound completion ring")
            return
        if cqe.opcode == CQE_ERROR:
            self.errors.report(FldError.CQE_ERROR, cq_index, cqe.syndrome)
            return
        kind, binding = route
        if kind == "tx":
            prof = self._prof
            if prof is not None:
                prof.current_tag = self._ptag_tx
            if cqe.opcode == CQE_SEND_COMPLETION:
                self.tx.on_send_completion(cqe.qpn, cqe.wqe_counter)
        else:
            if cqe.opcode == CQE_RECV_COMPLETION:
                self.rx.on_recv_completion(binding, compressed,
                                           trace_ctx=trace_ctx)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _mmio_write(self, address: int, data: bytes) -> None:
        # The tx manager parks the submission's trace context out-of-band
        # (the writer signature is frozen); rx recycle doorbells leave it
        # None and go untraced.
        self.fabric.post_write(self, address, data,
                               trace_ctx=self.tx.outbound_trace_ctx,
                               trace_stage="pcie.doorbell")

    def _emit_rx(self, data: bytes, meta: AxisMetadata) -> None:
        self._ctr_rx_stream.inc()
        if meta.trace_ctx is not None:
            started = self.sim._now

            def push(ctx=meta.trace_ctx):
                self._spans.record(ctx, "fld.rx", started, self.sim._now)
                meta.trace_enqueued = self.sim._now
                self.rx_stream.push(data, meta)

            self.sim.schedule(self.config.pipeline_latency, push)
        else:
            self.sim.schedule(
                self.config.pipeline_latency,
                lambda: self.rx_stream.push(data, meta),
            )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def on_die_memory(self) -> Dict[str, int]:
        """Bytes of on-die SRAM in use, by component (cf. Table 3)."""
        memory = {}
        memory.update(self.tx.memory_bytes())
        memory.update(self.rx.memory_bytes())
        memory["cq_storage"] = (
            len(self._cq_route) * self.config.cq_entries
            * COMPRESSED_CQE_SIZE
        )
        memory["total"] = sum(memory.values())
        return memory
