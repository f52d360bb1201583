"""The software NIC driver baseline (§2.2).

This is the conventional design FLD is compared against: descriptor rings
and data buffers live in *host memory*; the CPU writes WQEs and rings
doorbells over PCIe; the NIC DMA-reads descriptors/buffers and DMA-writes
packet data and CQEs back.  It provides:

* :class:`EthQueuePair` — raw Ethernet tx/rx queues (the testpmd data path),
* :class:`RcEndpoint` — a host RDMA RC endpoint (verbs-like post_send /
  message receive), used by the FLD-R clients.

The driver's memory consumption is the quantity Table 3 analyses; its
``memory_footprint`` method reports the same buckets.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from ..nic import (
    CQE_FLAG_MSG_LAST,
    Cqe,
    Nic,
    OP_ETH_SEND,
    OP_RDMA_SEND,
    OP_RDMA_WRITE,
    RxDesc,
    TxWqe,
    WQE_FLAG_CSUM_L4,
    WQE_FLAG_LSO,
    WQE_FLAG_SIGNALED,
    WQE_MMIO_BASE,
    WQE_MMIO_STRIDE,
    WQE_SIZE,
)
from ..nic import CommandChannel
from ..nic.device import DOORBELL_STRIDE, _POISON
from ..nic.queues import ReceiveQueue
from ..sim import Event, Simulator, Store
from ..topology.addrmap import CMD_MAILBOX_OFFSET, NIC_CMD_DOORBELL
from .cpu import CpuCore, HostCpuPort
from .memory import BumpAllocator, HostMemory


class QueueFullError(RuntimeError):
    """Raised when a send queue has no free slots."""


class EthQueuePair:
    """A raw Ethernet send/receive queue pair over host-memory rings."""

    def __init__(self, driver: "SoftwareDriver", vport: int,
                 sq_entries: int = 1024, rq_entries: int = 1024,
                 buffer_size: int = 2048, use_mmio_wqe: bool = False,
                 signal_interval: int = 16, core=None,
                 register_default: bool = True):
        self.driver = driver
        self.sim = driver.sim
        self.buffer_size = buffer_size
        self.use_mmio_wqe = use_mmio_wqe
        # The core servicing this queue's receive path (default: the
        # driver's); multi-queue apps (RSS experiments) give each queue
        # its own core.
        self.core = core if core is not None else driver.core
        # Selective completion signalling (§6): request a CQE only every
        # N WQEs; one completion retires the whole preceding batch.
        self.signal_interval = signal_interval
        self._tx_completed = 0
        self._allocs: List[tuple] = []
        self._vport = vport
        self._registered_default = register_default
        self._closed = False
        ctrl = driver.ctrl

        self.tx_cq = ctrl.alloc_cq(self._take(sq_entries * 64), sq_entries)
        self.rx_cq = ctrl.alloc_cq(self._take(rq_entries * 64), rq_entries)
        self.sq = ctrl.alloc_sq(self._take(sq_entries * WQE_SIZE),
                                sq_entries, self.tx_cq, vport=vport)
        self.rq = ctrl.alloc_rq(self._take(rq_entries * 16), rq_entries,
                                self.rx_cq)
        if register_default:
            ctrl.set_default_queue(vport, self.rq)
        # Transmit buffers: one slot per WQE (DPDK-style worst case).
        self._tx_buffers = [self._take(buffer_size)
                            for _ in range(sq_entries)]
        self._rx_buffers: Dict[int, int] = {}
        self.on_receive: Optional[Callable[[bytes, Cqe], None]] = None
        self.received = Store(self.sim, name="ethqp.rx")
        self._pi = 0
        self.stats_tx = 0
        self.stats_rx = 0
        self._spans = self.sim.telemetry.spans
        # Events this queue pair schedules directly (fused rx dispatch)
        # attribute to the queue pair's rx stage.
        self.profile_tag = f"ethqp{self.sq.qpn}.rx"
        # Completion retirement is pure bookkeeping (no timeouts).
        _NotifyConsumer(self.sim, self.tx_cq.notify,
                        f"ethqp{self.sq.qpn}.txc", self._retire_tx)
        # Receive dispatch.  The NIC hands rx CQEs (with their in-flight
        # write handle) straight to _rx_fused, which folds PCIe delivery
        # and the core's per-packet processing delay into ONE event per
        # packet: a serial dispatcher starting each packet at
        # max(cqe_arrival, previous_done) and working packet_cost()
        # seconds.
        self._fused_planned = 0.0   # planned end of the dispatch chain
        self._fused_done = 0.0      # actual end (>= planned under repair)
        self._fused_queue = deque()
        self.rx_cq.fused_rx = self._rx_fused

    def _take(self, size: int) -> int:
        """Allocate host memory, remembered for release on close()."""
        addr = self.driver.allocator.alloc(size)
        self._allocs.append((addr, size))
        return addr

    def close(self) -> None:
        """Destroy the queue pair through the command channel.

        Releases the NIC objects (default route, RQ, SQ, both CQs) and
        returns every host ring and buffer to the driver allocator.
        """
        if self._closed:
            return
        self._closed = True
        ctrl = self.driver.ctrl
        if self._registered_default:
            ctrl.clear_default_queue(self._vport)
        ctrl.destroy(self.rq)
        ctrl.destroy(self.sq)
        ctrl.destroy(self.rx_cq)
        ctrl.destroy(self.tx_cq)
        alloc = self.driver.allocator
        for addr, size in self._allocs:
            alloc.free(addr, size)
        self._allocs.clear()

    # -- transmit ----------------------------------------------------------

    def tx_space(self) -> int:
        """Free SQ slots, judged by retired (signalled) completions."""
        return self.sq.entries - (self._pi - self._tx_completed)

    def _retire_tx(self, cqe) -> None:
        # Completions are cumulative under selective signalling: a CQE
        # for index i retires everything up to i (16-bit wrap aware).
        base = self._tx_completed & ~0xFFFF
        completed = base | cqe.wqe_counter
        if completed < self._tx_completed:
            completed += 1 << 16
        self._tx_completed = completed + 1

    def wait_for_tx_space(self, slots: int = 1, poll: float = 100e-9):
        """Generator: spin (as a PMD would) until the SQ has room."""
        while self.tx_space() < slots:
            yield self.sim.timeout(poll)

    def send_tso(self, frame: bytes, mss: int,
                 signaled: bool = False) -> None:
        """Post one oversized TCP frame; the NIC segments it at ``mss``.

        The host pays ONE descriptor and one doorbell for the whole
        burst — the CPU saving TSO exists for.
        """
        self._post(frame, signaled,
                   extra_flags=WQE_FLAG_LSO | WQE_FLAG_CSUM_L4, mss=mss)

    def send(self, frame: bytes, signaled: bool = False,
             trace_ctx=None) -> None:
        """Queue one frame for transmission (CPU side, non-blocking)."""
        self._post(frame, signaled, trace_ctx=trace_ctx)

    def _post(self, frame: bytes, signaled: bool,
              extra_flags: int = 0, mss: int = 0, trace_ctx=None) -> None:
        if self.tx_space() < 1:
            raise QueueFullError(
                f"SQ {self.sq.qpn} full: use wait_for_tx_space()"
            )
        index = self._pi
        self._pi += 1
        slot = index % self.sq.entries
        buffer_addr = self._tx_buffers[slot]
        if len(frame) > self.buffer_size:
            raise ValueError(
                f"frame of {len(frame)} B exceeds buffer {self.buffer_size} B"
            )
        if (index + 1) % self.signal_interval == 0:
            signaled = True
        flags = (WQE_FLAG_SIGNALED if signaled else 0) | extra_flags
        wqe = TxWqe(OP_ETH_SEND, self.sq.qpn, index, buffer_addr,
                    len(frame), flags, mss=mss)
        driver = self.driver
        driver.memory.write_local(buffer_addr - driver.mem_base, frame)
        if self.use_mmio_wqe:
            # WQE-by-MMIO: push the whole descriptor through the doorbell
            # window, saving the NIC's descriptor DMA read (§6).
            driver.mmio_write(
                driver.nic_bar_base + WQE_MMIO_BASE
                + self.sq.qpn * WQE_MMIO_STRIDE,
                wqe.pack(), trace_ctx=trace_ctx,
            )
        else:
            if trace_ctx is not None:
                # The NIC fetches this WQE from host memory later; park
                # the context for its fetch loop to claim.
                self._spans.stash(
                    ("wqe", driver.nic.name, self.sq.qpn, index), trace_ctx)
            driver.memory.write_local(
                self.sq.slot_addr(index) - driver.mem_base, wqe.pack()
            )
            driver.ring_doorbell(self.sq.qpn, index + 1,
                                 trace_ctx=trace_ctx)
        self.stats_tx += 1

    # -- receive -----------------------------------------------------------

    def post_rx_buffers(self, count: int) -> None:
        driver = self.driver
        for _ in range(count):
            index = self.rq.pi
            buffer_addr = self._take(self.buffer_size)
            self._rx_buffers[index % self.rq.entries] = buffer_addr
            desc = RxDesc(buffer_addr, self.buffer_size)
            driver.memory.write_local(
                self.rq.slot_addr(index) - driver.mem_base, desc.pack()
            )
            self.rq.post(1)

    def _repost(self, index: int) -> None:
        """Recycle the consumed descriptor's buffer at the ring tail."""
        driver = self.driver
        buffer_addr = self._rx_buffers.pop(index % self.rq.entries)
        new_index = self.rq.pi
        self._rx_buffers[new_index % self.rq.entries] = buffer_addr
        desc = RxDesc(buffer_addr, self.buffer_size)
        driver.memory.write_local(
            self.rq.slot_addr(new_index) - driver.mem_base, desc.pack()
        )
        self.rq.post(1)

    # -- receive dispatch --------------------------------------------------

    def _rx_fused(self, handle, cqe) -> None:
        """NIC-side CQE issue: plan this packet's dispatch completion.

        The processing cost is drawn here — the same per-queue draw
        order as a dispatcher consuming CQEs on arrival, since CQEs
        arrive in issue order on the host's down lane.
        """
        cost = self.core.packet_cost()
        planned = max(handle.delivery, self._fused_planned) + cost
        self._fused_planned = planned
        # [handle, cqe, cost, committed, fired_early]
        entry = [handle, cqe, cost, False, False]
        self._fused_queue.append(entry)
        sim = self.sim
        sim.call_later(planned - sim._now, self._rx_fused_fire, entry)

    def _rx_fused_fire(self, entry) -> None:
        """The per-packet dispatch event: delivery + processing done."""
        if entry[3]:
            return
        queue = self._fused_queue
        if queue[0] is not entry:
            # A lane repair pushed an earlier packet past our planned
            # time; the head's commit re-drives us in order.
            entry[4] = True
            return
        sim = self.sim
        while True:
            # The dispatcher takes a packet up at max(arrival, previous
            # done) and works its cost.
            handle = entry[0]
            started = handle.delivery
            if self._fused_done > started:
                started = self._fused_done
            done = started + entry[2]
            if done > sim._now:
                sim.call_later(done - sim._now, self._rx_fused_fire, entry)
                return
            entry[3] = True
            queue.popleft()
            self._fused_done = sim._now
            self._consume(entry[1], started, handle)
            # Re-drive any successor whose event fired early and bailed.
            if not queue or not queue[0][4]:
                return
            entry = queue[0]

    def _consume(self, cqe, started: float, handle) -> None:
        """Land the deferred CQE write, read the packet, recycle its
        buffer and hand it to the app.  ``started`` is when the
        dispatcher took the packet up."""
        handle.commit()
        driver = self.driver
        slot = cqe.wqe_counter % self.rq.entries
        buffer_addr = self._rx_buffers[slot]
        data = driver.memory.read_local(
            buffer_addr - driver.mem_base, cqe.byte_count
        )
        self._repost(cqe.wqe_counter)
        self.stats_rx += 1
        if cqe.trace_ctx is not None:
            self._spans.record(cqe.trace_ctx, "host.rx", started,
                               self.sim._now)
        if self.on_receive is not None:
            self.on_receive(data, cqe)
        else:
            self.received.try_put((data, cqe))


class _NotifyConsumer:
    """A consumer of a CQ's notify store that never sleeps.

    ``consume(cqe)`` only does bookkeeping, so the loop runs as a plain
    callback chain: the getter's callback resumes it on arrival.
    Arming is deferred through a zero-delay step, so the consumer
    starts with the simulation.
    """

    __slots__ = ("notify", "profile_tag", "consume")

    def __init__(self, sim: Simulator, notify: Store, profile_tag: str,
                 consume: Callable):
        self.notify = notify
        self.profile_tag = profile_tag
        self.consume = consume
        sim.schedule(0.0, self._next)

    def _next(self) -> None:
        notify = self.notify
        while True:
            cqe = notify.try_get()
            if cqe is None:
                notify.get().add_callback(self._on_cqe)
                return
            if cqe is _POISON:
                return
            self.consume(cqe)

    def _on_cqe(self, event) -> None:
        cqe = event.value
        if cqe is _POISON:
            return
        self.consume(cqe)
        self._next()


class RcEndpoint:
    """A host-side RDMA RC endpoint: post_send + message reception."""

    def __init__(self, driver: "SoftwareDriver", vport: int,
                 local_mac, local_ip, sq_entries: int = 1024,
                 rq_entries: int = 1024, buffer_size: int = 2048):
        self.driver = driver
        self.sim = driver.sim
        self.buffer_size = buffer_size
        self._allocs: List[tuple] = []
        self._closed = False
        ctrl = driver.ctrl
        self.cq = ctrl.alloc_cq(self._take(sq_entries * 64), sq_entries)
        self.rx_cq = ctrl.alloc_cq(self._take(rq_entries * 64), rq_entries)
        self.rq = ctrl.alloc_rq(self._take(rq_entries * 16), rq_entries,
                                self.rx_cq)
        self.qp = ctrl.alloc_rc_qp(
            self._take(sq_entries * WQE_SIZE), sq_entries, self.cq,
            self.rq, vport, local_mac, local_ip,
        )
        self._tx_buffers = [self._take(max(buffer_size, 16 * 1024))
                            for _ in range(sq_entries)]
        self._rx_buffers: Dict[int, int] = {}
        self._pi = 0
        self._send_waiters: Dict[int, Event] = {}
        self.messages = Store(self.sim, name=f"rc{self.qp.qpn}.messages")
        self._assembly: List[bytes] = []
        self.stats_messages_sent = 0
        self.stats_messages_received = 0
        self._spans = self.sim.telemetry.spans
        self.sim.spawn(self._rx_dispatcher(), name=f"rc{self.qp.qpn}.rx")
        self.sim.spawn(self._tx_completions(), name=f"rc{self.qp.qpn}.txc")

    @property
    def qpn(self) -> int:
        return self.qp.qpn

    def _take(self, size: int) -> int:
        """Allocate host memory, remembered for release on close()."""
        addr = self.driver.allocator.alloc(size)
        self._allocs.append((addr, size))
        return addr

    def connect(self, remote_mac, remote_ip, remote_qpn: int) -> None:
        """Walk the QP to RTS against the remote (verbs state machine)."""
        self.driver.ctrl.connect_qp(self.qp, remote_mac, remote_ip,
                                    remote_qpn)

    def close(self) -> None:
        """Destroy the endpoint's QP, RQ and CQs; free host memory."""
        if self._closed:
            return
        self._closed = True
        ctrl = self.driver.ctrl
        ctrl.destroy(self.qp)
        ctrl.destroy(self.rq)
        ctrl.destroy(self.rx_cq)
        ctrl.destroy(self.cq)
        alloc = self.driver.allocator
        for addr, size in self._allocs:
            alloc.free(addr, size)
        self._allocs.clear()

    def post_rx_buffers(self, count: int) -> None:
        driver = self.driver
        for _ in range(count):
            index = self.rq.pi
            buffer_addr = self._take(self.buffer_size)
            self._rx_buffers[index % self.rq.entries] = buffer_addr
            desc = RxDesc(buffer_addr, self.buffer_size)
            driver.memory.write_local(
                self.rq.slot_addr(index) - driver.mem_base, desc.pack()
            )
            self.rq.post(1)

    def register_mr(self, size: int):
        """Register a host buffer as an RDMA WRITE target.

        Returns (fabric address, rkey, read) where ``read(n)`` fetches the
        buffer's current contents for verification.
        """
        driver = self.driver
        base = self._take(size)
        region = driver.nic.rdma.register_mr(base, size)

        def read(nbytes: int = size, offset: int = 0) -> bytes:
            return driver.memory.read_local(
                base - driver.mem_base + offset, nbytes)

        return base, region.rkey, read

    def post_write(self, data: bytes, remote_addr: int, rkey: int,
                   signaled: bool = True, trace_ctx=None) -> Event:
        """One-sided RDMA WRITE of ``data`` to (remote_addr, rkey)."""
        index = self._pi
        self._pi += 1
        slot = index % self.qp.sq.entries
        buffer_addr = self._tx_buffers[slot]
        driver = self.driver
        driver.memory.write_local(buffer_addr - driver.mem_base, data)
        flags = WQE_FLAG_SIGNALED if signaled else 0
        wqe = TxWqe(OP_RDMA_WRITE, self.qp.qpn, index, buffer_addr,
                    len(data), flags, remote_addr=remote_addr, rkey=rkey)
        if trace_ctx is not None:
            self._spans.stash(
                ("wqe", driver.nic.name, self.qp.qpn, index), trace_ctx)
        driver.memory.write_local(
            self.qp.sq.slot_addr(index) - driver.mem_base, wqe.pack()
        )
        driver.ring_doorbell(self.qp.qpn, index + 1, trace_ctx=trace_ctx)
        done = Event(self.sim)
        if signaled:
            self._send_waiters[index & 0xFFFF] = done
        else:
            done.succeed()
        return done

    def post_send(self, message: bytes, signaled: bool = True,
                  trace_ctx=None) -> Event:
        """Send a message; the returned event fires on the remote ack."""
        index = self._pi
        self._pi += 1
        slot = index % self.qp.sq.entries
        buffer_addr = self._tx_buffers[slot]
        driver = self.driver
        driver.memory.write_local(buffer_addr - driver.mem_base, message)
        flags = WQE_FLAG_SIGNALED if signaled else 0
        wqe = TxWqe(OP_RDMA_SEND, self.qp.qpn, index, buffer_addr,
                    len(message), flags)
        if trace_ctx is not None:
            self._spans.stash(
                ("wqe", driver.nic.name, self.qp.qpn, index), trace_ctx)
        driver.memory.write_local(
            self.qp.sq.slot_addr(index) - driver.mem_base, wqe.pack()
        )
        driver.ring_doorbell(self.qp.qpn, index + 1, trace_ctx=trace_ctx)
        done = Event(self.sim)
        if signaled:
            self._send_waiters[index & 0xFFFF] = done
        else:
            done.succeed()
        self.stats_messages_sent += 1
        return done

    def _tx_completions(self):
        while True:
            cqe = yield self.cq.notify.get()
            if cqe is _POISON:
                return
            waiter = self._send_waiters.pop(cqe.wqe_counter, None)
            if waiter is not None:
                waiter.succeed(cqe)

    def _rx_dispatcher(self):
        driver = self.driver
        while True:
            cqe = yield self.rx_cq.notify.get()
            if cqe is _POISON:
                return
            started = self.sim._now
            yield self.sim.timeout(driver.core.packet_cost())
            slot = cqe.wqe_counter % self.rq.entries
            buffer_addr = self._rx_buffers[slot]
            data = driver.memory.read_local(
                buffer_addr - driver.mem_base, cqe.byte_count
            )
            if cqe.trace_ctx is not None:
                self._spans.record(cqe.trace_ctx, "host.rx", started,
                                   self.sim._now)
            self._recycle(cqe.wqe_counter)
            self._assembly.append(data)
            if cqe.flags & CQE_FLAG_MSG_LAST:
                message = b"".join(self._assembly)
                self._assembly = []
                self.stats_messages_received += 1
                self.messages.try_put((message, cqe))

    def _recycle(self, index: int) -> None:
        driver = self.driver
        buffer_addr = self._rx_buffers.pop(index % self.rq.entries)
        new_index = self.rq.pi
        self._rx_buffers[new_index % self.rq.entries] = buffer_addr
        desc = RxDesc(buffer_addr, self.buffer_size)
        driver.memory.write_local(
            self.rq.slot_addr(new_index) - driver.mem_base, desc.pack()
        )
        self.rq.post(1)


class SoftwareDriver:
    """Host-resident driver instance for one NIC."""

    def __init__(self, sim: Simulator, fabric, nic: Nic,
                 memory: HostMemory, mem_base: int, nic_bar_base: int,
                 core: CpuCore, name: str = "cpu"):
        self.sim = sim
        self.fabric = fabric
        self.nic = nic
        self.memory = memory
        self.mem_base = mem_base
        self.nic_bar_base = nic_bar_base
        self.core = core
        self.cpu_port = HostCpuPort(name)
        fabric.attach(self.cpu_port)
        self.allocator = BumpAllocator(mem_base + (1 << 20), (1 << 30))
        # The firmware command channel: mailbox in host DRAM (below the
        # allocator arena), doorbell at the base of the NIC BAR.
        self.channel = CommandChannel(
            nic, memory=memory, mem_base=mem_base,
            mailbox_offset=CMD_MAILBOX_OFFSET,
            doorbell_addr=nic_bar_base + NIC_CMD_DOORBELL,
            fabric=fabric, requester=self.cpu_port,
        )
        # Deferred import: repro.sw pulls in the topology layer, which
        # imports this module while repro.host is still initializing.
        from ..sw.control import ControlPlane
        self.ctrl = ControlPlane(self.channel)

    # -- PCIe initiators ---------------------------------------------------

    def ring_doorbell(self, qpn: int, pi: int, trace_ctx=None) -> None:
        self.fabric.post_write(
            self.cpu_port, self.nic_bar_base + qpn * DOORBELL_STRIDE,
            pi.to_bytes(4, "big"),
            trace_ctx=trace_ctx, trace_stage="pcie.doorbell",
        )

    def mmio_write(self, address: int, data: bytes, trace_ctx=None) -> None:
        self.fabric.post_write(self.cpu_port, address, data,
                               trace_ctx=trace_ctx,
                               trace_stage="pcie.doorbell")

    # -- factories ----------------------------------------------------------

    def create_eth_qp(self, vport: int, **kwargs) -> EthQueuePair:
        return EthQueuePair(self, vport, **kwargs)

    def create_rc_endpoint(self, vport: int, local_mac, local_ip,
                           **kwargs) -> RcEndpoint:
        return RcEndpoint(self, vport, local_mac, local_ip, **kwargs)

    # -- memory accounting (Table 3's software column, measured) ------------

    def memory_footprint(self) -> Dict[str, int]:
        """Bytes the driver has allocated for NIC communication."""
        return {"allocated": self.allocator.used}
