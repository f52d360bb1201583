"""DPDK-testpmd-style applications: echo forwarding and load generation.

These drive the experiments of §8.1: a load generator stamps sequence
numbers into payloads and measures echo round-trips; the echo app is the
CPU baseline FLD-E is compared against (Table 6, Fig. 7b).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from .. import batching
from ..net import Ethernet, Flow, Ipv4, Packet, Tcp, Udp
from ..net.ip import PROTO_TCP
from ..net.parse import parse_frame
from ..sim import Event, LatencyCollector, Simulator, ThroughputMeter
from .driver import EthQueuePair

_SEQ_FORMAT = "!Q"
_SEQ_SIZE = struct.calcsize(_SEQ_FORMAT)

# Byte offsets inside a non-TCP load-gen frame (Eth 14 + IPv4 20 + UDP 8):
# the only bytes that change from one frame to the next on a given flow.
_IP_IDENT_OFF = 18
_IP_CSUM_OFF = 24
_PAYLOAD_OFF = 42


def swap_directions(packet: Packet) -> Packet:
    """Reverse a frame's MACs/IPs/ports — the essence of an echo app."""
    eth = packet.find(Ethernet)
    if eth is not None:
        eth.src, eth.dst = eth.dst, eth.src
    ip = packet.find(Ipv4)
    if ip is not None:
        ip.src, ip.dst = ip.dst, ip.src
    l4 = packet.find(Tcp) or packet.find(Udp)
    if l4 is not None:
        l4.src_port, l4.dst_port = l4.dst_port, l4.src_port
    return packet


class EchoApp:
    """CPU echo server: receive, swap addresses, transmit back."""

    def __init__(self, qp: EthQueuePair):
        from ..sim import Store
        self.qp = qp
        self.qp.on_receive = self._on_receive
        # Bounded app queue: a real run-to-completion PMD would stop
        # polling the RQ instead, with the same drop-at-overrun effect.
        self._pending = Store(qp.sim, capacity=4096, name="echo.pending")
        self._spans = qp.sim.telemetry.spans
        self.stats_echoed = 0
        qp.sim.spawn(self._worker(), name="echo.tx")

    @property
    def stats_dropped(self) -> int:
        return self._pending.stats_dropped

    def _on_receive(self, data: bytes, cqe) -> None:
        # Thread the trace context through the app queue alongside the
        # enqueue time, so the worker can split app-queueing from the
        # echo turnaround itself.
        self._pending.try_put((data, cqe.trace_ctx, self.qp.sim.now))

    def _worker(self):
        sim = self.qp.sim
        while True:
            data, ctx, enqueued = yield self._pending.get()
            started = sim.now
            if ctx is not None and started > enqueued:
                self._spans.record(ctx, "host.tx", enqueued, started,
                                   kind="queue")
            packet = swap_directions(parse_frame(data))
            yield from self.qp.wait_for_tx_space()
            self.qp.send(packet.to_bytes(), trace_ctx=ctx)
            if ctx is not None:
                self._spans.record(ctx, "host.tx", started, sim.now)
            self.stats_echoed += 1


class _FlatPacer:
    """The open-loop send loop as flat continuations.

    One scheduler entry per pacing tick, with no Event allocation or
    generator resume in between.  Frames are built and posted by
    :meth:`LoadGenerator._send_frame`, which also starts each packet's
    trace.  A full SQ is re-polled at the same 100 ns PMD granularity
    ``wait_for_tx_space`` spins at.
    """

    __slots__ = ("gen", "sizes", "interval", "done", "flows", "labels",
                 "_index")

    _TX_POLL = 100e-9  # EthQueuePair.wait_for_tx_space default

    def __init__(self, gen: "LoadGenerator", sizes: List[int],
                 interval: float, done: Event,
                 flows: Optional[List[Flow]] = None,
                 labels: Optional[List[str]] = None):
        self.gen = gen
        self.sizes = sizes
        self.interval = interval
        self.done = done
        self.flows = flows
        self.labels = labels
        self._index = 0

    def _tick(self, _arg=None) -> None:
        gen = self.gen
        sim = gen.sim
        if gen.qp.tx_space() < 1:
            sim.call_later(self._TX_POLL, self._tick, None)
            return
        index = self._index
        flows = self.flows
        if flows is not None:
            gen.flow = flows[index % len(flows)]
            labels = self.labels
            if labels is not None:
                gen.trace_label = labels[index % len(flows)]
        gen._send_frame(self.sizes[index])
        gen.stats_sent += 1
        index += 1
        self._index = index
        if index < len(self.sizes):
            sim.call_later(self.interval, self._tick, None)
        else:
            # The loop paces once more after the last frame before
            # returning to its caller.
            sim.call_later(self.interval, self.done.succeed, None)


class LoadGenerator:
    """Sends sized frames on a flow and measures echoed responses."""

    def __init__(self, sim: Simulator, qp: EthQueuePair, flow: Flow):
        self.sim = sim
        self.qp = qp
        self.flow = flow
        self.qp.on_receive = self._on_receive
        self.latency = LatencyCollector("echo-rtt")
        self.rx_meter = ThroughputMeter("echo-rx")
        self._sent_at: Dict[int, float] = {}
        self._seq = 0
        self.stats_sent = 0
        self.stats_received = 0
        self._spans = sim.telemetry.spans
        #: Prefix for per-packet trace names (``<label>.seq<n>``); the
        #: N-tenant experiment swaps it per flow so the tenant's name
        #: flows into the span layer.
        self.trace_label = "echo"

    def _make_frame(self, frame_size: int) -> bytes:
        if batching.BATCH_ENABLED:
            frame = self._frame_from_template(frame_size)
            if frame is not None:
                self._sent_at[self._seq] = self.sim.now
                self._seq += 1
                return frame
        packet = self.flow.make_sized_packet(frame_size)
        payload = bytearray(packet.payload)
        if len(payload) < _SEQ_SIZE:
            payload.extend(bytes(_SEQ_SIZE - len(payload)))
        struct.pack_into(_SEQ_FORMAT, payload, 0, self._seq)
        packet.payload = bytes(payload)
        self._sent_at[self._seq] = self.sim.now
        self._seq += 1
        return packet.to_bytes()

    def _frame_from_template(self, frame_size: int) -> Optional[bytes]:
        """Stamp the next frame from a cached per-(flow, size) template.

        Consecutive frames on one UDP flow differ only in the IP ident,
        the IP header checksum and the payload sequence stamp, so the
        frame is built once through the ordinary packet path and the
        three fields are patched in place — bit-identical to rebuilding
        it.  TCP flows (whose seq advances with every payload byte)
        return None and take the scalar builder.
        """
        flow = self.flow
        if flow.proto == PROTO_TCP:
            return None
        cache = getattr(flow, "_frame_templates", None)
        if cache is None:
            cache = flow._frame_templates = {}
        identity = (flow.src_mac.value, flow.dst_mac.value,
                    flow.src_ip.value, flow.dst_ip.value,
                    flow.src_port, flow.dst_port, flow.proto)
        entry = cache.get(frame_size)
        if entry is None or entry[0] != identity:
            # Building the template consumes one ident on the flow;
            # restore it so the build is invisible to the sequence the
            # scalar path would produce.
            saved_ident = flow._ident
            packet = flow.make_sized_packet(frame_size)
            flow._ident = saved_ident
            payload = bytearray(packet.payload)
            if len(payload) < _SEQ_SIZE:
                payload.extend(bytes(_SEQ_SIZE - len(payload)))
            packet.payload = bytes(payload)
            template = bytearray(packet.to_bytes())
            # One's-complement sum of the IP header words minus the
            # ident and checksum fields; each frame's checksum is then
            # ~fold(base + ident), exactly what Ipv4.pack computes.
            base = 0
            for off in range(14, 34, 2):
                if off != _IP_IDENT_OFF and off != _IP_CSUM_OFF:
                    base += (template[off] << 8) | template[off + 1]
            entry = (identity, template, base)
            cache[frame_size] = entry
        template = entry[1]
        ident = flow.next_ident()
        total = entry[2] + ident
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        struct.pack_into("!H", template, _IP_IDENT_OFF, ident)
        struct.pack_into("!H", template, _IP_CSUM_OFF, (~total) & 0xFFFF)
        struct.pack_into(_SEQ_FORMAT, template, _PAYLOAD_OFF, self._seq)
        return bytes(template)

    def _send_frame(self, frame_size: int) -> None:
        """Build one stamped frame, start its trace and hand it to the QP."""
        spans = self._spans
        started = self.sim.now
        ctx = (spans.start_trace(f"{self.trace_label}.seq{self._seq}",
                                 started)
               if spans.enabled else None)
        frame = self._make_frame(frame_size)
        self.qp.send(frame, trace_ctx=ctx)
        if ctx is not None:
            spans.record(ctx, "host.tx", started, self.sim.now)

    def _on_receive(self, data: bytes, cqe) -> None:
        packet = parse_frame(data)
        if len(packet.payload) >= _SEQ_SIZE:
            (seq,) = struct.unpack_from(_SEQ_FORMAT, packet.payload, 0)
            sent = self._sent_at.pop(seq, None)
            if sent is not None:
                self.latency.add(self.sim.now - sent)
        self.stats_received += 1
        self.rx_meter.record(self.sim.now, len(data))
        if cqe.trace_ctx is not None:
            self._spans.end_trace(cqe.trace_ctx, self.sim.now)

    # -- traffic patterns --------------------------------------------------

    def run_closed_loop(self, frame_size: int, count: int, window: int = 1):
        """Generator process: keep ``window`` requests in flight."""
        self.rx_meter.start(self.sim.now)
        outstanding = 0
        sent = 0
        while sent < count:
            while outstanding < window and sent < count:
                yield from self.qp.wait_for_tx_space()
                self._send_frame(frame_size)
                self.stats_sent += 1
                sent += 1
                outstanding += 1
            received_target = sent - window + 1
            while self.stats_received < received_target:
                yield self.sim.timeout(200e-9)  # poll loop granularity
            outstanding = sent - self.stats_received
        while self.stats_received < count and self.sim.now < 10.0:
            yield self.sim.timeout(1e-6)

    def run_open_loop(self, sizes: List[int], rate_pps: Optional[float] = None,
                      gap: Optional[float] = None):
        """Generator process: send one frame per ``sizes`` entry.

        ``rate_pps`` paces packets; ``gap`` overrides with a fixed gap;
        neither means best-effort back-to-back (the NIC/driver become the
        bottleneck).
        """
        yield from self.run_open_loop_flows(None, sizes, rate_pps, gap)

    def run_open_loop_flows(self, flows: List[Flow], sizes: List[int],
                            rate_pps: Optional[float] = None,
                            gap: Optional[float] = None,
                            labels: Optional[List[str]] = None):
        """Generator process: like :meth:`run_open_loop`, cycling frame
        ``i`` onto ``flows[i % len(flows)]``.

        With one flow this is event-for-event identical to
        :meth:`run_open_loop` (``flows=None`` keeps :attr:`flow`) — the
        N-tenant scaling experiment leans on that for its N=1
        equivalence to the single-tenant echo.  ``labels`` (parallel to
        ``flows``) names each flow's traces.
        """
        self.rx_meter.start(self.sim.now)
        if not sizes:
            return
        interval = gap if gap is not None else (
            1.0 / rate_pps if rate_pps else 0.0
        )
        # Back-to-back still yields to the event loop once per packet
        # (1 ns), so the sender never outruns the simulated wire by an
        # unbounded queue.
        done = Event(self.sim)
        _FlatPacer(self, list(sizes), interval if interval > 0 else 1e-9,
                   done, flows=list(flows) if flows is not None else None,
                   labels=labels)._tick()
        yield done

    def drain(self, quiet_period: float = 50e-6, limit: float = 1.0):
        """Generator: wait until responses stop arriving."""
        last = -1
        start = self.sim.now
        while self.sim.now - start < limit:
            if self.stats_received == last:
                return
            last = self.stats_received
            yield self.sim.timeout(quiet_period)
