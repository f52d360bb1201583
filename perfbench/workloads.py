"""The benchmark's workloads, built through the simulator's public API.

Each workload is a fixed amount of simulated work (an *episode*) on a
fresh testbed.  Its inputs come only from the seed: the flows' UDP
source ports and the payload bytes are drawn from ``random.Random(seed)``
(the way :func:`repro.net.flows.make_flows` draws source ports), while
sizes, rates and windows are fixed by the workload.  The process-global
``random`` module, which :class:`repro.net.Flow` draws its first IP ident
from, is re-seeded before every build, so two episodes of one seed are
the same simulation.

An episode is driven in fixed slices of simulated time
(``Simulator.run(until=...)``), which dispatches exactly the events one
``run`` call would.  After the load finishes, one last ``run`` to the
workload's horizon lets in-flight acks and recycles settle.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from typing import Callable, Dict, List, Optional

from repro.experiments.prog import prog_spec
from repro.experiments.scale_tenants import tenant_mac
from repro.experiments.setups import (CLIENT_IP, CLIENT_MAC, FLD_MAC,
                                      SERVER_IP, Calibration,
                                      flde_echo_remote, fldr_echo)
from repro.host import LoadGenerator
from repro.net import Flow
from repro.prog.programs import load_balancer, mac_to_int
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.audit import audit_all
from repro.topology import build as build_topology

# Eth 14 + IPv4 20 + UDP 8 bytes of headers, then the load generator's
# 8-byte sequence stamp; the seeded payload bytes follow.
_HEADERS = 42
_STAMP = 8
# The UDP destination port of an echoed frame is the client flow's
# source port (the echo swaps L2-L4 directions).
_ECHO_DST_PORT = slice(36, 38)


class SeededFlow(Flow):
    """A UDP flow whose frames carry the flow's seeded payload bytes."""

    def __init__(self, *args, payload: bytes, **kwargs):
        super().__init__(*args, **kwargs)
        self.payload = payload

    def make_sized_packet(self, frame_size: int):
        return self.make_packet(self.payload[:frame_size - _HEADERS],
                                fill_checksums=False)


def seeded_flows(seed: int, count: int, dst_mac: str, dst_ports: List[int],
                 frame_size: int) -> List[SeededFlow]:
    """``count`` UDP flows with seeded, distinct source ports and
    payloads; flow ``i`` goes to ``dst_ports[i % len(dst_ports)]``."""
    rng = random.Random(seed)
    ports: List[int] = []
    while len(ports) < count:
        port = 40000 + rng.randrange(20000)
        if port not in ports:
            ports.append(port)
    return [SeededFlow(CLIENT_MAC, dst_mac, CLIENT_IP, SERVER_IP, port,
                       dst_ports[i % len(dst_ports)],
                       payload=rng.randbytes(frame_size - _HEADERS))
            for i, port in enumerate(ports)]


class Episode:
    """One fixed-size run of a workload on a fresh testbed.

    Subclasses build the testbed in ``__init__`` and drive the load from
    :meth:`_drive`; the harness calls :meth:`start`, then runs
    :attr:`sim` slice by slice while :attr:`finished` is false, then
    :meth:`settle` and finally :meth:`check`.
    """

    #: Simulated seconds per measurement slice.
    slice_s: float = 10e-6
    #: Simulated time the episode settles to after its load finishes.
    horizon: float = 2.0

    def __init__(self, seed: int, metrics: bool = False):
        random.seed(seed)
        self.telemetry = self._telemetry(metrics)
        self.sim = Simulator(telemetry=self.telemetry)
        self.testbed = None
        self.finished = False
        self.finish_time: Optional[float] = None
        self.payload_errors = 0
        self.rx_crc = 0

    @staticmethod
    def _telemetry(metrics: bool):
        """Tracing stays off; ``metrics`` turns on the counter registry
        (``sim.events.processed`` and friends), which keeps the fast
        datapath and the simulated results unchanged."""
        return Telemetry(trace=False) if metrics else None

    # -- driving ---------------------------------------------------------

    def start(self) -> None:
        self.sim.spawn(self._run(), name="perfbench.load")

    def _run(self):
        yield from self._drive()
        self.finish_time = self.sim.now
        self.finished = True

    def _drive(self):
        raise NotImplementedError

    def settle(self) -> None:
        self.sim.run(until=max(self.horizon, self.sim.now))

    # -- accounting ------------------------------------------------------

    def attempted(self) -> int:
        raise NotImplementedError

    def completed(self) -> int:
        raise NotImplementedError

    def row(self) -> Dict:
        """The simulated result: counts, exact float timings, echo CRC."""
        raise NotImplementedError

    def digest(self) -> str:
        blob = json.dumps(self.row(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def audit(self) -> List:
        return self.testbed.quiesce()

    def model_counts(self) -> Dict[str, int]:
        """Modelled-component totals from the layers' ``stats_*``
        attributes (and, with ``metrics``, the counter registry)."""
        nics = [node.nic for node in self.testbed.nodes.values()]
        flds = [runtime.fld for runtime in self.testbed.fld_runtimes.values()]
        fabrics = list({id(nic.fabric): nic.fabric for nic in nics}.values())
        sqs = [sq for nic in nics for sq in nic.sqs.values()]
        cuckoos = [stats for fld in flds
                   for stats in (fld.tx.descriptors.cuckoo_stats(),
                                 fld.tx.data_xlt.cuckoo_stats())]
        spans = self.telemetry.spans if self.telemetry else None
        counts = {
            "pcie.tlps": sum(sum(f.stats_tlps.values()) for f in fabrics),
            "nic.doorbells": sum(sq.stats_doorbells for sq in sqs),
            "nic.wqe_fetches": sum(sq.stats_wqe_fetches for sq in sqs),
            "nic.steering_calls": sum(nic.eswitch.pipeline.stats_lookups
                                      for nic in nics),
            "nic.rx_drops": sum(nic.stats_rx_dropped_inbox
                                + nic.stats_rx_dropped_no_desc
                                + nic.stats_meter_drops for nic in nics),
            "nic.rdma_segments": sum(nic.rdma.segments_sent for nic in nics),
            "nic.rdma_retransmits": sum(nic.rdma.retransmits for nic in nics),
            "core.wqe_reads": sum(fld.tx.stats_wqe_reads for fld in flds),
            "core.cqe_writes": sum(fld.stats_cqe_writes for fld in flds),
            "core.cuckoo_lookups": sum(c["lookups"] for c in cuckoos),
            "core.cuckoo_kicks": sum(c["kicks"] for c in cuckoos),
            # Only ProgLb attaches a program (it overrides this count).
            "prog.runs": 0,
            "telemetry.spans": sum(len(trace.spans)
                                   for trace in getattr(spans, "traces", ())),
        }
        if self.telemetry is not None:
            snapshot = self.telemetry.snapshot().as_dict()
            counts["sim.events"] = snapshot["sim.events.processed"]
            # Every TLP crosses exactly one upstream lane (its
            # requester's), so the up lanes sum each TLP's wire bytes once.
            counts["pcie.bytes"] = sum(
                value for key, value in snapshot.items()
                if key.startswith("pcie.") and key.endswith(".up.bits")) // 8
        return counts

    def check(self) -> List[str]:
        """Every reason this episode's output is wrong (empty when not)."""
        problems = []
        if not self.finished:
            problems.append("load did not finish")
        if self.completed() != self.attempted():
            problems.append(f"delivered {self.completed()} of "
                            f"{self.attempted()} ops")
        if self.payload_errors:
            problems.append(f"{self.payload_errors} echoes with wrong bytes")
        violations = self.audit()
        if violations:
            problems.append(f"{len(violations)} audit violations, first: "
                            f"{violations[0]}")
        return problems


class _OpenLoopEcho(Episode):
    """Open-loop UDP echo through a :class:`LoadGenerator` on several
    seeded flows; every echoed frame's bytes are checked."""

    size = 256
    flows = 4
    rate_bps = 25e9

    def __init__(self, seed: int, count: int, metrics: bool = False):
        super().__init__(seed, metrics)
        self.count = count

    def _attach(self, loadgen: LoadGenerator,
                flows: List[SeededFlow]) -> None:
        self.loadgen = loadgen
        self.flow_list = flows
        expected = {flow.src_port.to_bytes(2, "big"): flow.payload[_STAMP:]
                    for flow in flows}
        qp = loadgen.qp
        deliver = qp.on_receive

        def on_receive(data: bytes, cqe, _deliver=deliver) -> None:
            if expected.get(data[_ECHO_DST_PORT]) != data[_HEADERS
                                                          + _STAMP:]:
                self.payload_errors += 1
            self.rx_crc = zlib.crc32(data, self.rx_crc)
            _deliver(data, cqe)

        qp.on_receive = on_receive

    def _drive(self):
        rate_pps = self.rate_bps / ((self.size + 24) * 8)
        yield from self.loadgen.run_open_loop_flows(
            self.flow_list, [self.size] * self.count, rate_pps=rate_pps)
        yield from self.loadgen.drain()

    def attempted(self) -> int:
        return self.loadgen.stats_sent

    def completed(self) -> int:
        return self.loadgen.stats_received

    def row(self) -> Dict:
        lg = self.loadgen
        lat = lg.latency
        return {"sent": lg.stats_sent, "received": lg.stats_received,
                "matched": len(lat), "rtt_mean": repr(lat.mean),
                "rtt_p99": repr(lat.pct(99.0)),
                "gbps": repr(lg.rx_meter.gbps(wire_overhead_per_packet=24)),
                "finish": repr(self.finish_time), "rx_crc": self.rx_crc}

    def check(self) -> List[str]:
        problems = super().check()
        if len(self.loadgen.latency) != self.attempted():
            problems.append(f"{len(self.loadgen.latency)} of "
                            f"{self.attempted()} echoes matched a send")
        return problems


class FldEcho(_OpenLoopEcho):
    """FLD-E remote echo (Fig. 7b): 256 B frames at 25 Gb/s line rate."""

    def __init__(self, seed: int, count: int, metrics: bool = False):
        super().__init__(seed, count, metrics)
        setup = flde_echo_remote(self.sim, Calibration())
        self.testbed = setup.testbed
        flows = seeded_flows(seed, self.flows, FLD_MAC, [7001], self.size)
        self._attach(setup.loadgen, flows)


class ProgLb(_OpenLoopEcho):
    """The L4 load-balancer program on FLD rx, hairpinning through the
    eswitch to two backend echo functions; spans on at 100% sampling."""

    rate_bps = 12.5e9
    slice_s = 20e-6

    def __init__(self, seed: int, count: int, metrics: bool = False):
        super().__init__(seed, count, metrics)
        self.testbed = build_topology(self.sim, prog_spec("lb"),
                                      cal=Calibration())
        runtime = self.testbed.fld("server.fld")
        ctrl = runtime.ctrl
        backends = ctrl.create_prog_map(capacity=64)
        for index in range(2):
            ctrl.map_set(backends, index, mac_to_int(tenant_mac(1 + index)))
        prog = ctrl.create_prog(load_balancer(2, vport=2), [backends])
        binding = runtime.rx_binding_of(self.testbed.accel("lb").rq)
        ctrl.attach_prog(runtime.fld, prog, "rx", binding)
        self._prog = (ctrl, runtime.fld, prog, backends, binding)
        flows = seeded_flows(seed, self.flows, tenant_mac(0),
                             [7001, 7002], self.size)
        self._attach(LoadGenerator(self.sim, self.testbed.host_qp("client"),
                                   flows[0]), flows)

    @staticmethod
    def _telemetry(metrics: bool):
        # Spans are part of this workload, as in ``python -m repro prog``;
        # their telemetry bundle always carries the counter registry.
        return Telemetry(trace=False, spans=True, span_sample_rate=1)

    def row(self) -> Dict:
        row = super().row()
        row["per_fn"] = [self.testbed.accel(name).accel.stats_processed
                         for name in ("lb", "b0", "b1")]
        return row

    def model_counts(self) -> Dict[str, int]:
        counts = super().model_counts()
        ctrl, _fld, prog, _backends, _binding = self._prog
        counts["prog.runs"] = ctrl.query(prog)["counters"]["runs"]
        return counts

    def audit(self) -> List:
        # Detach and destroy through the firmware channel first, as
        # ``python -m repro prog`` does, so the audit sees a clean table.
        ctrl, fld, prog, backends, binding = self._prog
        ctrl.detach_prog(fld, "rx", binding)
        ctrl.destroy(prog)
        ctrl.destroy(backends)
        return super().audit() + audit_all(spans=self.telemetry.spans)


class FldrRdma(Episode):
    """FLD-R RC echo (§8.1.2): 8 KiB messages (8 RoCE segments), closed
    loop with 16 messages in flight (FLD's 128 KiB buffer clamp)."""

    size = 8192
    window = 16
    slice_s = 50e-6
    horizon = 5.0

    def __init__(self, seed: int, count: int, metrics: bool = False):
        super().__init__(seed, metrics)
        self.count = count
        setup = fldr_echo(self.sim, Calibration())
        self.testbed = setup.testbed
        self.connection = setup.connection
        rng = random.Random(seed)
        self.messages = [rng.randbytes(self.size) for _ in range(self.window)]
        self.sent = 0
        self.received = 0
        self.rtt_total = 0.0

    def _drive(self):
        sim = self.sim
        conn = self.connection
        messages = self.messages
        posted_at: List[float] = []

        def post():
            posted_at.append(sim.now)
            conn.post(messages[self.sent % len(messages)])
            self.sent += 1

        for _ in range(min(self.window, self.count)):
            post()
        while self.received < self.count:
            message, _cqe = yield conn.responses.get()
            index = self.received
            if message != messages[index % len(messages)]:
                self.payload_errors += 1
            self.rx_crc = zlib.crc32(message, self.rx_crc)
            self.rtt_total += sim.now - posted_at[index]
            self.received += 1
            if self.sent < self.count:
                post()

    def attempted(self) -> int:
        return self.sent

    def completed(self) -> int:
        return self.received

    def row(self) -> Dict:
        rdma = [node.nic.rdma for node in self.testbed.nodes.values()]
        return {"sent": self.sent, "received": self.received,
                "rtt_total": repr(self.rtt_total),
                "finish": repr(self.finish_time), "rx_crc": self.rx_crc,
                "segments": sum(r.segments_sent for r in rdma),
                "retransmits": sum(r.retransmits for r in rdma)}


#: Workload name -> episode class ``(seed, count, metrics) -> Episode``.
WORKLOADS: Dict[str, Callable[..., Episode]] = {
    "fld-echo": FldEcho,
    "fldr-rdma": FldrRdma,
    "prog-lb": ProgLb,
}

#: Ops per episode: a few host seconds each, so one run holds several.
EPISODE_OPS = {"fld-echo": 4000, "fldr-rdma": 500, "prog-lb": 2000}
