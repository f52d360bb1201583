"""Bandwidth-limited transmission resources for the simulator.

These model serial links (Ethernet ports, PCIe links, DRAM channels): a
message of ``bits`` occupies the link for ``bits / rate_bps`` seconds, plus a
fixed propagation latency before delivery.  Links are work-conserving FIFOs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, List, Optional, Tuple

from .engine import Simulator, Store


class Reservation:
    """One message's occupancy of a :class:`Link`, applied in arrival order.

    Links arbitrate strictly by arrival key ``(time, seq)``: the reference
    (pre-cut-through) model applied each reservation in a dedicated event
    at its arrival instant, so a reservation made *early* (cut-through
    resolves occupancy at issue time, possibly before other traffic with
    earlier arrivals has issued) must yield to any later-issued,
    earlier-arriving message.  ``start``/``finish``/``delivery`` are
    therefore mutable: an out-of-order insert recomputes every reservation
    behind it (they only ever move *later*), and the owner of the delivery
    event re-checks ``delivery`` when it fires, re-pushing if it fired
    early.  This replays exactly the busy-until sequence the
    one-event-per-arrival model would have produced.

    The record is a handle for the caller; the link's own lane state is
    array-backed (see :class:`Link`), so searches and replays never
    traverse these objects.
    """

    __slots__ = ("key", "bits", "start", "finish", "delivery", "message",
                 "done", "upstream")

    def __init__(self, key, bits, start, finish, delivery):
        self.key = key
        self.bits = bits
        self.start = start
        self.finish = finish
        self.delivery = delivery
        self.message: Any = None
        self.done = False
        #: Optional ``(link, record)`` of a first-hop reservation made by
        #: the same multi-lane transit (PCIe cut-through reserves both
        #: lanes at issue); the owner retires it with this record so the
        #: first hop's pending list drains too.
        self.upstream = None

    def __lt__(self, other: "Reservation") -> bool:
        return self.key < other.key


class TrainReservation:
    """A back-to-back chunk train's occupancy of a :class:`Link`.

    PCIe read completions arrive as a burst of RCB-sized CplDs keyed
    ``(arrivals[j], seq0 + j)`` with strictly increasing arrivals; only
    the *last* chunk's delivery matters to the owner.  Holding the train
    as ONE lane entry (keyed by its last chunk) keeps the lane arrays a
    quarter the length and retires in one prune, while staying exact:
    a later-issued message keyed *inside* the train's range must
    serialize between chunks, so such an insert first materializes the
    train back into per-chunk :class:`Reservation` records (see
    :meth:`Link._materialize`) and then proceeds as before.  After
    materialization this handle delegates to its parts.
    """

    __slots__ = ("first_key", "key", "seq0", "bits_list", "arrivals",
                 "finishes", "_delivery", "_done", "_parts", "message",
                 "upstream")

    def __init__(self, first_key, key, seq0, bits_list, arrivals,
                 finishes, delivery):
        self.first_key = first_key
        self.key = key
        self.seq0 = seq0
        self.bits_list = bits_list
        self.arrivals = arrivals
        self.finishes = finishes
        self._delivery = delivery
        self._done = False
        self._parts = None
        self.message = None
        self.upstream = None

    @property
    def delivery(self) -> float:
        parts = self._parts
        return parts[-1].delivery if parts is not None else self._delivery

    @property
    def done(self) -> bool:
        return self._done

    @done.setter
    def done(self, value: bool) -> None:
        self._done = value
        parts = self._parts
        if parts is not None:
            for part in parts:
                part.done = value


class Link:
    """A serializing, work-conserving point-to-point link.

    Messages are delivered to ``sink`` (a callable) in order; each message
    holds the link for its serialization time.  Propagation latency overlaps
    with the next message's serialization (pipelining), as on real wires.

    Parameters
    ----------
    rate_bps:
        Line rate in bits/second. ``None`` means infinite rate.
    latency:
        One-way propagation delay in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: Optional[float],
        latency: float = 0.0,
        name: str = "",
    ):
        if rate_bps is not None and rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.latency = latency
        self.name = name
        self.sink: Optional[Callable[[Any], None]] = None
        self._busy_until = 0.0
        #: Array-backed reservation lane: three parallel lists kept in
        #: lockstep, sorted by arrival key.  ``_lane_keys`` drives every
        #: search and ordering compare (plain tuple comparisons in C, no
        #: ``Reservation.__lt__`` frames), ``_lane_fin`` every
        #: previous-finish / busy-until read, and ``_lane_recs`` holds the
        #: :class:`Reservation` handles callers keep.  Almost always
        #: appended to (FIFO issue order); an out-of-order arrival
        #: bisects into all three and replays the tail with index
        #: arithmetic.  Entries are pruned once delivered.
        self._lane_keys: List[Tuple[float, int]] = []
        self._lane_fin: List[float] = []
        self._lane_recs: List[Reservation] = []
        self.stats_bits = 0
        self.stats_messages = 0
        # The trace process this link's spans file under; owners (PCIe
        # fabric, Ethernet port) override it to group their lanes.
        self.trace_process = "links"
        telemetry = sim.telemetry
        if telemetry.enabled and name:
            self._ctr_bits = telemetry.counter(f"link.{name}.bits")
            self._ctr_messages = telemetry.counter(f"link.{name}.messages")
            tracer = telemetry.tracer
            self._tracer = tracer if tracer.enabled else None
        else:
            self._ctr_bits = None
            self._tracer = None

    def connect(self, sink: Callable[[Any], None]) -> None:
        self.sink = sink

    @property
    def profile_tag(self):
        # Delivery events are scheduled as ``self._dispatch``; the
        # profiler should attribute them to whoever consumes the
        # messages (the sink's owner), exactly as when the sink itself
        # was the scheduled callable.
        owner = getattr(self.sink, "__self__", None)
        if owner is not None and owner is not self:
            return getattr(owner, "profile_tag", None)
        return None

    def serialization_time(self, bits: float) -> float:
        if self.rate_bps is None:
            return 0.0
        return bits / self.rate_bps

    def reserve(self, bits: float, arrival: float, seq: int) -> Reservation:
        """Occupy the link for ``bits`` arriving at key ``(arrival, seq)``.

        Returns the reservation with its computed ``start``/``finish``/
        ``delivery``; no event is scheduled — the caller owns delivery and
        must re-check ``delivery`` at fire time (a later out-of-order
        insert may have moved it).  ``seq`` must be globally monotonic in
        issue order (ties on ``arrival`` are broken the way the reference
        model's per-arrival events would have dispatched: issue order).
        """
        self.stats_bits += bits
        self.stats_messages += 1
        if self._ctr_bits is not None:
            self._ctr_bits.inc(bits)
            self._ctr_messages.inc()
        keys = self._lane_keys
        rate = self.rate_bps
        latency = self.latency
        key = (arrival, seq)
        if arrival <= self.sim._now and (not keys or keys[-1] <= key):
            # Stable fast path: every reservation arrives no earlier
            # than its issue instant and ``seq`` is globally monotonic,
            # so once the lane's latest key is <= (now, seq) NO future
            # issue can ever key before anything pending — the whole
            # lane is permanently ordered.  Fold every pending finish
            # into the busy floor (finishes are monotone along the
            # lane, so the tail is the max) and run lane-free; retiring
            # a folded record later is a no-op prune.
            fins = self._lane_fin
            if fins:
                self._busy_until = fins[-1]
                keys.clear()
                fins.clear()
                self._lane_recs.clear()
            prev_finish = self._busy_until
            start = arrival if arrival > prev_finish else prev_finish
            finish = start if rate is None else start + bits / rate
            self._busy_until = finish
            return Reservation(key, bits, start, finish, finish + latency)
        if not keys or keys[-1] <= key:
            prev_finish = self._lane_fin[-1] if keys else self._busy_until
            start = arrival if arrival > prev_finish else prev_finish
            finish = start if rate is None else start + bits / rate
            record = Reservation(key, bits, start, finish, finish + latency)
            keys.append(key)
            self._lane_fin.append(finish)
            self._lane_recs.append(record)
            return record
        record = Reservation(key, bits, 0.0, 0.0, 0.0)
        index = bisect_left(keys, key)
        if type(self._lane_recs[index]) is TrainReservation \
                and self._lane_recs[index].first_key < key:
            # The new message serializes *between* this train's chunks:
            # split it back into per-chunk records, then insert normally.
            self._materialize(index)
            index = bisect_left(keys, key)
        keys.insert(index, key)
        self._lane_fin.insert(index, 0.0)
        self._lane_recs.insert(index, record)
        self._recompute(index)
        return record

    def reserve_train(self, bits_list: List[float], arrivals: List[float],
                      seq0: int) -> TrainReservation:
        """Occupy the link for a chunk train keyed ``(arrivals[j], seq0+j)``.

        Arrivals must be non-decreasing (a completion train's are — each
        chunk finishes the first hop after its predecessor).  The common
        case appends ONE lane entry for the whole train; when earlier
        pending occupancy keys beyond the train's first chunk the train
        is kept as per-chunk reservations from the start (exactly the
        chunk-wise :meth:`reserve` sequence).
        """
        n = len(bits_list)
        total_bits = 0
        for bits in bits_list:
            total_bits += bits
        self.stats_bits += total_bits
        self.stats_messages += n
        if self._ctr_bits is not None:
            self._ctr_bits.inc(total_bits)
            self._ctr_messages.inc(n)
        keys = self._lane_keys
        first_key = (arrivals[0], seq0)
        last_key = (arrivals[n - 1], seq0 + n - 1)
        rate = self.rate_bps
        latency = self.latency
        if keys and keys[-1] > first_key:
            # Pending occupancy interleaves with the train: fall back to
            # chunk-wise inserts (stats were counted above, so bypass
            # reserve()'s accounting by replaying its lane logic through
            # individual calls with the counters compensated).
            self.stats_bits -= total_bits
            self.stats_messages -= n
            if self._ctr_bits is not None:
                self._ctr_bits.inc(-total_bits)
                self._ctr_messages.inc(-n)
            parts = [self.reserve(bits_list[j], arrivals[j], seq0 + j)
                     for j in range(n)]
            train = TrainReservation(first_key, last_key, seq0, bits_list,
                                     arrivals, [p.finish for p in parts],
                                     parts[-1].delivery)
            train._parts = parts
            return train
        prev = self._lane_fin[-1] if keys else self._busy_until
        finishes = []
        for j in range(n):
            arrival = arrivals[j]
            start = arrival if arrival > prev else prev
            prev = start if rate is None else start + bits_list[j] / rate
            finishes.append(prev)
        train = TrainReservation(first_key, last_key, seq0, bits_list,
                                 arrivals, finishes, prev + latency)
        keys.append(last_key)
        self._lane_fin.append(prev)
        self._lane_recs.append(train)
        return train

    def _materialize(self, index: int) -> None:
        """Split the train at lane ``index`` into per-chunk records."""
        train = self._lane_recs[index]
        rate = self.rate_bps
        latency = self.latency
        seq0 = train.seq0
        done = train._done
        keys = []
        fins = []
        recs = []
        for j, bits in enumerate(train.bits_list):
            finish = train.finishes[j]
            start = finish if rate is None else finish - bits / rate
            record = Reservation((train.arrivals[j], seq0 + j), bits,
                                 start, finish, finish + latency)
            record.done = done
            keys.append(record.key)
            fins.append(finish)
            recs.append(record)
        self._lane_keys[index:index + 1] = keys
        self._lane_fin[index:index + 1] = fins
        self._lane_recs[index:index + 1] = recs
        train._parts = recs

    def _recompute(self, index: int) -> None:
        """Replay reservations from ``index`` on, in arrival-key order.

        Pure index arithmetic over the parallel lane arrays: arrivals
        come from ``_lane_keys``, the running finish frontier lives in
        ``_lane_fin``; the repaired times are written back to the caller-
        held records (whose delivery events re-check on fire).
        """
        keys = self._lane_keys
        fins = self._lane_fin
        recs = self._lane_recs
        prev_finish = fins[index - 1] if index > 0 else self._busy_until
        rate = self.rate_bps
        latency = self.latency
        for i in range(index, len(keys)):
            record = recs[i]
            if type(record) is TrainReservation:
                # Replay the train's chunk recurrence in place; only the
                # final finish is lane state.
                arrivals = record.arrivals
                bits_list = record.bits_list
                train_fins = record.finishes
                for j in range(len(bits_list)):
                    arrival = arrivals[j]
                    start = (arrival if arrival > prev_finish
                             else prev_finish)
                    prev_finish = (start if rate is None
                                   else start + bits_list[j] / rate)
                    train_fins[j] = prev_finish
                fins[i] = prev_finish
                record._delivery = prev_finish + latency
                continue
            arrival = keys[i][0]
            start = arrival if arrival > prev_finish else prev_finish
            finish = start if rate is None else start + record.bits / rate
            fins[i] = finish
            record.start = start
            record.finish = finish
            record.delivery = finish + latency
            prev_finish = finish
        # Repairs only move reservations later, so any already-scheduled
        # delivery event fires early and re-pushes to the new time.

    def retire(self, record: Reservation) -> None:
        """Mark ``record`` delivered and prune the delivered lane prefix."""
        record.done = True
        recs = self._lane_recs
        if not recs or not recs[0].done:
            return
        fins = self._lane_fin
        busy = self._busy_until
        drop = 0
        for entry in recs:
            if not entry.done:
                break
            finish = fins[drop]
            if finish > busy:
                busy = finish
            drop += 1
        self._busy_until = busy
        del recs[:drop]
        del fins[:drop]
        del self._lane_keys[:drop]

    def trace(self, record: Reservation, name: str) -> None:
        """Record ``record``'s serialization on the Chrome tracer.

        Called when the reservation retires: arbitration can still move
        a pending reservation later, but never a delivered one, so the
        lane record is final.  Requires a live tracer (``_tracer``).
        """
        if record.finish > record.start:
            self._tracer.complete(self.trace_process, self.name, name,
                                  record.start, record.finish,
                                  {"bits": record.bits})

    def send(self, message: Any, bits: float) -> float:
        """Enqueue ``message`` of ``bits``; returns its delivery time.

        The caller does not block; backpressure, when needed, is modelled by
        the caller checking :meth:`queue_delay`.
        """
        sink = self.sink
        if sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        sim = self.sim
        now = sim._now
        record = self.reserve(bits, now, sim._seq)
        record.message = message
        sim.call_later(record.delivery - now, self._dispatch, record)
        return record.delivery

    def send_at(self, message: Any, bits: float, arrival: float) -> float:
        """Like :meth:`send`, but arriving at future time ``arrival``.

        Used by fused pipeline stages that resolved a future transmission
        early; arbitration against messages issued later with earlier
        arrivals is exact (see :class:`Reservation`).
        """
        sink = self.sink
        if sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        sim = self.sim
        record = self.reserve(bits, arrival, sim._seq)
        record.message = message
        sim.call_later(record.delivery - sim._now, self._dispatch, record)
        return record.delivery

    def _dispatch(self, record: Reservation) -> None:
        """Deliver a sent message, honouring post-hoc repairs."""
        sim = self.sim
        if record.delivery > sim._now:
            # An out-of-order arrival pushed this message later after its
            # delivery event was scheduled; fire again at the final time.
            sim.call_later(record.delivery - sim._now, self._dispatch, record)
            return
        self.retire(record)
        if self._tracer is not None:
            self.trace(record, type(record.message).__name__)
        self.sink(record.message)

    def queue_delay(self) -> float:
        """Seconds until the link would start serializing a new message."""
        return max(0.0, self.busy_until - self.sim._now)

    @property
    def busy_until(self) -> float:
        fins = self._lane_fin
        return fins[-1] if fins else self._busy_until


class DuplexLink:
    """A full-duplex link: independent TX and RX unidirectional lanes."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: Optional[float],
        latency: float = 0.0,
        name: str = "",
    ):
        self.tx = Link(sim, rate_bps, latency, name=f"{name}.tx")
        self.rx = Link(sim, rate_bps, latency, name=f"{name}.rx")
        self.name = name

    @property
    def rate_bps(self) -> Optional[float]:
        return self.tx.rate_bps


class TokenBucket:
    """A token-bucket rate limiter (used by the NIC traffic shaper).

    Tokens accrue at ``rate_bps`` bits/second up to ``burst_bits``.  A
    message conforming to the bucket consumes its size in tokens; the
    ``delay_for`` method reports how long a non-conforming message must wait.
    """

    def __init__(self, sim: Simulator, rate_bps: float, burst_bits: float):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.burst_bits = burst_bits
        self._tokens = burst_bits
        self._last = sim._now

    def _refill(self) -> None:
        now = self.sim._now
        self._tokens = min(
            self.burst_bits, self._tokens + (now - self._last) * self.rate_bps
        )
        self._last = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_consume(self, bits: float) -> bool:
        self._refill()
        if self._tokens >= bits:
            self._tokens -= bits
            return True
        return False

    def delay_for(self, bits: float) -> float:
        """Seconds until ``bits`` tokens will be available (0 if now)."""
        self._refill()
        deficit = bits - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate_bps

    def consume(self, bits: float) -> None:
        """Consume unconditionally (may drive the bucket negative-free)."""
        self._refill()
        self._tokens = max(0.0, self._tokens - bits)


def drain_store_via_link(sim: Simulator, store: Store, link: Link,
                         bits_of: Callable[[Any], float]):
    """A process shipping every item from ``store`` over ``link``.

    Waits for serialization so the link is never oversubscribed by this
    drain (models a device's egress scheduler).  Backlogs are drained in
    bursts: after the blocking ``get()`` wake-up, every already-queued
    item is claimed with :meth:`Store.try_get_many` rather than paying
    one wake-up per item; pacing between items is unchanged.
    """
    while True:
        pending = [(yield store.get())]
        while pending:
            for item in pending:
                link.send(item, bits_of(item))
                delay = link.queue_delay()
                if delay > 0:
                    yield sim.timeout(delay)
            pending = store.try_get_many()
