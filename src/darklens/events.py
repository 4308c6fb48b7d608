"""Streaming reconstruction of logical scan events from darknet packets.

A logical event is everything one source sends at one (port, traffic type)
without pausing longer than the quiet-period timeout. The builder keeps one
open state per active key, closes a key's event when a new packet for that
key arrives after the timeout, and sweeps the whole table every half timeout
of stream time so idle keys cannot pin memory. A closed event's end_ts is the
timestamp of its last packet; a gap of exactly the timeout does NOT split.

Packets must arrive roughly in time order. Arrivals older than the watermark
minus the reorder slack are dropped and counted, never folded into state, so
a garbled capture cannot corrupt event boundaries.

Destinations are counted exactly on every telescope. An open event keeps the
darknet offsets of its destinations (an address's index in the sorted
darknet) in a set, and once that set holds more than darknet_size >>
SET_SHIFT offsets it becomes a bitmap of darknet_size bits, so one event never
holds much more than darknet_size / 8 bytes: 256 KiB on a /11, 2 MiB on a /8.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Optional

# EventBuilder.fold runs the rules of classify_traffic_type and
# fingerprint_packet inline and calls neither. Both names stay importable from
# here because the traced benchmark run (bench/layers.py) wraps them in this
# namespace.
from .fingerprint import ZMAP_IP_ID, fingerprint_packet  # noqa: F401
from .model import (
    TCP_ACK, TCP_SYN, TRAFFIC_INDEX, DarknetConfig, DarknetEvent, PacketMeta, Protocol,
    TrafficType, US_PER_S,
)
from .pcap import ICMP_ECHO_REQUEST_TYPE, classify_traffic_type  # noqa: F401

# Nothing in darklens reads this; it stays only because bench/run.py picks
# its oracle's tolerance with it.
EXACT_DST_THRESHOLD = 2 ** 20

# An event's offset set becomes a bitmap once it holds more than
# darknet_size >> SET_SHIFT offsets. A set costs about 70 bytes an offset and
# the bitmap darknet_size / 8 bytes, so past this point the set would be
# larger; at it, it is about half the bitmap.
SET_SHIFT = 10


class _OpenEvent:
    __slots__ = ("key", "start_ts", "last_ts", "dsts", "zmap_pkts", "masscan_pkts", "other_pkts")

    def __init__(self, key: tuple[int, int, TrafficType], ts: int):
        self.key = key
        self.start_ts = ts
        self.last_ts = ts
        # darknet offsets of the destinations: a set, later a bytearray bitmap
        self.dsts: set | bytearray = set()
        self.zmap_pkts = 0
        self.masscan_pkts = 0
        self.other_pkts = 0


def _bitmap(offsets: set, nbytes: int) -> bytearray:
    """The bitmap of a set of darknet offsets: offset k is bit k & 7 of byte k >> 3."""
    bits = bytearray(nbytes)
    for k in offsets:
        bits[k >> 3] |= 1 << (k & 7)
    return bits


class EventBuilder:
    """One streaming pass: feed packets in, collect closed DarknetEvents out.

    Scanning packets whose destination lies outside the darknet are counted
    in outside_darknet and never touch any state. Conservation holds at all
    times once flush() has run:
    packets_in == dropped_non_scanning + outside_darknet + out_of_order
    + sum of event pkt_count.
    """

    def __init__(self, cfg: DarknetConfig, reorder_slack_s: float = 0.0):
        if not 0 <= reorder_slack_s * US_PER_S < float("inf"):
            raise ValueError(f"reorder slack {reorder_slack_s} s must be finite and >= 0")
        self.cfg = cfg
        self.timeout_us = round(cfg.event_timeout_s * US_PER_S)
        self.slack_us = round(reorder_slack_s * US_PER_S)
        self.sweep_interval_us = max(1, self.timeout_us // 2)
        # An address in range i of the darknet has offset address + bases[i].
        bases = []
        before = 0
        for start, end in zip(cfg.range_starts, cfg.range_ends):
            bases.append(before - start)
            before += end - start + 1
        self.bases = tuple(bases)
        self.set_max = cfg.darknet_size >> SET_SHIFT
        self.open_events: dict[tuple[int, int, TrafficType], _OpenEvent] = {}
        self.watermark: Optional[int] = None
        self._next_sweep: Optional[int] = None
        self.packets_in = 0
        self.dropped_non_scanning = 0
        self.outside_darknet = 0
        self.out_of_order = 0
        self.events_emitted = 0
        self.pkts_emitted = 0

    def _close(self, state: _OpenEvent) -> DarknetEvent:
        # Every packet folded in is counted by exactly one of the tool marks.
        pkts = state.zmap_pkts + state.masscan_pkts + state.other_pkts
        dsts = state.dsts
        src, port, ttype = state.key
        self.events_emitted += 1
        self.pkts_emitted += pkts
        return tuple.__new__(DarknetEvent, (
            src, port, TRAFFIC_INDEX[ttype], state.start_ts, state.last_ts, pkts,
            len(dsts) if type(dsts) is set else int.from_bytes(dsts, "little").bit_count(),
            state.zmap_pkts, state.masscan_pkts, state.other_pkts,
        ))

    def _sweep(self, now_us: int) -> List[DarknetEvent]:
        # Expired events close in key order, so a traffic type sorts by its
        # text, not by the index the closed event holds.
        deadline = now_us - self.timeout_us
        expired = [st for st in self.open_events.values() if st.last_ts < deadline]
        if not expired:
            return []
        expired.sort(key=lambda st: st.key)
        for st in expired:
            del self.open_events[st.key]
        return [self._close(st) for st in expired]

    def fold(self, packets: Iterable[tuple]) -> Iterator[DarknetEvent]:
        """Fold packets in, yielding each event as it closes.

        A packet is a tuple in PacketMeta field order, as PcapReader yields
        it, or a PacketMeta. Three rules run inline, with no call per packet:
        the scanning classes of classify_traffic_type, a bisect over the
        config's darknet intervals, which also gives the destination's
        darknet offset, and the tool marks of fingerprint_packet.
        No object is built per packet: open events are keyed by a plain
        (src_ip, dst_port, TrafficType) tuple, and the type becomes its index
        when the event closes. The watermark and the drop counters are
        written back when the iteration ends.
        """
        starts = self.cfg.range_starts
        ends = self.cfg.range_ends
        open_events = self.open_events
        timeout_us = self.timeout_us
        slack_us = self.slack_us
        sweep_interval_us = self.sweep_interval_us
        bases = self.bases
        set_max = self.set_max
        nbytes = (self.cfg.darknet_size + 7) >> 3
        tcp = Protocol.TCP
        udp = Protocol.UDP
        syn = TCP_SYN
        syn_ack = TCP_SYN | TCP_ACK
        tcp_syn = TrafficType.TCP_SYN
        udp_type = TrafficType.UDP
        echo = TrafficType.ICMP_ECHO_REQUEST
        wm = self.watermark
        next_sweep = self._next_sweep
        packets_in = self.packets_in
        non_scanning = self.dropped_non_scanning
        outside = self.outside_darknet
        out_of_order = self.out_of_order
        try:
            for ts, src, dst, proto, _sp, dport, flags, ip_id, seq, icmp_type, _len in packets:
                packets_in += 1
                # TCP counts only with SYN set and ACK clear, ICMP only for
                # echo requests; ICMP events use port 0.
                if proto is tcp:
                    if flags & syn_ack != syn:
                        non_scanning += 1
                        continue
                    ttype = tcp_syn
                elif proto is udp:
                    ttype = udp_type
                elif icmp_type == ICMP_ECHO_REQUEST_TYPE:
                    ttype = echo
                    dport = 0
                else:
                    non_scanning += 1
                    continue
                i = bisect_right(starts, dst) - 1
                if i < 0 or dst > ends[i]:
                    outside += 1
                    continue
                if wm is None:
                    wm = ts
                    next_sweep = ts + sweep_interval_us
                elif ts < wm - slack_us:
                    out_of_order += 1
                    continue
                elif ts > wm:
                    wm = ts

                if ts >= next_sweep:
                    yield from self._sweep(ts)
                    next_sweep = ts + sweep_interval_us

                key = (src, dport, ttype)
                state = open_events.get(key)
                if state is not None and state.last_ts < ts - timeout_us:
                    # quiet period exceeded strictly: this arrival starts a new event
                    del open_events[key]
                    yield self._close(state)
                    state = None
                if state is None:
                    state = open_events[key] = _OpenEvent(key, ts)
                if ts > state.last_ts:
                    state.last_ts = ts
                elif ts < state.start_ts:
                    # slack-admitted stragglers may predate the first packet seen
                    state.start_ts = ts
                off = dst + bases[i]
                dsts = state.dsts
                if type(dsts) is set:
                    dsts.add(off)
                    if len(dsts) > set_max:
                        state.dsts = dsts = _bitmap(dsts, nbytes)
                else:
                    dsts[off >> 3] |= 1 << (off & 7)
                # The fixed-ID mark wins over the XOR mark of a TCP probe.
                if ip_id == ZMAP_IP_ID:
                    state.zmap_pkts += 1
                elif ttype is tcp_syn and ip_id == (dst ^ dport ^ seq) & 0xFFFF:
                    state.masscan_pkts += 1
                else:
                    state.other_pkts += 1
        finally:
            self.watermark = wm
            self._next_sweep = next_sweep
            self.packets_in = packets_in
            self.dropped_non_scanning = non_scanning
            self.outside_darknet = outside
            self.out_of_order = out_of_order

    def ingest_packet(self, p: PacketMeta) -> List[DarknetEvent]:
        """Fold one packet in; returns any events this arrival closed."""
        return list(self.fold((p,)))

    def flush(self) -> List[DarknetEvent]:
        """Close every open event, ordered by ascending (src_ip, dst_port, TrafficType) key.

        end_ts is always the last packet folded in, never the end of capture.
        """
        return self._sweep(float("inf"))
