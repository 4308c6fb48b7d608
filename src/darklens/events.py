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
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Optional

# EventBuilder.fold runs the rules of classify_traffic_type and
# fingerprint_packet inline and calls neither. Both names stay importable from
# here because the traced benchmark run (bench/layers.py) wraps them in this
# namespace.
from .fingerprint import ZMAP_IP_ID, fingerprint_packet  # noqa: F401
from .hll import Hll
from .model import (
    TCP_ACK, TCP_SYN, DarknetConfig, DarknetEvent, EventKey, PacketMeta, Protocol, TrafficType,
    US_PER_S,
)
# The log writer lives beside its reader and the binary format they share.
from .model import write_event_log  # noqa: F401
from .pcap import ICMP_ECHO_REQUEST_TYPE, classify_traffic_type  # noqa: F401

# Darknets up to this many addresses count destinations exactly for every
# event; above it an event's exact set is promoted to a sketch once it grows
# past SPARSE_MAX_DSTS, since a 1% estimate is fine for large events.
EXACT_DST_THRESHOLD = 2 ** 20

# 256 Python ints in a set take about 16.6 KB, the size of one Hll, so an
# exact set of up to this many addresses never costs more than the sketch.
SPARSE_MAX_DSTS = 256


class _OpenEvent:
    __slots__ = (
        "key", "start_ts", "last_ts", "pkt_count",
        "dsts", "zmap_pkts", "masscan_pkts", "other_pkts",
    )

    def __init__(self, key: tuple[int, int, TrafficType], ts: int):
        self.key = key
        self.start_ts = ts
        self.last_ts = ts
        self.pkt_count = 0
        # exact set of destinations until promoted, then an Hll
        self.dsts: set | Hll = set()
        self.zmap_pkts = 0
        self.masscan_pkts = 0
        self.other_pkts = 0


def _promote(dsts: set) -> Hll:
    """Fold an exact destination set into a sketch.

    Registers keep a running max, so the result equals a sketch that saw the
    same destinations in any order, one packet at a time.
    """
    sketch = Hll()
    for ip in dsts:
        sketch.add_int(ip)
    return sketch


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
        # An exact set holding more than this many destinations is promoted;
        # on telescopes up to EXACT_DST_THRESHOLD it can never happen.
        self.promote_above = (
            cfg.darknet_size if cfg.darknet_size <= EXACT_DST_THRESHOLD else SPARSE_MAX_DSTS
        )
        self.open_events: dict[tuple[int, int, TrafficType], _OpenEvent] = {}
        self.watermark: Optional[int] = None
        self._next_sweep: Optional[int] = None
        self.packets_in = 0
        self.dropped_non_scanning = 0
        self.outside_darknet = 0
        self.out_of_order = 0
        self.events_emitted = 0
        self.pkts_emitted = 0
        self.sketch_clamped = 0

    def _unique_dsts(self, state: _OpenEvent) -> int:
        """Distinct destinations of an open event.

        An exact set holds only darknet addresses, so its size is the answer.
        A sketch estimate may drift a little, so it is clamped into
        [1, min(pkt_count, darknet_size)], which always holds for the true
        value; each clamp is counted in sketch_clamped.
        """
        dsts = state.dsts
        if type(dsts) is set:
            return len(dsts)
        est = dsts.estimate()
        n = max(1, min(est, state.pkt_count, self.cfg.darknet_size))
        if n != est:
            self.sketch_clamped += 1
        return n

    def _close(self, state: _OpenEvent) -> DarknetEvent:
        new = tuple.__new__
        self.events_emitted += 1
        self.pkts_emitted += state.pkt_count
        return new(DarknetEvent, (
            new(EventKey, state.key), state.start_ts, state.last_ts, state.pkt_count,
            self._unique_dsts(state), state.zmap_pkts, state.masscan_pkts, state.other_pkts,
        ))

    def _sweep(self, now_us: int) -> List[DarknetEvent]:
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
        config's darknet intervals, and the tool marks of fingerprint_packet.
        No object is built per packet: open events are keyed by a plain
        tuple, which becomes an EventKey when the event closes. The watermark
        and the drop counters are written back when the iteration ends.
        """
        starts = self.cfg.range_starts
        ends = self.cfg.range_ends
        open_events = self.open_events
        timeout_us = self.timeout_us
        slack_us = self.slack_us
        sweep_interval_us = self.sweep_interval_us
        promote_above = self.promote_above
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
                state.pkt_count += 1
                if ts > state.last_ts:
                    state.last_ts = ts
                elif ts < state.start_ts:
                    # slack-admitted stragglers may predate the first packet seen
                    state.start_ts = ts
                dsts = state.dsts
                if type(dsts) is set:
                    dsts.add(dst)
                    if len(dsts) > promote_above:
                        state.dsts = _promote(dsts)
                else:
                    dsts.add_int(dst)
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
        """Close every open event, ordered by ascending key.

        end_ts is always the last packet folded in, never the end of capture.
        """
        return self._sweep(float("inf"))
