"""Shared builders and independent oracles for the test suite.

The frame and pcap builders here are written independently from the package's
own writers (int.to_bytes assembly instead of struct templates) so they can
serve as a second opinion on the binary formats.
"""
from __future__ import annotations

import ipaddress
import json
import struct
from datetime import date, timedelta
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from darklens.events import EventBuilder, _OpenEvent, _promote
from darklens.fingerprint import ProbeTool, fingerprint_packet
from darklens.flows import FLOW_CSV_FIELDS
from darklens.model import (
    AhVerdict,
    DarknetConfig,
    DarknetEvent,
    EventKey,
    FlowRecord,
    PacketMeta,
    Protocol,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TCP_URG,
    Thresholds,
    TrafficType,
    int_to_ip,
    ip_to_int,
    utc_day,
    validate_config,
    write_csv,
)
from darklens.pcap import classify_traffic_type

US = 1_000_000


def make_cfg(
    prefixes=("10.0.0.0/22",),
    event_timeout_s: float = 600.0,
    dispersion_fraction: float = 0.10,
    alpha: float = 0.0001,
) -> DarknetConfig:
    cfg = DarknetConfig(
        darknet_prefixes=[ipaddress.IPv4Network(p) for p in prefixes],
        event_timeout_s=event_timeout_s,
        dispersion_fraction=dispersion_fraction,
        alpha=alpha,
    )
    return validate_config(cfg)


def cfg_sized(total: int, fraction: float = 0.10) -> DarknetConfig:
    """Telescope config with an exact (non power of two) address count."""
    nets = []
    addr = ip_to_int("10.0.0.0")
    remaining = total
    for bit in range(31, -1, -1):
        size = 1 << bit
        if remaining >= size:
            nets.append(ipaddress.IPv4Network((addr, 32 - bit)))
            addr += size
            remaining -= size
    return validate_config(
        DarknetConfig(darknet_prefixes=nets, dispersion_fraction=fraction)
    )


def mk_pkt(
    ts_us: int,
    src: str | int,
    dst: str | int,
    proto: str = "udp",
    sport: Optional[int] = 40000,
    dport: Optional[int] = 53,
    flags: Optional[int] = None,
    seq: Optional[int] = None,
    ip_id: int = 7,
    icmp_type: Optional[int] = None,
    pkt_len: int = 60,
) -> PacketMeta:
    """PacketMeta builder with protocol-appropriate defaults."""
    src_i = ip_to_int(src) if isinstance(src, str) else src
    dst_i = ip_to_int(dst) if isinstance(dst, str) else dst
    protocol = Protocol(proto)
    if protocol is Protocol.TCP:
        return PacketMeta(
            ts_us, src_i, dst_i, protocol, sport, dport,
            0x02 if flags is None else flags, ip_id,
            0 if seq is None else seq, None, pkt_len,
        )
    if protocol is Protocol.UDP:
        return PacketMeta(ts_us, src_i, dst_i, protocol, sport, dport, None, ip_id, None, None, pkt_len)
    return PacketMeta(
        ts_us, src_i, dst_i, protocol, None, None, None, ip_id, None,
        8 if icmp_type is None else icmp_type, pkt_len,
    )


def run_builder(builder, packets: Iterable[PacketMeta]) -> List[DarknetEvent]:
    """Every event the builder closes while ingesting packets, then its flush."""
    events: List[DarknetEvent] = []
    for p in packets:
        events.extend(builder.ingest_packet(p))
    events.extend(builder.flush())
    return events


class OracleEventBuilder(EventBuilder):
    """The per-packet fold that EventBuilder.fold replaced: the reference for it.

    Each packet goes through classify_traffic_type, DarknetConfig.contains and
    fingerprint_packet, one call each, and the counters and watermark are
    updated in place. Closing, sweeping and flushing are EventBuilder's own.
    """

    def ingest_packet(self, p: PacketMeta) -> List[DarknetEvent]:
        self.packets_in += 1
        ttype = classify_traffic_type(p)
        if ttype is None:
            self.dropped_non_scanning += 1
            return []
        if not self.cfg.contains(p.dst_ip):
            self.outside_darknet += 1
            return []
        ts = p.ts_us
        wm = self.watermark
        if wm is None:
            self.watermark = ts
            self._next_sweep = ts + self.sweep_interval_us
        elif ts < wm - self.slack_us:
            self.out_of_order += 1
            return []
        elif ts > wm:
            self.watermark = ts

        closed: List[DarknetEvent] = []
        if ts >= self._next_sweep:
            closed = self._sweep(ts)
            self._next_sweep = ts + self.sweep_interval_us

        key = EventKey(p.src_ip, p.dst_port if p.dst_port is not None else 0, ttype)
        state = self.open_events.get(key)
        if state is not None and state.last_ts < ts - self.timeout_us:
            del self.open_events[key]
            closed.append(self._close(state))
            state = None
        if state is None:
            state = _OpenEvent(key, ts)
            self.open_events[key] = state
        state.pkt_count += 1
        if ts > state.last_ts:
            state.last_ts = ts
        elif ts < state.start_ts:
            state.start_ts = ts
        dsts = state.dsts
        if type(dsts) is set:
            dsts.add(p.dst_ip)
            if len(dsts) > self.promote_above:
                state.dsts = _promote(dsts)
        else:
            dsts.add_int(p.dst_ip)
        tool = fingerprint_packet(p)
        if tool is ProbeTool.ZMAP:
            state.zmap_pkts += 1
        elif tool is ProbeTool.MASSCAN:
            state.masscan_pkts += 1
        else:
            state.other_pkts += 1
        return closed


# ---------------------------------------------------------------------------
# Event-log codec oracles: the json.dumps encoder and the dict decoder that
# the package's template encoder and lean decoder replaced.


def oracle_event_json_line(ev: DarknetEvent) -> str:
    key = ev.key
    return json.dumps(
        {
            "key": {
                "src_ip": int_to_ip(key.src_ip),
                "dst_port": key.dst_port,
                "traffic_type": key.traffic_type.value,
            },
            "start_ts": ev.start_ts,
            "end_ts": ev.end_ts,
            "pkt_count": ev.pkt_count,
            "unique_dst_count": ev.unique_dst_count,
            "zmap_pkts": ev.zmap_pkts,
            "masscan_pkts": ev.masscan_pkts,
            "other_pkts": ev.other_pkts,
        },
        separators=(",", ":"),
    )


def oracle_event_from_json_line(line: str) -> DarknetEvent:
    obj = json.loads(line)
    key = obj["key"]
    ev = DarknetEvent(
        key=EventKey(
            src_ip=ip_to_int(key["src_ip"]),
            dst_port=int(key["dst_port"]),
            traffic_type=TrafficType(key["traffic_type"]),
        ),
        start_ts=int(obj["start_ts"]),
        end_ts=int(obj["end_ts"]),
        pkt_count=int(obj["pkt_count"]),
        unique_dst_count=int(obj["unique_dst_count"]),
        zmap_pkts=int(obj["zmap_pkts"]),
        masscan_pkts=int(obj["masscan_pkts"]),
        other_pkts=int(obj["other_pkts"]),
    )
    ev.validate()
    return ev


# ---------------------------------------------------------------------------
# Independent wire-format builders (oracle side).


def oracle_ipv4(
    src: str, dst: str, proto: int, payload: bytes, ip_id: int = 0, frag_off: int = 0
) -> bytes:
    hdr = bytearray(20)
    hdr[0] = 0x45
    total_len = 20 + len(payload)
    hdr[2:4] = total_len.to_bytes(2, "big")
    hdr[4:6] = ip_id.to_bytes(2, "big")
    hdr[6:8] = frag_off.to_bytes(2, "big")
    hdr[8] = 64
    hdr[9] = proto
    hdr[12:16] = bytes(int(x) for x in src.split("."))
    hdr[16:20] = bytes(int(x) for x in dst.split("."))
    return bytes(hdr) + payload


def oracle_tcp(sport: int, dport: int, seq: int, flags: int) -> bytes:
    hdr = bytearray(20)
    hdr[0:2] = sport.to_bytes(2, "big")
    hdr[2:4] = dport.to_bytes(2, "big")
    hdr[4:8] = seq.to_bytes(4, "big")
    hdr[12] = 5 << 4
    hdr[13] = flags
    hdr[14:16] = (8192).to_bytes(2, "big")
    return bytes(hdr)


def oracle_udp(sport: int, dport: int) -> bytes:
    return sport.to_bytes(2, "big") + dport.to_bytes(2, "big") + (8).to_bytes(2, "big") + b"\x00\x00"


def oracle_icmp(icmp_type: int) -> bytes:
    return bytes([icmp_type, 0, 0, 0, 0, 1, 0, 1])


ETH = bytes(6) + bytes(6) + b"\x08\x00"


def eth_frame(ip_packet: bytes) -> bytes:
    return ETH + ip_packet


def build_pcap(
    records: Iterable[Tuple[int, bytes]],
    endian: str = "<",
    nanos: bool = False,
    linktype: int = 1,
    magic_override: Optional[int] = None,
) -> bytes:
    """Classic pcap bytes assembled by hand, any endianness, us or ns."""
    if magic_override is not None:
        magic = magic_override
    elif nanos:
        magic = 0xA1B23C4D
    else:
        magic = 0xA1B2C3D4
    big = endian == ">"
    order = "big" if big else "little"
    out = bytearray()
    out += magic.to_bytes(4, order)
    out += (2).to_bytes(2, order) + (4).to_bytes(2, order)
    out += (0).to_bytes(4, order) + (0).to_bytes(4, order)
    out += (65535).to_bytes(4, order) + linktype.to_bytes(4, order)
    for ts_us, frame in records:
        sec, rem = divmod(ts_us, US)
        frac = rem * 1000 if nanos else rem
        out += sec.to_bytes(4, order) + frac.to_bytes(4, order)
        out += len(frame).to_bytes(4, order) + len(frame).to_bytes(4, order)
        out += frame
    return bytes(out)


# ---------------------------------------------------------------------------
# Independent oracles.


_FLAG_LETTERS = (
    ("S", TCP_SYN), ("A", TCP_ACK), ("F", TCP_FIN), ("R", TCP_RST), ("P", TCP_PSH), ("U", TCP_URG),
)


def flags_to_letters(flags: int) -> str:
    """Render a TCP flag bitmask as its canonical letter string (S before A)."""
    return "".join(letter for letter, bit in _FLAG_LETTERS if flags & bit)


def flow_csv_row(rec: FlowRecord) -> List[str]:
    """One flow CSV row, in FLOW_CSV_FIELDS order, as an exporter writes it."""
    return [
        rec.router_id,
        str(rec.ts_us),
        rec.direction.value,
        int_to_ip(rec.src_ip),
        int_to_ip(rec.dst_ip),
        rec.protocol.value,
        "" if rec.src_port is None else str(rec.src_port),
        "" if rec.dst_port is None else str(rec.dst_port),
        str(rec.sampled_pkts),
        str(rec.sampling_denominator),
        "" if rec.tcp_flags is None else flags_to_letters(rec.tcp_flags),
    ]


def write_flows_csv(path, records: Iterable[FlowRecord], extra_rows=()) -> None:
    """A flow CSV holding records, then extra_rows as given."""
    write_csv(path, FLOW_CSV_FIELDS, [*map(flow_csv_row, records), *extra_rows])


def oracle_ecdf(values, alpha) -> int:
    """Full-sort order statistic with the ceiling done in integer arithmetic."""
    from fractions import Fraction

    s = sorted(values)
    n = len(s)
    q = (1 - Fraction(alpha)) * n
    k = -((-q.numerator) // q.denominator)  # ceil without math.ceil
    k = min(max(k, 1), n)
    return s[k - 1]


def oracle_detection(
    events: List[DarknetEvent], cfg: DarknetConfig, thresholds: Optional[Thresholds] = None
) -> Tuple[Thresholds, List[AhVerdict], List[dict]]:
    """Brute-force detection: thresholds, verdict rows and sidecar rows.

    Every quantity is recomputed from the raw event list by a separate scan,
    without shared accumulators: the daily port count of (source, day) looks
    at every event again, and each verdict and sidecar row re-filters the
    tagged events. Sidecar rows are the decoded JSON objects, by address.
    """

    def is_icmp(ev: DarknetEvent) -> bool:
        return ev.key.traffic_type is TrafficType.ICMP_ECHO_REQUEST

    def ports_on(ip: int, day: date) -> int:
        return len({
            (ev.key.dst_port, ev.key.traffic_type) for ev in events
            if ev.key.src_ip == ip and utc_day(ev.start_ts) == day and not is_icmp(ev)
        })

    profile_keys = {(ev.key.src_ip, utc_day(ev.start_ts)) for ev in events if not is_icmp(ev)}
    if thresholds is None:
        profiles = [ports_on(ip, day) for ip, day in profile_keys]
        thresholds = Thresholds(
            oracle_ecdf([ev.pkt_count for ev in events], cfg.alpha),
            oracle_ecdf(profiles, cfg.alpha) if profiles else 2 ** 63,
        )

    def defs_of(ev: DarknetEvent) -> Set[str]:
        defs = set()
        if ev.unique_dst_count / cfg.darknet_size >= cfg.dispersion_fraction:
            defs.add("D1")
        if ev.pkt_count >= thresholds.volume_threshold_pkts:
            defs.add("D2")
        if not is_icmp(ev) and ports_on(ev.key.src_ip, utc_day(ev.start_ts)) >= thresholds.ports_threshold:
            defs.add("D3")
        return defs

    tagged = [(ev, defs_of(ev)) for ev in events]
    tagged = [(ev, defs) for ev, defs in tagged if defs]
    verdicts = []
    sidecar = []
    for ip in sorted({ev.key.src_ip for ev, _ in tagged}):
        mine = [(ev, defs) for ev, defs in tagged if ev.key.src_ip == ip]
        first_day = utc_day(min(ev.start_ts for ev, _ in mine))
        days = set()
        for ev, _ in mine:
            day = utc_day(ev.start_ts)
            while day <= utc_day(ev.end_ts):
                days.add(day)
                day += timedelta(days=1)
        for day in days:
            on_day = [
                (ev, defs) for ev, defs in mine
                if utc_day(ev.start_ts) <= day <= utc_day(ev.end_ts)
            ]
            verdicts.append(AhVerdict(
                src_ip=ip,
                day=day,
                matched_defs=frozenset().union(*(defs for _, defs in on_day)),
                max_dispersion=max(ev.unique_dst_count / cfg.darknet_size for ev, _ in on_day),
                max_event_pkts=max(ev.pkt_count for ev, _ in on_day),
                distinct_ports=ports_on(ip, day),
                is_daily=day == first_day,
            ))
        sidecar.append({
            "ip": int_to_ip(ip),
            "matched_defs": sorted(set().union(*(defs for _, defs in mine))),
            "max_dispersion": max(ev.unique_dst_count / cfg.darknet_size for ev, _ in mine),
            "max_event_pkts": max(ev.pkt_count for ev, _ in mine),
            "max_daily_ports": max(
                [ports_on(ip, day) for src, day in profile_keys if src == ip], default=0
            ),
            "total_pkts": sum(ev.pkt_count for ev, _ in mine),
            "events": len(mine),
        })
    verdicts.sort(key=lambda v: (v.day, v.src_ip))
    return thresholds, verdicts, sidecar


def offline_intervals(ts_sorted: List[int], timeout_us: int) -> List[Tuple[int, int]]:
    """Split one key's ascending timestamps at gaps strictly above the timeout."""
    assert ts_sorted
    intervals = []
    start = last = ts_sorted[0]
    for t in ts_sorted[1:]:
        if t - last > timeout_us:
            intervals.append((start, last))
            start = last = t
        else:
            last = t
    intervals.append((start, last))
    return intervals


PCAP_COUNTERS = (
    "records_total", "packets_read", "skipped_non_ipv4", "skipped_truncated", "skipped_transport",
)


def oracle_decode_pcap(data: bytes) -> Tuple[List[PacketMeta], Dict[str, int]]:
    """Field-by-field classic pcap decode, the reference for PcapReader.

    This is the reader's former hot loop: each header field is read on its
    own (single-field unpacks, int.from_bytes over slices). It applies the
    same skip rules in the same order and returns the packets together with
    the five counters named in PCAP_COUNTERS.
    """
    magic = int.from_bytes(data[:4], "big")
    if magic in (0xA1B2C3D4, 0xA1B23C4D):
        order, endian = "big", ">"
    else:
        assert magic in (0xD4C3B2A1, 0x4D3CB2A1), hex(magic)
        order, endian = "little", "<"
    nanos = magic in (0xA1B23C4D, 0x4D3CB2A1)
    is_ethernet = int.from_bytes(data[20:24], order) == 1
    l2_off = 14 if is_ethernet else 0
    rec_hdr = struct.Struct(endian + "IIII")
    ports_hdr = struct.Struct("!HH")
    counts = dict.fromkeys(PCAP_COUNTERS, 0)
    out: List[PacketMeta] = []
    buf = data
    n = len(buf)

    off = 24
    while off + 16 <= n:
        ts_sec, ts_frac, caplen, origlen = rec_hdr.unpack_from(buf, off)
        off += 16
        counts["records_total"] += 1
        end = off + caplen
        if end > n:
            counts["skipped_truncated"] += 1
            break
        data_off = off
        off = end
        if nanos:
            ts_us = ts_sec * 1_000_000 + ts_frac // 1000
        else:
            ts_us = ts_sec * 1_000_000 + ts_frac

        ip_off = data_off + l2_off
        if is_ethernet:
            if caplen < 14:
                counts["skipped_truncated"] += 1
                continue
            if buf[data_off + 12] != 0x08 or buf[data_off + 13] != 0x00:
                counts["skipped_non_ipv4"] += 1
                continue
        if end - ip_off < 20:
            counts["skipped_truncated"] += 1
            continue
        vihl = buf[ip_off]
        if vihl >> 4 != 4:
            counts["skipped_non_ipv4"] += 1
            continue
        ihl = (vihl & 0x0F) * 4
        if ihl < 20 or ip_off + ihl > end:
            counts["skipped_truncated"] += 1
            continue
        frag = struct.unpack_from("!H", buf, ip_off + 6)[0]
        if frag & 0x1FFF:
            counts["skipped_transport"] += 1
            continue
        proto = buf[ip_off + 9]
        ip_id = struct.unpack_from("!H", buf, ip_off + 4)[0]
        src_ip = int.from_bytes(buf[ip_off + 12 : ip_off + 16], "big")
        dst_ip = int.from_bytes(buf[ip_off + 16 : ip_off + 20], "big")
        l4 = ip_off + ihl

        if proto == 6:
            if end - l4 < 20:
                counts["skipped_truncated"] += 1
                continue
            src_port, dst_port = ports_hdr.unpack_from(buf, l4)
            tcp_seq = int.from_bytes(buf[l4 + 4 : l4 + 8], "big")
            tcp_flags = buf[l4 + 13] & 0x3F
            meta = PacketMeta(
                ts_us, src_ip, dst_ip, Protocol.TCP, src_port, dst_port,
                tcp_flags, ip_id, tcp_seq, None, origlen,
            )
        elif proto == 17:
            if end - l4 < 8:
                counts["skipped_truncated"] += 1
                continue
            src_port, dst_port = ports_hdr.unpack_from(buf, l4)
            meta = PacketMeta(
                ts_us, src_ip, dst_ip, Protocol.UDP, src_port, dst_port,
                None, ip_id, None, None, origlen,
            )
        elif proto == 1:
            if end - l4 < 4:
                counts["skipped_truncated"] += 1
                continue
            meta = PacketMeta(
                ts_us, src_ip, dst_ip, Protocol.ICMP, None, None,
                None, ip_id, None, buf[l4], origlen,
            )
        else:
            counts["skipped_transport"] += 1
            continue

        counts["packets_read"] += 1
        out.append(meta)
    return out, counts


def oracle_flow_measures(
    flows: List[FlowRecord],
    ah: Set[int],
    acked_ips: Collection[int] = (),
    day: Optional[date] = None,
) -> dict:
    """The flow tables as five separate passes, the reference for tally_flows.

    These are the passes `impact` once made over a list of every flow row:
    the earliest day (unless `day` is given), the AH and ACKed per-router sums
    of that one day, the share of the AH set each router saw on any day, and
    the AH protocol sums over every day. Per-router sums are (ah_est,
    total_est) pairs; a day without flows gives an empty dict.
    """

    def accumulate_day(members: Set[int]) -> Dict[str, Tuple[int, int]]:
        sums: Dict[str, List[int]] = {}
        for rec in flows:
            if utc_day(rec.ts_us) != day:
                continue
            cell = sums.setdefault(rec.router_id, [0, 0])
            est = rec.sampled_pkts * rec.sampling_denominator
            cell[1] += est
            if rec.src_ip in members:
                cell[0] += est
        return {router: (ah_est, total) for router, (ah_est, total) in sums.items()}

    if day is None and flows:
        day = min(utc_day(rec.ts_us) for rec in flows)

    seen: Dict[str, Set[int]] = {}
    for rec in flows:
        if rec.src_ip in ah:
            seen.setdefault(rec.router_id, set()).add(rec.src_ip)

    tcp_syn = udp = icmp = unclassifiable = 0
    for rec in flows:
        if rec.src_ip not in ah:
            continue
        est = rec.sampled_pkts * rec.sampling_denominator
        if rec.protocol is Protocol.UDP:
            udp += est
        elif rec.protocol is Protocol.ICMP:
            icmp += est
        elif rec.tcp_flags is not None and rec.tcp_flags & TCP_SYN and not rec.tcp_flags & TCP_ACK:
            tcp_syn += est
        else:
            unclassifiable += est

    return {
        "day": day,
        "impact": accumulate_day(ah),
        "acked": accumulate_day({ip for ip in ah if ip in acked_ips}),
        "presence": {router: len(ips) / len(ah) for router, ips in seen.items()},
        "mix": (tcp_syn, udp, icmp, unclassifiable),
    }
