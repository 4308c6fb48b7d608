"""Shared builders and independent oracles for the test suite.

The frame and pcap builders here are written independently from the package's
own writers (int.to_bytes assembly instead of struct templates) so they can
serve as a second opinion on the binary formats. write_pcap and the per-probe
synth emitter at the end are the struct-packed writers synth used before it
built its records as numpy arrays; they are the reference it must match.
"""
from __future__ import annotations

from bisect import bisect_right
import csv
import ipaddress
import itertools
import json
import random
import re
import struct
import tracemalloc
from collections import Counter
from datetime import date, timedelta
from pathlib import Path
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from darklens.detect import run_detection
from darklens.events import EventBuilder, _OpenEvent
from darklens.fingerprint import (
    PortFingerprintRow, ProbeTool, ZMAP_IP_ID, fingerprint_packet, masscan_ip_id,
)
from darklens.flows import FLOW_CSV_FIELDS
from darklens.impact import ImpactBin, ImpactSeries, ProtocolMix
from darklens.model import (
    AhVerdict,
    DarknetConfig,
    DarknetEvent,
    Direction,
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
    US_PER_DAY,
    US_PER_S,
    int_to_ip,
    ip_to_int,
    letters_to_flags,
    _check_events,
    _json_rows,
    utc_day,
    write_csv,
    write_json,
)
from darklens.pcap import classify_traffic_type
from darklens.synth import _pool_port

US = 1_000_000


def make_cfg(
    prefixes=("10.0.0.0/22",),
    event_timeout_s: float = 600.0,
    dispersion_fraction: float = 0.10,
    alpha: float = 0.0001,
) -> DarknetConfig:
    return DarknetConfig(
        darknet_prefixes=list(prefixes),
        event_timeout_s=event_timeout_s,
        dispersion_fraction=dispersion_fraction,
        alpha=alpha,
    )


def cfg_sized(total: int, fraction: float = 0.10) -> DarknetConfig:
    """Telescope config with an exact (non power of two) address count."""
    nets = []
    addr = ip_to_int("10.0.0.0")
    remaining = total
    for bit in range(31, -1, -1):
        size = 1 << bit
        if remaining >= size:
            nets.append(f"{int_to_ip(addr)}/{32 - bit}")
            addr += size
            remaining -= size
    return DarknetConfig(darknet_prefixes=nets, dispersion_fraction=fraction)


def traced_peak(fn, *args):
    """fn(*args) under tracemalloc: (its result, the peak bytes traced meanwhile)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Prefix spellings Python's ipaddress.IPv4Network takes but parse_cidr does
# not: netmask, hostmask, bare address and zero-padded lengths. The ASN map
# and the telescope config must both refuse them.
NONCANONICAL_PREFIXES = [
    "10.0.0.0/255.0.0.0",
    "10.0.0.0/0.255.255.255",
    "10.0.0.0",
    "10.0.0.0/08",
    "10.0.0.0/008",
]


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


def darknet_contains(cfg: DarknetConfig, ip: int) -> bool:
    """Whether ip lies in the darknet: one bisect over cfg's intervals."""
    i = bisect_right(cfg.range_starts, ip) - 1
    return i >= 0 and ip <= cfg.range_ends[i]


def run_builder(builder, packets: Iterable[PacketMeta]) -> List[DarknetEvent]:
    """Every event the builder closes while ingesting packets, then its flush."""
    events: List[DarknetEvent] = []
    for p in packets:
        events.extend(builder.ingest_packet(p))
    events.extend(builder.flush())
    return events


class OracleEventBuilder(EventBuilder):
    """The per-packet fold that EventBuilder.fold replaced: the reference for it.

    Each packet goes through classify_traffic_type, darknet_contains and
    fingerprint_packet, one call each, and the counters and watermark are
    updated in place. An open event keeps its destination addresses in a plain
    set, never a bitmap. Closing and sweeping are its own too: expired events
    close in the order of (source, port, traffic type's text), and each event
    holds its type's index in TrafficType's order. flush is EventBuilder's.
    """

    def ingest_packet(self, p: PacketMeta) -> List[DarknetEvent]:
        self.packets_in += 1
        ttype = classify_traffic_type(p)
        if ttype is None:
            self.dropped_non_scanning += 1
            return []
        if not darknet_contains(self.cfg, p.dst_ip):
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

        key = (p.src_ip, p.dst_port if p.dst_port is not None else 0, ttype)
        state = self.open_events.get(key)
        if state is not None and state.last_ts < ts - self.timeout_us:
            del self.open_events[key]
            closed.append(self._close(state))
            state = None
        if state is None:
            state = _OpenEvent(key, ts)
            self.open_events[key] = state
        if ts > state.last_ts:
            state.last_ts = ts
        elif ts < state.start_ts:
            state.start_ts = ts
        state.dsts.add(p.dst_ip)
        tool = fingerprint_packet(p)
        if tool is ProbeTool.ZMAP:
            state.zmap_pkts += 1
        elif tool is ProbeTool.MASSCAN:
            state.masscan_pkts += 1
        else:
            state.other_pkts += 1
        return closed

    def _sweep(self, now_us) -> List[DarknetEvent]:
        expired = [st for st in self.open_events.values() if st.last_ts < now_us - self.timeout_us]
        expired.sort(key=lambda st: (st.key[0], st.key[1], st.key[2].value))
        for st in expired:
            del self.open_events[st.key]
        return [self._close(st) for st in expired]

    def _close(self, st: _OpenEvent) -> DarknetEvent:
        src, port, ttype = st.key
        pkts = st.zmap_pkts + st.masscan_pkts + st.other_pkts
        self.events_emitted += 1
        self.pkts_emitted += pkts
        return DarknetEvent(src, port, TYPE_INDEX[ttype], st.start_ts, st.last_ts, pkts,
                            len(st.dsts), st.zmap_pkts, st.masscan_pkts, st.other_pkts)


# ---------------------------------------------------------------------------
def check_packet_meta(p: PacketMeta) -> None:
    """Raise ValueError unless a decoded packet has the fields its protocol defines."""
    if p.ts_us < 0:
        raise ValueError("negative timestamp")
    is_tcp = p.protocol is Protocol.TCP
    is_udp = p.protocol is Protocol.UDP
    is_icmp = p.protocol is Protocol.ICMP
    if (p.src_port is not None) != (is_tcp or is_udp):
        raise ValueError("src_port present iff TCP or UDP")
    if (p.dst_port is not None) != (is_tcp or is_udp):
        raise ValueError("dst_port present iff TCP or UDP")
    if (p.tcp_flags is not None) != is_tcp:
        raise ValueError("tcp_flags present iff TCP")
    if (p.tcp_seq is not None) != is_tcp:
        raise ValueError("tcp_seq present iff TCP")
    if (p.icmp_type is not None) != is_icmp:
        raise ValueError("icmp_type present iff ICMP")
    if not 0 <= p.ip_id <= 0xFFFF:
        raise ValueError("ip_id out of range")


# Event-log codec oracles: the json.dumps encoder and the dict decoder that
# the package's template encoder and lean decoder replaced.


def oracle_event_json_line(ev: DarknetEvent) -> str:
    return json.dumps(
        {
            "key": {
                "src_ip": int_to_ip(ev.src_ip),
                "dst_port": ev.dst_port,
                "traffic_type": _TYPES[ev.traffic_type].value,
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


# The traffic types in the order of their index in an event, read here off
# the enum itself.
_TYPES = list(TrafficType)
TYPE_INDEX = {ttype: i for i, ttype in enumerate(_TYPES)}
# The timestamps whose UTC day a datetime.date can hold.
_FIRST_TS = (date.min - date(1970, 1, 1)).days * US_PER_DAY
_LAST_TS = ((date.max - date(1970, 1, 1)).days + 1) * US_PER_DAY - 1


def decode_event(line: str, ips: Optional[Dict[str, int]] = None) -> tuple:
    """One event-log line through the pipeline's decoder, as the row read_event_log
    yields; ValueError also on a blank line."""
    (row,) = _check_events(_json_rows((line,), {} if ips is None else ips))
    return row


def oracle_event_from_json_line(line: str) -> DarknetEvent:
    """One event-log line decoded with json.loads and every rule checked here,
    one at a time, on the decoded values; ValueError on any broken rule."""
    obj = json.loads(line)
    key = obj["key"]
    port = key["dst_port"]
    ttype = TrafficType(key["traffic_type"])
    counts = [obj[name] for name in ("start_ts", "end_ts", "pkt_count", "unique_dst_count",
                                      "zmap_pkts", "masscan_pkts", "other_pkts")]
    for value in (port, *counts):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{value!r} is not a JSON integer")
    start, end, pkts, dsts, zmap, masscan, other = counts
    if not (_FIRST_TS <= start and start <= end and end <= _LAST_TS):
        raise ValueError("a timestamp out of order or with no UTC day")
    if any(count < 0 for count in (zmap, masscan, other)):
        raise ValueError("a negative tool counter")
    if any(count >= 2 ** 63 for count in (pkts, dsts, zmap, masscan, other)):
        raise ValueError("a count that a signed 64-bit integer cannot hold")
    if pkts < 1 or dsts < 1 or dsts > pkts:
        raise ValueError("pkt_count or unique_dst_count out of range")
    if zmap + masscan + other != pkts:
        raise ValueError("the tool counters do not sum to pkt_count")
    if port < 0 or port > 65535 or (ttype is TrafficType.ICMP_ECHO_REQUEST and port != 0):
        raise ValueError("dst_port out of range for its traffic type")
    return DarknetEvent(ip_to_int(key["src_ip"]), port, TYPE_INDEX[ttype], *counts)


def synthetic_events(
    n: int, sources: int, ports: int, days: int, seed: int
) -> Iterator[DarknetEvent]:
    """n valid events from a fixed population, built directly with no JSON.

    Source i (of `sources`, from 198.18.0.0 up) probes only the first
    (i + 1) * ports // sources of `ports` TCP ports, so daily port breadth
    grows with the source index; one event in 16 is UDP and one in 16 ICMP
    echo. Start times spread over `days` UTC days from 2022-06-01, and each
    event lasts under 10 minutes and holds 1 to 99 packets.
    """
    rand = random.Random(seed).random  # int(rand() * k) is cheaper than randrange(k)
    base = ip_to_int("198.18.0.0")
    day0 = 1654041600 * US
    span = days * 86_400 * US
    for _ in range(n):
        src = int(rand() * sources)
        kind = int(rand() * 16)
        if kind == 0:
            ttype, port = TrafficType.ICMP_ECHO_REQUEST, 0
        else:
            ttype = TrafficType.UDP if kind == 1 else TrafficType.TCP_SYN
            port = 1 + int(rand() * max(1, (src + 1) * ports // sources))
        start = day0 + int(rand() * span)
        pkts = 1 + int(rand() * 99)
        zmap = int(rand() * (pkts + 1))
        masscan = int(rand() * (pkts - zmap + 1))
        yield DarknetEvent(base + src, port, TYPE_INDEX[ttype], start,
                           start + int(rand() * 600 * US), pkts, 1 + int(rand() * pkts),
                           zmap, masscan, pkts - zmap - masscan)


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



def write_pcap(path, packets, linktype: int = 1, snaplen: int = 65535) -> int:
    """Write (ts_us, frame_bytes) pairs as a little-endian classic pcap.

    Returns the number of records written. Frames longer than snaplen are
    stored truncated with orig_len preserved, mirroring capture behavior.
    """
    rec_hdr = struct.Struct("<IIII")
    count = 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, linktype))
        for ts_us, frame in packets:
            caplen = min(len(frame), snaplen)
            fh.write(rec_hdr.pack(ts_us // 1_000_000, ts_us % 1_000_000, caplen, len(frame)))
            fh.write(frame[:caplen])
            count += 1
    return count

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


def flow_json_line(rec: FlowRecord) -> str:
    """One JSONL flow line, each field of its JSON type, as an exporter writes it."""
    return json.dumps({
        "router_id": rec.router_id, "ts_us": rec.ts_us, "direction": rec.direction.value,
        "src_ip": int_to_ip(rec.src_ip), "dst_ip": int_to_ip(rec.dst_ip),
        "protocol": rec.protocol.value, "src_port": rec.src_port, "dst_port": rec.dst_port,
        "sampled_pkts": rec.sampled_pkts, "sampling_denominator": rec.sampling_denominator,
        "tcp_flags": None if rec.tcp_flags is None else flags_to_letters(rec.tcp_flags),
    }) + "\n"


def write_flows_csv(path, records: Iterable[FlowRecord], extra_rows=()) -> None:
    """A flow CSV holding records, then extra_rows as given."""
    write_csv(path, FLOW_CSV_FIELDS, [*map(flow_csv_row, records), *extra_rows])


def _build_record(
    router_id: str,
    ts_us: int,
    direction: str,
    src_ip: str,
    dst_ip: str,
    protocol: str,
    src_port: Optional[int],
    dst_port: Optional[int],
    sampled_pkts: int,
    sampling_denominator: int,
    tcp_flags: Optional[str],
) -> FlowRecord:
    """Validate one logical row. Raises ValueError on any constraint breach."""
    if not router_id:
        raise ValueError("empty router_id")
    if ts_us < 0:
        raise ValueError("negative ts_us")
    if ts_us // (86_400 * US) > (date.max - date(1970, 1, 1)).days:
        raise ValueError("ts_us past 9999-12-31")
    proto = Protocol(protocol)
    has_ports = proto is not Protocol.ICMP
    if has_ports:
        if src_port is None or dst_port is None:
            raise ValueError("tcp/udp rows need both ports")
        if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
            raise ValueError("port out of range")
    else:
        if src_port is not None or dst_port is not None:
            raise ValueError("icmp rows must not carry ports")
    if sampled_pkts < 1:
        raise ValueError("sampled_pkts must be >= 1")
    if sampling_denominator < 1:
        raise ValueError("sampling_denominator must be >= 1")
    flags = None
    if tcp_flags:
        if proto is not Protocol.TCP:
            raise ValueError("tcp_flags on a non-tcp row")
        flags = letters_to_flags(tcp_flags)
    return FlowRecord(
        router_id=router_id,
        ts_us=ts_us,
        direction=Direction(direction),
        src_ip=ip_to_int(src_ip),
        dst_ip=ip_to_int(dst_ip),
        protocol=proto,
        src_port=src_port,
        dst_port=dst_port,
        sampled_pkts=sampled_pkts,
        sampling_denominator=sampling_denominator,
        tcp_flags=flags,
    )


def _dec(text: str) -> int:
    """Canonical decimal only: int() alone also takes "+1", " 53" and "1_0"."""
    if not re.fullmatch(r"0|[1-9][0-9]*", text, re.ASCII):
        raise ValueError(f"{text!r} is not canonical decimal")
    return int(text)


def _opt_int(text: str) -> Optional[int]:
    return _dec(text) if text != "" else None


def _json_int(value, optional: bool = False) -> Optional[int]:
    """A JSON integer as such; a float, bool or string is a ValueError."""
    if optional and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not a JSON integer")
    return value


def _json_str(value, optional: bool = False) -> Optional[str]:
    if optional and value is None:
        return None
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a JSON string")
    return value


def oracle_flow_rows(path) -> Tuple[List[FlowRecord], int]:
    """The keyword-built, record-per-row flow reader FlowReader replaced.

    Returns (records, invalid_rows). The file is JSONL when its first line
    that is not blank starts with "{", and CSV otherwise. A CSV with a bad
    header raises ValueError. JSONL rows must carry exact JSON types.
    """
    records: List[FlowRecord] = []
    invalid = 0
    with open(path, "rb") as fh:
        first = next(filter(None, (line.strip(b" \t\r\n") for line in fh)), b"")
    if not first.startswith(b"{"):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != FLOW_CSV_FIELDS:
                raise ValueError(f"{path}: not a flow CSV")
            for row in reader:
                if len(row) != len(FLOW_CSV_FIELDS):
                    invalid += 1
                    continue
                try:
                    records.append(_build_record(
                        router_id=row[0],
                        ts_us=_dec(row[1]),
                        direction=row[2],
                        src_ip=row[3],
                        dst_ip=row[4],
                        protocol=row[5],
                        src_port=_opt_int(row[6]),
                        dst_port=_opt_int(row[7]),
                        sampled_pkts=_dec(row[8]),
                        sampling_denominator=_dec(row[9]),
                        tcp_flags=row[10] or None,
                    ))
                except ValueError:
                    invalid += 1
        return records, invalid
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip(" \t\r\n")
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("row is not an object")
                records.append(_build_record(
                    router_id=_json_str(obj["router_id"]),
                    ts_us=_json_int(obj["ts_us"]),
                    direction=_json_str(obj["direction"]),
                    src_ip=_json_str(obj["src_ip"]),
                    dst_ip=_json_str(obj["dst_ip"]),
                    protocol=_json_str(obj["protocol"]),
                    src_port=_json_int(obj.get("src_port"), optional=True),
                    dst_port=_json_int(obj.get("dst_port"), optional=True),
                    sampled_pkts=_json_int(obj["sampled_pkts"]),
                    sampling_denominator=_json_int(obj["sampling_denominator"]),
                    tcp_flags=_json_str(obj.get("tcp_flags"), optional=True),
                ))
            except (ValueError, KeyError):
                invalid += 1
    return records, invalid


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
        return _TYPES[ev.traffic_type] is TrafficType.ICMP_ECHO_REQUEST

    def ports_on(ip: int, day: date) -> int:
        return len({
            (ev.dst_port, ev.traffic_type) for ev in events
            if ev.src_ip == ip and utc_day(ev.start_ts) == day and not is_icmp(ev)
        })

    profile_keys = {(ev.src_ip, utc_day(ev.start_ts)) for ev in events if not is_icmp(ev)}
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
        if not is_icmp(ev) and ports_on(ev.src_ip, utc_day(ev.start_ts)) >= thresholds.ports_threshold:
            defs.add("D3")
        return defs

    tagged = [(ev, defs_of(ev)) for ev in events]
    tagged = [(ev, defs) for ev, defs in tagged if defs]
    verdicts = []
    sidecar = []
    for ip in sorted({ev.src_ip for ev, _ in tagged}):
        mine = [(ev, defs) for ev, defs in tagged if ev.src_ip == ip]
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


def boundary_detection(cfg: DarknetConfig, thresholds: Thresholds):
    """run_detection at fixed thresholds over four sources on their boundaries.

    Sources .1 and .2 send one TCP event each of T and T - 1 packets, T the
    volume threshold; sources .3 and .4 send one-packet TCP events to T and
    T - 1 distinct ports on one day, T the ports threshold. Every event
    reaches one destination. Returns the four addresses and the result.
    """
    srcs = [ip_to_int(f"198.51.100.{i}") for i in (1, 2, 3, 4)]
    start = 1654041600 * US
    tcp = TYPE_INDEX[TrafficType.TCP_SYN]
    events = [DarknetEvent(src, 80, tcp, start, start, pkts, 1, 0, 0, pkts) for src, pkts in
              zip(srcs, (thresholds.volume_threshold_pkts, thresholds.volume_threshold_pkts - 1))]
    for src, ports in zip(srcs[2:], (thresholds.ports_threshold, thresholds.ports_threshold - 1)):
        events += [DarknetEvent(src, port, tcp, start, start, 1, 1, 0, 0, 1)
                   for port in range(ports)]
    return srcs, run_detection(events, cfg, thresholds)


def port_tally(
    events: Iterable[DarknetEvent], ah: Optional[Collection[int]] = None
) -> Dict[Tuple[int, int], List[int]]:
    """The (dst_port, traffic-type index) -> [zmap, masscan, other] tool tally
    that `report` folds, over the events of the sources in ah (all when None)."""
    tally: Dict[Tuple[int, int], List[int]] = {}
    for ev in events:
        if ah is None or ev.src_ip in ah:
            tools = tally.setdefault((ev.dst_port, ev.traffic_type), [0, 0, 0])
            for i, count in enumerate((ev.zmap_pkts, ev.masscan_pkts, ev.other_pkts)):
                tools[i] += count
    return tally


_PROTOCOL_NAME = {"tcp_syn": "tcp", "udp": "udp", "icmp_echo_request": "icmp"}


def oracle_port_table(
    events: Iterable[DarknetEvent], ah: Collection[int]
) -> List[PortFingerprintRow]:
    """ports.csv rows, summed event by event over the AH sources' events."""
    counts: Dict[Tuple[int, str], List[int]] = {}
    for ev in events:
        if ev.src_ip not in ah:
            continue
        cell = counts.setdefault(
            (ev.dst_port, _PROTOCOL_NAME[_TYPES[ev.traffic_type].value]), [0, 0, 0]
        )
        cell[0] += ev.zmap_pkts
        cell[1] += ev.masscan_pkts
        cell[2] += ev.other_pkts
    return sorted(
        (PortFingerprintRow(port, proto, z, m, o, z + m + o)
         for (port, proto), (z, m, o) in counts.items()),
        key=lambda r: (-r.total_pkts, r.port, r.protocol),
    )


def oracle_protocol_mix(events: Iterable[DarknetEvent], ah: Collection[int]) -> ProtocolMix:
    """protocols_darknet.csv's split, from each AH event's packet count."""
    pkts = {ttype: 0 for ttype in TrafficType}
    for ev in events:
        if ev.src_ip in ah:
            pkts[_TYPES[ev.traffic_type]] += ev.pkt_count
    syn, udp, icmp = (pkts[t] for t in (
        TrafficType.TCP_SYN, TrafficType.UDP, TrafficType.ICMP_ECHO_REQUEST))
    total = syn + udp + icmp
    if not total:
        return ProtocolMix(0.0, 0.0, 0.0, 0, 0, 0, 0, 0)
    return ProtocolMix(100.0 * syn / total, 100.0 * udp / total, 100.0 * icmp / total,
                       syn, udp, icmp, total, 0)


def oracle_series_rows(series, num_slash24: int) -> List[tuple]:
    """series.csv's rows from three whole-series lists, zipped with the bins.

    The per-bin fractions, the cumulative fractions over integer prefix sums
    and the per-/24 rates are each built in full first, as separate passes.
    """
    if num_slash24 <= 0:
        raise ValueError("num_slash24 must be positive")
    fractions = [b.ah_pkts / b.total_pkts if b.total_pkts else 0.0 for b in series.bins]
    cumulative = []
    ah_sum = total_sum = 0
    for b in series.bins:
        ah_sum += b.ah_pkts
        total_sum += b.total_pkts
        cumulative.append(ah_sum / total_sum if total_sum else 0.0)
    rates = [b.ah_pkts / series.bin_width_s / num_slash24 for b in series.bins]
    return [
        (b.bin_start_us, b.ah_pkts, b.total_pkts, inst, cum, rate)
        for b, inst, cum, rate in zip(series.bins, fractions, cumulative, rates)
    ]


def dense_series(series, width_us: int) -> ImpactSeries:
    """series with a zero bin for every unlisted window between its first and
    last listed bin: the dense form that series_rows and flag_high_load_bins
    must read a sparse series as.
    """
    listed = {b.bin_start_us: b for b in series.bins}
    starts = sorted(listed)
    full = range(starts[0], starts[-1] + 1, width_us) if starts else ()
    return ImpactSeries(series.bin_width_s, [listed.get(s, ImpactBin(s)) for s in full])


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


def oracle_acked_sources(
    sources: Iterable[int], ip_lines: List[str], keyword_lines: List[str], rdns_lines: List[str]
) -> Dict[int, Optional[str]]:
    """The ACKed matches among sources, read by hand from well-formed feed lines.

    The reference for acked_sources over load_acked and load_rdns. An address
    line is `ip[,org]`, and a blank or missing org names None. The first line
    for a repeated address or keyword (compared lowercased) wins. An address
    entry beats any keyword; otherwise the first keyword, in file order, found
    in the source's lowercased name credits its org.
    """
    org_of_ip: Dict[int, Optional[str]] = {}
    for line in ip_lines:
        ip, _, org = line.partition(",")
        addr = int(ipaddress.IPv4Address(ip))
        if addr not in org_of_ip:
            org_of_ip[addr] = org.strip() or None
    keywords: List[Tuple[str, str]] = []
    for line in keyword_lines:
        keyword, org = line.split(",")
        if keyword.lower() not in [seen for seen, _org in keywords]:
            keywords.append((keyword.lower(), org))
    names: Dict[int, str] = {}
    for line in rdns_lines:
        ip, name = line.split(",")
        addr = int(ipaddress.IPv4Address(ip))
        if addr not in names:
            names[addr] = name.lower()
    matches: Dict[int, Optional[str]] = {}
    for ip in sources:
        if ip in org_of_ip:
            matches[ip] = org_of_ip[ip]
            continue
        hits = [org for keyword, org in keywords if keyword in names.get(ip, "")]
        if hits:
            matches[ip] = hits[0]
    return matches



# ---------------------------------------------------------------------------
# The per-probe synth emitter, kept as the reference for synth.generate.

_SYNTH_ETH = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02" + b"\x08\x00"
_SYNTH_IP = struct.Struct("!BBHHHBBHII")
_SYNTH_TCP = struct.Struct("!HHIIBBHHH")
_SYNTH_UDP = struct.Struct("!HHHH")
_SYNTH_ICMP = struct.Struct("!BBHHH")


def _synth_tcp_frame(src, dst, sport, dport, seq, flags, ip_id) -> bytes:
    ip = _SYNTH_IP.pack(0x45, 0, 40, ip_id, 0, 64, 6, 0, src, dst)
    return _SYNTH_ETH + ip + _SYNTH_TCP.pack(sport, dport, seq, 0, 5 << 4, flags, 8192, 0, 0)


def _synth_udp_frame(src, dst, sport, dport, ip_id) -> bytes:
    ip = _SYNTH_IP.pack(0x45, 0, 28, ip_id, 0, 64, 17, 0, src, dst)
    return _SYNTH_ETH + ip + _SYNTH_UDP.pack(sport, dport, 8, 0)


def _synth_icmp_frame(src, dst, sport, dport, ip_id) -> bytes:
    ip = _SYNTH_IP.pack(0x45, 0, 28, ip_id, 0, 64, 1, 0, src, dst)
    return _SYNTH_ETH + ip + _SYNTH_ICMP.pack(8, 0, 0, src & 0xFFFF, 1)


def _oracle_spread_times(rng, start_us, duration_us, rows, n, timeout_us) -> List[List[int]]:
    """rows lists of n stamps: every row's offset is drawn, then every row's jitter."""
    if n == 1:
        return [[int(start_us + offset)] for offset in rng.integers(0, duration_us, rows).tolist()]
    window = min(duration_us, (n - 1) * timeout_us // 4)
    window = max(window, n - 1)
    offsets = rng.integers(0, duration_us - window + 1, rows).tolist()
    gap = window / (n - 1)
    jitter = rng.uniform(-gap / 4, gap / 4, (rows, n))
    out = []
    for offset, row in zip(offsets, jitter):
        times = np.sort(np.linspace(0, window, n) + row).astype(np.int64) + start_us + offset
        out.append(np.clip(times, start_us, start_us + duration_us - 1).astype(np.int64).tolist())
    return out


def _oracle_subset(rng, size: int, k: int) -> List[int]:
    """k distinct indexes: a permutation's head past half of size, else first draws kept."""
    if 2 * k > size:
        return rng.permutation(size)[:k].tolist()
    picked: List[int] = []
    seen: Set[int] = set()
    while len(picked) < k:
        for index in rng.integers(0, size, k - len(picked)).tolist():
            if index not in seen:
                seen.add(index)
                picked.append(index)
    return picked


def oracle_other_ip_id(rng, *marks: int) -> int:
    """One scalar IP ID draw after another until one is neither zmap's mark nor in marks."""
    while True:
        candidate = int(rng.integers(0, 65536))
        if candidate != ZMAP_IP_ID and candidate not in marks:
            return candidate


def _oracle_flows(sc, rng, sources: List[dict], out_dir: Path) -> dict:
    """The flow file, one row at a time, from the draws synth makes per router."""
    total = sc.flow_total_pkts
    ah_total = round(total * sc.flow_ah_share)
    ah_ips = [e["ip"] for e in sources if e["kind"] != "noise"]
    talkers = []
    for i, ip in enumerate(ah_ips):
        count = ah_total // len(ah_ips) + (i < ah_total % len(ah_ips))
        talkers.append((ip, count, "tcp", 40000 + (ip_to_int(ip) & 0xFF), 23, "S"))
    benign = total - ah_total
    for i in range(sc.flow_benign_sources):
        count = benign // sc.flow_benign_sources + (i < benign % sc.flow_benign_sources)
        src = ip_to_int("100.64.0.1") + i
        talkers.append((int_to_ip(src), count, "udp", 53, 53, "") if src % 2 == 0
                       else (int_to_ip(src), count, "tcp", 443, 30000 + (src & 0xFF), "SA"))
    start_us = int(sc.start_ts_s * US_PER_S)
    denom = sc.flow_sampling_denominator
    rows = []
    for router in sc.flow_routers:
        sampled = rng.binomial([count for _ip, count, *_rest in talkers], 1.0 / denom).tolist()
        kept = [t for t, pkts in enumerate(sampled) if pkts]
        stamps = rng.integers(0, sc.duration_s * US_PER_S, len(kept)).tolist()
        dsts = rng.integers(1, 65000, len(kept)).tolist()
        for t, stamp, dst in zip(kept, stamps, dsts):
            src, _count, proto, sport, dport, flags = talkers[t]
            rows.append([router, start_us + stamp, "I", src, f"172.16.{dst >> 8}.{dst & 0xFF}",
                         proto, sport, dport, sampled[t], denom, flags])
    write_csv(out_dir / "flows.csv", FLOW_CSV_FIELDS, rows)
    return {
        "routers": list(sc.flow_routers), "sampling_denominator": denom,
        "ah_share": ah_total / total, "ah_presampled_pkts": ah_total,
        "total_presampled_pkts": total,
        "per_router": {r: {"ah_presampled": ah_total, "total_presampled": total}
                       for r in sc.flow_routers},
        "ah_sources": ah_ips, "rows": len(rows),
    }


def oracle_synth(sc, seed: int, out_dir) -> None:
    """synth.generate's outputs for a valid scenario, one probe and one row at a time.

    It makes synth's draws in synth's order: a source block's stamps, then its
    destinations (and, for noise, its ports), then per block the TCP sequence
    numbers; each IP ID comes from scalar draws. Each probe is packed into its
    own frame and kept as a (stamp, frame) pair; the pairs are sorted by stamp
    (stably) and written with write_pcap. Each manifest entry is counted from
    Python sets over its source's probes, and each flow row is built on its own.
    """
    cfg = DarknetConfig(darknet_prefixes=sc.darknet_prefixes, event_timeout_s=sc.event_timeout_s,
                        dispersion_fraction=sc.dispersion_fraction)
    size = cfg.darknet_size
    subset_size = round(sc.partial_coverage_fraction * size)
    dark = np.concatenate([np.arange(first, last + 1, dtype=np.int64)
                           for first, last in zip(cfg.range_starts, cfg.range_ends)]).tolist()
    start_us = sc.start_ts_s * US_PER_S
    duration_us = sc.duration_s * US_PER_S
    timeout_us = round(cfg.event_timeout_s * US_PER_S)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    records: List[Tuple[int, bytes]] = []
    sources: List[dict] = []
    scanner_ips = itertools.count((198 << 24) | (18 << 16) | 1)

    def spread(rows, n):
        return _oracle_spread_times(rng, start_us, duration_us, rows, n, timeout_us)

    def scan(ips, kind, ttype, tool, dsts, times, ports):
        """ips[r] sends dsts[r] at times[r], on ports[r][j] (lists of lists)."""
        if tool == "masscan" and ttype != "tcp_syn":
            tool = "other"
        n = len(dsts[0])
        seqs = [[0] * n] * len(ips)
        if ttype == "tcp_syn":
            flat = rng.integers(0, 2 ** 32, len(ips) * n, dtype=np.uint32).tolist()
            seqs = [flat[r * n:(r + 1) * n] for r in range(len(ips))]
        for ip, dst_row, time_row, port_row, seq_row in zip(ips, dsts, times, ports, seqs):
            sport = 40000 + (ip & 0x3FF)
            for ts, dst, port, seq in zip(time_row, dst_row, port_row, seq_row):
                mark = masscan_ip_id(dst, port, seq)
                if ttype == "tcp_syn":
                    ip_id = (ZMAP_IP_ID if tool == "zmap" else mark if tool == "masscan"
                             else oracle_other_ip_id(rng, mark))
                    frame = _synth_tcp_frame(ip, dst, sport, port, seq, 0x02, ip_id)
                else:
                    ip_id = ZMAP_IP_ID if tool == "zmap" else oracle_other_ip_id(rng)
                    pack = _synth_udp_frame if ttype == "udp" else _synth_icmp_frame
                    frame = pack(ip, dst, sport, port, ip_id)
                records.append((ts, frame))
        for ip, dst_row, time_row, port_row in zip(ips, dsts, times, ports):
            day_ports = set() if ttype == "icmp_echo_request" else {
                (ts // US_PER_DAY, port) for ts, port in zip(time_row, port_row)}
            per_day = Counter(day for day, _port in day_ports)
            unique_dsts = len(set(dst_row))
            sources.append({
                "ip": int_to_ip(ip), "kind": kind, "traffic_type": ttype,
                "ports": sorted({port for _day, port in day_ports}), "tool": tool, "pkts": n,
                "unique_dsts": unique_dsts, "coverage": unique_dsts / size,
                "day_ports": {(date(1970, 1, 1) + timedelta(days=day)).isoformat(): count
                              for day, count in sorted(per_day.items())},
            })

    def dark_rows(indexes, rows, n):
        return [[dark[i] for i in indexes[r * n:(r + 1) * n]] for r in range(rows)]

    tools = sc.tools_cycle
    for i in range(sc.full_coverage_scanners):
        ttype = sc.full_scanner_types[i % len(sc.full_scanner_types)]
        dsts = [d for _ in range(sc.full_scanner_repeats) for d in rng.permutation(dark).tolist()]
        scan([next(scanner_ips)], "full", ttype, tools[i % len(tools)], [dsts],
             spread(1, len(dsts)), [[_pool_port(ttype, i)] * len(dsts)])
    for i in range(sc.partial_scanners):
        ttype = sc.partial_scanner_types[i % len(sc.partial_scanner_types)]
        dsts = [dark[index] for index in _oracle_subset(rng, size, subset_size)]
        tool = tools[(i + sc.full_coverage_scanners) % len(tools)]
        scan([next(scanner_ips)], "partial", ttype, tool, [dsts], spread(1, subset_size),
             [[_pool_port(ttype, i + 3)] * subset_size])
    for i in range(sc.port_sweep_scanners):
        n = sc.sweep_ports * sc.sweep_pkts_per_port
        times = spread(1, n)
        dsts = dark_rows(rng.integers(0, size, n).tolist(), 1, n)
        scan([next(scanner_ips)], "sweep", "tcp_syn", tools[(i + 1) % len(tools)], dsts, times,
             [[1000 + j % sc.sweep_ports for j in range(n)]])
    count, n = sc.noise_sources, sc.noise_pkts_per_source
    if count:
        times = spread(count, n)
        dsts = dark_rows(rng.integers(0, size, count * n).tolist(), count, n)
        ports = rng.integers(1, 65536, count).tolist()
        for k, ttype in enumerate(("udp", "tcp_syn", "icmp_echo_request")):
            block = range(k, count, 3)
            if not block:
                continue
            scan([ip_to_int("203.0.113.1") + i for i in block], "noise", ttype, "other",
                 [dsts[i] for i in block], [times[i] for i in block],
                 [[0 if ttype == "icmp_echo_request" else ports[i]] * n for i in block])
    backscatter = sc.backscatter_pkts
    if backscatter:
        [times] = spread(1, backscatter)
        [dsts] = dark_rows(rng.integers(0, size, backscatter).tolist(), 1, backscatter)
        seqs = rng.integers(0, 2 ** 32, backscatter, dtype=np.uint32).tolist()
        for j, (ts, dst, seq) in enumerate(zip(times, dsts, seqs)):
            victim = ip_to_int("192.0.2.1") + j % 250
            ip_id = oracle_other_ip_id(rng)
            records.append((ts, _synth_tcp_frame(victim, dst, 80, 40000 + j % 1000, seq, 0x12,
                                                 ip_id)))
    records.sort(key=lambda r: r[0])
    write_pcap(out_dir / "synth.pcap", records)
    manifest = {
        "seed": seed, "scenario": sc.to_dict(), "darknet_size": size,
        "pcap_packets": len(records), "scanning_pkts": len(records) - backscatter,
        "non_scanning_pkts": backscatter, "sources": sources,
        "d1_expected": sorted((e["ip"] for e in sources if e["kind"] != "noise"
                               and e["coverage"] >= sc.dispersion_fraction), key=ip_to_int),
    }
    if sc.flow_total_pkts > 0:
        manifest["flows"] = _oracle_flows(sc, rng, sources, out_dir)
    write_json(out_dir / "manifest.json", manifest)
