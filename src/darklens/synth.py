"""Seeded synthetic captures with known ground truth.

Builds a pcap full of scripted scanner populations (full-coverage sweeps,
partial scanners, port sweepers, low-rate noise, backscatter), an exact
manifest of what every source did, and optionally a 1:k-thinned flow CSV for
impact validation. Same seed, same scenario, byte-identical outputs, which is
what makes the end-to-end acceptance checks meaningful.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import struct
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import date, timedelta
from pathlib import Path
from typing import List

import numpy as np

from .fingerprint import ZMAP_IP_ID, masscan_ip_id
from .flows import FLOW_CSV_FIELDS
from .model import (
    US_PER_DAY, US_PER_S, DarknetConfig, TrafficType, int_to_ip, ip_to_int, write_json,
)
from .pcap import LINKTYPE_ETHERNET, MAGIC_US_BE

_EPOCH = date(1970, 1, 1)

_ETH_HDR = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02" + b"\x08\x00"

TCP_PORT_POOL = [23, 80, 443, 22, 3389, 8080, 445, 5555, 2323, 8443]
UDP_PORT_POOL = [53, 123, 161, 1900, 5060, 389, 11211, 500, 69, 5683]

# One pcap record per probe: the little-endian record header, then Ethernet,
# IPv4 and the transport header in network order. Fields named like a probe
# column are filled from it; every other field is fixed per kind of probe.
_RECORD_HDR = [("ts_sec", "<u4"), ("ts_usec", "<u4"), ("caplen", "<u4"), ("origlen", "<u4"),
               ("eth", "V14"), ("vihl", "u1"), ("tos", "u1"), ("ip_len", ">u2"),
               ("ip_id", ">u2"), ("frag", ">u2"), ("ttl", "u1"), ("proto", "u1"),
               ("ip_sum", ">u2"), ("src", ">u4"), ("dst", ">u4")]
_TCP = np.dtype(_RECORD_HDR + [("sport", ">u2"), ("dport", ">u2"), ("seq", ">u4"), ("ack", ">u4"),
                               ("offset", "u1"), ("flags", "u1"), ("window", ">u2"),
                               ("l4_sum", ">u2"), ("urgent", ">u2")])
_UDP = np.dtype(_RECORD_HDR + [("sport", ">u2"), ("dport", ">u2"), ("udp_len", ">u2"),
                               ("l4_sum", ">u2")])
# An echo request has no ports; its identifier is the source's low 16 bits.
_ICMP = np.dtype(_RECORD_HDR + [("type", "u1"), ("code", "u1"), ("l4_sum", ">u2"),
                                ("ident", ">u2"), ("icmp_seq", ">u2")])

# Every probe's columns, in emission order. template indexes _TEMPLATES, ts is
# split into the record's two stamp fields, and each other column fills the
# field of its name.
_COLUMNS = (("ts", np.int64), ("template", np.uint8), ("src", np.uint32), ("dst", np.uint32),
            ("sport", np.uint16), ("dport", np.uint16), ("seq", np.uint32), ("ip_id", np.uint16))


def _template(dtype: np.dtype, **fixed: int) -> np.ndarray:
    """One record of dtype holding every field that is the same on each probe of its kind."""
    rec = np.zeros((), dtype)
    rec["caplen"] = rec["origlen"] = dtype.itemsize - 16
    rec["eth"] = np.void(_ETH_HDR)
    rec["vihl"], rec["ip_len"], rec["ttl"] = 0x45, dtype.itemsize - 30, 64
    for name, value in fixed.items():
        rec[name] = value
    return rec


# Indexed by the template column: a SYN probe, a SYN-ACK (backscatter), a UDP
# probe, an ICMP echo request.
_TEMPLATES = (
    _template(_TCP, proto=6, offset=5 << 4, flags=0x02, window=8192),
    _template(_TCP, proto=6, offset=5 << 4, flags=0x12, window=8192),
    _template(_UDP, proto=17, udp_len=8),
    _template(_ICMP, proto=1, type=8, icmp_seq=1),
)
_TEMPLATE_OF = {"tcp_syn": 0, "udp": 2, "icmp_echo_request": 3}
_SYN_ACK = 1
# Row k holds which of a slot's bytes a record from template k fills.
_FILLED = np.arange(_TCP.itemsize) < np.array([t.itemsize for t in _TEMPLATES])[:, None]
# Records built and written at a time; bounds the writer's scratch memory.
_WRITE_ROWS = 1 << 14


@dataclass
class SynthScenario:
    darknet_prefixes: List[str] = field(default_factory=lambda: ["10.0.0.0/22"])
    start_ts_s: int = 1654041600  # 2022-06-01T00:00:00Z, any day-aligned epoch works
    duration_s: int = 600
    event_timeout_s: float = 600.0
    dispersion_fraction: float = 0.10
    full_coverage_scanners: int = 5
    full_scanner_repeats: int = 1
    full_scanner_types: List[str] = field(default_factory=lambda: ["tcp_syn"])
    partial_scanners: int = 45
    partial_coverage_fraction: float = 0.02
    partial_scanner_types: List[str] = field(
        default_factory=lambda: ["tcp_syn", "udp", "icmp_echo_request"]
    )
    port_sweep_scanners: int = 0
    sweep_ports: int = 100
    sweep_pkts_per_port: int = 1
    noise_sources: int = 10
    noise_pkts_per_source: int = 5
    backscatter_pkts: int = 50
    tools_cycle: List[str] = field(default_factory=lambda: ["zmap", "masscan", "other"])
    flow_routers: List[str] = field(default_factory=lambda: ["router-1"])
    flow_sampling_denominator: int = 1000
    flow_total_pkts: int = 0
    flow_ah_share: float = 0.10
    flow_benign_sources: int = 50

    @classmethod
    def from_json_file(cls, path) -> "SynthScenario":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except RecursionError:
                raise ValueError(f"{path}: scenario JSON nested too deeply") from None
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: a scenario is a JSON object, not {type(obj).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"{path}: unknown scenario keys: {sorted(unknown)}")
        return cls(**obj)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_COUNTS = (
    "full_coverage_scanners", "full_scanner_repeats", "partial_scanners", "port_sweep_scanners",
    "sweep_ports", "sweep_pkts_per_port", "noise_sources", "noise_pkts_per_source",
    "backscatter_pkts", "flow_sampling_denominator", "flow_total_pkts", "flow_benign_sources",
)
# (count, population): a present population sends at least one probe or row
# per source, and the flow sampler divides by its denominator.
_AT_LEAST_ONE = (
    ("full_scanner_repeats", "full_coverage_scanners"), ("sweep_ports", "port_sweep_scanners"),
    ("sweep_pkts_per_port", "port_sweep_scanners"), ("noise_pkts_per_source", "noise_sources"),
    ("flow_sampling_denominator", "flow_total_pkts"), ("flow_benign_sources", "flow_total_pkts"),
)
_NUMBERS = ("start_ts_s", "duration_s", "event_timeout_s", "dispersion_fraction",
            "partial_coverage_fraction", "flow_ah_share")
_TYPES = [t.value for t in TrafficType]
_CHOICES = (("full_scanner_types", _TYPES), ("partial_scanner_types", _TYPES),
            ("tools_cycle", ["zmap", "masscan", "other"]))


def _spread_times(rng: np.random.Generator, start_us: int, duration_us: int, rows: int, n: int,
                  timeout_us: int) -> np.ndarray:
    """rows x n integer timestamps, each row ascending, whose gaps stay well under the timeout."""
    if n == 1:
        return (start_us + rng.integers(0, duration_us, (rows, 1))).astype(np.int64)
    window = min(duration_us, (n - 1) * timeout_us // 4)
    window = max(window, n - 1)  # at least 1us spacing
    offsets = rng.integers(0, duration_us - window + 1, (rows, 1))
    gap = window / (n - 1)
    base = np.arange(n) * gap  # np.linspace(0, window, n), without its call overhead
    base[-1] = window
    base = base + rng.uniform(-gap / 4, gap / 4, (rows, n))
    base.sort(axis=1)
    times = base.astype(np.int64) + start_us + offsets
    # Clamped into the capture; a fractional start_ts_s makes the sum float,
    # and the cast truncates it to whole microseconds.
    times = np.minimum(np.maximum(times, start_us), start_us + duration_us - 1)
    return times.astype(np.int64, copy=False)


def _other_ip_ids(rng: np.random.Generator, n: int, marks=None) -> np.ndarray:
    """n IP IDs, none zmap's constant or its own probe's mark in marks (if given).

    marks holds n marks in any shape, read in C order. The draws and the
    generator's end state are those of drawing each probe's ID in turn until
    one passes: a rejected draw is skipped, and the draws after it move down
    one probe, to be checked against their new probe's mark.
    """
    ids = rng.integers(0, 65536, n)
    if marks is not None:
        marks = marks.reshape(-1)
    done = 0
    while True:
        rest = ids[done:]
        bad = rest == ZMAP_IP_ID
        if marks is not None:
            bad |= rest == marks[done:]
        hit = int(bad.argmax())
        if not bad[hit]:
            return ids
        done += hit
        ids[done:-1] = ids[done + 1:]
        ids[-1] = rng.integers(0, 65536)


def _write_capture(path, cols: dict) -> None:
    """Write every probe's record to a little-endian classic pcap, in stamp order.

    The stable sort keeps emission order among equal stamps. Records are built
    _WRITE_ROWS at a time, from each template through its own dtype, into slots
    as wide as the widest record; the bytes each record fills are written back
    to back.
    """
    order = np.argsort(cols["ts"], kind="stable")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", MAGIC_US_BE, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET))
        for start in range(0, len(order), _WRITE_ROWS):
            idx = order[start:start + _WRITE_ROWS]
            templates = cols["template"][idx]
            slots = np.empty((len(idx), _TCP.itemsize), np.uint8)
            for code, template in enumerate(_TEMPLATES):
                rows = templates == code
                at = idx[rows]
                if not len(at):
                    continue
                rec = np.tile(template, len(at))
                rec["ts_sec"], rec["ts_usec"] = np.divmod(cols["ts"][at], US_PER_S)
                for name in rec.dtype.names:
                    if name in cols:
                        rec[name] = cols[name][at]
                if "ident" in rec.dtype.names:
                    rec["ident"] = rec["src"] & 0xFFFF
                slots[rows, :rec.itemsize] = rec.view(np.uint8).reshape(len(at), -1)
            fh.write(slots[_FILLED[templates]])


def _subset(rng: np.random.Generator, size: int, k: int) -> np.ndarray:
    """k distinct indexes below size, in random order, in O(k) memory.

    Past half of size a permutation is at most 2k. Below it, each round draws
    the shortfall with replacement and keeps every value's first draw, so no
    array of all size indexes is built.
    """
    if 2 * k > size:
        return rng.permutation(size)[:k]
    picked = np.empty(0, np.int64)
    while len(picked) < k:
        drawn = np.concatenate([picked, rng.integers(0, size, k - len(picked))])
        # (index, draw number) pairs, sorted: each index's first draw leads its run.
        keyed = np.sort(drawn.astype(np.uint64) << 32 | np.arange(len(drawn), dtype=np.uint64))
        leads = np.ones(len(keyed), bool)
        np.not_equal(keyed[1:] >> 32, keyed[:-1] >> 32, out=leads[1:])
        picked = drawn[np.sort((keyed[leads] & 0xFFFFFFFF).astype(np.int64))]
    return picked


def _firsts(a: np.ndarray) -> tuple:
    """a sorted along its rows, and a mask of each value's first place in its row."""
    a = np.sort(a, axis=1)
    first = np.ones(a.shape, bool)
    np.not_equal(a[:, 1:], a[:, :-1], out=first[:, 1:])
    return a, first


def _split_evenly(total: int, parts: int) -> List[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _pool_port(ttype: str, index: int) -> int:
    """The index-th port of the traffic type's pool; an echo request has none."""
    if ttype == "icmp_echo_request":
        return 0
    pool = TCP_PORT_POOL if ttype == "tcp_syn" else UDP_PORT_POOL
    return pool[index % len(pool)]


def generate(scenario: SynthScenario, seed: int, out_dir) -> dict:
    """Write synth.pcap, manifest.json and (if configured) flows.csv.

    Returns the manifest as a dict. All randomness flows from one seeded
    generator so reruns are byte-identical. A scenario that would send other
    traffic than it names, or none, raises ValueError naming its key before
    the first draw.
    """
    sc = scenario
    for name in _COUNTS:
        value = getattr(sc, name)
        if type(value) is not int:  # bool is a subclass of int
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value < 0:
            raise ValueError(f"{name} {value} is below 0")
    for name, population in _AT_LEAST_ONE:
        if getattr(sc, population) > 0 and getattr(sc, name) < 1:
            raise ValueError(f"{name} {getattr(sc, name)} is below 1")
    for name in _NUMBERS:
        if type(getattr(sc, name)) not in (int, float):
            raise ValueError(f"{name} must be a number, not {getattr(sc, name)!r}")
    for name, allowed in _CHOICES:
        value = getattr(sc, name)
        if not (isinstance(value, (list, tuple)) and value and all(v in allowed for v in value)):
            raise ValueError(f"{name} must be a non-empty list drawn from {allowed}, not {value!r}")
    for name in ("partial_coverage_fraction", "flow_ah_share"):
        if not 0 <= getattr(sc, name) <= 1:
            raise ValueError(f"{name} {getattr(sc, name)} not in [0, 1]")
    if not sc.duration_s * US_PER_S >= 1:
        raise ValueError(f"duration_s {sc.duration_s} must be at least 1 us")
    # Every probe is stamped before start + duration, in classic pcap's u32 seconds.
    if not (0 <= sc.start_ts_s and sc.start_ts_s + sc.duration_s <= 1 << 32):
        raise ValueError(f"start_ts_s {sc.start_ts_s} + duration_s {sc.duration_s} "
                         "must lie within classic pcap's u32 seconds")
    if sc.flow_total_pkts > 0 and not (
            sc.full_coverage_scanners or sc.partial_scanners or sc.port_sweep_scanners):
        raise ValueError(f"flow_total_pkts {sc.flow_total_pkts} needs at least one scanner source")
    routers = sc.flow_routers
    if sc.flow_total_pkts > 0 and not (
            isinstance(routers, (list, tuple)) and routers
            and all(type(r) is str and r for r in routers) and len(set(routers)) == len(routers)):
        raise ValueError(
            f"flow_routers must be a non-empty list of distinct non-empty strings, not {routers!r}")
    # The telescope is checked the way a config file is: overlapping or too
    # small prefixes, a timeout under 1 us and a dispersion fraction outside
    # (0, 1] raise ConfigError.
    cfg = DarknetConfig(darknet_prefixes=sc.darknet_prefixes, event_timeout_s=sc.event_timeout_s,
                        dispersion_fraction=sc.dispersion_fraction)
    size = cfg.darknet_size
    subset_size = round(sc.partial_coverage_fraction * size)
    if sc.partial_scanners > 0 and subset_size < 1:
        raise ValueError(f"partial_coverage_fraction {sc.partial_coverage_fraction} "
                         f"covers no address of the {size}-address darknet")

    # Destinations are drawn as indexes into the sorted darknet, the draws an
    # array of all its addresses would take, so no such array is built.
    range_starts = np.array(cfg.range_starts, dtype=np.int64)
    range_offsets = np.cumsum([0] + [last + 1 - first for first, last
                                     in zip(cfg.range_starts, cfg.range_ends)])[:-1]

    def dark(indexes: np.ndarray) -> np.ndarray:
        """The darknet addresses at these indexes into the sorted darknet."""
        ranges = np.searchsorted(range_offsets, indexes, side="right") - 1
        return indexes + (range_starts - range_offsets)[ranges]

    start_us = sc.start_ts_s * US_PER_S
    duration_us = sc.duration_s * US_PER_S
    timeout_us = round(cfg.event_timeout_s * US_PER_S)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    # Every probe's columns, filled source by source in emission order.
    backscatter = sc.backscatter_pkts
    total = (sc.full_coverage_scanners * sc.full_scanner_repeats * size
             + sc.partial_scanners * subset_size
             + sc.port_sweep_scanners * sc.sweep_ports * sc.sweep_pkts_per_port
             + sc.noise_sources * sc.noise_pkts_per_source + backscatter)
    cols = {name: np.zeros(total, dtype) for name, dtype in _COLUMNS}
    filled = 0
    sources: List[dict] = []

    # Source address plan: scanners 198.18.0.0/15, noise 203.0.113.0/24,
    # backscatter victims 192.0.2.0/24, benign flow talkers 100.64.0.0/16.
    scanner_ips = itertools.count((198 << 24) | (18 << 16) | 1)
    noise_base = (203 << 24) | (0 << 16) | (113 << 8)
    victim_base = (192 << 24) | (0 << 16) | (2 << 8)

    def emit(rows: int, n: int, **values) -> None:
        """Fill the next rows x n probes, row after row; each value broadcasts to rows x n."""
        nonlocal filled
        for name, value in values.items():
            cols[name][filled:filled + rows * n].reshape(rows, n)[...] = value
        filled += rows * n

    def scan(ips, kind: str, ttype: str, tool: str, dsts: np.ndarray, times: np.ndarray,
             ports) -> None:
        """Emit a block of sources' probes, then each source's manifest entry from its row.

        The sources share kind, type and tool; row r of dsts and times (rows x
        n) holds the probes of ips[r]. ports broadcasts to rows x n: one port,
        a column of one per row, or one per probe.
        """
        if tool == "masscan" and ttype != "tcp_syn":
            tool = "other"  # the XOR fingerprint only exists on TCP probes
        rows, n = dsts.shape
        src = np.asarray(ips, np.int64)[:, None]
        seqs, marks = 0, None
        if ttype == "tcp_syn":
            seqs = rng.integers(0, 2 ** 32, (rows, n), dtype=np.uint32)
            marks = masscan_ip_id(dsts, ports, seqs)
        ip_ids = (ZMAP_IP_ID if tool == "zmap" else marks if tool == "masscan"
                  else _other_ip_ids(rng, rows * n, marks).reshape(rows, n))
        emit(rows, n, ts=times, template=_TEMPLATE_OF[ttype], src=src, dst=dsts,
             sport=40000 + (src & 0x3FF), dport=ports, seq=seqs, ip_id=ip_ids)

        unique_dsts = _firsts(dsts)[1].sum(axis=1).tolist()
        # Each row's distinct (UTC day, port) pairs, packed as day << 16 | port.
        day_ports = [[]] * rows
        if ttype != "icmp_echo_request":
            pairs, first = _firsts(times // US_PER_DAY << 16 | ports)
            flat, ends = pairs[first].tolist(), np.cumsum(first.sum(axis=1)).tolist()
            day_ports = [flat[start:end] for start, end in zip([0] + ends, ends)]
        for ip, unique, row in zip(src[:, 0].tolist(), unique_dsts, day_ports):
            per_day = Counter(pair >> 16 for pair in row)
            sources.append({
                "ip": int_to_ip(ip),
                "kind": kind,
                "traffic_type": ttype,
                "ports": sorted({pair & 0xFFFF for pair in row}),
                "tool": tool,
                "pkts": n,
                "unique_dsts": unique,
                "coverage": unique / size,
                "day_ports": {
                    (_EPOCH + timedelta(days=day)).isoformat(): count
                    for day, count in sorted(per_day.items())
                },
            })

    def spread(rows: int, n: int) -> np.ndarray:
        return _spread_times(rng, start_us, duration_us, rows, n, timeout_us)

    tools = sc.tools_cycle
    # Full-coverage scanners: every darknet address, `repeats` passes.
    for i in range(sc.full_coverage_scanners):
        ttype = sc.full_scanner_types[i % len(sc.full_scanner_types)]
        dsts = dark(np.concatenate([rng.permutation(size) for _ in range(sc.full_scanner_repeats)]))
        scan([next(scanner_ips)], "full", ttype, tools[i % len(tools)], dsts[None],
             spread(1, len(dsts)), _pool_port(ttype, i))

    # Partial scanners: a fixed random slice of the space.
    for i in range(sc.partial_scanners):
        ttype = sc.partial_scanner_types[i % len(sc.partial_scanner_types)]
        dsts = dark(_subset(rng, size, subset_size))
        tool = tools[(i + sc.full_coverage_scanners) % len(tools)]
        scan([next(scanner_ips)], "partial", ttype, tool, dsts[None], spread(1, subset_size),
             _pool_port(ttype, i + 3))

    # Port sweepers: many TCP ports, few addresses each, drawn with replacement.
    for i in range(sc.port_sweep_scanners):
        n = sc.sweep_ports * sc.sweep_pkts_per_port
        times = spread(1, n)
        dsts = dark(rng.integers(0, size, (1, n)))
        scan([next(scanner_ips)], "sweep", "tcp_syn", tools[(i + 1) % len(tools)], dsts, times,
             1000 + np.arange(n) % sc.sweep_ports)

    # Low-rate noise: scanning traffic too small to matter. Source i sends
    # the i % 3-th type, and each type's sources are one block. Every source
    # draws a port; an echo request sends none.
    if sc.noise_sources:
        times = spread(sc.noise_sources, sc.noise_pkts_per_source)
        dsts = dark(rng.integers(0, size, times.shape))
        ports = rng.integers(1, 65536, (sc.noise_sources, 1))
        ips = noise_base + 1 + np.arange(sc.noise_sources)
        for k, ttype in enumerate(("udp", "tcp_syn", "icmp_echo_request")[:sc.noise_sources]):
            scan(ips[k::3], "noise", ttype, "other", dsts[k::3], times[k::3],
                 0 if ttype == "icmp_echo_request" else ports[k::3])

    # Backscatter: SYN-ACKs from victims of spoofed floods; never an event.
    if backscatter:
        times = spread(1, backscatter)
        dsts = dark(rng.integers(0, size, backscatter))
        seqs = rng.integers(0, 2 ** 32, backscatter, dtype=np.uint32)
        ip_ids = _other_ip_ids(rng, backscatter)
        j = np.arange(backscatter)
        emit(1, backscatter, ts=times, template=_SYN_ACK, src=victim_base + 1 + j % 250,
             dst=dsts, sport=80, dport=40000 + j % 1000, seq=seqs, ip_id=ip_ids)

    assert filled == total  # every population's probes were counted in total
    _write_capture(out_dir / "synth.pcap", cols)

    # Ground-truth D1 set: same ratio comparison the detector applies.
    d1_expected = sorted(
        (e["ip"] for e in sources
         if e["kind"] != "noise" and e["coverage"] >= sc.dispersion_fraction),
        key=ip_to_int,
    )

    manifest: dict = {
        "seed": seed,
        "scenario": sc.to_dict(),
        "darknet_size": size,
        "pcap_packets": total,
        "scanning_pkts": total - backscatter,
        "non_scanning_pkts": backscatter,
        "sources": sources,
        "d1_expected": d1_expected,
    }

    if sc.flow_total_pkts > 0:
        manifest["flows"] = _generate_flows(sc, rng, sources, out_dir)

    write_json(out_dir / "manifest.json", manifest)
    return manifest


def _generate_flows(sc: SynthScenario, rng: np.random.Generator, sources: List[dict],
                    out_dir: Path) -> dict:
    """1:k-thinned flow CSV where scanner sources hold an exact traffic share.

    Rows stream to the file a router at a time, so memory follows one
    router's rows, not all of them. Each row is one f-string: only the
    router id can need quoting, so it alone goes through csv.writer, once
    per router, and the file is byte for byte what write_csv would write.
    """
    total = sc.flow_total_pkts
    ah_total = round(total * sc.flow_ah_share)
    ah_ips = [e["ip"] for e in sources if e["kind"] != "noise"]
    # (source, pre-sampling packets, protocol, sport, dport, flags): scanners
    # send telnet SYNs; benign talkers 100.64.0.0/16 answer DNS or HTTPS.
    talkers = [
        (ip, count, "tcp", 40000 + (ip_to_int(ip) & 0xFF), 23, "S")
        for ip, count in zip(ah_ips, _split_evenly(ah_total, len(ah_ips)))
    ]
    for i, count in enumerate(_split_evenly(total - ah_total, sc.flow_benign_sources)):
        src = (100 << 24) | (64 << 16) | (i + 1)
        talkers.append((int_to_ip(src), count, "udp", 53, 53, "") if src % 2 == 0
                       else (int_to_ip(src), count, "tcp", 443, 30000 + (src & 0xFF), "SA"))

    start_us = int(sc.start_ts_s * US_PER_S)  # whole microseconds, as in the pcap
    duration_us = sc.duration_s * US_PER_S
    denom = sc.flow_sampling_denominator
    counts = np.array([talker[1] for talker in talkers], np.int64)
    rows = 0
    with open(out_dir / "flows.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FLOW_CSV_FIELDS) + "\n")
        write = fh.write
        # Each router thins every talker's packets at once, and its rows are
        # written before the next router draws; a talker with no sampled
        # packet gives no row.
        for router in sc.flow_routers:
            # The same writer write_csv uses: its terminator decides which ids it quotes.
            quoted = io.StringIO()
            csv.writer(quoted, lineterminator="\n").writerow([router])
            router_field = quoted.getvalue()[:-1]
            sampled = rng.binomial(counts, 1.0 / denom)
            kept = np.flatnonzero(sampled)
            stamps = start_us + rng.integers(0, duration_us, len(kept))
            dsts = rng.integers(1, 65000, len(kept))  # 172.16.0.1 to 172.16.253.231
            rows += len(kept)
            for t, pkts, ts, d in zip(kept.tolist(), sampled[kept].tolist(), stamps.tolist(),
                                      dsts.tolist()):
                src, _count, proto, sport, dport, flags = talkers[t]
                write(f"{router_field},{ts},I,{src},172.16.{d >> 8}.{d & 255},{proto},{sport},"
                      f"{dport},{pkts},{denom},{flags}\n")

    return {
        "routers": list(sc.flow_routers),
        "sampling_denominator": denom,
        "ah_share": ah_total / total,
        "ah_presampled_pkts": ah_total,
        "total_presampled_pkts": total,
        "per_router": {
            router: {"ah_presampled": ah_total, "total_presampled": total}
            for router in sc.flow_routers
        },
        "ah_sources": ah_ips,
        "rows": rows,
    }
