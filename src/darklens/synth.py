"""Seeded synthetic captures with known ground truth.

Builds a pcap full of scripted scanner populations (full-coverage sweeps,
partial scanners, port sweepers, low-rate noise, backscatter), an exact
manifest of what every source did, and optionally a 1:k-thinned flow CSV for
impact validation. Same seed, same scenario, byte-identical outputs, which is
what makes the end-to-end acceptance checks meaningful.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields
from datetime import date, timedelta
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fingerprint import ZMAP_IP_ID, masscan_ip_id
from .flows import FLOW_CSV_FIELDS
from .model import US_PER_DAY, US_PER_S, DarknetConfig, int_to_ip, write_csv, write_json

_EPOCH = date(1970, 1, 1)

_ETH_HDR = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02" + b"\x08\x00"

_IP_HDR = struct.Struct("!BBHHHBBHII")
_TCP_HDR = struct.Struct("!HHIIBBHHH")
_UDP_HDR = struct.Struct("!HHHH")
_ICMP_HDR = struct.Struct("!BBHHH")

TCP_PORT_POOL = [23, 80, 443, 22, 3389, 8080, 445, 5555, 2323, 8443]
UDP_PORT_POOL = [53, 123, 161, 1900, 5060, 389, 11211, 500, 69, 5683]


def _tcp_frame(src: int, dst: int, sport: int, dport: int, seq: int, flags: int, ip_id: int) -> bytes:
    ip = _IP_HDR.pack(0x45, 0, 40, ip_id, 0, 64, 6, 0, src, dst)
    tcp = _TCP_HDR.pack(sport, dport, seq, 0, 5 << 4, flags, 8192, 0, 0)
    return _ETH_HDR + ip + tcp


def _udp_frame(src: int, dst: int, sport: int, dport: int, ip_id: int) -> bytes:
    ip = _IP_HDR.pack(0x45, 0, 28, ip_id, 0, 64, 17, 0, src, dst)
    udp = _UDP_HDR.pack(sport, dport, 8, 0)
    return _ETH_HDR + ip + udp


def _icmp_frame(src: int, dst: int, icmp_type: int, ident: int, ip_id: int) -> bytes:
    ip = _IP_HDR.pack(0x45, 0, 28, ip_id, 0, 64, 1, 0, src, dst)
    icmp = _ICMP_HDR.pack(icmp_type, 0, 0, ident, 1)
    return _ETH_HDR + ip + icmp


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
            obj = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**obj)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _SourceTruth:
    """Running ground truth for one synthetic source."""

    __slots__ = ("ip", "kind", "traffic_type", "ports", "tool", "pkts", "dsts", "day_ports")

    def __init__(self, ip: int, kind: str, traffic_type: str, tool: Optional[str]):
        self.ip = ip
        self.kind = kind
        self.traffic_type = traffic_type
        self.ports: set = set()
        self.tool = tool
        self.pkts = 0
        self.dsts: set = set()
        self.day_ports: Dict[int, set] = {}

    def note(self, ts_us: int, dst: int, port: Optional[int]) -> None:
        self.pkts += 1
        self.dsts.add(dst)
        if port is not None:
            self.ports.add(port)
            day = ts_us // US_PER_DAY
            self.day_ports.setdefault(day, set()).add(port)

    def to_manifest(self, darknet_size: int) -> dict:
        return {
            "ip": int_to_ip(self.ip),
            "kind": self.kind,
            "traffic_type": self.traffic_type,
            "ports": sorted(self.ports),
            "tool": self.tool,
            "pkts": self.pkts,
            "unique_dsts": len(self.dsts),
            "coverage": len(self.dsts) / darknet_size,
            "day_ports": {
                (_EPOCH + timedelta(days=day)).isoformat(): len(ports)
                for day, ports in sorted(self.day_ports.items())
            },
        }


def _spread_times(
    rng: np.random.Generator, start_us: int, duration_us: int, n: int, timeout_us: int
) -> np.ndarray:
    """n ascending timestamps whose gaps stay well under the event timeout."""
    if n == 1:
        return np.array([start_us + int(rng.integers(0, duration_us))], dtype=np.int64)
    window = min(duration_us, (n - 1) * timeout_us // 4)
    window = max(window, n - 1)  # at least 1us spacing
    offset = int(rng.integers(0, duration_us - window + 1))
    base = np.linspace(0, window, n)
    gap = window / (n - 1)
    jitter = rng.uniform(-gap / 4, gap / 4, n)
    times = np.sort(base + jitter).astype(np.int64) + start_us + offset
    return np.clip(times, start_us, start_us + duration_us - 1)


def _split_evenly(total: int, parts: int) -> List[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def generate(scenario: SynthScenario, seed: int, out_dir) -> dict:
    """Write synth.pcap, manifest.json and (if configured) flows.csv.

    Returns the manifest as a dict. All randomness flows from one seeded
    generator so reruns are byte-identical.
    """
    from .pcap import write_pcap

    # The telescope is checked the way a config file is: overlapping or too
    # small prefixes and a timeout under 1 us raise ConfigError.
    cfg = DarknetConfig(
        darknet_prefixes=scenario.darknet_prefixes, event_timeout_s=scenario.event_timeout_s
    )
    dark = np.concatenate([
        np.arange(first, last + 1, dtype=np.int64)
        for first, last in zip(cfg.range_starts, cfg.range_ends)
    ])
    size = cfg.darknet_size

    start_us = scenario.start_ts_s * US_PER_S
    duration_us = scenario.duration_s * US_PER_S
    if not duration_us >= 1:
        raise ValueError(f"duration_s {scenario.duration_s} must be at least 1 us")
    timeout_us = round(cfg.event_timeout_s * US_PER_S)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    records: List[Tuple[int, int, bytes]] = []
    sources: List[_SourceTruth] = []
    seq_counter = 0

    def emit(ts_us: int, frame: bytes) -> None:
        nonlocal seq_counter
        records.append((int(ts_us), seq_counter, frame))
        seq_counter += 1

    # Source address plan: scanners 198.18.0.0/15, noise 203.0.113.0/24,
    # backscatter victims 192.0.2.0/24, benign flow talkers 100.64.0.0/16.
    scanner_base = (198 << 24) | (18 << 16)
    noise_base = (203 << 24) | (0 << 16) | (113 << 8)
    victim_base = (192 << 24) | (0 << 16) | (2 << 8)
    benign_base = (100 << 24) | (64 << 16)
    next_scanner = 1

    def next_scanner_ip() -> int:
        nonlocal next_scanner
        ip = scanner_base + next_scanner
        next_scanner += 1
        return ip

    def other_ip_id(is_tcp: bool, dst: int, port: int, seq: int) -> int:
        while True:
            candidate = int(rng.integers(0, 65536))
            if candidate == ZMAP_IP_ID:
                continue
            if is_tcp and candidate == masscan_ip_id(dst, port, seq):
                continue
            return candidate

    def tcp_ip_id(tool: str, dst: int, port: int, seq: int) -> int:
        if tool == "zmap":
            return ZMAP_IP_ID
        if tool == "masscan":
            return masscan_ip_id(dst, port, seq)
        return other_ip_id(True, dst, port, seq)

    def emit_scan_packets(
        truth: _SourceTruth, dsts: np.ndarray, times: np.ndarray, port: int, tool: str, ttype: str
    ) -> None:
        src = truth.ip
        sport = 40000 + (src & 0x3FF)
        if ttype == "tcp_syn":
            seqs = rng.integers(0, 2 ** 32, len(dsts), dtype=np.uint32)
            for ts, dst, seq in zip(times, dsts, seqs):
                dst = int(dst)
                seq = int(seq)
                ip_id = tcp_ip_id(tool, dst, port, seq)
                emit(ts, _tcp_frame(src, dst, sport, port, seq, 0x02, ip_id))
                truth.note(int(ts), dst, port)
        elif ttype == "udp":
            for ts, dst in zip(times, dsts):
                dst = int(dst)
                ip_id = ZMAP_IP_ID if tool == "zmap" else other_ip_id(False, dst, port, 0)
                emit(ts, _udp_frame(src, dst, sport, port, ip_id))
                truth.note(int(ts), dst, port)
        else:  # icmp echo request
            for ts, dst in zip(times, dsts):
                dst = int(dst)
                ip_id = ZMAP_IP_ID if tool == "zmap" else other_ip_id(False, dst, 0, 0)
                emit(ts, _icmp_frame(src, dst, 8, src & 0xFFFF, ip_id))
                truth.note(int(ts), dst, None)

    def pick_tool(index: int, ttype: str) -> str:
        tool = scenario.tools_cycle[index % len(scenario.tools_cycle)]
        if tool == "masscan" and ttype != "tcp_syn":
            return "other"  # the XOR fingerprint only exists on TCP probes
        return tool

    # Full-coverage scanners: every darknet address, `repeats` passes.
    for i in range(scenario.full_coverage_scanners):
        ttype = scenario.full_scanner_types[i % len(scenario.full_scanner_types)]
        tool = pick_tool(i, ttype)
        port = 0 if ttype == "icmp_echo_request" else (
            TCP_PORT_POOL[i % len(TCP_PORT_POOL)] if ttype == "tcp_syn"
            else UDP_PORT_POOL[i % len(UDP_PORT_POOL)]
        )
        truth = _SourceTruth(next_scanner_ip(), "full", ttype, tool)
        sources.append(truth)
        dsts = np.concatenate([rng.permutation(dark) for _ in range(scenario.full_scanner_repeats)])
        times = _spread_times(rng, start_us, duration_us, len(dsts), timeout_us)
        emit_scan_packets(truth, dsts, times, port, tool, ttype)

    # Partial scanners: a fixed random slice of the space.
    subset_size = max(1, round(scenario.partial_coverage_fraction * size))
    for i in range(scenario.partial_scanners):
        ttype = scenario.partial_scanner_types[i % len(scenario.partial_scanner_types)]
        tool = pick_tool(i + scenario.full_coverage_scanners, ttype)
        port = 0 if ttype == "icmp_echo_request" else (
            TCP_PORT_POOL[(i + 3) % len(TCP_PORT_POOL)] if ttype == "tcp_syn"
            else UDP_PORT_POOL[(i + 3) % len(UDP_PORT_POOL)]
        )
        truth = _SourceTruth(next_scanner_ip(), "partial", ttype, tool)
        sources.append(truth)
        dsts = rng.choice(dark, size=subset_size, replace=False)
        times = _spread_times(rng, start_us, duration_us, len(dsts), timeout_us)
        emit_scan_packets(truth, dsts, times, port, tool, ttype)

    # Port sweepers: many TCP ports, few addresses each.
    for i in range(scenario.port_sweep_scanners):
        tool = pick_tool(i + 1, "tcp_syn")
        truth = _SourceTruth(next_scanner_ip(), "sweep", "tcp_syn", tool)
        sources.append(truth)
        n = scenario.sweep_ports * scenario.sweep_pkts_per_port
        times = _spread_times(rng, start_us, duration_us, n, timeout_us)
        dsts = rng.choice(dark, size=n, replace=True)
        seqs = rng.integers(0, 2 ** 32, n, dtype=np.uint32)
        src = truth.ip
        sport = 40000 + (src & 0x3FF)
        for j, (ts, dst, seq) in enumerate(zip(times, dsts, seqs)):
            dst = int(dst)
            seq = int(seq)
            port = 1000 + (j % scenario.sweep_ports)
            ip_id = tcp_ip_id(tool, dst, port, seq)
            emit(ts, _tcp_frame(src, dst, sport, port, seq, 0x02, ip_id))
            truth.note(int(ts), dst, port)

    # Low-rate noise: scanning traffic too small to matter.
    noise_types = ["udp", "tcp_syn", "icmp_echo_request"]
    for i in range(scenario.noise_sources):
        ttype = noise_types[i % 3]
        truth = _SourceTruth(noise_base + 1 + i, "noise", ttype, "other")
        sources.append(truth)
        n = max(1, scenario.noise_pkts_per_source)
        times = _spread_times(rng, start_us, duration_us, n, timeout_us)
        dsts = rng.choice(dark, size=n, replace=True)
        port = 0 if ttype == "icmp_echo_request" else int(rng.integers(1, 65536))
        emit_scan_packets(truth, dsts, times, port, "other", ttype)

    # Backscatter: SYN-ACKs from victims of spoofed floods; never an event.
    backscatter = scenario.backscatter_pkts
    if backscatter:
        times = _spread_times(rng, start_us, duration_us, backscatter, timeout_us)
        dsts = rng.choice(dark, size=backscatter, replace=True)
        for j, (ts, dst) in enumerate(zip(times, dsts)):
            dst = int(dst)
            victim = victim_base + 1 + (j % 250)
            seq = int(rng.integers(0, 2 ** 32))
            ip_id = other_ip_id(False, dst, 80, seq)
            emit(ts, _tcp_frame(victim, dst, 80, 40000 + (j % 1000), seq, 0x12, ip_id))

    records.sort(key=lambda r: (r[0], r[1]))
    pcap_path = out_dir / "synth.pcap"
    write_pcap(pcap_path, ((ts, frame) for ts, _i, frame in records))

    # Ground-truth D1 set: same ratio comparison the detector applies.
    d1_expected = sorted(
        truth.ip
        for truth in sources
        if truth.kind != "noise" and len(truth.dsts) / size >= scenario.dispersion_fraction
    )

    manifest: dict = {
        "seed": seed,
        "scenario": scenario.to_dict(),
        "darknet_size": size,
        "pcap_packets": len(records),
        "scanning_pkts": len(records) - backscatter,
        "non_scanning_pkts": backscatter,
        "sources": [truth.to_manifest(size) for truth in sources],
        "d1_expected": [int_to_ip(ip) for ip in d1_expected],
    }

    if scenario.flow_total_pkts > 0:
        manifest["flows"] = _generate_flows(scenario, rng, sources, out_dir)

    write_json(out_dir / "manifest.json", manifest)
    return manifest


def _generate_flows(
    scenario: SynthScenario, rng: np.random.Generator, sources: List[_SourceTruth], out_dir: Path
) -> dict:
    """1:k-thinned flow CSV where scanner sources hold an exact traffic share."""
    total = scenario.flow_total_pkts
    ah_sources = [t.ip for t in sources if t.kind in ("full", "partial", "sweep")]
    if not ah_sources:
        raise ValueError("flow generation needs at least one scanner source")
    n_benign = max(1, scenario.flow_benign_sources)
    benign_sources = [(100 << 24) | (64 << 16) | (i + 1) for i in range(n_benign)]

    ah_total = round(total * scenario.flow_ah_share)
    benign_total = total - ah_total
    ah_counts = _split_evenly(ah_total, len(ah_sources))
    benign_counts = _split_evenly(benign_total, len(benign_sources))

    day_start_us_v = scenario.start_ts_s * US_PER_S
    duration_us = scenario.duration_s * US_PER_S  # checked by generate
    denom = scenario.flow_sampling_denominator
    rows: List[List[str]] = []
    per_router: Dict[str, dict] = {}

    for router in scenario.flow_routers:
        per_router[router] = {"ah_presampled": ah_total, "total_presampled": total}
        for src, count in zip(ah_sources, ah_counts):
            if count == 0:
                continue
            sampled = int(rng.binomial(count, 1.0 / denom))
            if sampled == 0:
                continue
            ts = day_start_us_v + int(rng.integers(0, duration_us))
            dst = (172 << 24) | (16 << 16) | int(rng.integers(1, 65000))
            rows.append(
                [router, str(ts), "I", int_to_ip(src), int_to_ip(dst), "tcp",
                 str(40000 + (src & 0xFF)), "23", str(sampled), str(denom), "S"]
            )
        for src, count in zip(benign_sources, benign_counts):
            if count == 0:
                continue
            sampled = int(rng.binomial(count, 1.0 / denom))
            if sampled == 0:
                continue
            ts = day_start_us_v + int(rng.integers(0, duration_us))
            dst = (172 << 24) | (16 << 16) | int(rng.integers(1, 65000))
            even = src % 2 == 0
            if even:
                rows.append(
                    [router, str(ts), "I", int_to_ip(src), int_to_ip(dst), "udp",
                     "53", "53", str(sampled), str(denom), ""]
                )
            else:
                rows.append(
                    [router, str(ts), "I", int_to_ip(src), int_to_ip(dst), "tcp",
                     "443", str(30000 + (src & 0xFF)), str(sampled), str(denom), "SA"]
                )

    write_csv(out_dir / "flows.csv", FLOW_CSV_FIELDS, rows)

    return {
        "routers": list(scenario.flow_routers),
        "sampling_denominator": denom,
        "ah_share": (ah_total / total) if total else 0.0,
        "ah_presampled_pkts": ah_total,
        "total_presampled_pkts": total,
        "per_router": per_router,
        "ah_sources": [int_to_ip(ip) for ip in ah_sources],
        "rows": len(rows),
    }
