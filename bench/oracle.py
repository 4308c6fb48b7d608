"""Correctness checks of one pipeline run against the synth manifest.

Standard library only: the benchmark's parent process imports this module
and must stay small, because a child's peak RSS can never read below the
peak of the process that started it.
"""
from __future__ import annotations

import csv
import json
import struct
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

ZMAP_IP_ID = 54321
# HyperLogLog with 2^14 registers: standard error 1.04 / 2^7.
HLL_STD_ERROR = 1.04 / 2 ** 7
SKETCH_TOLERANCE = 4 * HLL_STD_ERROR

Check = Tuple[str, bool, str]


def fixed_id_pkts(pcap_path: Path) -> Counter:
    """Packets per source address whose IPv4 ID is the fixed zmap constant.

    Walks the records of a synth capture (classic pcap, little-endian record
    headers, Ethernet framing) without the package's own reader. Fingerprint
    rules give the fixed ID precedence, so a masscan probe whose derived ID
    happens to equal the constant (about 1 in 65,536) is counted as zmap;
    the split check needs this count to expect that.
    """
    buf = Path(pcap_path).read_bytes()
    ip_id_src = struct.Struct("!H6xI")
    counts: Counter = Counter()
    off, n = 24, len(buf)
    while off + 16 <= n:
        caplen = int.from_bytes(buf[off + 8 : off + 12], "little")
        ip_id, src = ip_id_src.unpack_from(buf, off + 16 + 14 + 4)
        if ip_id == ZMAP_IP_ID:
            counts[src] += 1
        off += 16 + caplen
    return counts


def _ip_to_int(text: str) -> int:
    a, b, c, d = (int(x) for x in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def _read_ips(path: Path) -> set:
    return {line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()}


def _csv_column_sum(path: Path, column: str) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(int(row[column]) for row in csv.DictReader(fh))


def check_outputs(manifest: dict, inputs: Path, out: Path, sketch_mode: bool) -> List[Check]:
    """Every oracle check of one run, as (name, passed, detail) triples."""
    sources = {s["ip"]: s for s in manifest["sources"]}
    per_src: Dict[str, List[int]] = {}  # ip -> [pkts, zmap, masscan, other, max unique dsts]
    total = 0
    with open(out / "events.jsonl", encoding="utf-8") as fh:
        for line in fh:
            ev = json.loads(line)
            total += ev["pkt_count"]
            cell = per_src.setdefault(ev["key"]["src_ip"], [0, 0, 0, 0, 0])
            cell[0] += ev["pkt_count"]
            cell[1] += ev["zmap_pkts"]
            cell[2] += ev["masscan_pkts"]
            cell[3] += ev["other_pkts"]
            cell[4] = max(cell[4], ev["unique_dst_count"])
    checks: List[Check] = [
        ("conservation", total == manifest["scanning_pkts"],
         f"event pkt_count sum {total}, manifest scanning_pkts {manifest['scanning_pkts']}"),
    ]

    got = {ip: cell[0] for ip, cell in per_src.items()}
    want = {ip: s["pkts"] for ip, s in sources.items()}
    bad = sorted(ip for ip in set(got) | set(want) if got.get(ip) != want.get(ip))
    checks.append(("source_pkts", not bad, f"{len(bad)} sources differ, first {bad[:3]}"))

    fixed = fixed_id_pkts(inputs / "synth.pcap")
    bad = []
    for ip, s in sources.items():
        zmap = fixed[_ip_to_int(ip)]
        rest = s["pkts"] - zmap
        want_split = [zmap, rest, 0] if s["tool"] == "masscan" else [zmap, 0, rest]
        if per_src.get(ip, [0] * 5)[1:4] != want_split:
            bad.append(ip)
    checks.append(("tool_split", not bad, f"{len(bad)} sources differ, first {bad[:3]}"))

    bad = []
    for ip, s in sources.items():
        if s["kind"] not in ("full", "partial"):
            continue
        est, true = per_src.get(ip, [0] * 5)[4], s["unique_dsts"]
        ok = abs(est - true) <= SKETCH_TOLERANCE * true if sketch_mode else est == true
        if not ok:
            bad.append(f"{ip}:{est}/{true}")
    checks.append(("unique_dsts", not bad, f"{len(bad)} sources off, first {bad[:3]}"))

    # d1_expected applies the dispersion rule to a source's whole traffic,
    # while D1 looks at one event. A port sweeper sends one packet per port and
    # each port is its own event, so none of its events is dispersed however
    # many addresses it reaches in total: it is expected outside D1.
    sweepers = {ip for ip, s in sources.items() if s["kind"] == "sweep"}
    d1_want = set(manifest["d1_expected"]) - sweepers
    d1_got = _read_ips(out / "blocklist_d1.txt")
    checks.append(("d1_blocklist", d1_got == d1_want,
                   f"{len(d1_got ^ d1_want)} addresses differ from d1_expected"))

    union = _read_ips(out / "blocklist_union.txt")
    union_pkts = sum(sources[ip]["pkts"] for ip in union if ip in sources)
    series_total = _csv_column_sum(out / "series.csv", "total_pkts")
    checks.append(("series_total", series_total == manifest["pcap_packets"],
                   f"series {series_total}, pcap {manifest['pcap_packets']}"))
    series_ah = _csv_column_sum(out / "series.csv", "ah_pkts")
    checks.append(("series_ah", series_ah == union_pkts,
                   f"series {series_ah}, blocklisted sources {union_pkts}"))

    with open(out / "verdicts.jsonl", encoding="utf-8") as fh:
        ah = {json.loads(line)["src_ip"] for line in fh}
    ah_pkts = sum(sources[ip]["pkts"] for ip in ah if ip in sources)
    ports_total = _csv_column_sum(out / "ports.csv", "total_pkts")
    checks.append(("ports_total", ports_total == ah_pkts,
                   f"ports.csv {ports_total}, AH sources {ah_pkts}"))
    return checks
