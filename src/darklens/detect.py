"""Aggressive-scanner detection over closed darknet events.

Three independent definitions flag a source as aggressive:

* D1, address dispersion: one event touches at least a configured fraction of
  the darknet (default 10%).
* D2, packet volume: one event's packet count reaches the upper tail of the
  dataset's event-size ECDF (default the 99.99th percentile).
* D3, port breadth: one source contacts enough distinct (port, protocol)
  entries in one UTC day, threshold again from the dataset ECDF.

Thresholds are derived in a first pass and applied in a second, or supplied
up front for streaming use. All boundary comparisons are inclusive (>=).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .enrich import acked_sources
from .feeds import AckedList, AsnMap, RdnsMap, origin_of
from .model import (
    AhVerdict,
    DarknetConfig,
    DarknetEvent,
    Thresholds,
    TrafficType,
    int_to_ip,
    ip_to_int,
    read_jsonl,
    utc_day,
    write_lines,
)

D1 = "D1"
D2 = "D2"
D3 = "D3"

# Ports threshold when a dataset has no TCP/UDP events at all: nothing can
# match D3, but D1/D2 detection must still run.
UNREACHABLE_PORTS = 2 ** 63


class EmptyInputError(ValueError):
    pass


class BothEmptyError(ValueError):
    pass


def ecdf_threshold(values: Iterable[int], alpha: float) -> int:
    """Value at the (1 - alpha) percentile, 1-based index ceil((1-alpha)*n).

    The index is computed in exact rational arithmetic: with float math,
    ceil(0.9999 * 10000) evaluates to 10000 because 1 - 0.0001 rounds up,
    off by one from the true order statistic. For alpha in (0, 1) the index
    always lies in [1, n].
    """
    ordered = sorted(values)
    if not ordered:
        raise EmptyInputError("cannot build an ECDF from no values")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} not in (0, 1)")
    return ordered[math.ceil((1 - Fraction(alpha)) * len(ordered)) - 1]


def classify_dispersion(ev: DarknetEvent, cfg: DarknetConfig) -> bool:
    """D1: event touched >= dispersion_fraction of the darknet.

    Compared as a ratio so that an event at exactly the configured fraction
    classifies true; multiplying the fraction by the size instead picks up a
    half-ulp of float error and fails the exact boundary.
    """
    return ev.unique_dst_count / cfg.darknet_size >= cfg.dispersion_fraction


def classify_volume(ev: DarknetEvent, thresholds: Thresholds) -> bool:
    return ev.pkt_count >= thresholds.volume_threshold_pkts


def classify_ports(distinct_ports: int, thresholds: Thresholds) -> bool:
    return distinct_ports >= thresholds.ports_threshold


def build_daily_port_profiles(
    events: Iterable[DarknetEvent],
) -> Dict[Tuple[int, date], int]:
    """Distinct (dst_port, protocol) entries per source per UTC day.

    An event counts toward the day its start_ts falls in. ICMP events carry no
    ports and are excluded. The same port number probed over both TCP and UDP
    counts twice: entries are (port, protocol) pairs.
    """
    seen: Dict[Tuple[int, date], Set[Tuple[int, TrafficType]]] = {}
    for ev in events:
        ttype = ev.key.traffic_type
        if ttype is TrafficType.ICMP_ECHO_REQUEST:
            continue
        day = utc_day(ev.start_ts)
        seen.setdefault((ev.key.src_ip, day), set()).add((ev.key.dst_port, ttype))
    return {k: len(ports) for k, ports in seen.items()}


def compute_thresholds(
    events: Sequence[DarknetEvent],
    cfg: DarknetConfig,
    dataset_label: str = "",
    port_profiles: Optional[Dict[Tuple[int, date], int]] = None,
) -> Thresholds:
    """First pass: derive D2/D3 thresholds from the dataset's own ECDFs."""
    if not events:
        raise EmptyInputError("cannot derive thresholds from an empty event set")
    volume = ecdf_threshold((ev.pkt_count for ev in events), cfg.alpha)
    if port_profiles is None:
        port_profiles = build_daily_port_profiles(events)
    if port_profiles:
        ports = ecdf_threshold(port_profiles.values(), cfg.alpha)
    else:
        ports = UNREACHABLE_PORTS
    return Thresholds(volume, ports, dataset_label)


@dataclass(frozen=True, slots=True)
class AggressiveEvent:
    """A darknet event together with the definitions it satisfied."""

    event: DarknetEvent
    defs: frozenset


def tag_events(
    events: Iterable[DarknetEvent],
    cfg: DarknetConfig,
    thresholds: Thresholds,
    port_profiles: Optional[Dict[Tuple[int, date], int]] = None,
) -> List[AggressiveEvent]:
    """Second pass: keep events matching at least one definition, tagged.

    A TCP/UDP event is D3-tagged when its source crossed the ports threshold
    on the event's start day, i.e. the event contributed to an aggressive
    daily port profile.
    """
    events = list(events)
    if port_profiles is None:
        port_profiles = build_daily_port_profiles(events)
    tagged: List[AggressiveEvent] = []
    for ev in events:
        defs = set()
        if classify_dispersion(ev, cfg):
            defs.add(D1)
        if classify_volume(ev, thresholds):
            defs.add(D2)
        if ev.key.traffic_type is not TrafficType.ICMP_ECHO_REQUEST:
            ports = port_profiles.get((ev.key.src_ip, utc_day(ev.start_ts)), 0)
            if classify_ports(ports, thresholds):
                defs.add(D3)
        if defs:
            tagged.append(AggressiveEvent(ev, frozenset(defs)))
    return tagged


def _days_spanned(ev: DarknetEvent) -> Iterable[date]:
    day = utc_day(ev.start_ts)
    last = utc_day(ev.end_ts)
    while day <= last:
        yield day
        day = date.fromordinal(day.toordinal() + 1)


def jaccard(a: Set[int], b: Set[int]) -> float:
    if not a and not b:
        raise BothEmptyError("jaccard undefined for two empty sets")
    return len(a & b) / len(a | b)


@dataclass(frozen=True, slots=True)
class IntersectionRow:
    ips: int
    asns: int
    orgs: int
    countries: int


INTERSECTION_COMBOS = ["D1", "D2", "D3", "D1&D2", "D2&D3", "D1&D3", "D1&D2&D3"]


def definition_intersections(
    d1: Set[int], d2: Set[int], d3: Set[int], asn_map: AsnMap
) -> Dict[str, IntersectionRow]:
    """Unique IP/ASN/org/country counts for every definition combination."""
    combos = {
        "D1": d1,
        "D2": d2,
        "D3": d3,
        "D1&D2": d1 & d2,
        "D2&D3": d2 & d3,
        "D1&D3": d1 & d3,
        "D1&D2&D3": d1 & d2 & d3,
    }
    out: Dict[str, IntersectionRow] = {}
    for name in INTERSECTION_COMBOS:
        ips = combos[name]
        origins = [origin_of(ip, asn_map) for ip in ips]
        out[name] = IntersectionRow(
            ips=len(ips),
            asns=len({o.asn for o in origins}),
            orgs=len({o.org for o in origins}),
            countries=len({o.country for o in origins}),
        )
    return out


def zipf_curve(pkts_by_ip: Dict[int, int]) -> List[Tuple[float, float]]:
    """Heavy-tail view: (rank fraction, cumulative packet fraction) per source.

    Sources are ordered by descending packet count, ties broken by address so
    the curve is reproducible.
    """
    if not pkts_by_ip:
        raise EmptyInputError("zipf_curve needs at least one source")
    ordered = sorted(pkts_by_ip.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(pkts_by_ip.values())
    if total <= 0:
        raise EmptyInputError("zipf_curve needs positive packet counts")
    n = len(ordered)
    curve: List[Tuple[float, float]] = []
    cum = 0
    for i, (_ip, pkts) in enumerate(ordered, start=1):
        cum += pkts
        curve.append((i / n, cum / total))
    return curve


def cumulative_share(curve: Sequence[Tuple[float, float]], top_fraction: float) -> float:
    """Traffic share of the top `top_fraction` of sources (0 if none qualify)."""
    share = 0.0
    for rank_frac, cum_frac in curve:
        if rank_frac <= top_fraction:
            share = cum_frac
        else:
            break
    return share


@dataclass
class DetectionResult:
    thresholds: Thresholds
    tagged: List[AggressiveEvent]
    d1_ips: Set[int]
    d2_ips: Set[int]
    d3_ips: Set[int]
    port_profiles: Dict[Tuple[int, date], int]
    verdicts: List[AhVerdict] = field(default_factory=list)

    @property
    def union_ips(self) -> Set[int]:
        return self.d1_ips | self.d2_ips | self.d3_ips

    def ips_for(self, definition: str) -> Set[int]:
        return {D1: self.d1_ips, D2: self.d2_ips, D3: self.d3_ips}[definition]

    def jaccard_pairs(self) -> Dict[str, Optional[float]]:
        pairs = {}
        for a, b in ((D1, D2), (D1, D3), (D2, D3)):
            sa, sb = self.ips_for(a), self.ips_for(b)
            pairs[f"{a}|{b}"] = jaccard(sa, sb) if (sa or sb) else None
        return pairs


def run_detection(
    events: Iterable[DarknetEvent],
    cfg: DarknetConfig,
    thresholds: Optional[Thresholds] = None,
    acked: Optional[AckedList] = None,
    rdns: Optional[RdnsMap] = None,
    dataset_label: str = "",
) -> DetectionResult:
    """Full detection pass: derive thresholds unless given, tag, build verdicts."""
    events = list(events)
    if not events:
        raise EmptyInputError("no events to detect over")
    port_profiles = build_daily_port_profiles(events)
    if thresholds is None:
        thresholds = compute_thresholds(events, cfg, dataset_label, port_profiles)
    else:
        thresholds.validate()
    tagged = tag_events(events, cfg, thresholds, port_profiles)

    d1_ips = {ae.event.key.src_ip for ae in tagged if D1 in ae.defs}
    d2_ips = {ae.event.key.src_ip for ae in tagged if D2 in ae.defs}
    d3_ips = {ae.event.key.src_ip for ae in tagged if D3 in ae.defs}

    # Verdict assembly: one row per (source, UTC day) the source was active.
    buckets: Dict[Tuple[int, date], dict] = {}
    earliest: Dict[int, int] = {}
    size = cfg.darknet_size
    for ae in tagged:
        ev = ae.event
        ip = ev.key.src_ip
        if ip not in earliest or ev.start_ts < earliest[ip]:
            earliest[ip] = ev.start_ts
        dispersion = ev.unique_dst_count / size
        for day in _days_spanned(ev):
            bucket = buckets.setdefault(
                (ip, day), {"defs": set(), "max_disp": 0.0, "max_pkts": 0}
            )
            bucket["defs"].update(ae.defs)
            if dispersion > bucket["max_disp"]:
                bucket["max_disp"] = dispersion
            if ev.pkt_count > bucket["max_pkts"]:
                bucket["max_pkts"] = ev.pkt_count

    matches = acked_sources(earliest, acked, rdns)
    verdicts: List[AhVerdict] = []
    for (ip, day), bucket in buckets.items():
        m = matches.get(ip)
        verdicts.append(
            AhVerdict(
                src_ip=ip,
                day=day,
                matched_defs=frozenset(bucket["defs"]),
                max_dispersion=bucket["max_disp"],
                max_event_pkts=bucket["max_pkts"],
                distinct_ports=port_profiles.get((ip, day), 0),
                is_daily=utc_day(earliest[ip]) == day,
                acked=m is not None,
                acked_org=m.org if m is not None else None,
            )
        )
    verdicts.sort(key=lambda v: (v.day, v.src_ip))
    return DetectionResult(
        thresholds=thresholds,
        tagged=tagged,
        d1_ips=d1_ips,
        d2_ips=d2_ips,
        d3_ips=d3_ips,
        port_profiles=port_profiles,
        verdicts=verdicts,
    )


def write_blocklist(path, ips: Set[int]) -> int:
    """Plaintext blocklist, one address per line, numerically ascending."""
    return write_lines(path, map(int_to_ip, sorted(ips)))


def read_blocklist(path) -> Set[int]:
    ips = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                ips.add(ip_to_int(line))
    return ips


def write_blocklist_sidecar(path, result: DetectionResult) -> None:
    """Per-IP statistics next to the union blocklist, one JSON object a line."""
    per_ip: Dict[int, dict] = {}
    for ae in result.tagged:
        ip = ae.event.key.src_ip
        entry = per_ip.setdefault(
            ip,
            {"defs": set(), "max_dispersion": 0.0, "max_event_pkts": 0, "total_pkts": 0, "events": 0},
        )
        entry["defs"].update(ae.defs)
        entry["max_event_pkts"] = max(entry["max_event_pkts"], ae.event.pkt_count)
        entry["total_pkts"] += ae.event.pkt_count
        entry["events"] += 1
    for v in result.verdicts:
        entry = per_ip.get(v.src_ip)
        if entry is not None:
            entry["max_dispersion"] = max(entry["max_dispersion"], v.max_dispersion)
    max_ports: Dict[int, int] = {}
    for (ip, _day), ports in result.port_profiles.items():
        if ports > max_ports.get(ip, 0):
            max_ports[ip] = ports
    write_lines(path, (
        json.dumps(
            {
                "ip": int_to_ip(ip),
                "matched_defs": sorted(entry["defs"]),
                "max_dispersion": entry["max_dispersion"],
                "max_event_pkts": entry["max_event_pkts"],
                "max_daily_ports": max_ports.get(ip, 0),
                "total_pkts": entry["total_pkts"],
                "events": entry["events"],
            },
            separators=(",", ":"),
        )
        for ip, entry in sorted(per_ip.items())
    ))


def write_verdicts(path, verdicts: Iterable[AhVerdict]) -> int:
    return write_lines(path, (v.to_json_line() for v in verdicts))


def read_verdicts(path) -> List[AhVerdict]:
    return list(read_jsonl(path, AhVerdict.from_json_line))
