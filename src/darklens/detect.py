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
from datetime import date
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

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

    The index is exact, in integers on the float's ratio alpha = num/den.
    Float math can round (1 - alpha) * n onto the wrong side of an integer:
    for alpha 0.3 and n 10 it gives 7.0, but the float 0.3 lies just below
    3/10, so the product is just above 7 and the index is 8. For alpha in
    (0, 1) the index always lies in [1, n].
    """
    ordered = sorted(values)
    if not ordered:
        raise EmptyInputError("cannot build an ECDF from no values")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} not in (0, 1)")
    num, den = alpha.as_integer_ratio()
    return ordered[-(-(den - num) * len(ordered) // den) - 1]


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
    port_profiles: Dict[Tuple[int, date], int],
    dataset_label: str = "",
) -> Thresholds:
    """First pass: derive D2/D3 thresholds from the dataset's own ECDFs."""
    if not events:
        raise EmptyInputError("cannot derive thresholds from an empty event set")
    volume = ecdf_threshold((ev.pkt_count for ev in events), cfg.alpha)
    if port_profiles:
        ports = ecdf_threshold(port_profiles.values(), cfg.alpha)
    else:
        ports = UNREACHABLE_PORTS
    return Thresholds(volume, ports, dataset_label)


class AggressiveEvent(NamedTuple):
    """A darknet event together with the definitions it satisfied."""

    event: DarknetEvent
    defs: frozenset


def tag_events(
    events: Iterable[DarknetEvent],
    cfg: DarknetConfig,
    thresholds: Thresholds,
    port_profiles: Dict[Tuple[int, date], int],
) -> List[AggressiveEvent]:
    """Second pass: keep events matching at least one definition, tagged.

    A TCP/UDP event is D3-tagged when its source crossed the ports threshold
    on the event's start day, i.e. the event contributed to an aggressive
    daily port profile.
    """
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


class IntersectionRow(NamedTuple):
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


class SourceStats:
    """A source's aggregate over its tagged events, as the sidecar writes it.

    first_ts, the start of its earliest tagged event, is not written out.
    max_daily_ports spans every day the source probed, aggressive or not.
    """

    __slots__ = (
        "defs", "first_ts", "max_dispersion", "max_event_pkts", "max_daily_ports",
        "total_pkts", "events",
    )

    def __init__(self, defs: Set[str], first_ts: int, max_dispersion: float,
                 max_event_pkts: int, max_daily_ports: int, total_pkts: int, events: int):
        self.defs = defs
        self.first_ts = first_ts
        self.max_dispersion = max_dispersion
        self.max_event_pkts = max_event_pkts
        self.max_daily_ports = max_daily_ports
        self.total_pkts = total_pkts
        self.events = events


class DetectionResult(NamedTuple):
    thresholds: Thresholds
    tagged: List[AggressiveEvent]
    sources: Dict[int, SourceStats]
    d1_ips: Set[int]
    d2_ips: Set[int]
    d3_ips: Set[int]
    verdicts: List[AhVerdict]

    @property
    def union_ips(self) -> Set[int]:
        return set(self.sources)

    def jaccard_pairs(self) -> Dict[str, Optional[float]]:
        named = {D1: self.d1_ips, D2: self.d2_ips, D3: self.d3_ips}
        return {
            f"{a}|{b}": jaccard(named[a], named[b]) if named[a] or named[b] else None
            for a, b in ((D1, D2), (D1, D3), (D2, D3))
        }


def run_detection(
    events: Iterable[DarknetEvent],
    cfg: DarknetConfig,
    thresholds: Optional[Thresholds] = None,
    acked: Optional[AckedList] = None,
    rdns: Optional[RdnsMap] = None,
    dataset_label: str = "",
) -> DetectionResult:
    """Full detection pass: derive thresholds unless given, tag, build verdicts.

    One fold over the tagged events fills both the (source, UTC day) verdict
    buckets and the per-source rows that the blocklists are read off.
    """
    events = list(events)
    if not events:
        raise EmptyInputError("no events to detect over")
    port_profiles = build_daily_port_profiles(events)
    if thresholds is None:
        thresholds = compute_thresholds(events, cfg, port_profiles, dataset_label)
    else:
        thresholds.validate()
    tagged = tag_events(events, cfg, thresholds, port_profiles)

    # bucket: [defs, max dispersion, max event packets] of one source-day.
    buckets: Dict[Tuple[int, date], list] = {}
    sources: Dict[int, SourceStats] = {}
    size = cfg.darknet_size
    for ae in tagged:
        ev = ae.event
        ip = ev.key.src_ip
        pkts = ev.pkt_count
        dispersion = ev.unique_dst_count / size
        src = sources.get(ip)
        if src is None:
            src = sources[ip] = SourceStats(set(), ev.start_ts, dispersion, pkts, 0, 0, 0)
        src.defs |= ae.defs
        src.first_ts = min(src.first_ts, ev.start_ts)
        src.max_dispersion = max(src.max_dispersion, dispersion)
        src.max_event_pkts = max(src.max_event_pkts, pkts)
        src.total_pkts += pkts
        src.events += 1
        for day in _days_spanned(ev):
            bucket = buckets.get((ip, day))
            if bucket is None:
                buckets[(ip, day)] = [set(ae.defs), dispersion, pkts]
            else:
                bucket[0] |= ae.defs
                bucket[1] = max(bucket[1], dispersion)
                bucket[2] = max(bucket[2], pkts)
    for (ip, _day), ports in port_profiles.items():
        src = sources.get(ip)
        if src is not None and ports > src.max_daily_ports:
            src.max_daily_ports = ports

    matches = acked_sources(sources, acked, rdns)
    verdicts = [
        AhVerdict(
            src_ip=ip, day=day, matched_defs=frozenset(defs), max_dispersion=max_disp,
            max_event_pkts=max_pkts, distinct_ports=port_profiles.get((ip, day), 0),
            is_daily=utc_day(sources[ip].first_ts) == day,
            acked=ip in matches, acked_org=matches[ip].org if ip in matches else None,
        )
        for (ip, day), (defs, max_disp, max_pkts) in buckets.items()
    ]
    verdicts.sort(key=lambda v: (v.day, v.src_ip))
    d1_ips, d2_ips, d3_ips = (
        {ip for ip, src in sources.items() if name in src.defs} for name in (D1, D2, D3)
    )
    return DetectionResult(thresholds, tagged, sources, d1_ips, d2_ips, d3_ips, verdicts)


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
    write_lines(path, (
        json.dumps(
            {
                "ip": int_to_ip(ip),
                "matched_defs": sorted(src.defs),
                "max_dispersion": src.max_dispersion,
                "max_event_pkts": src.max_event_pkts,
                "max_daily_ports": src.max_daily_ports,
                "total_pkts": src.total_pkts,
                "events": src.events,
            },
            separators=(",", ":"),
        )
        for ip, src in sorted(result.sources.items())
    ))


def write_verdicts(path, verdicts: Iterable[AhVerdict]) -> int:
    return write_lines(path, (v.to_json_line() for v in verdicts))


def read_verdicts(path) -> List[AhVerdict]:
    return list(read_jsonl(path, AhVerdict.from_json_line))
