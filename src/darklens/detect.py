"""Aggressive-scanner detection over closed darknet events.

Three independent definitions flag a source as aggressive:

* D1, address dispersion: one event touches at least a configured fraction of
  the darknet (default 10%).
* D2, packet volume: one event's packet count reaches the upper tail of the
  dataset's event-size ECDF (default the 99.99th percentile).
* D3, port breadth: one source contacts enough distinct (port, protocol)
  entries in one UTC day, threshold again from the dataset ECDF.

The event stream is one plain tuple per event in DarknetEvent's field order,
as read_event_log yields it, with the traffic type as its index; no event
object is built. It is read once into six compact columns, the only fields
the definitions read; thresholds are derived from them, or supplied up
front, and applied in a second pass over the columns as integer
comparisons (D1 against the least destination count that
classify_dispersion holds for). A tagged event is a plain tuple whose last
field is the bit mask of its definitions (D1 1, D2 2, D3 4); masks become
names only in the outputs. All boundary comparisons are inclusive (>=). The
results are written as blocklists, a per-source sidecar and
per-source-per-day verdicts.
"""
from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections import defaultdict
from typing import Collection, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .enrich import acked_sources
from .feeds import AckedList
from .model import (
    D1,
    D2,
    D3,
    TRAFFIC_INDEX,
    US_PER_DAY,
    AhVerdict,
    DarknetConfig,
    EmptyInputError,
    Thresholds,
    TrafficType,
    _day_date,
    int_to_ip,
    order_statistic,
    write_lines,
)

# The definitions an event matched, by bit mask: D1 is 1, D2 2 and D3 4.
_DEFS = [frozenset(name for bit, name in enumerate((D1, D2, D3)) if mask >> bit & 1)
         for mask in range(8)]

# Ports threshold when a dataset has no TCP/UDP events at all: nothing can
# match D3, but D1/D2 detection must still run.
UNREACHABLE_PORTS = 2 ** 63

# Traffic-type indexes, as an event holds them.
_UDP, _ICMP = TRAFFIC_INDEX[TrafficType.UDP], TRAFFIC_INDEX[TrafficType.ICMP_ECHO_REQUEST]

# A tagged event: (src_ip, start_ts, end_ts, pkt_count, unique_dst_count, mask).
Tagged = Tuple[int, int, int, int, int, int]


class BothEmptyError(ValueError):
    pass


def ecdf_threshold(values: Collection[int], alpha: float) -> int:
    """Value at the (1 - alpha) percentile, 1-based index ceil((1-alpha)*n).

    The index is exact, in integers on the float's ratio alpha = num/den.
    Float math can round (1 - alpha) * n onto the wrong side of an integer:
    for alpha 0.3 and n 10 it gives 7.0, but the float 0.3 lies just below
    3/10, so the product is just above 7 and the index is 8. For alpha in
    (0, 1) the index always lies in [1, n].
    """
    n = len(values)
    if not n:
        raise EmptyInputError("cannot build an ECDF from no values")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} not in (0, 1)")
    num, den = alpha.as_integer_ratio()
    index = -(-(den - num) * n // den)
    return order_statistic(values, index)


def classify_dispersion(unique_dsts: int, cfg: DarknetConfig) -> bool:
    """D1: an event's unique_dsts destinations cover >= dispersion_fraction of the darknet.

    Compared as a ratio so that an event at exactly the configured fraction
    classifies true; multiplying the fraction by the size instead picks up a
    half-ulp of float error and fails the exact boundary.
    """
    return unique_dsts / cfg.darknet_size >= cfg.dispersion_fraction


def dispersion_cut(cfg: DarknetConfig) -> int:
    """The least destination count for which classify_dispersion holds.

    The test is monotone in the count, so dsts >= the cut exactly when it
    holds. The cut is at most darknet_size, which always covers the fraction.
    """
    return bisect_left(range(cfg.darknet_size + 1), True,
                       key=lambda dsts: classify_dispersion(dsts, cfg))


class EventColumns(NamedTuple):
    """The events of a stream, one field a typed array, one slot an event.

    An event takes 37 bytes here: the address as 'I', whether it is ICMP
    echo as 'B', and the timestamps and counts as 'q' (read_event_log's
    rules bound them to fit). Port and type feed only the daily port
    profiles, which the same pass builds, and no definition reads the tool
    counts.
    """

    src_ip: array
    icmp: array
    start_ts: array
    end_ts: array
    pkt_count: array
    unique_dst_count: array


def build_daily_port_profiles(
    events: Iterable[tuple], cfg: DarknetConfig,
) -> Tuple[EventColumns, Dict[Tuple[int, int], int]]:
    """The one pass over an event stream: its columns and daily port profiles.

    A profile counts a source's distinct (dst_port, protocol) entries on the
    UTC day its events start, keyed by (source, days since the epoch); ICMP
    events carry no ports and are left out. An event wider than the darknet
    is a ValueError, thrown into a generator stream first so that an
    event-log reader names its file and line.
    """
    columns = EventColumns(array("I"), array("B"), *(array("q") for _ in range(4)))
    add_ip, add_icmp, add_start, add_end, add_pkts, add_dsts = (c.append for c in columns)
    seen: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
    size = cfg.darknet_size
    stream = iter(events)
    for ip, port, ttype, start, end, pkts, dsts, _zmap, _masscan, _other in stream:
        if dsts > size:
            wide = ValueError(
                f"event from {int_to_ip(ip)} port {port} at start_ts {start} has {dsts} "
                f"distinct destinations, more than the {size} addresses of the darknet"
            )
            if hasattr(stream, "throw"):
                stream.throw(wide)
            raise wide
        icmp = ttype == _ICMP
        add_ip(ip)
        add_icmp(icmp)
        add_start(start)
        add_end(end)
        add_pkts(pkts)
        add_dsts(dsts)
        if not icmp:
            seen[(ip, start // US_PER_DAY)].add(port << 1 | (ttype == _UDP))
    return columns, {key: len(ports) for key, ports in seen.items()}


def compute_thresholds(
    pkt_counts: Collection[int],
    cfg: DarknetConfig,
    port_profiles: Dict[Tuple[int, int], int],
) -> Thresholds:
    """D2/D3 thresholds from the ECDFs of the dataset's own event sizes and daily profiles."""
    if not pkt_counts:
        raise EmptyInputError("cannot derive thresholds from an empty event set")
    volume = ecdf_threshold(pkt_counts, cfg.alpha)
    if port_profiles:
        ports = ecdf_threshold(port_profiles.values(), cfg.alpha)
    else:
        ports = UNREACHABLE_PORTS
    return Thresholds(volume, ports)


def tag_events(
    columns: EventColumns,
    cfg: DarknetConfig,
    thresholds: Thresholds,
    port_profiles: Dict[Tuple[int, int], int],
) -> List[Tagged]:
    """Second pass: keep events matching at least one definition, with its mask.

    Each definition is one inclusive integer comparison, >=: D1 of the
    destinations against dispersion_cut, D2 of the packets against the
    volume threshold, D3 of the source's daily ports against the ports
    threshold. A TCP/UDP event is D3-tagged when its source crossed the
    ports threshold on the event's start day, i.e. the event contributed to
    an aggressive daily port profile.
    """
    cut = dispersion_cut(cfg)
    volume, ports = thresholds.volume_threshold_pkts, thresholds.ports_threshold
    tagged: List[Tagged] = []
    for ip, icmp, start, end, pkts, dsts in zip(*columns):
        mask = (dsts >= cut) | (pkts >= volume) << 1
        if not icmp:
            mask |= (port_profiles.get((ip, start // US_PER_DAY), 0) >= ports) << 2
        if mask:
            tagged.append((ip, start, end, pkts, dsts, mask))
    return tagged


def jaccard(a: Set[int], b: Set[int]) -> float:
    if not a and not b:
        raise BothEmptyError("jaccard undefined for two empty sets")
    return len(a & b) / len(a | b)


class SourceStats:
    """A source's aggregate over its tagged events, as the sidecar writes it.

    defs is the bit mask of the definitions it matched. first_ts, the start
    of its earliest tagged event, is not written out. max_daily_ports spans
    every day the source probed, aggressive or not.
    """

    __slots__ = (
        "defs", "first_ts", "max_dispersion", "max_event_pkts", "max_daily_ports",
        "total_pkts", "events",
    )

    def __init__(self, defs: int, first_ts: int, max_dispersion: float,
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
    tagged: List[Tagged]  # read only to count the tagged events
    sources: Dict[int, SourceStats]
    d1_ips: Set[int]
    d2_ips: Set[int]
    d3_ips: Set[int]
    verdicts: List[AhVerdict]
    events: int

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
    events: Iterable[tuple],
    cfg: DarknetConfig,
    thresholds: Optional[Thresholds] = None,
    acked: Optional[AckedList] = None,
    rdns: Optional[Dict[int, str]] = None,
) -> DetectionResult:
    """Full detection over one read of an event stream, which may be one-shot.

    The stream is folded into columns and daily port profiles; thresholds
    are derived from them unless given, and the columns are tagged. One fold
    over the tagged events fills both the (source, UTC day) verdict buckets
    and the per-source rows that the blocklists are read off.
    """
    if thresholds is not None:
        thresholds.validate()
    columns, port_profiles = build_daily_port_profiles(events, cfg)
    if not columns.pkt_count:
        raise EmptyInputError("no events to detect over")
    if thresholds is None:
        thresholds = compute_thresholds(columns.pkt_count, cfg, port_profiles)
    tagged = tag_events(columns, cfg, thresholds, port_profiles)

    # bucket: [definitions mask, max dispersion, max event packets] of one source-day,
    # keyed by (source, days since the epoch).
    buckets: Dict[Tuple[int, int], list] = {}
    sources: Dict[int, SourceStats] = {}
    size = cfg.darknet_size
    for ip, start, end, pkts, dsts, mask in tagged:
        dispersion = dsts / size
        src = sources.get(ip)
        if src is None:
            src = sources[ip] = SourceStats(0, start, dispersion, pkts, 0, 0, 0)
        src.defs |= mask
        src.first_ts = min(src.first_ts, start)
        src.max_dispersion = max(src.max_dispersion, dispersion)
        src.max_event_pkts = max(src.max_event_pkts, pkts)
        src.total_pkts += pkts
        src.events += 1
        for day in range(start // US_PER_DAY, end // US_PER_DAY + 1):
            bucket = buckets.get((ip, day))
            if bucket is None:
                buckets[(ip, day)] = [mask, dispersion, pkts]
            else:
                bucket[0] |= mask
                bucket[1] = max(bucket[1], dispersion)
                bucket[2] = max(bucket[2], pkts)
    for (ip, _day), ports in port_profiles.items():
        src = sources.get(ip)
        if src is not None and ports > src.max_daily_ports:
            src.max_daily_ports = ports

    matches = acked_sources(sources, acked, rdns)
    verdicts = [
        AhVerdict(
            src_ip=ip, day=_day_date(day), matched_defs=_DEFS[mask],
            max_dispersion=max_disp, max_event_pkts=max_pkts,
            distinct_ports=port_profiles.get((ip, day), 0),
            is_daily=sources[ip].first_ts // US_PER_DAY == day,
            acked=ip in matches, acked_org=matches.get(ip),
        )
        for (ip, day), (mask, max_disp, max_pkts) in buckets.items()
    ]
    verdicts.sort(key=lambda v: (v.day, v.src_ip))
    d1_ips, d2_ips, d3_ips = (
        {ip for ip, src in sources.items() if src.defs & bit} for bit in (1, 2, 4)
    )
    return DetectionResult(thresholds, tagged, sources, d1_ips, d2_ips, d3_ips, verdicts,
                           len(columns.pkt_count))


def write_blocklist(path, ips: Set[int]) -> int:
    """Plaintext blocklist, one address per line, numerically ascending."""
    return write_lines(path, map(int_to_ip, sorted(ips)))


def write_blocklist_sidecar(path, result: DetectionResult) -> None:
    """Per-IP statistics next to the union blocklist, one JSON object a line."""
    write_lines(path, (
        json.dumps(
            {
                "ip": int_to_ip(ip),
                "matched_defs": sorted(_DEFS[src.defs]),
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
