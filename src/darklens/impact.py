"""Traffic impact of aggressive scanners, from sampled flows or raw packets.

Flow exports are 1:k packet-sampled, so every estimate here inverts the
sampling first (sampled_pkts * sampling_denominator) and only then forms
ratios. Attribution is by exact source address match against the blocklist
under test. The packet-stream path bins a capture into fixed windows and
tracks both instantaneous and cumulative aggressive fractions.
"""
from __future__ import annotations

import math
from datetime import date
from typing import Collection, Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

from .model import (
    EmptyAhSetError,
    Protocol,
    TCP_ACK,
    TCP_SYN,
    TrafficType,
    US_PER_S,
    utc_day,
)


class NoFlowsForDayError(ValueError):
    pass


class RouterImpact(NamedTuple):
    ah_pkts_est: int
    total_pkts_est: int

    @property
    def fraction(self) -> float:
        return self.ah_pkts_est / self.total_pkts_est if self.total_pkts_est else 0.0


class FlowTally(NamedTuple):
    """Everything the flow tables read, gathered in one pass over the flows.

    cells maps (UTC day, router) to [ah_est, acked_est, total_est]. seen maps
    each router to the AH sources it carried on any day. mix holds the AH
    sources' estimated packets over every day as [tcp_syn, udp, icmp_echo,
    unclassifiable]. Memory is O(routers x days + |AH|), whatever the row count.
    """

    ah_size: int
    cells: Dict[Tuple[date, str], List[int]]
    seen: Dict[str, Set[int]]
    mix: List[int]


def tally_flows(
    flows: Iterable[tuple], ah: Set[int], acked_ips: Collection[int] = frozenset()
) -> FlowTally:
    """One pass over sampled flows against an AH set and its ACKed subset.

    flows are tuples in FlowRecord field order, as FlowReader yields them.

    Every estimate inverts the sampling first. acked_ips counts only where it
    meets the AH set. A TCP flow is the SYN class when its flag union has SYN
    set and ACK clear; TCP flows without flags, or whose union says
    established traffic, are unclassifiable.
    """
    if not ah:
        raise EmptyAhSetError("tally_flows needs a nonempty AH set")
    cells: Dict[Tuple[date, str], List[int]] = {}
    seen: Dict[str, Set[int]] = {}
    mix = [0, 0, 0, 0]
    udp, icmp = Protocol.UDP, Protocol.ICMP
    for router, ts, _dir, src, _dst, proto, _sp, _dp, sampled, denom, flags in flows:
        est = sampled * denom
        key = (utc_day(ts), router)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = [0, 0, 0]
        cell[2] += est
        if src not in ah:
            continue
        cell[0] += est
        if src in acked_ips:
            cell[1] += est
        seen.setdefault(router, set()).add(src)
        if proto is udp:
            mix[1] += est
        elif proto is icmp:
            mix[2] += est
        elif flags is not None and flags & TCP_SYN and not flags & TCP_ACK:
            mix[0] += est
        else:
            mix[3] += est
    return FlowTally(len(ah), cells, seen, mix)


def _day_impact(tally: FlowTally, day: date, column: int) -> Dict[str, RouterImpact]:
    per_router = {
        router: RouterImpact(cell[column], cell[2])
        for (cell_day, router), cell in tally.cells.items()
        if cell_day == day
    }
    if not per_router:
        raise NoFlowsForDayError(f"no flow records fall on {day.isoformat()}")
    return per_router


def flow_impact(tally: FlowTally, day: date) -> Dict[str, RouterImpact]:
    """Estimated aggressive share of each router's traffic on one UTC day."""
    return _day_impact(tally, day, 0)


def acked_impact(tally: FlowTally, day: date) -> Dict[str, RouterImpact]:
    """flow_impact restricted to the acknowledged subset of the AH set.

    An empty acknowledged subset is a legitimate outcome (nobody registered),
    reported as zero aggressive packets over the day's totals rather than an
    error.
    """
    return _day_impact(tally, day, 1)


class ImpactBin(NamedTuple):
    bin_start_us: int
    ah_pkts: int = 0
    total_pkts: int = 0


class ImpactSeries(NamedTuple):
    """Binned view of one vantage's packet stream against an AH set.

    Bins are contiguous, non-overlapping and ascending; interior windows with
    no traffic are materialized as zero bins so gaps stay visible.
    """

    bin_width_s: float
    bins: Sequence[ImpactBin] = ()

    def instantaneous_fractions(self) -> List[float]:
        """Per-bin aggressive fraction; an empty bin (total_pkts 0) reports 0."""
        return [b.ah_pkts / b.total_pkts if b.total_pkts else 0.0 for b in self.bins]

    def cumulative_fractions(self) -> List[float]:
        """Prefix-sum fraction up to and including each bin.

        Integer prefix sums with one division per bin, so the last value is
        exactly total_ah / total_pkts.
        """
        out: List[float] = []
        ah_sum = 0
        total_sum = 0
        for b in self.bins:
            ah_sum += b.ah_pkts
            total_sum += b.total_pkts
            out.append(ah_sum / total_sum if total_sum else 0.0)
        return out

    def totals(self) -> Tuple[int, int]:
        return sum(b.ah_pkts for b in self.bins), sum(b.total_pkts for b in self.bins)


def stream_impact(
    pkts: Iterable[tuple],
    ah: Set[int],
    bin_width_s: float = 1.0,
) -> ImpactSeries:
    """Per-bin aggressive and total packet counts of a packet stream.

    pkts are tuples in PacketMeta field order, as PcapReader yields them.
    """
    # Checked after rounding: a positive width under half a microsecond
    # would otherwise make zero-width bins.
    width_us = round(bin_width_s * US_PER_S) if 0 < bin_width_s < math.inf else 0
    if width_us < 1:
        raise ValueError(f"bin width {bin_width_s} s must be finite and round to at least 1 us")
    counts: Dict[int, List[int]] = {}
    for ts, src, _dst, _proto, _sp, _dp, _flags, _id, _seq, _icmp, _len in pkts:
        idx = ts // width_us
        cell = counts.get(idx)
        if cell is None:
            cell = counts[idx] = [0, 0]
        cell[1] += 1
        if src in ah:
            cell[0] += 1
    span = range(min(counts), max(counts) + 1) if counts else ()
    return ImpactSeries(
        bin_width_s, [ImpactBin(idx * width_us, *counts.get(idx, (0, 0))) for idx in span]
    )


def normalize_per_slash24(series: ImpactSeries, num_slash24: int) -> List[float]:
    """Aggressive packets per second per /24 of monitored space, per bin."""
    if num_slash24 <= 0:
        raise ValueError("num_slash24 must be positive")
    return [b.ah_pkts / series.bin_width_s / num_slash24 for b in series.bins]


def flag_high_load_bins(series: ImpactSeries) -> List[int]:
    """Indexes of bins in the top decile of both load and aggressive share.

    Top decile means value >= the 90th-percentile order statistic (1-based
    index ceil(0.9 * n) of the ascending sort), so ties at the cut are
    included.
    """
    n = len(series.bins)
    if n == 0:
        return []
    totals = [b.total_pkts for b in series.bins]
    fractions = series.instantaneous_fractions()
    k = -(-9 * n // 10)  # ceil(0.9n) in exact integer arithmetic
    total_cut = sorted(totals)[k - 1]
    frac_cut = sorted(fractions)[k - 1]
    return [
        i
        for i in range(n)
        if totals[i] >= total_cut and fractions[i] >= frac_cut
    ]


class ProtocolMix(NamedTuple):
    """Scanning-traffic split in percent, plus what could not be classified."""

    pct_tcp_syn: float
    pct_udp: float
    pct_icmp_echo: float
    pkts_tcp_syn: int
    pkts_udp: int
    pkts_icmp_echo: int
    classified_pkts: int
    unclassifiable_pkts: int


def _mix(tcp_syn: int, udp: int, icmp: int, unclassifiable: int) -> ProtocolMix:
    classified = tcp_syn + udp + icmp
    if classified == 0:
        return ProtocolMix(0.0, 0.0, 0.0, tcp_syn, udp, icmp, 0, unclassifiable)
    return ProtocolMix(
        pct_tcp_syn=100.0 * tcp_syn / classified,
        pct_udp=100.0 * udp / classified,
        pct_icmp_echo=100.0 * icmp / classified,
        pkts_tcp_syn=tcp_syn,
        pkts_udp=udp,
        pkts_icmp_echo=icmp,
        classified_pkts=classified,
        unclassifiable_pkts=unclassifiable,
    )


def protocol_breakdown_darknet(events, ah: Set[int]) -> ProtocolMix:
    """Packet split over the three scanning classes for AH darknet events."""
    counts = {TrafficType.TCP_SYN: 0, TrafficType.UDP: 0, TrafficType.ICMP_ECHO_REQUEST: 0}
    for ev in events:
        if ev.key.src_ip in ah:
            counts[ev.key.traffic_type] += ev.pkt_count
    return _mix(
        counts[TrafficType.TCP_SYN],
        counts[TrafficType.UDP],
        counts[TrafficType.ICMP_ECHO_REQUEST],
        unclassifiable=0,
    )


def protocol_breakdown_flows(tally: FlowTally) -> ProtocolMix:
    """Same split from sampled flows over every day, as pre-sampling estimates."""
    return _mix(*tally.mix)


def ah_presence(tally: FlowTally) -> Dict[str, float]:
    """Share of the AH set each router observed as a source on any day."""
    return {router: len(ips) / tally.ah_size for router, ips in tally.seen.items()}

