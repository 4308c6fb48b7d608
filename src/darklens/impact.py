"""Traffic impact of aggressive scanners, from sampled flows or raw packets.

Flow exports are 1:k packet-sampled, so every estimate here inverts the
sampling first (sampled_pkts * sampling_denominator) and only then forms
ratios. Attribution is by exact source address match against the blocklist
under test. The packet-stream path bins a capture into fixed windows and
writes each bin's and the cumulative aggressive fraction in one walk.
"""
from __future__ import annotations

import math
from datetime import date
from operator import itemgetter
from typing import Collection, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Set, Tuple

from .model import (
    EmptyAhSetError,
    Protocol,
    TCP_ACK,
    TCP_SYN,
    TrafficType,
    US_PER_S,
    order_statistic,
    utc_day,
)


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
    return {
        router: RouterImpact(cell[column], cell[2])
        for (cell_day, router), cell in tally.cells.items()
        if cell_day == day
    }


def flow_impact(tally: FlowTally, day: date) -> Dict[str, RouterImpact]:
    """Estimated aggressive share of each router's traffic on one UTC day.

    Empty when no flow row falls on the day.
    """
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


def series_width_us(bin_width_s: float, num_slash24: int = 1) -> int:
    """The bin width in whole microseconds; ValueError unless it rounds to at least
    1 us (no zero-wide bins) and the /24 count the rate divides by is positive."""
    width_us = round(bin_width_s * US_PER_S) if 0 < bin_width_s < math.inf else 0
    if width_us < 1:
        raise ValueError(f"bin width {bin_width_s} s must be finite and round to at least 1 us")
    if num_slash24 <= 0:
        raise ValueError("num_slash24 must be positive")
    return width_us


class ImpactSeries(NamedTuple):
    """Binned view of one vantage's packet stream against an AH set.

    Bins are ascending and on one grid; a window with no traffic may be left
    out. The series covers every window of its span, so gaps stay visible.
    """

    bin_width_s: float
    bins: Sequence[ImpactBin] = ()

    def span(self) -> range:
        """The start (us) of every bin from the first listed bin to the last."""
        if not self.bins:
            return range(0)
        return range(self.bins[0].bin_start_us, self.bins[-1].bin_start_us + 1,
                     series_width_us(self.bin_width_s))

    def totals(self) -> Tuple[int, int]:
        return sum(b.ah_pkts for b in self.bins), sum(b.total_pkts for b in self.bins)


def stream_impact(
    pkts: Iterable[tuple],
    ah: Set[int],
    bin_width_s: float = 1.0,
) -> ImpactSeries:
    """Per-bin aggressive and total packet counts of a packet stream.

    pkts are tuples in PacketMeta field order, as PcapReader yields them. It lists
    only bins with packets and carries the width rounded to whole microseconds.
    """
    width_us = series_width_us(bin_width_s)
    counts: Dict[int, List[int]] = {}
    for ts, src, _dst, _proto, _sp, _dp, _flags, _id, _seq, _icmp, _len in pkts:
        idx = ts // width_us
        cell = counts.get(idx)
        if cell is None:
            cell = counts[idx] = [0, 0]
        cell[1] += 1
        if src in ah:
            cell[0] += 1
    return ImpactSeries(
        width_us / US_PER_S, [ImpactBin(idx * width_us, *counts[idx]) for idx in sorted(counts)]
    )


def series_rows(series: ImpactSeries, num_slash24: int) -> Iterable[tuple]:
    """Each series.csv row, in one walk over the span.

    A row is the bin start (us), ah_pkts, total_pkts, the bin's aggressive
    fraction (0 when empty), the cumulative fraction and the aggressive
    packets per second per /24, an unlisted bin being empty. The cumulative fraction
    divides integer prefix sums, so the last row's is exactly total_ah / total_pkts.
    """
    series_width_us(series.bin_width_s, num_slash24)
    ah_sum = total_sum = 0
    listed = iter(series.bins)
    nxt = next(listed, None)
    for start in series.span():
        ah = total = 0
        if start == nxt[0]:
            _start, ah, total = nxt
            nxt = next(listed, None)
        ah_sum += ah
        total_sum += total
        yield (
            start, ah, total, ah / total if total else 0.0,
            ah_sum / total_sum if total_sum else 0.0, ah / series.bin_width_s / num_slash24,
        )


def flag_high_load_bins(series: ImpactSeries) -> List[int]:
    """Span positions of the bins with packets in the top decile of both load and share.

    Top decile means value >= the 90th-percentile order statistic (1-based
    index ceil(0.9 * n) over the n bins of the span), so ties at the cut are included.
    Empty bins sort first in both orders, so only the bins with packets are
    held, and an index that falls among the empty bins makes the cut 0.
    """
    span = series.span()
    n = len(span)
    busy = [(span.index(start), total, ah / total) for start, ah, total in series.bins if total]
    # ceil(0.9n) in exact integer arithmetic, less the empty bins that sort below.
    k = -(-9 * n // 10) - (n - len(busy))
    if k < 1:
        return [i for i, _total, _share in busy]
    total_cut = order_statistic(busy, k, itemgetter(1))[1]
    share_cut = order_statistic(busy, k, itemgetter(2))[2]
    return [i for i, total, share in busy if total >= total_cut and share >= share_cut]


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


def protocol_breakdown_darknet(
    tally: Mapping[Tuple[int, TrafficType], Sequence[int]]
) -> ProtocolMix:
    """Packet split over the three scanning classes for AH darknet events.

    tally is the tool tally that fingerprint.port_fingerprint_table reads; an
    event's tool counts sum to its packets.
    """
    counts = {TrafficType.TCP_SYN: 0, TrafficType.UDP: 0, TrafficType.ICMP_ECHO_REQUEST: 0}
    for (_port, ttype), tools in tally.items():
        counts[ttype] += sum(tools)
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

