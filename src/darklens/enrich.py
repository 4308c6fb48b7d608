"""Attribution of detected scanners: ACKed matching, origins, tag joins."""
from __future__ import annotations

import enum
from typing import Collection, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .feeds import AckedList, AsnMap, RdnsMap, TagDb, origin_of
from .model import EmptyAhSetError, slash24_of


class MatchVia(str, enum.Enum):
    IP_MATCH = "ip"
    DOMAIN_MATCH = "domain"
    NONE = "none"


class AckedMatch(NamedTuple):
    acked: bool
    org: Optional[str]
    via: MatchVia


_NO_MATCH = AckedMatch(False, None, MatchVia.NONE)


def match_acked(ip: int, acked: AckedList, rdns: RdnsMap) -> AckedMatch:
    """Is this source an acknowledged scanner, and whose?

    An exact IP entry always wins over a reverse-DNS keyword hit. Keyword
    matching is case-insensitive substring over the FQDN and the first
    keyword in list order takes the credit, so overlapping keywords stay
    deterministic.
    """
    if ip in acked.ips:
        return AckedMatch(True, acked.org_by_ip.get(ip), MatchVia.IP_MATCH)
    fqdn = rdns.get(ip)
    if fqdn:
        fqdn = fqdn.lower()
        for keyword in acked.keywords:
            if keyword in fqdn:
                return AckedMatch(True, acked.org_by_keyword.get(keyword), MatchVia.DOMAIN_MATCH)
    return _NO_MATCH


def acked_sources(
    ips: Iterable[int], acked: Optional[AckedList], rdns: Optional[RdnsMap] = None
) -> Dict[int, AckedMatch]:
    """The ACKed matches among ips, by address; empty when no list is given."""
    if acked is None:
        return {}
    rdns = rdns or RdnsMap()
    matches = {}
    for ip in ips:
        m = match_acked(ip, acked, rdns)
        if m.acked:
            matches[ip] = m
    return matches


class OriginRow(NamedTuple):
    """One origins.csv row; the field names are the CSV header."""

    asn: int
    org: str
    country: str
    unique_32s: int
    unique_24s: int
    pkts: int
    acked_32s: int
    acked_24s: int


def origin_table(
    ah: Set[int], pkts_by_ip: Dict[int, int], asn_map: AsnMap, acked_ips: Collection[int]
) -> List[OriginRow]:
    """Group aggressive sources by routing origin, busiest origin first.

    Addresses the map cannot place land in the ASN-0 "unknown" group. Ranking
    is by unique /32 count, ties broken by ASN then org for stable output.
    ACKed columns count the members of each group that are in acked_ips (the
    ACKed matches among ah); they stay zero when it is empty.
    """
    groups: Dict[Tuple[int, str, str], dict] = {}
    for ip in ah:
        entry = origin_of(ip, asn_map)
        group = groups.setdefault(
            (entry.asn, entry.org, entry.country),
            {"ips": set(), "pkts": 0, "acked_ips": set()},
        )
        group["ips"].add(ip)
        group["pkts"] += pkts_by_ip.get(ip, 0)
        if ip in acked_ips:
            group["acked_ips"].add(ip)
    rows = [
        OriginRow(
            asn=asn,
            org=org,
            country=country,
            unique_32s=len(g["ips"]),
            unique_24s=len({slash24_of(ip) for ip in g["ips"]}),
            pkts=g["pkts"],
            acked_32s=len(g["acked_ips"]),
            acked_24s=len({slash24_of(ip) for ip in g["acked_ips"]}),
        )
        for (asn, org, country), g in groups.items()
    ]
    rows.sort(key=lambda r: (-r.unique_32s, r.asn, r.org))
    return rows


class TagJoinResult(NamedTuple):
    """AH set joined against a third-party tag database.

    histogram buckets every AH source into benign/malicious/unknown or
    not_present when the database has never seen it, keyed in that order.
    overlap_fraction is the share of AH sources present at all.
    """

    histogram: Dict[str, int]
    top_tags: List[Tuple[str, int]]
    overlap_fraction: float


NOT_PRESENT = "not_present"


def tag_join(ah: Set[int], tags: TagDb, top_n: int = 20) -> TagJoinResult:
    if not ah:
        raise EmptyAhSetError("tag_join needs a nonempty AH set")
    histogram = {"benign": 0, "malicious": 0, "unknown": 0, NOT_PRESENT: 0}
    tag_counts: Dict[str, int] = {}
    present = 0
    for ip in ah:
        entry = tags.get(ip)
        if entry is None:
            histogram[NOT_PRESENT] += 1
            continue
        present += 1
        histogram[entry.classification.value] += 1
        for tag in entry.tags:
            tag_counts[tag] = tag_counts.get(tag, 0) + 1
    top = sorted(tag_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if top_n > 0:
        top = top[:top_n]
    return TagJoinResult(histogram=histogram, top_tags=top, overlap_fraction=present / len(ah))

