"""Attribution and characterization of detected scanners: ACKed matching,
origins, tag joins, definition intersections and heavy-tail curves."""
from __future__ import annotations

from typing import Collection, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .feeds import AckedList, AsnMap, TagEntry, origin_of
from .model import D1, D2, D3, EmptyAhSetError, EmptyInputError, slash24_of


def acked_sources(
    ips: Iterable[int], acked: Optional[AckedList], rdns: Optional[Dict[int, str]] = None
) -> Dict[int, Optional[str]]:
    """The acknowledged scanners among ips, each mapped to its org.

    An exact IP entry always wins over a reverse-DNS keyword hit; its org is
    None when the entry names none. Keyword matching is substring over the
    FQDN, which load_rdns lowercases, and the first keyword in file order
    takes the credit, so overlapping keywords stay deterministic. Empty when
    no list is given.
    """
    if acked is None:
        return {}
    rdns = rdns or {}
    matches = {}
    for ip in ips:
        if ip in acked.ips:
            matches[ip] = acked.ips[ip]
            continue
        fqdn = rdns.get(ip)
        if fqdn:
            for keyword, org in acked.keywords.items():
                if keyword in fqdn:
                    matches[ip] = org
                    break
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
# The most frequent tags a join keeps.
TOP_TAGS = 20


def tag_join(ah: Set[int], tags: Dict[int, TagEntry]) -> TagJoinResult:
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
    top = sorted(tag_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_TAGS]
    return TagJoinResult(histogram=histogram, top_tags=top, overlap_fraction=present / len(ah))


class IntersectionRow(NamedTuple):
    ips: int
    asns: int
    orgs: int
    countries: int


INTERSECTION_COMBOS = ["D1", "D2", "D3", "D1&D2", "D2&D3", "D1&D3", "D1&D2&D3"]


def definition_intersections(
    d1: Set[int], d2: Set[int], d3: Set[int], asn_map: AsnMap
) -> Dict[str, IntersectionRow]:
    """Unique IP/ASN/org/country counts for every definition combination.

    A combination's name spells its members: "D1&D3" is d1 & d3.
    """
    named = {D1: d1, D2: d2, D3: d3}
    out: Dict[str, IntersectionRow] = {}
    for name in INTERSECTION_COMBOS:
        first, *rest = (named[part] for part in name.split("&"))
        ips = first.intersection(*rest)
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
