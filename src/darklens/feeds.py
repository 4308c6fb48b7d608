"""Loaders for the side-channel intelligence feeds.

Four small tabular inputs enrich detection output: the operator-acknowledged
scanner list (IPs plus rDNS keywords), a reverse-DNS snapshot, a third-party
tag database, and an IP-to-ASN routing map. All are CSV-ish text; malformed
lines are skipped and counted on the returned object so a partially rotten
feed still loads.
"""
from __future__ import annotations

import csv
import enum
from typing import NamedTuple, Optional

from .model import ip_to_int, parse_cidr, parse_uint


class TagClass(str, enum.Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"
    UNKNOWN = "unknown"


class AsnEntry(NamedTuple):
    asn: int
    org: str
    country: str


class AckedList:
    """Acknowledged-scanner roster: exact IPs and rDNS keywords.

    keywords preserves file order because the first matching keyword wins
    during rDNS matching.
    """

    __slots__ = ("ips", "keywords", "org_by_ip", "org_by_keyword", "malformed_lines")

    def __init__(self):
        self.ips: set[int] = set()
        self.keywords: list[str] = []
        self.org_by_ip: dict[int, str] = {}
        self.org_by_keyword: dict[str, str] = {}
        self.malformed_lines = 0


class RdnsMap:
    __slots__ = ("entries", "malformed_lines")

    def __init__(self):
        self.entries: dict[int, str] = {}
        self.malformed_lines = 0

    def get(self, ip: int) -> Optional[str]:
        return self.entries.get(ip)


class TagEntry(NamedTuple):
    classification: TagClass
    tags: tuple[str, ...]


class TagDb:
    __slots__ = ("entries", "malformed_lines")

    def __init__(self):
        self.entries: dict[int, TagEntry] = {}
        self.malformed_lines = 0

    def get(self, ip: int) -> Optional[TagEntry]:
        return self.entries.get(ip)


class AsnMap:
    """Longest-prefix IP-to-ASN map.

    Prefixes are bucketed by length; a lookup masks the address against each
    length from /32 down and returns the first hit, which is by construction
    the longest matching prefix.
    """

    __slots__ = ("_by_prefixlen", "malformed_lines")

    def __init__(self):
        self._by_prefixlen: dict[int, dict[int, AsnEntry]] = {}
        self.malformed_lines = 0

    def add(self, network: int, prefixlen: int, entry: AsnEntry) -> None:
        self._by_prefixlen.setdefault(prefixlen, {})[network] = entry

    def lookup(self, ip: int) -> Optional[AsnEntry]:
        for plen in range(32, -1, -1):
            bucket = self._by_prefixlen.get(plen)
            if bucket is None:
                continue
            masked = ip & (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF if plen else 0
            entry = bucket.get(masked)
            if entry is not None:
                return entry
        return None

    def __len__(self) -> int:
        return sum(len(b) for b in self._by_prefixlen.values())


def _csv_lines(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            yield row


def load_acked(ips_path, keywords_path) -> AckedList:
    """ips file: 'ip[,org]' per line; keywords file: 'keyword,org' per line.

    Keywords are lowercased on load; a keyword containing whitespace is
    malformed. Duplicate IPs keep the first org seen.
    """
    acked = AckedList()
    for row in _csv_lines(ips_path):
        try:
            ip = ip_to_int(row[0].strip())
        except ValueError:
            acked.malformed_lines += 1
            continue
        if len(row) > 2:
            acked.malformed_lines += 1
            continue
        if ip not in acked.ips:
            acked.ips.add(ip)
            if len(row) == 2 and row[1].strip():
                acked.org_by_ip[ip] = row[1].strip()
    for row in _csv_lines(keywords_path):
        if len(row) != 2:
            acked.malformed_lines += 1
            continue
        keyword = row[0].strip().lower()
        org = row[1].strip()
        if not keyword or any(ch.isspace() for ch in keyword) or not org:
            acked.malformed_lines += 1
            continue
        if keyword not in acked.org_by_keyword:
            acked.keywords.append(keyword)
            acked.org_by_keyword[keyword] = org
    return acked


def load_rdns(path) -> RdnsMap:
    """'ip,fqdn' per line; FQDNs lowercased for case-insensitive matching."""
    rdns = RdnsMap()
    for row in _csv_lines(path):
        if len(row) != 2:
            rdns.malformed_lines += 1
            continue
        try:
            ip = ip_to_int(row[0].strip())
        except ValueError:
            rdns.malformed_lines += 1
            continue
        fqdn = row[1].strip().lower()
        if not fqdn:
            rdns.malformed_lines += 1
            continue
        rdns.entries.setdefault(ip, fqdn)
    return rdns


def load_tags(path) -> TagDb:
    """'ip,classification,tag1|tag2|...' per line; tag list may be empty."""
    db = TagDb()
    for row in _csv_lines(path):
        if len(row) != 3:
            db.malformed_lines += 1
            continue
        try:
            ip = ip_to_int(row[0].strip())
            classification = TagClass(row[1].strip().lower())
        except ValueError:
            db.malformed_lines += 1
            continue
        tags = tuple(t.strip() for t in row[2].split("|") if t.strip())
        db.entries.setdefault(ip, TagEntry(classification, tags))
    return db


def load_asn_map(path) -> AsnMap:
    """'cidr,asn,org,country' per line; cidr as parse_cidr reads it, asn as parse_uint."""
    amap = AsnMap()
    for row in _csv_lines(path):
        if len(row) != 4:
            amap.malformed_lines += 1
            continue
        try:
            network, prefixlen = parse_cidr(row[0].strip())
            asn = parse_uint(row[1])
        except ValueError:
            amap.malformed_lines += 1
            continue
        amap.add(network, prefixlen, AsnEntry(asn, row[2].strip(), row[3].strip()))
    return amap


# Group used for addresses the routing map cannot place.
UNKNOWN_ORIGIN = AsnEntry(asn=0, org="unknown", country="")


def origin_of(ip: int, asn_map: AsnMap) -> AsnEntry:
    return asn_map.lookup(ip) or UNKNOWN_ORIGIN
