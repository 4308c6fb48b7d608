"""Loaders for the side-channel intelligence feeds.

Four small CSV inputs enrich detection output: the operator-acknowledged
scanner list (IPs plus rDNS keywords), a reverse-DNS snapshot, a third-party
tag database, and an IP-to-ASN routing map. One loop reads them all. It skips
blank lines and lines whose first field starts with `#`. A line is malformed
when it has the wrong number of fields or a field fails its check (an address
that is not a canonical dotted quad, an unknown tag class, an empty name);
malformed lines are skipped and counted in `malformed_lines`, so a partially
rotten feed still loads. In the ACKed, rDNS and tag feeds the first line for
an address or keyword wins; in the ASN map the last line for a prefix does,
and each line that repeats a prefix counts in `duplicate_lines`.
"""
from __future__ import annotations

import csv
import enum
from typing import NamedTuple, Optional

from .model import ip_to_int, parse_cidr, parse_uint, read_lines


class TagClass(str, enum.Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"
    UNKNOWN = "unknown"


class AsnEntry(NamedTuple):
    asn: int
    org: str
    country: str


class TagEntry(NamedTuple):
    classification: TagClass
    tags: tuple[str, ...]


class Feed(dict):
    """A feed's entries by key, plus its malformed-line count."""

    malformed_lines = 0
    add = dict.setdefault  # the first line for a key wins


class AckedList(NamedTuple):
    """Acknowledged-scanner roster.

    ips maps each address to its org, or None when its line names none.
    keywords maps each rDNS keyword to its org in file order, because the
    first matching keyword wins during rDNS matching.
    """

    ips: dict
    keywords: dict
    malformed_lines: int = 0


class AsnMap:
    """Longest-prefix IP-to-ASN map.

    Prefixes are bucketed by length; a lookup masks the address against each
    length from /32 down and returns the first hit, which is by construction
    the longest matching prefix.
    """

    __slots__ = ("_by_prefixlen", "malformed_lines", "duplicate_lines")

    def __init__(self):
        self._by_prefixlen: dict[int, dict[int, AsnEntry]] = {}
        self.malformed_lines = 0
        self.duplicate_lines = 0  # lines for a prefix an earlier line already set

    def add(self, network: int, prefixlen: int, entry: AsnEntry) -> None:
        bucket = self._by_prefixlen.setdefault(prefixlen, {})
        self.duplicate_lines += network in bucket
        bucket[network] = entry  # the last line for a prefix wins

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


def _load(path, parse_row, feed):
    """Pass each data line of a CSV feed through parse_row into feed.add.

    A line on which parse_row raises ValueError counts in feed.malformed_lines.
    A line that is not UTF-8, or that the CSV tokeniser refuses (such as one
    with a field over csv.field_size_limit()), is a ValueError that names
    path:line.
    """
    for row in read_lines(path, csv.reader):
        if not row or (len(row) == 1 and not row[0].strip()) or row[0].lstrip().startswith("#"):
            continue
        try:
            entry = parse_row(row)
        except ValueError:
            feed.malformed_lines += 1
        else:
            feed.add(*entry)
    return feed


def _acked_ip_row(row):
    if len(row) > 2:
        raise ValueError("more than two fields")
    org = row[1].strip() if len(row) == 2 else ""
    return ip_to_int(row[0].strip()), org or None


def _keyword_row(row):
    keyword, org = (field.strip() for field in row)
    keyword = keyword.lower()
    if not keyword or any(ch.isspace() for ch in keyword) or not org:
        raise ValueError("empty field or keyword with whitespace")
    return keyword, org


def _rdns_row(row):
    ip, fqdn = row
    fqdn = fqdn.strip().lower()
    if not fqdn:
        raise ValueError("empty name")
    return ip_to_int(ip.strip()), fqdn


def _tag_row(row):
    ip, classification, tags = row
    return ip_to_int(ip.strip()), TagEntry(
        TagClass(classification.strip().lower()),
        tuple(t.strip() for t in tags.split("|") if t.strip()),
    )


def _asn_row(row):
    cidr, asn, org, country = row
    return (*parse_cidr(cidr.strip()), AsnEntry(parse_uint(asn), org.strip(), country.strip()))


def load_acked(ips_path, keywords_path) -> AckedList:
    """ips file: 'ip[,org]' per line; keywords file: 'keyword,org' per line.

    Keywords are lowercased on load; a keyword containing whitespace is
    malformed.
    """
    ips = _load(ips_path, _acked_ip_row, Feed())
    keywords = _load(keywords_path, _keyword_row, Feed())
    return AckedList(ips, keywords, ips.malformed_lines + keywords.malformed_lines)


def load_rdns(path) -> Feed:
    """'ip,fqdn' per line; FQDNs lowercased for case-insensitive matching."""
    return _load(path, _rdns_row, Feed())


def load_tags(path) -> Feed:
    """'ip,classification,tag1|tag2|...' per line, to TagEntry; tag list may be empty."""
    return _load(path, _tag_row, Feed())


def load_asn_map(path) -> AsnMap:
    """'cidr,asn,org,country' per line; cidr as parse_cidr reads it, asn as parse_uint."""
    return _load(path, _asn_row, AsnMap())


# Group used for addresses the routing map cannot place.
UNKNOWN_ORIGIN = AsnEntry(asn=0, org="unknown", country="")


def origin_of(ip: int, asn_map: AsnMap) -> AsnEntry:
    return asn_map.lookup(ip) or UNKNOWN_ORIGIN
