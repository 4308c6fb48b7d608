"""Loaders for the side-channel intelligence feeds.

Four small CSV inputs enrich detection output: the operator-acknowledged
scanner list (IPs plus rDNS keywords), a reverse-DNS snapshot, a third-party
tag database, and an IP-to-ASN routing map. Each is read by model.read_rows,
the reader flow files share. A loader skips blank lines and lines whose first
field starts with `#`. A line is malformed when it holds a byte that is not
UTF-8, the CSV tokeniser refuses it (a field over csv.field_size_limit(), a
CR before anything but LF in an unquoted field), it has the wrong number of
fields or a field fails its check (an address
that is not a canonical dotted quad, an unknown tag class, an empty name);
malformed lines are skipped and counted in `malformed_lines`, so a partially
rotten feed still loads. In the ACKed, rDNS and tag feeds the first line for
an address or keyword wins; in the ASN map the last line for a prefix does,
and each line that repeats a prefix counts in `duplicate_lines`.

The rDNS, tag and ASN feeds each have a row grammar (see model.read_rows),
one compiled regex that takes the canonical spelling of a line: fields of
printable ASCII, unquoted and with no space around them, an LF or CRLF
ending, a lower-case tag class, bounded canonical decimals, and a dotted quad
that inet_pton then confirms.

A loader given keep, a set of addresses, checks and counts every line but
keeps only the entries a caller joining against keep can look up: an rDNS or
tag line for an address in keep, and an ASN line whose prefix covers one, so
lookup() gives every address in keep its longest-prefix entry.
"""
from __future__ import annotations

import enum
import re
from _socket import AF_INET, inet_pton
from functools import partial
from typing import Collection, NamedTuple, Optional

from .model import _QUAD, _unpack_quad, ip_to_int, parse_cidr, parse_uint, read_rows


class TagClass(str, enum.Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"
    UNKNOWN = "unknown"


_TAG_CLASSES = {member.value: member for member in TagClass}


class AsnEntry(NamedTuple):
    asn: int
    org: str
    country: str


class TagEntry(NamedTuple):
    classification: TagClass
    tags: tuple[str, ...]


class Feed(dict):
    """A feed's entries by key, plus its malformed-line count.

    With keep, a valid line becomes an entry only when its key is in keep.
    """

    malformed_lines = 0

    def __init__(self, keep: Optional[Collection[int]] = None):
        super().__init__()
        self.keep = keep

    def add(self, key, value) -> None:
        if self.keep is None or key in self.keep:
            self.setdefault(key, value)  # the first line for a key wins


class AckedList(NamedTuple):
    """Acknowledged-scanner roster.

    ips maps each address to its org, or None when its line names none.
    keywords maps each rDNS keyword to its org in file order, because the
    first matching keyword wins during rDNS matching.
    """

    ips: dict
    keywords: dict
    malformed_lines: int = 0


# The netmask of each prefix length, 0 to 32.
_MASKS = [0xFFFFFFFF << (32 - plen) & 0xFFFFFFFF for plen in range(33)]


class AsnMap:
    """Longest-prefix IP-to-ASN map.

    Prefixes are bucketed by length; a lookup masks the address against each
    length from /32 down and returns the first hit, which is by construction
    the longest matching prefix. With keep, only prefixes that cover an
    address in keep hold an entry; duplicate_lines still counts over every
    prefix added.
    """

    __slots__ = ("_by_prefixlen", "_covered", "_skipped", "malformed_lines", "duplicate_lines")

    def __init__(self, keep: Optional[Collection[int]] = None):
        self._by_prefixlen: dict[int, dict[int, AsnEntry]] = {}
        # With keep, each prefix length's networks that cover an address in keep.
        self._covered = None if keep is None else [
            {ip & mask for ip in keep} for mask in _MASKS
        ]
        # The prefixes added that cover no address in keep, as network << 6 | length.
        self._skipped: set[int] = set()
        self.malformed_lines = 0
        self.duplicate_lines = 0  # lines for a prefix an earlier line already set

    def add(self, network: int, prefixlen: int, entry: AsnEntry) -> None:
        bucket = self._bucket(network, prefixlen)
        if bucket is not None:
            bucket[network] = entry  # the last line for a prefix wins

    def _bucket(self, network: int, prefixlen: int) -> Optional[dict]:
        """The bucket for a prefix's entry, or None for a prefix that covers no
        address in keep; a line that repeats a prefix counts either way."""
        if self._covered is None or network in self._covered[prefixlen]:
            bucket = self._by_prefixlen.setdefault(prefixlen, {})
            self.duplicate_lines += network in bucket
            return bucket
        key = network << 6 | prefixlen
        self.duplicate_lines += key in self._skipped
        self._skipped.add(key)
        return None

    def lookup(self, ip: int) -> Optional[AsnEntry]:
        for plen in range(32, -1, -1):
            bucket = self._by_prefixlen.get(plen)
            if bucket is None:
                continue
            entry = bucket.get(ip & _MASKS[plen])
            if entry is not None:
                return entry
        return None


def _feed_row(parse, row):
    """The row parser of a feed: None for a blank line or one whose first field starts with #."""
    if not row or (len(row) == 1 and not row[0].strip()) or row[0].lstrip().startswith("#"):
        return None
    return parse(row)


def _fill(feed, path, parse, grammar=None, take=None):
    """feed, given each entry parse reads from path; take adds its own (see model.read_rows)."""
    for entry in read_rows(path, feed, "malformed_lines", partial(_feed_row, parse), grammar,
                           take):
        feed.add(*entry)
    return feed


# The row grammars (see the module docstring). Every field is bounded well
# below csv.field_size_limit(), so a line a grammar takes is one csv.reader
# would read to the same fields. _PLAIN is printable ASCII but for the comma
# and the quote, so no whitespace, NUL or stray byte (a lone surrogate);
# _TRIMMED is a field of _PLAIN and spaces that neither starts nor ends with
# a space.
_PLAIN = r'[!#-+\--~]'
_TRIMMED = rf'((?:{_PLAIN}(?:[ !#-+\--~]{{0,254}}{_PLAIN})?)?)'
_END = r"\r?\n?"
_RDNS_ROW = rf"{_QUAD},({_PLAIN}{{1,255}}){_END}"
_TAG_ROW = rf"{_QUAD},(benign|malicious|unknown),({_PLAIN}{{0,4096}}){_END}"
_ASN_ROW = rf"{_QUAD}/(3[0-2]|[12]?[0-9]),(0|[1-9][0-9]{{0,17}}),{_TRIMMED},{_TRIMMED}{_END}"


def _by_address(feed, value):
    """The take of a feed keyed by address (its first group): value(m) is a kept line's entry."""
    keep, setdefault = feed.keep, feed.setdefault

    def take(m):
        key = _unpack_quad(inet_pton(AF_INET, m[1]))[0]
        if keep is None or key in keep:
            setdefault(key, value(m))  # the first line for a key wins
    return take


def _by_prefix(amap):
    """The take of an ASN map: it builds an entry only for a prefix amap keeps."""
    bucket_for = amap._bucket

    def take(m):
        network = _unpack_quad(inet_pton(AF_INET, m[1]))[0]
        prefixlen = int(m[2])
        if network & (0xFFFFFFFF >> prefixlen):
            raise ValueError("host bits set")
        bucket = bucket_for(network, prefixlen)
        if bucket is not None:
            bucket[network] = AsnEntry(int(m[3]), m[4], m[5])  # the last line for a prefix wins
    return take


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
    ips = _fill(Feed(), ips_path, _acked_ip_row)
    keywords = _fill(Feed(), keywords_path, _keyword_row)
    return AckedList(ips, keywords, ips.malformed_lines + keywords.malformed_lines)


def load_rdns(path, keep: Optional[Collection[int]] = None) -> Feed:
    """'ip,fqdn' per line; FQDNs lowercased for case-insensitive matching."""
    feed = Feed(keep)
    return _fill(feed, path, _rdns_row, re.compile(_RDNS_ROW).fullmatch,
                 _by_address(feed, lambda m: m[2].lower()))


def _tag_entry(m):
    return TagEntry(_TAG_CLASSES[m[2]], tuple(filter(None, m[3].split("|"))))


def load_tags(path, keep: Optional[Collection[int]] = None) -> Feed:
    """'ip,classification,tag1|tag2|...' per line, to TagEntry; tag list may be empty."""
    feed = Feed(keep)
    return _fill(feed, path, _tag_row, re.compile(_TAG_ROW).fullmatch,
                 _by_address(feed, _tag_entry))


def load_asn_map(path, keep: Optional[Collection[int]] = None) -> AsnMap:
    """'cidr,asn,org,country' per line; cidr as parse_cidr reads it, asn as parse_uint."""
    amap = AsnMap(keep)
    return _fill(amap, path, _asn_row, re.compile(_ASN_ROW).fullmatch, _by_prefix(amap))


# Group used for addresses the routing map cannot place.
UNKNOWN_ORIGIN = AsnEntry(asn=0, org="unknown", country="")


def origin_of(ip: int, asn_map: AsnMap) -> AsnEntry:
    return asn_map.lookup(ip) or UNKNOWN_ORIGIN
