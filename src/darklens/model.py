"""Core domain types and configuration for the darknet analytics engine.

Everything downstream (event building, detection, impact estimation) speaks in
terms of the types defined here. Conventions that matter:

* Timestamps are integers in microseconds since the Unix epoch. No floats, so
  two runs over the same capture produce byte-identical output.
* IPv4 addresses travel as unsigned 32-bit integers internally and are only
  rendered dotted-quad at file boundaries.
* Days are UTC calendar days.
"""
from __future__ import annotations

import csv
import enum
import heapq
import itertools
import json
import math
import operator
import re
import struct
# hashlib would load OpenSSL for its other digests, some 3.7 MB of RSS.
from _blake2 import blake2b
# socket re-exports these from its C module; importing socket itself would
# also build its IntEnums and load selectors, which nothing here needs.
from _socket import AF_INET, inet_ntoa, inet_pton
from datetime import date, timedelta
from functools import lru_cache, partial
from typing import (
    Callable, Collection, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set,
    Tuple, TypeVar,
)

US_PER_S = 1_000_000
US_PER_DAY = 86_400 * US_PER_S
_EPOCH_DAY = date(1970, 1, 1)
# The timestamps whose UTC day a datetime.date can hold.
_MIN_TS_US = (date.min - _EPOCH_DAY).days * US_PER_DAY
_MAX_TS_US = ((date.max - _EPOCH_DAY).days + 1) * US_PER_DAY - 1
# The largest count an event holds: detect stores counts as array('q').
MAX_COUNT = 2 ** 63 - 1

# TCP flag bits in wire order (low 6 bits of the flags byte).
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20

# Letter encoding used by the flow CSV format: any subset of "SAFRPU".
_FLAG_BY_LETTER = {
    "S": TCP_SYN, "A": TCP_ACK, "F": TCP_FIN, "R": TCP_RST, "P": TCP_PSH, "U": TCP_URG,
}


def letters_to_flags(letters: str) -> int:
    flags = 0
    for ch in letters:
        bit = _FLAG_BY_LETTER.get(ch)
        if bit is None:
            raise ValueError(f"unknown TCP flag letter {ch!r}")
        flags |= bit
    return flags


_unpack_quad = struct.Struct("!I").unpack
_pack_quad = struct.Struct("!I").pack


def ip_to_int(text: str) -> int:
    """Dotted-quad string to unsigned 32-bit integer. Raises ValueError.

    Only the canonical form that int_to_ip writes is accepted: inet_pton takes
    four decimal octets <= 255 with no leading zero and nothing around them,
    where inet_aton would also take "10.1", octal "010.0.0.1", hex octets and
    trailing junk and so attribute a rotten row to the wrong address.
    """
    try:
        return _unpack_quad(inet_pton(AF_INET, text))[0]
    except OSError as exc:
        raise ValueError(f"invalid IPv4 address {text!r}") from exc


def int_to_ip(value: int) -> str:
    """Unsigned 32-bit integer to dotted quad; a value outside 0 to 2^32 - 1 is a struct.error."""
    return inet_ntoa(_pack_quad(value))


# The event-log encoder's int_to_ip: a source's events tend to close together.
_ip_text = lru_cache(maxsize=256)(int_to_ip)


def parse_uint(text: str) -> int:
    """Canonical decimal text to a non-negative int. Raises ValueError.

    Only ASCII digits, with no sign, padding or leading zero other than "0"
    itself. int() alone also takes "+1", " 53", "1_0" and non-ASCII digits
    such as "\u0665", which would read a rotten row as a valid count.
    """
    if text.isdigit() and text.isascii() and (text[0] != "0" or text == "0"):
        return int(text)
    raise ValueError(f"invalid decimal {text!r}")


# Canonical decimal prefix lengths: no sign, no leading zero, 0 to 32.
_PREFIX_LENS = {str(n): n for n in range(33)}


def parse_cidr(text: str) -> Tuple[int, int]:
    """'a.b.c.d/len' to (network address, prefix length). Raises ValueError.

    The address must be canonical dotted quad (ip_to_int) with no host bits
    set past the prefix, and the length canonical decimal. Netmask spellings
    and bare addresses are rejected.
    """
    addr_text, slash, len_text = text.partition("/")
    prefixlen = _PREFIX_LENS.get(len_text)
    if not slash or prefixlen is None:
        raise ValueError(f"invalid IPv4 prefix {text!r}")
    network = ip_to_int(addr_text)
    if network & (0xFFFFFFFF >> prefixlen):
        raise ValueError(f"{text!r} has host bits set")
    return network, prefixlen


def utc_day(ts_us: int) -> date:
    """UTC calendar day containing the given microsecond timestamp."""
    return _day_date(ts_us // US_PER_DAY)


@lru_cache(maxsize=4096)
def _day_date(days: int) -> date:
    return _EPOCH_DAY + timedelta(days=days)


class TrafficType(str, enum.Enum):
    """The three scanning traffic classes tracked by the engine.

    Anything else seen on the darknet (backscatter SYN-ACKs, other ICMP,
    fragments) is not a scanning probe and never enters an event.
    """

    TCP_SYN = "tcp_syn"
    UDP = "udp"
    ICMP_ECHO_REQUEST = "icmp_echo_request"


# An event's traffic type is its index here, the byte the binary copy stores.
TRAFFIC_TYPES = tuple(TrafficType)
TRAFFIC_INDEX = {t: i for i, t in enumerate(TRAFFIC_TYPES)}
_INDEX_OF_TEXT = {t.value: i for i, t in enumerate(TRAFFIC_TYPES)}
# Each index's text, so an encoder reads no enum property; a dict, so an
# index past the enum (or a negative one) is a KeyError.
_TEXT_OF_INDEX = {i: t.value for i, t in enumerate(TRAFFIC_TYPES)}


class Protocol(str, enum.Enum):
    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"


class Direction(str, enum.Enum):
    INGRESS = "I"
    EGRESS = "E"


class PacketMeta(NamedTuple):
    """Decoded header fields of one captured packet.

    Port, flag, seq and icmp fields are present exactly when the transport
    protocol defines them; readers never emit a packet that violates this.
    PcapReader yields plain tuples in this field order, which PacketMeta._make
    names; the two compare equal field by field.
    """

    ts_us: int
    src_ip: int
    dst_ip: int
    protocol: Protocol
    src_port: Optional[int]
    dst_port: Optional[int]
    tcp_flags: Optional[int]
    ip_id: int
    tcp_seq: Optional[int]
    icmp_type: Optional[int]
    pkt_len: int


class DarknetEvent(NamedTuple):
    """A closed logical scan: one source hitting one service.

    traffic_type is the type's index in TRAFFIC_TYPES, the byte the binary
    copy stores, and ICMP echo events carry dst_port 0 as a sentinel since
    ICMP has no ports. start_ts and end_ts are integer microseconds; end_ts
    is the timestamp of the last packet folded in, so start_ts == end_ts for
    single-packet events. read_event_log yields plain tuples in this field
    order, which DarknetEvent._make names; the two compare equal field by
    field.
    """

    src_ip: int
    dst_port: int
    traffic_type: int
    start_ts: int
    end_ts: int
    pkt_count: int
    unique_dst_count: int
    zmap_pkts: int
    masscan_pkts: int
    other_pkts: int

    def to_json_line(self) -> str:
        # A template is exact compact JSON: every field is an int, the address
        # comes from inet_ntoa and the traffic type is a fixed identifier.
        src_ip, port, ttype, start, end, pkts, dsts, zmap, masscan, other = self
        return (
            f'{{"key":{{"src_ip":"{_ip_text(src_ip)}","dst_port":{port},'
            f'"traffic_type":"{_TEXT_OF_INDEX[ttype]}"}},"start_ts":{start},"end_ts":{end},'
            f'"pkt_count":{pkts},"unique_dst_count":{dsts},"zmap_pkts":{zmap},'
            f'"masscan_pkts":{masscan},"other_pkts":{other}}}'
        )


_scan_json = json.JSONDecoder().scan_once
_event_counts = operator.itemgetter(*DarknetEvent._fields[3:])
# Only JSON whitespace: str.strip() would also drop characters such as U+3000
# that json.loads rejects.
_strip_json_ws = operator.methodcaller("strip", " \t\r\n")


def _check_events(rows: Iterable[tuple]) -> Iterator[tuple]:
    """Yield each event row, a tuple of ints in DarknetEvent's field order, if it holds every rule.

    Both event-log decoders feed this one step, and no object is built for
    a row that passes. The rules run in this order, so an error names the
    first one a row breaks. A traffic-type index with no TrafficType, such as
    a record's byte 3, is "3 is not a valid TrafficType".
    """
    lo, hi, kinds = _MIN_TS_US, _MAX_TS_US, len(TRAFFIC_TYPES)
    icmp = TRAFFIC_INDEX[TrafficType.ICMP_ECHO_REQUEST]
    for row in rows:
        _src_ip, port, ttype, start, end, pkts, dsts, zmap, masscan, other = row
        if not 0 <= ttype < kinds:
            raise ValueError(f"{ttype!r} is not a valid TrafficType")
        if not lo <= start <= end <= hi:
            raise ValueError(f"need {lo} <= start_ts <= end_ts <= {hi}")
        if not 1 <= pkts <= MAX_COUNT:
            raise ValueError(f"pkt_count must be in [1, {MAX_COUNT}]")
        if not 1 <= dsts <= pkts:
            raise ValueError("unique_dst_count out of range")
        # An OR of ints is negative exactly when one of them is.
        if zmap | masscan | other < 0:
            raise ValueError("fingerprint counters must be >= 0")
        if zmap + masscan + other != pkts:
            raise ValueError("fingerprint counters must partition pkt_count")
        if not 0 <= port <= 0xFFFF:
            raise ValueError("dst_port out of range")
        if ttype == icmp and port != 0:
            raise ValueError("ICMP echo events carry dst_port 0")
        yield row


def _json_rows(lines: Iterable[str], ips: Dict[str, int]) -> Iterator[tuple]:
    """The event row of each non-blank event-log line, one C scan a line.

    The traffic type's text becomes its index; ips memoises ip_to_int per
    address string. dst_port and every count must be a JSON integer, the one
    rule a binary record, whose fields unpack to ints, cannot break.
    """
    for line in filter(None, map(_strip_json_ws, lines)):
        try:
            obj, stop = _scan_json(line, 0)
        except StopIteration:
            stop = -1
        if stop != len(line):
            obj = json.loads(line)  # raises json.loads' own error for this line
        key = obj["key"]
        text = key["src_ip"]
        src_ip = ips.get(text)
        if src_ip is None:
            src_ip = ips[text] = ip_to_int(text)
        port, type_text = key["dst_port"], key["traffic_type"]
        start, end, pkts, dsts, zmap, masscan, other = _event_counts(obj)
        ttype = _INDEX_OF_TEXT.get(type_text)
        if ttype is None:
            raise ValueError(f"{type_text!r} is not a valid TrafficType")
        row = (src_ip, port, ttype, start, end, pkts, dsts, zmap, masscan, other)
        # bool is a subclass of int, so the exact type is compared; the field
        # is looked for only once the row has failed.
        if not (type(port) is type(start) is type(end) is type(pkts) is type(dsts)
                is type(zmap) is type(masscan) is type(other) is int):
            name, value = next((name, value) for name, value in zip(DarknetEvent._fields, row)
                               if type(value) is not int)
            raise ValueError(f"{name} must be a JSON integer, not {value!r}")
        yield row


# The three aggressive-scanner definitions, as verdicts and reports name them.
D1, D2, D3 = "D1", "D2", "D3"


class AhVerdict(NamedTuple):
    """Per-source, per-day classification result for an aggressive scanner.

    A row exists only for a (source, UTC day) on which the source was
    aggressive, so the source is active on that day by construction.
    """

    src_ip: int
    day: date
    matched_defs: frozenset[str]
    max_dispersion: float
    max_event_pkts: int
    distinct_ports: int
    is_daily: bool
    acked: bool = False
    acked_org: Optional[str] = None

    def validate(self) -> None:
        if not self.matched_defs:
            raise ValueError("emitted verdicts must match at least one definition")
        if not self.matched_defs <= {D1, D2, D3}:
            raise ValueError("unknown definition tag")

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "src_ip": int_to_ip(self.src_ip),
                "day": self.day.isoformat(),
                "matched_defs": sorted(self.matched_defs),
                "max_dispersion": self.max_dispersion,
                "max_event_pkts": self.max_event_pkts,
                "distinct_ports": self.distinct_ports,
                "is_daily": self.is_daily,
                "acked": self.acked,
                "acked_org": self.acked_org,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json_line(cls, line: str) -> "AhVerdict":
        """Decode and validate one verdict line; raises ValueError."""
        obj = json.loads(line)
        verdict = cls(
            ip_to_int(obj["src_ip"]), date.fromisoformat(obj["day"]), frozenset(obj["matched_defs"]),
            float(obj["max_dispersion"]), obj["max_event_pkts"], obj["distinct_ports"],
            obj["is_daily"], obj["acked"], obj.get("acked_org"),
        )
        # Exact types: bool is a subclass of int, and bool("false") is true.
        for name, kinds in (("max_dispersion", (int, float)), ("max_event_pkts", (int,)),
                            ("distinct_ports", (int,)), ("is_daily", (bool,)), ("acked", (bool,))):
            if type(obj[name]) not in kinds:
                what = "boolean" if bool in kinds else "number" if float in kinds else "integer"
                raise ValueError(f"{name} must be a JSON {what}, not {obj[name]!r}")
        verdict.validate()
        return verdict


_T = TypeVar("_T")


def order_statistic(values: Collection[_T], k: int, key: Optional[Callable] = None) -> _T:
    """The k-th smallest of values (1-based), by key when one is given.

    Ties count once each, as in sorted(values)[k - 1]. Only the n + 1 - k
    largest values are held, not a sorted copy of all n.
    """
    return heapq.nlargest(len(values) + 1 - k, values, key)[-1]


def read_lines(path, decode: Callable[[Iterator[str]], Iterator[_T]]) -> Iterator[_T]:
    """Stream a file darklens wrote, one line at a time decoded from UTF-8, through decode.

    Lines end at LF, as JSON Lines defines them. A byte that is not UTF-8, an
    error from decode or one thrown into the generator names the file and the
    line, so the CLI exits 2 on a rotten file instead of a traceback. Flow
    files and feeds, which third parties write, are read by read_rows instead.
    """
    with open(path, "rb") as fh:
        yield from _numbered(path, map(bytes.decode, fh), decode)


def _numbered(path, lines: Iterator, decode: Callable[[Iterator], Iterator[_T]]) -> Iterator[_T]:
    """decode(lines), where an error names path and the 1-based number of the line."""
    # zip draws from taken before each line, so while line n is being
    # decoded, next(taken) is n.
    taken = itertools.count()
    try:
        yield from decode(map(operator.itemgetter(1), zip(taken, lines)))
    except csv.Error as exc:  # a header row that read_rows' tokeniser refuses
        raise ValueError(f"{path}:{next(taken)}: {exc}") from None
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise ValueError(f"{path}:{next(taken)}: malformed line ({reason})") from exc


# A dotted quad in a row grammar: 7 to 15 digits and dots, of which inet_pton
# takes only the canonical ones (it refuses a leading zero on glibc, musl and
# the BSDs), as ip_to_int does.
_QUAD = r"([0-9.]{7,15})"


def open_text(path):
    """A file a third party wrote, open with lines that end at LF and each byte
    that is not UTF-8 read as a lone surrogate (U+DC80 to U+DCFF), for is_utf8."""
    return open(path, encoding="utf-8", errors="surrogateescape", newline="\n")


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]").search


def is_utf8(line: str) -> bool:
    """Whether a line open_text read was UTF-8 in its file: it holds no lone surrogate."""
    return line.isascii() or _ESCAPED_BYTE(line) is None


def read_rows(path, tally, counter: str, parse_row: Callable[[List[str]], Optional[_T]],
              grammar=None, take=None, header: bool = False) -> Iterator[_T]:
    """The rows of a CSV file a third party wrote (a flow file or a feed), in one pass.

    A line that grammar matches goes to take(match); a grammar only ever
    accepts, and take may still refuse the line with ValueError (or inet_pton's
    OSError). Every other line that was UTF-8 goes to csv.reader, with the
    lines after it while a quoted field runs on, and its row to parse_row.
    Each result that is not None comes out. A line that was not UTF-8, a
    continuation line included, adds one to tally's attribute counter and
    reads as if it were not there; so does a row parse_row refuses with
    ValueError, and a row the CSV tokeniser refuses (a field over
    csv.field_size_limit(), a CR before anything but LF in an unquoted field).
    With header, the first row (None for an empty file) comes out first for
    the caller to check; a header the tokeniser refuses is a ValueError naming
    path:line.
    """
    with open_text(path) as lines:
        yield from _numbered(path, lines, partial(
            _rows, tally, counter, parse_row, grammar or (lambda line: None), take, header))


def _rows(tally, counter, parse_row, grammar, take, header, lines):
    def bad() -> None:
        setattr(tally, counter, getattr(tally, counter) + 1)

    def utf8(line: str) -> bool:
        """Whether line was UTF-8; a line that was not counts as bad."""
        if is_utf8(line):
            return True
        bad()
        return False

    if header:
        yield next(csv.reader(lines), None)
    rest = filter(utf8, lines)
    for line in lines:
        m = grammar(line)
        if m is not None:
            try:
                row = take(m)
            except (ValueError, OSError):  # OSError: inet_pton refused a quad
                m = None
        if m is None:
            if not (line.isascii() or utf8(line)):
                continue
            try:
                row = parse_row(next(csv.reader(itertools.chain((line,), rest))))
            except (ValueError, csv.Error):
                bad()
                continue
        if row is not None:
            yield row


def parse_lines(path, parse: Callable[[str], _T]) -> Iterator[_T]:
    """Parse each line of a file that is not blank, with JSON whitespace stripped."""
    return read_lines(path, lambda lines: map(parse, filter(None, map(_strip_json_ws, lines))))


def read_verdicts(path) -> List[AhVerdict]:
    return list(parse_lines(path, AhVerdict.from_json_line))


def read_blocklist(path) -> Set[int]:
    """A blocklist's addresses, one canonical dotted quad a line."""
    return set(parse_lines(path, ip_to_int))


# The binary copy of an event log, written beside it as <log>.bin: an 80-byte
# header (an 8-byte magic whose last byte is the version, the record count,
# the BLAKE2b-256 of the log's bytes and that of the record bytes), then one
# fixed-width record per event in log order: source, dst_port, index into
# TrafficType, start_ts, end_ts, pkt_count, unique_dst_count and the zmap,
# masscan and other counts.
_COPY_MAGIC = b"DLEVBIN\x01"
_COPY_HEADER = struct.Struct("<8sQ32s32s")
_RECORD = struct.Struct("<IHB7q")
# Events per write. A batch keeps its events (two tracked tuples each) alive
# until it is written, and the cyclic collector runs once 700 more tracked
# objects are alive than at its last run. On multiday-events, batches of
# 1,024 ran it 66 times, full passes over the open events included, and cost
# `events` 5% more CPU than batches of 256, which ran it 5 times.
_WRITE_BATCH = 256
_READ_BLOCK = _RECORD.size * 16384


def _file_digest(fh) -> bytes:
    """BLAKE2b-256 of the rest of an open binary file, read in 1 MiB blocks."""
    digest = blake2b(digest_size=32)
    for block in iter(partial(fh.read, 1 << 20), b""):
        digest.update(block)
    return digest.digest()


def write_event_log(path, events: Iterable[DarknetEvent]) -> int:
    """Write the JSONL event log and its binary copy beside it; returns the event count.

    Both files are written and hashed a batch of events at a time, so memory
    does not grow with the event count; the copy's header goes in last.
    Every field must be an int. An event that no line or record can hold,
    such as one with a port over 65535 or a traffic-type index past
    TRAFFIC_TYPES, is a ValueError.
    """
    pack = _RECORD.pack
    log_digest, record_digest = blake2b(digest_size=32), blake2b(digest_size=32)
    count = 0
    with open(path, "wb") as log, open(f"{path}.bin", "wb") as copy:
        copy.write(bytes(_COPY_HEADER.size))
        stream = iter(events)
        while batch := list(itertools.islice(stream, _WRITE_BATCH)):
            try:
                lines = list(map(DarknetEvent.to_json_line, batch))
                records = b"".join(itertools.starmap(pack, batch))
            except (KeyError, struct.error) as exc:
                raise ValueError(f"an event in lines {count + 1}-{count + len(batch)} cannot be "
                                 f"written ({type(exc).__name__}: {exc})") from None
            lines.append("")
            text = "\n".join(lines).encode()
            log.write(text)
            log_digest.update(text)
            copy.write(records)
            record_digest.update(records)
            count += len(batch)
        copy.seek(0)
        copy.write(_COPY_HEADER.pack(_COPY_MAGIC, count, log_digest.digest(),
                                     record_digest.digest()))
    return count


def _unmatched(path, copy) -> Optional[str]:
    """The first check the open binary copy fails against the log at path, or None.

    The checks run in order: magic, size, record digest, log digest. A copy
    that passes all four is left at its first record.
    """
    header = copy.read(_COPY_HEADER.size)
    if header[:len(_COPY_MAGIC)] != _COPY_MAGIC:
        return "wrong magic"
    size = copy.seek(0, 2)
    # A short header is zero-padded; its size can match no record count.
    _magic, count, log_digest, record_digest = _COPY_HEADER.unpack(
        header.ljust(_COPY_HEADER.size, b"\0"))
    if size != _COPY_HEADER.size + _RECORD.size * count:
        return f"size {size} bytes, not {_COPY_HEADER.size} + {_RECORD.size} x {count}"
    copy.seek(_COPY_HEADER.size)
    if _file_digest(copy) != record_digest:
        return "record digest mismatch"
    with open(path, "rb") as log:
        if _file_digest(log) != log_digest:
            return "log digest mismatch"
    copy.seek(_COPY_HEADER.size)
    return None


def read_event_log(path) -> Iterator[tuple]:
    """Stream an event log's events, through its binary copy when that matches it.

    Each event is a plain tuple in DarknetEvent's field order, equal to the
    event write_event_log took; no DarknetEvent is built for it. The copy
    <path>.bin is read when its magic, its size, its record digest and its
    digest of the log's bytes all check out, and then no JSON is decoded: a
    row is the record's own unpacked tuple. Otherwise the JSONL is decoded,
    with one ip_to_int memo for the file, after a note that names the failed
    check when a copy exists. Both paths validate through _check_events, so
    the rows, or the error, are the same either way. An error, also one thrown into the
    generator, names the log and the line. A record's line is its index + 1,
    counted in C as the records are drawn, since write_event_log writes no
    blank lines; in the JSONL, blank lines count.
    """
    try:
        copy = open(f"{path}.bin", "rb")
    except FileNotFoundError:
        copy = failed = None
    except OSError as exc:
        copy, failed = None, f"cannot open it: {exc.strerror}"
    if copy is not None:
        with copy:
            failed = _unmatched(path, copy)
            if failed is None:
                records = itertools.chain.from_iterable(
                    map(_RECORD.iter_unpack, iter(partial(copy.read, _READ_BLOCK), b"")))
                yield from _numbered(path, records, _check_events)
                return
    if failed is not None:
        print(f"note: {path}: binary copy not used ({failed}); decoding the JSON")
    yield from read_lines(path, lambda lines: _check_events(_json_rows(lines, {})))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """LF-terminated CSV: None is an empty field, a float its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path, lines: Iterable[str]) -> int:
    """One LF-terminated line per item; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
            count += 1
    return count


_encode = json.JSONEncoder().encode


def write_json(path, doc: dict) -> None:
    """A JSON object one top-level key a line, with a trailing newline.

    Each value is one line from json's C encoder, except a non-empty
    top-level list, which is written one item a line. Memory follows the
    largest item, not the document, and no token goes through json's
    indenting encoder, which runs in pure Python. Keys must be strings.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        sep = "{\n  "
        for key, value in doc.items():
            if type(key) is not str:
                raise TypeError(f"write_json keys must be strings, not {key!r}")
            fh.write(f"{sep}{_encode(key)}: ")
            if isinstance(value, (list, tuple)) and value:
                item_sep = "[\n    "
                for item in value:
                    fh.write(item_sep + _encode(item))
                    item_sep = ",\n    "
                fh.write("\n  ]")
            else:
                fh.write(_encode(value))
            sep = ",\n  "
        fh.write("\n}\n" if doc else "{}\n")


class FlowRecord(NamedTuple):
    """One sampled flow export row from a vantage router.

    FlowReader yields plain tuples in this field order, which FlowRecord._make
    names; the two compare equal field by field.
    """

    router_id: str
    ts_us: int
    direction: Direction
    src_ip: int
    dst_ip: int
    protocol: Protocol
    src_port: Optional[int]
    dst_port: Optional[int]
    sampled_pkts: int
    sampling_denominator: int
    tcp_flags: Optional[int]


class Thresholds(NamedTuple):
    """Detection thresholds for one observation dataset."""

    volume_threshold_pkts: int
    ports_threshold: int

    def validate(self) -> None:
        if self.volume_threshold_pkts < 1 or self.ports_threshold < 1:
            raise ValueError("thresholds must be >= 1")


class ConfigError(ValueError):
    pass


class EmptyInputError(ValueError):
    """A derivation (a threshold, a curve) was handed no values."""


class EmptyAhSetError(ValueError):
    """A measurement or join over the AH set was handed an empty set."""


class _ConfigFields(NamedTuple):
    darknet_prefixes: Sequence[str]
    event_timeout_s: float
    dispersion_fraction: float
    alpha: float
    darknet_size: int
    # First and last address of each prefix in ascending order, as two
    # parallel tuples for bisect.
    range_starts: Tuple[int, ...]
    range_ends: Tuple[int, ...]


class DarknetConfig(_ConfigFields):
    """Operator configuration for one telescope deployment, checked when built.

    darknet_prefixes are 'a.b.c.d/len' texts as parse_cidr reads them.
    darknet_size and the address intervals are derived from them and never
    taken from input. Raises ConfigError. Build it only by calling the class:
    the tuple's _make and _replace would skip the checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        darknet_prefixes: Sequence[str] = (),
        event_timeout_s: float = 600.0,
        dispersion_fraction: float = 0.10,
        alpha: float = 0.0001,
    ) -> "DarknetConfig":
        if not darknet_prefixes:
            raise ConfigError("darknet_prefixes must not be empty")
        try:
            nets = sorted(map(parse_cidr, darknet_prefixes))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        starts = tuple(net for net, _ in nets)
        ends = tuple(net | (0xFFFFFFFF >> plen) for net, plen in nets)
        for (a, alen), (b, blen), a_end in zip(nets, nets[1:], ends):
            if b <= a_end:
                raise ConfigError(f"prefixes {int_to_ip(a)}/{alen} and {int_to_ip(b)}/{blen} overlap")
        size = sum(1 << (32 - plen) for _, plen in nets)
        if size < 256:
            raise ConfigError(f"darknet too small ({size} addresses, need >= 256)")
        if not 0.0 < dispersion_fraction <= 1.0:
            raise ConfigError(f"dispersion_fraction {dispersion_fraction} not in (0, 1]")
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha {alpha} not in (0, 1)")
        if not 0 < event_timeout_s * US_PER_S < math.inf:
            raise ConfigError("event_timeout_s must be positive and finite")
        if round(event_timeout_s * US_PER_S) < 1:
            # EventBuilder holds the timeout in whole microseconds; one that
            # rounds to 0 would end an event at every later packet.
            raise ConfigError(f"event_timeout_s {event_timeout_s} must round to at least 1 us")
        return super().__new__(
            cls, darknet_prefixes, event_timeout_s, dispersion_fraction, alpha, size, starts, ends
        )


# Keys accepted by the flat key-value config file.
_CONFIG_KEYS = {"darknet_prefixes", "event_timeout_s", "dispersion_fraction", "alpha"}


def parse_config_text(text: str) -> DarknetConfig:
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "darknet_prefixes":
            values[key] = [part.strip() for part in value.split(",") if part.strip()]
            try:
                for prefix in values[key]:
                    parse_cidr(prefix)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        else:
            try:
                values[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} must be numeric") from exc
    return DarknetConfig(**values)


def load_config(path) -> DarknetConfig:
    """The config at path; a ConfigError, also for a byte that is not UTF-8, names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_config_text(data.decode())
    except (UnicodeDecodeError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def slash24_of(ip: int) -> int:
    return ip & 0xFFFFFF00

