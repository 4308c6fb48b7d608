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
import json
import math
import struct
# socket re-exports these from its C module; importing socket itself would
# also build its IntEnums and load selectors, which nothing here needs.
from _socket import inet_aton, inet_ntoa
from datetime import date, timedelta
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, TypeVar

US_PER_S = 1_000_000
US_PER_DAY = 86_400 * US_PER_S
_EPOCH_DAY = date(1970, 1, 1)
# The timestamps whose UTC day a datetime.date can hold.
_MIN_TS_US = (date.min - _EPOCH_DAY).days * US_PER_DAY
_MAX_TS_US = ((date.max - _EPOCH_DAY).days + 1) * US_PER_DAY - 1

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


def ip_to_int(text: str) -> int:
    """Dotted-quad string to unsigned 32-bit integer. Raises ValueError.

    Only the canonical form that int_to_ip writes is accepted. inet_aton alone
    also takes "10.1", octal "010.0.0.1", hex octets and trailing junk, which
    would attribute a rotten row to the wrong address.
    """
    try:
        packed = inet_aton(text)
    except OSError as exc:
        raise ValueError(f"invalid IPv4 address {text!r}") from exc
    if inet_ntoa(packed) != text:
        raise ValueError(f"invalid IPv4 address {text!r}")
    return struct.unpack("!I", packed)[0]


def int_to_ip(value: int) -> str:
    return inet_ntoa(struct.pack("!I", value & 0xFFFFFFFF))


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


_TRAFFIC_TYPES = {t.value: t for t in TrafficType}


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

    def validate(self) -> None:
        """Assert the structural invariants. Used by tests, not hot paths."""
        if self.ts_us < 0:
            raise ValueError("negative timestamp")
        is_tcp = self.protocol is Protocol.TCP
        is_udp = self.protocol is Protocol.UDP
        is_icmp = self.protocol is Protocol.ICMP
        if (self.src_port is not None) != (is_tcp or is_udp):
            raise ValueError("src_port present iff TCP or UDP")
        if (self.dst_port is not None) != (is_tcp or is_udp):
            raise ValueError("dst_port present iff TCP or UDP")
        if (self.tcp_flags is not None) != is_tcp:
            raise ValueError("tcp_flags present iff TCP")
        if (self.tcp_seq is not None) != is_tcp:
            raise ValueError("tcp_seq present iff TCP")
        if (self.icmp_type is not None) != is_icmp:
            raise ValueError("icmp_type present iff ICMP")
        if not 0 <= self.ip_id <= 0xFFFF:
            raise ValueError("ip_id out of range")


class EventKey(NamedTuple):
    """Identity of a logical scan: one source hitting one service.

    ICMP echo events carry dst_port 0 as a sentinel since ICMP has no ports.
    """

    src_ip: int
    dst_port: int
    traffic_type: TrafficType


class DarknetEvent(NamedTuple):
    """A closed logical scan event.

    start_ts and end_ts are integer microseconds; end_ts is the timestamp of
    the last packet folded in, so start_ts == end_ts for single-packet events.
    """

    key: EventKey
    start_ts: int
    end_ts: int
    pkt_count: int
    unique_dst_count: int
    zmap_pkts: int
    masscan_pkts: int
    other_pkts: int

    def validate(self) -> None:
        if not _MIN_TS_US <= self.start_ts <= self.end_ts <= _MAX_TS_US:
            raise ValueError(f"need {_MIN_TS_US} <= start_ts <= end_ts <= {_MAX_TS_US}")
        if self.pkt_count < 1:
            raise ValueError("pkt_count must be >= 1")
        if not 1 <= self.unique_dst_count <= self.pkt_count:
            raise ValueError("unique_dst_count out of range")
        if self.zmap_pkts + self.masscan_pkts + self.other_pkts != self.pkt_count:
            raise ValueError("fingerprint counters must partition pkt_count")
        if not 0 <= self.key.dst_port <= 0xFFFF:
            raise ValueError("dst_port out of range")
        if self.key.traffic_type is TrafficType.ICMP_ECHO_REQUEST and self.key.dst_port != 0:
            raise ValueError("ICMP echo events carry dst_port 0")

    def to_json_line(self) -> str:
        # A template is exact compact JSON: every field is an int, the address
        # comes from inet_ntoa and the traffic type is a fixed identifier.
        (src_ip, port, ttype), start, end, pkts, dsts, zmap, masscan, other = self
        return (
            f'{{"key":{{"src_ip":"{int_to_ip(src_ip)}","dst_port":{port},'
            f'"traffic_type":"{ttype.value}"}},"start_ts":{start},"end_ts":{end},'
            f'"pkt_count":{pkts},"unique_dst_count":{dsts},"zmap_pkts":{zmap},'
            f'"masscan_pkts":{masscan},"other_pkts":{other}}}'
        )

    @classmethod
    def from_json_line(cls, line: str, ips: Optional[Dict[str, int]] = None) -> "DarknetEvent":
        """Decode and validate one event-log line; raises ValueError.

        ips memoises ip_to_int per address string over the lines of one log.
        """
        if ips is None:
            ips = {}
        obj = json.loads(line)
        key = obj["key"]
        text = key["src_ip"]
        src_ip = ips.get(text)
        if src_ip is None:
            src_ip = ips[text] = ip_to_int(text)
        port = key["dst_port"]
        ttype = _TRAFFIC_TYPES.get(key["traffic_type"])
        if ttype is None:
            raise ValueError(f"{key['traffic_type']!r} is not a valid TrafficType")
        ev = cls(
            EventKey(src_ip, port, ttype), obj["start_ts"], obj["end_ts"], obj["pkt_count"],
            obj["unique_dst_count"], obj["zmap_pkts"], obj["masscan_pkts"], obj["other_pkts"],
        )
        _, start, end, pkts, dsts, zmap, masscan, other = ev
        # bool is a subclass of int, so compare the exact type.
        if not (type(port) is type(start) is type(end) is type(pkts) is type(dsts)
                is type(zmap) is type(masscan) is type(other) is int):
            fields = zip(("dst_port",) + cls._fields[1:], (port, *ev[1:]))
            name, value = next((n, v) for n, v in fields if type(v) is not int)
            raise ValueError(f"{name} must be a JSON integer, not {value!r}")
        ev.validate()
        return ev


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
        if not self.matched_defs <= {"D1", "D2", "D3"}:
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


def read_jsonl(path, parse: Callable[[str], _T]) -> Iterator[_T]:
    """Parse each non-blank line of a JSONL file.

    A line that does not decode names its file and line number in the
    ValueError, so the CLI exits 2 on a rotten log instead of a traceback.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                item = parse(line)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                raise ValueError(f"{path}:{lineno}: malformed line ({reason})") from exc
            yield item


def read_event_log(path) -> Iterator[DarknetEvent]:
    """Decode an event log, with one ip_to_int memo for the whole file."""
    ips: Dict[str, int] = {}
    return read_jsonl(path, lambda line: DarknetEvent.from_json_line(line, ips))


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


def write_json(path, obj) -> None:
    """An indented JSON document with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


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
    dataset_label: str = ""

    def validate(self) -> None:
        if self.volume_threshold_pkts < 1 or self.ports_threshold < 1:
            raise ValueError("thresholds must be >= 1")


class ConfigError(ValueError):
    pass


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
        if not 0 < event_timeout_s < math.inf:
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def slash24_of(ip: int) -> int:
    return ip & 0xFFFFFF00

