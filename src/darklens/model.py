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
import ipaddress
import json
import math
import socket
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date, timedelta
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

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
        packed = socket.inet_aton(text)
    except OSError as exc:
        raise ValueError(f"invalid IPv4 address {text!r}") from exc
    if socket.inet_ntoa(packed) != text:
        raise ValueError(f"invalid IPv4 address {text!r}")
    return struct.unpack("!I", packed)[0]


def int_to_ip(value: int) -> str:
    return socket.inet_ntoa(struct.pack("!I", value & 0xFFFFFFFF))


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

    def validate(self, darknet_size: Optional[int] = None) -> None:
        if not _MIN_TS_US <= self.start_ts <= self.end_ts <= _MAX_TS_US:
            raise ValueError(f"need {_MIN_TS_US} <= start_ts <= end_ts <= {_MAX_TS_US}")
        if self.pkt_count < 1:
            raise ValueError("pkt_count must be >= 1")
        upper = self.pkt_count if darknet_size is None else min(self.pkt_count, darknet_size)
        if not 1 <= self.unique_dst_count <= upper:
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


@dataclass(slots=True)
class AhVerdict:
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


@dataclass(slots=True)
class FlowRecord:
    """One sampled flow export row from a vantage router."""

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

    @property
    def estimated_pkts(self) -> int:
        """Horvitz-Thompson inversion of the sampling process."""
        return self.sampled_pkts * self.sampling_denominator


@dataclass(frozen=True, slots=True)
class Thresholds:
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


class EmptyPrefixListError(ConfigError):
    pass


class OverlappingPrefixesError(ConfigError):
    pass


class InvalidFractionError(ConfigError):
    pass


@dataclass
class DarknetConfig:
    """Operator configuration for one telescope deployment.

    darknet_size is always derived from the prefixes by validate_config and
    never trusted from input.
    """

    darknet_prefixes: list[ipaddress.IPv4Network] = field(default_factory=list)
    event_timeout_s: float = 600.0
    dispersion_fraction: float = 0.10
    alpha: float = 0.0001
    darknet_size: int = 0
    # First and last address of each prefix in ascending order, as two
    # parallel lists for bisect; derived by validate_config.
    range_starts: list[int] = field(default_factory=list, init=False, repr=False)
    range_ends: list[int] = field(default_factory=list, init=False, repr=False)

    def contains(self, ip: int) -> bool:
        """Whether ip lies in the darknet: one bisect over the intervals."""
        i = bisect_right(self.range_starts, ip) - 1
        return i >= 0 and ip <= self.range_ends[i]


def validate_config(cfg: DarknetConfig) -> DarknetConfig:
    """Check invariants, fill in darknet_size and the address intervals.

    Returns cfg for chaining.
    """
    if not cfg.darknet_prefixes:
        raise EmptyPrefixListError("darknet_prefixes must not be empty")
    nets = sorted(cfg.darknet_prefixes, key=lambda n: (int(n.network_address), n.prefixlen))
    for a, b in zip(nets, nets[1:]):
        if a.overlaps(b):
            raise OverlappingPrefixesError(f"prefixes {a} and {b} overlap")
    size = sum(n.num_addresses for n in cfg.darknet_prefixes)
    if size < 256:
        raise ConfigError(f"darknet too small ({size} addresses, need >= 256)")
    if not 0.0 < cfg.dispersion_fraction <= 1.0:
        raise InvalidFractionError(f"dispersion_fraction {cfg.dispersion_fraction} not in (0, 1]")
    if not 0.0 < cfg.alpha < 1.0:
        raise InvalidFractionError(f"alpha {cfg.alpha} not in (0, 1)")
    if not 0 < cfg.event_timeout_s < math.inf:
        raise ConfigError("event_timeout_s must be positive and finite")
    if round(cfg.event_timeout_s * US_PER_S) < 1:
        # EventBuilder holds the timeout in whole microseconds; one that rounds
        # to 0 would end an event at every later packet.
        raise ConfigError(f"event_timeout_s {cfg.event_timeout_s} must round to at least 1 us")
    cfg.darknet_size = size
    cfg.range_starts = [int(n.network_address) for n in nets]
    cfg.range_ends = [int(n.broadcast_address) for n in nets]
    return cfg


# Keys accepted by the flat key-value config file. darknet_size is tolerated
# on input but always recomputed.
_CONFIG_KEYS = {
    "darknet_prefixes",
    "event_timeout_s",
    "dispersion_fraction",
    "alpha",
    "darknet_size",
}


def parse_config_text(text: str) -> DarknetConfig:
    cfg = DarknetConfig()
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
            try:
                cfg.darknet_prefixes = [
                    ipaddress.IPv4Network(part.strip()) for part in value.split(",") if part.strip()
                ]
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        elif key == "darknet_size":
            continue
        else:
            try:
                setattr(cfg, key, float(value))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} must be numeric") from exc
    return validate_config(cfg)


def load_config(path) -> DarknetConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def slash24_of(ip: int) -> int:
    return ip & 0xFFFFFF00

