"""Readers for sampled flow exports from vantage routers.

Two wire formats carry the same logical record: a CSV with a fixed header,
whose integers must be canonical decimal (parse_uint), and a JSON-lines file
with identical field names, where each field must carry its exact JSON type.
Both go through one row validator. A CSV is read by model.read_rows, as the
feeds are, with a row grammar for the canonical spelling that exporters write
(_CSV_ROW: unquoted fields, an LF or CRLF ending, bounded canonical decimals,
dotted quads that inet_pton takes, ports on tcp and udp only, flag letters in
SAFRPU order). A file is JSON lines when its first line that is UTF-8 and not
only JSON whitespace starts with "{", and CSV otherwise. A row that cannot be
parsed (the CSV tokeniser refuses a field over csv.field_size_limit() and a
CR before anything but LF in an unquoted field), that violates a field
constraint or that holds a byte that is not UTF-8 is skipped and counted; a
CSV whose header does not match the schema (an empty file has none) or does
not tokenise is fatal because every following row would be garbage: the
error names the file and the line.
"""
from __future__ import annotations

import itertools
import json
import re
from _socket import AF_INET, inet_pton
from typing import Iterator

from .model import (
    _MAX_TS_US, _QUAD, Direction, Protocol, _strip_json_ws, _unpack_quad, is_utf8,
    letters_to_flags, open_text, parse_uint, read_rows,
)

FLOW_CSV_FIELDS = [
    "router_id",
    "ts_us",
    "direction",
    "src_ip",
    "dst_ip",
    "protocol",
    "src_port",
    "dst_port",
    "sampled_pkts",
    "sampling_denominator",
    "tcp_flags",
]

class SchemaMismatchError(ValueError):
    pass


_PROTOCOLS = {member.value: member for member in Protocol}
_DIRECTIONS = {member.value: member for member in Direction}


def _flow_row(
    router_id, ts_us, direction, src_ip, dst_ip, protocol,
    src_port, dst_port, sampled_pkts, sampling_denominator, tcp_flags,
) -> tuple:
    """Validate one logical row into a tuple in FlowRecord field order.

    Both formats call this with the same positional fields, so CSV and JSONL
    share one set of row rules. Raises ValueError on any constraint breach.
    """
    proto = _PROTOCOLS.get(protocol)
    if proto is None:
        raise ValueError(f"unknown protocol {protocol!r}")
    dirn = _DIRECTIONS.get(direction)
    if dirn is None:
        raise ValueError(f"unknown direction {direction!r}")
    if not router_id:
        raise ValueError("empty router_id")
    # The upper bound is the last microsecond of 9999-12-31, the last UTC
    # day the tally can name.
    if not 0 <= ts_us <= _MAX_TS_US:
        raise ValueError("ts_us outside 0 to 9999-12-31")
    if proto is Protocol.ICMP:
        if src_port is not None or dst_port is not None:
            raise ValueError("icmp rows must not carry ports")
    elif src_port is None or dst_port is None:
        raise ValueError("tcp/udp rows need both ports")
    elif not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
        raise ValueError("port out of range")
    if sampled_pkts < 1:
        raise ValueError("sampled_pkts must be >= 1")
    if sampling_denominator < 1:
        raise ValueError("sampling_denominator must be >= 1")
    flags = None
    if tcp_flags:
        if proto is not Protocol.TCP:
            raise ValueError("tcp_flags on a non-tcp row")
        flags = letters_to_flags(tcp_flags)
    try:
        src = _unpack_quad(inet_pton(AF_INET, src_ip))[0]
        dst = _unpack_quad(inet_pton(AF_INET, dst_ip))[0]
    except OSError:
        raise ValueError("address is not a canonical dotted quad") from None
    return (
        router_id, ts_us, dirn, src, dst, proto,
        src_port, dst_port, sampled_pkts, sampling_denominator, flags,
    )


# Each field's JSON types, compared exactly: bool is a subclass of int, so a
# true must not pass as 1, nor a float or string as a count.
_JSON_TYPES = frozenset(itertools.product(
    (str,), (int,), (str,), (str,), (str,), (str,),
    (int, type(None)), (int, type(None)), (int,), (int,), (str, type(None)),
))


def _json_row(line: str) -> tuple:
    """One JSONL line as _flow_row's tuple; a line that was not UTF-8 or a field of
    another type is a ValueError."""
    if not is_utf8(line):
        raise ValueError("a byte that is not UTF-8")
    obj = json.loads(line)
    if type(obj) is not dict:
        raise ValueError("row is not an object")
    fields = (
        obj["router_id"], obj["ts_us"], obj["direction"], obj["src_ip"], obj["dst_ip"],
        obj["protocol"], obj.get("src_port"), obj.get("dst_port"), obj["sampled_pkts"],
        obj["sampling_denominator"], obj.get("tcp_flags"),
    )
    if tuple(map(type, fields)) not in _JSON_TYPES:
        raise ValueError("field of the wrong JSON type")
    # A JSON escape such as "\ud800" spells a lone surrogate, which no output
    # file could encode: a UnicodeEncodeError, and so a ValueError.
    fields[0].encode()
    return _flow_row(*fields)


def _csv_row(row) -> tuple:
    """A CSV row the grammar passed over, by _flow_row; a row of another width is a ValueError."""
    router, ts, dirn, src, dst, proto, sport, dport, sampled, denom, flags = row
    return _flow_row(
        router, parse_uint(ts), dirn, src, dst, proto,
        parse_uint(sport) if sport else None, parse_uint(dport) if dport else None,
        parse_uint(sampled), parse_uint(denom), flags or None,
    )


# The canonical CSV row (see the module docstring). Digit runs and the router
# id are bounded, so int() never refuses a run and csv.field_size_limit() is
# never reached; csv.reader reads a CRLF line as it reads an LF one. The router
# id holds no lone surrogate, so a byte that is not UTF-8 never matches. A
# match still needs ts_us <= _MAX_TS_US, ports <= 65535 and canonical quads,
# or _take refuses it and it goes to csv.reader too.
_PORT = r"(0|[1-9][0-9]{0,4})"
_COUNT = r"([1-9][0-9]{0,17})"
_CSV_ROW = re.compile(
    rf'([^,"\r\n\x00\udc80-\udcff]{{1,128}}),(0|[1-9][0-9]{{0,17}}),(I|E),{_QUAD},{_QUAD},'
    rf"((?P<tcp>tcp)|udp|(?P<icmp>icmp)),(?(icmp),|{_PORT},{_PORT}),{_COUNT},{_COUNT},"
    r"(?(tcp)(S?A?F?R?P?U?))\r?\n?"
).fullmatch
# The grammar's flag field: each of the 64 letter sets, or None off tcp.
_FLAG_SETS = {
    letters: letters_to_flags(letters) or None
    for letters in map("".join, itertools.product(*(("", letter) for letter in "SAFRPU")))
}
_FLAG_SETS[None] = None


def _take(m) -> tuple:
    """A line _CSV_ROW matched, as its tuple; a ValueError or OSError sends it to csv.reader."""
    router, ts, dirn, src, dst, proto, _tcp, _icmp, sport, dport, sampled, denom, flags = m.groups()
    ts = int(ts)
    if sport is not None:
        sport, dport = int(sport), int(dport)
    if ts > _MAX_TS_US or sport is not None and (sport > 65535 or dport > 65535):
        raise ValueError("ts_us or a port out of range")
    return (
        router, ts, _DIRECTIONS[dirn], _unpack_quad(inet_pton(AF_INET, src))[0],
        _unpack_quad(inet_pton(AF_INET, dst))[0], _PROTOCOLS[proto],
        sport, dport, int(sampled), int(denom), _FLAG_SETS[flags],
    )


class FlowReader:
    """Single-pass iterator over one flow file; invalid_rows valid afterwards.

    Each valid row comes out as a plain tuple in FlowRecord field order, with
    no object per row; FlowRecord._make names the fields.
    """

    def __init__(self, path):
        self.path = path
        self.invalid_rows = 0

    def __iter__(self) -> Iterator[tuple]:
        with open_text(self.path) as lines:
            first = next(filter(None, map(_strip_json_ws, filter(is_utf8, lines))), "")
        if first.startswith("{"):
            return self._iter_jsonl()
        # The header is checked here, outside the line numbering, so that a
        # mismatch stays a SchemaMismatchError rather than a line-numbered ValueError.
        rows = read_rows(self.path, self, "invalid_rows", _csv_row, _CSV_ROW, _take, header=True)
        header = next(rows)
        if header != FLOW_CSV_FIELDS:
            rows.close()
            if header is None:
                raise SchemaMismatchError(f"{self.path}: empty flow CSV")
            raise SchemaMismatchError(
                f"{self.path}: header {','.join(header)!r} does not match CsvV1"
            )
        return rows

    def _iter_jsonl(self) -> Iterator[tuple]:
        invalid = self.invalid_rows
        try:
            with open_text(self.path) as lines:
                # Only JSON whitespace is stripped; json.loads rejects the rest.
                for line in filter(None, map(_strip_json_ws, lines)):
                    try:
                        yield _json_row(line)
                    except (ValueError, KeyError, RecursionError):  # RecursionError: nested too deeply
                        invalid += 1
        finally:
            self.invalid_rows = invalid
