"""Readers for sampled flow exports from vantage routers.

Two wire formats carry the same logical record: a CSV with a fixed header,
whose integers must be canonical decimal (parse_uint), and a JSON-lines file
with identical field names, where each field must carry its exact JSON type.
Both go through one row validator. A CSV line in the canonical spelling that
exporters write is split by one compiled regex instead (_CSV_ROW: unquoted
fields, an LF or CRLF ending, bounded canonical decimals, dotted quads that
inet_pton takes, ports on tcp and udp only, flag letters in SAFRPU order),
which only ever accepts; every other line, such as one with quoted fields,
goes through csv.reader and the validator, so the rules read as they always
have. A file is JSON lines when its first line that is not only JSON
whitespace starts with "{", and CSV otherwise. A row that cannot be parsed
or that violates a field constraint is skipped and counted; a CSV whose
header does not match the schema (an empty file has none) is fatal because
every following row would be garbage, and so is a field over
csv.field_size_limit(). Each line is decoded from UTF-8 on its own, so a byte
that is not UTF-8 is fatal too, and the error names the file and the line.
"""
from __future__ import annotations

import csv
import itertools
import json
import re
import struct
from _socket import AF_INET, inet_pton
from typing import Iterator

from .model import (
    _MAX_TS_US, Direction, Protocol, ip_to_int, letters_to_flags, parse_lines, parse_uint,
    read_lines,
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
    return (
        router_id, ts_us, dirn, ip_to_int(src_ip), ip_to_int(dst_ip), proto,
        src_port, dst_port, sampled_pkts, sampling_denominator, flags,
    )


# Each field's JSON types, compared exactly: bool is a subclass of int, so a
# true must not pass as 1, nor a float or string as a count.
_JSON_TYPES = frozenset(itertools.product(
    (str,), (int,), (str,), (str,), (str,), (str,),
    (int, type(None)), (int, type(None)), (int,), (int,), (str, type(None)),
))


def _json_row(obj) -> tuple:
    """One JSONL object as _flow_row's tuple; a field of another type is a ValueError."""
    if type(obj) is not dict:
        raise ValueError("row is not an object")
    fields = (
        obj["router_id"], obj["ts_us"], obj["direction"], obj["src_ip"], obj["dst_ip"],
        obj["protocol"], obj.get("src_port"), obj.get("dst_port"), obj["sampled_pkts"],
        obj["sampling_denominator"], obj.get("tcp_flags"),
    )
    if tuple(map(type, fields)) not in _JSON_TYPES:
        raise ValueError("field of the wrong JSON type")
    return _flow_row(*fields)


# The canonical CSV row (see the module docstring). Digit runs and the router
# id are bounded, so int() never refuses a run and csv.field_size_limit() is
# never reached; csv.reader reads a CRLF line as it reads an LF one. A quad is
# any 7 to 15 digits and dots, and inet_pton takes only the canonical ones (it
# refuses a leading zero on glibc, musl and the BSDs). A match still needs
# ts_us <= _MAX_TS_US and ports <= 65535, or it goes to csv.reader too.
_QUAD = r"([0-9.]{7,15})"
_PORT = r"(0|[1-9][0-9]{0,4})"
_COUNT = r"([1-9][0-9]{0,17})"
_CSV_ROW = re.compile(
    rf'([^,"\r\n\x00]{{1,128}}),(0|[1-9][0-9]{{0,17}}),(I|E),{_QUAD},{_QUAD},'
    rf"((?P<tcp>tcp)|udp|(?P<icmp>icmp)),(?(icmp),|{_PORT},{_PORT}),{_COUNT},{_COUNT},"
    r"(?(tcp)(S?A?F?R?P?U?))\r?\n?"
).fullmatch
_QUADS = struct.Struct("!II").unpack
# The grammar's flag field: each of the 64 letter sets, or None off tcp.
_FLAG_SETS = {
    letters: letters_to_flags(letters) or None
    for letters in map("".join, itertools.product(*(("", letter) for letter in "SAFRPU")))
}
_FLAG_SETS[None] = None


class FlowReader:
    """Single-pass iterator over one flow file; invalid_rows valid afterwards.

    Each valid row comes out as a plain tuple in FlowRecord field order, with
    no object per row; FlowRecord._make names the fields.
    """

    def __init__(self, path):
        self.path = path
        self.invalid_rows = 0

    def __iter__(self) -> Iterator[tuple]:
        if next(parse_lines(self.path, str), "").startswith("{"):
            return read_lines(self.path, self._iter_jsonl)
        # The header is checked here, outside the decode, so that a mismatch
        # stays a SchemaMismatchError rather than a line-numbered ValueError.
        rows = read_lines(self.path, self._csv_rows)
        header = next(rows, None)
        if header != FLOW_CSV_FIELDS:
            rows.close()
            if header is None:
                raise SchemaMismatchError(f"{self.path}: empty flow CSV")
            raise SchemaMismatchError(
                f"{self.path}: header {','.join(header)!r} does not match CsvV1"
            )
        return rows

    def _csv_rows(self, lines: Iterator[str]) -> Iterator:
        """The header row, then each valid row as its tuple: by the grammar when
        the line matches, else by csv.reader and _flow_row."""
        held = []
        # csv.reader reads each line the grammar passed over, then the lines
        # after it while a quoted field runs on.
        reader = csv.reader(iter(lambda: held.pop() if held else next(lines, None), None))
        yield from itertools.islice(reader, 1)
        invalid = self.invalid_rows
        width = len(FLOW_CSV_FIELDS)
        try:
            for line in lines:
                m = _CSV_ROW(line)
                if m is not None:
                    (router, ts, dirn, src, dst, proto, _tcp, _icmp, sport, dport, sampled,
                     denom, flags) = m.groups()
                    ts = int(ts)
                    if sport is not None:
                        sport, dport = int(sport), int(dport)
                    if ts <= _MAX_TS_US and (sport is None or sport <= 65535 and dport <= 65535):
                        try:
                            src, dst = _QUADS(inet_pton(AF_INET, src) + inet_pton(AF_INET, dst))
                        except OSError:  # not a canonical dotted quad
                            pass
                        else:
                            yield (
                                router, ts, _DIRECTIONS[dirn], src, dst, _PROTOCOLS[proto],
                                sport, dport, int(sampled), int(denom), _FLAG_SETS[flags],
                            )
                            continue
                held.append(line)
                row = next(reader)
                if len(row) != width:
                    invalid += 1
                    continue
                router, ts, dirn, src, dst, proto, sport, dport, sampled, denom, flags = row
                try:
                    yield _flow_row(
                        router, parse_uint(ts), dirn, src, dst, proto,
                        parse_uint(sport) if sport else None,
                        parse_uint(dport) if dport else None,
                        parse_uint(sampled), parse_uint(denom), flags or None,
                    )
                except ValueError:
                    invalid += 1
        finally:
            self.invalid_rows = invalid

    def _iter_jsonl(self, lines: Iterator[str]) -> Iterator[tuple]:
        invalid = self.invalid_rows
        try:
            for line in lines:
                line = line.strip(" \t\r\n")  # JSON whitespace only; json.loads rejects the rest
                if not line:
                    continue
                try:
                    yield _json_row(json.loads(line))
                except (ValueError, KeyError, RecursionError):  # RecursionError: nested too deeply
                    invalid += 1
        finally:
            self.invalid_rows = invalid
