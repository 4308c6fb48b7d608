"""Readers for sampled flow exports from vantage routers.

Two wire formats carry the same logical record: a CSV with a fixed header and
a JSON-lines file with identical field names. A row that cannot be parsed or
that violates a field constraint is skipped and counted; a CSV whose header
does not match the schema is fatal because every following row would be
garbage.
"""
from __future__ import annotations

import csv
import enum
import json
from typing import Iterator, Optional

from .model import Direction, FlowRecord, Protocol, ip_to_int, letters_to_flags

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

class FlowFormat(str, enum.Enum):
    CSV_V1 = "csv"
    JSONL_V1 = "jsonl"


class SchemaMismatchError(ValueError):
    pass


def _build_record(
    router_id: str,
    ts_us: int,
    direction: str,
    src_ip: str,
    dst_ip: str,
    protocol: str,
    src_port: Optional[int],
    dst_port: Optional[int],
    sampled_pkts: int,
    sampling_denominator: int,
    tcp_flags: Optional[str],
) -> FlowRecord:
    """Validate one logical row. Raises ValueError on any constraint breach."""
    if not router_id:
        raise ValueError("empty router_id")
    if ts_us < 0:
        raise ValueError("negative ts_us")
    proto = Protocol(protocol)
    has_ports = proto is not Protocol.ICMP
    if has_ports:
        if src_port is None or dst_port is None:
            raise ValueError("tcp/udp rows need both ports")
        if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
            raise ValueError("port out of range")
    else:
        if src_port is not None or dst_port is not None:
            raise ValueError("icmp rows must not carry ports")
    if sampled_pkts < 1:
        raise ValueError("sampled_pkts must be >= 1")
    if sampling_denominator < 1:
        raise ValueError("sampling_denominator must be >= 1")
    flags = None
    if tcp_flags:
        if proto is not Protocol.TCP:
            raise ValueError("tcp_flags on a non-tcp row")
        flags = letters_to_flags(tcp_flags)
    return FlowRecord(
        router_id=router_id,
        ts_us=ts_us,
        direction=Direction(direction),
        src_ip=ip_to_int(src_ip),
        dst_ip=ip_to_int(dst_ip),
        protocol=proto,
        src_port=src_port,
        dst_port=dst_port,
        sampled_pkts=sampled_pkts,
        sampling_denominator=sampling_denominator,
        tcp_flags=flags,
    )


def _opt_int(text: str) -> Optional[int]:
    return int(text) if text != "" else None


class FlowReader:
    """Single-pass iterator over one flow file; invalid_rows valid afterwards."""

    def __init__(self, path, fmt: FlowFormat = FlowFormat.CSV_V1):
        self.path = path
        self.fmt = FlowFormat(fmt)
        self.invalid_rows = 0

    def __iter__(self) -> Iterator[FlowRecord]:
        if self.fmt is FlowFormat.CSV_V1:
            yield from self._iter_csv()
        else:
            yield from self._iter_jsonl()

    def _iter_csv(self) -> Iterator[FlowRecord]:
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaMismatchError(f"{self.path}: empty flow CSV") from None
            if header != FLOW_CSV_FIELDS:
                raise SchemaMismatchError(
                    f"{self.path}: header {','.join(header)!r} does not match CsvV1"
                )
            for row in reader:
                if len(row) != len(FLOW_CSV_FIELDS):
                    self.invalid_rows += 1
                    continue
                try:
                    yield _build_record(
                        router_id=row[0],
                        ts_us=int(row[1]),
                        direction=row[2],
                        src_ip=row[3],
                        dst_ip=row[4],
                        protocol=row[5],
                        src_port=_opt_int(row[6]),
                        dst_port=_opt_int(row[7]),
                        sampled_pkts=int(row[8]),
                        sampling_denominator=int(row[9]),
                        tcp_flags=row[10] or None,
                    )
                except ValueError:
                    self.invalid_rows += 1

    def _iter_jsonl(self) -> Iterator[FlowRecord]:
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("row is not an object")
                    yield _build_record(
                        router_id=str(obj["router_id"]),
                        ts_us=int(obj["ts_us"]),
                        direction=obj["direction"],
                        src_ip=obj["src_ip"],
                        dst_ip=obj["dst_ip"],
                        protocol=obj["protocol"],
                        src_port=obj.get("src_port"),
                        dst_port=obj.get("dst_port"),
                        sampled_pkts=int(obj["sampled_pkts"]),
                        sampling_denominator=int(obj["sampling_denominator"]),
                        tcp_flags=obj.get("tcp_flags"),
                    )
                except (ValueError, KeyError, TypeError):
                    self.invalid_rows += 1

