"""Traced in-process pipeline run: self time and counts per darklens layer.

The four subcommands run through `darklens.cli.main` in this process while
the public functions of each layer are wrapped. A wrapper accumulates each
call's duration minus the traced calls nested inside it, so every layer
reports self time: `detect.verdicts_s`, for example, is `run_detection`
without its three sub-passes, and `impact.stream_s` is `stream_impact`
without the pcap decoding it drives. Times go into per-layer totals; no span
is kept per packet. Untraced passes of the same code alternate with traced
ones so the tracing overhead is measured, not assumed.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import subprocess
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import darklens.cli as cli
from darklens import detect, enrich, impact
from darklens import events as events_mod
from darklens.events import EventBuilder
from darklens.flows import FlowReader
from darklens.hll import Hll
from darklens.model import DarknetEvent
from darklens.pcap import PcapReader

perf_counter = time.perf_counter
STARTUP_REPS = 5


class Tracer:
    """Self time per layer plus the counters the wrapped calls expose."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self._child = [0.0]
        self.readers: Dict[str, PcapReader] = {}
        self.flow_readers: List[FlowReader] = []
        self.builder = None
        self.peak_open = 0
        self.detection = None
        self.series = None
        self.malformed: Dict[str, int] = {}

    def _enter(self) -> float:
        self._child.append(0.0)
        return perf_counter()

    def _exit(self, layer: str, t0: float) -> None:
        elapsed = perf_counter() - t0
        self.self_s[layer] += elapsed - self._child.pop()
        self._child[-1] += elapsed
        self.calls[layer] += 1

    def call(self, layer: str, fn, on_result=None):
        def timed(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, t0)
            if on_result is not None:
                on_result(result)
            return result
        return timed

    def iterate(self, layer: str, iterator):
        """Yield from iterator, timing each step into layer."""
        while True:
            t0 = self._enter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(layer, t0)
            self.items[layer] += 1
            yield item


def _patches(t: Tracer) -> List[Tuple[object, str, object]]:
    orig_pcap_iter = PcapReader.__iter__
    orig_flow_iter = FlowReader.__iter__
    orig_ingest = EventBuilder.ingest_packet
    orig_flush = EventBuilder.flush

    def pcap_iter(self):
        t.readers[str(self.path)] = self
        return t.iterate("pcap.decode", orig_pcap_iter(self))

    def flow_iter(self):
        t.flow_readers.append(self)
        return t.iterate("flows.parse", orig_flow_iter(self))

    timed_ingest = t.call("events.fold", orig_ingest)

    def ingest_packet(self, p):
        closed = timed_ingest(self, p)
        if len(self.open_events) > t.peak_open:
            t.peak_open = len(self.open_events)
        return closed

    def flush(self, *args, **kwargs):
        t.builder = self
        return t.call("events.fold", orig_flush)(self, *args, **kwargs)

    orig_read_log = cli.read_event_log

    def read_event_log(path):
        return t.iterate("model.event_decode", orig_read_log(path))

    def feed(kind: str, fn):
        return t.call(f"feeds.{kind}_load", fn,
                      lambda res: t.malformed.__setitem__(kind, res.malformed_lines))

    def keep(attr: str):
        return lambda res: setattr(t, attr, res)

    return [
        (PcapReader, "__iter__", pcap_iter),
        (events_mod, "classify_traffic_type",
         t.call("events.classify", events_mod.classify_traffic_type)),
        (events_mod, "fingerprint_packet", t.call("fingerprint.packet", events_mod.fingerprint_packet)),
        (EventBuilder, "ingest_packet", ingest_packet),
        (EventBuilder, "flush", flush),
        (Hll, "estimate", t.call("hll.estimate", Hll.estimate)),
        (DarknetEvent, "to_json_line", t.call("model.event_encode", DarknetEvent.to_json_line)),
        (cli, "read_event_log", read_event_log),
        (detect, "build_daily_port_profiles",
         t.call("detect.port_profiles", detect.build_daily_port_profiles)),
        (detect, "compute_thresholds", t.call("detect.thresholds", detect.compute_thresholds)),
        (detect, "tag_events", t.call("detect.tag", detect.tag_events)),
        (detect, "run_detection", t.call("detect.verdicts", detect.run_detection, keep("detection"))),
        (detect, "write_blocklist", t.call("detect.write", detect.write_blocklist)),
        (detect, "write_blocklist_sidecar", t.call("detect.write", detect.write_blocklist_sidecar)),
        (detect, "write_verdicts", t.call("detect.write", detect.write_verdicts)),
        (FlowReader, "__iter__", flow_iter),
        (impact, "flow_impact", t.call("impact.flow_impact", impact.flow_impact)),
        (impact, "ah_presence", t.call("impact.presence", impact.ah_presence)),
        (impact, "protocol_breakdown_flows",
         t.call("impact.protocols", impact.protocol_breakdown_flows)),
        (impact, "acked_impact", t.call("impact.acked", impact.acked_impact)),
        (impact, "stream_impact", t.call("impact.stream", impact.stream_impact, keep("series"))),
        (cli, "load_asn_map", feed("asn", cli.load_asn_map)),
        (cli, "load_tags", feed("tags", cli.load_tags)),
        (cli, "load_rdns", feed("rdns", cli.load_rdns)),
        (cli, "load_acked", feed("acked", cli.load_acked)),
        (enrich, "origin_table", t.call("enrich.origin", enrich.origin_table)),
        (enrich, "tag_join", t.call("enrich.tag_join", enrich.tag_join)),
        (cli, "port_fingerprint_table", t.call("fingerprint.table", cli.port_fingerprint_table)),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    patches = _patches(tracer)
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield tracer
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def run_pass(stages: Sequence[Tuple[str, List[str]]], out_dir: Path, tracer=None):
    """Run the four subcommands in process; returns (seconds, exit codes)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    codes = []
    scope = installed(tracer) if tracer is not None else contextlib.nullcontext()
    t0 = perf_counter()
    with scope, contextlib.redirect_stdout(io.StringIO()):
        for _name, argv in stages:
            codes.append(cli.main(argv))
    return perf_counter() - t0, codes


TIME_LAYERS = [
    "pcap.decode", "events.classify", "fingerprint.packet", "events.fold", "hll.estimate",
    "model.event_encode", "model.event_decode",
    "detect.port_profiles", "detect.thresholds", "detect.tag", "detect.verdicts", "detect.write",
    "flows.parse", "impact.flow_impact", "impact.presence", "impact.protocols", "impact.acked",
    "impact.stream",
    "feeds.asn_load", "feeds.tags_load", "feeds.rdns_load", "feeds.acked_load",
    "enrich.origin", "enrich.tag_join", "fingerprint.table",
]


def counts(t: Tracer, out_dir: Path) -> Dict[str, float]:
    """Per-layer counters of one traced pass."""
    log = out_dir / "events.jsonl"
    with open(log, encoding="utf-8") as fh:
        logged_pkts = sum(json.loads(line)["pkt_count"] for line in fh)
    b = t.builder
    return {
        "pcap.records": sum(r.records_total for r in t.readers.values()),
        "pcap.skipped": sum(r.total_skipped for r in t.readers.values()),
        "events.events_out": b.events_emitted,
        "events.peak_open": t.peak_open,
        "events.conservation_gap": b.packets_in - b.dropped_non_scanning - b.out_of_order - logged_pkts,
        "hll.estimate_calls": t.calls["hll.estimate"],
        "model.event_log_mb": log.stat().st_size / 1e6,
        "detect.tagged": len(t.detection.tagged),
        "detect.verdicts": len(t.detection.verdicts),
        "flows.rows": t.items["flows.parse"],
        "flows.invalid_rows": sum(r.invalid_rows for r in t.flow_readers),
        "impact.bins": len(t.series.bins),
        "feeds.malformed_lines": sum(t.malformed.values()),
    }


def cli_startup_s(python: str, env: dict) -> float:
    """Median wall time of a no-op CLI invocation (interpreter and imports)."""
    times = []
    for _ in range(STARTUP_REPS):
        t0 = perf_counter()
        subprocess.run([python, "-m", "darklens.cli", "--help"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def traced_run(
    stages, out_dir: Path, seconds: float, python: str, env: dict
) -> Tuple[Dict[str, float], List[Tuple[str, bool, str]]]:
    """Alternate untraced and traced passes for about `seconds`.

    Returns the per-layer metrics (median self times over the traced passes,
    counters of the last one, and the no-op CLI start-up measured with
    `python` and `env`) and the checks made along the way: every exit
    code is 0, the counters repeat exactly from pass to pass, and no packet
    goes missing between the capture and the event log.
    """
    untraced: List[float] = []
    traced: List[float] = []
    self_times: Dict[str, List[float]] = defaultdict(list)
    seen_counts: List[Dict[str, float]] = []
    checks = []
    start = perf_counter()
    while True:
        elapsed, codes = run_pass(stages, out_dir)
        untraced.append(elapsed)
        checks.append(("untraced_exit_codes", codes == [0] * len(stages), f"exit codes {codes}"))
        tracer = Tracer()
        elapsed, codes = run_pass(stages, out_dir, tracer)
        traced.append(elapsed)
        checks.append(("traced_exit_codes", codes == [0] * len(stages), f"exit codes {codes}"))
        for layer in TIME_LAYERS:
            self_times[layer].append(tracer.self_s[layer])
        seen_counts.append(counts(tracer, out_dir))
        spent = perf_counter() - start
        if spent + untraced[-1] + traced[-1] > seconds:
            break
    last = seen_counts[-1]
    checks.append(("trace_counts_repeat", all(c == last for c in seen_counts),
                   f"{len(seen_counts)} traced passes"))
    checks.append(("conservation_gap_zero", last["events.conservation_gap"] == 0,
                   f"gap {last['events.conservation_gap']}"))
    metrics = {f"{layer}_s": statistics.median(v) for layer, v in self_times.items()}
    metrics.update(last)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["cli.startup_s"] = cli_startup_s(python, env)
    return metrics, checks
