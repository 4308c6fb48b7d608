"""Time darklens at the north star's scales, one fresh child process a run.

    python tests/scale.py [--rounds 1] [--src DIR ...] [CASE ...]

Each case has a set-up, run once with this checkout's code, and a measured
step, run in a fresh interpreter for each round and source tree, so the
child's VmHWM is the step's own peak, numpy and the interpreter included.
Every `--src` names a darklens source tree (default: this checkout's src/)
whose code the steps import. With two, the runs alternate between them, and
which goes first flips with each case and each round, so drift on a shared
host falls on both. `--rounds` repeats the named cases (default: every
case). Each run prints one line, its step's wall time, its VmHWM and its counts:

    case src wall_s vmhwm_mb name=count ...

Every scenario and log is drawn with seed 7. A synth-* case also prints the
sizes of the manifest and the flow file it wrote, in MiB (manifest_mb=,
flows_mb=).

    synth-criterion-10   synth.generate of acceptance criterion 10's capture:
                         49 full sweeps of a /22, 20 passes each, 1,003,520
                         packets
    synth-criterion-10-mixed
                         the same with the scanners' traffic types cycling
                         through TCP SYN, UDP and ICMP echo, so the capture's
                         record lengths alternate (54 and 42 bytes) as the
                         bench captures' do
    synth-noise-1e5      10^5 noise sources of 5 probes on a /22
    synth-flows-1e5      10^5 benign flow talkers on 4 routers, 1:100 sampled,
                         beside one full sweep of a /22: 400,004 flow rows
    synth-partial-8      one partial scanner on a /8 at coverage 0.03, 503,316
                         probes
    flows-1e5            FlowReader over synth-flows-1e5's flow file drained
                         into tally_flows, with its scanners as the AH set
    flows-1e5-quoted     the same with every router id quoted, which the row
                         grammar does not take: every row goes to csv.reader
    flows-1e5-jsonl      the same rows as JSON lines, each field of its JSON
                         type
    STEP-1e5, STEP-1e6   a step over an event log of 10^5 or 10^6
                         helpers.synthetic_events (5,000 sources, 50 ports,
                         2 days) on a /8, with its binary copy:
      drain-copy         read_event_log drained through the binary copy
      drain-json         read_event_log drained through the JSONL alone
      detect-two-pass    run_detection with derived thresholds
      detect-fixed-1-1   run_detection with thresholds (1, 1): every event
                         tagged
      report             the `report` subcommand over the log and the
                         verdicts `detect` wrote in the set-up
    sweep-12, sweep-12x4 EventBuilder.fold and flush of 1 or 4 sources, each
                         sweeping all 2^20 addresses of a /12 with UDP
                         probes, interleaved packet by packet
    switch-8             the same for 100 sources on a /8, each sending
                         16,385 packets to distinct addresses: just past the
                         set-to-bitmap switch (darknet_size >> 10 = 16,384)
    events-criterion-10  the `events` subcommand over synth-criterion-10's
                         capture
    impact-criterion-10  `impact --pcap` over that capture, against the union
                         blocklist of `events` and `detect` in the set-up
    events-criterion-10-mixed, impact-criterion-10-mixed
                         the same two over synth-criterion-10-mixed's capture
    feeds-1e6            load_asn_map, load_tags and load_rdns over an ASN map
                         of 10^6 prefixes and 10^6 tag and rDNS rows, each
                         kept against an AH set of 5,000 addresses as
                         `report` keeps them; 4,000 of the addresses have a
                         row in each feed
    feeds-1e6-full       the same three loads keeping every entry, as
                         `detect` and `impact` load a feed

A fold's packets are plain tuples drawn by a generator, so its wall time
includes drawing them; gen_s is that share, timed on its own after the fold,
and inexact counts the events that do not hold the true destination count.
A feeds case prints the entries each feed kept and the malformed lines of all
three. Each child imports a fresh copy of its tree, compiled just before it
starts, so a __pycache__ left in either tree cannot shift its VmHWM. It is
not a test; pytest does not collect it.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import csv
import io
import json
import os
import py_compile
import random
import shutil
import subprocess
import sys
import tempfile
from collections import deque
from functools import partial
from pathlib import Path
from time import perf_counter

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
SEED = 7
_NONE = dict(full_coverage_scanners=0, partial_scanners=0, noise_sources=0, backscatter_pkts=0)
SCENARIOS = {
    "criterion-10": dict(_NONE, full_coverage_scanners=49, full_scanner_repeats=20,
                         tools_cycle=["zmap"], duration_s=600),
    "criterion-10-mixed": dict(_NONE, full_coverage_scanners=49, full_scanner_repeats=20,
                               tools_cycle=["zmap"], duration_s=600,
                               full_scanner_types=["tcp_syn", "udp", "icmp_echo_request"]),
    "noise-1e5": dict(_NONE, noise_sources=100_000),
    "flows-1e5": dict(_NONE, full_coverage_scanners=1, flow_total_pkts=10 ** 10,
                      flow_sampling_denominator=100, flow_benign_sources=100_000,
                      flow_routers=["router-1", "router-2", "router-3", "router-4"]),
    "partial-8": dict(_NONE, darknet_prefixes=["10.0.0.0/8"], partial_scanners=1,
                      partial_coverage_fraction=0.03),
}
# The event-log steps' telescope: a /8 holds every synthetic event's destinations.
LOG_CONF = "darknet_prefixes = 10.0.0.0/8\n"
CAPTURE_CONF = ("darknet_prefixes = 10.0.0.0/22\nevent_timeout_s = 600\n"
                "dispersion_fraction = 0.10\nalpha = 0.0001\n")
LOG_STEPS = ["drain-copy", "drain-json", "detect-two-pass", "detect-fixed-1-1", "report"]


def _vmhwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _timed(fn, *args):
    """fn(*args) and its wall time, with anything it prints discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        result = fn(*args)
        return result, perf_counter() - t0


def _cli(*argv) -> float:
    """The wall time of darklens' CLI run in this process; a nonzero exit is fatal."""
    from darklens import cli

    rc, wall = _timed(cli.main, [str(arg) for arg in argv])
    if rc != 0:
        raise SystemExit(f"darklens {' '.join(map(str, argv))} exited {rc}")
    return wall


# Set-ups: each writes its files into an empty directory, with this checkout's code.

def _flow_file(spelling: str, work: Path) -> None:
    """synth-flows-1e5's flow file in work, as flows.csv or, with spelling "jsonl", flows.jsonl."""
    from darklens.flows import FlowReader
    from darklens.model import FlowRecord
    from darklens.synth import SynthScenario, generate
    from helpers import flow_json_line

    generate(SynthScenario(**SCENARIOS["flows-1e5"]), SEED, work)
    if spelling == "quoted":  # the fields read the same
        lines = (work / "flows.csv").read_text().splitlines(keepends=True)
        (work / "flows.csv").write_text(
            lines[0] + "".join(f'"{router}",{rest}' for router, rest in
                               (line.split(",", 1) for line in lines[1:])))
    elif spelling == "jsonl":
        with open(work / "flows.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(map(flow_json_line, map(FlowRecord._make, FlowReader(work / "flows.csv"))))


def _event_log(events: int, work: Path) -> None:
    from darklens.model import write_event_log
    from helpers import synthetic_events

    write_event_log(work / "events.jsonl",
                    synthetic_events(events, sources=5_000, ports=50, days=2, seed=SEED))
    (work / "json").mkdir()
    (work / "json" / "events.jsonl").symlink_to(work / "events.jsonl")
    (work / "telescope.conf").write_text(LOG_CONF, encoding="utf-8")
    _cli("--config", work / "telescope.conf", "--out-dir", work / "detect",
         "detect", work / "events.jsonl")


def _capture(scenario: str, work: Path) -> None:
    from darklens.synth import SynthScenario, generate

    generate(SynthScenario(**SCENARIOS[scenario]), SEED, work)
    (work / "telescope.conf").write_text(CAPTURE_CONF, encoding="utf-8")
    _cli("--config", work / "telescope.conf", "--out-dir", work, "events", work / "synth.pcap")
    _cli("--config", work / "telescope.conf", "--out-dir", work, "detect", work / "events.jsonl")


# Steps: each times its region over the set-up's directory and returns
# (wall_s, counts). They import the code of the tree the child runs.

def _generate(scenario: str, work: Path):
    from darklens.synth import SynthScenario, generate

    with tempfile.TemporaryDirectory(prefix="scale.") as tmp:
        manifest, wall = _timed(generate, SynthScenario(**SCENARIOS[scenario]), SEED, tmp)
        # MiB on disk; a scenario without flows writes no flows.csv.
        sizes = {f"{name}_mb": f"{path.stat().st_size / 2 ** 20:.2f}" if path.exists() else "0"
                 for name, path in (("manifest", Path(tmp, "manifest.json")),
                                    ("flows", Path(tmp, "flows.csv")))}
    rows = manifest["flows"]["rows"] if "flows" in manifest else 0
    return wall, {"packets": manifest["pcap_packets"], "flow_rows": rows, **sizes}


def _read_flows(name: str, work: Path):
    from darklens.flows import FlowReader
    from darklens.impact import tally_flows
    from darklens.model import ip_to_int

    flows = json.loads((work / "manifest.json").read_text())["flows"]
    reader = FlowReader(work / name)
    _, wall = _timed(tally_flows, reader, {ip_to_int(ip) for ip in flows["ah_sources"]})
    return wall, {"us_per_row": f"{wall / flows['rows'] * 1e6:.2f}", "rows": flows["rows"],
                  "invalid": reader.invalid_rows}


def _log_step(step: str, work: Path):
    from darklens import detect
    from darklens.model import Thresholds, load_config, read_event_log

    log = work / "events.jsonl"
    if step == "report":
        return _cli("--out-dir", work / "report", "report", log,
                    work / "detect" / "verdicts.jsonl"), {}
    cfg = load_config(work / "telescope.conf")
    actions = {
        "drain-copy": lambda: deque(read_event_log(log), 0),
        "drain-json": lambda: deque(read_event_log(work / "json" / "events.jsonl"), 0),
        "detect-two-pass": lambda: detect.run_detection(read_event_log(log), cfg),
        "detect-fixed-1-1": lambda: detect.run_detection(read_event_log(log), cfg,
                                                         Thresholds(1, 1)),
    }
    result, wall = _timed(actions[step])
    if step.startswith("detect"):
        return wall, {"events": result.events, "union": len(result.union_ips)}
    return wall, {}


def _fold(prefix: str, keys: int, per_key: int, work: Path):
    from darklens.events import EventBuilder
    from darklens.model import DarknetConfig, Protocol

    cfg = DarknetConfig([prefix])
    base, udp = cfg.range_starts[0], Protocol.UDP

    def packets():
        # Packet j is source j % keys's probe to its (j // keys)-th address,
        # at j microseconds: well inside one sweep interval.
        for j in range(keys * per_key):
            yield (j, 1000 + j % keys, base + j // keys, udp, 40000, 53, None, 7, None, None, 60)

    builder = EventBuilder(cfg)
    (closed, events), wall = _timed(lambda: (list(builder.fold(packets())), builder.flush()))
    _, gen_s = _timed(deque, packets(), 0)
    if closed or [ev.pkt_count for ev in events] != [per_key] * keys:
        raise SystemExit(f"expected {keys} events of {per_key} packets at flush")
    inexact = sum(ev.unique_dst_count != per_key for ev in events)
    return wall, {"gen_s": f"{gen_s:.3f}", "inexact": inexact}


def _events(work: Path):
    with tempfile.TemporaryDirectory(prefix="scale.") as out:
        wall = _cli("--config", work / "telescope.conf", "--out-dir", out,
                    "events", work / "synth.pcap")
        with open(Path(out) / "events.jsonl", encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
    return wall, {"events": len(events), "packets": sum(ev["pkt_count"] for ev in events)}


def _impact(work: Path):
    with tempfile.TemporaryDirectory(prefix="scale.") as out:
        wall = _cli("--out-dir", out, "impact", "--blocklist", work / "blocklist_union.txt",
                    "--pcap", work / "synth.pcap")
        with open(Path(out) / "series.csv", encoding="utf-8", newline="") as fh:
            bins = list(csv.DictReader(fh))
    return wall, {"bins": len(bins), "ah_pkts": sum(int(b["ah_pkts"]) for b in bins),
                  "packets": sum(int(b["total_pkts"]) for b in bins)}


def _feeds(work: Path) -> None:
    from darklens.model import int_to_ip

    rng = random.Random(SEED)
    rows = 10 ** 6
    addrs = [rng.getrandbits(32) for _ in range(rows)]
    with open(work / "asn.csv", "w", encoding="utf-8") as fh:
        for i, ip in enumerate(addrs):
            prefixlen = rng.choice((8, 12, 16, 18, 20, 22, 23, 24, 24, 24, 24, 24))
            network = ip >> (32 - prefixlen) << (32 - prefixlen)
            fh.write(f"{int_to_ip(network)}/{prefixlen},{64512 + i % 1000},Org {i % 5000},US\n")
    classes = ("benign", "malicious", "unknown")
    with open(work / "tags.csv", "w", encoding="utf-8") as fh:
        for i, ip in enumerate(addrs):
            fh.write(f"{int_to_ip(ip)},{classes[i % 3]},tag{i % 97}|tag{i % 13}\n")
    with open(work / "rdns.csv", "w", encoding="utf-8") as fh:
        for i, ip in enumerate(addrs):
            fh.write(f"{int_to_ip(ip)},host-{i}.example{i % 50}.net\n")
    ah = rng.sample(addrs, 4_000) + [rng.getrandbits(32) for _ in range(1_000)]
    (work / "ah.txt").write_text("".join(f"{int_to_ip(ip)}\n" for ip in ah), encoding="utf-8")


def _load_feeds(keep: bool, work: Path):
    from darklens.feeds import load_asn_map, load_rdns, load_tags
    from darklens.model import read_blocklist

    ah = (read_blocklist(work / "ah.txt"),) if keep else ()
    (asn, tags, rdns), wall = _timed(lambda: [
        load(work / name, *ah) for load, name in (
            (load_asn_map, "asn.csv"), (load_tags, "tags.csv"), (load_rdns, "rdns.csv"))])
    return wall, {"asn_kept": sum(map(len, asn._by_prefixlen.values())), "tags_kept": len(tags),
                  "rdns_kept": len(rdns),
                  "malformed": asn.malformed_lines + tags.malformed_lines + rdns.malformed_lines}


SETUPS = {
    "flows-1e5": partial(_flow_file, "canonical"),
    "flows-1e5-quoted": partial(_flow_file, "quoted"),
    "flows-1e5-jsonl": partial(_flow_file, "jsonl"),
    "log-1e5": partial(_event_log, 10 ** 5),
    "log-1e6": partial(_event_log, 10 ** 6),
    **{name: partial(_capture, name) for name in ("criterion-10", "criterion-10-mixed")},
    "feeds-1e6": _feeds,
}
# Each case: the name of its set-up (None: it has none) and its step. Cases
# that name one set-up share its files.
CASES = {
    **{f"synth-{name}": (None, partial(_generate, name)) for name in SCENARIOS},
    "flows-1e5": ("flows-1e5", partial(_read_flows, "flows.csv")),
    "flows-1e5-quoted": ("flows-1e5-quoted", partial(_read_flows, "flows.csv")),
    "flows-1e5-jsonl": ("flows-1e5-jsonl", partial(_read_flows, "flows.jsonl")),
    **{f"{step}-{size}": (f"log-{size}", partial(_log_step, step))
       for size in ("1e5", "1e6") for step in LOG_STEPS},
    "sweep-12": (None, partial(_fold, "10.0.0.0/12", 1, 1 << 20)),
    "sweep-12x4": (None, partial(_fold, "10.0.0.0/12", 4, 1 << 20)),
    "switch-8": (None, partial(_fold, "10.0.0.0/8", 100, (1 << 24 >> 10) + 1)),
    **{f"{step}-{name}": (name, fn) for name in ("criterion-10", "criterion-10-mixed")
       for step, fn in (("events", _events), ("impact", _impact))},
    "feeds-1e6": ("feeds-1e6", partial(_load_feeds, True)),
    "feeds-1e6-full": ("feeds-1e6", partial(_load_feeds, False)),
}


def run_step(case: str, work: str) -> None:
    """The child: one run of a case's step, then 'wall_s vmhwm_mb counts'."""
    wall, counts = CASES[case][1](Path(work))
    print(f"{wall:.3f} {_vmhwm_mb():.1f}", *(f"{k}={v}" for k, v in counts.items()))


def _child(src: Path, case: str, work: Path) -> str:
    """One run of a case's step in a fresh interpreter that imports src's darklens.

    The child imports a copy of src made without its __pycache__ directories
    and compiled just before it starts, so bytecode left in either tree can
    change neither what it loads nor its VmHWM. (PYTHONPYCACHEPREFIX would
    move the cache of every module, so the child would compile the standard
    library and numpy from source.)
    """
    with tempfile.TemporaryDirectory(prefix="scale.src.") as tmp:
        copy = Path(tmp, "src")
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if not compileall.compile_dir(copy, quiet=1):
            raise SystemExit(f"{src} does not compile")
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        # Run from this directory, so that "import scale" finds this file.
        done = subprocess.run(
            [sys.executable, "-c", "import sys, scale; scale.run_step(*sys.argv[1:])",
             case, str(work)], cwd=TESTS, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--src", type=Path, action="append",
                        help="darklens source tree to time (repeatable; default this checkout's)")
    parser.add_argument("cases", nargs="*", metavar="CASE", help="default: every case")
    args = parser.parse_args()
    unknown = [case for case in args.cases if case not in CASES]
    if unknown:
        parser.error(f"unknown case(s) {', '.join(unknown)}; cases: {', '.join(CASES)}")

    cases = args.cases or list(CASES)
    sources = [src.resolve() for src in args.src or [SRC]]
    sys.path.insert(0, str(SRC))  # the set-ups run this checkout's code
    # Each child imports this file's bytecode: compiling it there would add
    # the compiler's peak to the child's VmHWM.
    py_compile.compile(__file__, doraise=True)
    with tempfile.TemporaryDirectory(prefix="scale.") as tmp:
        for setup in dict.fromkeys(CASES[case][0] for case in cases):
            if setup is not None:
                (Path(tmp) / setup).mkdir()
                SETUPS[setup](Path(tmp) / setup)
        print("case src wall_s vmhwm_mb counts", flush=True)
        for round_ in range(args.rounds):
            for i, case in enumerate(cases):
                work = Path(tmp, CASES[case][0] or "")
                for src in sources if (round_ + i) % 2 == 0 else sources[::-1]:
                    print(case, src, _child(src, case, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
