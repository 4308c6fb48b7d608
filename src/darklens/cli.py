"""Command line driver for the darknet analytics pipeline.

Five subcommands cover the cron-driven workflow: `events` turns raw captures
into an event log, `detect` turns an event log into blocklists and verdicts,
`impact` measures a blocklist against sampled flows or a packet stream,
`report` renders the characterization tables, and `synth` fabricates seeded
test inputs with ground truth.

Exit codes: 0 success, 1 completed but the primary result is empty, 2 fatal
input problem, 3 internal error (a bug; the traceback goes to stderr). A
command writes its files into `<out-dir>/.<command>.partial/` and `main`
renames them into `--out-dir` once it returns 0 or 1, so a failed or killed
run never leaves a partial file under an output name. Publishing also
deletes each file of the command's output set that this run did not write, so
no earlier run's file stands beside this run's.

Each subcommand imports the modules it runs when it runs, so a cron stage
pays start-up only for its own code. The module-level imports below are the
names the traced benchmark run (bench/layers.py) patches in this namespace.
"""
from __future__ import annotations

import argparse
import itertools
import sys
from datetime import date
from pathlib import Path
from typing import Optional, Tuple

from .feeds import AckedList, AsnMap, Feed, load_acked, load_asn_map, load_rdns, load_tags
from .fingerprint import PortFingerprintRow, port_fingerprint_table
from .model import (
    D1, D2, D3, TRAFFIC_TYPES, ConfigError, Thresholds, load_config, read_blocklist,
    read_event_log, read_verdicts, write_csv, write_json, write_lines,
)


DETECT_LISTS = (
    "blocklist_d1.txt", "blocklist_d2.txt", "blocklist_d3.txt", "blocklist_union.txt",
    "blocklist_union.stats.jsonl", "verdicts.jsonl",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darklens",
        description="Darknet scan analytics: events, detection, impact, reports.",
    )
    parser.add_argument("--config", type=Path, help="telescope config file (key = value lines)")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="directory for outputs")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for synth")
    sub = parser.add_subparsers(dest="command", required=True)
    feeds = argparse.ArgumentParser(add_help=False)
    feeds.add_argument("--acked-ips", type=Path, help="ACKed scanner IP list (ip[,org])")
    feeds.add_argument("--acked-keywords", type=Path, help="ACKed rDNS keywords (keyword,org)")
    feeds.add_argument("--rdns", type=Path, help="reverse DNS map (ip,fqdn)")

    p_events = sub.add_parser("events", help="build an event log from pcap files")
    p_events.add_argument("pcaps", nargs="+", type=Path, help="classic pcap files, in time order")
    p_events.add_argument(
        "--reorder-slack", type=float, default=0.0, metavar="SECONDS",
        help="tolerate arrivals up to this far behind the watermark",
    )
    p_events.set_defaults(func=cmd_events, outputs=("events.jsonl", "events.jsonl.bin"))

    p_detect = sub.add_parser(
        "detect", parents=[feeds], help="classify aggressive scanners from an event log"
    )
    p_detect.add_argument("event_log", type=Path)
    p_detect.add_argument(
        "--fixed-thresholds", nargs=2, type=int, metavar=("VOLUME_PKTS", "PORTS"),
        help="use these D2/D3 thresholds instead of computing them from the log",
    )
    p_detect.set_defaults(func=cmd_detect, outputs=(*DETECT_LISTS, "detect_meta.json"))

    p_impact = sub.add_parser(
        "impact", parents=[feeds], help="measure a blocklist against flows or a packet stream"
    )
    p_impact.add_argument("--blocklist", type=Path, required=True)
    p_impact.add_argument("--flows", nargs="*", type=Path, default=[], help="sampled flow files")
    p_impact.add_argument("--date", type=date.fromisoformat,
                          help="UTC day (YYYY-MM-DD); default: earliest day in the flows")
    p_impact.add_argument("--pcap", type=Path, help="packet stream for the binned series")
    p_impact.add_argument("--bin-width", type=float, default=1.0, metavar="SECONDS")
    p_impact.add_argument("--num-slash24", type=int, default=1, help="monitored /24 count for rate normalization")
    p_impact.set_defaults(func=cmd_impact, outputs=(
        "impact.csv", "presence.csv", "protocols_flows.csv", "acked_impact.csv", "series.csv",
    ))

    p_report = sub.add_parser(
        "report", parents=[feeds], help="characterization tables for detected scanners"
    )
    p_report.add_argument("event_log", type=Path)
    p_report.add_argument("verdicts", type=Path)
    p_report.add_argument("--asn-map", type=Path, help="routing map (cidr,asn,org,country)")
    p_report.add_argument("--tags", type=Path, help="tag database (ip,classification,tag1|tag2)")
    p_report.add_argument("--exclude-acked", action="store_true",
                          help="drop ACKed scanners before the tag join")
    p_report.set_defaults(func=cmd_report, outputs=(
        "origins.csv", "ports.csv", "zipf.csv", "intersections.csv", "timeseries.csv",
        "protocols_darknet.csv", "tag_classes.csv", "tags_top.csv", "report_meta.json",
    ))

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic capture with ground truth")
    p_synth.add_argument("scenario", type=Path, help="scenario JSON")
    p_synth.set_defaults(func=cmd_synth, outputs=("synth.pcap", "manifest.json", "flows.csv"))

    return parser


def _require_config(args):
    if args.config is None:
        raise ConfigError("this command needs --config")
    return load_config(args.config)


def _load_acked_args(args) -> Tuple[Optional[AckedList], Optional[Feed]]:
    """The ACKed list and the rDNS map it is matched through, each None when not given."""
    if args.acked_ips is None and args.acked_keywords is None:
        if args.rdns is not None:
            raise ConfigError("--rdns needs --acked-ips and --acked-keywords")
        return None, None
    if args.acked_ips is None or args.acked_keywords is None:
        raise ConfigError("--acked-ips and --acked-keywords must be given together")
    acked = load_acked(args.acked_ips, args.acked_keywords)
    return acked, load_rdns(args.rdns) if args.rdns is not None else None


def _feed_counts(**feeds) -> dict:
    """The line counts of each feed the run loaded, for a meta file; None is not loaded."""
    return {
        name: {count: getattr(feed, count) for count in ("malformed_lines", "duplicate_lines")
               if hasattr(feed, count)}
        for name, feed in feeds.items() if feed is not None
    }


def cmd_events(args, staging: Path) -> int:
    from .events import EventBuilder, write_event_log
    from .pcap import PcapReader

    cfg = _require_config(args)
    builder = EventBuilder(cfg, reorder_slack_s=args.reorder_slack)
    totals = dict.fromkeys(
        ("packets_read", "skipped_non_ipv4", "skipped_truncated", "skipped_transport"), 0
    )

    def closed_events():
        for pcap_path in args.pcaps:
            reader = PcapReader(pcap_path)
            yield from builder.fold(reader)
            for name in totals:
                totals[name] += getattr(reader, name)
        yield from builder.flush()

    events_written = write_event_log(staging / "events.jsonl", closed_events())

    print(f"pcap files: {len(args.pcaps)}")
    print(
        "packets read: {packets_read} (skipped: non-ipv4 {skipped_non_ipv4}, "
        "truncated {skipped_truncated}, other transport {skipped_transport})".format(**totals)
    )
    print(
        f"dropped non-scanning: {builder.dropped_non_scanning}, "
        f"outside darknet: {builder.outside_darknet}, "
        f"out of order: {builder.out_of_order}"
    )
    print(f"events: {events_written} -> {args.out_dir / 'events.jsonl'}")
    return 0 if events_written else 1


def cmd_detect(args, staging: Path) -> int:
    from . import detect as detect_mod

    cfg = _require_config(args)
    acked, rdns = _load_acked_args(args)
    feeds = _feed_counts(acked=acked, rdns=rdns)
    thresholds = None
    if args.fixed_thresholds:
        volume, ports = args.fixed_thresholds
        thresholds = Thresholds(volume, ports, "fixed")
    try:
        result = detect_mod.run_detection(
            read_event_log(args.event_log), cfg, thresholds=thresholds, acked=acked, rdns=rdns
        )
    except detect_mod.EmptyInputError:
        for name in DETECT_LISTS:
            write_lines(staging / name, ())
        write_json(staging / "detect_meta.json",
                   {"events": 0, "warning": "empty event log", "feeds": feeds})
        print("warning: empty event log, nothing to detect")
        return 1

    detect_mod.write_blocklist(staging / "blocklist_d1.txt", result.d1_ips)
    detect_mod.write_blocklist(staging / "blocklist_d2.txt", result.d2_ips)
    detect_mod.write_blocklist(staging / "blocklist_d3.txt", result.d3_ips)
    detect_mod.write_blocklist(staging / "blocklist_union.txt", result.union_ips)
    detect_mod.write_blocklist_sidecar(staging / "blocklist_union.stats.jsonl", result)
    detect_mod.write_verdicts(staging / "verdicts.jsonl", result.verdicts)
    write_json(staging / "detect_meta.json", {
        "events": result.events,
        "dataset_label": result.thresholds.dataset_label,
        "thresholds": {
            "volume_threshold_pkts": result.thresholds.volume_threshold_pkts,
            "ports_threshold": result.thresholds.ports_threshold,
            "mode": "fixed" if args.fixed_thresholds else "two-pass",
        },
        "alpha": cfg.alpha,
        "dispersion_fraction": cfg.dispersion_fraction,
        "darknet_size": cfg.darknet_size,
        "port_space": "distinct (dst_port, protocol) pairs per source per UTC day",
        "counts": {
            "d1": len(result.d1_ips),
            "d2": len(result.d2_ips),
            "d3": len(result.d3_ips),
            "union": len(result.union_ips),
        },
        "feeds": feeds,
    })

    print(
        f"thresholds: volume>={result.thresholds.volume_threshold_pkts} pkts, "
        f"ports>={result.thresholds.ports_threshold}"
        + (" (fixed)" if args.fixed_thresholds else " (two-pass)")
    )
    print(
        f"aggressive sources: D1={len(result.d1_ips)} D2={len(result.d2_ips)} "
        f"D3={len(result.d3_ips)} union={len(result.union_ips)}"
    )
    for pair, score in result.jaccard_pairs().items():
        print(f"jaccard {pair}: " + (f"{score:.3f}" if score is not None else "n/a"))
    print(f"blocklists and verdicts -> {args.out_dir}")
    return 0 if result.union_ips else 1


def cmd_impact(args, staging: Path) -> int:
    from . import impact

    if not args.flows and args.pcap is None:
        raise ConfigError("impact needs --flows and/or --pcap")
    impact.series_width_us(args.bin_width, args.num_slash24)
    acked, rdns = _load_acked_args(args)
    ah = read_blocklist(args.blocklist)
    if not ah:
        print("warning: blocklist is empty, nothing to measure")
        return 1

    empty_result = False

    if args.flows:
        from . import enrich
        from .flows import FlowReader

        acked_ips = enrich.acked_sources(ah, acked, rdns)
        readers = [FlowReader(path) for path in args.flows]
        tally = impact.tally_flows(itertools.chain.from_iterable(readers), ah, acked_ips)
        day = args.date
        if day is None and tally.cells:
            day = min(cell_day for cell_day, _router in tally.cells)
        if day is None:
            print("warning: no valid flow rows")
            empty_result = True
        else:
            per_router = impact.flow_impact(tally, day)
            if not per_router:
                print(f"warning: no flow records on {day.isoformat()}")
                empty_result = True
            else:
                _write_impact_csv(staging / "impact.csv", day, per_router)
                for router in sorted(per_router):
                    imp = per_router[router]
                    print(
                        f"{router} {day.isoformat()}: fraction={imp.fraction:.6f} "
                        f"({imp.ah_pkts_est}/{imp.total_pkts_est} est pkts)"
                    )
                presence = impact.ah_presence(tally)
                write_csv(
                    staging / "presence.csv",
                    ["router_id", "presence_fraction"],
                    [(router, presence[router]) for router in sorted(presence)],
                )
                _write_protocol_csv(
                    staging / "protocols_flows.csv", impact.protocol_breakdown_flows(tally)
                )
                if acked is not None:
                    _write_impact_csv(
                        staging / "acked_impact.csv", day, impact.acked_impact(tally, day)
                    )
        invalid = sum(reader.invalid_rows for reader in readers)
        if invalid:
            print(f"note: {invalid} invalid flow rows skipped")

    if args.pcap is not None:
        from .pcap import PcapReader

        reader = PcapReader(args.pcap)
        series = impact.stream_impact(reader, ah, bin_width_s=args.bin_width)
        write_csv(
            staging / "series.csv",
            ["bin_start_ts", "ah_pkts", "total_pkts", "inst_fraction", "cum_fraction",
             "per_slash24_rate"],
            impact.series_rows(series, args.num_slash24),
        )
        ah_total, total = series.totals()
        if total:
            hot = impact.flag_high_load_bins(series)
            print(
                f"series: {len(series.span())} bins, "
                f"cumulative fraction {ah_total / total:.6f}, "
                f"{len(hot)} bins hot on both load and share"
            )
        else:
            print("warning: packet stream produced no bins")
            empty_result = True

    return 1 if empty_result else 0


def _write_impact_csv(path, day: date, per_router) -> None:
    write_csv(
        path,
        ["vantage_id", "date", "ah_pkts_est", "total_pkts_est", "fraction"],
        [
            (router, day.isoformat(), imp.ah_pkts_est, imp.total_pkts_est, imp.fraction)
            for router, imp in sorted(per_router.items())
        ],
    )


def _write_protocol_csv(path, mix) -> None:
    """mix is an impact.ProtocolMix."""
    write_csv(
        path,
        ["bucket", "percent", "estimated_pkts"],
        [
            ("tcp_syn", mix.pct_tcp_syn, mix.pkts_tcp_syn),
            ("udp", mix.pct_udp, mix.pkts_udp),
            ("icmp_echo", mix.pct_icmp_echo, mix.pkts_icmp_echo),
            ("unclassifiable", None, mix.unclassifiable_pkts),
        ],
    )


def cmd_report(args, staging: Path) -> int:
    from . import enrich, impact

    if args.exclude_acked and (args.acked_ips is None or args.acked_keywords is None):
        raise ConfigError("--exclude-acked needs --acked-ips and --acked-keywords")
    ah = set()
    d_sets = {D1: set(), D2: set(), D3: set()}
    per_day: dict = {}  # UTC day -> [daily AH, active AH]
    for v in read_verdicts(args.verdicts):
        ah.add(v.src_ip)
        for name in v.matched_defs:
            d_sets[name].add(v.src_ip)
        cell = per_day.setdefault(v.day, [0, 0])
        cell[0] += v.is_daily
        cell[1] += 1
    # One pass over the log's rows folds each AH event into its source's
    # packets and the (dst_port, traffic-type index) -> [zmap, masscan, other]
    # tool tally. It runs to the end even with no verdicts, so a rotten line
    # is still fatal.
    pkts_by_ip: dict = {}
    tally: dict = {}
    events_read = 0
    events = read_event_log(args.event_log)
    for ip, port, ttype, _start, _end, pkts, _dsts, zmap, masscan, other in events:
        events_read += 1
        if ip in ah:
            pkts_by_ip[ip] = pkts_by_ip.get(ip, 0) + pkts
            tools = tally.get((port, ttype))
            if tools is None:
                tools = tally[(port, ttype)] = [0, 0, 0]
            tools[0] += zmap
            tools[1] += masscan
            tools[2] += other
    if not ah:
        print("warning: no verdicts, nothing to report")
        return 1
    tally = {(port, TRAFFIC_TYPES[ttype]): tools for (port, ttype), tools in tally.items()}

    asn_map = load_asn_map(args.asn_map) if args.asn_map else AsnMap()
    acked, rdns = _load_acked_args(args)
    acked_ips = enrich.acked_sources(ah, acked, rdns)

    rows = enrich.origin_table(ah, pkts_by_ip, asn_map, acked_ips)
    write_csv(staging / "origins.csv", enrich.OriginRow._fields, rows)

    ports = port_fingerprint_table(tally)
    write_csv(staging / "ports.csv", PortFingerprintRow._fields, ports)

    top_share = None
    if pkts_by_ip:
        curve = enrich.zipf_curve(pkts_by_ip)
        write_csv(staging / "zipf.csv", ["rank_fraction", "cumulative_pkt_fraction"], curve)
        top_share = enrich.cumulative_share(curve, 0.01)

    table = enrich.definition_intersections(d_sets[D1], d_sets[D2], d_sets[D3], asn_map)
    write_csv(
        staging / "intersections.csv",
        ["combo", "ips", "asns", "orgs", "countries"],
        [(name, row.ips, row.asns, row.orgs, row.countries) for name, row in table.items()],
    )

    write_csv(
        staging / "timeseries.csv",
        ["day", "daily_ah", "active_ah"],
        [(day.isoformat(), *per_day[day]) for day in sorted(per_day)],
    )

    _write_protocol_csv(staging / "protocols_darknet.csv", impact.protocol_breakdown_darknet(tally))

    tags = load_tags(args.tags) if args.tags else None
    if tags is not None:
        join_set = ah - acked_ips.keys() if args.exclude_acked else ah
        if join_set:
            result = enrich.tag_join(join_set, tags)
            write_csv(
                staging / "tag_classes.csv", ["classification", "ip_count"],
                result.histogram.items(),
            )
            write_csv(
                staging / "tags_top.csv",
                ["rank", "tag", "ip_count"],
                [(rank, tag, count) for rank, (tag, count) in enumerate(result.top_tags, 1)],
            )
            print(f"tag overlap: {result.overlap_fraction:.3f} of {len(join_set)} sources")

    feeds = _feed_counts(acked=acked, rdns=rdns, asn_map=asn_map if args.asn_map else None,
                         tags=tags)
    write_json(staging / "report_meta.json", {
        "sources": len(ah),
        "events": events_read,
        "top_1pct_share": top_share,
        "feeds": feeds,
        "notes": {
            "port_space": "distinct (dst_port, protocol) pairs per source per UTC day",
            "fingerprint": "the stateless-validation fingerprint exists only on TCP; "
            "non-constant-id UDP/ICMP probes are labeled other",
        },
    })

    for name, counts in feeds.items():
        if any(counts.values()):
            print(f"note: feed {name}: " + ", ".join(
                f"{count} {kind.replace('_', ' ')}" for kind, count in counts.items()))
    if top_share is not None:
        print(f"top 1% of sources carry {top_share:.1%} of aggressive packets")
    print(f"report tables -> {args.out_dir}")
    return 0


def cmd_synth(args, staging: Path) -> int:
    # numpy is imported here, not at module level, so the four pipeline
    # subcommands start on the standard library alone.
    from .synth import SynthScenario, generate

    scenario = SynthScenario.from_json_file(args.scenario)
    manifest = generate(scenario, args.seed, staging)
    print(f"packets: {manifest['pcap_packets']} -> {args.out_dir / 'synth.pcap'}")
    print(f"sources: {len(manifest['sources'])} (d1 ground truth: {len(manifest['d1_expected'])})")
    if "flows" in manifest:
        print(f"flow rows: {manifest['flows']['rows']} -> {args.out_dir / 'flows.csv'}")
    print(f"manifest -> {args.out_dir / 'manifest.json'}")
    return 0 if manifest["pcap_packets"] else 1


def _remove_staging(staging: Path) -> None:
    """Delete a staging directory and the files in it, if it exists."""
    if staging.is_dir():
        for path in list(staging.iterdir()):
            path.unlink()
        staging.rmdir()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir: Path = args.out_dir
    staging = out_dir / f".{args.command}.partial"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _remove_staging(staging)  # left behind by a killed run
        staging.mkdir()
        try:
            rc = args.func(args, staging)
            written = list(staging.iterdir())
            # An output this run did not write must not survive from an earlier run.
            for name in set(args.outputs).difference(path.name for path in written):
                (out_dir / name).unlink(missing_ok=True)
            # Atomic within one filesystem: each output appears whole or not at all.
            for path in written:
                path.replace(out_dir / path.name)
            return rc
        finally:
            _remove_staging(staging)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # exit 1 would read as a quiet night
        import traceback

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
