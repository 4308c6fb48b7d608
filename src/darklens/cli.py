"""Command line driver for the darknet analytics pipeline.

Five subcommands cover the cron-driven workflow: `events` turns raw captures
into an event log, `detect` turns an event log into blocklists and verdicts,
`impact` measures a blocklist against sampled flows or a packet stream,
`report` renders the characterization tables, and `synth` fabricates seeded
test inputs with ground truth.

Exit codes: 0 success, 1 completed but the primary result is empty, 2 fatal
input problem. A fatal error removes whatever partial outputs the failed
command had created, so a cron job never leaves half-written files behind.

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
from typing import List, Optional

from .feeds import AckedList, AsnMap, RdnsMap, load_acked, load_asn_map, load_rdns, load_tags
from .fingerprint import PortFingerprintRow, port_fingerprint_table
from .model import (
    ConfigError, Thresholds, int_to_ip, load_config, read_event_log, write_csv, write_json,
    write_lines,
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

    p_events = sub.add_parser("events", help="build an event log from pcap files")
    p_events.add_argument("pcaps", nargs="+", type=Path, help="classic pcap files, in time order")
    p_events.add_argument(
        "--reorder-slack", type=float, default=0.0, metavar="SECONDS",
        help="tolerate arrivals up to this far behind the watermark",
    )
    p_events.set_defaults(func=cmd_events)

    p_detect = sub.add_parser("detect", help="classify aggressive scanners from an event log")
    p_detect.add_argument("event_log", type=Path)
    p_detect.add_argument(
        "--fixed-thresholds", nargs=2, type=int, metavar=("VOLUME_PKTS", "PORTS"),
        help="skip the first pass and use these D2/D3 thresholds (streaming mode)",
    )
    p_detect.add_argument("--dataset-label", default="", help="label stored with the thresholds")
    p_detect.add_argument("--acked-ips", type=Path, help="ACKed scanner IP list (ip[,org])")
    p_detect.add_argument("--acked-keywords", type=Path, help="ACKed rDNS keywords (keyword,org)")
    p_detect.add_argument("--rdns", type=Path, help="reverse DNS map (ip,fqdn)")
    p_detect.set_defaults(func=cmd_detect)

    p_impact = sub.add_parser("impact", help="measure a blocklist against flows or a packet stream")
    p_impact.add_argument("--blocklist", type=Path, required=True)
    p_impact.add_argument("--flows", nargs="*", type=Path, default=[], help="sampled flow files")
    # The values of flows.FlowFormat, spelled out so --help need not import flows.
    p_impact.add_argument("--flow-format", choices=["csv", "jsonl"], default="csv")
    p_impact.add_argument("--date", help="UTC day (YYYY-MM-DD); default: earliest day in the flows")
    p_impact.add_argument("--pcap", type=Path, help="packet stream for the binned series")
    p_impact.add_argument("--bin-width", type=float, default=1.0, metavar="SECONDS")
    p_impact.add_argument("--num-slash24", type=int, default=1, help="monitored /24 count for rate normalization")
    p_impact.add_argument("--acked-ips", type=Path)
    p_impact.add_argument("--acked-keywords", type=Path)
    p_impact.add_argument("--rdns", type=Path)
    p_impact.set_defaults(func=cmd_impact)

    p_report = sub.add_parser("report", help="characterization tables for detected scanners")
    p_report.add_argument("event_log", type=Path)
    p_report.add_argument("verdicts", type=Path)
    p_report.add_argument("--asn-map", type=Path, help="routing map (cidr,asn,org,country)")
    p_report.add_argument("--tags", type=Path, help="tag database (ip,classification,tag1|tag2)")
    p_report.add_argument("--acked-ips", type=Path)
    p_report.add_argument("--acked-keywords", type=Path)
    p_report.add_argument("--rdns", type=Path)
    p_report.add_argument("--exclude-acked", action="store_true",
                          help="drop ACKed scanners before the tag join")
    p_report.add_argument("--top-ports", type=int, default=0, help="truncate the port table (0 = all)")
    p_report.add_argument("--top-tags", type=int, default=20)
    p_report.set_defaults(func=cmd_report)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic capture with ground truth")
    p_synth.add_argument("scenario", type=Path, help="scenario JSON")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def _require_config(args):
    if args.config is None:
        raise ConfigError("this command needs --config")
    return load_config(args.config)


def _load_acked_args(args) -> Optional[AckedList]:
    if args.acked_ips is None and args.acked_keywords is None:
        return None
    if args.acked_ips is None or args.acked_keywords is None:
        raise ConfigError("--acked-ips and --acked-keywords must be given together")
    return load_acked(args.acked_ips, args.acked_keywords)


def _load_rdns_args(args) -> Optional[RdnsMap]:
    return load_rdns(args.rdns) if args.rdns is not None else None


def cmd_events(args, out_dir: Path, created: List[Path]) -> int:
    from .events import EventBuilder, write_event_log
    from .pcap import PcapReader

    cfg = _require_config(args)
    builder = EventBuilder(cfg, reorder_slack_s=args.reorder_slack)
    out_path = out_dir / "events.jsonl"
    created.append(out_path)
    # Running sums of the finished readers' counters: each reader, and the
    # capture it holds in memory, is dropped before the next file is opened.
    totals = dict.fromkeys(
        ("packets_read", "skipped_non_ipv4", "skipped_truncated", "skipped_transport"), 0
    )

    def closed_events():
        for pcap_path in args.pcaps:
            reader = PcapReader(pcap_path)
            yield from builder.fold(reader)
            for name in totals:
                totals[name] += getattr(reader, name)
            del reader
        yield from builder.flush()

    events_written = write_event_log(out_path, closed_events())

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
    print(f"sketch_clamped: {builder.sketch_clamped}")
    print(f"events: {events_written} -> {out_path}")
    return 0 if events_written else 1


def cmd_detect(args, out_dir: Path, created: List[Path]) -> int:
    from . import detect as detect_mod

    cfg = _require_config(args)
    events = list(read_event_log(args.event_log))
    wide = next((ev for ev in events if ev.unique_dst_count > cfg.darknet_size), None)
    if wide is not None:
        raise ValueError(
            f"{args.event_log}: event from {int_to_ip(wide.key.src_ip)} port {wide.key.dst_port} "
            f"at start_ts {wide.start_ts} has {wide.unique_dst_count} distinct destinations, "
            f"more than the {cfg.darknet_size} addresses of the darknet"
        )
    acked = _load_acked_args(args)
    rdns = _load_rdns_args(args)

    paths = {
        "d1": out_dir / "blocklist_d1.txt",
        "d2": out_dir / "blocklist_d2.txt",
        "d3": out_dir / "blocklist_d3.txt",
        "union": out_dir / "blocklist_union.txt",
        "sidecar": out_dir / "blocklist_union.stats.jsonl",
        "verdicts": out_dir / "verdicts.jsonl",
        "meta": out_dir / "detect_meta.json",
    }
    created.extend(paths.values())

    if not events:
        for key in ("d1", "d2", "d3", "union", "sidecar", "verdicts"):
            write_lines(paths[key], ())
        write_json(paths["meta"], {"events": 0, "warning": "empty event log"})
        print("warning: empty event log, nothing to detect")
        return 1

    thresholds = None
    if args.fixed_thresholds:
        volume, ports = args.fixed_thresholds
        thresholds = Thresholds(volume, ports, args.dataset_label or "fixed")
    result = detect_mod.run_detection(
        events, cfg, thresholds=thresholds, acked=acked, rdns=rdns,
        dataset_label=args.dataset_label,
    )

    detect_mod.write_blocklist(paths["d1"], result.d1_ips)
    detect_mod.write_blocklist(paths["d2"], result.d2_ips)
    detect_mod.write_blocklist(paths["d3"], result.d3_ips)
    detect_mod.write_blocklist(paths["union"], result.union_ips)
    detect_mod.write_blocklist_sidecar(paths["sidecar"], result)
    detect_mod.write_verdicts(paths["verdicts"], result.verdicts)
    write_json(paths["meta"], {
        "events": len(events),
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
    print(f"blocklists and verdicts -> {out_dir}")
    return 0 if result.union_ips else 1


def cmd_impact(args, out_dir: Path, created: List[Path]) -> int:
    from . import detect as detect_mod
    from . import enrich, impact

    if not args.flows and args.pcap is None:
        raise ConfigError("impact needs --flows and/or --pcap")
    ah = detect_mod.read_blocklist(args.blocklist)
    if not ah:
        print("warning: blocklist is empty, nothing to measure")
        return 1

    empty_result = False

    if args.flows:
        from .flows import FlowFormat, FlowReader

        acked = _load_acked_args(args)
        acked_ips = {} if acked is None else enrich.acked_sources(ah, acked, _load_rdns_args(args))
        readers = [FlowReader(path, FlowFormat(args.flow_format)) for path in args.flows]
        tally = impact.tally_flows(itertools.chain.from_iterable(readers), ah, acked_ips)
        if args.date:
            day = date.fromisoformat(args.date)
        elif tally.cells:
            day = min(cell_day for cell_day, _router in tally.cells)
        else:
            day = None
        if day is None:
            print("warning: no valid flow rows")
            empty_result = True
        else:
            try:
                per_router = impact.flow_impact(tally, day)
            except impact.NoFlowsForDayError:
                print(f"warning: no flow records on {day.isoformat()}")
                per_router = {}
                empty_result = True
            if per_router:
                impact_path = out_dir / "impact.csv"
                created.append(impact_path)
                _write_impact_csv(impact_path, day, per_router)
                for router in sorted(per_router):
                    imp = per_router[router]
                    print(
                        f"{router} {day.isoformat()}: fraction={imp.fraction:.6f} "
                        f"({imp.ah_pkts_est}/{imp.total_pkts_est} est pkts)"
                    )
                presence_path = out_dir / "presence.csv"
                created.append(presence_path)
                presence = impact.ah_presence(tally)
                write_csv(
                    presence_path,
                    ["router_id", "presence_fraction"],
                    [(router, presence[router]) for router in sorted(presence)],
                )
                proto_path = out_dir / "protocols_flows.csv"
                created.append(proto_path)
                _write_protocol_csv(proto_path, impact.protocol_breakdown_flows(tally))
                if acked is not None:
                    acked_path = out_dir / "acked_impact.csv"
                    created.append(acked_path)
                    _write_impact_csv(acked_path, day, impact.acked_impact(tally, day))
        invalid = sum(reader.invalid_rows for reader in readers)
        if invalid:
            print(f"note: {invalid} invalid flow rows skipped")

    if args.pcap is not None:
        from .pcap import PcapReader

        reader = PcapReader(args.pcap)
        series = impact.stream_impact(reader, ah, bin_width_s=args.bin_width)
        series_path = out_dir / "series.csv"
        created.append(series_path)
        write_csv(
            series_path,
            ["bin_start_ts", "ah_pkts", "total_pkts", "inst_fraction", "cum_fraction",
             "per_slash24_rate"],
            [
                (b.bin_start_us, b.ah_pkts, b.total_pkts, inst, cum, rate)
                for b, inst, cum, rate in zip(
                    series.bins,
                    series.instantaneous_fractions(),
                    series.cumulative_fractions(),
                    impact.normalize_per_slash24(series, args.num_slash24),
                )
            ],
        )
        ah_total, total = series.totals()
        if total:
            hot = impact.flag_high_load_bins(series)
            print(
                f"series: {len(series.bins)} bins, "
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


def cmd_report(args, out_dir: Path, created: List[Path]) -> int:
    from . import detect as detect_mod
    from . import enrich, impact

    if args.exclude_acked and (args.acked_ips is None or args.acked_keywords is None):
        raise ConfigError("--exclude-acked needs --acked-ips and --acked-keywords")
    verdicts = detect_mod.read_verdicts(args.verdicts)
    ah = {v.src_ip for v in verdicts}
    # One pass over the log, holding only the AH sources' events. It runs to
    # the end even with no verdicts, so a rotten line is still fatal.
    ah_events = []
    pkts_by_ip: dict = {}
    events_read = 0
    for ev in read_event_log(args.event_log):
        events_read += 1
        ip = ev.key.src_ip
        if ip in ah:
            ah_events.append(ev)
            pkts_by_ip[ip] = pkts_by_ip.get(ip, 0) + ev.pkt_count
    if not verdicts:
        print("warning: no verdicts, nothing to report")
        return 1

    d_sets = {name: set() for name in (detect_mod.D1, detect_mod.D2, detect_mod.D3)}
    for v in verdicts:
        for name in v.matched_defs:
            d_sets[name].add(v.src_ip)

    asn_map = load_asn_map(args.asn_map) if args.asn_map else AsnMap()
    acked_ips = enrich.acked_sources(ah, _load_acked_args(args), _load_rdns_args(args))

    origins_path = out_dir / "origins.csv"
    created.append(origins_path)
    rows = enrich.origin_table(ah, pkts_by_ip, asn_map, acked_ips)
    write_csv(origins_path, enrich.OriginRow._fields, rows)

    ports_path = out_dir / "ports.csv"
    created.append(ports_path)
    ports = port_fingerprint_table(ah_events, top_n=args.top_ports)
    write_csv(ports_path, PortFingerprintRow._fields, ports)

    zipf_path = out_dir / "zipf.csv"
    top_share = None
    if pkts_by_ip:
        created.append(zipf_path)
        curve = detect_mod.zipf_curve(pkts_by_ip)
        write_csv(zipf_path, ["rank_fraction", "cumulative_pkt_fraction"], curve)
        top_share = detect_mod.cumulative_share(curve, 0.01)

    inter_path = out_dir / "intersections.csv"
    created.append(inter_path)
    table = detect_mod.definition_intersections(
        d_sets[detect_mod.D1], d_sets[detect_mod.D2], d_sets[detect_mod.D3], asn_map
    )
    write_csv(
        inter_path,
        ["combo", "ips", "asns", "orgs", "countries"],
        [(name, row.ips, row.asns, row.orgs, row.countries) for name, row in table.items()],
    )

    ts_path = out_dir / "timeseries.csv"
    created.append(ts_path)
    per_day: dict = {}
    for v in verdicts:
        cell = per_day.setdefault(v.day, [0, 0])
        cell[1] += 1
        if v.is_daily:
            cell[0] += 1
    write_csv(
        ts_path,
        ["day", "daily_ah", "active_ah"],
        [(day.isoformat(), *per_day[day]) for day in sorted(per_day)],
    )

    protocols_path = out_dir / "protocols_darknet.csv"
    created.append(protocols_path)
    _write_protocol_csv(protocols_path, impact.protocol_breakdown_darknet(ah_events, ah))

    if args.tags:
        tags = load_tags(args.tags)
        join_set = ah - acked_ips.keys() if args.exclude_acked else ah
        if join_set:
            result = enrich.tag_join(join_set, tags, top_n=args.top_tags)
            classes_path = out_dir / "tag_classes.csv"
            tags_path = out_dir / "tags_top.csv"
            created.extend([classes_path, tags_path])
            write_csv(classes_path, ["classification", "ip_count"], result.histogram.items())
            write_csv(
                tags_path,
                ["rank", "tag", "ip_count"],
                [(rank, tag, count) for rank, (tag, count) in enumerate(result.top_tags, 1)],
            )
            print(f"tag overlap: {result.overlap_fraction:.3f} of {len(join_set)} sources")

    meta_path = out_dir / "report_meta.json"
    created.append(meta_path)
    write_json(meta_path, {
        "sources": len(ah),
        "events": events_read,
        "top_1pct_share": top_share,
        "notes": {
            "port_space": "distinct (dst_port, protocol) pairs per source per UTC day",
            "fingerprint": "the stateless-validation fingerprint exists only on TCP; "
            "non-constant-id UDP/ICMP probes are labeled other",
        },
    })

    if top_share is not None:
        print(f"top 1% of sources carry {top_share:.1%} of aggressive packets")
    print(f"report tables -> {out_dir}")
    return 0


def cmd_synth(args, out_dir: Path, created: List[Path]) -> int:
    # numpy is imported here, not at module level, so the four pipeline
    # subcommands start on the standard library alone.
    from .synth import SynthScenario, generate

    scenario = SynthScenario.from_json_file(args.scenario)
    created.extend([out_dir / "synth.pcap", out_dir / "manifest.json", out_dir / "flows.csv"])
    manifest = generate(scenario, args.seed, out_dir)
    print(f"packets: {manifest['pcap_packets']} -> {out_dir / 'synth.pcap'}")
    print(f"sources: {len(manifest['sources'])} (d1 ground truth: {len(manifest['d1_expected'])})")
    if "flows" in manifest:
        print(f"flow rows: {manifest['flows']['rows']} -> {out_dir / 'flows.csv'}")
    print(f"manifest -> {out_dir / 'manifest.json'}")
    return 0 if manifest["pcap_packets"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir: Path = args.out_dir
    created: List[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, out_dir, created)
    except (OSError, ValueError) as exc:
        for path in created:
            try:
                Path(path).unlink()
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
