"""darklens: streaming analytics for network telescope (darknet) captures.

Reconstructs logical scan events from raw packets, classifies aggressive
scanners under three definitions, quantifies their share of real traffic from
sampled flow exports, and renders daily blocklists and characterization
tables.
"""

from .model import (
    AhVerdict,
    DarknetConfig,
    DarknetEvent,
    Direction,
    EventKey,
    FlowRecord,
    PacketMeta,
    Protocol,
    Thresholds,
    TrafficType,
    load_config,
)
from .events import EventBuilder, read_event_log, write_event_log
from .pcap import PcapReader, classify_traffic_type, write_pcap
from .detect import (
    DetectionResult,
    ecdf_threshold,
    jaccard,
    run_detection,
    zipf_curve,
)
from .fingerprint import ProbeTool, fingerprint_packet, port_fingerprint_table
from .impact import flow_impact, stream_impact
from .enrich import match_acked, origin_table, tag_join

__version__ = "0.1.0"

__all__ = [
    "AhVerdict",
    "DarknetConfig",
    "DarknetEvent",
    "DetectionResult",
    "Direction",
    "EventBuilder",
    "EventKey",
    "FlowRecord",
    "PacketMeta",
    "PcapReader",
    "ProbeTool",
    "Protocol",
    "Thresholds",
    "TrafficType",
    "classify_traffic_type",
    "ecdf_threshold",
    "fingerprint_packet",
    "flow_impact",
    "jaccard",
    "load_config",
    "match_acked",
    "origin_table",
    "port_fingerprint_table",
    "read_event_log",
    "run_detection",
    "stream_impact",
    "tag_join",
    "write_event_log",
    "write_pcap",
    "zipf_curve",
]
