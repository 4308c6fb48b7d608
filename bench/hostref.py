"""The benchmark's reference workload: a fixed piece of darklens-free work.

    python3 bench/hostref.py

The host the benchmark runs on is shared, and its speed drifts by 10-50%
over seconds to minutes; the children's CPU time drifts with their wall
time, so neither is steady on its own. run.py times this script as a child
process between the pipeline's stages, never beside them, and divides each
stage's wall time by the runs around it. It does the kinds of work a stage
does: start an interpreter, import numpy (most of a darklens subcommand's
start-up), then decode binary records, update dicts and make JSON round
trips in pure Python. The stages' log wall time moves with this
child's log time at a slope of 0.7-0.85; against a bare loop in the parent
process the slope was 0.6, so dividing by that loop over-corrected more.

It never changes with darklens, so a change to darklens moves the pipeline's
times and not this one.
"""
import json
import struct

import numpy  # noqa: F401  (imported for its start-up cost, like darklens.cli)

ROUNDS = 500
BLOB = struct.pack("<4I", 1, 2, 3, 4) * 256


def main() -> None:
    for _ in range(ROUNDS):
        counts = {}
        for i, (a, b, c, d) in enumerate(struct.iter_unpack("<4I", BLOB)):
            key = (i * 2654435761 + a) & 0x3FF
            counts[key] = counts.get(key, 0) + b + c + d
        text = json.dumps({"src": str(counts.get(5)), "n": len(counts),
                           "top": sorted(counts.values())[:8]})
        json.loads(text)


if __name__ == "__main__":
    main()
