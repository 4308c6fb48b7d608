"""Time reading and tallying flow rows at ISP scale, one child process a run.

    python tests/scale_flows.py [--rounds 5] [--quoted] [--src DIR ...]

It generates `tests/scale_synth.py`'s flows-1e5 scenario once (seed 7, with
this checkout's synth): 400,004 rows of 10^5 benign talkers and one sweep of a
/22 on 4 routers, 1:100 sampled. Each run then drains `FlowReader` over that
flow file into `tally_flows`, against the scenario's scanners as the AH set,
and prints one line with the time per row in microseconds, the child's
VmHWM, the rows read and the rows found invalid. `--quoted` writes every
router id in quotes, which the reader's row grammar does not take, so every
row is read by csv.reader and the row validator instead.

Each run is a fresh interpreter, so its VmHWM is its own peak. Every `--src`
names a darklens source tree (default: this checkout's src/) whose reader the
runs import; with two, the runs alternate between them and which goes first,
so two commits can be compared on the same machine. It is not a test; pytest
does not collect it.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from scale_synth import SCENARIOS, SRC, _vmhwm_mb


def run_read(directory: Path) -> None:
    """The child: read and tally one flow file, then 'us_per_row vmhwm_mb rows invalid'."""
    from time import perf_counter

    from darklens.flows import FlowReader
    from darklens.impact import tally_flows
    from darklens.model import ip_to_int

    manifest = json.loads((directory / "manifest.json").read_text())
    ah = {ip_to_int(ip) for ip in manifest["flows"]["ah_sources"]}
    reader = FlowReader(directory / "flows.csv")
    t0 = perf_counter()
    tally_flows(reader, ah)
    wall = perf_counter() - t0
    rows = manifest["flows"]["rows"]
    print(f"{wall / rows * 1e6:.2f} {_vmhwm_mb():.1f} {rows} {reader.invalid_rows}")


def _quote_routers(path: Path) -> None:
    """Rewrite a flow CSV with every router id quoted; the fields read the same."""
    quoted = path.with_suffix(".quoted")
    with open(path) as src, open(quoted, "w") as out:
        out.write(next(src))
        for line in src:
            router, rest = line.split(",", 1)
            out.write(f'"{router}",{rest}')
    quoted.replace(path)


def _child(src: Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, __file__, *args], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--quoted", action="store_true",
                        help="quote every router id, so each row takes the csv.reader path")
    parser.add_argument("--src", type=Path, action="append",
                        help="darklens source tree to time (repeatable; default this checkout's)")
    parser.add_argument("--generate", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--read", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.generate:
        from darklens.synth import SynthScenario, generate

        generate(SynthScenario(**SCENARIOS["flows-1e5"]), 7, args.generate)
        return 0
    if args.read:
        run_read(args.read)
        return 0

    sources = [src.resolve() for src in args.src or [SRC]]
    with tempfile.TemporaryDirectory(prefix="scale_flows.") as tmp:
        _child(SRC, "--generate", tmp)
        if args.quoted:
            _quote_routers(Path(tmp) / "flows.csv")
        print("us_per_row vmhwm_mb rows invalid src")
        for round_ in range(args.rounds):
            # Alternate which tree goes first, so drift on a shared host
            # falls on both.
            for src in sources if round_ % 2 == 0 else sources[::-1]:
                print(_child(src, "--read", tmp), src, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
