"""Golden outputs: the whole pipeline on every bench workload, pinned by digest.

Each workload's inputs are built at one seed with bench/inputs.py, then the
four cron stages run in process through `darklens.cli.main`, with the argv
bench/run.py uses. The sha256 of every input and every output must equal
tests/golden.json. Inputs are pinned apart from outputs, so a change to synth
or to numpy shows as "inputs changed", not as a pipeline change.

A change that means to alter an output regenerates the file and says which
outputs changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from darklens import cli  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 7


def digests(workload_name: str, root: Path) -> dict:
    """Input and output digests of one workload's chain, with its exit codes."""
    workload = WORKLOADS[workload_name]
    inp, out = root / "inputs", root / "out"
    inputs.generate_inputs(workload, SEED, inp)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for _stage, argv in run.stage_argvs(workload, inp, out)]
    return {"exit_codes": codes, "inputs": run.digest_dir(inp), "outputs": run.digest_dir(out)}


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_outputs_match_golden(workload_name, tmp_path):
    want = json.loads(GOLDEN.read_text())[workload_name]
    got = digests(workload_name, tmp_path)
    assert got["inputs"] == want["inputs"], "inputs changed: synth or numpy, not the pipeline"
    assert got["exit_codes"] == want["exit_codes"]
    assert got["outputs"] == want["outputs"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: digests(name, Path(tmp) / name) for name in sorted(WORKLOADS)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
