"""Per-cycle CSV traces of the bundled firmware, frozen byte for byte.

`tests/golden_traces/<name>.csv` holds the trace lines that
`rv32mc run --trace --format kv` prints ahead of the report.  Their sha256
digests are the ones the benchmark checks (`perfbench/golden_traces.json`),
so both guard the same bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rv32mc.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden_traces"
PROGRAMS = ("demo", "timing", "pacer")


@pytest.mark.parametrize("name", PROGRAMS)
def test_trace_matches_golden_file(name, tmp_path, capsys):
    hex_path = tmp_path / f"{name}.hex"
    assert dispatch(["asm", str(ROOT / "firmware" / f"{name}.s"), "-o", str(hex_path)]) == 0
    capsys.readouterr()
    assert dispatch(["run", str(hex_path), "--trace", "--format", "kv"]) == 0
    out = capsys.readouterr().out
    trace = out[: out.index("halt_reason=")]
    assert trace.encode() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", PROGRAMS)
def test_golden_file_digest_matches_benchmark(name):
    digests = json.loads((ROOT / "perfbench" / "golden_traces.json").read_text())
    digest = hashlib.sha256((GOLDEN_DIR / f"{name}.csv").read_bytes()).hexdigest()
    assert digest == digests[name]
