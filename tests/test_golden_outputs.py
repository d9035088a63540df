"""CLI outputs of the bundled firmware, frozen byte for byte.

`tests/golden_outputs/` holds, for demo, timing and pacer, the `asm` hex
image (`<name>.hex`), `dis` of it (`<name>.dis`), the `run` report in text
(`<name>.run.txt`) and in kv (`<name>.run.kv`), the `--report` file
(`<name>.report.txt`) and the `--dump-mem` image (`<name>.mem.hex`); the
`asm --base 0x100` image of timing (`timing.base.hex`, whose `@` record
heads it) and `dis` of it (`timing.base.dis`); the `selftest` stdout
(`selftest.txt`); the `script` stdout of `BRINGUP`, a bring-up of demo
whose `observe` stops the core, so that a later `run` is held until
`start` (`demo.script.txt`); and two traced runs that end in the middle
of an instruction, each as its stdout (`.out`), stderr (`.err`) and exit code
(`.exit`): pacer under `--max-cycles 100` (`pacer.trace-budget.*`, exit 4)
and a load from an unmapped address, which faults in MemRead
(`unmapped-load.hex`, `unmapped-load.trace-fault.*`, exit 3); a fault in
Decode, Fetch and MemWrite (`<name>.hex` of `FAULTS`), each traced twice
and exiting 3: unbudgeted (`<name>.trace-fault.*`), which runs the faulting
instruction whole, and under a budget that it starts within 5 cycles of
(`<name>.trace-fault-budget.*`), which runs it state by state; and one bad
input per `error[...]` kind of `BAD_INPUTS` (`<kind>-error.*`, exit 2), and
an `error[output]`: a kv `run` of demo whose `--report` path is the
current directory (`output-error.*`, exit 2); and, so that nothing large
is committed, the sha256 of the `run --trace --format kv` stdout of
generated programs, one line per key (`traces.sha256`): `tests/progen.py`
programs by seed, and the self-modifying MMIO loop of `test_trace_blocks`.  A
change that alters any of these bytes on purpose regenerates them and
names each changed file:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import random
import tempfile
from pathlib import Path

from progen import random_program
from rv32mc import assemble, image_to_hex
from rv32mc.cli import dispatch
from test_trace_blocks import HALTS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden_outputs"
PROGRAMS = ("demo", "timing", "pacer")
# Faulting programs by name: source, and the `--max-cycles` of a budgeted run.
FAULTS = {
    # x1 = 0x2000: above memory and past the last default device, so the
    # `lw` faults in MemRead (the `unmapped-load` program of test_clock.FAULTS).
    "unmapped-load": ("addi x1, x0, 1\nslli x1, x1, 13\nlw x2, 0(x1)\njal x0, 0\n", None),
    "bad-word": ("addi x1, x0, 1\n.word 0xffffffff\n", 6),  # Decode
    "far-jump": ("jal x0, 0x2000\n", 6),  # Fetch
    "misaligned-store": ("addi x1, x0, 2\nsw x1, 0(x1)\njal x0, 0\n", 8),  # MemWrite
}
# The bring-up script of `demo.script.txt`, also run by the CI `installed` job.
BRINGUP = "load demo.hex\nreset\nstart\nrun 8\nobserve 0 8\nrun 4\nstart\nrun 3\n"
# One bad input per error kind whose message names no path: subcommand,
# input file name and text, and any further arguments.
BAD_INPUTS = {
    "input": ("run", "beyond.hex", "@400\n00000013\n", []),  # an image beyond memory
    "asm": ("asm", "bad.s", "frob x1, x2\n", ["-o", "bad.hex"]),  # an unknown mnemonic
    "dis": ("dis", "bad.hex", "0000001z\n", []),  # a bad hex word
    "script": ("script", "bad.txt", "frob\n", []),  # an unknown command
}
# `traces.sha256` keys: progen seeds, then the self-modifying MMIO loop.
TRACE_SEEDS = (1, 2, 3)


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert dispatch(argv) == 0, argv
    return out.getvalue().encode()


def _ending(name: str, argv: list[str]) -> dict[str, bytes]:
    """Stdout, stderr and exit code of a run that may end in an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return {f"{name}.out": out.getvalue().encode(), f"{name}.err": err.getvalue().encode(),
            f"{name}.exit": f"{code}\n".encode()}


def render_outputs(work: Path) -> dict[str, bytes]:
    """Every golden output by file name, rendered through `cli.dispatch`."""
    outputs = {}
    for name in PROGRAMS:
        hex_path = work / f"{name}.hex"
        _stdout(["asm", str(ROOT / "firmware" / f"{name}.s"), "-o", str(hex_path)])
        outputs[f"{name}.hex"] = hex_path.read_bytes()
        outputs[f"{name}.dis"] = _stdout(["dis", str(hex_path)])
        outputs[f"{name}.run.txt"] = _stdout(["run", str(hex_path)])
        outputs[f"{name}.run.kv"] = _stdout(["run", str(hex_path), "--format", "kv"])
        report, mem = work / f"{name}.report.txt", work / f"{name}.mem.hex"
        _stdout(["run", str(hex_path), "--report", str(report), "--dump-mem", str(mem)])
        outputs[report.name], outputs[mem.name] = report.read_bytes(), mem.read_bytes()
    base_hex = work / "timing.base.hex"
    _stdout(["asm", str(ROOT / "firmware" / "timing.s"), "-o", str(base_hex), "--base", "0x100"])
    outputs[base_hex.name] = base_hex.read_bytes()
    outputs["timing.base.dis"] = _stdout(["dis", str(base_hex)])
    outputs["selftest.txt"] = _stdout(["selftest"])
    script = work / "bringup.txt"
    script.write_text(BRINGUP)
    outputs["demo.script.txt"] = _stdout(["script", str(script)])
    trace = ["--trace", "--format", "kv"]
    outputs.update(_ending("pacer.trace-budget",
                           ["run", str(work / "pacer.hex"), *trace, "--max-cycles", "100"]))
    for name, (text, budget) in FAULTS.items():
        source, fault_hex = work / f"{name}.s", work / f"{name}.hex"
        source.write_text(text)
        _stdout(["asm", str(source), "-o", str(fault_hex)])
        outputs[fault_hex.name] = fault_hex.read_bytes()
        outputs.update(_ending(f"{name}.trace-fault", ["run", str(fault_hex), *trace]))
        if budget:
            outputs.update(_ending(f"{name}.trace-fault-budget",
                                   ["run", str(fault_hex), *trace, "--max-cycles", str(budget)]))
    for kind, (command, file_name, text, rest) in BAD_INPUTS.items():
        bad = work / file_name
        bad.write_text(text)
        outputs.update(_ending(f"{kind}-error", [command, str(bad), *rest]))
    outputs.update(_ending("output-error",
                           ["run", str(work / "demo.hex"), "--format", "kv", "--report", "."]))
    images = {f"progen-seed-{seed}": random_program(random.Random(seed)) for seed in TRACE_SEEDS}
    images["self-modifying-loop"] = assemble(HALTS)
    digests = []
    for key, image in images.items():
        traced = work / f"{key}.hex"
        traced.write_text(image_to_hex(image))
        trace = hashlib.sha256(_stdout(["run", str(traced), "--trace", "--format", "kv"]))
        digests.append(f"{trace.hexdigest()}  {key}\n")
    outputs["traces.sha256"] = "".join(digests).encode()
    return outputs


def test_cli_outputs_match_golden_files(tmp_path):
    outputs = render_outputs(tmp_path)
    assert sorted(outputs) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    changed = [name for name, data in outputs.items() if data != (GOLDEN_DIR / name).read_bytes()]
    assert changed == []


def regenerate() -> list[str]:
    """Rewrite the golden files; the names of those whose bytes changed."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        outputs = render_outputs(Path(work))
    changed = []
    for name, data in outputs.items():
        path = GOLDEN_DIR / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            changed.append(name)
    return changed


if __name__ == "__main__":
    for name in regenerate():
        print(f"changed: {GOLDEN_DIR.relative_to(ROOT) / name}")
