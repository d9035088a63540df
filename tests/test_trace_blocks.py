"""`rv32mc run --trace` writes its CSV lines in bounded blocks.

Whatever ends the run - the halt policy, the cycle budget in the middle
of an instruction, or a fault - stdout ahead of the report holds one line
per executed cycle, in order.  The expected lines are rendered here from
`Core.step_cycle` records field by field, not through `TraceRecord.as_csv`,
and `as_csv` itself, which reads the cached suffix of a one-state span,
is held to that longhand.
"""

import contextlib

import pytest

from rv32mc import ControlMode, PeripheralMap, Simulator, assemble, decode, image_to_hex
from rv32mc.cli import TRACE_BLOCK_LINES, dispatch
from rv32mc.core import csv_suffixes
from rv32mc.errors import SimError, UnsupportedInstruction
from rv32mc.isa import WORD_CACHE_SIZE, format_instruction

# Writes each pass's number to the pacing DATA register, then rewrites the
# immediate of its own `addi` for the next pass: about 32 cycles a pass.
LOOP = """
        addi  x7, x0, 1
        slli  x7, x7, 12        # x7 = 0x1000, pacing base
        addi  x6, x0, 1
        slli  x6, x6, 20        # 1 << 20: +1 on an I-type immediate
        addi  x2, x0, 40        # passes
patch:  addi  x4, x4, 0         # immediate = pass number
        sw    x4, 8(x7)         # pacing DATA
        lw    x5, 20(x0)        # the word at patch
        add   x5, x5, x6
        sw    x5, 20(x0)
        addi  x2, x2, -1
        beq   x2, x0, done
        jal   x0, patch
"""
HALTS = LOOP + "done:   jal   x0, done\n"
FAULTS = LOOP + "done:   .word 0xFFFFFFFF\n"


class Sink:
    """Stands in for stdout and keeps each write."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, s: str) -> int:
        self.writes.append(s)
        return len(s)

    def flush(self) -> None:
        pass


def render(rec) -> str:
    try:
        text = format_instruction(decode(rec.ir))
    except UnsupportedInstruction:
        text = f".word 0x{rec.ir:08X}"
    return f"{rec.cycle},{rec.mode},{rec.state},{rec.pc:08x},{rec.ir:08x},{text},{int(rec.retired)}\n"


def started(source: str) -> Simulator:
    sim = Simulator(peripherals=PeripheralMap.default())
    sim.program_and_start(assemble(source))
    return sim


def expected_lines(source: str, max_cycles: int) -> tuple[list[str], bool]:
    """Lines of the cycles before a self-loop halt, the budget or a fault;
    and whether the last of them retired an instruction."""
    sim = started(source)
    lines, retired = [], False
    with contextlib.suppress(SimError):
        while len(lines) < max_cycles:
            rec = sim.core.step_cycle(sim.bus)
            lines.append(render(rec))
            retired = rec.retired
            if retired and sim.core.pc == rec.pc:
                break
    return lines, retired


def cli_run(tmp_path, source: str, *extra: str) -> tuple[int, Sink, str]:
    hex_path = tmp_path / "loop.hex"
    hex_path.write_text(image_to_hex(assemble(source)))
    sink, err = Sink(), Sink()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        code = dispatch(["run", str(hex_path), "--trace", "--format", "kv", *extra])
    return code, sink, "".join(err.writes)


@pytest.mark.parametrize(
    "source, max_cycles, exit_code",
    [(HALTS, 10_000, 0), (HALTS, 1003, 4), (FAULTS, 10_000, 3)],
    ids=["halt", "budget", "fault"],
)
def test_trace_lines_cross_blocks_and_survive_every_ending(tmp_path, source, max_cycles, exit_code):
    expected, last_retired = expected_lines(source, max_cycles)
    assert len(expected) > 3 * TRACE_BLOCK_LINES
    code, sink, err = cli_run(tmp_path, source, "--max-cycles", str(max_cycles))
    assert code == exit_code
    out = "".join(sink.writes)
    report_at = out.find("halt_reason=")
    if exit_code == 3:
        assert report_at == -1 and err.startswith("error[fault]:")
        assert "pc=0x00000034" in err
    else:
        out = out[:report_at]
    if exit_code == 4:
        assert not last_retired  # stopped in the middle of an instruction
        assert err.startswith("error[budget]:")
    assert out == "".join(expected)
    trace_writes = [w for w in sink.writes if "halt_reason=" not in w and w != "\n"]
    assert max(w.count("\n") for w in trace_writes) <= TRACE_BLOCK_LINES
    assert len(trace_writes) == -(-len(expected) // TRACE_BLOCK_LINES)


def test_as_csv_matches_longhand_past_the_cache_bound():
    # Straight-line `addi xN, xN, k` over N = 1..31: every word a new (pc, ir) pair.
    words = WORD_CACHE_SIZE + 100
    source = "".join(f"addi x{1 + k % 31}, x{1 + k % 31}, {k // 31}\n" for k in range(words))
    sim, records = Simulator(16384), []
    sim.program_and_start(assemble(source + "done: jal x0, done\n"))
    sim.core.run(sim.bus, trace=lambda span: records.extend(span.records()))
    assert len({(r.pc, r.ir) for r in records}) > words > WORD_CACHE_SIZE
    for rec in records:
        assert rec.as_csv() + "\n" == render(rec)


def test_a_second_traced_run_in_one_process_renders_from_the_cache(tmp_path):
    # 1,100 passes, each patching its `addi`: more distinct spans than the
    # 1,024 the cache once held, so an LRU of that bound misses them all again.
    source = HALTS.replace("addi  x2, x0, 40", "addi  x2, x0, 1100")
    csv_suffixes.cache_clear()
    first = cli_run(tmp_path, source)
    misses = csv_suffixes.cache_info().misses
    second = cli_run(tmp_path, source)
    assert first[0] == second[0] == 0 and first[1].writes == second[1].writes
    assert misses > 1024 and csv_suffixes.cache_info().misses == misses


@pytest.mark.parametrize("lines", [(0, 0, 0), (0, 0, 1), (0, 1, 0)],
                         ids=["observation", "programming", "reset"])
@pytest.mark.parametrize("cycles", [8, 11], ids=["at-fetch", "mid-instruction"])
def test_held_records_render_like_longhand(lines, cycles):
    # After 8 cycles two instructions have retired: the core waits to fetch
    # pc 8 while instr_pc is still 4.  After 11 it is inside the one at 8.
    sim = started(HALTS)
    sim.run_cycles(cycles)
    sim.core.apply_control(*lines)
    reset = lines[1]  # clears the pc and the cycle count
    for _ in range(3):
        rec = sim.core.step_cycle(sim.bus)
        assert rec.held and rec.mode == sim.core.mode.value != ControlMode.EXECUTING.value
        assert (rec.cycle, rec.pc) == ((0, 0) if reset else (cycles, 8))
        assert rec.as_csv() + "\n" == render(rec)
