"""Built-in consistency checks: frozen golden encodings and demo runs.

GOLDEN_ENCODINGS pairs canonical assembly text with the 32-bit word it
must produce.  The values were generated from an independent encoder
written straight from the base-ISA format tables, and are frozen here so
an installed package can re-verify its own codec and engine without the
development tree.
"""

from __future__ import annotations

from typing import Callable

from .asm import assemble, disassemble
from .core import reference_execute
from .harness import PeripheralMap, Simulator
from .isa import decode, encode
from .memory import MemoryImage
from .metrics import HaltReason
from .programs import PROGRAMS

GOLDEN_ENCODINGS: list[tuple[str, int]] = [
    ("add x0, x0, x0", 0x00000033),
    ("add x1, x2, x3", 0x003100B3),
    ("add x31, x30, x29", 0x01DF0FB3),
    ("add x0, x5, x5", 0x00528033),
    ("sub x0, x0, x0", 0x40000033),
    ("sub x1, x2, x3", 0x403100B3),
    ("sub x31, x30, x29", 0x41DF0FB3),
    ("sub x0, x5, x5", 0x40528033),
    ("sll x0, x0, x0", 0x00001033),
    ("sll x1, x2, x3", 0x003110B3),
    ("sll x31, x30, x29", 0x01DF1FB3),
    ("sll x0, x5, x5", 0x00529033),
    ("slt x0, x0, x0", 0x00002033),
    ("slt x1, x2, x3", 0x003120B3),
    ("slt x31, x30, x29", 0x01DF2FB3),
    ("slt x0, x5, x5", 0x0052A033),
    ("sltu x0, x0, x0", 0x00003033),
    ("sltu x1, x2, x3", 0x003130B3),
    ("sltu x31, x30, x29", 0x01DF3FB3),
    ("sltu x0, x5, x5", 0x0052B033),
    ("xor x0, x0, x0", 0x00004033),
    ("xor x1, x2, x3", 0x003140B3),
    ("xor x31, x30, x29", 0x01DF4FB3),
    ("xor x0, x5, x5", 0x0052C033),
    ("srl x0, x0, x0", 0x00005033),
    ("srl x1, x2, x3", 0x003150B3),
    ("srl x31, x30, x29", 0x01DF5FB3),
    ("srl x0, x5, x5", 0x0052D033),
    ("sra x0, x0, x0", 0x40005033),
    ("sra x1, x2, x3", 0x403150B3),
    ("sra x31, x30, x29", 0x41DF5FB3),
    ("sra x0, x5, x5", 0x4052D033),
    ("or x0, x0, x0", 0x00006033),
    ("or x1, x2, x3", 0x003160B3),
    ("or x31, x30, x29", 0x01DF6FB3),
    ("or x0, x5, x5", 0x0052E033),
    ("and x0, x0, x0", 0x00007033),
    ("and x1, x2, x3", 0x003170B3),
    ("and x31, x30, x29", 0x01DF7FB3),
    ("and x0, x5, x5", 0x0052F033),
    ("addi x1, x0, 5", 0x00500093),
    ("addi x2, x3, -1", 0xFFF18113),
    ("addi x31, x15, 2047", 0x7FF78F93),
    ("addi x4, x4, -2048", 0x80020213),
    ("slti x1, x0, 5", 0x00502093),
    ("slti x2, x3, -1", 0xFFF1A113),
    ("slti x31, x15, 2047", 0x7FF7AF93),
    ("slti x4, x4, -2048", 0x80022213),
    ("sltiu x1, x0, 5", 0x00503093),
    ("sltiu x2, x3, -1", 0xFFF1B113),
    ("sltiu x31, x15, 2047", 0x7FF7BF93),
    ("sltiu x4, x4, -2048", 0x80023213),
    ("xori x1, x0, 5", 0x00504093),
    ("xori x2, x3, -1", 0xFFF1C113),
    ("xori x31, x15, 2047", 0x7FF7CF93),
    ("xori x4, x4, -2048", 0x80024213),
    ("ori x1, x0, 5", 0x00506093),
    ("ori x2, x3, -1", 0xFFF1E113),
    ("ori x31, x15, 2047", 0x7FF7EF93),
    ("ori x4, x4, -2048", 0x80026213),
    ("andi x1, x0, 5", 0x00507093),
    ("andi x2, x3, -1", 0xFFF1F113),
    ("andi x31, x15, 2047", 0x7FF7FF93),
    ("andi x4, x4, -2048", 0x80027213),
    ("slli x1, x2, 0", 0x00011093),
    ("slli x4, x4, 1", 0x00121213),
    ("slli x30, x29, 31", 0x01FE9F13),
    ("srli x1, x2, 0", 0x00015093),
    ("srli x4, x4, 1", 0x00125213),
    ("srli x30, x29, 31", 0x01FEDF13),
    ("srai x1, x2, 0", 0x40015093),
    ("srai x4, x4, 1", 0x40125213),
    ("srai x30, x29, 31", 0x41FEDF13),
    ("lw x2, 8(x1)", 0x0080A103),
    ("lw x1, 0(x0)", 0x00002083),
    ("lw x5, -4(x6)", 0xFFC32283),
    ("lw x31, 2047(x31)", 0x7FFFAF83),
    ("lw x7, -2048(x8)", 0x80042383),
    ("sw x2, 8(x1)", 0x0020A423),
    ("sw x1, 0(x0)", 0x00102023),
    ("sw x5, -4(x6)", 0xFE532E23),
    ("sw x31, 2047(x31)", 0x7FFFAFA3),
    ("sw x7, -2048(x8)", 0x80742023),
    ("beq x0, x0, 0", 0x00000063),
    ("beq x1, x2, 16", 0x00208863),
    ("beq x3, x4, -8", 0xFE418CE3),
    ("beq x5, x6, 4094", 0x7E628FE3),
    ("beq x7, x8, -4096", 0x80838063),
    ("jal x0, 0", 0x0000006F),
    ("jal x1, 2048", 0x001000EF),
    ("jal x5, -4", 0xFFDFF2EF),
    ("jal x31, 1048574", 0x7FFFFFEF),
    ("jal x2, -1048576", 0x8000016F),
]


def _check_codec(write: Callable[[str], None]) -> bool:
    bad = 0
    for text, word in GOLDEN_ENCODINGS:
        image = assemble(text)
        if image.words != [word]:
            write(f"selftest: FAIL encode {text!r}: got 0x{image.words[0]:08X}, want 0x{word:08X}")
            bad += 1
            continue
        d = decode(word)
        if encode(d) != word:
            write(f"selftest: FAIL re-encode 0x{word:08X}")
            bad += 1
            continue
        if disassemble(MemoryImage(0, [word])).strip() != text:
            write(f"selftest: FAIL disassemble 0x{word:08X}")
            bad += 1
    status = "PASS" if not bad else "FAIL"
    write(f"selftest: golden encodings: {status} ({len(GOLDEN_ENCODINGS)} entries)")
    return bad == 0


def _check_program(name: str, write: Callable[[str], None]) -> bool:
    image = assemble(PROGRAMS[name])
    sim = Simulator(peripherals=PeripheralMap.default())
    sim.program_and_start(image)
    report = sim.core.run(sim.bus, max_cycles=100_000)
    ok = report.halt_reason is HaltReason.SELF_LOOP

    if name == "pacer":
        # Touches device registers, so the flat-memory oracle does not apply;
        # check the pulse train instead.
        pulses = sim.peripherals.device("pacing").writes()
        cycles = [r.cycle for r in pulses]
        ok = ok and len(pulses) == 8 and cycles == sorted(cycles)
    else:
        oracle = reference_execute(image, max_instrs=100_000)
        ok = (
            ok
            and oracle.halted
            and oracle.regs == report.final_state.regs
            and oracle.memory == sim.mem.words
            and oracle.pc == report.final_state.pc
            and oracle.retired == report.retired_total
        )

    status = "PASS" if ok else "FAIL"
    write(
        f"selftest: {name}: {status} "
        f"(retired={report.retired_total}, cycles={report.total_cycles})"
    )
    return ok


def run_selftest(write: Callable[[str], None] = print) -> bool:
    ok = _check_codec(write)
    for name in PROGRAMS:
        ok = _check_program(name, write) and ok
    write(f"selftest: {'PASS' if ok else 'FAIL'}")
    return ok
